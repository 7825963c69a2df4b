"""Which ``src/`` functions no command reaches: the reachability gate.

Runs a battery of in-process ``repro.cli.main`` calls under
``sys.setprofile`` / ``threading.setprofile`` and records every Python
function of ``src/repro`` that gets called.  Every function defined
under ``src/repro`` (found with ``ast``, keyed ``path::qualname``) that
the battery never calls is *unreached*.

The battery covers every subcommand except ``serve`` and ``shard``:
the paper figures (with ``--csv``/``--json`` side files), ``evaluate``,
``optimize``, every sweep metric (``--format csv|json``, ``--output``),
``simulate``, ``margins`` with and without ``--samples``, ideal, ECC,
``float`` and ``ground`` ``memsim``, ``readout --scheme all``,
``headline``, ``theorems``, ``baselines``, ``calibrate``, a ``--store``
miss then hit, and ``store verify``.  ``serve``, ``shard``,
``repro.dist``, ``repro.obs``, ``repro.serve`` and ``repro.faults`` are
excluded from the census: they need daemons, child processes or fault
plans this battery does not drive.

Usage (from the repository root)::

    PYTHONPATH=src python tests/reachability.py           # check
    PYTHONPATH=src python tests/reachability.py --write   # re-record

The check fails when a function that is not in
``tests/reachability_unreached.txt`` goes unreached, so the committed
list can only shrink.  Functions that left the list are reported; run
``--write`` to drop them from it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
LIST = Path(__file__).resolve().with_name("reachability_unreached.txt")

#: Subtrees and modules left out of the census (see the docstring).
EXCLUDED = ("dist/", "obs/", "serve/", "faults.py")


def battery(tmp: Path) -> list[list[str]]:
    """The ``cli.main`` argument lists; side files land in ``tmp``."""
    store = str(tmp / "store")
    small_mc = ["--samples", "2000", "--seed", "1"]
    memsim = ["memsim", "TC", "-M", "6", "--accesses", "400", "--instances", "2"]
    metrics = "yield,area,complexity,margins,marginmc,montecarlo,readout,workload"
    sweep = (
        "sweep --families TC,BGC --lengths 6,8 --mc-samples 500 --jobs 1"
        " --wl-accesses 200 --wl-instances 2 --wl-readout float --metric"
    ).split() + [metrics]
    return [
        ["info"],
        ["fig5"],
        ["fig6"],
        ["fig7", "--csv", str(tmp / "fig7.csv"), "--json", str(tmp / "fig7.json")],
        ["fig8"],
        ["evaluate", "BGC", "-M", "10"],
        ["optimize", "--objective", "bit_area", "--jobs", "1"],
        sweep,
        sweep + ["--format", "csv", "--output", str(tmp / "sweep.csv")],
        sweep + ["--format", "json"],
        ["simulate", "BGC", "-M", "8", *small_mc],
        ["simulate", "BGC", "-M", "8", *small_mc, "--format", "json"],
        ["margins", "-M", "8"],
        ["margins", "--family", "GC,BGC", "-M", "8", *small_mc, "--format", "csv"],
        memsim,
        memsim + ["--ecc", "--error-rate", "1e-3", "--format", "json"],
        memsim + ["--readout", "float", "--format", "csv"],
        memsim + ["--readout", "ground"],
        ["readout", "--scheme", "all"],
        ["headline"],
        ["theorems"],
        ["baselines"],
        ["calibrate"],
        ["--store", store, "simulate", "TC", "-M", "6", *small_mc],
        ["--store", store, "simulate", "TC", "-M", "6", *small_mc],
        ["store", "verify", store],
    ]


def defined_functions() -> set[str]:
    """``path::qualname`` of every function under ``src/repro``."""
    found: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        if rel.startswith(EXCLUDED):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        _collect(tree, "", rel, found)
    return found


def _collect(node: ast.AST, prefix: str, rel: str, found: set[str]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            found.add(f"{rel}::{qualname}")
            _collect(child, qualname + ".<locals>.", rel, found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, prefix + child.name + ".", rel, found)
        else:
            _collect(child, prefix, rel, found)


def called_functions(tmp: Path) -> set[str]:
    """``path::qualname`` of every ``src/repro`` function the battery calls.

    ``repro`` is imported under the profiler, so functions that run at
    import time (schema field declarations, registries) count as reached.
    """
    seen: set[tuple[str, str]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_qualname))

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        from repro import cli

        for argv in battery(tmp):
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            if status not in (None, 0):
                raise SystemExit(f"repro {' '.join(argv)} exited {status}")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    called = set()
    for name, qualname in seen:
        path = Path(os.path.abspath(name))
        if path.is_relative_to(PACKAGE):
            called.add(f"{path.relative_to(PACKAGE).as_posix()}::{qualname}")
    return called


def unreached() -> list[str]:
    os.environ.pop("REPRO_STORE", None)
    with tempfile.TemporaryDirectory() as tmp:
        called = called_functions(Path(tmp))
    return sorted(defined_functions() - called)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="re-record the committed list"
    )
    args = parser.parse_args(argv)
    now = unreached()
    if args.write:
        LIST.write_text("".join(f"{name}\n" for name in now))
        print(f"{len(now)} unreached functions written to {LIST.name}")
        return 0
    listed = set(LIST.read_text().split())
    joined = sorted(set(now) - listed)
    left = sorted(listed - set(now))
    for name in left:
        print(f"reached now (drop from the list with --write): {name}")
    for name in joined:
        print(f"newly unreached: {name}", file=sys.stderr)
    print(f"{len(now)} unreached, {len(joined)} new, {len(left)} left the list")
    return 1 if joined else 0


if __name__ == "__main__":
    sys.exit(main())
