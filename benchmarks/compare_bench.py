#!/usr/bin/env python
"""Diff two ``BENCH_*.json`` trees and flag performance regressions.

Every perf bench writes machine-readable gate numbers to
``benchmarks/output/BENCH_<name>.json`` (see ``conftest.py``; the
directory is git-ignored, so running a bench leaves the tree clean).
This tool compares two such trees — e.g. the committed baselines in
``benchmarks/baselines/`` against a fresh ``./run_checks.sh`` run —
and prints a per-gate table:

* **speedup gates** (keys containing ``speedup``) are machine-relative
  ratios and transfer across hosts; a drop beyond ``--max-regression``
  (default 30%) fails the comparison;
* **throughput gates** (keys ending in ``_per_s`` / ``_per_second``)
  are absolute rates, only comparable on similar hardware; they are
  reported, and gated only with ``--strict-throughput``;
* **overhead gates** (keys containing ``overhead``, e.g. the
  ``disabled_overhead`` fraction of ``BENCH_obs.json``) are
  lower-is-better fractions near zero, so they are compared by
  absolute rise, not ratio: growing by more than
  ``--max-overhead-rise`` (default 0.02, i.e. two percentage points)
  fails the comparison.

Usage::

    # re-run the benches, then diff against the committed baselines
    ./run_checks.sh
    python benchmarks/compare_bench.py benchmarks/baselines benchmarks/output

Exit status: 0 when no gated metric regressed beyond the threshold,
1 otherwise, 2 for usage errors (e.g. no common BENCH files).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

THROUGHPUT_SUFFIXES = ("_per_s", "_per_second")


def collect_gates(payload, prefix=""):
    """Flatten a BENCH payload into {dotted.path: float} gate entries."""
    gates = {}
    if isinstance(payload, dict):
        for key, value in sorted(payload.items()):
            path = f"{prefix}.{key}" if prefix else str(key)
            gates.update(collect_gates(value, path))
        return gates
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        key = prefix.rsplit(".", 1)[-1]
        if "speedup" in key and key != "min_speedup":
            gates[prefix] = ("speedup", float(payload))
        elif "overhead" in key and key != "max_overhead":
            gates[prefix] = ("overhead", float(payload))
        elif key.endswith(THROUGHPUT_SUFFIXES):
            gates[prefix] = ("throughput", float(payload))
    return gates


def load_tree(root: Path):
    """{file name: gate dict} for every BENCH_*.json under ``root``."""
    tree = {}
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping unreadable {path}: {exc}", file=sys.stderr)
            continue
        tree[path.name] = collect_gates(payload)
    return tree


def compare(baseline, current, max_regression, strict_throughput,
            max_overhead_rise):
    """Yield (gate, kind, old, new, ratio, regressed) comparison rows."""
    for name in sorted(set(baseline) & set(current)):
        common = set(baseline[name]) & set(current[name])
        for gate in sorted(common):
            kind, old = baseline[name][gate]
            _, new = current[name][gate]
            ratio = new / old if old else float("inf")
            if kind == "overhead":
                # fractions near zero: ratios are meaningless, gate on
                # the absolute rise instead
                regressed = new > old + max_overhead_rise
            else:
                gated = kind == "speedup" or strict_throughput
                regressed = gated and ratio < 1.0 - max_regression
            yield f"{name}:{gate}", kind, old, new, ratio, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json trees; non-zero exit on regression."
    )
    parser.add_argument("baseline", type=Path, help="baseline output directory")
    parser.add_argument("current", type=Path, help="current output directory")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="tolerated fractional drop of a gated metric (default 0.30)",
    )
    parser.add_argument(
        "--strict-throughput",
        action="store_true",
        help="also gate absolute throughputs (same-machine comparisons only)",
    )
    parser.add_argument(
        "--max-overhead-rise",
        type=float,
        default=0.02,
        help="tolerated absolute rise of an overhead fraction "
        "(default 0.02 = two percentage points)",
    )
    args = parser.parse_args(argv)

    for root in (args.baseline, args.current):
        if not root.is_dir():
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
    baseline = load_tree(args.baseline)
    current = load_tree(args.current)
    if not (set(baseline) & set(current)):
        print(
            f"error: no common BENCH_*.json between {args.baseline} "
            f"and {args.current}",
            file=sys.stderr,
        )
        return 2
    for name in sorted(set(baseline) ^ set(current)):
        side = "baseline" if name in baseline else "current"
        print(f"note: {name} only in {side}; not compared")

    rows = list(
        compare(
            baseline,
            current,
            args.max_regression,
            args.strict_throughput,
            args.max_overhead_rise,
        )
    )
    if not rows:
        print("no comparable gates found")
        return 0
    width = max(len(r[0]) for r in rows)
    print(
        f"{'gate'.ljust(width)}  {'kind':10}  {'baseline':>12}  "
        f"{'current':>12}  {'ratio':>7}"
    )
    failures = 0
    for gate, kind, old, new, ratio, regressed in rows:
        status = "  REGRESSED" if regressed else ""
        decimals = 4 if kind == "overhead" else 1
        print(
            f"{gate.ljust(width)}  {kind:10}  {old:12,.{decimals}f}  "
            f"{new:12,.{decimals}f}  {ratio:6.2f}x{status}"
        )
        failures += regressed
    if failures:
        print(
            f"\n{failures} gate(s) regressed more than "
            f"{100 * args.max_regression:.0f}%"
        )
        return 1
    print("\nno gated regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
