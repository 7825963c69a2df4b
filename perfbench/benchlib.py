"""Measurement helpers of the end-to-end benchmark.

Small pieces the workloads share; the tests in ``test_benchlib.py``
exercise the pure ones on synthetic data:

* :func:`tail_percentile` — the tail rule: the highest percentile that
  still has at least :data:`TAIL_BEYOND` samples beyond it;
* :func:`quiet_op_seconds` — a mix's mean op time with each op kind
  timed over its fastest quarter, the timing the bounds gate on;
* :class:`Tracer` — bench-side spans (name, start, end, parent, trace
  id) kept in memory and written as JSONL at the end;
* :func:`self_times` / :func:`layer_self_times` / :func:`layer_shares`
  — a span's duration minus the part of its interval its child spans
  cover, summed per layer and taken as a share of the ops' wall;
* :func:`thirdparty_import_ms` — numpy+scipy cumulative import time
  from ``python -X importtime`` output;
* :func:`host_fingerprint` and :func:`peak_rss_mb` — what every result
  is stamped with.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import platform
import resource
import threading
import time
from pathlib import Path

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Share of each op kind's fastest samples that :func:`quiet_op_seconds`
#: averages.
QUIET_SHARE = 0.25


def quiet_op_seconds(samples_by_kind: dict, share: float = QUIET_SHARE) -> float:
    """Mean op time of a mix, each op kind timed over its fastest ``share``.

    Each kind's fastest ``ceil(share * n)`` samples are averaged, and the
    kinds are weighted by their sample counts.  A shared host's slow
    phases only add time, so while at least ``share`` of a kind's ops
    ran in quiet moments this reads the same whatever the phases were;
    a slower program moves it like every other timing.
    """
    total = sum(len(v) for v in samples_by_kind.values())
    if total == 0:
        raise ValueError("no samples")
    mean = 0.0
    for samples in samples_by_kind.values():
        if not samples:
            continue
        fastest = sorted(samples)[: max(1, math.ceil(share * len(samples)))]
        mean += len(samples) / total * (sum(fastest) / len(fastest))
    return mean


def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """``(percentile, value, n)`` of the highest percentile with at least
    ``beyond`` samples above it, or None when there are too few samples.

    The value is the nearest-rank sample at rank ``n - beyond`` (1-based),
    so exactly ``beyond`` samples rank above it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return None
    rank = n - beyond
    return 100.0 * rank / n, xs[rank - 1], n


# -- spans ---------------------------------------------------------------------


class Tracer:
    """Bench-side spans on per-thread stacks, kept in memory.

    ``span(name, trace=...)`` opens a span whose parent is the innermost
    open span of the calling thread; the trace id is inherited from the
    parent unless given (each op's root span mints one).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, trace=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "trace": trace if trace is not None else (parent or {}).get("trace"),
            "start": self.clock(),
        }
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = self.clock()
            stack.pop()
            self.spans.append(rec)


def write_jsonl(path: str | Path, header: dict, records) -> Path:
    """A header line, then one JSON object per record."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({"header": header}) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


class NullTracer:
    """The untraced stand-in: same interface, records nothing."""

    def span(self, name: str, trace=None):
        return contextlib.nullcontext()


NULL_TRACER = NullTracer()


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its children's intervals cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def layer_of(name: str) -> str:
    """A span's layer: the name up to the first dot (``op`` roots = bench)."""
    head = name.split(".", 1)[0]
    return "bench" if head == "op" else head


def layer_self_times(spans) -> dict[str, float]:
    """Total self time per layer over ``spans`` (seconds)."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = layer_of(s["name"])
        out[layer] = out.get(layer, 0.0) + own[s["id"]]
    return out


def layer_shares(spans, wall: float) -> dict[str, float]:
    """Each layer's self time as a share of ``wall``.

    ``wall`` is the traced ops' end-to-end time measured outside the
    spans, so the shares sum to less than 1 by the part of the ops that
    no span covers (a missing span, or bench work around the root).
    """
    return {layer: t / wall for layer, t in layer_self_times(spans).items()}


# -- python -X importtime ------------------------------------------------------


def thirdparty_import_ms(importtime_stderr: str, roots=("numpy", "scipy")) -> float:
    """Cumulative import time of the ``roots`` packages, in ms.

    ``-X importtime`` prints children before their parent with the
    nesting shown by indentation; walking the lines in reverse gives
    pre-order, so each entry's parent is the nearest shallower entry
    before it.  An entry counts when it belongs to a root package and
    its parent does not, so nested third-party imports are not counted
    twice.
    """
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        name = raw.strip()
        depth = len(raw) - len(raw.lstrip())
        entries.append((depth, name, int(parts[1])))

    def is_root(name: str) -> bool:
        return name.split(".", 1)[0] in roots

    total_us = 0
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else None
        if is_root(name) and (parent is None or not is_root(parent)):
            total_us += cumulative
        stack.append((depth, name))
    return total_us / 1000.0


# -- host and process facts ----------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """OpenBLAS thread count of the numpy in use, or None if unknown."""
    import ctypes
    import glob

    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def calibration_ms(reps: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop, in ms.

    Shared hosts change speed by tens of percent over minutes; this
    records the host's state beside each result, so a shift in every
    metric can be told apart from a change in the program.
    """
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        times.append(time.perf_counter() - t0)
    return 1000.0 * sorted(times)[reps // 2]


def host_fingerprint() -> dict:
    """Facts that make two results comparable (or not)."""
    import numpy
    import scipy

    return {
        "calibration_ms": calibration_ms(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def peak_rss_mb(*, include_self: bool) -> float:
    """Peak RSS in MB of the waited-for children and, optionally, this process.

    ``ru_maxrss`` of ``RUSAGE_CHILDREN`` is the largest peak among
    terminated, waited-for descendants, so call it after every program
    process has been stopped.
    """
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak_kb / 1024.0
