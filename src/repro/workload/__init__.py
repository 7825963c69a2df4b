"""Trace-driven crossbar-memory workload engine.

The paper's target application — "the function of the crossbar circuit
was assumed to be a memory" (Sec. 6.1) — evaluated under realistic
traffic instead of wire-level yield alone:

* :mod:`repro.workload.traces` — seeded synthetic trace generators
  (uniform, sequential, zipfian, bursty; configurable read/write mix)
  emitting columnar address/op/value arrays;
* :mod:`repro.workload.memory_batch` — :class:`MemoryFleet`, which
  samples N defective crossbar instances, builds defect-aware
  logical→physical remap tables once per instance, and executes whole
  traces as vectorised gather/scatter chunks (optional SECDED repair),
  byte-identical to a scalar per-access reference kept with the tests;
* :mod:`repro.workload.electrical` — the electrical read mode: reads
  resolve through the sneak-path readout solver via a state-keyed
  factorization bank cache, so misreads, margins and ECC masking come
  from actual sneak-path currents;
* :mod:`repro.workload.metrics` — effective capacity, access-failure
  rate, spare-exhaustion point and ECC repair counters as
  Welford-accumulated fleet statistics.

See README.md ("Workload engine") for the data flow and the
reproducibility contract.
"""

from repro.workload.electrical import ElectricalReadout
from repro.workload.memory_batch import (
    FleetResult,
    MemoryFleet,
    analytic_address_space,
    prepare_workload,
)
from repro.workload.metrics import (
    ELECTRICAL_METRICS,
    FLEET_METRICS,
    electrical_metrics,
    exhausted_fraction,
    per_instance_metrics,
    summarize_fleet,
)
from repro.workload.traces import (
    TRACE_GENERATORS,
    Trace,
    TraceError,
    bursty_trace,
    make_trace,
    sequential_trace,
    uniform_trace,
    zipfian_trace,
)

__all__ = [
    "ELECTRICAL_METRICS",
    "FLEET_METRICS",
    "ElectricalReadout",
    "FleetResult",
    "MemoryFleet",
    "TRACE_GENERATORS",
    "Trace",
    "TraceError",
    "analytic_address_space",
    "bursty_trace",
    "electrical_metrics",
    "exhausted_fraction",
    "make_trace",
    "per_instance_metrics",
    "prepare_workload",
    "sequential_trace",
    "summarize_fleet",
    "uniform_trace",
    "zipfian_trace",
]
