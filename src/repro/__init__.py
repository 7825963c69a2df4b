"""repro — reproduction of *Decoding Nanowire Arrays Fabricated with the
Multi-Spacer Patterning Technique* (Ben Jamaa, Leblebici, De Micheli,
DAC 2009).

The library models the full MSPT decoder stack:

* ``repro.codes`` — the five addressing-code families (TC, GC, BGC, HC,
  AHC) with their transition metrics;
* ``repro.device`` — threshold-voltage physics, level schemes and dose
  variability;
* ``repro.fabrication`` — the MSPT spacer process, doping matrices,
  fabrication complexity;
* ``repro.decoder`` — pattern, variability and addressing models of a
  half cave, plus contact-group geometry;
* ``repro.crossbar`` — the 16 kB crossbar platform: yield, area,
  Monte-Carlo validation and a defect-aware memory;
* ``repro.sim`` — the batched Monte-Carlo engine: chunked,
  stream-reproducible evaluation of all stochastic models on a
  leading trial axis;
* ``repro.exp`` — the design-space evaluation pipeline: parallel,
  cached, columnar sweeps of analytic design points (the engine under
  every figure generator, family sweep and the optimizer);
* ``repro.workload`` — the trace-driven memory workload engine:
  synthetic traffic (uniform/sequential/zipfian/bursty) replayed over
  fleets of sampled defective crossbar instances with vectorised
  defect-aware remapping and optional SECDED repair;
* ``repro.analysis`` — figure data generators and headline statistics;
* ``repro.core`` — the high-level :class:`DecoderDesign` API, design
  optimisation and executable theorem checks.

Quickstart
----------
>>> from repro import DecoderDesign
>>> design = DecoderDesign.build("BGC", total_length=10)
>>> round(design.cave_yield, 2) > 0.5
True
"""

from repro.codes import (
    ArrangedHotCode,
    BalancedGrayCode,
    CodeSpace,
    GrayCode,
    HotCode,
    TreeCode,
    make_code,
)
from repro.core import DecoderDesign, explore_designs, optimize_design
from repro.crossbar import (
    CrossbarMemory,
    CrossbarSpec,
    crossbar_yield,
    effective_bit_area,
    sample_defect_map,
    simulate_cave_yield,
)
from repro.decoder import HalfCaveDecoder
from repro.exp import DesignPoint, SweepResult, design_grid, run_sweep
from repro.fabrication import DopingPlan, ProcessFlow, fabrication_complexity
from repro.sim import MonteCarloEngine, StreamingMoments
from repro.workload import MemoryFleet, Trace, make_trace

__version__ = "1.0.0"

__all__ = [
    "ArrangedHotCode",
    "BalancedGrayCode",
    "CodeSpace",
    "CrossbarMemory",
    "CrossbarSpec",
    "DecoderDesign",
    "DesignPoint",
    "DopingPlan",
    "GrayCode",
    "HalfCaveDecoder",
    "HotCode",
    "MemoryFleet",
    "MonteCarloEngine",
    "ProcessFlow",
    "StreamingMoments",
    "Trace",
    "TreeCode",
    "__version__",
    "crossbar_yield",
    "effective_bit_area",
    "SweepResult",
    "design_grid",
    "explore_designs",
    "fabrication_complexity",
    "make_code",
    "make_trace",
    "optimize_design",
    "run_sweep",
    "sample_defect_map",
    "simulate_cave_yield",
]
