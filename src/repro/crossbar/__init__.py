"""Crossbar-level substrate: spec, floorplan, yield, area, memory, MC.

Implements the simulation platform of Sec. 6.1: a square 16 kB crossbar
memory with P_L = 32 nm, P_N = 10 nm, sigma_T = 50 mV, evaluated through
an analytic yield model (Fig. 7), a floorplan/bit-area model (Fig. 8), a
Monte-Carlo cross-check, and a defect-aware memory abstraction.
"""

from repro.crossbar.area import AreaReport, effective_bit_area, family_area_sweep
from repro.crossbar.array import AddressingFault, CrossbarArray
from repro.crossbar.defects import DefectMap, sample_defect_map, sample_layer_mask
from repro.crossbar.ecc import (
    EccError,
    EccMemory,
    SecdedCode,
    decode_blocks,
    encode_blocks,
)
from repro.crossbar.geometry import CrossbarFloorplan
from repro.crossbar.memory import CapacityError, CrossbarMemory
from repro.crossbar.readout import (
    ReadoutError,
    ReadoutModel,
    margin_vs_bank_size,
    max_bank_size,
)
from repro.crossbar.montecarlo import (
    MonteCarloMarginYield,
    MonteCarloYield,
    sample_electrical_mask,
    sample_geometric_mask,
    simulate_cave_yield,
    simulate_margin_yield,
)
from repro.crossbar.spec import (
    DEFAULT_NANOWIRES_PER_HALF_CAVE,
    DEFAULT_RAW_KILOBYTES,
    CrossbarSpec,
)
from repro.crossbar.yield_model import (
    YieldReport,
    crossbar_yield,
    decoder_for,
    family_yield_sweep,
)

__all__ = [
    "AddressingFault",
    "AreaReport",
    "CrossbarArray",
    "CapacityError",
    "CrossbarFloorplan",
    "CrossbarMemory",
    "CrossbarSpec",
    "DEFAULT_NANOWIRES_PER_HALF_CAVE",
    "DEFAULT_RAW_KILOBYTES",
    "DefectMap",
    "EccError",
    "EccMemory",
    "ReadoutError",
    "ReadoutModel",
    "SecdedCode",
    "MonteCarloMarginYield",
    "MonteCarloYield",
    "YieldReport",
    "crossbar_yield",
    "decode_blocks",
    "decoder_for",
    "encode_blocks",
    "effective_bit_area",
    "margin_vs_bank_size",
    "max_bank_size",
    "family_area_sweep",
    "family_yield_sweep",
    "sample_defect_map",
    "sample_electrical_mask",
    "sample_geometric_mask",
    "sample_layer_mask",
    "simulate_cave_yield",
    "simulate_margin_yield",
]
