"""Device-physics substrate: VT <-> doping bijection, levels, variability.

Implements the *h* mapping of Proposition 1 (digit -> threshold voltage
-> doping level via the long-channel MOS equation, Sze & Ng [14]), the
VT level placement of the simulation platform (Sec. 6.1) and the
Gaussian dose-variability model (Def. 5).
"""

from repro.device.materials import (
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    EPS_0,
    EPS_OXIDE,
    EPS_R_OXIDE,
    EPS_R_SILICON,
    EPS_SILICON,
    N_INTRINSIC_SILICON,
    PAPER_FIT_GATE_STACK,
    ROOM_TEMPERATURE,
    THERMAL_VOLTAGE_300K,
    GateStack,
)
from repro.device.physics import (
    DOPING_MAX,
    DOPING_MIN,
    DigitDopingMap,
    PhysicsError,
    ThresholdModel,
    fit_gate_stack_to_paper_example,
)
from repro.device.threshold import LevelError, LevelScheme
from repro.device.variability import (
    DEFAULT_SIGMA_T,
    compose_std,
    region_pass_probability,
    region_std,
    sample_region_vt,
    window_pass_probability,
)

__all__ = [
    "BOLTZMANN",
    "DEFAULT_SIGMA_T",
    "DOPING_MAX",
    "DOPING_MIN",
    "DigitDopingMap",
    "ELEMENTARY_CHARGE",
    "EPS_0",
    "EPS_OXIDE",
    "EPS_R_OXIDE",
    "EPS_R_SILICON",
    "EPS_SILICON",
    "GateStack",
    "LevelError",
    "LevelScheme",
    "N_INTRINSIC_SILICON",
    "PAPER_FIT_GATE_STACK",
    "PhysicsError",
    "ROOM_TEMPERATURE",
    "THERMAL_VOLTAGE_300K",
    "ThresholdModel",
    "compose_std",
    "fit_gate_stack_to_paper_example",
    "region_pass_probability",
    "region_std",
    "sample_region_vt",
    "window_pass_probability",
]
