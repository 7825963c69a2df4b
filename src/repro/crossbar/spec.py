"""Crossbar specification of the simulation platform (paper Sec. 6.1).

The platform fixes:

* the raw crosspoint density ``D_RAW = 16 kB`` (a square memory array);
* the lithographic pitch ``P_L = 32 nm`` and nanowire pitch ``P_N = 10 nm``;
* the threshold-voltage variability ``sigma_T = 50 mV``;
* VT levels within 0..1 V.

The cave count and nanowires per half cave follow from ``D_RAW``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.device.variability import DEFAULT_SIGMA_T
from repro.fabrication.lithography import LithographyRules

#: Bits in the paper's raw density figure (16 kB).
DEFAULT_RAW_KILOBYTES = 16.0

#: The paper's nanowires-per-half-cave setting for the Fig. 6 study.
DEFAULT_NANOWIRES_PER_HALF_CAVE = 20


@dataclass(frozen=True)
class CrossbarSpec:
    """Parameters of the simulated crossbar memory.

    Parameters
    ----------
    raw_kilobytes:
        Raw crosspoint density D_RAW [kB]; the array is square.
    nanowires_per_half_cave:
        Decoder granularity N.
    rules:
        Lithography rules (pitches, contact geometry).
    sigma_t:
        Per-dose threshold-voltage standard deviation [V].
    window_margin:
        Addressability-window margin passed to the VT level scheme.
    """

    raw_kilobytes: float = DEFAULT_RAW_KILOBYTES
    nanowires_per_half_cave: int = DEFAULT_NANOWIRES_PER_HALF_CAVE
    rules: LithographyRules = field(default_factory=LithographyRules)
    sigma_t: float = DEFAULT_SIGMA_T
    window_margin: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.raw_kilobytes) and self.raw_kilobytes > 0):
            raise ValueError(
                f"raw density must be finite and positive, got {self.raw_kilobytes}"
            )
        if self.nanowires_per_half_cave < 1:
            raise ValueError("need at least one nanowire per half cave")
        if not (math.isfinite(self.sigma_t) and self.sigma_t > 0):
            raise ValueError(f"sigma_T must be finite and positive, got {self.sigma_t}")
        if not 0 < self.window_margin <= 1:
            raise ValueError(
                f"window margin must be in (0, 1], got {self.window_margin}"
            )

    @property
    def raw_bits(self) -> int:
        """Raw crosspoints in the array (1 crosspoint = 1 bit)."""
        return int(round(self.raw_kilobytes * 1024 * 8))

    @property
    def side_nanowires(self) -> int:
        """Nanowires per layer of the square array (ceil of sqrt)."""
        return math.ceil(math.sqrt(self.raw_bits))

    @property
    def half_caves_per_layer(self) -> int:
        """Half caves needed to host one layer's nanowires."""
        return math.ceil(self.side_nanowires / self.nanowires_per_half_cave)

    @property
    def caves_per_layer(self) -> int:
        """Caves per layer (two half caves each)."""
        return math.ceil(self.half_caves_per_layer / 2)
