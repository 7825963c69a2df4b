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
from dataclasses import dataclass, field, replace

from repro import schema
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
        Per-dose threshold-voltage standard deviation [V], in (0, 1].
    window_margin:
        Addressability-window margin passed to the VT level scheme.
    """

    # at least one raw bit, and raw_bits exact in a double (<= 2**53)
    raw_kilobytes: float = schema.knob(
        DEFAULT_RAW_KILOBYTES,
        ge=1 / 8192,
        le=2.0**40,
        label="raw density",
        flags=("--raw-kb",),
        help="raw crossbar density in kB (default 16)",
    )
    nanowires_per_half_cave: int = schema.knob(
        DEFAULT_NANOWIRES_PER_HALF_CAVE,
        ge=1,
        label="nanowires per half cave",
        flags=("--nanowires",),
        help="nanowires per half cave (default 20)",
        override="nanowires",
    )
    rules: LithographyRules = field(default_factory=LithographyRules)
    # within the 0..1 V supply range every LevelScheme spans
    sigma_t: float = schema.knob(
        DEFAULT_SIGMA_T,
        gt=0,
        le=1,
        label="sigma_T",
        flags=("--sigma-t",),
        help="per-dose VT std deviation in V (default 0.05)",
        override="sigma_t",
    )
    window_margin: float = schema.knob(
        1.0,
        gt=0,
        le=1,
        label="window margin",
        flags=("--window-margin",),
        help="addressability window margin (default 1.0)",
        override="window_margin",
    )

    def __post_init__(self) -> None:
        schema.check(self)

    @property
    def raw_bits(self) -> int:
        """Raw crosspoints in the array (1 crosspoint = 1 bit)."""
        return int(round(self.raw_kilobytes * 1024 * 8))

    @property
    def side_nanowires(self) -> int:
        """Nanowires per layer of the square array (ceil of sqrt)."""
        return math.ceil(math.sqrt(self.raw_bits))

    @property
    def wires_per_cave(self) -> int:
        """Nanowires per cave (two mirrored half caves)."""
        return 2 * self.nanowires_per_half_cave

    @property
    def half_caves_per_layer(self) -> int:
        """Half caves needed to host one layer's nanowires."""
        return math.ceil(self.side_nanowires / self.nanowires_per_half_cave)

    @property
    def caves_per_layer(self) -> int:
        """Caves per layer (two half caves each)."""
        return math.ceil(self.half_caves_per_layer / 2)


_SPEC_OVERRIDES = schema.overrides(CrossbarSpec)
_RULE_OVERRIDES = schema.overrides(LithographyRules)

#: Every spec parameter a design point may override, as the schema names
#: them; ``DesignPoint.make`` and :func:`spec_with` validate against it.
SPEC_OVERRIDE_KEYS = (*_SPEC_OVERRIDES, *_RULE_OVERRIDES)


def validate_override_keys(keys) -> None:
    """Raise ``ValueError`` for any name outside :data:`SPEC_OVERRIDE_KEYS`."""
    unknown = sorted(set(keys) - set(SPEC_OVERRIDE_KEYS))
    if unknown:
        raise ValueError(
            f"unknown spec override(s) {unknown}; expected a subset of "
            f"{sorted(SPEC_OVERRIDE_KEYS)}"
        )


def spec_with(base: CrossbarSpec | None = None, **overrides) -> CrossbarSpec:
    """``base`` (default: the calibrated spec) with spec overrides applied.

    The one override path: the ablation benches, the memoized
    :func:`repro.exp.cache.cached_spec` of every design point and the
    sweep request's check all land here.  ``None`` leaves a knob alone;
    the rebuilt spec checks every value.
    """
    validate_override_keys(overrides)
    base = base or CrossbarSpec()
    changes = {
        _SPEC_OVERRIDES[k]: v
        for k, v in overrides.items()
        if k in _SPEC_OVERRIDES and v is not None
    }
    rules = {
        _RULE_OVERRIDES[k]: v
        for k, v in overrides.items()
        if k in _RULE_OVERRIDES and v is not None
    }
    if rules:
        changes["rules"] = replace(base.rules, **rules)
    return replace(base, **changes) if changes else base
