"""Lithography design rules of the simulation platform (Sec. 6.1).

The platform fixes the lithographic pitch at ``P_L = 32 nm`` and the
nanowire pitch at ``P_N = 10 nm``, and requires every ohmic contact group
to be at least ``1.5 x P_L`` wide.  This module bundles those rules plus
the two geometric parameters our contact-group model adds, because the
paper does not print the exact contact-boundary geometry: the dead gap
separating adjacent contacts and the overlay (alignment) tolerance of
the contact edge relative to the nanowires.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import schema

#: The paper's lithography pitch [nm].
DEFAULT_LITHO_PITCH_NM = 32.0

#: The paper's nanowire pitch [nm].
DEFAULT_NANOWIRE_PITCH_NM = 10.0

#: Minimum contact-group width in litho pitches (paper: "the minimum
#: width of every contact group had to be set to 1.5 x P_L").
MIN_CONTACT_WIDTH_FACTOR = 1.5


@dataclass(frozen=True)
class LithographyRules:
    """Geometric design rules for mesowires and contact groups.

    Parameters
    ----------
    litho_pitch_nm:
        Pitch P_L of lithographically defined lines (mesowires) [nm].
    nanowire_pitch_nm:
        Pitch P_N of the MSPT nanowires [nm].
    min_contact_width_factor:
        Minimum contact width as a multiple of P_L (paper: 1.5).
    contact_gap_factor:
        Width of the unavoidable dead gap between two adjacent contact
        groups, as a multiple of P_L.  Nanowires under the gap touch no
        contact; nanowires at the gap edges may touch two contacts and
        are removed as ambiguous (Sec. 6.1 after [6]).  Calibrated
        default: 1.0 (see :mod:`repro.analysis.calibration`).
    alignment_tolerance_nm:
        Overlay tolerance of a contact edge w.r.t. the nanowires [nm];
        widens the ambiguous zone by this much on each side of a gap.
    """

    litho_pitch_nm: float = schema.knob(DEFAULT_LITHO_PITCH_NM, gt=0)
    nanowire_pitch_nm: float = schema.knob(DEFAULT_NANOWIRE_PITCH_NM, gt=0)
    min_contact_width_factor: float = schema.knob(MIN_CONTACT_WIDTH_FACTOR, gt=0)
    contact_gap_factor: float = schema.knob(
        1.0,
        ge=0,
        flags=("--contact-gap",),
        help="contact dead gap in litho pitches (default 1.0)",
        override="contact_gap_factor",
    )
    alignment_tolerance_nm: float = schema.knob(
        5.0, ge=0, override="alignment_tolerance_nm"
    )

    def __post_init__(self) -> None:
        schema.check(self)
        if self.nanowire_pitch_nm > self.litho_pitch_nm:
            raise schema.error(
                self,
                "nanowire_pitch_nm",
                "nanowire pitch must not exceed the lithographic pitch "
                f"({self.nanowire_pitch_nm} > {self.litho_pitch_nm} nm)",
            )

    @property
    def min_contact_width_nm(self) -> float:
        """Smallest printable contact width [nm]."""
        return self.min_contact_width_factor * self.litho_pitch_nm

    @property
    def contact_gap_nm(self) -> float:
        """Dead gap between adjacent contact groups [nm]."""
        return self.contact_gap_factor * self.litho_pitch_nm

    @property
    def min_contact_span_nanowires(self) -> int:
        """Nanowires physically covered by a minimum-width contact."""
        return max(1, int(self.min_contact_width_nm // self.nanowire_pitch_nm))

    def contact_width_nm(self, group_size: int) -> float:
        """Printed width of a contact addressing ``group_size`` nanowires.

        The contact must cover its nanowires and respect the minimum
        printable width.
        """
        if group_size < 1:
            raise ValueError(f"group size must be >= 1, got {group_size}")
        return max(self.min_contact_width_nm, group_size * self.nanowire_pitch_nm)

    def boundary_loss_nanowires(self) -> float:
        """Expected nanowires lost per internal contact-group boundary.

        A boundary consists of the dead gap (unaddressed nanowires) plus
        one alignment tolerance on each side (ambiguous nanowires that
        may touch both contacts and are removed, Sec. 6.1).
        """
        dead_span = self.contact_gap_nm + 2.0 * self.alignment_tolerance_nm
        return dead_span / self.nanowire_pitch_nm
