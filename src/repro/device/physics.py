"""Threshold-voltage <-> doping-level physics (the bijection *h* of Prop. 1).

The paper maps pattern digits onto threshold voltages (a discrete
ordering, bijection *g*) and threshold voltages onto doping levels via
"a monotonic non-linear function f" from Sze & Ng [14].  The composite
``h = f o g`` maps the pattern matrix onto the final doping matrix.

We use the long-channel enhancement-mode MOS threshold equation

    VT(N_A) = V_FB + 2*phi_F + sqrt(2 * eps_Si * q * N_A * 2*phi_F) / C_ox
    phi_F(N_A) = (kT/q) * ln(N_A / n_i)

which is monotonically increasing in the channel doping ``N_A`` and is
inverted numerically (Brent's bracketed root finder, :func:`_brentq`) to
obtain ``f``.  The gate stack
(oxide thickness and flat-band voltage) is fitted once so the worked
Example 1 of the paper is approximated; the decoder results only require
monotonicity + non-linearity + bijectivity, all of which hold for any
stack.

:func:`_brentq` is a line-for-line Python port of SciPy's C
``brentq`` (``scipy/optimize/Zeros/brentq.c``, with the default
``xtol``/``rtol``/``maxiter`` of ``scipy.optimize.brentq``): the same
IEEE-754 operations in the same order, so it returns the same bits.
Keeping it in-tree takes ``scipy.optimize`` off the ``import repro``
path; ``tests/test_device_brentq.py`` pins the port bit for bit against
SciPy over the whole achievable VT range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from repro.device.materials import (
    ELEMENTARY_CHARGE,
    EPS_SILICON,
    N_INTRINSIC_SILICON,
    PAPER_FIT_GATE_STACK,
    GateStack,
)


class PhysicsError(ValueError):
    """Raised for out-of-range doping or threshold-voltage requests."""


#: Doping bracket within which the model is inverted [cm^-3].
DOPING_MIN = 1e15
DOPING_MAX = 1e21

#: ``scipy.optimize.brentq``'s default tolerances and iteration cap.
_BRENT_XTOL = 2e-12
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brentq(f, xa: float, xb: float) -> float:
    """Root of ``f`` in the sign-changing bracket ``[xa, xb]`` (Brent 1973).

    Port of SciPy's C ``brentq``: every assignment, comparison and
    rounding step below mirrors the C source, so for the same ``f`` the
    result is bit-identical to ``scipy.optimize.brentq(f, xa, xb)``.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre)
                )
            # C's MIN(a, b) is ``a < b ? a : b``
            a, b = abs(spre), 3 * abs(sbis) - delta
            if 2 * abs(stry) < (a if a < b else b):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"failed to converge after {_BRENT_MAXITER} iterations")


@dataclass(frozen=True)
class ThresholdModel:
    """Bijective map between channel doping N_A and threshold voltage VT.

    Parameters
    ----------
    stack:
        Gate-stack constants; defaults to the paper-fitted stack.
    """

    stack: GateStack = PAPER_FIT_GATE_STACK

    def fermi_potential(self, doping: float) -> float:
        """Bulk Fermi potential phi_F [V] for acceptor doping [cm^-3]."""
        if doping <= 0:
            raise PhysicsError(f"doping must be positive, got {doping}")
        return self.stack.thermal_voltage * math.log(doping / N_INTRINSIC_SILICON)

    def vt_from_doping(self, doping: float) -> float:
        """Threshold voltage [V] for a channel doping [cm^-3]."""
        if not DOPING_MIN <= doping <= DOPING_MAX:
            raise PhysicsError(
                f"doping {doping:.3g} outside model range "
                f"[{DOPING_MIN:.0e}, {DOPING_MAX:.0e}] cm^-3"
            )
        phi_f = self.fermi_potential(doping)
        depletion = math.sqrt(
            2.0 * EPS_SILICON * ELEMENTARY_CHARGE * doping * 2.0 * phi_f
        )
        return (
            self.stack.flatband_voltage
            + 2.0 * phi_f
            + depletion / self.stack.oxide_capacitance
        )

    def doping_from_vt(self, vt: float) -> float:
        """Channel doping [cm^-3] achieving threshold voltage ``vt`` [V].

        Numerical inverse of :meth:`vt_from_doping` (monotonic, so the
        bracketed root is unique).
        """
        lo, hi = DOPING_MIN, DOPING_MAX
        vt_lo, vt_hi = self.vt_from_doping(lo), self.vt_from_doping(hi)
        if not vt_lo <= vt <= vt_hi:
            raise PhysicsError(
                f"VT {vt:.3f} V outside achievable range "
                f"[{vt_lo:.3f}, {vt_hi:.3f}] V for this gate stack"
            )
        return _brentq(lambda na: self.vt_from_doping(na) - vt, lo, hi)

    def vt_range(self) -> tuple[float, float]:
        """Threshold voltages achievable within the doping bracket."""
        return self.vt_from_doping(DOPING_MIN), self.vt_from_doping(DOPING_MAX)


@dataclass(frozen=True)
class DigitDopingMap:
    """The bijection *h* of Proposition 1: pattern digit -> doping level.

    Composes the discrete ordering *g* (digit -> VT level) with the
    inverted device physics *f* (VT -> N_A).  Because a pattern uses only
    ``n`` distinct digits, the map is precomputed per level and applied
    to whole matrices by table lookup.

    Parameters
    ----------
    vt_levels:
        The ``n`` threshold voltages, strictly increasing [V].
    model:
        Underlying physics model.
    """

    vt_levels: tuple[float, ...]
    model: ThresholdModel = ThresholdModel()

    def __post_init__(self) -> None:
        if len(self.vt_levels) < 2:
            raise PhysicsError("need at least two VT levels")
        if any(b <= a for a, b in zip(self.vt_levels, self.vt_levels[1:])):
            raise PhysicsError(
                f"VT levels must be strictly increasing: {self.vt_levels}"
            )

    @property
    def n(self) -> int:
        """Logic valence."""
        return len(self.vt_levels)

    def doping_levels(self) -> np.ndarray:
        """Doping level per digit, shape ``(n,)`` [cm^-3]; strictly increasing."""
        return np.array([self.model.doping_from_vt(v) for v in self.vt_levels])

    def doping_of_digit(self, digit: int) -> float:
        """Doping level [cm^-3] for one pattern digit."""
        if not 0 <= digit < self.n:
            raise PhysicsError(f"digit {digit} out of range for n={self.n}")
        return float(self.doping_levels()[digit])

    def apply(self, pattern: np.ndarray) -> np.ndarray:
        """Map a pattern matrix (digits) to the final doping matrix D.

        Implements ``D[i, j] = h(P[i, j])`` elementwise (Prop. 1).
        """
        pattern = np.asarray(pattern)
        if pattern.size and (pattern.min() < 0 or pattern.max() >= self.n):
            raise PhysicsError(
                f"pattern digits outside [0, {self.n - 1}]:"
                f" min={pattern.min()}, max={pattern.max()}"
            )
        return self.doping_levels()[pattern]

    def invert(self, doping: np.ndarray, rtol: float = 1e-6) -> np.ndarray:
        """Map a doping matrix back to pattern digits (h is bijective).

        Each entry must match one of the level dopings to within ``rtol``.
        """
        doping = np.asarray(doping, dtype=float)
        levels = self.doping_levels()
        idx = np.abs(doping[..., None] - levels[None, :]).argmin(axis=-1)
        matched = levels[idx]
        if not np.allclose(doping, matched, rtol=rtol):
            raise PhysicsError("doping matrix contains off-level values")
        return idx

    def vt_of_digit(self, digit: int) -> float:
        """Nominal threshold voltage [V] for one pattern digit."""
        if not 0 <= digit < self.n:
            raise PhysicsError(f"digit {digit} out of range for n={self.n}")
        return self.vt_levels[digit]


def fit_gate_stack_to_paper_example(
    vt_low: float = 0.1,
    vt_high: float = 0.5,
    doping_low: float = 2e18,
    doping_high: float = 9e18,
) -> GateStack:
    """Fit (V_FB, t_ox) so two (VT, N_A) anchor points are matched exactly.

    The paper's Example 1 uses VT = 0.1/0.3/0.5 V for dopings
    2/4/9 x 10^18 cm^-3; matching the end points pins both free constants
    of the threshold equation.  The solution is closed-form because the
    two equations are linear in ``V_FB`` and ``1 / C_ox``.
    """
    model = ThresholdModel(GateStack(oxide_thickness_cm=1e-7, flatband_voltage=0.0))

    def body_terms(doping: float) -> tuple[float, float]:
        phi_f = model.fermi_potential(doping)
        charge = math.sqrt(2.0 * EPS_SILICON * ELEMENTARY_CHARGE * doping * 2.0 * phi_f)
        return 2.0 * phi_f, charge

    phi_lo, q_lo = body_terms(doping_low)
    phi_hi, q_hi = body_terms(doping_high)
    # vt = vfb + phi + q / cox  =>  two linear equations in (vfb, 1/cox)
    inv_cox = (vt_high - vt_low - (phi_hi - phi_lo)) / (q_hi - q_lo)
    if inv_cox <= 0:
        raise PhysicsError("anchor points do not admit a positive oxide capacitance")
    vfb = vt_low - phi_lo - q_lo * inv_cox
    from repro.device.materials import EPS_OXIDE

    return GateStack(oxide_thickness_cm=EPS_OXIDE * inv_cox, flatband_voltage=vfb)
