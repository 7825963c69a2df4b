"""Stochastic model of doping-induced threshold-voltage variability.

Each lithography/doping operation contributes an independent Gaussian
threshold-voltage error of standard deviation ``sigma_T`` (the paper uses
50 mV).  A doping region hit by ``nu`` operations therefore carries a
variance ``nu * sigma_T**2`` (Def. 5: independent errors add in
quadrature), and the probability that the region still reads as its
nominal level is a Gaussian integral over the addressability window.

That integral is ``erf``, computed by :func:`_erf`, a port of the
Cephes ``erf``/``erfc`` rational approximations (S. L. Moshier,
*Methods and Programs for Mathematical Functions*, 1989; ``ndtr.c``)
that ``scipy.special.erf`` evaluates: the same coefficients and the
same IEEE-754 operations in the same order, with ``exp`` taken from the
C library through :func:`math.exp`, so it returns scipy's bits.
Keeping it in-tree takes ``scipy.special`` off every analytic-yield
path; ``tests/test_device_erf.py`` pins the port bit for bit against
SciPy.  ``math.erf`` is a different algorithm that differs from scipy
in the last ulps, and would move the Fig. 7 and headline bytes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: The paper's threshold-voltage variability per doping operation [V].
DEFAULT_SIGMA_T = 0.050

# Cephes ``ndtr.c`` coefficients, highest power first.  ``erf`` is
# x T(x^2) / U(x^2) for |x| <= 1; ``erfc`` is exp(-x^2) P(x) / Q(x) for
# 1 < x < 8 and exp(-x^2) R(x) / S(x) from 8 on.  The leading 1 of the
# monic Q, S and U is implicit (Cephes' ``p1evl``).
_ERF_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
#: Cephes ``MAXLOG``, ln(DBL_MAX): past it ``erfc`` underflows to 0.
_MAXLOG = 7.09782712893383996843e2


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner evaluation of ``coef`` at ``x`` (Cephes ``polevl``)."""
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner evaluation of the monic ``1, *coef`` (Cephes ``p1evl``)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """Elementwise ``erf``, bit-identical to ``scipy.special.erf``.

    Cephes' scalar branches run on masked sub-arrays; numpy's ``*``,
    ``+`` and ``/`` round each operation like C does, and ``exp(-x^2)``
    is :func:`math.exp` per element, because numpy's SIMD ``exp``
    differs from the C library's in the last ulp.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    ax = np.abs(x)
    small = ax <= 1.0
    # erf(x) = x T(x^2) / U(x^2); -erf(-x) rounds to the same bits
    xs = x[small]
    z = xs * xs
    out[small] = xs * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)
    # erf(x) = sign(x) (1 - erfc(|x|)); erfc underflows to 0 past MAXLOG
    big = ax > 1.0
    a = ax[big]
    with np.errstate(over="ignore"):  # |x| > 1.3e154: z = -inf, as in C
        z = -a * a
    erfc = np.zeros_like(a)
    live = z >= -_MAXLOG
    a, z = a[live], z[live]
    mid = a < 8.0
    p = np.where(mid, _polevl(a, _ERFC_P), _polevl(a, _ERFC_R))
    q = np.where(mid, _p1evl(a, _ERFC_Q), _p1evl(a, _ERFC_S))
    expz = np.array([math.exp(v) for v in z.tolist()], dtype=float)
    erfc[live] = (expz * p) / q
    out[big] = np.where(x[big] < 0, -(1.0 - erfc), 1.0 - erfc)
    out[np.isnan(x)] = np.nan
    return out


def compose_std(sigmas: Sequence[float]) -> float:
    """Standard deviation of a sum of independent errors (RSS).

    The paper: "The addition of two independent stochastic variables with
    standard deviations sigma_1 and sigma_2 respectively yields a
    stochastic variable with the standard deviation
    sqrt(sigma_1^2 + sigma_2^2)".
    """
    return math.sqrt(sum(float(s) ** 2 for s in sigmas))


def region_std(nu: np.ndarray, sigma_t: float = DEFAULT_SIGMA_T) -> np.ndarray:
    """Per-region VT standard deviation from dose counts ``nu``.

    ``sqrt(Sigma)`` in the paper's notation: ``sigma_T * sqrt(nu)``.
    """
    nu = np.asarray(nu, dtype=float)
    if np.any(nu < 0):
        raise ValueError("dose counts must be non-negative")
    return sigma_t * np.sqrt(nu)


def window_pass_probability(
    std: np.ndarray,
    halfwidth: float,
) -> np.ndarray:
    """P(|VT - nominal| <= halfwidth) for zero-mean Gaussian error.

    Regions with zero standard deviation (never doped after definition —
    impossible in the MSPT model, but allowed for generality) pass with
    probability 1.
    """
    if halfwidth <= 0:
        raise ValueError(f"window halfwidth must be positive, got {halfwidth}")
    std = np.asarray(std, dtype=float)
    out = np.ones_like(std)
    nz = std > 0
    out[nz] = _erf(halfwidth / (math.sqrt(2.0) * std[nz]))
    return out


def region_pass_probability(
    nu: np.ndarray,
    halfwidth: float,
    sigma_t: float = DEFAULT_SIGMA_T,
) -> np.ndarray:
    """Addressability probability of each doping region.

    Combines :func:`region_std` and :func:`window_pass_probability`; this
    is the per-region factor of the paper's yield estimate (Sec. 6.1).
    """
    return window_pass_probability(region_std(nu, sigma_t), halfwidth)


def sample_region_vt(
    nominal: np.ndarray,
    nu: np.ndarray,
    rng: np.random.Generator,
    sigma_t: float = DEFAULT_SIGMA_T,
    trials: int | None = None,
) -> np.ndarray:
    """Draw Monte-Carlo realisations of every region's VT.

    Parameters
    ----------
    nominal:
        Nominal VT per region [V].
    nu:
        Dose count per region (same shape).
    rng:
        NumPy random generator (callers own the seed).
    sigma_t:
        Per-dose VT standard deviation [V].
    trials:
        ``None`` (legacy form) draws a single realisation with the
        regions' shape; an integer draws that many realisations on a
        leading batch axis ``(trials, *regions)``.  ``trials=1`` draws
        the same values as the legacy form from the same generator
        state — the batch-of-1 path used by the batched engine
        (:mod:`repro.sim.engine`).
    """
    nominal = np.asarray(nominal, dtype=float)
    std = region_std(nu, sigma_t)
    if nominal.shape != std.shape:
        raise ValueError(
            f"shape mismatch: nominal {nominal.shape} vs nu {np.shape(nu)}"
        )
    if trials is None:
        shape = nominal.shape
    else:
        if trials < 1:
            raise ValueError(f"need at least one trial, got {trials}")
        shape = (trials,) + nominal.shape
    return nominal + rng.standard_normal(shape) * std
