"""Stochastic model of doping-induced threshold-voltage variability.

Each lithography/doping operation contributes an independent Gaussian
threshold-voltage error of standard deviation ``sigma_T`` (the paper uses
50 mV).  A doping region hit by ``nu`` operations therefore carries a
variance ``nu * sigma_T**2`` (Def. 5: independent errors add in
quadrature), and the probability that the region still reads as its
nominal level is a Gaussian integral over the addressability window.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: The paper's threshold-voltage variability per doping operation [V].
DEFAULT_SIGMA_T = 0.050


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
    # scipy's erf, not math.erf (they differ in the last ulps), imported
    # on first use so `import repro` does not load scipy
    from scipy.special import erf

    std = np.asarray(std, dtype=float)
    out = np.ones_like(std)
    nz = std > 0
    out[nz] = erf(halfwidth / (math.sqrt(2.0) * std[nz]))
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
