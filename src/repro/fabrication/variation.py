"""Process variation of the MSPT spacer loop.

The nanowire pitch "exclusively depends on the thickness of deposited
poly-Si and on the etch" (Sec. 3.1) — so deposition-thickness control is
the knob that sets geometric variability.  This module models per-
iteration thickness jitter and propagates it to the quantities the
decoder geometry cares about:

* the *position* error of each spacer accumulates over iterations (a
  random walk: spacer i's offset is the sum of i+1 thickness errors),
  directly widening the contact-boundary ambiguity zone;
* the *width* error of each spacer changes its resistance but not the
  addressing, so only position statistics feed the yield model.

The paper measures "a yield close to unit" for the wires themselves and
neglects broken wires; we follow that (a ``break_probability`` hook
exists and defaults to 0) and use this model to justify — and stress —
the alignment-tolerance parameter of the contact-group geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fabrication.mspt import SpacerRecipe


class VariationError(ValueError):
    """Raised for inconsistent variation parameters."""

@dataclass(frozen=True)
class ProcessVariation:
    """Stochastic description of the spacer-loop imperfections.

    Parameters
    ----------
    poly_thickness_sigma_nm:
        Standard deviation of each poly-Si deposition thickness [nm].
    oxide_thickness_sigma_nm:
        Standard deviation of each SiO2 deposition thickness [nm].
    break_probability:
        Probability that a spacer is mechanically broken; the paper
        measured "a yield close to unit" and neglects this (default 0).
    """

    poly_thickness_sigma_nm: float = 0.3
    oxide_thickness_sigma_nm: float = 0.3
    break_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.poly_thickness_sigma_nm < 0 or self.oxide_thickness_sigma_nm < 0:
            raise VariationError("thickness sigmas must be non-negative")
        if not 0.0 <= self.break_probability < 1.0:
            raise VariationError(
                f"break probability must be in [0, 1), got {self.break_probability}"
            )

    @property
    def pitch_sigma_nm(self) -> float:
        """Per-iteration pitch standard deviation (RSS of both layers)."""
        return float(
            np.hypot(self.poly_thickness_sigma_nm, self.oxide_thickness_sigma_nm)
        )

    def position_sigma_nm(self, spacer_index: int) -> float:
        """Centre-position standard deviation of spacer ``i`` (random walk).

        The centre of spacer i sits after i full pitches (poly + oxide
        errors each) plus half its own poly thickness:
        ``sqrt(i * sigma_pitch^2 + (sigma_poly / 2)^2)``.
        """
        if spacer_index < 0:
            raise VariationError("spacer index must be >= 0")
        walk = spacer_index * self.pitch_sigma_nm**2
        own = (self.poly_thickness_sigma_nm / 2.0) ** 2
        return float(np.sqrt(walk + own))

    def worst_position_sigma_nm(self, nanowires: int) -> float:
        """Position sigma of the last (innermost, worst-case) spacer."""
        if nanowires < 1:
            raise VariationError("need at least one nanowire")
        return self.position_sigma_nm(nanowires - 1)

    def suggested_alignment_tolerance_nm(
        self, nanowires: int, k_sigma: float = 3.0
    ) -> float:
        """Contact alignment tolerance covering k-sigma position error.

        This ties the geometric yield model's tolerance parameter back to
        a physical deposition-control figure: with the default 0.3 nm
        per-layer control and 20 wires, 3 sigma is ~5.8 nm — close to
        the calibrated 5 nm default of the lithography rules.
        """
        if k_sigma <= 0:
            raise VariationError("k_sigma must be positive")
        return k_sigma * self.worst_position_sigma_nm(nanowires)


def sample_spacer_geometry(
    recipe: SpacerRecipe,
    variation: ProcessVariation,
    nanowires: int,
    rng: np.random.Generator,
) -> dict:
    """One Monte-Carlo realisation of a half cave's spacer geometry.

    Returns positions [nm], widths [nm] and the broken-wire mask.
    """
    if nanowires < 1:
        raise VariationError("need at least one nanowire")
    poly = recipe.poly_thickness_nm + rng.standard_normal(
        nanowires
    ) * variation.poly_thickness_sigma_nm
    oxide = recipe.oxide_thickness_nm + rng.standard_normal(
        nanowires
    ) * variation.oxide_thickness_sigma_nm
    if np.any(poly <= 0) or np.any(oxide <= 0):
        raise VariationError(
            "sampled a non-positive deposition thickness; sigma too large "
            "for the recipe"
        )
    pitches = poly + oxide
    lefts = np.concatenate([[0.0], np.cumsum(pitches[:-1])])
    broken = rng.random(nanowires) < variation.break_probability
    return {
        "left_nm": lefts,
        "width_nm": poly,
        "centre_nm": lefts + poly / 2.0,
        "broken": broken,
    }


def sample_spacer_centres_batched(
    recipe: SpacerRecipe,
    variation: ProcessVariation,
    nanowires: int,
    rng: np.random.Generator,
    trials: int,
) -> np.ndarray:
    """``(trials, nanowires)`` spacer centres, trial axis leading.

    The batched form of the ``centre_nm`` output of
    :func:`sample_spacer_geometry`: every trial's poly/oxide thickness
    realisations are drawn in two whole-block array calls and reduced
    with a single row-wise cumulative sum.
    """
    if nanowires < 1:
        raise VariationError("need at least one nanowire")
    poly = recipe.poly_thickness_nm + rng.standard_normal(
        (trials, nanowires)
    ) * variation.poly_thickness_sigma_nm
    oxide = recipe.oxide_thickness_nm + rng.standard_normal(
        (trials, nanowires)
    ) * variation.oxide_thickness_sigma_nm
    if np.any(poly <= 0) or np.any(oxide <= 0):
        raise VariationError(
            "sampled a non-positive deposition thickness; sigma too large "
            "for the recipe"
        )
    pitches = poly + oxide
    lefts = np.empty((trials, nanowires))
    lefts[:, 0] = 0.0
    np.cumsum(pitches[:, :-1], axis=1, out=lefts[:, 1:])
    return lefts + poly / 2.0


def estimate_position_sigma(
    recipe: SpacerRecipe,
    variation: ProcessVariation,
    nanowires: int,
    samples: int,
    rng: np.random.Generator,
    *,
    stream_block: int | None = None,
    max_samples_per_chunk: int | None = None,
) -> np.ndarray:
    """Monte-Carlo estimate of each spacer's position sigma [nm].

    Cross-validates the closed-form random-walk model in the tests.

    Runs on :class:`repro.sim.engine.MonteCarloEngine` with one metric
    per spacer: one child generator is spawned per stream block from
    ``rng``, so results depend only on ``(rng state, stream_block)``,
    never on the chunk bound or the thread count.  ``None`` picks the
    engine defaults.  The one-geometry-per-iteration oracle in the tests
    samples the same distribution from a different stream layout, so
    the two agree statistically rather than draw-for-draw.
    """
    from repro.sim.batch import DEFAULT_MAX_TRIALS_PER_CHUNK, DEFAULT_STREAM_BLOCK
    from repro.sim.engine import MonteCarloEngine, TrialKernel

    if samples < 2:
        raise VariationError("need at least two samples")
    block = DEFAULT_STREAM_BLOCK if stream_block is None else stream_block
    chunk_bound = (
        DEFAULT_MAX_TRIALS_PER_CHUNK
        if max_samples_per_chunk is None
        else max_samples_per_chunk
    )

    class CentresKernel(TrialKernel):
        metrics = tuple(range(nanowires))

        def sample(self, rng: np.random.Generator, trials: int) -> dict:
            centres = sample_spacer_centres_batched(
                recipe, variation, nanowires, rng, trials
            )
            return {spacer: centres[:, spacer] for spacer in self.metrics}

    engine = MonteCarloEngine(
        CentresKernel(), max_trials_per_chunk=chunk_bound, stream_block=block
    )
    result = engine.run(samples, rng)
    return np.array([result[spacer].std for spacer in range(nanowires)])
