"""Unit tests for repro.fabrication.variation — MSPT process variation."""

import hashlib

import numpy as np
import pytest

from repro.fabrication.mspt import SpacerRecipe
from repro.fabrication.variation import (
    ProcessVariation,
    VariationError,
    estimate_position_sigma,
    sample_spacer_geometry,
)
from tests.oracles.fabrication import estimate_position_sigma_loop


@pytest.fixture
def recipe():
    return SpacerRecipe(poly_thickness_nm=6, oxide_thickness_nm=4)


@pytest.fixture
def variation():
    return ProcessVariation(poly_thickness_sigma_nm=0.3, oxide_thickness_sigma_nm=0.3)


class TestProcessVariation:
    def test_pitch_sigma_is_rss(self, variation):
        assert variation.pitch_sigma_nm == pytest.approx(np.hypot(0.3, 0.3))

    def test_position_sigma_grows_like_random_walk(self, variation):
        sigmas = [variation.position_sigma_nm(i) for i in (0, 5, 20)]
        assert sigmas[0] < sigmas[1] < sigmas[2]
        # random walk: sigma ~ sqrt(i)
        assert sigmas[2] / sigmas[1] == pytest.approx(np.sqrt(20 / 5), rel=0.15)

    def test_first_spacer_only_own_half_width_error(self, variation):
        assert variation.position_sigma_nm(0) == pytest.approx(0.15)

    def test_suggested_tolerance_near_calibrated_default(self, variation):
        """0.3 nm/layer control at N = 20 suggests ~5.8 nm at 3 sigma —
        consistent with the 5 nm lithography-rule default."""
        tol = variation.suggested_alignment_tolerance_nm(20)
        assert 4.0 < tol < 8.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(VariationError):
            ProcessVariation(poly_thickness_sigma_nm=-1)
        with pytest.raises(VariationError):
            ProcessVariation(break_probability=1.0)
        with pytest.raises(VariationError):
            ProcessVariation().position_sigma_nm(-1)
        with pytest.raises(VariationError):
            ProcessVariation().suggested_alignment_tolerance_nm(20, k_sigma=0)


class TestSampleSpacerGeometry:
    def test_nominal_geometry_when_sigma_zero(self, recipe, rng):
        quiet = ProcessVariation(0.0, 0.0)
        geo = sample_spacer_geometry(recipe, quiet, 5, rng)
        assert np.allclose(geo["left_nm"], [0, 10, 20, 30, 40])
        assert np.allclose(geo["width_nm"], 6.0)
        assert not geo["broken"].any()

    def test_positions_increase(self, recipe, variation, rng):
        geo = sample_spacer_geometry(recipe, variation, 20, rng)
        assert (np.diff(geo["left_nm"]) > 0).all()

    def test_break_probability_applied(self, recipe, rng):
        fragile = ProcessVariation(0.1, 0.1, break_probability=0.5)
        broken = sample_spacer_geometry(recipe, fragile, 2000, rng)["broken"]
        assert broken.mean() == pytest.approx(0.5, abs=0.05)

    def test_oversized_sigma_raises(self, recipe, rng):
        wild = ProcessVariation(5.0, 5.0)
        with pytest.raises(VariationError):
            for _ in range(50):
                sample_spacer_geometry(recipe, wild, 50, rng)

    def test_rejects_zero_wires(self, recipe, variation, rng):
        with pytest.raises(VariationError):
            sample_spacer_geometry(recipe, variation, 0, rng)


class TestEstimatePositionSigma:
    def test_matches_closed_form(self, recipe, variation, rng):
        estimated = estimate_position_sigma(
            recipe, variation, nanowires=15, samples=1500, rng=rng
        )
        analytic = np.array([variation.position_sigma_nm(i) for i in range(15)])
        assert np.allclose(estimated, analytic, rtol=0.12)

    def test_loop_oracle_agrees_statistically(self, recipe, variation):
        """Different stream layouts, same distribution."""
        batched = estimate_position_sigma(
            recipe, variation, 15, 1500, np.random.default_rng(4)
        )
        loop = estimate_position_sigma_loop(
            recipe, variation, 15, 1500, np.random.default_rng(4)
        )
        analytic = np.array([variation.position_sigma_nm(i) for i in range(15)])
        assert np.allclose(loop, analytic, rtol=0.12)
        assert np.allclose(batched, loop, rtol=0.2)

    def test_requires_samples(self, recipe, variation, rng):
        with pytest.raises(VariationError):
            estimate_position_sigma(recipe, variation, 5, 1, rng)

    @pytest.mark.parametrize("chunk", [450, 10**6])
    def test_output_bytes_pinned(self, recipe, variation, chunk):
        """1000 samples in stream blocks of 300 (the last one partial);
        the 450-trial chunk bound is not a whole number of blocks."""
        estimated = estimate_position_sigma(
            recipe,
            variation,
            12,
            1000,
            np.random.default_rng(7),
            stream_block=300,
            max_samples_per_chunk=chunk,
        )
        assert hashlib.sha256(estimated.tobytes()).hexdigest() == (
            "13d8181e842404640482de4d3d227645d7484d21d6da2c3433232f8fd0004a2a"
        )

    @pytest.mark.parametrize(
        "bad, words",
        [
            ({"stream_block": 0}, "stream block must be >= 1"),
            ({"max_samples_per_chunk": 0}, "chunk size must be >= 1"),
        ],
    )
    def test_zero_block_or_chunk_rejected(self, recipe, variation, rng, bad, words):
        with pytest.raises(ValueError, match=words):
            estimate_position_sigma(recipe, variation, 5, 100, rng, **bad)
