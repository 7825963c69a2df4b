"""Margin engine: batched-vs-scalar equivalence, invariance, properties.

The PR-4 contract (see ``repro/sim/margins.py``):

* the broadcast analytic margins are **byte-identical** to the scalar
  per-pair loop oracles (``tests/oracles/margins.py``) for every
  family/valence/size/k;
* the margin-yield Monte-Carlo produces **identical** sampled yields
  to the per-sample loop oracle (both ride the same spawned per-block
  streams) and is invariant to ``max_trials_per_chunk``;
* the kernel's per-wire realised margins are byte-identical to the
  scalar pairwise loop on adversarial VTs (ties with the applied
  voltages, repeated values, single-level addresses), and its
  ``marginmc`` results match digests pinned from the earlier
  region-major kernel;
* shrinking ``k_sigma`` never shrinks a margin (hypothesis property);
* the ``repro margins`` CLI output is pinned by seeded goldens.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.margins as margins_module
from repro import api
from repro.codes import make_code
from repro.crossbar.montecarlo import simulate_margin_yield
from repro.crossbar.spec import CrossbarSpec
from repro.crossbar.yield_model import decoder_for
from repro.decoder.margins import margin_report
from repro.decoder.pattern import pattern_matrix
from repro.decoder.variability import dose_count_matrix
from repro.device.threshold import LevelScheme
from repro.fabrication.doping import DopingPlan
from repro.sim.margins import (
    MarginYieldKernel,
    applied_voltage_matrix,
    block_margins_batched,
    conflict_matrix,
    pair_block_matrix,
    select_margins_batched,
)
from tests.oracles.margins import (
    applied_voltages,
    block_margins_loop,
    margin_trial_loop,
    realised_margins_loop,
    select_margins_loop,
    simulate_margin_yield_loop,
)

DESIGNS = [
    ("TC", 2, 6),
    ("GC", 2, 8),
    ("BGC", 2, 10),
    ("HC", 2, 6),
    ("AHC", 2, 6),
    ("TC", 3, 6),
    ("GC", 3, 6),
]


def margin_inputs(family, n, length, nanowires):
    space = make_code(family, n, length)
    patterns = pattern_matrix(space, nanowires)
    nu = dose_count_matrix(DopingPlan.from_code(space, nanowires).steps)
    return space, patterns, nu, LevelScheme(space.n)


class TestAnalyticEquivalence:
    @pytest.mark.parametrize("family,n,length", DESIGNS)
    @pytest.mark.parametrize("nanowires", [7, 20, 41])
    def test_byte_identical_margins(self, family, n, length, nanowires):
        _, patterns, nu, scheme = margin_inputs(family, n, length, nanowires)
        for k_sigma in (0.0, 1.0, 3.0):
            loop = select_margins_loop(patterns, nu, scheme, k_sigma=k_sigma)
            batched = select_margins_batched(patterns, nu, scheme, k_sigma=k_sigma)
            assert np.array_equal(loop, batched)
            loop = block_margins_loop(patterns, nu, scheme, k_sigma=k_sigma)
            batched = block_margins_batched(patterns, nu, scheme, k_sigma=k_sigma)
            assert np.array_equal(loop, batched)

    @pytest.mark.parametrize("family,n,length", DESIGNS)
    def test_byte_identical_reports_and_yields(self, family, n, length, monkeypatch):
        space = make_code(family, n, length)
        report = margin_report(space, 20)
        myield = margin_report(space, 20, k_sigma=1.5).margin_yield
        monkeypatch.setattr(
            margins_module, "select_margins_batched", select_margins_loop
        )
        monkeypatch.setattr(margins_module, "block_margins_batched", block_margins_loop)
        assert margin_report(space, 20) == report
        assert margin_report(space, 20, k_sigma=1.5).margin_yield == myield

    def test_unknown_method_rejected(self):
        # the scalar loops are test oracles now, not a method knob
        space = make_code("TC", 2, 6)
        with pytest.raises(TypeError):
            margin_report(space, 20, method="loop")


class TestBatchedHelpers:
    def test_applied_voltage_matrix_rows(self):
        _, patterns, _, scheme = margin_inputs("GC", 2, 8, 20)
        va = applied_voltage_matrix(patterns, scheme)
        for i in range(patterns.shape[0]):
            assert np.array_equal(va[i], applied_voltages(patterns[i], scheme))

    def test_conflict_matrix_skips_copies_and_diagonal(self):
        patterns = np.array([[0, 1], [1, 0], [0, 1]])
        conflicts = conflict_matrix(patterns)
        assert not conflicts.diagonal().any()
        # wires 0 and 2 are pattern copies -> never in conflict
        assert not conflicts[0, 2] and not conflicts[2, 0]
        assert conflicts[0, 1] and conflicts[1, 2]

    def test_pair_block_matrix_inf_on_non_conflicts(self):
        patterns = np.array([[0, 1], [1, 0], [0, 1]])
        pair = pair_block_matrix(patterns, np.zeros(patterns.shape), LevelScheme(2))
        assert np.isinf(pair.diagonal()).all()
        assert np.isinf(pair[0, 2]) and np.isinf(pair[2, 0])
        assert np.isfinite(pair[0, 1]) and np.isfinite(pair[1, 0])


class TestMarginYieldMonteCarlo:
    SPEC = CrossbarSpec()

    def test_loop_and_batched_identical(self):
        code = make_code("GC", 2, 8)
        batched = simulate_margin_yield(
            self.SPEC, code, samples=400, seed=11, k_sigma=2.0
        )
        loop = simulate_margin_yield_loop(
            self.SPEC, code, samples=400, seed=11, k_sigma=2.0
        )
        assert batched == loop

    def test_chunk_size_invariance(self):
        code = make_code("BGC", 2, 8)
        reference = simulate_margin_yield(
            self.SPEC, code, samples=600, seed=5, stream_block=128
        )
        for chunk in (1, 128, 500, 1 << 20):
            again = simulate_margin_yield(
                self.SPEC,
                code,
                samples=600,
                seed=5,
                stream_block=128,
                max_trials_per_chunk=chunk,
            )
            assert again == reference, chunk

    def test_seed_determinism_and_sensitivity(self):
        code = make_code("TC", 2, 6)
        a = simulate_margin_yield(self.SPEC, code, samples=200, seed=3)
        b = simulate_margin_yield(self.SPEC, code, samples=200, seed=3)
        c = simulate_margin_yield(self.SPEC, code, samples=200, seed=4)
        assert a == b
        assert a != c

    def test_stricter_k_never_raises_yield(self):
        """Same seed, same draws: a higher guard can only unpass wires."""
        code = make_code("BGC", 2, 8)
        yields = [
            simulate_margin_yield(
                self.SPEC, code, samples=300, seed=0, k_sigma=k
            ).mean_margin_yield
            for k in (0.0, 1.0, 2.0, 3.0)
        ]
        assert all(a >= b for a, b in zip(yields, yields[1:]))

    def test_single_sample_sem_guard(self):
        mc = simulate_margin_yield(self.SPEC, make_code("TC", 2, 6), samples=1, seed=0)
        assert mc.samples == 1
        assert mc.stderr == 0.0
        assert mc.std_margin_yield == 0.0

    def test_invalid_inputs_rejected(self):
        code = make_code("TC", 2, 6)
        with pytest.raises(ValueError, match="at least one sample"):
            simulate_margin_yield(self.SPEC, code, samples=0)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="k_sigma"):
                simulate_margin_yield(self.SPEC, code, samples=10, k_sigma=bad)

    def test_kernel_rejects_conflict_free_half_cave(self):
        class Degenerate:
            patterns = np.zeros((3, 2), dtype=int)
            nu = np.ones((3, 2))
            scheme = LevelScheme(2)
            sigma_t = 0.05

        with pytest.raises(ValueError, match="no wire has a conflicting"):
            MarginYieldKernel(Degenerate())

    def test_kernel_realised_margins_match_analytic_at_nominal(self):
        """With zero noise the realised margins are the k=0 analytic ones."""
        code = make_code("GC", 2, 8)
        decoder = decoder_for(self.SPEC, code)
        kernel = MarginYieldKernel(decoder, k_sigma=0.0)
        select, block = kernel.realised_margins(kernel.nominal)
        assert np.array_equal(
            select,
            select_margins_batched(
                decoder.patterns, decoder.nu, decoder.scheme, k_sigma=0.0
            ),
        )
        assert np.array_equal(
            block,
            block_margins_batched(
                decoder.patterns, decoder.nu, decoder.scheme, k_sigma=0.0
            ),
        )


#: (family, n, length) of every family at two lengths per valence
#: (ternary hot codes need M divisible by 3, the reflected codes even M).
EXACT_DESIGNS = [
    (family, n, length)
    for family in ("TC", "GC", "BGC", "HC", "AHC")
    for n, lengths in ((2, (4, 8)), (3, (3 if "HC" in family else 4, 6)))
    for length in lengths
]


class TestMarginYieldExactness:
    """The level-grouped, address-deduplicated block reduction against
    the scalar pairwise loops."""

    # a 10-wire half cave keeps the O(N^2) loop oracle quick
    SPEC = CrossbarSpec(nanowires_per_half_cave=10)

    @pytest.mark.parametrize("k_sigma", [0.0, 2.0, 3.0])
    @pytest.mark.parametrize("family,n,length", EXACT_DESIGNS)
    def test_batched_equals_loop(self, family, n, length, k_sigma):
        code = make_code(family, n, length)
        kwargs = dict(samples=200, seed=length + n, k_sigma=k_sigma)
        loop = simulate_margin_yield_loop(self.SPEC, code, **kwargs)
        assert simulate_margin_yield(self.SPEC, code, **kwargs) == loop

    @staticmethod
    def adversarial_vts(kernel, seed=0):
        """``(trials, N, M)`` VTs that sit on, or next to, the ties of
        the block reduction."""
        rng = np.random.default_rng(seed)
        va, nominal = kernel.va, kernel.nominal
        n_wires, m = va.shape
        applied = np.unique(va)
        z = rng.standard_normal((n_wires, m))
        z[:, 1::2] = z[:, :1]  # one value repeated over half the regions
        cases = [
            va,  # every wire exactly at its own applied voltages
            va[rng.permutation(n_wires)],  # at another address's
            np.nextafter(va, np.inf),
            np.nextafter(va, -np.inf),
            nominal,
            np.repeat(va[:, :1], m, axis=1),  # one value in every region
            np.full((n_wires, m), applied[-1]),  # one value everywhere
            rng.choice(applied, size=(n_wires, m)),  # ties across wires
            np.nextafter(rng.choice(applied, size=(n_wires, m)), 0.0),
            np.zeros((n_wires, m)),
            np.full((n_wires, m), -0.0),
            nominal + kernel.std * z,
            va + 1e16 * z,  # differences that round
            va + 1e-17 * z,  # differences below one ulp of va
        ]
        return np.stack(cases)

    @staticmethod
    def one_level_decoder():
        """n = 3 addresses whose regions all sit at one level, plus
        copies in other contact groups."""

        class OneLevel:
            patterns = np.array(
                [
                    [0, 0, 0, 0],
                    [1, 1, 1, 1],
                    [2, 2, 2, 2],
                    [0, 1, 2, 0],
                    [0, 0, 0, 0],
                    [2, 2, 1, 1],
                    [1, 1, 1, 1],
                ]
            )
            nu = np.arange(1, 29, dtype=float).reshape(7, 4)
            scheme = LevelScheme(3)
            sigma_t = 0.05

        return OneLevel()

    @pytest.mark.parametrize(
        "design",
        [("BGC", 2, 8), ("TC", 2, 4), ("TC", 3, 6), ("AHC", 2, 6), "one-level"],
    )
    def test_realised_margins_bytes_on_adversarial_inputs(self, design):
        if design == "one-level":
            kernel = MarginYieldKernel(self.one_level_decoder(), k_sigma=0.0)
        else:
            decoder = decoder_for(CrossbarSpec(), make_code(*design))
            kernel = MarginYieldKernel(decoder, k_sigma=2.0)
        vts = self.adversarial_vts(kernel)
        select, block = kernel.realised_margins(vts)
        for t, vt in enumerate(vts):
            loop_select, loop_block = realised_margins_loop(
                vt, kernel.va, kernel.patterns
            )
            assert select[t].tobytes() == loop_select.tobytes(), t
            assert block[t].tobytes() == loop_block.tobytes(), t
            trial = margin_trial_loop(vt, kernel.va, kernel.patterns, kernel.guard_v)
            batched = (
                (np.minimum(select[t], block[t]) > kernel.guard_v).mean(),
                select[t].min(),
                block[t].min(),
            )
            assert np.array(batched).tobytes() == np.array(trial).tobytes(), t


#: sha256 of ``api.mc_result_to_dict(api.simulate(request))`` (sorted-key
#: JSON), recorded with the region-major ``(trials, N, N)`` kernel that
#: preceded the level-grouped one.
PINNED_MARGINMC = {
    "bgc_m8_k3": (
        dict(family="BGC", total_length=8, samples=5000, seed=1, k_sigma=3.0),
        "cc514d6a89883451f6685dafa738370356c7b70f4cb6a04a5102d913ba3b466d",
    ),
    "tc_m6_k0": (
        dict(family="TC", total_length=6, samples=3000, seed=2, k_sigma=0.0),
        "934c73e8c86de37b7ea30d79d2ffb9c8294674d69a4a50f0da95a309b20e557b",
    ),
    "gc_m10_k2": (
        dict(family="GC", total_length=10, samples=1500, seed=3, k_sigma=2.0),
        "f6e354062f90fda2bfb3bc6709e83662d47a66990082583b47246c9a22d47350",
    ),
    "hc_m6_k3": (
        dict(family="HC", total_length=6, samples=1000, seed=4, k_sigma=3.0),
        "b7c142cf581c9ab7dd225cca3659eae392e5b0b91223ae9dc42eae5047bf0b0b",
    ),
    "ahc_m8_k25": (
        dict(family="AHC", total_length=8, samples=2048, seed=5, k_sigma=2.5),
        "f4858d11b26401012d7450be65e03bc1bd3040e0eedc40eb0291e9a6e89b51a9",
    ),
    "tc_n3_m6_k1": (
        dict(family="TC", total_length=6, n=3, samples=700, seed=6, k_sigma=1.0),
        "35716083ec430b3b135abb218e53fb10b3e80c13ff0b7edf6dac379633d83090",
    ),
    "bgc_n3_m6_k2": (
        dict(family="BGC", total_length=6, n=3, samples=4097, seed=7, k_sigma=2.0),
        "f16510e24835f94ccfd028a2452a8fa6efbafb41f818c8dab92c01d4680d029c",
    ),
    "gc_m8_n41_k2": (
        dict(
            family="GC",
            total_length=8,
            samples=1200,
            seed=8,
            k_sigma=2.0,
            spec=CrossbarSpec(nanowires_per_half_cave=41),
        ),
        "bcc1389bdca5d1f16290d7ed0f3c86bda3eac120fd9fcee18192c98a760d2a77",
    ),
}


class TestPinnedMarginDigests:
    @pytest.mark.parametrize("name", sorted(PINNED_MARGINMC))
    def test_marginmc_result_digest(self, name):
        fields, digest = PINNED_MARGINMC[name]
        result = api.simulate(api.McRequest("marginmc", **fields))
        blob = json.dumps(api.mc_result_to_dict(result), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


class TestKSigmaProperty:
    @given(
        k_lo=st.floats(min_value=0.0, max_value=10.0),
        k_hi=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_shrinking_k_never_shrinks_margins(self, k_lo, k_hi):
        if k_lo > k_hi:
            k_lo, k_hi = k_hi, k_lo
        _, patterns, nu, scheme = margin_inputs("BGC", 2, 8, 20)
        loose_select = select_margins_batched(patterns, nu, scheme, k_sigma=k_lo)
        tight_select = select_margins_batched(patterns, nu, scheme, k_sigma=k_hi)
        assert (tight_select <= loose_select).all()
        loose_block = block_margins_batched(patterns, nu, scheme, k_sigma=k_lo)
        tight_block = block_margins_batched(patterns, nu, scheme, k_sigma=k_hi)
        assert (tight_block <= loose_block).all()

    @given(k=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_loop_batched_agree_at_any_k(self, k):
        _, patterns, nu, scheme = margin_inputs("GC", 2, 6, 12)
        assert np.array_equal(
            block_margins_loop(patterns, nu, scheme, k_sigma=k),
            block_margins_batched(patterns, nu, scheme, k_sigma=k),
        )
