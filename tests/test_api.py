"""Unit tests for the repro.api request/response facade."""

import json

import pytest

from repro import api
from repro.crossbar.spec import CrossbarSpec
from repro.exp import SweepParams
from repro.exp.designpoint import DesignPoint
from repro.store import ResultStore


def small_sweep_request(**kw):
    points = tuple(DesignPoint.make(f, 6) for f in ("TC", "GC"))
    defaults = dict(points=points, metrics=("yield", "area"))
    defaults.update(kw)
    return api.SweepRequest(**defaults)


class TestRequestRoundTrips:
    def test_sweep_round_trip(self):
        req = small_sweep_request(
            spec=CrossbarSpec(sigma_t=0.04),
            params=SweepParams(mc_samples=64, mc_seed=7),
        )
        clone = api.SweepRequest.from_dict(req.to_dict())
        assert clone == req
        assert clone.canonical() == req.canonical()

    def test_sweep_canonical_is_sorted_compact_json(self):
        text = small_sweep_request().canonical()
        payload = json.loads(text)
        assert list(payload) == sorted(payload)
        assert ": " not in text and ", " not in text

    def test_mc_round_trip_both_kinds(self):
        for kind in ("cavemc", "marginmc"):
            req = api.McRequest(
                kind=kind, family="BGC", total_length=6, samples=32, seed=3
            )
            clone = api.McRequest.from_dict(req.to_dict())
            assert clone == req

    def test_k_sigma_only_in_marginmc_payload(self):
        cave = api.McRequest(kind="cavemc", family="TC", total_length=6)
        margin = api.McRequest(kind="marginmc", family="TC", total_length=6)
        assert "k_sigma" not in cave.to_dict()
        assert "k_sigma" in margin.to_dict()

    def test_workload_round_trip(self):
        req = api.WorkloadRequest(
            family="GC",
            total_length=6,
            trace="bursty",
            accesses=256,
            instances=2,
            parity_bits=5,
            readout="ground",
            resolution=1e-8,
        )
        clone = api.WorkloadRequest.from_dict(req.to_dict())
        assert clone == req

    def test_readout_knobs_only_in_electrical_payload(self):
        ideal = api.WorkloadRequest(family="TC", total_length=6)
        electrical = api.WorkloadRequest(
            family="TC", total_length=6, readout="float"
        )
        assert "r_on" not in ideal.to_dict()
        assert "r_on" in electrical.to_dict()

    def test_parse_request_dispatches_by_kind(self):
        requests = [
            small_sweep_request(),
            api.McRequest(kind="cavemc", family="TC", total_length=6),
            api.McRequest(kind="marginmc", family="TC", total_length=6),
            api.WorkloadRequest(family="TC", total_length=6),
        ]
        for req in requests:
            assert api.parse_request(req.to_dict()) == req

    def test_parse_request_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            api.parse_request({"v": api.API_SCHEMA_VERSION, "kind": "nope"})

    def test_unsupported_schema_version_rejected(self):
        payload = small_sweep_request().to_dict()
        payload["v"] = api.API_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            api.SweepRequest.from_dict(payload)

    def test_v1_payload_refused(self):
        """v1 result bytes came from other samplers: a v1 request is refused."""
        assert api.API_SCHEMA_VERSION == 3
        for request in (small_sweep_request(), api.McRequest("cavemc", "TC", 6)):
            payload = request.to_dict()
            payload["v"] = 1
            with pytest.raises(ValueError, match="schema v1 is not supported"):
                api.parse_request(payload)

    def test_v2_payload_refused(self):
        """v2 float-scheme reads came from per-cell LAPACK solves, whose
        bits depend on the host: a v2 request is refused."""
        assert api.API_SCHEMA_VERSION == 3
        electrical = api.WorkloadRequest("TC", 6, readout="float")
        for request in (small_sweep_request(), electrical):
            payload = request.to_dict()
            payload["v"] = 2
            with pytest.raises(ValueError, match="schema v2 is not supported"):
                api.parse_request(payload)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one design point"):
            api.SweepRequest(points=())
        with pytest.raises(ValueError, match="unknown MC request kind"):
            api.McRequest(kind="bogus", family="TC", total_length=6)
        with pytest.raises(ValueError, match="unknown trace kind"):
            api.WorkloadRequest(family="TC", total_length=6, trace="bogus")
        with pytest.raises(ValueError, match="unknown readout scheme"):
            api.WorkloadRequest(family="TC", total_length=6, readout="bogus")


class TestDigests:
    def test_digest_is_stable_across_equal_requests(self):
        assert api.request_digest(small_sweep_request()) == api.request_digest(
            small_sweep_request()
        )

    def test_digest_tracks_result_determining_fields(self):
        base = api.McRequest(kind="marginmc", family="TC", total_length=6, seed=0)
        reseeded = api.McRequest(
            kind="marginmc", family="TC", total_length=6, seed=1
        )
        assert api.request_digest(base) != api.request_digest(reseeded)

    def test_digest_ignores_execution_knobs(self):
        # chunk_size/jobs are call arguments, not request fields, so
        # they cannot perturb the digest by construction; spot-check
        # that the canonical payload has no such keys.
        payload = small_sweep_request().to_dict()
        assert not {"jobs", "method", "chunk_size"} & set(payload)

    def test_default_spec_normalizes_to_one_digest(self):
        # spec=None resolves to the calibrated defaults at construction,
        # so a hand-built request shares store entries with a CLI/daemon
        # request that passed the explicit default spec.
        implicit = small_sweep_request()
        explicit = small_sweep_request(spec=CrossbarSpec())
        assert implicit.spec == CrossbarSpec()
        assert api.request_digest(implicit) == api.request_digest(explicit)
        for req in (
            implicit,
            api.McRequest(kind="cavemc", family="TC", total_length=6),
            api.WorkloadRequest(family="TC", total_length=6),
        ):
            assert req.spec is not None
            assert req.to_dict()["spec"] is not None


# Content addresses of one fixed request per kind.  A store keys every
# entry on these digests, so a change to the canonical form orphans
# every existing store: bump API_SCHEMA_VERSION on purpose instead.
PINNED_DIGESTS = {
    "sweep": "99ab23313d9ef587ec3437e0b9baecb074cd2a6479bf1d5fa0e332bdc0039102",
    "marginmc": "67f5d0771b206c93f9668e8c7d063baa217744c522ab55231fddd9d2607ec89c",
    "cavemc": "35dadf4c78cc8c327069cfb9435991f729c73c333fe7be7e758ee3d194009aba",
    "memsim": "cdd0fc9fa5be13a1c84a74e2d7523b06cf0830226eb473d25ac567ebc5f875da",
    "memsim_elec": "31a8fa5952cd8ad5809ff477b82932fb22fd74792be731d8a031d657f1e21054",
}


def pinned_request(name):
    return {
        "sweep": lambda: api.SweepRequest(
            points=(
                DesignPoint.make("TC", 6),
                DesignPoint.make("BGC", 8, sigma_t=0.04),
            ),
            metrics=("yield", "area"),
            params=SweepParams(mc_samples=64, mc_seed=7),
        ),
        "marginmc": lambda: api.McRequest(
            kind="marginmc", family="BGC", total_length=8, samples=4096, seed=3,
            k_sigma=2.5,
        ),
        "cavemc": lambda: api.McRequest(
            kind="cavemc", family="TC", total_length=10, samples=5000, seed=7,
            stream_block=512,
        ),
        "memsim": lambda: api.WorkloadRequest(
            family="BGC", total_length=10, accesses=1024, instances=2,
            parity_bits=6, error_rate=1e-3,
        ),
        "memsim_elec": lambda: api.WorkloadRequest(
            family="TC", total_length=6, accesses=64, instances=1,
            readout="float", resolution=0.55,
        ),
    }[name]()


class TestPinnedDigests:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_digest_is_pinned(self, name):
        request = pinned_request(name)
        assert api.request_digest(request) == PINNED_DIGESTS[name]
        clone = api.parse_request(json.loads(request.canonical()))
        assert api.request_digest(clone) == PINNED_DIGESTS[name]


class TestResultRoundTrips:
    def test_sweep_result_round_trip_preserves_column_order(self):
        result = api.evaluate(small_sweep_request())
        clone = api.sweep_result_from_dict(
            json.loads(json.dumps(api.sweep_result_to_dict(result), sort_keys=True))
        )
        assert clone == result
        assert clone.fields == result.fields

    def test_mc_result_round_trip(self):
        req = api.McRequest(kind="marginmc", family="TC", total_length=6, samples=32)
        result = api.simulate(req)
        clone = api.mc_result_from_dict(
            json.loads(json.dumps(api.mc_result_to_dict(result)))
        )
        assert clone == result

    def test_mc_result_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown MC result type"):
            api.mc_result_from_dict({"type": "Bogus"})

    def test_workload_result_round_trip(self):
        req = api.WorkloadRequest(
            family="TC", total_length=6, accesses=128, instances=2
        )
        result = api.memsim(req)
        clone = api.WorkloadResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone == result
        assert clone["efficiency"] == result.metrics["efficiency"]


class TestFacadeWithStore:
    def test_evaluate_store_round_trip_identical(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        req = small_sweep_request()
        cold = api.evaluate(req, store=store)
        warm = api.evaluate(req, store=store)
        assert warm == cold
        assert store.stats()["entries"] == 1

    def test_bad_chunk_size_rejected_on_a_store_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        mc = api.McRequest(kind="marginmc", family="TC", total_length=6, samples=32)
        wl = api.WorkloadRequest(family="TC", total_length=6, accesses=64, instances=2)
        api.simulate(mc, store=store)
        api.memsim(wl, store=store)
        # a miss and a hit fail the same way
        for facade, req in ((api.simulate, mc), (api.memsim, wl)):
            for target in (None, store):
                with pytest.raises(ValueError, match="chunk size"):
                    facade(req, chunk_size=0, store=target)

    def test_memsim_store_round_trip_identical(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        req = api.WorkloadRequest(
            family="TC", total_length=6, accesses=128, instances=2
        )
        cold = api.memsim(req, store=store)
        warm = api.memsim(req, store=store)
        assert warm == cold


class TestOverrideValidation:
    def test_cached_spec_validates_at_lru_boundary(self):
        from repro.exp.cache import cached_spec

        with pytest.raises(ValueError, match="unknown spec override"):
            cached_spec(CrossbarSpec(), (("bogus_knob", 1.0),))

    def test_make_and_cached_spec_raise_identical_messages(self):
        from repro.exp.cache import cached_spec

        with pytest.raises(ValueError) as via_make:
            DesignPoint.make("TC", 6, bogus_knob=1.0)
        with pytest.raises(ValueError) as via_cache:
            cached_spec(CrossbarSpec(), (("bogus_knob", 1.0),))
        assert str(via_make.value) == str(via_cache.value)

    def test_direct_constructor_caught_on_resolution(self):
        # DesignPoint(...) skips .make's validation; the lru boundary
        # still rejects the bad key when the spec is resolved.
        point = DesignPoint("TC", 6, overrides=(("bogus_knob", 1.0),))
        with pytest.raises(ValueError, match="unknown spec override"):
            point.resolved_spec()


#: Non-physical readout technology / resolution values, as keyword
#: arguments of an electrical WorkloadRequest.
BAD_READOUT = [
    {"r_on": float("nan")},
    {"r_off": float("nan")},
    {"v_read": float("nan")},
    {"v_read": float("inf")},
    {"r_on": -5.0},
    {"r_on": 1e8},
    {"resolution": 2.0},
    {"resolution": float("nan")},
]


class TestReadoutValidation:
    """Readout technology is checked where a request is built."""

    @pytest.mark.parametrize("bad", BAD_READOUT)
    def test_workload_request_rejects(self, bad):
        with pytest.raises(ValueError):
            api.WorkloadRequest("TC", 6, readout="float", **bad)
        payload = api.WorkloadRequest("TC", 6, readout="float").to_dict()
        payload.update(bad)
        with pytest.raises(ValueError):
            api.parse_request(payload)

    @pytest.mark.parametrize("bad", BAD_READOUT)
    def test_ideal_request_ignores_technology(self, bad):
        """With readout off the knobs are not part of the request."""
        req = api.WorkloadRequest("TC", 6, **bad)
        assert req.to_dict() == api.WorkloadRequest("TC", 6).to_dict()

    @pytest.mark.parametrize(
        "bad",
        [
            {"ro_r_on": float("nan")},
            {"ro_r_off": float("inf")},
            {"ro_min_margin": 1.0},
            {"ro_r_on": 1e8},
            {"wl_resolution": 1.0},
        ],
    )
    def test_sweep_params_reject(self, bad):
        with pytest.raises(ValueError):
            SweepParams(**bad)


class TestKSigmaValidation:
    """``k_sigma`` must be finite and >= 0 wherever a request is built."""

    BAD = [float("nan"), float("inf"), -1.0]

    @pytest.mark.parametrize("k_sigma", BAD)
    def test_mc_request_rejects(self, k_sigma):
        with pytest.raises(ValueError, match="k_sigma must be finite"):
            api.McRequest("marginmc", "BGC", 8, samples=64, k_sigma=k_sigma)
        payload = api.McRequest("marginmc", "BGC", 8, samples=64).to_dict()
        payload["k_sigma"] = k_sigma
        with pytest.raises(ValueError, match="k_sigma must be finite"):
            api.parse_request(payload)

    @pytest.mark.parametrize("k_sigma", BAD)
    def test_sweep_params_reject(self, k_sigma):
        with pytest.raises(ValueError, match="k_sigma must be finite"):
            SweepParams(k_sigma=k_sigma)


#: How each validated spec field is named in its error message.
SPEC_FIELD_WORDS = {
    "sigma_t": "sigma_T",
    "raw_kilobytes": "raw density",
    "window_margin": "window margin",
}


class TestSpecValidation:
    """A non-finite or out-of-range platform spec is rejected wherever a
    request is rebuilt (it used to hash, compute and print NaN-derived
    yields)."""

    BAD = [
        {"sigma_t": float("nan")},
        {"sigma_t": float("inf")},
        {"raw_kilobytes": float("nan")},
        {"raw_kilobytes": float("inf")},
        {"window_margin": float("nan")},
        {"window_margin": 0.0},
        {"window_margin": 1.5},
        {"window_margin": -1.0},
    ]

    @pytest.mark.parametrize("bad", BAD)
    def test_crossbar_spec_rejects(self, bad):
        with pytest.raises(ValueError, match=SPEC_FIELD_WORDS[next(iter(bad))]):
            CrossbarSpec(**bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_parse_request_rejects(self, bad):
        requests = [
            small_sweep_request(),
            api.McRequest("marginmc", "BGC", 8, samples=64),
            api.WorkloadRequest("TC", 6),
        ]
        for request in requests:
            payload = json.loads(request.canonical())
            payload["spec"].update(bad)
            with pytest.raises(ValueError):
                api.parse_request(payload)
