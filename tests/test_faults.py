"""Unit tests for the deterministic fault-injection harness."""

import os

import pytest

from repro import faults
from repro.faults import FaultHit, FaultPlan, FaultRule


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    """Every test starts and ends with no plan active anywhere."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    monkeypatch.delenv(faults.EPOCH_ENV_VAR, raising=False)
    faults.deactivate()
    monkeypatch.setattr(faults, "_env_spec", None)
    monkeypatch.setattr(faults, "_env_plan", None)
    yield
    faults.deactivate()


class TestParsing:
    def test_full_spec(self):
        plan = FaultPlan.parse(
            "seed=7,dist.crash_after_result=@1,serve.latency=1.0:0.25,"
            "serve.drop=0.3"
        )
        assert plan.seed == 7
        assert plan.rules["dist.crash_after_result"].at_call == 1
        assert plan.rules["serve.latency"].probability == 1.0
        assert plan.rules["serve.latency"].value == 0.25
        assert plan.rules["serve.drop"].probability == 0.3

    def test_whitespace_and_empty_clauses_tolerated(self):
        plan = FaultPlan.parse(" dist.stall=@2 , ,serve.drop=0.5 ")
        assert set(plan.rules) == {"dist.stall", "serve.drop"}

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.parse("dist.explode=@1")

    def test_malformed_clause_rejected(self):
        with pytest.raises(ValueError, match="malformed fault clause"):
            FaultPlan.parse("dist.stall")

    def test_malformed_value_rejected(self):
        with pytest.raises(ValueError, match="expected a float"):
            FaultPlan.parse("serve.latency=@1:soon")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="must be in"):
            FaultPlan.parse("serve.drop=1.5")

    def test_call_ordinal_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            FaultPlan.parse("dist.stall=@0")

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError, match="duplicate fault clause"):
            FaultPlan.parse("dist.stall=@1,dist.stall=@2")


class TestDecisions:
    def test_at_call_fires_exactly_once_in_epoch_zero(self):
        plan = FaultPlan.parse("dist.stall=@2")
        hits = [plan.check("dist.stall") for _ in range(5)]
        assert [h is not None for h in hits] == [False, True, False, False, False]
        assert plan.fired == {"dist.stall": 1}

    def test_at_call_silent_in_retry_epochs(self, monkeypatch):
        monkeypatch.setenv(faults.EPOCH_ENV_VAR, "1")
        plan = FaultPlan.parse("dist.stall=@1")
        assert all(plan.check("dist.stall") is None for _ in range(4))
        assert plan.fired == {}

    def test_probability_one_fires_every_call_every_epoch(self, monkeypatch):
        for epoch in ("0", "3"):
            monkeypatch.setenv(faults.EPOCH_ENV_VAR, epoch)
            plan = FaultPlan.parse("serve.drop=1.0")
            assert all(plan.check("serve.drop") for _ in range(3))

    def test_probability_zero_never_fires(self):
        plan = FaultPlan.parse("serve.drop=0.0")
        assert all(plan.check("serve.drop") is None for _ in range(20))

    def test_probability_draws_are_deterministic(self):
        rule = FaultRule("serve.drop", probability=0.4)
        pattern_a = [rule.decide(9, 0, call) for call in range(1, 50)]
        pattern_b = [rule.decide(9, 0, call) for call in range(1, 50)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)
        # a different seed or epoch reshuffles the pattern
        assert pattern_a != [rule.decide(10, 0, c) for c in range(1, 50)]
        assert pattern_a != [rule.decide(9, 1, c) for c in range(1, 50)]

    def test_unlisted_site_never_fires(self):
        plan = FaultPlan.parse("dist.stall=@1")
        assert plan.check("serve.drop") is None

    def test_hit_carries_value(self):
        plan = FaultPlan.parse("serve.latency=@1:0.75")
        assert plan.check("serve.latency") == FaultHit("serve.latency", 0.75)

    def test_bad_epoch_env_means_zero(self, monkeypatch):
        monkeypatch.setenv(faults.EPOCH_ENV_VAR, "not-a-number")
        assert FaultPlan.epoch() == 0


class TestActivation:
    def test_no_plan_by_default(self):
        assert faults.active_plan() is None
        assert faults.check("dist.stall") is None

    def test_env_plan_parsed_and_cached(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "dist.stall=@1")
        plan = faults.active_plan()
        assert plan is faults.active_plan()  # cached on the spec string
        monkeypatch.setenv(faults.ENV_VAR, "dist.stall=@2")
        assert faults.active_plan() is not plan  # new spec, new plan

    def test_injected_context_manager(self):
        with faults.injected("serve.drop=1.0") as plan:
            assert faults.check("serve.drop") is not None
            assert plan.fired["serve.drop"] == 1
        assert faults.active_plan() is None

    def test_activate_overrides_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "dist.stall=@1")
        forced = faults.activate("serve.drop=1.0")
        assert faults.active_plan() is forced
        faults.deactivate()
        assert faults.active_plan().rules.keys() == {"dist.stall"}


class TestSiteHelpers:
    def test_crash_point_is_noop_without_hit(self):
        with faults.injected("dist.crash_before_result=@2"):
            faults.crash_point("dist.crash_before_result")  # call 1: survives

    def test_stall_point_sleeps_for_value(self):
        import time

        with faults.injected("dist.stall=@1:0.05"):
            start = time.monotonic()
            faults.stall_point("dist.stall")
            assert time.monotonic() - start >= 0.04

    def test_corrupt_file_truncates_to_half(self, tmp_path):
        path = tmp_path / "victim.json"
        path.write_bytes(b"x" * 100)
        with faults.injected("dist.corrupt_result=1.0"):
            assert faults.corrupt_file("dist.corrupt_result", path)
        assert path.stat().st_size == 50

    def test_corrupt_file_without_hit_leaves_file(self, tmp_path):
        path = tmp_path / "victim.json"
        path.write_bytes(b"x" * 100)
        assert not faults.corrupt_file("dist.corrupt_result", path)
        assert path.stat().st_size == 100

    def test_obs_counters_track_fires(self):
        from repro import obs

        with obs.scoped() as reg:
            with faults.injected("serve.drop=1.0"):
                faults.check("serve.drop")
                faults.check("serve.drop")
            snap = reg.snapshot()
        counters = snap["counters"]
        assert counters["faults.injected"] == 2
        assert counters["faults.injected.serve.drop"] == 2


class TestEnvInheritance:
    def test_cli_faults_flag_exports_env(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(faults.ENV_VAR, "sentinel-restored-later")
        main(["--faults", "dist.stall=@1", "info"])
        capsys.readouterr()
        assert os.environ[faults.ENV_VAR] == "dist.stall=@1"

    def test_cli_rejects_bad_faults_spec(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["--faults", "dist.explode=@1", "info"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro: error: argument --faults: unknown fault site")
        assert err.count("\n") == 1
        assert faults.ENV_VAR not in os.environ  # a rejected plan is not exported
