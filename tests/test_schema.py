"""The request schema: each request field declared once, checked everywhere.

Every field of ``CrossbarSpec`` (with its ``LithographyRules``),
``McRequest``, ``WorkloadRequest`` and ``SweepParams`` carries its type,
default, bounds, help text and CLI spelling in one declaration
(:mod:`repro.schema`).  These tests pin what that buys:

* a rejected value is a :class:`repro.schema.SchemaError` naming the
  field — through the constructor, ``api.parse_request``, a daemon
  frame (an error frame; the daemon lives on) and the CLI (one stderr
  line, exit 2, before any store access or compute);
* the property test sends NaN, +-inf, 0, -1, 1e308 and each bound +- 1
  ulp through every numeric field: the outcome is always a valid
  request (a result with no NaN), a ``SchemaError``, exit 2 or an
  error frame — never a traceback.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import re
import subprocess
import sys
import uuid
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api, schema
from repro.cli import main
from repro.crossbar.spec import SPEC_OVERRIDE_KEYS, CrossbarSpec, spec_with
from repro.exp.designpoint import DesignPoint
from repro.exp.pipeline import SweepParams
from repro.fabrication.lithography import LithographyRules
from repro.serve import ReproServer
from repro.serve.protocol import decode_frame, encode_frame, request_frame

SRC = Path(__file__).resolve().parents[1] / "src"

NAN, INF = float("nan"), float("inf")

#: Small, cheap valid requests every case perturbs one field of.
MC_BASE = dict(kind="marginmc", family="TC", total_length=6, samples=64)
WL_BASE = dict(family="TC", total_length=6, accesses=64, instances=1, readout="float")


def sweep_payload() -> dict:
    request = api.SweepRequest(points=(DesignPoint.make("TC", 6),))
    return request.to_dict()


def run_cli(*argv: str) -> tuple[int, str, str]:
    """``repro <argv>`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_one_line_error(code: int, out: str, err: str) -> None:
    assert code == 2, err
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("repro"), err
    assert "error: " in err and "Traceback" not in err


def exchange(socket_path: str, frame: dict) -> dict:
    import socket

    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
        raw.connect(socket_path)
        raw.sendall(encode_frame(frame))
        return decode_frame(raw.makefile("rb").readline())


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """One daemon for the module's frames (no store)."""
    path = f"/tmp/repro-schema-{uuid.uuid4().hex[:8]}.sock"
    with ReproServer(path).running():
        yield path


def assert_error_frame(daemon: str, op: str, payload: dict) -> dict:
    reply = exchange(daemon, request_frame(op, 7, payload))
    assert reply["ok"] is False and reply["frame"] == "error", reply
    assert exchange(daemon, request_frame("ping", 8))["ok"]  # still alive
    return reply


# -- the declarations ----------------------------------------------------------


class TestDeclarations:
    TYPES = (CrossbarSpec, LithographyRules, api.McRequest, api.WorkloadRequest)

    @pytest.mark.parametrize("cls", (*TYPES, SweepParams))
    def test_every_field_is_declared(self, cls):
        undeclared = {f.name for f in dataclasses.fields(cls)} - set(schema.knobs(cls))
        assert undeclared <= {"spec", "rules"}

    def test_error_names_field_and_flag(self):
        with pytest.raises(schema.SchemaError) as exc:
            api.McRequest("marginmc", "BGC", 8, samples=0)
        assert exc.value.field == "samples"
        assert exc.value.flags == ("--samples",)
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SweepParams(ro_r_on="1e5"),
            lambda: SweepParams(mc_samples=2.0),
            lambda: CrossbarSpec(sigma_t=None),
            lambda: api.WorkloadRequest("TC", 6, accesses="64"),
        ],
    )
    def test_wrong_type_is_a_schema_error(self, build):
        with pytest.raises(schema.SchemaError):
            build()

    def test_from_dict_defaults_come_from_the_dataclass(self):
        minimal = {"v": api.API_SCHEMA_VERSION, "family": "TC", "total_length": 6}
        mc = api.McRequest.from_dict({**minimal, "kind": "cavemc"})
        assert mc == api.McRequest("cavemc", "TC", 6)
        wl = api.WorkloadRequest.from_dict({**minimal, "kind": "memsim"})
        assert wl == api.WorkloadRequest("TC", 6)

    def test_inactive_field_neither_checked_nor_hashed(self):
        cave = api.McRequest("cavemc", "TC", 6, k_sigma=NAN)
        assert "k_sigma" not in cave.to_dict()
        assert cave.canonical() == api.McRequest("cavemc", "TC", 6).canonical()
        with pytest.raises(schema.SchemaError, match="k_sigma must be finite"):
            api.McRequest("marginmc", "TC", 6, k_sigma=NAN)

    def test_payload_layout_keeps_conditional_fields_last(self):
        keys = list(api.McRequest("marginmc", "TC", 6).to_dict())
        assert keys[-2:] == ["stream_block", "k_sigma"]

    def test_override_names_come_from_the_schema(self):
        names = {*schema.overrides(CrossbarSpec), *schema.overrides(LithographyRules)}
        assert set(SPEC_OVERRIDE_KEYS) == names == {
            "nanowires",
            "sigma_t",
            "window_margin",
            "contact_gap_factor",
            "alignment_tolerance_nm",
        }

    def test_api_import_loads_no_argparse(self):
        code = (
            "import sys, repro.api\n"
            "print('argparse' in sys.modules, 'repro.schema' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert out == ["False", "True"]


# -- satellite bugs ------------------------------------------------------------


class TestParityBits:
    """SECDED parity bits: 0 (no ECC) or 2 <= r with 2**r <= raw_bits."""

    @pytest.mark.parametrize("r", [1, 18, 20, 40])
    def test_constructor_and_parse_reject(self, r):
        with pytest.raises(schema.SchemaError, match="parity_bits"):
            api.WorkloadRequest("TC", 6, parity_bits=r)
        payload = api.WorkloadRequest("TC", 6).to_dict()
        payload["parity_bits"] = r
        with pytest.raises(schema.SchemaError, match="parity_bits"):
            api.parse_request(payload)

    @pytest.mark.parametrize("r", [0, 2, 6, 17])
    def test_block_that_fits_accepted(self, r):
        assert api.WorkloadRequest("TC", 6, parity_bits=r).parity_bits == r

    def test_bound_follows_the_array(self):
        small = CrossbarSpec(raw_kilobytes=0.5)  # 4096 bits: r <= 12
        assert api.WorkloadRequest("TC", 6, parity_bits=12, spec=small)
        with pytest.raises(schema.SchemaError, match=r"\[2, 12\]"):
            api.WorkloadRequest("TC", 6, parity_bits=13, spec=small)

    @pytest.mark.parametrize("r", ["0", "1", "18", "40"])
    def test_cli_rejects(self, r, tmp_path):
        store = tmp_path / "store"
        argv = ("--store", str(store), "memsim", "TC", "-M", "6", "--ecc")
        code, out, err = run_cli(*argv, "--parity-bits", r)
        assert_one_line_error(code, out, err)
        assert "argument --parity-bits: parity_bits" in err
        assert not store.exists()


class TestErrorRateNeedsAReader:
    """Write errors only move ECC counts and electrical reads: an ideal
    raw-bit run reports no metric they change, so a nonzero rate there
    is refused rather than stored as a distinct, identical result."""

    def test_workload_request(self):
        with pytest.raises(schema.SchemaError, match="error_rate"):
            api.WorkloadRequest("TC", 6, error_rate=1e-2)
        assert api.WorkloadRequest("TC", 6, error_rate=1e-2, parity_bits=6)
        assert api.WorkloadRequest("TC", 6, error_rate=1e-2, readout="float")

    def test_sweep_params(self):
        with pytest.raises(schema.SchemaError, match="wl_error_rate"):
            SweepParams(wl_error_rate=1e-2)
        assert SweepParams(wl_error_rate=1e-2, wl_ecc=True)
        assert SweepParams(wl_error_rate=1e-2, wl_readout="ground")


#: (request type, field, out-of-range value) for the satellite bounds.
BOUNDS = [
    (api.WorkloadRequest, "address_space", -3),
    (api.WorkloadRequest, "seed", -1),
    (api.McRequest, "seed", -1),
    (api.McRequest, "n", 1),
    (api.WorkloadRequest, "n", 0),
    (api.McRequest, "total_length", 0),
    (api.WorkloadRequest, "total_length", -2),
    (api.McRequest, "family", "XX"),
    (api.WorkloadRequest, "family", "bgc"),
    (api.WorkloadRequest, "error_rate", 1e-2),
]


def base_payload(cls) -> dict:
    base = MC_BASE if cls is api.McRequest else {**WL_BASE, "readout": "off"}
    return cls(**base).to_dict()


class TestFieldBounds:
    @pytest.mark.parametrize("cls, field, value", BOUNDS)
    def test_parse_request_rejects(self, cls, field, value):
        payload = {**base_payload(cls), field: value}
        with pytest.raises(schema.SchemaError) as exc:
            api.parse_request(payload)
        assert exc.value.field == field

    @pytest.mark.parametrize("cls, field, value", BOUNDS)
    def test_daemon_answers_error_frame(self, daemon, cls, field, value):
        op = "simulate" if cls is api.McRequest else "memsim"
        reply = assert_error_frame(daemon, op, {**base_payload(cls), field: value})
        assert field in reply["error"] or "family" in reply["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            "memsim TC -M 6 --address-space -3",
            "memsim TC -M 6 --seed -1",
            "simulate TC -M 6 --seed -1",
            "simulate TC -M 6 -n 1",
            "simulate TC -M 0",
            "evaluate TC -M 6 -n 0",
            "simulate XX -M 6",
            "margins --family XX",
        ],
    )
    def test_cli_exit_2(self, argv):
        assert_one_line_error(*run_cli(*argv.split()))

    def test_negative_address_space_rejected(self):
        # -3 would compute what 0 computes under a different digest
        with pytest.raises(schema.SchemaError, match="address_space"):
            api.WorkloadRequest("TC", 6, address_space=-3)


class TestUnrealisableDesign:
    """A design its code family cannot realise (``TC -M 5``) is a rejected
    request: a SchemaError on ``total_length``, before any store access."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: api.McRequest("cavemc", "TC", 5),
            lambda: api.McRequest("marginmc", "HC", 5),
            lambda: api.WorkloadRequest("TC", 5),
        ],
    )
    def test_constructor_rejects(self, build):
        with pytest.raises(schema.SchemaError, match="codes need") as exc:
            build()
        err = exc.value
        assert (err.field, err.flags) == ("total_length", ("-M", "--length"))

    @pytest.mark.parametrize("cls", [api.McRequest, api.WorkloadRequest])
    def test_parse_request_rejects(self, cls):
        with pytest.raises(schema.SchemaError) as exc:
            api.parse_request({**base_payload(cls), "total_length": 5})
        assert exc.value.field == "total_length"

    def test_sweep_names_the_point(self):
        points = (DesignPoint.make("TC", 6), DesignPoint.make("TC", 5))
        with pytest.raises(schema.SchemaError, match="design point TC/5 ") as exc:
            api.SweepRequest(points=points)
        assert exc.value.field == "total_length"
        payload = sweep_payload()
        payload["points"][0]["total_length"] = 5
        with pytest.raises(schema.SchemaError, match="design point TC/5 "):
            api.parse_request(payload)

    @pytest.mark.parametrize("op", ["simulate", "memsim", "evaluate"])
    def test_daemon_answers_before_the_store(self, op, tmp_path):
        from repro.store import ResultStore

        if op == "evaluate":
            payload = sweep_payload()
            payload["points"][0]["total_length"] = 5
        else:
            cls = api.McRequest if op == "simulate" else api.WorkloadRequest
            payload = {**base_payload(cls), "total_length": 5}
        path = f"/tmp/repro-design-{uuid.uuid4().hex[:8]}.sock"
        with ReproServer(path, store=ResultStore(tmp_path / "store")).running():
            before = exchange(path, request_frame("stats", 1))["result"]["store"]
            reply = assert_error_frame(path, op, payload)
            after = exchange(path, request_frame("stats", 9))["result"]["store"]
        assert "even total length" in reply["error"]
        assert after == before  # no lookup, no compute, no commit


class TestSpecOverrides:
    def test_one_override_path(self):
        from repro.analysis import spec_with as public
        from repro.exp.cache import cached_spec

        assert public is spec_with
        overrides = (("contact_gap_factor", 1.5), ("sigma_t", 0.07))
        assert cached_spec(CrossbarSpec(), overrides) == spec_with(**dict(overrides))

    @pytest.mark.parametrize(
        "name, value", [("sigma_t", NAN), ("window_margin", 1.5), ("nanowires", 0)]
    )
    def test_sweep_request_checks_override_values(self, name, value):
        point = DesignPoint.make("TC", 6, **{name: value})
        with pytest.raises(schema.SchemaError) as exc:
            api.SweepRequest(points=(point,))
        assert exc.value.flags == ("--axis",)
        payload = sweep_payload()
        payload["points"][0]["overrides"] = [[name, value]]
        with pytest.raises(schema.SchemaError):
            api.parse_request(payload)

    def test_daemon_frame_with_bad_override(self, daemon):
        payload = sweep_payload()
        payload["points"][0]["overrides"] = [["sigma_t", NAN]]
        reply = assert_error_frame(daemon, "evaluate", payload)
        assert "sigma_T" in reply["error"]

    def test_shard_payload_with_bad_override_fails_at_parse(self, tmp_path):
        from repro import dist

        plan = dist.plan_sweep_shards([DesignPoint.make("TC", 6)], shards=1)
        dist.write_job(tmp_path / "job", plan)
        (spec_file,) = (tmp_path / "job" / "shards").glob("*.json")
        doc = json.loads(spec_file.read_text())
        doc["request"]["points"][0]["overrides"] = [["sigma_t", -0.05]]
        spec_file.write_text(json.dumps(doc))
        with pytest.raises(schema.SchemaError, match="sigma_T"):
            dist.run_shard_file(spec_file)

    def test_cli_axis_exit_2_before_compute(self, tmp_path):
        store = tmp_path / "store"
        argv = ("--store", str(store), "sweep", "--axis", "sigma_t=nan")
        code, out, err = run_cli(*argv)
        assert_one_line_error(code, out, err)
        assert err.startswith("repro sweep: error: argument --axis: sigma_T")
        assert not store.exists()


# -- the CLI error contract ----------------------------------------------------

#: One bad value per request flag group, plus an execution flag.
BAD_ARGV = [
    "memsim TC -M 6 --error-rate 2",
    "memsim TC -M 6 --error-rate 1e-2",
    "memsim TC -M 6 --write-fraction nan",
    "memsim TC -M 6 --instances 0",
    "memsim TC -M 6 --accesses -5",
    "memsim TC -M 6 --seed -1",
    "simulate TC -M 6 --samples 0",
    "simulate TC -M 6 --chunk-size 0",
    "sweep --axis sigma_t=nan",
    "sweep --mc-samples 0",
    "sweep --wl-accesses 0",
    "sweep --wl-error-rate nan",
    "sweep --wl-error-rate 1e-2",
    "sweep --ro-min-margin nan",
    "evaluate TC -M 6 -n 0",
    "shard plan marginmc {job} BGC -M 8 --samples 0",
    "shard plan marginmc {job} BGC -M 8 --stream-block 0",
    # a design its code family cannot realise
    "shard plan cavemc {job} TC -M 5 --samples 10",
    "simulate TC -M 5",
    "memsim TC -M 5",
    # command lines only a handler can judge, and execution flags
    "sweep --axis sigma_t",
    "sweep --axis bogus=1",
    "sweep --lengths 6,x",
    "readout --sizes 0",
    "readout --sizes 4,x",
    "margins --family ,",
    "sweep --jobs -3 --families TC --lengths 6",
    "optimize --jobs -2",
    "shard plan marginmc {job} BGC -M 8 --samples 1000 --shards 0",
    "shard status {job}",
    "shard merge {job}",
    "shard launch {job}",
    "shard run {job}/shards/0000.json",
]


class TestCliErrorContract:
    @pytest.mark.parametrize("argv", BAD_ARGV)
    def test_one_line_exit_2_no_store_access(self, argv, tmp_path):
        store, job = tmp_path / "store", tmp_path / "job"
        args = argv.format(job=job).split()
        code, out, err = run_cli("--store", str(store), *args)
        assert_one_line_error(code, out, err)
        assert err.startswith(f"repro {args[0]}: error: argument ")
        assert not store.exists() and not job.exists()

    def test_argparse_errors_are_one_line_too(self):
        code, out, err = run_cli("simulate", "TC", "-M", "six")
        assert_one_line_error(code, out, err)
        assert "argument -M/--length: invalid int value" in err

    def test_api_facades_check_chunk_size_by_schema(self):
        request = api.McRequest("cavemc", "TC", 6, samples=8)
        with pytest.raises(schema.SchemaError, match="chunk size must be >= 1"):
            api.simulate(request, chunk_size=0)


# -- the property test ---------------------------------------------------------

#: Accepted values of these fields size the computation (1e308 trials,
#: a 1e308-long code): valid requests, but too costly to compute, so the
#: compute paths (daemon, CLI) only run them at a magnitude <= 64.
SIZE_FIELDS = {
    "samples",
    "accesses",
    "instances",
    "stream_block",
    "address_space",
    "total_length",
    "n",
    "mc_samples",
    "wl_accesses",
    "wl_instances",
    "nanowires_per_half_cave",
    "raw_kilobytes",
}


def edge_values(k: schema.Knob) -> list:
    """NaN, +-inf, 0, -1, 1e308 and each bound +- 1 ulp (+- 1 for ints)."""
    values = [NAN, INF, -INF, 0, -1, 1e308, 0.0, -1.0]
    for bound in (k.ge, k.gt, k.le, k.lt):
        if bound is None:
            continue
        values += [bound, math.nextafter(bound, -INF), math.nextafter(bound, INF)]
        if k.type is int:
            values += [int(bound) - 1, int(bound) + 1]
    if k.type is int:
        values.append(int(1e308))
    return values


def numeric_fields() -> list[tuple[type, str, schema.Knob]]:
    out = []
    for cls in (*TestDeclarations.TYPES, SweepParams):
        for name, k in schema.knobs(cls).items():
            if k.type in (int, float) and k.choices is None:
                out.append((cls, name, k))
    return out


FIELDS = numeric_fields()
CASES = [(cls, name, v) for cls, name, k in FIELDS for v in edge_values(k)]


def construct(cls, name, value):
    if cls is api.McRequest:
        return cls(**{**MC_BASE, name: value})
    if cls is api.WorkloadRequest:
        return cls(**{**WL_BASE, name: value})
    return cls(**{name: value})


def payload_with(cls, name, value) -> tuple[str, dict]:
    """(daemon op, canonical payload) with ``name`` set to ``value``."""
    if cls is api.McRequest:
        return "simulate", {**api.McRequest(**MC_BASE).to_dict(), name: value}
    if cls is api.WorkloadRequest:
        return "memsim", {**api.WorkloadRequest(**WL_BASE).to_dict(), name: value}
    payload = sweep_payload()
    section = {
        SweepParams: payload["params"],
        CrossbarSpec: payload["spec"],
        LithographyRules: payload["spec"]["rules"],
    }[cls]
    section[name] = value
    return "evaluate", payload


def has_nan(text: str) -> bool:
    return re.search(r"\bnan\b", text, re.IGNORECASE) is not None


def check_built(request) -> None:
    """A request the schema accepted canonicalises without NaN or inf."""
    text = request.canonical() if hasattr(request, "canonical") else repr(request)
    assert not re.search(r"\b(nan|inf|Infinity|NaN)\b", text), text


def outcome_of(call):
    try:
        return call()
    except schema.SchemaError:
        return None


def compute_safe(cls, name, value) -> bool:
    """Rejected, or small enough to compute (see :data:`SIZE_FIELDS`)."""
    payload = payload_with(cls, name, value)[1]
    if outcome_of(lambda: api.parse_request(payload)) is None:
        return True
    return name not in SIZE_FIELDS or abs(value) <= 64


class TestPropertyEveryNumericField:
    def test_cases_cover_every_numeric_field(self):
        assert {(cls, name) for cls, name, _ in CASES} == {
            (cls, name) for cls, name, _ in FIELDS
        }
        assert len(FIELDS) >= 39

    def test_every_case_through_constructor_and_parse(self):
        for cls, name, value in CASES:
            built = outcome_of(lambda: construct(cls, name, value))
            if built is not None:
                check_built(built)
            payload = payload_with(cls, name, value)[1]
            parsed = outcome_of(lambda: api.parse_request(payload))
            if parsed is not None:
                check_built(parsed)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_arbitrary_values_through_constructor_and_parse(self, data):
        cls, name, k = data.draw(st.sampled_from(FIELDS))
        value = data.draw(
            st.floats(allow_nan=True, allow_infinity=True)
            | st.integers(min_value=-(2**70), max_value=2**70)
        )
        for call in (
            lambda: construct(cls, name, value),
            lambda: api.parse_request(payload_with(cls, name, value)[1]),
        ):
            built = outcome_of(call)
            if built is not None:
                check_built(built)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=st.sampled_from([c for c in CASES if compute_safe(*c)]))
    def test_sampled_cases_through_a_daemon_frame(self, daemon, case):
        cls, name, value = case
        op, payload = payload_with(cls, name, value)
        reply = exchange(daemon, request_frame(op, 1, payload))
        if reply["ok"]:
            assert reply["frame"] == "done"
            assert not has_nan(json.dumps(reply["result"]))
        else:
            assert reply["frame"] == "error" and reply["error"]
        assert exchange(daemon, request_frame("ping", 2))["ok"]

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from([c for c in CASES if compute_safe(*c)]))
    def test_sampled_cases_through_the_cli(self, case):
        cls, name, value = case
        k = schema.knobs(cls)[name]
        if not k.flags:
            return
        flag = [f for f in k.flags if f.startswith("--")][0]
        arg = f"{flag}={value!r}"
        sweep = ["sweep", "--families", "TC", "--lengths", "6"]
        if cls in (CrossbarSpec, LithographyRules):
            argv = [arg, *sweep]
        elif cls is SweepParams:
            argv = [*sweep, arg]
        elif cls is api.WorkloadRequest:
            argv = ["memsim", "TC", "-M", "6", "--accesses", "64", "--instances", "1"]
            argv += ["--ecc", arg] if name == "parity_bits" else [arg, "--readout"]
        elif name == "stream_block":
            return  # only `shard plan` spells it; the planner is pinned above
        else:
            argv = ["margins", "--family", "TC", "-M", "6", "--samples", "64", arg]
        code, out, err = run_cli(*argv, "--format", "csv")
        if code == 0:
            assert not has_nan(out), (argv, out)
        else:
            assert_one_line_error(code, out, err)
