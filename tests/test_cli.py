"""Unit tests for the repro CLI (python -m repro ...)."""

import json

import pytest

from repro import api
from repro.cli import build_parser, main
from repro.sim import margins
from tests.oracles.margins import (
    block_margins_loop,
    select_margins_loop,
    simulate_margin_yield_loop,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_family(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "XYZ", "-M", "8"])


class TestSubcommands:
    def test_info(self, capsys):
        code, out = run_cli(capsys, "info")
        assert code == 0
        assert "raw density" in out and "32 nm" in out

    def test_fig5(self, capsys):
        code, out = run_cli(capsys, "fig5")
        assert code == 0
        assert "Ternary" in out

    def test_fig6(self, capsys):
        code, out = run_cli(capsys, "fig6")
        assert code == 0
        assert "BGC (L=10)" in out

    def test_fig7(self, capsys):
        code, out = run_cli(capsys, "fig7")
        assert code == 0
        assert "yield" in out and "AHC" in out

    def test_fig8_with_exports(self, capsys, tmp_path):
        csv_path = tmp_path / "fig8.csv"
        json_path = tmp_path / "fig8.json"
        code, out = run_cli(
            capsys, "fig8", "--csv", str(csv_path), "--json", str(json_path)
        )
        assert code == 0
        assert csv_path.exists()
        data = json.loads(json_path.read_text())
        assert "BGC" in data

    def test_evaluate(self, capsys):
        code, out = run_cli(capsys, "evaluate", "BGC", "-M", "10")
        assert code == 0
        assert "cave_yield" in out

    def test_evaluate_ternary(self, capsys):
        code, out = run_cli(capsys, "evaluate", "GC", "-M", "6", "-n", "3")
        assert code == 0
        assert "GC(n=3" in out

    def test_optimize(self, capsys):
        code, out = run_cli(capsys, "optimize", "--objective", "bit_area")
        assert code == 0
        assert "best: BGC/10" in out or "best: AHC" in out

    def test_simulate(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "BGC", "-M", "8", "--samples", "20", "--seed", "1"
        )
        assert code == 0
        assert "mean cave yield" in out

    def test_headline(self, capsys):
        code, out = run_cli(capsys, "headline")
        assert code == 0
        assert "paper" in out and "measured" in out

    def test_theorems(self, capsys):
        code, out = run_cli(capsys, "theorems")
        assert code == 0
        assert out.count("PASS") == 7

    def test_baselines(self, capsys):
        code, out = run_cli(capsys, "baselines")
        assert code == 0
        assert "random codes [6]" in out

    def test_margins(self, capsys):
        code, out = run_cli(capsys, "margins", "-M", "8")
        assert code == 0
        assert "select" in out and "BGC" in out and "margin yield" in out

    def test_margins_with_sampling(self, capsys):
        code, out = run_cli(
            capsys,
            "margins",
            "--family",
            "BGC",
            "-M",
            "8",
            "--samples",
            "200",
            "--seed",
            "1",
        )
        assert code == 0
        assert "mc yield" in out and "mc stderr" in out

    def test_margins_loop_batched_identical(self, capsys, monkeypatch):
        args = (
            "margins",
            "--family",
            "GC,BGC",
            "-M",
            "8",
            "--samples",
            "150",
            "--seed",
            "3",
            "--format",
            "json",
        )
        _, batched = run_cli(capsys, *args)
        # the same command on the scalar loop oracles
        monkeypatch.setattr(margins, "select_margins_batched", select_margins_loop)
        monkeypatch.setattr(margins, "block_margins_batched", block_margins_loop)
        monkeypatch.setattr(api, "simulate_margin_yield", simulate_margin_yield_loop)
        _, loop = run_cli(capsys, *args)
        lhs, rhs = json.loads(batched), json.loads(loop)
        # the timing section reports wall clock, not results
        lhs.pop("timing"), rhs.pop("timing")
        assert lhs == rhs

    def test_readout(self, capsys):
        code, out = run_cli(capsys, "readout", "--scheme", "float")
        assert code == 0
        assert "bank size" in out

    def test_calibrate(self, capsys):
        code, out = run_cli(capsys, "calibrate")
        assert code == 0
        assert "shipped defaults error" in out

class TestMarginsGoldens:
    """Seeded goldens for ``repro margins`` (same contract as
    tests/test_sim_golden.py: rel=1e-12 pins the draws and the masking,
    while ignoring float summation-order noise)."""

    GOLDEN_RTOL = 1e-12

    #: repro margins --family GC,BGC -M 8 --samples 300 --seed 7
    #:               --k-sigma 2.0 --format json
    GOLDEN = {
        "GC": {
            "select_margin_v": -0.08166247903554003,
            "block_margin_v": -0.08166247903554003,
            "margin_yield": 0.3,
            "mc_margin_yield": 0.5053333333333334,
            "mc_stderr": 0.007138904252087686,
            "mc_select_margin_v": -0.04379056342135855,
            "mc_block_margin_v": 0.0012443309246753281,
        },
        "BGC": {
            "select_margin_v": 0.005051025721682201,
            "block_margin_v": 0.005051025721682256,
            "margin_yield": 1.0,
            "mc_margin_yield": 0.4975,
            "mc_stderr": 0.0074627465720810944,
            "mc_select_margin_v": -0.014351499886521143,
            "mc_block_margin_v": 0.015387290962775696,
        },
    }

    def test_seeded_margins_golden(self, capsys):
        code, out = run_cli(
            capsys,
            "margins",
            "--family",
            "GC,BGC",
            "-M",
            "8",
            "--samples",
            "300",
            "--seed",
            "7",
            "--k-sigma",
            "2.0",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k_sigma"] == 2.0 and payload["seed"] == 7
        by_family = {r["family"]: r for r in payload["families"]}
        assert set(by_family) == set(self.GOLDEN)
        for family, golden in self.GOLDEN.items():
            for key, value in golden.items():
                assert by_family[family][key] == pytest.approx(
                    value, rel=self.GOLDEN_RTOL
                ), (family, key)


class TestKSigmaArgument:
    """Bad ``--k-sigma`` values end as an argparse error (exit 2)."""

    def _exit_code(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        assert "error: argument --k-sigma: k_sigma must be finite" in err
        return exc.value.code

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_margins_rejects(self, capsys, value):
        argv = ("margins", "--k-sigma", value)
        assert self._exit_code(capsys, *argv) == 2
        assert self._exit_code(capsys, *argv, "--samples", "64") == 2

    def test_sweep_rejects(self, capsys):
        argv = ("sweep", "--metric", "margins", "--k-sigma", "nan")
        assert self._exit_code(capsys, *argv) == 2

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_shard_plan_rejects_without_writing(self, capsys, tmp_path, value):
        job = tmp_path / "job"
        argv = ("shard", "plan", "marginmc", str(job), "BGC", "-M", "8")
        assert self._exit_code(capsys, *argv, "--k-sigma", value) == 2
        assert not job.exists()


class TestReadoutTechnologyArgs:
    """A non-physical readout technology ends as a one-line error with
    exit 2 before any compute (it used to print NaN or negative margins,
    or die with a traceback after the store lookup)."""

    @pytest.mark.parametrize(
        "argv",
        [
            "readout --r-on 1e8",
            "readout --r-on nan",
            "readout --scheme all --r-off inf",
            "memsim TC -M 6 --accesses 64 --instances 1 --readout --r-on nan "
            "--format csv",
            "memsim TC -M 6 --readout --r-on -5",
            "memsim TC -M 6 --readout --resolution 2",
            "memsim TC -M 6 --readout half_v --v-read inf",
            "sweep --families TC --lengths 6 --metric readout --ro-r-on nan",
            "sweep --families TC --lengths 6 --metric workload --wl-readout float "
            "--wl-resolution 1",
        ],
    )
    def test_rejected_with_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"repro {argv.split()[0]}: error: ")


class TestPlatformKnobs:
    def test_platform_knobs_change_results(self, capsys):
        _, loose = run_cli(capsys, "evaluate", "TC", "-M", "6")
        _, tight = run_cli(capsys, "--sigma-t", "0.12", "evaluate", "TC", "-M", "6")
        assert loose != tight


class TestPlatformKnobValidation:
    """A rejected platform spec ends as a one-line error with exit 2 (it
    used to print NaN-derived results with exit 0, or die with a
    traceback)."""

    @pytest.mark.parametrize(
        "argv",
        [
            "--sigma-t nan fig7",
            "--sigma-t nan info",
            "--sigma-t nan headline",
            "--sigma-t nan evaluate BGC -M 8",
            "--sigma-t inf simulate BGC -M 8 --samples 200",
            "--window-margin nan headline",
            "--window-margin 1.5 info",
            "--sigma-t -0.05 fig7",
            "--sigma-t 1e308 fig7",
            "--raw-kb 0 fig8",
            "--raw-kb nan info",
            "--contact-gap -3 fig8",
            "--nanowires -4 info",
        ],
    )
    def test_rejected_with_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("repro: error: ")


class TestSharedOptions:
    """Golden agreement of the shared option layer across subcommands."""

    def _help(self, capsys, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        return " ".join(capsys.readouterr().out.split())

    def _error(self, capsys, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        err = capsys.readouterr().err
        # strip the per-subcommand usage prefix: compare from "error:" on
        return err[err.index("error:"):].strip()

    def test_help_text_identical_across_subcommands(self, capsys):
        from repro.cli import (
            CHUNK_HELP,
            FORMAT_HELP,
            SEED_HELP,
            VIA_HELP,
        )

        helps = {
            cmd: self._help(capsys, cmd)
            for cmd in ("sweep", "simulate", "memsim", "margins", "readout")
        }
        for cmd in ("simulate", "memsim", "margins", "readout"):
            assert "--method" not in helps[cmd], cmd
        for cmd in ("sweep", "simulate", "memsim", "margins"):
            assert " ".join(SEED_HELP.split()) in helps[cmd], cmd
            assert " ".join(FORMAT_HELP.split()) in helps[cmd], cmd
            assert " ".join(VIA_HELP.split()) in helps[cmd], cmd
        for cmd in ("simulate", "memsim", "margins"):
            assert " ".join(CHUNK_HELP.split()) in helps[cmd], cmd

    def test_method_error_message_identical(self, capsys):
        # --method is gone from every command that had it
        design = ["TC", "-M", "6"]
        errors = {
            cmd: self._error(capsys, [cmd, *extra, "--method", "loop"])
            for cmd, extra in (
                ("simulate", design),
                ("memsim", design),
                ("margins", []),
                ("readout", []),
            )
        }
        assert len(set(errors.values())) == 1, errors
        assert "unrecognized arguments: --method loop" in errors["simulate"]

    def test_format_error_message_identical(self, capsys):
        errors = {
            cmd: self._error(capsys, [cmd, "--format", "bogus"])
            for cmd in ("sweep", "simulate", "memsim", "margins")
        }
        assert len(set(errors.values())) == 1, errors

    def test_seed_default_agrees(self):
        parser = build_parser()
        seeds = {
            cmd: parser.parse_args(
                [cmd, *extra]
            ).seed
            for cmd, extra in (
                ("sweep", []),
                ("simulate", ["TC", "-M", "6"]),
                ("memsim", ["TC", "-M", "6"]),
                ("margins", []),
            )
        }
        assert set(seeds.values()) == {0}


class TestViaDaemon:
    def test_sweep_via_socket_matches_direct(self, capsys, tmp_path):
        from repro.serve import ReproServer

        sock = str(tmp_path / "cli.sock")
        args = ["sweep", "--families", "TC,GC", "--lengths", "6",
                "--metric", "yield,area", "--format", "csv"]
        _, direct = run_cli(capsys, *args)
        with ReproServer(sock).running():
            code, cold = run_cli(capsys, *args, "--via", sock)
            assert code == 0
            _, warm = run_cli(capsys, *args, "--via", sock)
        assert cold == direct
        assert warm == direct

    def test_simulate_via_socket_matches_direct(self, capsys, tmp_path):
        from repro.serve import ReproServer

        sock = str(tmp_path / "cli2.sock")
        args = ["simulate", "TC", "-M", "6", "--samples", "64", "--format", "csv"]
        _, direct = run_cli(capsys, *args)
        with ReproServer(sock).running():
            _, served = run_cli(capsys, *args, "--via", sock)
        assert served == direct


class TestUsageErrors:
    """An execution flag out of range is one ``repro <cmd>: error:`` line
    with exit 2 and no stdout, before any store, job file or worker is
    touched (the argv that need no job directory are in
    ``tests/test_schema.py``'s ``BAD_ARGV``)."""

    @pytest.fixture
    def job(self, tmp_path):
        from repro import dist

        request = api.McRequest("marginmc", "BGC", 6, samples=2048, stream_block=1024)
        job = tmp_path / "job"
        dist.write_job(job, dist.plan_request(request, shards=2))
        return job

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("shard launch {job} --workers -1", "argument --workers: workers must"),
            ("shard launch {job} --lease-ttl 0", "argument --lease-ttl: lease TTL"),
            ("shard launch {job} --retries -1", "argument --retries: retries must"),
            ("shard launch {job} --backoff -1", "argument --backoff: backoff must"),
            ("shard status {job} --watch --interval -1", "argument --interval: "),
        ],
    )
    def test_one_line_exit_2(self, capsys, tmp_path, job, argv, message):
        store = tmp_path / "store"
        before = sorted(p.relative_to(job) for p in job.rglob("*"))
        with pytest.raises(SystemExit) as exc:
            main(["--store", str(store), *argv.format(job=job).split()])
        out, err = capsys.readouterr()
        assert exc.value.code == 2, err
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("repro shard: error: ")
        assert message in err
        assert not store.exists()
        assert sorted(p.relative_to(job) for p in job.rglob("*")) == before

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--max-pending 0", "argument --max-pending: max pending must be >= 1"),
            ("--deadline -1", "argument --deadline: deadline must be"),
            ("--jobs -1", "argument --jobs: jobs must be >= 0"),
        ],
    )
    def test_serve_knobs_checked_before_binding(self, capsys, tmp_path, flags, message):
        sock, store = tmp_path / "serve.sock", tmp_path / "store"
        with pytest.raises(SystemExit) as exc:
            main(["--store", str(store), "serve", "--socket", str(sock), *flags.split()])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.count("\n") == 1
        assert err.startswith("repro serve: error: ") and message in err
        assert not sock.exists() and not store.exists()
