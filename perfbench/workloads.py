"""The four benchmark workloads: generators, closed loops, checks, layers.

Every workload is a function ``run_<name>(ctx) -> Outcome``.  It sets
the program up :data:`SETUP_REPEATS` times (reporting each set-up's
wall), runs closed-loop *rounds* until ``ctx.seconds`` have passed
(a round is a fixed op mix in a seeded order, so the mix proportions
are exact in every run), then checks every output outside the timed
window.  In a traced run, even rounds run with bench-side spans and odd
rounds without, so the two halves give the tracing overhead under the
same conditions; the per-layer metrics of the workload's own layers are
computed from the traced run (see ``README.md`` for the definitions).

Inputs come only from ``ctx.rng(...)`` streams keyed on the workload
seed; the program sees only the generated requests.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from benchlib import (
    NULL_TRACER,
    TAIL_BEYOND,
    Tracer,
    peak_rss_mb,
    thirdparty_import_ms,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

#: Environment of every program subprocess: the checkout's sources first.
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    ),
)

#: How many times each run sets the program up (setup_s is the median).
SETUP_REPEATS = 5

#: Op timeout for subprocesses and daemon round trips, in seconds.
OP_TIMEOUT_S = 120

#: A full-size closed loop runs whole rounds until its time is up and it
#: has at least this many ops, so the tail rule lands above the median.
MIN_OPS = 2 * TAIL_BEYOND + 4


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@dataclass
class Ctx:
    """One workload run: its seed, time budget, size and tracer."""

    workload: str
    seed: int
    seconds: float
    smoke: bool
    traced: bool
    work: Path
    tracer: Tracer = field(default_factory=Tracer)

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(str(p) for p in (self.workload, self.seed, *parts)))

    def tracer_for(self, round_index: int):
        """Spans on even rounds of a traced run; no spans otherwise."""
        if self.traced and round_index % 2 == 0:
            return self.tracer
        return NULL_TRACER

    @property
    def setups(self) -> int:
        return 1 if self.smoke else SETUP_REPEATS

    @property
    def min_rounds(self) -> int:
        """A traced run needs a traced and an untraced round."""
        return 2 if self.traced else 1

    def more(
        self, rounds: int, ops: int, deadline: float, min_ops: int = MIN_OPS
    ) -> bool:
        """Whether a closed loop starts another round."""
        if rounds < self.min_rounds:
            return True
        if self.smoke:
            return False
        return time.perf_counter() < deadline or ops < min_ops


@dataclass
class Op:
    kind: str
    seconds: float = 0.0
    traced: bool = False
    ok: bool = True
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What a workload run measured; ``failed`` includes check failures."""

    setup_s: list[float]
    ops: list[Op]
    round_rates: list[float]  # ops/s of every round of every closed loop
    attempted: int
    failed: int
    peak_rss_mb: float
    loops: int = 1  # closed loops running at once
    extra: dict = field(default_factory=dict)  # name -> (value, unit)
    layers: dict = field(default_factory=dict)  # per-layer metric -> value


def closed_loop(
    ctx: Ctx, make_round, run_op, min_ops: int = MIN_OPS
) -> tuple[list[Op], list[float]]:
    """Run whole rounds while :meth:`Ctx.more` allows; time every op.

    Returns the ops and each round's rate in ops/s.
    """
    ops: list[Op] = []
    rates: list[float] = []
    deadline = time.perf_counter() + ctx.seconds
    r = 0
    while ctx.more(r, len(ops), deadline, min_ops):
        tracer = ctx.tracer_for(r)
        start = time.perf_counter()
        specs = make_round(r)
        for i, spec in enumerate(specs):
            t0 = time.perf_counter()
            op = run_op(spec, tracer, f"{ctx.workload}-{r}-{i}")
            op.seconds = time.perf_counter() - t0
            op.traced = tracer is not NULL_TRACER
            ops.append(op)
        rates.append(len(specs) / (time.perf_counter() - start))
        r += 1
    return ops, rates


def timed_setups(ctx: Ctx, setup_once) -> tuple[list[float], object]:
    """Set up ``ctx.setups`` times; earlier set-ups are torn down.

    ``setup_once(i)`` returns ``(state, teardown)``; the last state is
    kept for the timed window.
    """
    times = []
    state = None
    for i in range(ctx.setups):
        t0 = time.perf_counter()
        state, teardown = setup_once(i)
        times.append(time.perf_counter() - t0)
        if i < ctx.setups - 1:
            teardown()
    return times, state


def repro(args) -> subprocess.CompletedProcess:
    """``python -m repro <args>`` in the checkout, output captured."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        env=ENV,
        cwd=ROOT,
        timeout=OP_TIMEOUT_S,
    )


def python_c(code: str, *, extra=()) -> tuple[float, subprocess.CompletedProcess]:
    """Wall seconds of a fresh ``python [extra] -c code`` (output captured)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra, "-c", code],
        capture_output=True,
        env=ENV,
        cwd=ROOT,
        timeout=OP_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"python -c failed: {proc.stderr.decode()[-2000:]}")
    return wall, proc


def mean_ms(values) -> float:
    return 1000.0 * statistics.fmean(values)


def median_ms(values) -> float:
    return 1000.0 * statistics.median(values)


# -- the serve daemon ----------------------------------------------------------


class Daemon:
    """A ``repro serve --jobs 1`` subprocess on its own fresh store."""

    def __init__(self, work: Path, tag: str):
        # AF_UNIX paths are short; a path relative to the checkout root
        # (every process here runs there) stays short however deep it is
        self.socket = os.path.relpath(work / f"{tag}.sock", ROOT)
        self.store = work / f"{tag}-store"
        self.log = work / f"{tag}.log"
        self.proc = None

    def start(self) -> "Daemon":
        from repro.serve.client import ServeClient, ServeError

        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--socket", self.socket,
                    "--store", str(self.store),
                    "--jobs", "1",
                ],
                env=ENV,
                cwd=ROOT,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + 60
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited early: {self.log.read_text()[-2000:]}"
                )
            if os.path.exists(self.socket):
                try:
                    with ServeClient(self.socket, timeout=5, retries=0) as client:
                        client.ping()
                    return self
                except (OSError, ServeError):
                    pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro serve did not come up within 60 s")
            time.sleep(0.005)

    def client(self):
        return _counting_client_class()(self.socket, timeout=OP_TIMEOUT_S)

    def stop(self) -> None:
        """Ask for a clean shutdown, then kill; always reaps the process."""
        if self.proc is None or self.proc.poll() is not None:
            return
        from repro.serve.client import ServeClient, ServeError

        try:
            with ServeClient(self.socket, timeout=10, retries=0) as client:
                client.shutdown()
        except (OSError, ServeError):
            pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@functools.cache
def _counting_client_class():
    from repro.serve.client import ServeClient

    class CountingClient(ServeClient):
        """A ServeClient that counts attempts, so retries = attempts - calls."""

        attempts = 0

        def _attempt(self, *args, **kwargs):
            self.attempts += 1
            return super()._attempt(*args, **kwargs)

    return CountingClient



# -- paper-cli -----------------------------------------------------------------

PAPER_COMMANDS = ("info", "fig5", "fig6", "fig7", "fig8", "headline", "theorems")
VIA = "sweep-via"
SWEEP_CSV = ("sweep", "--format", "csv")

#: paper-cli's tail is a headline metric: 32 ops (4 rounds) put it at p69,
#: among the slowest commands of a round rather than next to the median;
#: more would not fit the benchmark's time budget at ~1 s per op.
PAPER_MIN_OPS = 3 * TAIL_BEYOND + 2


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def update_goldens() -> dict:
    """Recompute the stdout digests the paper-cli checks compare against."""
    goldens = {}
    for cmd in PAPER_COMMANDS:
        proc = repro([cmd])
        if proc.returncode != 0:
            raise RuntimeError(f"repro {cmd} failed: {proc.stderr.decode()}")
        goldens[cmd] = digest(proc.stdout)
    proc = repro(SWEEP_CSV)
    goldens["sweep"] = digest(proc.stdout)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return goldens


def run_paper_cli(ctx: Ctx) -> Outcome:
    """One fresh ``python -m repro <cmd>`` per op, plus a warm ``--via`` hit."""
    goldens = load_goldens()
    mix = ("info", VIA) if ctx.smoke else (*PAPER_COMMANDS, VIA)
    daemons: list[Daemon] = []

    def setup_once(i):
        daemon = Daemon(ctx.work, f"p{i}")
        daemons.append(daemon)
        daemon.start()
        warm = repro((*SWEEP_CSV, "--via", daemon.socket))
        if warm.returncode != 0:
            raise RuntimeError(f"--via warm-up failed: {warm.stderr.decode()}")
        return daemon, daemon.stop

    try:
        setup_s, daemon = timed_setups(ctx, setup_once)

        def make_round(r):
            return ctx.rng("round", r).sample(mix, len(mix))

        def run_op(cmd, tracer, trace_id):
            args = (*SWEEP_CSV, "--via", daemon.socket) if cmd == VIA else (cmd,)
            try:
                with tracer.span(f"op.{cmd}", trace=trace_id):
                    with tracer.span(f"cli.{cmd}"):
                        proc = repro(args)
            except subprocess.TimeoutExpired:
                return Op(cmd, ok=False, data={"stdout": None})
            return Op(cmd, ok=proc.returncode == 0, data={"stdout": digest(proc.stdout)})

        ops, rates = closed_loop(ctx, make_round, run_op, PAPER_MIN_OPS)
        layers = {}
        if ctx.traced:
            layers, main_failed, main_runs = cli_layer_metrics(ctx, goldens)
            layers["cli.via_hit_ms"] = median_ms(
                [op.seconds for op in ops if op.kind == VIA]
            )
    finally:
        for d in daemons:
            d.stop()

    # checks, outside the timed window
    reference = repro(SWEEP_CSV)
    via_golden = digest(reference.stdout)
    failed = sum(
        1
        for op in ops
        if not op.ok
        or op.data["stdout"] != (via_golden if op.kind == VIA else goldens[op.kind])
    )
    failed += via_golden != goldens["sweep"]
    attempted = len(ops)
    if ctx.traced:
        failed += main_failed
        attempted += main_runs
    return Outcome(
        setup_s=setup_s,
        ops=ops,
        round_rates=rates,
        attempted=attempted,
        failed=failed,
        peak_rss_mb=peak_rss_mb(include_self=False),
        layers=layers,
    )


def cli_layer_metrics(ctx: Ctx, goldens: dict) -> tuple[dict, int, int]:
    """cli.* metrics: interpreter floor, import cost, in-process main."""
    reps = 1 if ctx.smoke else 3
    interp = statistics.median(python_c("pass")[0] for _ in range(reps + 2))
    imports = statistics.median(python_c("import repro.cli")[0] for _ in range(reps))
    _, proc = python_c("import repro.cli", extra=("-X", "importtime"))
    thirdparty = thirdparty_import_ms(proc.stderr.decode())

    from repro import cli

    failed = 0
    warm = []
    for cmd in PAPER_COMMANDS:
        for attempt in range(2):  # the second call is the warm one
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main([cmd])
            elapsed = time.perf_counter() - t0
        warm.append(elapsed)
        failed += code != 0 or digest(out.getvalue()) != goldens[cmd]
    metrics = {
        "cli.interp_ms": 1000.0 * interp,
        "cli.import_ms": 1000.0 * (imports - interp),
        "cli.import_thirdparty_ms": thirdparty,
        "cli.main_ms": mean_ms(warm),
    }
    return metrics, failed, len(PAPER_COMMANDS)


# -- serve-mix -----------------------------------------------------------------

SERVE_THREADS = 2
BLOCK_HITS, BLOCK_MISSES = 17, 3  # 85% hits / 15% cold misses per block
REQUEST_KINDS = ("sweep", "marginmc", "cavemc", "memsim")
ZIPF_S = 1.1


def _serve_sizes(smoke: bool) -> dict:
    if smoke:
        return {"catalog": 4, "marginmc": 4096, "cavemc": 8192, "memsim": (5000, 2)}
    return {"catalog": 16, "marginmc": 4096, "cavemc": 65536, "memsim": (50000, 4)}


def _serve_payload(kind: str, sizes: dict, seed: int, sigma_t: float) -> dict:
    from repro import api
    from repro.exp.designpoint import design_grid

    if kind == "sweep":
        request = api.SweepRequest(points=design_grid(axes={"sigma_t": (sigma_t,)}))
    elif kind in ("marginmc", "cavemc"):
        request = api.McRequest(kind, "BGC", 8, samples=sizes[kind], seed=seed)
    else:
        accesses, instances = sizes["memsim"]
        request = api.WorkloadRequest(
            "BGC", 10, accesses=accesses, instances=instances, seed=seed
        )
    return request.to_dict()


def call_daemon(client, kind: str, request):
    if kind == "sweep":
        return client.evaluate(request)
    if kind == "memsim":
        return client.memsim(request)
    return client.simulate(request)


def compute_inprocess(kind: str, request):
    from repro import api

    if kind == "sweep":
        return api.evaluate(request)
    if kind == "memsim":
        return api.memsim(request)
    return api.simulate(request)


def result_fingerprint(kind: str, result) -> str:
    """Canonical JSON of a result; memsim's run-dependent cache excluded."""
    from repro import api

    if kind == "sweep":
        return canonical(api.sweep_result_to_dict(result))
    if kind == "memsim":
        payload = result.to_dict()
        payload.pop("cache", None)
        return canonical(payload)
    return canonical(api.mc_result_to_dict(result))


def run_serve_mix(ctx: Ctx) -> Outcome:
    """Two closed-loop connections against ``repro serve --jobs 1 --store``."""
    from repro import api
    from repro.serve.client import ServeError

    sizes = _serve_sizes(ctx.smoke)
    base_seed = ctx.rng("catalog").randrange(10**6, 10**9)
    # popularity rank r holds kind r % 4 whatever the seed, so the hit mix
    # by kind (whose payload sizes differ) is the same in every run
    catalog = []  # (kind, payload), in popularity rank order
    for rank in range(sizes["catalog"]):
        kind = REQUEST_KINDS[rank % len(REQUEST_KINDS)]
        sigma_t = 0.06 + 1e-4 * rank + 1e-7 * (base_seed % 97)
        catalog.append((kind, _serve_payload(kind, sizes, base_seed - 1 - rank, sigma_t)))
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(catalog))]

    def make_block(t: int, i: int) -> list[tuple]:
        """Block i of connection t: 17 Zipf hits + 3 unique cold misses."""
        rng = ctx.rng("block", t, i)
        block = [
            ("hit", idx, catalog[idx][0], catalog[idx][1])
            for idx in rng.choices(range(len(catalog)), weights, k=BLOCK_HITS)
        ]
        for j in range(BLOCK_MISSES):
            unique = (i * SERVE_THREADS + t) * BLOCK_MISSES + j
            kind = REQUEST_KINDS[unique % len(REQUEST_KINDS)]
            sigma_t = 0.04 + 1e-7 * (unique + 1) + 1e-4 * (base_seed % 100)
            block.append(
                ("miss", None, kind, _serve_payload(kind, sizes, base_seed + unique, sigma_t))
            )
        rng.shuffle(block)
        return block

    daemons: list[Daemon] = []

    def setup_once(i):
        daemon = Daemon(ctx.work, f"s{i}")
        daemons.append(daemon)
        daemon.start()
        with daemon.client() as client:
            for kind, payload in catalog:
                call_daemon(client, kind, api.parse_request(payload))
        return daemon, daemon.stop

    try:
        setup_s, daemon = timed_setups(ctx, setup_once)
        with daemon.client() as client:
            stats_before = client.stats()
        deadline = time.perf_counter() + ctx.seconds

        def connection(t: int) -> tuple[list[Op], list[float], int]:
            ops = []
            rates = []
            with daemon.client() as client:
                i = 0
                while ctx.more(i, len(ops), deadline):
                    tracer = ctx.tracer_for(i)
                    start = time.perf_counter()
                    block = make_block(t, i)
                    for j, (status, idx, kind, payload) in enumerate(block):
                        op = Op(f"{status}:{kind}", traced=tracer is not NULL_TRACER)
                        t0 = time.perf_counter()
                        try:
                            with tracer.span(f"op.{status}", trace=f"s{t}-{i}-{j}"):
                                with tracer.span("api.parse_request"):
                                    request = api.parse_request(payload)
                                t1 = time.perf_counter()
                                with tracer.span("serve.roundtrip"):
                                    result = call_daemon(client, kind, request)
                                op.data["roundtrip"] = time.perf_counter() - t1
                            op.data["result"] = result
                        except ServeError as exc:
                            op.ok = False
                            op.data["error"] = str(exc)
                        op.seconds = time.perf_counter() - t0
                        op.data.update(index=idx, payload=payload)
                        ops.append(op)
                    rates.append(len(block) / (time.perf_counter() - start))
                    i += 1
                return ops, rates, client.attempts

        with ThreadPoolExecutor(max_workers=SERVE_THREADS) as pool:
            futures = [pool.submit(connection, t) for t in range(SERVE_THREADS)]
            finished = [f.result() for f in futures]
        ops = [op for conn_ops, _, _ in finished for op in conn_ops]
        rates = [rate for _, conn_rates, _ in finished for rate in conn_rates]
        retries = sum(attempts for _, _, attempts in finished) - len(ops)
        with daemon.client() as client:
            stats_after = client.stats()
    finally:
        for d in daemons:
            d.stop()

    # checks, outside the timed window: every response against in-process
    references = [
        result_fingerprint(kind, compute_inprocess(kind, api.parse_request(payload)))
        for kind, payload in catalog
    ]
    verify_s = {kind: [] for kind in REQUEST_KINDS}
    points = 0
    failed = 0
    for op in ops:
        status, kind = op.kind.split(":")
        if status == "miss":
            request = api.parse_request(op.data["payload"])
            t0 = time.perf_counter()
            expected = compute_inprocess(kind, request)
            verify_s[kind].append(time.perf_counter() - t0)
            if kind == "sweep":
                points += len(request.points)
            expected = result_fingerprint(kind, expected)
        else:
            expected = references[op.data["index"]]
        if not op.ok or result_fingerprint(kind, op.data["result"]) != expected:
            failed += 1
        op.data.pop("result", None)

    layers = {}
    if ctx.traced:
        layers = serve_layer_metrics(
            ctx, daemon, catalog, ops, stats_before, stats_after, retries
        )
        layers["exp.evaluate_ms"] = mean_ms(verify_s["sweep"])
        layers["exp.points_per_s"] = points / sum(verify_s["sweep"])
        from repro.exp.cache import cache_stats

        stats = cache_stats().values()
        hits = sum(s["hits"] for s in stats)
        layers["exp.cache_hit_ratio"] = hits / max(1, hits + sum(s["misses"] for s in stats))
    return Outcome(
        setup_s=setup_s,
        ops=ops,
        round_rates=rates,
        attempted=len(ops),
        failed=failed,
        peak_rss_mb=peak_rss_mb(include_self=False),
        loops=SERVE_THREADS,
        layers=layers,
    )


def _delta(after: dict, before: dict, key: str) -> int:
    return after.get(key, 0) - before.get(key, 0)


def serve_layer_metrics(ctx, daemon, catalog, ops, before, after, retries) -> dict:
    """api/store/serve metrics: daemon counters plus an in-process replay
    of the same hit requests against the same store."""
    from repro import api
    from repro.serve import protocol
    from repro.store import ResultStore

    store = ResultStore(daemon.store)
    rng = ctx.rng("replay")
    samples = rng.choices(catalog, k=40 if ctx.smoke else 400)
    t = {name: [] for name in ("parse", "digest", "contains", "get", "decode", "enc", "dec", "miss")}
    replay = []
    for n, (kind, payload) in enumerate(samples):
        t0 = time.perf_counter()
        request = api.parse_request(payload)
        t1 = time.perf_counter()
        key = api.request_digest(request)
        t2 = time.perf_counter()
        store.contains(key)
        t3 = time.perf_counter()
        hit = store.get(key)
        t4 = time.perf_counter()
        if kind == "sweep":
            api.sweep_result_from_dict(hit)
            frames = [protocol.chunk_frame(n, hit["fields"], hit["records"])]
            frames.append(protocol.done_frame(n, cached=True))
        elif kind == "memsim":
            api.WorkloadResult.from_dict(hit["workload"])
            frames = [protocol.done_frame(n, cached=True, result=hit["workload"])]
        else:
            api.mc_result_from_dict(hit["mc"])
            frames = [protocol.done_frame(n, cached=True, result=hit["mc"])]
        t5 = time.perf_counter()
        wire_op = {"sweep": "evaluate", "memsim": "memsim"}.get(kind, "simulate")
        protocol.encode_frame(protocol.request_frame(wire_op, n, payload))
        t6 = time.perf_counter()
        lines = [protocol.encode_frame(f) for f in frames]
        t7 = time.perf_counter()
        for line in lines:
            protocol.decode_frame(line)
        t8 = time.perf_counter()
        store.get(digest(f"absent:{n}"))
        t9 = time.perf_counter()
        for name, dt in zip(
            ("parse", "digest", "contains", "get", "decode", "enc", "dec", "miss"),
            (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5, t8 - t7, t9 - t8),
        ):
            t[name].append(dt)
        replay.append((t2 - t1) + (t4 - t3) + (t5 - t4))
    # sizes of what the daemon wrote, before the put timings add entries
    objects = [p.stat().st_size for p in (daemon.store / "objects").glob("*/*.json")]
    puts = []
    for n in range(10 if ctx.smoke else 50):
        kind, payload = catalog[n % len(catalog)]
        result = store.get(api.request_digest(api.parse_request(payload)))
        t0 = time.perf_counter()
        store.put(digest(f"put:{ctx.seed}:{n}"), kind, payload, result)
        puts.append(time.perf_counter() - t0)

    def us(values):
        return 1e6 * statistics.median(values)

    hit_rt = [op.data["roundtrip"] for op in ops if op.ok and op.kind.startswith("hit")]
    miss_rt = [op.data["roundtrip"] for op in ops if op.ok and op.kind.startswith("miss")]
    server_b, server_a = before["server"], after["server"]
    store_b, store_a = before.get("store", {}), after.get("store", {})
    hits = _delta(store_a, store_b, "hits")
    lookups = hits + _delta(store_a, store_b, "misses")
    return {
        "api.parse_us": us(t["parse"]),
        "api.digest_us": us(t["digest"]),
        "api.result_decode_us": us(t["decode"]),
        "store.get_hit_us": us(t["get"]),
        "store.get_miss_us": us(t["miss"]),
        "store.contains_us": us(t["contains"]),
        "store.put_us": us(puts),
        "store.hit_ratio": hits / max(1, lookups),
        "store.entries_end": store_a.get("entries", 0),
        "store.object_bytes_mean": statistics.fmean(objects) if objects else 0.0,
        "serve.roundtrip_hit_ms": median_ms(hit_rt),
        "serve.roundtrip_miss_ms": median_ms(miss_rt),
        "serve.overhead_hit_ms": median_ms(hit_rt) - median_ms(replay),
        "serve.encode_us": us(t["enc"]),
        "serve.decode_us": us(t["dec"]),
        "serve.batch_groups": _delta(server_a, server_b, "batch_groups"),
        "serve.coalesced": _delta(server_a, server_b, "coalesced"),
        "serve.rejected_busy": _delta(server_a, server_b, "rejected_busy"),
        "serve.deadline_exceeded": _delta(server_a, server_b, "deadline_exceeded"),
        "client.retries": retries,
    }


# -- engine-batch --------------------------------------------------------------

ENGINE_KINDS = ("marginmc", "cavemc", "memsim", "memsim_elec")

#: engine-batch is the cheapest workload per run and its ops the most
#: sensitive to a shared host's speed: 10 rounds average over more of it.
ENGINE_MIN_OPS = 4 * TAIL_BEYOND

#: Import plus one tiny op of each engine kind: the engine-batch set-up.
WARM_ENGINE = """
import repro.api as a
a.simulate(a.McRequest("marginmc", "BGC", 8, samples=4096))
a.simulate(a.McRequest("cavemc", "BGC", 8, samples=4096))
a.memsim(a.WorkloadRequest("BGC", 10, accesses=1024, instances=2,
                           parity_bits=6, error_rate=1e-3))
a.memsim(a.WorkloadRequest("TC", 6, accesses=64, instances=1,
                           readout="float", resolution=0.55))
"""


def _engine_payload(kind: str, seed: int, smoke: bool) -> dict:
    from repro import api

    if kind == "marginmc":
        request = api.McRequest(kind, "BGC", 8, samples=4096 if smoke else 20480, seed=seed)
    elif kind == "cavemc":
        request = api.McRequest(kind, "BGC", 8, samples=16384 if smoke else 131072, seed=seed)
    elif kind == "memsim":
        request = api.WorkloadRequest(
            "BGC", 10,
            accesses=4096 if smoke else 65536,
            instances=2 if smoke else 8,
            parity_bits=6, error_rate=1e-3, seed=seed,
        )
    else:
        request = api.WorkloadRequest(
            "TC", 6,
            accesses=128 if smoke else 1024,
            instances=1 if smoke else 2,
            readout="float", resolution=0.55, seed=seed,
        )
    return request.to_dict()


def _work_units(kind: str, payload: dict) -> int:
    if kind in ("marginmc", "cavemc"):
        return payload["samples"]
    return payload["accesses"] * payload["instances"]


@contextlib.contextmanager
def layer_spans(tracer, timings: dict):
    """Time the functions ``api.simulate``/``api.memsim`` call, in spans.

    While the block runs, the callees are wrapped where the facades look
    them up: ``simulate_margin_yield``/``simulate_cave_yield`` in the
    ``api`` module, ``prepare_workload`` in ``repro.workload`` (imported
    at call time) and ``MemoryFleet.run``.  The facades themselves run
    unchanged.  ``timings`` collects each span's seconds by span name.
    """
    from repro import api, workload
    from repro.workload.memory_batch import MemoryFleet

    def run_name(kwargs):
        return "workload.run" if kwargs.get("readout") is None else "workload.run_elec"

    targets = (
        (api, "simulate_margin_yield", lambda kwargs: "sim.margin_yield"),
        (api, "simulate_cave_yield", lambda kwargs: "sim.cave_yield"),
        (workload, "prepare_workload", lambda kwargs: "workload.prepare"),
        (MemoryFleet, "run", run_name),
    )

    def timed(fn, name_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(kwargs)
            with tracer.span(name):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0

        return wrapper

    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, name_of in targets:
            setattr(owner, attr, timed(getattr(owner, attr), name_of))
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def run_engine_batch(ctx: Ctx) -> Outcome:
    """In-process facade calls, one thread, no store, a fresh seed per op."""
    from repro import api

    setup_s = [python_c(WARM_ENGINE)[0] for _ in range(ctx.setups)]
    exec(WARM_ENGINE, {})

    def make_round(r):
        rng = ctx.rng("round", r)
        return [
            (kind, _engine_payload(kind, rng.randrange(1, 2**31), ctx.smoke))
            for kind in rng.sample(ENGINE_KINDS, len(ENGINE_KINDS))
        ]

    def run_op(spec, tracer, trace_id):
        kind, payload = spec
        facade = api.memsim if kind.startswith("memsim") else api.simulate
        timings = {}
        hooks = (
            contextlib.nullcontext()
            if tracer is NULL_TRACER
            else layer_spans(tracer, timings)
        )
        with hooks, tracer.span(f"op.{kind}", trace=trace_id):
            with tracer.span("api.parse_request"):
                request = api.parse_request(payload)
            with tracer.span(f"api.{facade.__name__}"):
                result = facade(request)
        return Op(kind, data={"payload": payload, "result": result, "timings": timings})

    ops, rates = closed_loop(ctx, make_round, run_op, ENGINE_MIN_OPS)

    # check: a seeded sample, recomputed with other chunk sizes
    rng = ctx.rng("check")
    failed = 0
    per_kind = 1 if ctx.smoke else 2
    for kind in ENGINE_KINDS:
        of_kind = [op for op in ops if op.kind == kind]
        for op in rng.sample(of_kind, min(per_kind, len(of_kind))):
            request = api.parse_request(op.data["payload"])
            if kind.startswith("memsim"):
                again = api.memsim(request, chunk_size=512)
            else:
                again = api.simulate(request, chunk_size=8192)
            kind_key = "memsim" if kind.startswith("memsim") else kind
            failed += result_fingerprint(kind_key, again) != result_fingerprint(
                kind_key, op.data["result"]
            )

    def rate(kind):
        of_kind = [op for op in ops if op.kind in kind]
        return sum(_work_units(op.kind, op.data["payload"]) for op in of_kind) / sum(
            op.seconds for op in of_kind
        )

    extra = {
        "mc_trials_per_s": (rate(("marginmc", "cavemc")), "trials/s"),
        "wl_accesses_per_s": (rate(("memsim",)), "accesses/s"),
        "elec_accesses_per_s": (rate(("memsim_elec",)), "accesses/s"),
    }
    layers = engine_layer_metrics(ops) if ctx.traced else {}
    for op in ops:
        op.data.pop("result", None)
    return Outcome(
        setup_s=setup_s,
        ops=ops,
        round_rates=rates,
        attempted=len(ops),
        failed=failed,
        peak_rss_mb=peak_rss_mb(include_self=True),
        extra=extra,
        layers=layers,
    )


def engine_layer_metrics(ops: list[Op]) -> dict:
    """sim.* and workload.* metrics from the traced rounds' layer timings."""
    traced = [op for op in ops if op.traced]

    def of(kind):
        return [op for op in traced if op.kind == kind]

    def seconds(ops_, span):
        return [op.data["timings"][span] for op in ops_]

    def trials_per_s(kind, span):
        return sum(op.data["payload"]["samples"] for op in of(kind)) / sum(
            seconds(of(kind), span)
        )

    elec = of("memsim_elec")
    caches = [op.data["result"].cache for op in elec]
    hits = sum(c["hits"] for c in caches)
    return {
        "sim.margin_yield_ms": mean_ms(seconds(of("marginmc"), "sim.margin_yield")),
        "sim.cave_yield_ms": mean_ms(seconds(of("cavemc"), "sim.cave_yield")),
        "sim.margin_trials_per_s": trials_per_s("marginmc", "sim.margin_yield"),
        "sim.cave_trials_per_s": trials_per_s("cavemc", "sim.cave_yield"),
        "workload.prepare_ms": mean_ms(
            seconds(of("memsim") + elec, "workload.prepare")
        ),
        "workload.run_ms": mean_ms(seconds(of("memsim"), "workload.run")),
        "workload.run_elec_ms": mean_ms(seconds(elec, "workload.run_elec")),
        "readout.bank_cache_hit_ratio": hits / max(1, hits + sum(c["misses"] for c in caches)),
        "readout.bank_evictions": statistics.fmean(c["evictions"] for c in caches),
    }


# -- shard-fleet ---------------------------------------------------------------

SHARD_WORKERS = 2

#: Import plus one tiny margin-yield run: the shard-fleet set-up.
WARM_DIST = """
import repro.api as a, repro.dist
a.simulate(a.McRequest("marginmc", "BGC", 8, samples=4096))
"""


def run_shard_fleet(ctx: Ctx) -> Outcome:
    """One marginmc job per op: plan, write, launch(workers=2), merge."""
    from repro import api, dist
    from repro.dist.supervisor import SUPERVISOR_LOG

    shards = 2 if ctx.smoke else 8
    samples = shards * 4096  # one stream block per shard
    setup_s = [python_c(WARM_DIST)[0] for _ in range(ctx.setups)]
    exec(WARM_DIST, {})
    rng = ctx.rng("seeds")
    pool = [rng.randrange(1, 2**31) for _ in range(1 if ctx.smoke else 4)]

    def make_round(r):
        return ctx.rng("round", r).sample(pool, len(pool))

    def run_op(seed, tracer, trace_id):
        job = ctx.work / f"job-{trace_id}"
        op = Op("job", data={"seed": seed, "job": job})
        try:
            with tracer.span("op.job", trace=trace_id):
                t0 = time.perf_counter()
                with tracer.span("dist.plan"):
                    plan = dist.plan_mc_shards(
                        "marginmc", "BGC", 8, shards=shards, samples=samples, seed=seed
                    )
                    dist.write_job(job, plan)
                t1 = time.perf_counter()
                with tracer.span("dist.launch"):
                    dist.launch(job, workers=SHARD_WORKERS)
                t2 = time.perf_counter()
                with tracer.span("dist.merge"):
                    merged = dist.merge_results(job)
                t3 = time.perf_counter()
            op.data.update(plan=t1 - t0, launch=t2 - t1, merge=t3 - t2, result=merged)
        except dist.ShardJobError as exc:
            op.ok = False
            op.data["error"] = str(exc)
        return op

    ops, rates = closed_loop(ctx, make_round, run_op)
    events = []
    for op in ops:
        log = op.data["job"] / SUPERVISOR_LOG
        if log.exists():
            events += [json.loads(line)["event"] for line in log.read_text().splitlines()]

    # check: every merge equals the in-process simulate of the same job
    references = {
        seed: result_fingerprint(
            "marginmc",
            api.simulate(api.McRequest("marginmc", "BGC", 8, samples=samples, seed=seed)),
        )
        for seed in pool
    }
    failed = sum(
        1
        for op in ops
        if not op.ok
        or result_fingerprint("marginmc", op.data["result"]) != references[op.data["seed"]]
    )
    extra = {
        "mc_trials_per_s": (samples * len(ops) / sum(op.seconds for op in ops), "trials/s"),
    }
    layers = {}
    if ctx.traced:
        plan = dist.plan_mc_shards(
            "marginmc", "BGC", 8, shards=shards, samples=samples, seed=pool[0]
        )
        t0 = time.perf_counter()
        for shard in plan.shards:
            dist.run_shard(shard)
        compute = time.perf_counter() - t0
        good = [op for op in ops if op.ok]
        launch_ms = mean_ms([op.data["launch"] for op in good])
        layers = {
            "dist.plan_ms": mean_ms([op.data["plan"] for op in good]),
            "dist.launch_ms": launch_ms,
            "dist.merge_ms": mean_ms([op.data["merge"] for op in good]),
            "dist.shard_compute_ms": 1000.0 * compute,
            "dist.launch_overhead_ms": launch_ms - 1000.0 * compute / SHARD_WORKERS,
            "dist.retries": events.count("retry"),
            "dist.lease_expired": events.count("lease_expired"),
        }
    for op in ops:
        op.data.pop("result", None)
    return Outcome(
        setup_s=setup_s,
        ops=ops,
        round_rates=rates,
        attempted=len(ops),
        failed=failed,
        peak_rss_mb=peak_rss_mb(include_self=True),
        extra=extra,
        layers=layers,
    )


#: Workload name -> runner; a runner's traced run reports the per-layer
#: metrics of the layers it is the home workload of (see README.md).
WORKLOADS = {
    "paper-cli": run_paper_cli,
    "serve-mix": run_serve_mix,
    "engine-batch": run_engine_batch,
    "shard-fleet": run_shard_fleet,
}

#: The workloads ``BENCHMARK.json`` names.  ``paper-cli`` and
#: ``serve-mix`` run by name and in every traced run (so their layers
#: are measured), but are not among them: between runs of the same code
#: on a shared host their timings moved by more than any bound the
#: benchmark may set (see README.md).
BENCHMARKED = ("engine-batch", "shard-fleet")
