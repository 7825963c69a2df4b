"""The unified request API of the stack: one typed facade for everything.

One request type flows through every transport: the CLI subcommands,
the ``repro serve`` daemon, the :mod:`repro.dist` shard files (a shard
is a canonical request payload plus a slice of its rows or stream
blocks) and the result store all carry the frozen, versioned request
dataclasses defined here, and compute through three facade functions:

* :func:`evaluate` — a :class:`SweepRequest` (design-point grid +
  metrics + params) through the exp pipeline into a columnar
  :class:`~repro.exp.results.SweepResult`;
* :func:`simulate` — an :class:`McRequest` (cave-yield or k-sigma
  margin-yield Monte-Carlo) into the matching ``MonteCarlo*`` result;
* :func:`memsim` — a :class:`WorkloadRequest` (trace + fleet + optional
  electrical readout) into a JSON-safe :class:`WorkloadResult`.

The CLI subcommands, the ``repro serve`` daemon dispatcher and the
:mod:`repro.dist` shard runner all call these functions, which is the
byte-identity story: every transport (in-process, socket, shard file)
funnels through the same entry points, so results agree bit for bit.

The result store is consulted in one place: :func:`lookup` and
:func:`commit`, driven by the per-kind codec table :data:`KINDS`.

Canonical form and content addressing
-------------------------------------
Every request round-trips through :meth:`to_dict` / :meth:`from_dict`
(for the Monte-Carlo and workload requests, one generic pair driven by
the field declarations of :mod:`repro.schema`, which also validates
every field at construction) and serialises to **canonical JSON**
(sorted keys, no whitespace, shortest-round-trip floats).
:func:`request_digest` is the sha256 of that canonical text — the
content address the result store (:mod:`repro.store`) and the daemon
key on.  Only *result-determining*
fields enter the canonical payload: execution knobs (``jobs``,
``chunk_size``) never change result bytes (asserted across the test
suite) and are therefore passed to the facade functions separately,
so a sweep computed with 8 workers is a cache hit for a client asking
with 1.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro import schema
from repro.codes.registry import ALL_FAMILIES, design_error, make_code
from repro.crossbar.montecarlo import (
    MonteCarloMarginYield,
    MonteCarloYield,
    simulate_cave_yield,
    simulate_margin_yield,
    yield_kernel,
)
from repro.crossbar.readout import SCHEMES
from repro.crossbar.spec import CrossbarSpec, spec_with
from repro.durable import canonical_json
from repro.exp.designpoint import DesignPoint
from repro.exp.pipeline import (
    READOUT_KINDS,
    SEED_HELP,
    TRACE_KINDS,
    SweepParams,
    resolve_metrics,
    run_sweep,
)
from repro.exp.results import Record, SweepResult
from repro.fabrication.lithography import LithographyRules
from repro.sim.batch import DEFAULT_MAX_TRIALS_PER_CHUNK, DEFAULT_STREAM_BLOCK

#: Version stamp embedded in every canonical request payload.  Bump on
#: any change that alters the canonical form of an existing request or
#: the result bytes it maps to — digests then change, so stale store
#: entries simply stop matching.  v2: the cave and write-error samplers
#: draw one uniform per wire and one per flip.  v3: float-scheme reads
#: factor each bank state once in a fixed operation order, the same
#: bits on every host.
API_SCHEMA_VERSION = 3

#: The Monte-Carlo request kinds.
MC_KINDS = ("cavemc", "marginmc")

#: The execution knob of :func:`simulate` and :func:`memsim`: not part
#: of any request, but declared and checked like a request field.
CHUNK_SIZE = schema.Knob(int, ge=1, label="chunk size", flags=("--chunk-size",))


def request_digest(request: "SweepRequest | McRequest | WorkloadRequest") -> str:
    """Full sha256 content address of a request's canonical JSON."""
    return hashlib.sha256(request.canonical().encode()).hexdigest()


# -- payload codecs ------------------------------------------------------------


def _spec_from_dict(payload: Mapping | None) -> CrossbarSpec | None:
    """Rebuild a :class:`CrossbarSpec` from its ``asdict`` form (rules nested)."""
    if payload is None:
        return None
    data = dict(payload)
    rules = data.pop("rules", None)
    if rules is not None:
        data["rules"] = LithographyRules(**rules)
    return CrossbarSpec(**data)


def _point_to_dict(point: DesignPoint) -> dict:
    """JSON form of one design point (overrides as sorted pairs)."""
    return {
        "family": point.family,
        "total_length": point.total_length,
        "n": point.n,
        "overrides": [list(pair) for pair in point.overrides],
    }


def _point_from_dict(payload: Mapping) -> DesignPoint:
    overrides = {name: value for name, value in payload.get("overrides", ())}
    return DesignPoint.make(
        payload["family"], payload["total_length"], payload.get("n", 2), **overrides
    )


def _family():
    return schema.knob(
        str, choices=ALL_FAMILIES, label="code family", flags=("family",)
    )


def _length():
    return schema.knob(
        int, ge=1, flags=("-M", "--length"), help="total code length (doping regions)"
    )


def _valence():
    return schema.knob(
        2, ge=2, flags=("-n", "--valence"), help="logic valence (default 2)"
    )


def _seed():
    return schema.knob(0, ge=0, flags=("--seed",), help=SEED_HELP)


def _normalize_spec(request) -> None:
    """Resolve ``spec=None`` to the calibrated defaults at construction.

    ``spec`` is result-determining, so the canonical payload must carry
    the spec the engines will actually use — otherwise a request built
    with ``spec=None`` and one built with an explicit default spec would
    compute identical results under different store digests.
    """
    if request.spec is None:
        object.__setattr__(request, "spec", CrossbarSpec())


class _Request:
    """Canonical payload round-trip of a request, driven by its declared fields."""

    def to_dict(self) -> dict:
        """The canonical JSON-safe payload (result-determining fields)."""
        return {
            "v": API_SCHEMA_VERSION,
            "kind": self.kind,
            "spec": dataclasses.asdict(self.spec),
            **schema.payload(self),
        }

    @classmethod
    def from_dict(cls, payload: Mapping):
        _check_payload(payload, cls)
        spec = _spec_from_dict(payload.get("spec"))
        return cls(**schema.values(cls, payload), spec=spec)

    def canonical(self) -> str:
        return canonical_json(self.to_dict())


# -- sweep ---------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRequest(_Request):
    """A design-space sweep: points x metrics on one platform spec.

    Parameters
    ----------
    points:
        The :class:`~repro.exp.designpoint.DesignPoint` grid, evaluated
        in order (row order of the result).
    metrics:
        Evaluator names from :data:`repro.exp.pipeline.EVALUATORS`.
    spec:
        Base platform spec (``None`` normalizes to the calibrated
        defaults at construction); each point's overrides perturb it.
    params:
        Evaluator tuning knobs (seeds, sample counts, workload and
        readout technology).
    """

    points: tuple[DesignPoint, ...]
    metrics: tuple[str, ...] = ("yield",)
    spec: CrossbarSpec | None = None
    params: SweepParams = field(default_factory=SweepParams)

    kind = "sweep"

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        _normalize_spec(self)
        if not self.points:
            raise ValueError("a sweep request needs at least one design point")
        resolve_metrics(self.metrics)
        for p in self.points:
            if why := design_error(p.family, p.n, p.total_length):
                message = f"design point {p.label} (n={p.n}): {why}"
                raise schema.SchemaError("total_length", message, ("--lengths",))
        # every perturbed spec must be valid before anything is computed
        for overrides in dict.fromkeys(p.overrides for p in self.points):
            try:
                spec_with(self.spec, **dict(overrides))
            except schema.SchemaError as exc:
                raise schema.SchemaError(exc.field, str(exc), ("--axis",)) from None

    def to_dict(self) -> dict:
        return {
            "v": API_SCHEMA_VERSION,
            "kind": self.kind,
            "spec": dataclasses.asdict(self.spec),
            "metrics": list(self.metrics),
            "params": dataclasses.asdict(self.params),
            "points": [_point_to_dict(p) for p in self.points],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepRequest":
        _check_payload(payload, cls)
        return cls(
            points=tuple(_point_from_dict(p) for p in payload["points"]),
            metrics=tuple(payload["metrics"]),
            spec=_spec_from_dict(payload.get("spec")),
            params=SweepParams(**payload["params"]),
        )


# -- Monte-Carlo ---------------------------------------------------------------


def _marginmc(request) -> bool:
    return request.kind == "marginmc"


@dataclass(frozen=True)
class McRequest(_Request):
    """One Monte-Carlo job: cave yield or k-sigma margin yield.

    ``stream_block`` is part of the reproducibility contract (it fixes
    the per-block child streams a run spawns), so it is a
    result-determining field; the chunk size is not (results are
    chunk-size-invariant) and stays an execution knob of
    :func:`simulate`.  ``k_sigma`` is active only for ``marginmc`` — a
    cave-yield estimate does not depend on it, so it is neither checked
    nor hashed there.
    """

    kind: str = schema.knob(str, choices=MC_KINDS, label="MC request kind")
    family: str = _family()
    total_length: int = _length()
    n: int = _valence()
    samples: int = schema.knob(
        256,
        ge=1,
        flags=("--samples",),
        help="Monte-Carlo trials (batched engine scales to millions; "
        "default %(default)s)",
    )
    seed: int = _seed()
    k_sigma: float = schema.knob(
        3.0,
        ge=0,
        active=_marginmc,
        flags=("--k-sigma",),
        help="margin criterion strictness k (default 3.0)",
    )
    stream_block: int = schema.knob(
        DEFAULT_STREAM_BLOCK,
        ge=1,
        flags=("--stream-block",),
        help="trials per child random stream (default %(default)s; "
        "part of the reproducibility contract)",
    )
    spec: CrossbarSpec | None = None

    def __post_init__(self) -> None:
        _normalize_spec(self)
        schema.check(self)
        if why := design_error(self.family, self.n, self.total_length):
            # cross-field rule: the family must realise the design
            raise schema.error(self, "total_length", why)


# -- workload ------------------------------------------------------------------


def _electrical(request) -> bool:
    return request.readout != "off"


@dataclass(frozen=True)
class WorkloadRequest(_Request):
    """One trace-driven memory-fleet job, optionally read electrically.

    ``parity_bits=0`` means no ECC; any other value enables SECDED with
    that many parity bits, at least 2 and small enough that one code
    block fits the array.  ``readout="off"`` keeps ideal lookups; the
    ``r_on``/``r_off``/``v_read``/``resolution`` technology knobs are
    active (checked and hashed) for electrical runs only.  A nonzero
    ``error_rate`` needs ECC or an electrical readout: no metric of an
    ideal raw-bit run depends on write errors.
    ``address_space=0`` sizes the logical space from the analytic
    effective-bits figure (the shared sizing rule of
    :func:`repro.workload.prepare_workload`).
    """

    family: str = _family()
    total_length: int = _length()
    n: int = _valence()
    trace: str = schema.knob(
        "zipfian",
        choices=TRACE_KINDS,
        label="trace kind",
        flags=("--trace",),
        help="synthetic trace kind (default %(default)s)",
    )
    accesses: int = schema.knob(
        4096,
        ge=1,
        flags=("--accesses",),
        help="trace length in accesses (default %(default)s)",
    )
    instances: int = schema.knob(
        4,
        ge=1,
        flags=("--instances",),
        help="sampled crossbar instances in the fleet (default %(default)s)",
    )
    write_fraction: float = schema.knob(
        0.5,
        ge=0,
        le=1,
        flags=("--write-fraction",),
        help="fraction of write accesses (default %(default)s)",
    )
    seed: int = _seed()
    parity_bits: int = schema.knob(
        0,
        ge=0,
        flags=("--parity-bits",),
        help="SECDED parity bits r; block 2**r (default %(default)s)",
    )
    error_rate: float = schema.knob(
        0.0,
        ge=0,
        le=1,
        flags=("--error-rate",),
        help="per-stored-bit flip probability at write time (needs --ecc or "
        "--readout)",
    )
    address_space: int = schema.knob(
        0,
        ge=0,
        flags=("--address-space",),
        help="logical address space; 0 (default) sizes it from the analytic "
        "effective-bits figure, so capacity shortfalls appear as access failures",
    )
    readout: str = schema.knob(
        "off",
        choices=READOUT_KINDS,
        label="readout scheme",
        flags=("--readout",),
        # a bare --readout means float; leaving it out means off
        cli={"nargs": "?", "const": "float", "default": None, "choices": SCHEMES},
        help="resolve reads electrically through the sneak-path solver under "
        "this biasing scheme (bare --readout means float); adds "
        "misread/margin/ECC-masking metrics and the bank-cache statistics",
    )
    r_on: float = schema.knob(
        1.0e5,
        gt=0,
        active=_electrical,
        flags=("--r-on",),
        help="crosspoint ON resistance for --readout [ohm] (default 1e5)",
    )
    r_off: float = schema.knob(
        1.0e7,
        gt=0,
        active=_electrical,
        flags=("--r-off",),
        help="crosspoint OFF resistance for --readout [ohm] (default 1e7)",
    )
    v_read: float = schema.knob(
        0.5,
        gt=0,
        active=_electrical,
        flags=("--v-read",),
        help="read voltage for --readout [V] (default 0.5)",
    )
    resolution: float = schema.knob(
        0.0,
        ge=0,
        lt=1,
        active=_electrical,
        label="sense resolution",
        flags=("--resolution",),
        help="sense-amplifier resolution for --readout as a relative margin "
        "floor in [0, 1); stored bits whose margin falls below it misread "
        "(default 0, ideal)",
    )
    spec: CrossbarSpec | None = None

    kind = "memsim"

    def __post_init__(self) -> None:
        _normalize_spec(self)
        schema.check(self)
        if why := design_error(self.family, self.n, self.total_length):
            # cross-field rule: the family must realise the design
            raise schema.error(self, "total_length", why)
        if _electrical(self) and not self.r_off > self.r_on:
            raise schema.error(
                self,
                "r_on",
                f"r_off must exceed r_on, got r_off={self.r_off}, r_on={self.r_on}",
            )
        if self.error_rate and not self.parity_bits and not _electrical(self):
            raise schema.error(
                self,
                "error_rate",
                "error_rate needs --ecc or --readout: no metric of an ideal "
                f"raw-bit run depends on write errors, got {self.error_rate}",
            )
        # 2**r <= raw_bits: one SECDED block must fit the array
        most = self.spec.raw_bits.bit_length() - 1
        if self.parity_bits and not 2 <= self.parity_bits <= most:
            raise schema.error(
                self,
                "parity_bits",
                f"parity_bits must be 0 (no ECC) or in [2, {most}] so a SECDED "
                f"block fits the {self.spec.raw_bits}-bit array, "
                f"got {self.parity_bits}",
            )


@dataclass(frozen=True)
class WorkloadResult:
    """JSON-safe outcome of one workload request.

    The fleet-level figures every consumer (CLI table/CSV/JSON, daemon,
    store) reports: per-metric Welford summaries, the exhausted-instance
    fraction and — for electrical runs — the readout echo and the
    sense-current memo counts, one lookup per read cell under its
    bank's state: ``misses`` (read cells whose bank state had to be
    factored, one factorization each), ``hits`` (the other read cells),
    ``evictions``, ``banks`` and ``hit_rate``.  ``cache`` depends on
    chunk boundaries and is excluded
    from the byte-identity contract (documented on
    :class:`repro.workload.memory_batch.FleetResult`); everything else
    is deterministic per request.
    """

    trace: str
    accesses: int
    reads: int
    writes: int
    instances: int
    address_space: int
    ecc: bool
    parity_bits: int
    metrics: dict[str, dict[str, float]]
    exhausted_fraction: float
    electrical: bool = False
    readout: dict | None = None
    cache: dict | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WorkloadResult":
        data = dict(payload)
        data["metrics"] = {
            name: dict(stats) for name, stats in payload["metrics"].items()
        }
        return cls(**data)

    def __getitem__(self, name: str) -> dict[str, float]:
        return self.metrics[name]


# -- response round-trips ------------------------------------------------------


def sweep_result_to_dict(result: SweepResult) -> dict:
    """JSON form of a sweep result that survives key re-sorting.

    Record dicts alone would lose column order under canonical
    (sorted-key) serialisation, so the field order is carried in an
    explicit list — the store and the wire protocol both rely on this.
    """
    return {"fields": list(result.fields), "records": result.to_records()}


def sweep_result_from_dict(payload: Mapping) -> SweepResult:
    """Rebuild a sweep result from :func:`sweep_result_to_dict`, exactly."""
    fields = payload["fields"]
    ordered = [{name: rec[name] for name in fields} for rec in payload["records"]]
    return SweepResult.from_records(ordered)


def mc_result_to_dict(result: MonteCarloYield | MonteCarloMarginYield) -> dict:
    """JSON form of an MC result, tagged with its dataclass name."""
    payload = dataclasses.asdict(result)
    payload["type"] = type(result).__name__
    return payload


def mc_result_from_dict(
    payload: Mapping,
) -> MonteCarloYield | MonteCarloMarginYield:
    """Rebuild an MC result from :func:`mc_result_to_dict` output, exactly.

    JSON floats round-trip through Python's shortest repr, so the
    rebuilt dataclass compares equal to the original field for field.
    """
    data = dict(payload)
    name = data.pop("type")
    types = {t.__name__: t for t in (MonteCarloYield, MonteCarloMarginYield)}
    if name not in types:
        raise ValueError(f"unknown MC result type {name!r}")
    return types[name](**data)


# -- kinds, parsing and the store protocol -------------------------------------


@dataclass(frozen=True)
class _Codec:
    """How one request kind parses and how its result sits in the store."""

    request: type
    encode: Callable[[object], dict]
    decode: Callable[[Mapping], object]


_MC_CODEC = _Codec(
    McRequest,
    lambda result: {"mc": mc_result_to_dict(result)},
    lambda payload: mc_result_from_dict(payload["mc"]),
)

#: Every request kind: its request type and its store-entry codec.
#: Entry payloads are the byte format existing stores hold.
KINDS: dict[str, _Codec] = {
    "sweep": _Codec(SweepRequest, sweep_result_to_dict, sweep_result_from_dict),
    **{kind: _MC_CODEC for kind in MC_KINDS},
    "memsim": _Codec(
        WorkloadRequest,
        lambda result: {"workload": result.to_dict()},
        lambda payload: WorkloadResult.from_dict(payload["workload"]),
    ),
}


def _kinds_of(request_type: type) -> tuple[str, ...]:
    return tuple(kind for kind, codec in KINDS.items() if codec.request is request_type)


def _check_payload(payload: Mapping, request_type: type) -> None:
    version = payload.get("v", API_SCHEMA_VERSION)
    if version != API_SCHEMA_VERSION:
        raise ValueError(
            f"request schema v{version} is not supported "
            f"(this library speaks v{API_SCHEMA_VERSION})"
        )
    if payload.get("kind") not in _kinds_of(request_type):
        raise ValueError(
            f"unexpected request kind {payload.get('kind')!r}; "
            f"expected one of {list(_kinds_of(request_type))}"
        )


def parse_request(
    payload: Mapping,
) -> "SweepRequest | McRequest | WorkloadRequest":
    """Rebuild any request from its canonical payload (kind-dispatched)."""
    codec = KINDS.get(payload.get("kind"))
    if codec is None:
        raise ValueError(f"unknown request kind {payload.get('kind')!r}")
    return codec.request.from_dict(payload)


def lookup(store, request):
    """The stored result of ``request``, or None on a miss.

    ``store`` is a :class:`repro.store.ResultStore` or None (always a
    miss).  The entry is read and verified once.
    """
    if store is None:
        return None
    payload = store.get(request_digest(request))
    return None if payload is None else KINDS[request.kind].decode(payload)


def commit(store, request, result) -> None:
    """Write ``result`` to ``store`` under the request's digest.

    The counterpart of :func:`lookup`; a None ``store`` is a no-op.
    """
    if store is not None:
        store.put(
            request_digest(request),
            request.kind,
            request.to_dict(),
            KINDS[request.kind].encode(result),
        )


def _through_store(store, request, compute: Callable[[], object]):
    result = lookup(store, request)
    if result is None:
        result = compute()
        commit(store, request, result)
    return result


# -- facade --------------------------------------------------------------------


def evaluate_records(request: SweepRequest, *, jobs: int = 1) -> list[Record]:
    """The raw result rows of a sweep request, in point order.

    The shared compute path under :func:`evaluate`: the in-process
    worker pool of :func:`repro.exp.pipeline.run_sweep` and the shard
    runner of :mod:`repro.dist` both resolve to this call, which is why
    every transport reproduces the same rows.
    """
    result = run_sweep(
        request.points,
        metrics=request.metrics,
        spec=request.spec,
        jobs=jobs,
        params=request.params,
    )
    return result.to_records()


def evaluate(
    request: SweepRequest,
    *,
    jobs: int = 1,
    store=None,
) -> SweepResult:
    """Evaluate a sweep request into a columnar result.

    With ``store`` (a :class:`repro.store.ResultStore`) the request is
    first looked up by content digest; on a miss the computed record
    rows are written back, so the next identical request — from any
    process or host sharing the store — is served without compute.
    """
    return _through_store(
        store,
        request,
        lambda: SweepResult.from_records(evaluate_records(request, jobs=jobs)),
    )


def simulate(
    request: McRequest,
    *,
    chunk_size: int = DEFAULT_MAX_TRIALS_PER_CHUNK,
    store=None,
) -> MonteCarloYield | MonteCarloMarginYield:
    """Run a Monte-Carlo request on the batched sim engine.

    ``chunk_size`` is an execution knob: no result depends on it, so
    store entries are shared across chunk sizes.  It is validated
    before the store is read, so a bad value fails hit or miss.
    """
    CHUNK_SIZE.check("chunk_size", chunk_size)
    return _through_store(
        store,
        request,
        lambda: _simulate_direct(request, chunk_size=chunk_size),
    )


def mc_kernel(request: McRequest):
    """The trial kernel an MC request runs on the sim engine.

    Built by :func:`repro.crossbar.montecarlo.yield_kernel`, the builder
    behind :func:`simulate`; the :mod:`repro.dist` shard runner feeds
    its stream blocks to this kernel and the merger summarises with it.
    """
    code = make_code(request.family, request.n, request.total_length)
    k_sigma = request.k_sigma if request.kind == "marginmc" else None
    return yield_kernel(request.spec, code, k_sigma)


def _simulate_direct(
    request: McRequest, *, chunk_size: int
) -> MonteCarloYield | MonteCarloMarginYield:
    spec = request.spec
    code = make_code(request.family, request.n, request.total_length)
    if request.kind == "marginmc":
        return simulate_margin_yield(
            spec,
            code,
            samples=request.samples,
            seed=request.seed,
            k_sigma=request.k_sigma,
            max_trials_per_chunk=chunk_size,
            stream_block=request.stream_block,
        )
    return simulate_cave_yield(
        spec,
        code,
        samples=request.samples,
        seed=request.seed,
        max_trials_per_chunk=chunk_size,
        stream_block=request.stream_block,
    )


def memsim(
    request: WorkloadRequest,
    *,
    chunk_size: int = DEFAULT_MAX_TRIALS_PER_CHUNK,
    store=None,
) -> WorkloadResult:
    """Run a workload request over a sampled fleet.

    Metric summaries are byte-identical across ``chunk_size`` (the
    workload engine's equivalence contract), so store entries are
    shared across chunk sizes, which are validated before the store is
    read; only the ``cache`` statistics section reflects the run that
    populated the store.
    """
    CHUNK_SIZE.check("chunk_size", chunk_size)
    return _through_store(
        store,
        request,
        lambda: _memsim_direct(request, chunk_size=chunk_size),
    )


def _memsim_direct(request: WorkloadRequest, *, chunk_size: int) -> WorkloadResult:
    from repro.workload import (
        ELECTRICAL_METRICS,
        FLEET_METRICS,
        exhausted_fraction,
        run_workload,
    )

    fleet, trace, result = run_workload(
        request.spec,
        make_code(request.family, request.n, request.total_length),
        trace=request.trace,
        accesses=request.accesses,
        instances=request.instances,
        seed=request.seed,
        write_fraction=request.write_fraction,
        parity_bits=request.parity_bits,
        address_space=request.address_space,
        error_rate=request.error_rate,
        readout=request.readout,
        r_on=request.r_on,
        r_off=request.r_off,
        v_read=request.v_read,
        resolution=request.resolution,
        chunk_size=chunk_size,
    )
    readout_echo = None
    if request.readout != "off":
        readout_echo = {
            "scheme": request.readout,
            "r_on": request.r_on,
            "r_off": request.r_off,
            "v_read": request.v_read,
            "resolution": request.resolution,
        }
    names = FLEET_METRICS + (ELECTRICAL_METRICS if result.electrical else ())
    return WorkloadResult(
        trace=trace.name,
        accesses=trace.accesses,
        reads=trace.reads,
        writes=trace.writes,
        instances=fleet.instances,
        address_space=trace.address_space,
        ecc=result.ecc,
        parity_bits=request.parity_bits,
        metrics={
            name: {
                "mean": result[name].mean,
                "std": result[name].std,
                "stderr": result[name].stderr,
            }
            for name in names
        },
        exhausted_fraction=exhausted_fraction(result.per_instance),
        electrical=result.electrical,
        readout=readout_echo,
        cache=dict(result.cache) if result.cache is not None else None,
    )
