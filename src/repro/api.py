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
and serialises to **canonical JSON** (sorted keys, no whitespace,
shortest-round-trip floats).  :func:`request_digest` is the sha256 of
that canonical text — the content address the result store
(:mod:`repro.store`) and the daemon key on.  Only *result-determining*
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

from repro.crossbar.montecarlo import (
    MonteCarloMarginYield,
    MonteCarloYield,
    simulate_cave_yield,
    simulate_margin_yield,
    yield_kernel,
)
from repro.crossbar.readout import check_resolution, check_technology
from repro.crossbar.spec import CrossbarSpec
from repro.durable import canonical_json
from repro.exp.designpoint import DesignPoint
from repro.exp.pipeline import SweepParams, resolve_metrics, run_sweep
from repro.exp.results import Record, SweepResult
from repro.fabrication.lithography import LithographyRules
from repro.sim.batch import (
    DEFAULT_MAX_TRIALS_PER_CHUNK,
    DEFAULT_STREAM_BLOCK,
    validate_chunk,
    validate_k_sigma,
)

#: Version stamp embedded in every canonical request payload.  Bump on
#: any change that alters the canonical form of an existing request —
#: digests then change, so stale store entries simply stop matching.
API_SCHEMA_VERSION = 1

#: Trace kinds the workload engine accepts.
TRACE_KINDS = ("uniform", "sequential", "zipfian", "bursty")

#: Electrical readout schemes plus the ideal-lookup sentinel.
READOUT_KINDS = ("off", "float", "ground", "half_v")


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


def _normalize_spec(request) -> None:
    """Resolve ``spec=None`` to the calibrated defaults at construction.

    ``spec`` is result-determining, so the canonical payload must carry
    the spec the engines will actually use — otherwise a request built
    with ``spec=None`` and one built with an explicit default spec would
    compute identical results under different store digests.
    """
    if request.spec is None:
        object.__setattr__(request, "spec", CrossbarSpec())


# -- sweep ---------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRequest:
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

    def to_dict(self) -> dict:
        """The canonical JSON-safe payload (result-determining fields)."""
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

    def canonical(self) -> str:
        return canonical_json(self.to_dict())


# -- Monte-Carlo ---------------------------------------------------------------


@dataclass(frozen=True)
class McRequest:
    """One Monte-Carlo job: cave yield or k-sigma margin yield.

    ``stream_block`` is part of the reproducibility contract (it fixes
    the per-block child streams a run spawns), so it is a
    result-determining field; the chunk size is not (results are
    chunk-size-invariant) and stays an execution knob of
    :func:`simulate`.  ``k_sigma`` only enters the canonical payload
    for ``marginmc`` — a cave-yield estimate does not depend on it.
    """

    kind: str
    family: str
    total_length: int
    n: int = 2
    samples: int = 256
    seed: int = 0
    k_sigma: float = 3.0
    stream_block: int = DEFAULT_STREAM_BLOCK
    spec: CrossbarSpec | None = None

    def __post_init__(self) -> None:
        _normalize_spec(self)
        if self.kind not in _kinds_of(McRequest):
            raise ValueError(
                f"unknown MC request kind {self.kind!r}; "
                f"expected one of {_kinds_of(McRequest)}"
            )
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        validate_k_sigma(self.k_sigma)

    def to_dict(self) -> dict:
        payload = {
            "v": API_SCHEMA_VERSION,
            "kind": self.kind,
            "spec": dataclasses.asdict(self.spec),
            "family": self.family,
            "total_length": self.total_length,
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "stream_block": self.stream_block,
        }
        if self.kind == "marginmc":
            payload["k_sigma"] = self.k_sigma
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "McRequest":
        _check_payload(payload, cls)
        return cls(
            kind=payload["kind"],
            family=payload["family"],
            total_length=int(payload["total_length"]),
            n=int(payload.get("n", 2)),
            samples=int(payload["samples"]),
            seed=int(payload["seed"]),
            k_sigma=float(payload.get("k_sigma", 3.0)),
            stream_block=int(payload.get("stream_block", DEFAULT_STREAM_BLOCK)),
            spec=_spec_from_dict(payload.get("spec")),
        )

    def canonical(self) -> str:
        return canonical_json(self.to_dict())


# -- workload ------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadRequest:
    """One trace-driven memory-fleet job, optionally read electrically.

    ``parity_bits=0`` means no ECC; any positive value enables SECDED
    with that many parity bits.  ``readout="off"`` keeps ideal lookups;
    the ``r_on``/``r_off``/``v_read``/``resolution`` technology knobs
    are validated and enter the canonical payload for electrical runs
    only.
    ``address_space=0`` sizes the logical space from the analytic
    effective-bits figure (the shared sizing rule of
    :func:`repro.workload.prepare_workload`).
    """

    family: str
    total_length: int
    n: int = 2
    trace: str = "zipfian"
    accesses: int = 4096
    instances: int = 4
    write_fraction: float = 0.5
    seed: int = 0
    parity_bits: int = 0
    error_rate: float = 0.0
    address_space: int = 0
    readout: str = "off"
    r_on: float = 1.0e5
    r_off: float = 1.0e7
    v_read: float = 0.5
    resolution: float = 0.0
    spec: CrossbarSpec | None = None

    kind = "memsim"

    def __post_init__(self) -> None:
        _normalize_spec(self)
        if self.trace not in TRACE_KINDS:
            raise ValueError(
                f"unknown trace kind {self.trace!r}; expected one of {TRACE_KINDS}"
            )
        if self.readout not in READOUT_KINDS:
            raise ValueError(
                f"unknown readout scheme {self.readout!r}; "
                f"expected one of {READOUT_KINDS}"
            )
        if self.accesses < 1:
            raise ValueError(f"accesses must be >= 1, got {self.accesses}")
        if self.instances < 1:
            raise ValueError(f"instances must be >= 1, got {self.instances}")
        if self.readout != "off":
            check_technology(self.r_on, self.r_off, self.v_read)
            check_resolution(self.resolution)

    def to_dict(self) -> dict:
        payload = {
            "v": API_SCHEMA_VERSION,
            "kind": self.kind,
            "spec": dataclasses.asdict(self.spec),
            "family": self.family,
            "total_length": self.total_length,
            "n": self.n,
            "trace": self.trace,
            "accesses": self.accesses,
            "instances": self.instances,
            "write_fraction": self.write_fraction,
            "seed": self.seed,
            "parity_bits": self.parity_bits,
            "error_rate": self.error_rate,
            "address_space": self.address_space,
            "readout": self.readout,
        }
        if self.readout != "off":
            payload.update(
                r_on=self.r_on,
                r_off=self.r_off,
                v_read=self.v_read,
                resolution=self.resolution,
            )
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WorkloadRequest":
        _check_payload(payload, cls)
        return cls(
            family=payload["family"],
            total_length=int(payload["total_length"]),
            n=int(payload.get("n", 2)),
            trace=payload["trace"],
            accesses=int(payload["accesses"]),
            instances=int(payload["instances"]),
            write_fraction=float(payload["write_fraction"]),
            seed=int(payload["seed"]),
            parity_bits=int(payload.get("parity_bits", 0)),
            error_rate=float(payload.get("error_rate", 0.0)),
            address_space=int(payload.get("address_space", 0)),
            readout=payload.get("readout", "off"),
            r_on=float(payload.get("r_on", 1.0e5)),
            r_off=float(payload.get("r_off", 1.0e7)),
            v_read=float(payload.get("v_read", 0.5)),
            resolution=float(payload.get("resolution", 0.0)),
            spec=_spec_from_dict(payload.get("spec")),
        )

    def canonical(self) -> str:
        return canonical_json(self.to_dict())


@dataclass(frozen=True)
class WorkloadResult:
    """JSON-safe outcome of one workload request.

    The fleet-level figures every consumer (CLI table/CSV/JSON, daemon,
    store) reports: per-metric Welford summaries, the exhausted-instance
    fraction and — for electrical runs — the readout echo and the
    sense-current memo counts: ``hits`` (references served without a
    solve), ``misses`` (references solved), ``evictions``, ``banks`` and
    ``hit_rate``.  ``cache`` depends on chunk boundaries and is excluded
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
    "cavemc": _MC_CODEC,
    "marginmc": _MC_CODEC,
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
    validate_chunk(chunk_size)
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
    from repro.codes.registry import make_code

    code = make_code(request.family, request.n, request.total_length)
    k_sigma = request.k_sigma if request.kind == "marginmc" else None
    return yield_kernel(request.spec, code, k_sigma)


def _simulate_direct(
    request: McRequest, *, chunk_size: int
) -> MonteCarloYield | MonteCarloMarginYield:
    from repro.codes.registry import make_code

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
    validate_chunk(chunk_size)
    return _through_store(
        store,
        request,
        lambda: _memsim_direct(request, chunk_size=chunk_size),
    )


def _memsim_direct(request: WorkloadRequest, *, chunk_size: int) -> WorkloadResult:
    from repro.codes.registry import make_code
    from repro.crossbar.ecc import SecdedCode
    from repro.workload import (
        ELECTRICAL_METRICS,
        FLEET_METRICS,
        ElectricalReadout,
        exhausted_fraction,
        prepare_workload,
    )

    spec = request.spec
    code = make_code(request.family, request.n, request.total_length)
    fleet, trace = prepare_workload(
        spec,
        code,
        trace=request.trace,
        accesses=request.accesses,
        instances=request.instances,
        seed=request.seed,
        write_fraction=request.write_fraction,
        ecc=SecdedCode(request.parity_bits) if request.parity_bits else None,
        address_space=request.address_space,
    )
    readout = None
    readout_echo = None
    if request.readout != "off":
        from repro.crossbar.readout import ReadoutModel

        readout = ElectricalReadout(
            model=ReadoutModel(
                r_on=request.r_on,
                r_off=request.r_off,
                v_read=request.v_read,
                scheme=request.readout,
            ),
            resolution=request.resolution,
        )
        readout_echo = {
            "scheme": request.readout,
            "r_on": request.r_on,
            "r_off": request.r_off,
            "v_read": request.v_read,
            "resolution": request.resolution,
        }
    result = fleet.run(
        trace,
        chunk_size=chunk_size,
        seed=request.seed,
        write_error_rate=request.error_rate,
        readout=readout,
    )
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
