"""Deterministic fault injection: the substrate of every chaos test.

The paper's subject is defect tolerance — memories that keep working
when individual devices fail — and the execution stack holds itself to
the same discipline.  A :class:`FaultPlan` describes *when* named
injection sites fire (crash a shard worker before its commit, freeze
it mid-run, drop a daemon connection mid-frame, corrupt a store
object), and every decision is a pure function of the plan seed, the
site name, the per-site call counter and the fault *epoch* — so a
chaos run replays exactly, byte for byte, on any host.

Activation
----------
Set ``$REPRO_FAULTS`` (or pass ``--faults`` to the CLI, which exports
the same variable so forked shard workers inherit it)::

    REPRO_FAULTS="seed=7,dist.crash_after_result=@1,serve.drop=0.25"

The spec is a comma-separated list of clauses:

``seed=N``
    Root seed of every probabilistic decision (default 0).
``site=@N[:VALUE]``
    Fire exactly on the Nth call at ``site`` — and only in fault
    epoch 0 (the first attempt), so a supervised retry runs clean.
``site=P[:VALUE]``
    Fire each call independently with probability ``P`` in [0, 1].
    Draws are deterministic per ``(seed, site, epoch, call)``;
    ``P=1.0`` fires on every call in every epoch (a poison fault that
    exhausts retries).

``VALUE`` is an optional float payload the site interprets (seconds
for stall/latency sites).

The fault *epoch* is read from ``$REPRO_FAULT_EPOCH`` at decision
time.  A shard worker starts every attempt with :func:`begin_attempt`,
which sets the epoch to the retry attempt number and zeroes the call
counters, so a one-shot ``@N`` fault kills the Nth call of every first
attempt — whichever worker process runs it — and leaves the retry
untouched.

Sites
-----
=========================  ====================================================
``dist.crash_before_result``  shard runner dies (``os._exit(137)``) before
                              writing its result file
``dist.crash_after_result``   dies after the atomic result write, before the
                              manifest completion line (the commit)
``dist.stall``                worker freezes: ``SIGSTOP`` to itself (no value)
                              or sleeps ``VALUE`` seconds — heartbeats stop,
                              the lease expires, the supervisor reaps it
``dist.corrupt_result``       the written result file is truncated before the
                              completion line is recorded
``serve.latency``             daemon sleeps ``VALUE`` seconds before handling
                              a frame (drives deadline tests)
``serve.drop``                daemon writes half a response frame, then hard-
                              closes the connection
``store.corrupt_object``      a just-committed store object file is truncated
                              (next read must quarantine + recompute)
=========================  ====================================================

Every fire increments the ``faults.injected`` (and
``faults.injected.<site>``) :mod:`repro.obs` counters plus the plan's
own :attr:`FaultPlan.fired` tally, so tests can assert a fault
actually happened rather than silently passing.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from repro import obs

#: Environment variable holding the active fault spec.
ENV_VAR = "REPRO_FAULTS"

#: Environment variable holding the fault epoch (retry attempt number).
EPOCH_ENV_VAR = "REPRO_FAULT_EPOCH"

#: Exit code of an injected crash (mirrors a SIGKILL-ed process).
CRASH_EXIT_CODE = 137

#: Every known injection site (parse rejects anything else, so a typo
#: in a chaos spec fails loudly instead of silently injecting nothing).
SITES = (
    "dist.crash_before_result",
    "dist.crash_after_result",
    "dist.stall",
    "dist.corrupt_result",
    "serve.latency",
    "serve.drop",
    "store.corrupt_object",
)


class FaultHit(NamedTuple):
    """One fired fault: the site plus its optional float payload."""

    site: str
    value: float | None


@dataclass(frozen=True)
class FaultRule:
    """When one site fires: an exact call ordinal or a probability."""

    site: str
    probability: float = 0.0
    at_call: int | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        if self.at_call is None and not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"fault probability for {self.site} must be in [0, 1], "
                f"got {self.probability}"
            )
        if self.at_call is not None and self.at_call < 1:
            raise ValueError(
                f"fault call ordinal for {self.site} must be >= 1, "
                f"got @{self.at_call}"
            )

    def decide(self, seed: int, epoch: int, call: int) -> bool:
        """Deterministic fire decision for one call at this site."""
        if self.at_call is not None:
            # one-shot faults target the first attempt; retries run clean
            return epoch == 0 and call == self.at_call
        if self.probability >= 1.0:
            return True
        if self.probability <= 0.0:
            return False
        draw = random.Random(f"{seed}:{self.site}:{epoch}:{call}").random()
        return draw < self.probability


def _parse_clause(clause: str) -> tuple[str, str, float | None]:
    site, sep, spec = clause.partition("=")
    if not sep or not spec:
        raise ValueError(
            f"malformed fault clause {clause!r}; expected site=TRIGGER[:VALUE]"
        )
    trigger, sep, raw_value = spec.partition(":")
    value = None
    if sep:
        try:
            value = float(raw_value)
        except ValueError:
            raise ValueError(
                f"malformed fault value in {clause!r}; expected a float"
            )
    return site.strip(), trigger.strip(), value


class FaultPlan:
    """A seeded set of :class:`FaultRule`, with per-site call counters.

    Call counters (and the :attr:`fired` tally) are per-attempt state:
    each daemon or CLI process counts its own calls, a shard worker
    starts every attempt from zero (:func:`begin_attempt`), and
    determinism across processes comes from the seed/epoch/call inputs
    of :meth:`FaultRule.decide`, not from shared state.
    """

    def __init__(self, rules: tuple[FaultRule, ...] = (), seed: int = 0):
        self.seed = int(seed)
        self.rules: dict[str, FaultRule] = {}
        for rule in rules:
            if rule.site in self.rules:
                raise ValueError(f"duplicate fault clause for site {rule.site!r}")
            self.rules[rule.site] = rule
        #: How many times each site has fired since the plan was made
        #: or last :meth:`reset`.
        self.fired: dict[str, int] = {}
        self._calls: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``$REPRO_FAULTS`` spec string (see module docstring)."""
        seed = 0
        rules = []
        for clause in text.split(","):
            clause = clause.strip()
            if not clause:
                continue
            site, trigger, value = _parse_clause(clause)
            if site == "seed":
                seed = int(trigger)
                continue
            if trigger.startswith("@"):
                rules.append(
                    FaultRule(site, at_call=int(trigger[1:]), value=value)
                )
            else:
                rules.append(
                    FaultRule(site, probability=float(trigger), value=value)
                )
        return cls(tuple(rules), seed=seed)

    def reset(self) -> None:
        """Zero every call counter and the :attr:`fired` tally."""
        with self._lock:
            self._calls.clear()
            self.fired.clear()

    @staticmethod
    def epoch() -> int:
        """The fault epoch (retry attempt number) of this process."""
        try:
            return int(os.environ.get(EPOCH_ENV_VAR, "0"))
        except ValueError:
            return 0

    def check(self, site: str) -> FaultHit | None:
        """Advance ``site``'s call counter; the hit if this call fires."""
        rule = self.rules.get(site)
        if rule is None:
            return None
        with self._lock:
            call = self._calls.get(site, 0) + 1
            self._calls[site] = call
            fires = rule.decide(self.seed, self.epoch(), call)
            if fires:
                self.fired[site] = self.fired.get(site, 0) + 1
        if not fires:
            return None
        obs.counter("faults.injected")
        obs.counter(f"faults.injected.{site}")
        return FaultHit(site, rule.value)


# -- process-global plan -------------------------------------------------------

_UNSET = object()
_forced: object = _UNSET  # an activate()-ed plan overriding the environment
_env_spec: str | None = None
_env_plan: FaultPlan | None = None
_plan_lock = threading.Lock()


def active_plan() -> FaultPlan | None:
    """The process's live plan: activate() override, else ``$REPRO_FAULTS``."""
    global _env_spec, _env_plan
    if _forced is not _UNSET:
        return _forced  # type: ignore[return-value]
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return None
    with _plan_lock:
        if spec != _env_spec:
            _env_plan = FaultPlan.parse(spec)
            _env_spec = spec
        return _env_plan


def activate(plan: "FaultPlan | str | None") -> FaultPlan | None:
    """Force a plan for this process (tests); parse strings for free."""
    global _forced
    _forced = FaultPlan.parse(plan) if isinstance(plan, str) else plan
    return _forced  # type: ignore[return-value]


def deactivate() -> None:
    """Drop any activate() override; ``$REPRO_FAULTS`` rules again."""
    global _forced
    _forced = _UNSET


class injected:
    """``with faults.injected("dist.stall=@1") as plan: ...`` test helper."""

    def __init__(self, spec: str):
        self.spec = spec
        self.plan: FaultPlan | None = None

    def __enter__(self) -> FaultPlan:
        self.plan = activate(self.spec)
        return self.plan

    def __exit__(self, *exc) -> None:
        deactivate()


def begin_attempt(epoch: int) -> None:
    """Start one shard attempt in this process: fault epoch ``epoch``
    (the retry attempt number), every call counter back at zero."""
    os.environ[EPOCH_ENV_VAR] = str(epoch)
    plan = active_plan()
    if plan is not None:
        plan.reset()


# -- injection-site helpers ----------------------------------------------------


def check(site: str) -> FaultHit | None:
    """The one call every injection site makes; None when no plan is live."""
    plan = active_plan()
    if plan is None:
        return None
    return plan.check(site)


def crash_point(site: str) -> None:
    """Die like a SIGKILL (no cleanup, no atexit) if ``site`` fires."""
    if check(site) is not None:
        os._exit(CRASH_EXIT_CODE)


def stall_point(site: str) -> None:
    """Freeze if ``site`` fires: sleep its value, or ``SIGSTOP`` ourselves.

    ``SIGSTOP`` stops *every* thread — including lease heartbeat
    renewal — which is exactly the hung-worker signature the shard
    supervisor detects through an expired lease.
    """
    hit = check(site)
    if hit is None:
        return
    if hit.value is not None:
        time.sleep(hit.value)
    else:
        os.kill(os.getpid(), signal.SIGSTOP)


def corrupt_file(site: str, path: str | Path) -> bool:
    """Truncate ``path`` to half its bytes if ``site`` fires."""
    if check(site) is None:
        return False
    path = Path(path)
    try:
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
    except OSError:
        return False
    return True
