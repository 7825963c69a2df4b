"""The ``repro serve`` daemon: an asyncio unix-socket result service.

One long-lived process owns the warm in-process construction memos
(:mod:`repro.exp.cache`) and a persistent content-addressed result
store (:mod:`repro.store`), and serves canonical :mod:`repro.api`
requests over newline-delimited JSON frames
(:mod:`repro.serve.protocol`).  Three mechanisms turn concurrent
client traffic into efficient engine calls:

* **store hits** — a request whose digest is already committed is
  answered immediately from disk (one :func:`repro.api.lookup`), no
  compute;
* **in-flight coalescing** — identical requests (same digest) arriving
  while one is being computed share a single evaluation: followers
  await the leader's future instead of re-running the engine;
* **sweep batching** — compatible sweep requests (same spec, metrics
  and params, any point grids) queued within one batch window are
  concatenated into a *single* :func:`repro.api.evaluate_records`
  call, then split back per request.  ``evaluate_points`` is
  order-preserving per point, so the split rows are byte-identical to
  evaluating each request alone — the property the byte-identity
  tests pin down.

Compute — and the :func:`repro.api.commit` of its result to the store —
runs on a thread-pool executor so the event loop keeps accepting
connections (the numpy engines release the GIL for the heavy parts);
results stream back chunk-by-chunk so clients can start consuming
large grids early.

Degradation is graceful, not accidental:

* every compute request runs under a per-request **deadline**
  (``deadline_s``); past it the client gets a ``deadline`` error frame
  instead of an unbounded wait (a coalesced computation keeps running
  for followers that still have time);
* **admission is bounded**: once ``max_pending`` distinct computations
  are in flight, new leaders are refused with a ``busy`` error frame
  carrying ``retry_after`` — store hits and coalesced followers are
  always admitted (they add no compute);
* **SIGTERM drains**: the listening socket closes (new connections
  refused), in-flight requests finish and stream out, then the daemon
  exits 0.  Frames arriving on surviving connections during the drain
  get a ``draining`` error frame.

The :mod:`repro.faults` sites ``serve.latency`` (sleep before handling
a frame) and ``serve.drop`` (write half a response frame, then abort
the connection) hook chaos tests into this path.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from repro import api, faults, obs
from repro.durable import canonical_json
from repro.exp.results import SweepResult
from repro.serve.protocol import (
    DEFAULT_CHUNK_ROWS,
    PROTOCOL_VERSION,
    chunk_frame,
    decode_frame,
    done_frame,
    encode_frame,
    error_frame,
    iter_record_chunks,
)
from repro.sim.batch import DEFAULT_MAX_TRIALS_PER_CHUNK, validate_chunk

#: Seconds the batcher waits to let compatible sweeps pile up.
DEFAULT_BATCH_WINDOW_S = 0.01

#: Default per-request deadline (matches the client's default timeout).
DEFAULT_DEADLINE_S = 300.0

#: Default bound on concurrently computing (in-flight) requests.
DEFAULT_MAX_PENDING = 64

#: Back-off hint a ``busy`` error frame carries.
DEFAULT_RETRY_AFTER_S = 0.5


class _BusyError(Exception):
    """Admission queue full; the client should retry after a back-off."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


class _DeadlineError(Exception):
    """The request ran past the daemon's per-request deadline."""


class _PendingSweep:
    """One queued sweep awaiting the next batch drain."""

    __slots__ = ("request", "digest", "future")

    def __init__(self, request, digest, future):
        self.request = request
        self.digest = digest
        self.future = future


class ReproServer:
    """Dispatches protocol frames onto the :mod:`repro.api` facade.

    ``jobs`` is forwarded to sweep evaluation (the exp pipeline's
    process pool); ``batch_window_s`` bounds the extra latency a sweep
    pays for a chance to share an engine call; ``chunk_rows`` sets the
    streamed frame granularity.
    """

    def __init__(
        self,
        socket_path: str | Path,
        *,
        store=None,
        jobs: int = 1,
        batch_window_s: float = DEFAULT_BATCH_WINDOW_S,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        mc_chunk_size: int = DEFAULT_MAX_TRIALS_PER_CHUNK,
        deadline_s: float | None = DEFAULT_DEADLINE_S,
        max_pending: int = DEFAULT_MAX_PENDING,
        retry_after_s: float = DEFAULT_RETRY_AFTER_S,
    ):
        self.socket_path = Path(socket_path)
        self.store = store
        self.jobs = jobs
        self.batch_window_s = batch_window_s
        self.chunk_rows = chunk_rows
        self.mc_chunk_size = mc_chunk_size
        self.deadline_s = deadline_s
        self.max_pending = max_pending
        self.retry_after_s = retry_after_s
        self.counters = {
            "requests": 0,
            "store_hits": 0,
            "coalesced": 0,
            "batch_groups": 0,
            "batched_requests": 0,
            "computed": 0,
            "errors": 0,
            "rejected_busy": 0,
            "deadline_exceeded": 0,
        }
        self._inflight: dict[str, asyncio.Future] = {}
        self._pending: dict[str, list[_PendingSweep]] = {}
        self._connections: set[asyncio.Task] = set()
        self._requests: set[asyncio.Task] = set()  # in-flight frame handlers
        self._drain_scheduled = False
        self._draining = False
        self._server: asyncio.AbstractServer | None = None
        self._stop = None  # asyncio.Event, created on the serving loop
        self._executor = ThreadPoolExecutor(max_workers=max(jobs, 1))

    # -- lifecycle -------------------------------------------------------------

    async def run(self, ready: threading.Event | None = None) -> None:
        """Serve until a ``shutdown`` frame or SIGTERM drain completes."""
        self._stop = asyncio.Event()
        self._draining = False
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            self.socket_path.unlink()
        server = await asyncio.start_unix_server(
            self._handle_client, path=str(self.socket_path)
        )
        self._server = server
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, self.begin_drain)
            sigterm_installed = True
        except (NotImplementedError, RuntimeError, ValueError):
            sigterm_installed = False  # non-main thread or platform limits
        if ready is not None:
            ready.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            if sigterm_installed:
                loop.remove_signal_handler(signal.SIGTERM)
            self._server = None
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(*self._connections, return_exceptions=True)
            self._executor.shutdown(wait=False)
            try:
                self.socket_path.unlink()
            except OSError:
                pass

    def begin_drain(self) -> None:
        """Graceful shutdown: refuse new work, finish in-flight, stop.

        The SIGTERM handler (callable from tests too, on the serving
        loop).  Closes the listening socket immediately — new
        connections are refused at the OS level — marks the daemon
        draining so frames still arriving on open connections get a
        ``draining`` error frame, and stops the loop once every
        in-flight request has streamed its terminal frame.
        """
        if self._draining:
            return
        self._draining = True
        obs.counter("serve.drain")
        if self._server is not None:
            self._server.close()

        async def _finish() -> None:
            while self._requests:
                await asyncio.gather(*list(self._requests), return_exceptions=True)
            self._stop.set()

        asyncio.ensure_future(_finish())

    def serve_forever(self) -> None:
        """Blocking entry point (what ``repro serve`` calls)."""
        asyncio.run(self.run())

    @contextmanager
    def running(self):
        """Run the daemon on a background thread (test/tooling helper).

        Yields once the socket is accepting connections; on exit the
        loop is asked to stop and the thread joined.
        """
        ready = threading.Event()
        loop_holder: dict[str, asyncio.AbstractEventLoop] = {}
        failure: dict[str, BaseException] = {}

        def _target():
            loop = asyncio.new_event_loop()
            loop_holder["loop"] = loop
            try:
                loop.run_until_complete(self.run(ready))
            except BaseException as exc:  # surfaced to the waiting caller
                failure["exc"] = exc
            finally:
                loop.close()

        thread = threading.Thread(target=_target, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while not ready.wait(timeout=0.05):
            if failure or not thread.is_alive():
                exc = failure.get("exc")
                raise RuntimeError(
                    "repro serve daemon failed to start: "
                    + (f"{type(exc).__name__}: {exc}" if exc else "serve thread died")
                ) from exc
            if time.monotonic() > deadline:
                raise RuntimeError(
                    "repro serve daemon failed to start within 10 s"
                )
        try:
            yield self
        finally:
            loop = loop_holder.get("loop")
            if loop is not None and self._stop is not None:
                try:
                    loop.call_soon_threadsafe(self._stop.set)
                except RuntimeError:
                    pass  # loop already finished (e.g. drained to a stop)
            thread.join(timeout=10)

    # -- connection handling ---------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        conn = asyncio.current_task()
        if conn is not None:
            self._connections.add(conn)
            conn.add_done_callback(self._connections.discard)
        write_lock = asyncio.Lock()
        tasks = []
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._handle_frame(line, writer, write_lock)
                )
                tasks.append(task)
                self._requests.add(task)
                task.add_done_callback(self._requests.discard)
        except asyncio.CancelledError:
            pass  # server shutting down: close this connection quietly
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(self, writer, lock, frame: dict) -> None:
        async with lock:
            data = encode_frame(frame)
            if faults.check("serve.drop") is not None:
                # half a frame on the wire, then a hard connection abort
                writer.write(data[: len(data) // 2])
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
                writer.transport.abort()
                raise ConnectionResetError("injected connection drop (serve.drop)")
            writer.write(data)
            await writer.drain()

    async def _handle_frame(self, line: bytes, writer, lock) -> None:
        request_id = None
        try:
            frame = decode_frame(line)
            request_id = frame.get("id")
            if frame.get("v") != PROTOCOL_VERSION:
                raise ValueError(
                    f"protocol v{frame.get('v')} is not supported "
                    f"(this daemon speaks v{PROTOCOL_VERSION})"
                )
            op = frame.get("op")
            self.counters["requests"] += 1
            # spans are thread-LIFO and this handler interleaves on one
            # loop thread, so count ops instead of timing them here
            obs.counter(f"serve.op.{op}")
            hit = faults.check("serve.latency")
            if hit is not None:
                await asyncio.sleep(hit.value or 0.0)
            if self._draining and op not in ("ping", "stats", "shutdown"):
                await self._send(
                    writer,
                    lock,
                    error_frame(
                        request_id,
                        "daemon is draining and refuses new work",
                        kind="draining",
                    ),
                )
                return
            if op == "ping":
                await self._send(writer, lock, done_frame(request_id, cached=False))
            elif op == "stats":
                await self._send(
                    writer,
                    lock,
                    done_frame(request_id, cached=False, result=self.stats()),
                )
            elif op == "shutdown":
                await self._send(writer, lock, done_frame(request_id, cached=False))
                self._stop.set()
            elif op == "evaluate":
                await self._with_deadline(self._op_evaluate(frame, writer, lock))
            elif op in ("simulate", "memsim"):
                await self._with_deadline(
                    self._op_scalar(op, frame, writer, lock)
                )
            else:
                raise ValueError(f"unknown op {op!r}")
        except asyncio.CancelledError:
            raise
        except _BusyError as exc:
            self.counters["rejected_busy"] += 1
            obs.counter("serve.rejected_busy")
            try:
                await self._send(
                    writer,
                    lock,
                    error_frame(
                        request_id,
                        str(exc),
                        kind="busy",
                        retry_after=exc.retry_after,
                    ),
                )
            except (ConnectionError, OSError):
                pass
        except _DeadlineError as exc:
            self.counters["deadline_exceeded"] += 1
            obs.counter("serve.deadline_exceeded")
            try:
                await self._send(
                    writer, lock, error_frame(request_id, str(exc), kind="deadline")
                )
            except (ConnectionError, OSError):
                pass
        except Exception as exc:  # noqa: BLE001 — every fault becomes a frame
            self.counters["errors"] += 1
            try:
                await self._send(writer, lock, error_frame(request_id, str(exc)))
            except (ConnectionError, OSError):
                pass

    async def _with_deadline(self, coro) -> None:
        """Bound one compute request by the per-request deadline.

        Cancellation stops *this request's* streaming, not the shared
        computation behind it: leaders and followers await their
        in-flight future through ``asyncio.shield``, so a coalesced
        group member timing out never kills the group's engine call.
        """
        if not self.deadline_s or self.deadline_s <= 0:
            await coro
            return
        try:
            await asyncio.wait_for(coro, timeout=self.deadline_s)
        except TimeoutError:
            raise _DeadlineError(
                f"request exceeded the daemon deadline of {self.deadline_s:g} s"
            ) from None

    def _admit(self, digest: str) -> None:
        """Refuse a *new* computation when the in-flight set is full."""
        if len(self._inflight) >= self.max_pending and digest not in self._inflight:
            raise _BusyError(
                f"daemon is busy ({len(self._inflight)} computations in "
                f"flight, limit {self.max_pending}); retry after "
                f"{self.retry_after_s:g} s",
                self.retry_after_s,
            )

    # -- sweep path ------------------------------------------------------------

    async def _op_evaluate(self, frame: dict, writer, lock) -> None:
        request = api.SweepRequest.from_dict(frame["request"])
        request_id = frame["id"]

        hit = api.lookup(self.store, request)
        if hit is not None:
            self.counters["store_hits"] += 1
            await self._stream_sweep(writer, lock, request_id, hit, cached=True)
            return

        digest = api.request_digest(request)
        if digest in self._inflight:
            self.counters["coalesced"] += 1
            result = await asyncio.shield(self._inflight[digest])
        else:
            self._admit(digest)
            future = asyncio.get_running_loop().create_future()
            self._inflight[digest] = future
            key = self._compat_key(request)
            self._pending.setdefault(key, []).append(
                _PendingSweep(request, digest, future)
            )
            self._schedule_drain()
            try:
                result = await asyncio.shield(future)
            finally:
                self._inflight.pop(digest, None)
        await self._stream_sweep(writer, lock, request_id, result, cached=False)

    @staticmethod
    def _compat_key(request: api.SweepRequest) -> str:
        """Requests sharing this key may ride one ``evaluate_points`` call."""
        payload = request.to_dict()
        payload.pop("points")
        return canonical_json(payload)

    def _schedule_drain(self) -> None:
        if not self._drain_scheduled:
            self._drain_scheduled = True
            loop = asyncio.get_running_loop()
            loop.call_later(
                self.batch_window_s,
                lambda: asyncio.ensure_future(self._drain_pending()),
            )

    async def _drain_pending(self) -> None:
        self._drain_scheduled = False
        pending, self._pending = self._pending, {}
        for group in pending.values():
            await self._run_group(group)

    def _evaluate_group(self, group: list[_PendingSweep]) -> list[SweepResult]:
        """One engine call for the group, split back and committed per member."""
        first = group[0].request
        merged = api.SweepRequest(
            points=tuple(p for member in group for p in member.request.points),
            metrics=first.metrics,
            spec=first.spec,
            params=first.params,
        )
        records = api.evaluate_records(merged, jobs=self.jobs)
        results = []
        start = 0
        for member in group:
            stop = start + len(member.request.points)
            result = SweepResult.from_records(records[start:stop])
            start = stop
            api.commit(self.store, member.request, result)
            results.append(result)
        return results

    async def _run_group(self, group: list[_PendingSweep]) -> None:
        loop = asyncio.get_running_loop()
        self.counters["batch_groups"] += 1
        self.counters["batched_requests"] += len(group)
        try:
            results = await loop.run_in_executor(
                self._executor, self._evaluate_group, group
            )
        except Exception as exc:  # noqa: BLE001 — fan the fault out per member
            for member in group:
                if not member.future.done():
                    member.future.set_exception(exc)
                    # a deadline-cancelled leader may never await this;
                    # mark the exception consumed to keep logs quiet
                    member.future.exception()
            return
        self.counters["computed"] += len(group)
        for member, result in zip(group, results):
            if not member.future.done():
                member.future.set_result(result)

    async def _stream_sweep(
        self, writer, lock, request_id, result: SweepResult, *, cached: bool
    ) -> None:
        fields = list(result.fields)
        for chunk in iter_record_chunks(result.to_records(), self.chunk_rows):
            await self._send(writer, lock, chunk_frame(request_id, fields, chunk))
        await self._send(writer, lock, done_frame(request_id, cached=cached))

    # -- scalar paths (MC, workload) -------------------------------------------

    async def _op_scalar(self, op: str, frame: dict, writer, lock) -> None:
        request_type = api.McRequest if op == "simulate" else api.WorkloadRequest
        request = request_type.from_dict(frame["request"])
        chunk_size = frame.get("chunk_size", self.mc_chunk_size)
        if isinstance(chunk_size, bool) or not isinstance(chunk_size, int):
            raise ValueError(f"chunk_size must be an integer, got {chunk_size!r}")
        validate_chunk(chunk_size)
        request_id = frame["id"]

        hit = api.lookup(self.store, request)
        if hit is not None:
            self.counters["store_hits"] += 1
            await self._send(
                writer, lock, done_frame(request_id, cached=True, result=_wire(hit))
            )
            return

        digest = api.request_digest(request)
        future = self._inflight.get(digest)
        if future is not None:
            self.counters["coalesced"] += 1
        else:
            self._admit(digest)
            future = asyncio.get_running_loop().create_future()
            self._inflight[digest] = future
            # compute runs in its own task: a deadline cancelling *this*
            # request's await must not kill the shared evaluation that
            # coalesced followers (and the store commit) depend on
            asyncio.ensure_future(
                self._compute_scalar(request, chunk_size, digest, future)
            )
        result = await asyncio.shield(future)
        await self._send(
            writer, lock, done_frame(request_id, cached=False, result=result)
        )

    def _scalar_and_commit(self, request, chunk_size) -> dict:
        """Compute one MC or workload request and commit it (executor side)."""
        facade = api.simulate if isinstance(request, api.McRequest) else api.memsim
        result = facade(request, chunk_size=chunk_size)
        api.commit(self.store, request, result)
        return _wire(result)

    async def _compute_scalar(self, request, chunk_size, digest, future):
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                self._executor,
                self._scalar_and_commit,
                request,
                chunk_size,
            )
            self.counters["computed"] += 1
            if not future.done():
                future.set_result(result)
        except Exception as exc:  # noqa: BLE001 — fault propagates per frame
            if not future.done():
                future.set_exception(exc)
                # mark consumed: every awaiter may already be gone
                future.exception()
        finally:
            self._inflight.pop(digest, None)

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        """Server counters plus store stats (the ``stats`` op payload)."""
        payload = {
            "server": dict(self.counters),
            "inflight": len(self._inflight),
            "pending": sum(len(g) for g in self._pending.values()),
        }
        if self.store is not None:
            payload["store"] = self.store.stats()
        return payload


def _wire(result) -> dict:
    """The JSON form of a scalar (MC or workload) result on the wire."""
    if isinstance(result, api.WorkloadResult):
        return result.to_dict()
    return api.mc_result_to_dict(result)
