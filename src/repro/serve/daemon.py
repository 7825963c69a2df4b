"""The ``repro serve`` daemon: an asyncio unix-socket result service.

One long-lived process owns the warm in-process construction memos
(:mod:`repro.exp.cache`) and a persistent content-addressed result
store (:mod:`repro.store`), and serves canonical :mod:`repro.api`
requests over newline-delimited JSON frames
(:mod:`repro.serve.protocol`).

``evaluate``, ``simulate`` and ``memsim`` frames share one handler.
It parses the request and answers a store hit (one
:func:`repro.api.lookup`) without compute.  On a miss it coalesces on
the request digest: identical requests arriving while one is being
computed await the same future instead of re-running the engine.  A
new computation is admitted, then runs the :mod:`repro.api` facade
and :func:`repro.api.commit` on a thread-pool executor, so the event
loop keeps accepting connections (the numpy engines release the GIL
for the heavy parts).  Every request is answered with one ``done``
frame whose ``result`` is ``api.KINDS[kind].encode(result)`` — the
payload the store holds for the same request — or one ``error`` frame.

Degradation is graceful, not accidental:

* every compute request runs under a per-request **deadline**
  (``deadline_s``); past it the client gets a ``deadline`` error frame
  instead of an unbounded wait.  The computation keeps running and
  stays in flight, so identical requests still coalesce onto it and
  its result is still committed;
* **admission is bounded**: once ``max_pending`` distinct computations
  are in flight, new ones are refused with a ``busy`` error frame
  carrying ``retry_after`` — store hits and coalesced followers are
  always admitted (they add no compute);
* a request line longer than :data:`MAX_FRAME_BYTES` is answered with
  an error frame naming the limit, then that connection closes;
* **SIGTERM drains**: the listening socket closes (new connections
  refused), in-flight requests finish and answer, then the daemon
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

from repro import api, faults, obs, schema
from repro.exp.pipeline import resolve_jobs
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    decode_frame,
    done_frame,
    encode_frame,
    error_frame,
)
from repro.sim.batch import DEFAULT_MAX_TRIALS_PER_CHUNK, validate_chunk

#: Default per-request deadline (matches the client's default timeout).
DEFAULT_DEADLINE_S = 300.0

#: Default bound on concurrently computing (in-flight) requests.
DEFAULT_MAX_PENDING = 64

#: The ``--deadline`` and ``--max-pending`` execution knobs, checked when
#: a daemon is constructed (``jobs`` is :data:`repro.exp.pipeline.JOBS`).
DEADLINE = schema.Knob(float, ge=0, label="deadline", flags=("--deadline",))
MAX_PENDING = schema.Knob(int, ge=1, label="max pending", flags=("--max-pending",))

#: Back-off hint a ``busy`` error frame carries, in seconds.
RETRY_AFTER_S = 0.5

#: Longest request line the daemon reads, in bytes.  A 1,200-point
#: sweep is ~87 KB, so this admits sweeps of ~200,000 points.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: The request type each compute op carries.
_REQUEST_TYPES = {
    "evaluate": api.SweepRequest,
    "simulate": api.McRequest,
    "memsim": api.WorkloadRequest,
}


class _BusyError(Exception):
    """Admission queue full; the client should retry after a back-off."""


class _DeadlineError(Exception):
    """The request ran past the daemon's per-request deadline."""


class ReproServer:
    """Dispatches protocol frames onto the :mod:`repro.api` facade.

    ``jobs`` (0 = auto) is forwarded to sweep evaluation (the exp
    pipeline's process pool) and sizes the compute executor;
    ``deadline_s`` (None or 0 disables it) and ``max_pending`` bound each
    request's wait and the number of distinct computations in flight.
    A knob out of range raises :class:`repro.schema.SchemaError` before
    anything is bound or started.
    """

    def __init__(
        self,
        socket_path: str | Path,
        *,
        store=None,
        jobs: int = 1,
        deadline_s: float | None = DEFAULT_DEADLINE_S,
        max_pending: int = DEFAULT_MAX_PENDING,
    ):
        if deadline_s is not None:
            DEADLINE.check("deadline_s", deadline_s)
        MAX_PENDING.check("max_pending", max_pending)
        self.socket_path = Path(socket_path)
        self.store = store
        self.jobs = resolve_jobs(jobs)
        self.deadline_s = deadline_s
        self.max_pending = max_pending
        self.counters = {
            "requests": 0,
            "store_hits": 0,
            "coalesced": 0,
            "computed": 0,
            "errors": 0,
            "rejected_busy": 0,
            "deadline_exceeded": 0,
        }
        self._inflight: dict[str, asyncio.Future] = {}
        self._connections: set[asyncio.Task] = set()
        # in-flight frame handlers and computations (drain awaits both)
        self._requests: set[asyncio.Task] = set()
        self._draining = False
        self._server: asyncio.AbstractServer | None = None
        self._stop = None  # asyncio.Event, created on the serving loop
        self._executor = ThreadPoolExecutor(max_workers=self.jobs)

    # -- lifecycle -------------------------------------------------------------

    async def run(self, ready: threading.Event | None = None) -> None:
        """Serve until a ``shutdown`` frame or SIGTERM drain completes."""
        self._stop = asyncio.Event()
        self._draining = False
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            self.socket_path.unlink()
        server = await asyncio.start_unix_server(
            self._handle_client, path=str(self.socket_path), limit=MAX_FRAME_BYTES
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
        in-flight request has sent its reply frame and every computation
        (even one whose requests all hit their deadline) has committed.
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
                try:
                    line = await reader.readline()
                except ValueError:  # the line overran MAX_FRAME_BYTES
                    self.counters["errors"] += 1
                    message = (
                        f"request frame exceeds the daemon's limit of "
                        f"{MAX_FRAME_BYTES} bytes per line"
                    )
                    try:
                        await self._send(writer, write_lock, error_frame(None, message))
                    except (ConnectionError, OSError):
                        pass
                    break
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
            elif op in _REQUEST_TYPES:
                await self._with_deadline(self._op_compute(op, frame, writer, lock))
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
                        retry_after=RETRY_AFTER_S,
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

        Cancellation stops *this request's* wait, not the shared
        computation behind it: every request awaits its in-flight
        future through ``asyncio.shield``, so a leader or follower
        timing out never kills the engine call.
        """
        if not self.deadline_s:
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
                f"{RETRY_AFTER_S:g} s"
            )

    # -- the compute path ------------------------------------------------------

    async def _op_compute(self, op: str, frame: dict, writer, lock) -> None:
        """Answer one ``evaluate``/``simulate``/``memsim`` frame."""
        request = _REQUEST_TYPES[op].from_dict(frame["request"])
        chunk_size = frame.get("chunk_size", DEFAULT_MAX_TRIALS_PER_CHUNK)
        if isinstance(chunk_size, bool) or not isinstance(chunk_size, int):
            raise ValueError(f"chunk_size must be an integer, got {chunk_size!r}")
        validate_chunk(chunk_size)
        request_id = frame["id"]

        hit = api.lookup(self.store, request)
        if hit is not None:
            self.counters["store_hits"] += 1
            result = api.KINDS[request.kind].encode(hit)
            await self._send(
                writer, lock, done_frame(request_id, cached=True, result=result)
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
            task = asyncio.ensure_future(
                self._compute(request, chunk_size, digest, future)
            )
            self._requests.add(task)
            task.add_done_callback(self._requests.discard)
        result = await asyncio.shield(future)
        await self._send(
            writer, lock, done_frame(request_id, cached=False, result=result)
        )

    def _compute_and_commit(self, request, chunk_size: int) -> dict:
        """Compute one request, commit it, return its store payload (executor side)."""
        if isinstance(request, api.SweepRequest):
            result = api.evaluate(request, jobs=self.jobs)
        elif isinstance(request, api.McRequest):
            result = api.simulate(request, chunk_size=chunk_size)
        else:
            result = api.memsim(request, chunk_size=chunk_size)
        api.commit(self.store, request, result)
        return api.KINDS[request.kind].encode(result)

    async def _compute(self, request, chunk_size, digest, future) -> None:
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                self._executor, self._compute_and_commit, request, chunk_size
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
        payload = {"server": dict(self.counters), "inflight": len(self._inflight)}
        if self.store is not None:
            payload["store"] = self.store.stats()
        return payload
