"""Blocking client for the ``repro serve`` daemon.

What the ``--via SOCKET`` CLI paths use: one unix-socket connection,
synchronous request/response over the NDJSON protocol.  Each request
gets one ``done`` frame whose ``result`` is the store-entry payload of
the request, decoded with ``api.KINDS[kind].decode`` into the same
result the direct path produces — byte-identical, which the CLI
asserts in its tests.

The client degrades the way the daemon does: socket timeouts, dropped
connections and malformed frames all surface as :class:`ServeError`
with a machine-readable ``kind`` instead of leaking raw socket
exceptions, and *idempotent* requests — every request is
content-addressed, so all of them except ``shutdown`` — are retried
with jittered exponential backoff (reconnecting first when the
connection died).  A ``busy`` frame's ``retry_after`` hint is
honoured as the backoff floor.
"""

from __future__ import annotations

import random
import socket
import time
from pathlib import Path

from repro import api
from repro.crossbar.montecarlo import MonteCarloMarginYield, MonteCarloYield
from repro.exp.results import SweepResult
from repro.serve.protocol import decode_frame, encode_frame, request_frame


class ServeError(RuntimeError):
    """A request failed: daemon error frame, timeout or dead connection.

    ``kind`` mirrors the protocol's error kinds (``busy``,
    ``deadline``, ``draining``) plus the client-side ``timeout`` and
    ``disconnect``; None means a plain request failure a retry would
    not fix.  ``retry_after`` carries the daemon's backoff hint.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str | None = None,
        retry_after: float | None = None,
    ):
        super().__init__(message)
        self.kind = kind
        self.retry_after = retry_after


#: Error kinds worth retrying: transient daemon/transport states.
RETRYABLE_KINDS = ("busy", "timeout", "disconnect")

#: Ops safe to resend: content-addressed requests are idempotent.
IDEMPOTENT_OPS = ("evaluate", "simulate", "memsim", "ping", "stats")

#: Default number of extra attempts per idempotent request.
DEFAULT_RETRIES = 2

#: Base of the jittered exponential retry backoff, in seconds.
DEFAULT_BACKOFF_S = 0.2


class ServeClient:
    """A connection to one daemon socket.

    Usable as a context manager; request methods mirror the
    :mod:`repro.api` facade signatures so CLI code can swap
    ``api.evaluate(req)`` for ``client.evaluate(req)`` verbatim.
    ``cached`` on the last call is exposed via :attr:`last_cached`.

    ``retries``/``backoff_s`` govern the idempotent-retry loop
    (``retries=0`` disables it); ``rng`` injects a seeded jitter
    source for deterministic tests.
    """

    def __init__(
        self,
        socket_path: str | Path,
        *,
        timeout: float | None = 300.0,
        retries: int = DEFAULT_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
        rng: random.Random | None = None,
    ):
        self.socket_path = str(socket_path)
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self._rng = rng if rng is not None else random.Random()
        self._sock: socket.socket | None = None
        self._file = None
        self._closed = False
        self._next_id = 0
        self.last_cached = False
        self._open()

    # -- connection lifecycle --------------------------------------------------

    def _open(self) -> None:
        """Connect; never leaks the fd when any setup step raises."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
            file = sock.makefile("rb")
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._file = file

    def _teardown(self) -> None:
        """Drop the current connection (safe mid-stream, idempotent)."""
        file, sock = self._file, self._sock
        self._file = None
        self._sock = None
        for closable in (file, sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:
                    pass

    def close(self) -> None:
        """Close the connection; safe to call twice or after an error."""
        self._closed = True
        self._teardown()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing --------------------------------------------------------------

    def _roundtrip(self, op: str, payload: dict | None = None, **knobs):
        """One request with the idempotent-retry loop around it."""
        attempt = 0
        while True:
            try:
                return self._attempt(op, payload, **knobs)
            except ServeError as exc:
                retryable = (
                    exc.kind in RETRYABLE_KINDS and op in IDEMPOTENT_OPS
                )
                if not retryable or attempt >= self.retries:
                    raise
                attempt += 1
                delay = (
                    self.backoff_s
                    * (2 ** (attempt - 1))
                    * (0.5 + self._rng.random())
                )
                if exc.retry_after is not None:
                    delay = max(delay, exc.retry_after)
                time.sleep(delay)

    def _attempt(self, op: str, payload: dict | None = None, **knobs) -> dict:
        """Send one request; return its ``done`` frame."""
        if self._closed:
            raise ServeError("client is closed")
        try:
            if self._sock is None:
                self._open()
            self._next_id += 1
            request_id = self._next_id
            frame = request_frame(op, request_id, payload, **knobs)
            self._sock.sendall(encode_frame(frame))
            line = self._file.readline()
            if not line or not line.endswith(b"\n"):
                # EOF or a truncated (dropped mid-frame) line
                self._teardown()
                raise ServeError(
                    "connection closed by daemon mid-request",
                    kind="disconnect",
                )
            try:
                response = decode_frame(line)
            except ValueError as exc:
                self._teardown()
                raise ServeError(
                    f"malformed frame from daemon: {exc}",
                    kind="disconnect",
                ) from exc
            if response.get("id") != request_id:
                raise ServeError(
                    f"response id {response.get('id')} does not match "
                    f"request id {request_id}"
                )
            if not response.get("ok", False):
                raise ServeError(
                    response.get("error", "unknown daemon error"),
                    kind=response.get("kind"),
                    retry_after=response.get("retry_after"),
                )
            self.last_cached = bool(response.get("cached", False))
            return response
        except ServeError:
            raise
        except TimeoutError as exc:
            # half-read streams are unrecoverable: drop the connection
            self._teardown()
            raise ServeError(
                f"request timed out after {self.timeout:g} s",
                kind="timeout",
            ) from exc
        except (ConnectionError, OSError) as exc:
            self._teardown()
            raise ServeError(
                f"connection to daemon failed: {exc}", kind="disconnect"
            ) from exc

    # -- operations ------------------------------------------------------------

    def ping(self) -> bool:
        self._roundtrip("ping")
        return True

    def stats(self) -> dict:
        return self._roundtrip("stats")["result"]

    def shutdown(self) -> None:
        self._roundtrip("shutdown")

    def _compute(self, op: str, request, **knobs):
        done = self._roundtrip(op, request.to_dict(), **knobs)
        return api.KINDS[request.kind].decode(done["result"])

    def evaluate(self, request: api.SweepRequest) -> SweepResult:
        """Evaluate a sweep on the daemon (with the daemon's own ``--jobs``)."""
        return self._compute("evaluate", request)

    def simulate(
        self,
        request: api.McRequest,
        *,
        chunk_size: int | None = None,
    ) -> MonteCarloYield | MonteCarloMarginYield:
        return self._compute("simulate", request, chunk_size=chunk_size)

    def memsim(
        self,
        request: api.WorkloadRequest,
        *,
        chunk_size: int | None = None,
    ) -> api.WorkloadResult:
        return self._compute("memsim", request, chunk_size=chunk_size)
