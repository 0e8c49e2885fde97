"""The HTTP/1.1 front end: one event loop, pipelining, decide coalescing.

Every served decision goes through :class:`AsyncBlockingServer`.  It
speaks a four-endpoint JSON protocol:

* ``POST /v1/decide``   — ``{"url", "resource_type"?, "page_url"?}`` for a
  single decision, or ``{"requests": [...]}`` for a batch (each item a URL
  string or a request object); a batch is decided against one snapshot.
* ``POST /v1/reload``   — ``{"lists": [{"name", "text"}, ...]}`` parses
  and swaps in a new snapshot and returns the rule-churn report; an empty
  body reloads the embedded default lists; ``{"artifact": "<name>"}``
  adopts a compiled ``.tsoracle`` from the boot artifact's directory
  (see :func:`~repro.serve.service.apply_reload_payload`).
* ``GET /healthz``      — liveness plus the serving snapshot revision.
* ``GET /metrics``      — JSON by default, Prometheus text for
  ``?format=prometheus`` or ``Accept: text/plain``.

How it serves them:

* **Hand-rolled HTTP/1.1 parser.**  Requests are framed straight off the
  socket buffer (request line, headers, ``Content-Length`` body).  Framing
  the server cannot trust — chunked bodies, conflicting or non-digit
  ``Content-Length`` values, malformed lines — gets a 400 and a close.
  Keep-alive is the default; ``Connection: close`` is honoured.
* **Pipelined decode.**  Every complete request already buffered is
  parsed in one pass and answered in order, so a client that pipelines N
  decides pays one round trip, not N.
* **Cross-connection batch coalescing.**  ``/v1/decide`` work from *all*
  connections lands in one :class:`_Coalescer`; each event-loop tick
  drains everything queued into a single
  :meth:`~repro.serve.service.BlockingService.decide_validated` call —
  one snapshot read, one cache lock round, one oracle batch — and splits
  the results back per request.  Validation stays per-request, so one
  malformed request 400s alone without discarding its neighbours' work.
  Latency accounting stays per-decision (k samples for a k-URL drain).
* **Idle and write deadlines.**  A connection that sends nothing for
  ``_IDLE_TIMEOUT_S`` while no response is in flight is closed by one
  server-wide sweep, so a client stalled mid-headers or mid-body cannot
  hold a connection forever.  The same sweep aborts a connection whose
  response has been in flight longer than ``_IDLE_TIMEOUT_S``: a client
  that pipelines requests and never reads the answers would otherwise
  keep it busy, blocked on a full send buffer, forever.

:class:`AsyncBlockingServer` runs standalone (``trackersift serve``
without ``--workers``, and :class:`AsyncServerThread` for embedding into
tests and benchmarks) or as one worker of a
:class:`~repro.serve.supervisor.ServeSupervisor` (``supervised=True``),
where ``/v1/reload`` is declined — reloads arrive over the supervisor's
control pipe so every worker swaps to the same revision — and
``/metrics`` can be overridden to report the merged cross-worker view.
Graceful drain (:meth:`AsyncBlockingServer.drain`) stops accepting, lets
every in-flight request finish and flush, then closes idle keep-alive
connections.
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path

from ..obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    prometheus_from_dict,
    wants_prometheus,
)
from .service import BlockingService, apply_reload_payload

__all__ = ["DEFAULT_PORT", "AsyncBlockingServer", "AsyncServerThread"]

DEFAULT_PORT = 8377

#: A connection idle this long with no response in flight is closed, and
#: one whose response has been in flight this long is aborted.
_IDLE_TIMEOUT_S = 30.0
_READ_SIZE = 256 * 1024
_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 64 * 1024 * 1024
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 431: "Request Header Fields Too Large",
            503: "Service Unavailable"}


class _ProtocolError(Exception):
    """A connection-fatal framing error (response sent, then close)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Request:
    __slots__ = ("method", "target", "body", "keep_alive", "accept")

    def __init__(
        self,
        method: str,
        target: str,
        body: bytes,
        keep_alive: bool,
        accept: str = "",
    ):
        self.method = method
        self.target = target
        self.body = body
        self.keep_alive = keep_alive
        self.accept = accept


def _parse_requests(buffer: bytes) -> tuple[list[_Request], bytes]:
    """Split every *complete* request off the front of ``buffer``.

    Returns ``(requests, remainder)``; the remainder is a partial request
    (or empty) to be completed by the next socket read.  Raises
    :class:`_ProtocolError` on malformed framing — connection-fatal,
    because the byte stream can no longer be trusted to re-synchronize.
    """
    requests: list[_Request] = []
    while True:
        head_end = buffer.find(b"\r\n\r\n")
        if head_end < 0:
            if len(buffer) > _MAX_HEADER_BYTES:
                raise _ProtocolError(431, "request headers too large")
            return requests, buffer
        head = buffer[:head_end].decode("latin-1")
        lines = head.split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _ProtocolError(400, f"malformed request line: {lines[0]!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if not sep:
                raise _ProtocolError(400, f"malformed header line: {line!r}")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                # Which copy frames the body is exactly what a smuggling
                # peer wants the server and a proxy to disagree on.
                raise _ProtocolError(400, "conflicting Content-Length headers")
            headers[name] = value
        if "transfer-encoding" in headers:
            # Silently reading a chunked body as empty could turn a
            # reload into a reset-to-defaults.
            raise _ProtocolError(
                400, "chunked request bodies are not supported; "
                "send Content-Length"
            )
        raw_length = headers.get("content-length", "0")
        # ASCII digits only: int() would also take "+2", "1_0" or " 2".
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _ProtocolError(400, f"bad Content-Length: {raw_length!r}")
        length = int(raw_length)
        if length > _MAX_BODY_BYTES:
            raise _ProtocolError(400, f"unreasonable Content-Length: {length}")
        total = head_end + 4 + length
        if len(buffer) < total:
            return requests, buffer
        body = buffer[head_end + 4 : total]
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.1":
            keep_alive = connection != "close"
        else:
            keep_alive = connection == "keep-alive"
        requests.append(
            _Request(
                method, target, body, keep_alive, headers.get("accept", "")
            )
        )
        buffer = buffer[total:]


def _json_bytes(status: int, payload: dict, keep_alive: bool) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


def _text_bytes(
    status: int, text: str, content_type: str, keep_alive: bool
) -> bytes:
    body = text.encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


class _Coalescer:
    """Merges queued decide work from every connection into one oracle
    batch per event-loop tick.

    ``submit`` enqueues pre-validated triples and schedules one drain via
    ``call_soon``: every request that lands while the current batch is
    being decided joins the *next* batch, so under concurrency the batch
    size adapts to the arrival rate with no timers and no added latency —
    an idle server still decides a lone request on the very next tick.
    """

    __slots__ = ("_service", "_loop", "_pending", "_scheduled")

    def __init__(self, service: BlockingService, loop) -> None:
        self._service = service
        self._loop = loop
        self._pending: list = []
        self._scheduled = False

    def submit(self, validated: list, is_batch: bool) -> "asyncio.Future":
        future = self._loop.create_future()
        self._pending.append((future, validated, is_batch))
        if not self._scheduled:
            self._scheduled = True
            self._loop.call_soon(self._drain)
        return future

    def _drain(self) -> None:
        pending, self._pending = self._pending, []
        self._scheduled = False
        merged: list = []
        for _, validated, _ in pending:
            merged.extend(validated)
        batches = sum(1 for _, _, is_batch in pending if is_batch)
        try:
            result = self._service.decide_validated(merged, batches=batches)
        except Exception as error:  # pragma: no cover - defensive
            for future, _, _ in pending:
                if not future.cancelled():
                    future.set_exception(error)
            return
        decisions = result["decisions"]
        revision = result["revision"]
        offset = 0
        for future, validated, _ in pending:
            share = decisions[offset : offset + len(validated)]
            offset += len(validated)
            if not future.cancelled():
                future.set_result((share, revision))


class _PendingDecide:
    """A decide outcome still in flight: the coalescer future plus the
    response shape (bare decision vs batch envelope)."""

    __slots__ = ("future", "single")

    def __init__(self, future, single: bool) -> None:
        self.future = future
        self.single = single


class _Connection:
    __slots__ = ("writer", "busy", "busy_since", "last_read")

    def __init__(self, writer, now: float) -> None:
        self.writer = writer
        self.busy = False
        self.busy_since = now
        self.last_read = now

    def mark_busy(self, now: float) -> None:
        self.busy = True
        self.busy_since = now


class AsyncBlockingServer:
    """The blocking-decision API on one asyncio event loop.

    Pass ``sock`` to serve an inherited, already-bound listening socket
    (the supervisor's no-SO_REUSEPORT fallback), or ``host``/``port``
    (+ ``reuse_port=True`` to join a REUSEPORT group).  ``supervised``
    marks this instance as one worker of a multi-process supervisor:
    ``/v1/reload`` is declined with instructions to reload through the
    supervisor, and ``metrics_provider``/``worker_tag`` let the
    supervisor substitute the merged cross-worker metrics view and stamp
    each decide response with the answering worker's pid.
    """

    def __init__(
        self,
        service: BlockingService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        sock=None,
        reuse_port: bool = False,
        artifact_dir: str | Path | None = None,
        supervised: bool = False,
        metrics_provider=None,
        health_provider=None,
        worker_tag: int | None = None,
    ) -> None:
        self.service = service if service is not None else BlockingService()
        self._host = host
        self._port = port
        self._sock = sock
        self._reuse_port = reuse_port
        self._artifact_dir = (
            Path(artifact_dir).resolve() if artifact_dir is not None else None
        )
        self._supervised = supervised
        self._metrics_provider = metrics_provider
        self._health_provider = health_provider
        self._worker_tag = worker_tag
        self._server: asyncio.AbstractServer | None = None
        self._coalescer: _Coalescer | None = None
        self._connections: set[_Connection] = set()
        self._draining = False
        self._sweeper: asyncio.TimerHandle | None = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "AsyncBlockingServer":
        loop = asyncio.get_running_loop()
        self._coalescer = _Coalescer(self.service, loop)
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._handle, sock=self._sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle,
                self._host,
                self._port,
                reuse_port=self._reuse_port or None,
                backlog=512,
            )
        self._sweeper = loop.call_later(_IDLE_TIMEOUT_S / 4, self._sweep_idle)
        return self

    def _sweep_idle(self) -> None:
        """Close every connection idle past the deadline with no response
        in flight, and abort every one whose response has been in flight
        past it; reschedules itself until :meth:`drain`."""
        loop = asyncio.get_running_loop()
        expired = loop.time() - _IDLE_TIMEOUT_S
        for connection in self._connections:
            if connection.busy:
                if connection.busy_since <= expired:
                    # abort(), not close(): close() waits for the send
                    # buffer to flush, which a non-reading peer never lets
                    # happen.
                    connection.writer.transport.abort()
            elif connection.last_read <= expired:
                connection.writer.close()
        self._sweeper = loop.call_later(_IDLE_TIMEOUT_S / 4, self._sweep_idle)

    @property
    def sockets(self):
        return self._server.sockets if self._server is not None else ()

    @property
    def host(self) -> str:
        return self.sockets[0].getsockname()[0]

    @property
    def port(self) -> int:
        return self.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self, timeout: float = 10.0, grace: float = 0.1) -> None:
        """Graceful shutdown: stop accepting, finish in-flight work.

        Closes the listening socket first (new connections go elsewhere —
        to sibling REUSEPORT workers, or to a connection refusal), waits
        one ``grace`` beat so requests already on the wire get read and
        mark their connections busy, lets every busy connection finish
        parsing, deciding and *flushing* its current burst, closes idle
        keep-alive connections, and force-closes stragglers after
        ``timeout``.  Idempotent.
        """
        self._draining = True
        if self._sweeper is not None:
            self._sweeper.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await asyncio.sleep(grace)
        for connection in list(self._connections):
            if not connection.busy:
                connection.writer.close()
        deadline = asyncio.get_running_loop().time() + timeout
        while self._connections:
            if asyncio.get_running_loop().time() >= deadline:
                for connection in list(self._connections):
                    connection.writer.close()
                break
            await asyncio.sleep(0.01)

    # -- connection loop ---------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        loop = asyncio.get_running_loop()
        connection = _Connection(writer, loop.time())
        self._connections.add(connection)
        buffer = b""
        try:
            while True:
                if self._draining and not buffer:
                    break
                data = await reader.read(_READ_SIZE)
                if not data:
                    break
                connection.last_read = loop.time()
                buffer += data
                try:
                    requests, buffer = _parse_requests(buffer)
                except _ProtocolError as error:
                    connection.mark_busy(loop.time())
                    writer.write(
                        _json_bytes(
                            error.status, {"error": str(error)}, False
                        )
                    )
                    await writer.drain()
                    break
                if not requests:
                    continue
                connection.mark_busy(loop.time())
                keep_alive = await self._respond(writer, requests)
                await writer.drain()
                connection.busy = False
                if not keep_alive or self._draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            self._connections.discard(connection)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, writer, requests: list[_Request]) -> bool:
        """Answer a burst of pipelined requests in order; returns whether
        the connection stays open."""
        # Submit every decide in the burst before awaiting any result, so
        # a pipelined burst coalesces into one oracle batch.
        outcomes: list = []
        for request in requests:
            outcomes.append(self._dispatch(request))
        keep_alive = True
        for request, outcome in zip(requests, outcomes):
            keep_alive = request.keep_alive and not self._draining
            if isinstance(outcome, _PendingDecide):
                share, revision = await outcome.future
                payload = self._decide_payload(
                    outcome.single, share, revision
                )
                writer.write(_json_bytes(200, payload, keep_alive))
            elif len(outcome) == 3:
                # (status, text, content_type) — the Prometheus exposition.
                status, text, content_type = outcome
                writer.write(
                    _text_bytes(status, text, content_type, keep_alive)
                )
            else:
                status, payload = outcome
                writer.write(_json_bytes(status, payload, keep_alive))
            if not request.keep_alive:
                keep_alive = False
                break
        return keep_alive

    def _dispatch(self, request: _Request):
        """Route one request: returns ``(status, payload)`` for immediate
        answers or a coalescer future for decide work."""
        method, target = request.method, request.target
        if method == "GET":
            path, _, query = target.partition("?")
            if path == "/healthz":
                provider = self._health_provider or self.service.healthz
                return 200, provider()
            if path == "/metrics":
                provider = self._metrics_provider or self.service.metrics
                payload = provider()
                if wants_prometheus(query, request.accept):
                    return (
                        200,
                        prometheus_from_dict(payload),
                        PROMETHEUS_CONTENT_TYPE,
                    )
                return 200, payload
            if path in ("/v1/decide", "/v1/reload"):
                return 405, {"error": f"{target} requires POST"}
            return 404, {"error": f"unknown path: {target}"}
        if method != "POST":
            return 405, {"error": f"method {method} not supported"}
        if target == "/v1/decide":
            try:
                payload = self._read_json(request.body)
                if "requests" in payload:
                    items = payload["requests"]
                    if not isinstance(items, list):
                        raise ValueError("'requests' must be a list")
                    validated = self.service.validate_requests(items)
                    is_batch = True
                else:
                    validated = self.service.validate_requests([payload])
                    is_batch = False
            except ValueError as error:
                return 400, {"error": str(error)}
            future = self._coalescer.submit(validated, is_batch)
            return _PendingDecide(future, single=not is_batch)
        if target == "/v1/reload":
            if self._supervised:
                return 400, {
                    "error": (
                        "this worker is supervised: reloads are "
                        "coordinated across all workers by the parent — "
                        "reload through the supervisor (SIGHUP or its "
                        "reload API), not a single worker"
                    )
                }
            try:
                payload = self._read_json(request.body)
                return 200, apply_reload_payload(
                    self.service, payload, self._artifact_dir
                )
            except ValueError as error:
                return 400, {"error": str(error)}
        if target in ("/healthz", "/metrics"):
            return 405, {"error": f"{target} requires GET"}
        return 404, {"error": f"unknown path: {target}"}

    @staticmethod
    def _read_json(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as error:
            raise ValueError(f"bad request body: {error}") from None
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _decide_payload(self, single: bool, share: list, revision: int) -> dict:
        tag = self._worker_tag
        if tag is not None:
            for decision in share:
                decision["worker"] = tag
        if single:
            return share[0]
        return {"decisions": share, "count": len(share), "revision": revision}


class AsyncServerThread:
    """Runs an :class:`AsyncBlockingServer` on a dedicated event-loop
    thread so synchronous callers (the single-process ``trackersift
    serve``, tests, benchmarks, :class:`~repro.serve.client.BlockingClient`)
    can drive it.  Keyword arguments go to :class:`AsyncBlockingServer`.

    The supervised worker processes run the loop on their main thread
    instead.  Use as a context manager, or :meth:`start`/:meth:`stop`;
    :meth:`stop` drains and is safe on a never-started instance.
    """

    def __init__(self, **kwargs) -> None:
        self._kwargs = kwargs
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: AsyncBlockingServer | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None

    @property
    def server(self) -> AsyncBlockingServer:
        assert self._server is not None, "server not started"
        return self._server

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AsyncServerThread":
        self._thread = threading.Thread(
            target=self._run, name="trackersift-async-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._failure is not None:
            raise self._failure
        if self._server is None:
            raise RuntimeError("async server failed to start")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        try:
            self._server = await AsyncBlockingServer(**self._kwargs).start()
        except BaseException as error:  # startup failures surface in start()
            self._failure = error
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._ready.set()
        await self._stop_event.wait()
        await self._server.drain(timeout=5.0)

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=10.0)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "AsyncServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
