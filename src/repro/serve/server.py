"""Threaded JSON API over :class:`~repro.serve.service.BlockingService`.

Pure stdlib (``http.server``), matching the repo's no-third-party-deps
rule.  The surface is four endpoints:

* ``POST /v1/decide``   — ``{"url", "resource_type"?, "page_url"?}`` for a
  single decision, or ``{"requests": [...]}`` for a batch (each item a URL
  string or a request object); batches are decided against one snapshot.
* ``POST /v1/reload``   — ``{"lists": [{"name", "text"}, ...]}`` parses
  and swaps in a new snapshot and returns the rule-churn report; an empty
  body reloads the embedded default lists; ``{"artifact": "<name>"}``
  adopts a compiled ``.tsoracle`` without parsing — opt-in only: the
  server must have been started with ``--artifact``, and the name is
  resolved inside that artifact's directory (clients never choose which
  server files get opened: a request must not probe or map arbitrary
  paths on the host).
* ``GET /healthz``      — liveness plus the serving snapshot revision.
* ``GET /metrics``      — cache hit/miss counters, decision latency
  p50/p99, snapshot revision, uptime.

Concurrency model: :class:`ThreadingHTTPServer` handles each connection
on its own daemon thread; a bounded semaphore caps how many requests are
*decided* concurrently (the ``--threads`` knob, held per request — never
across keep-alive idle gaps), so a traffic spike queues instead of
oversubscribing the host.  ``/healthz`` and ``/metrics`` bypass the cap:
a saturated server still answers its liveness probes.  The service
itself needs no per-endpoint locking — see :mod:`repro.serve.service`
for the snapshot swap argument.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

from ..filterlists.parser import parse_filter_list
from ..obs import console
from ..obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    prometheus_from_dict,
    wants_prometheus,
)
from .service import BlockingService, apply_reload_payload

__all__ = ["BlockingServer", "load_list_files", "build_server", "run_server"]

DEFAULT_PORT = 8377
DEFAULT_THREADS = 8


class _ServeHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints; every response is JSON."""

    protocol_version = "HTTP/1.1"  # keep-alive: clients reuse connections
    server_version = "trackersift-serve"
    # Socket timeout for every read: without it, a client that announces a
    # Content-Length and stalls mid-body would block its handler forever
    # *while holding a --threads slot* — a handful of such clients would
    # wedge the whole service.  Also reaps idle keep-alive connections.
    timeout = 30
    # Status line, headers and body must leave in one segment: the default
    # unbuffered wfile sends them separately, and the runt body packet then
    # sits out a Nagle/delayed-ACK round (~40 ms per decision on loopback).
    # ``handle_one_request`` flushes after every response, so buffering
    # composes correctly with keep-alive.
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # Per-request stderr lines would swamp a load test; metrics carry
        # the observable state instead.
        pass

    # -- plumbing ----------------------------------------------------------
    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        if self.headers.get("Transfer-Encoding"):
            # BaseHTTPRequestHandler never decodes chunked bodies; reading
            # such a request as "empty" would silently turn a reload
            # carrying new lists into a reset-to-defaults.
            raise ValueError(
                "chunked request bodies are not supported; send Content-Length"
            )
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length > 0 else b""
        if not raw:
            return {}
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    @property
    def _service(self) -> BlockingService:
        return self.server.service  # type: ignore[attr-defined]

    # -- endpoints ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        # Observability never queues behind decide traffic: /healthz and
        # /metrics skip the --threads slot, so a saturated server still
        # answers its liveness probes.
        self._handle_get()

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        # The --threads slot is held per *request*, never across the idle
        # gaps of a keep-alive connection: a pool of connected-but-quiet
        # clients must not starve new traffic.
        with self.server.slots:  # type: ignore[attr-defined]
            self._handle_post()

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _handle_get(self) -> None:
        parts = urlsplit(self.path)
        if parts.path == "/healthz":
            self._send_json(200, self._service.healthz())
        elif parts.path == "/metrics":
            # Same dict both ways: JSON by default, Prometheus text for
            # ``?format=prometheus`` or ``Accept: text/plain`` scrapers.
            payload = self._service.metrics()
            if wants_prometheus(parts.query, self.headers.get("Accept", "")):
                self._send_text(
                    200,
                    prometheus_from_dict(payload),
                    PROMETHEUS_CONTENT_TYPE,
                )
            else:
                self._send_json(200, payload)
        elif parts.path in ("/v1/decide", "/v1/reload"):
            self._send_json(405, {"error": f"{self.path} requires POST"})
        else:
            self._send_json(404, {"error": f"unknown path: {self.path}"})

    def _handle_post(self) -> None:
        try:
            payload = self._read_json()
        except (ValueError, json.JSONDecodeError) as error:
            self._send_json(400, {"error": f"bad request body: {error}"})
            return
        try:
            if self.path == "/v1/decide":
                self._send_json(200, self._decide(payload))
            elif self.path == "/v1/reload":
                self._send_json(200, self._reload(payload))
            elif self.path in ("/healthz", "/metrics"):
                self._send_json(405, {"error": f"{self.path} requires GET"})
            else:
                self._send_json(404, {"error": f"unknown path: {self.path}"})
        except ValueError as error:
            self._send_json(400, {"error": str(error)})

    def _decide(self, payload: dict) -> dict:
        if "requests" in payload:
            requests = payload["requests"]
            if not isinstance(requests, list):
                raise ValueError("'requests' must be a list")
            return self._service.decide_batch(requests)
        return self._service.decide(
            payload.get("url", ""),
            payload.get("resource_type", "other"),
            payload.get("page_url", ""),
        )

    def _reload(self, payload: dict) -> dict:
        # One shared definition of the reload-payload semantics (artifact
        # confinement included) for both front ends — see
        # :func:`repro.serve.service.apply_reload_payload`.
        return apply_reload_payload(
            self._service,
            payload,
            self.server.artifact_dir,  # type: ignore[attr-defined]
        )


class _ThreadingServer(ThreadingHTTPServer):
    """Per-connection threads; the handler bounds per-request concurrency
    on :attr:`slots` (held while handling, released between keep-alive
    requests)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address,
        service: BlockingService,
        threads: int,
        artifact_dir: Path | None = None,
    ) -> None:
        super().__init__(address, _ServeHandler)
        self.service = service
        self.slots = threading.BoundedSemaphore(threads)
        # Non-None iff the operator booted from a compiled artifact; the
        # only directory HTTP artifact reloads may read from.
        self.artifact_dir = artifact_dir


class BlockingServer:
    """The blocking-decision service behind a threaded HTTP endpoint.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`) —
    the pattern tests and benchmarks use.  Usable blocking
    (:meth:`serve_forever`, the CLI path) or embedded
    (:meth:`start`/:meth:`stop`, or as a context manager).
    """

    def __init__(
        self,
        service: BlockingService | None = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        threads: int = DEFAULT_THREADS,
        artifact_dir: str | Path | None = None,
    ) -> None:
        if threads < 1:
            raise ValueError("threads must be at least 1")
        self.service = service if service is not None else BlockingService()
        self.threads = threads
        self._httpd = _ThreadingServer(
            (host, port),
            self.service,
            threads,
            artifact_dir=(
                Path(artifact_dir).resolve() if artifact_dir is not None else None
            ),
        )
        self._thread: threading.Thread | None = None
        self._serving = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (CLI mode)."""
        self._serving = True
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._serving = False
            self._httpd.server_close()

    def start(self) -> "BlockingServer":
        """Serve on a background thread; returns once the socket accepts."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="trackersift-serve",
            daemon=True,
        )
        self._serving = True
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down and release the port; safe on a never-started server
        (``BaseServer.shutdown`` would otherwise wait forever for a serve
        loop that never ran)."""
        if self._serving:
            self._httpd.shutdown()
            self._serving = False
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "BlockingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def load_list_files(paths) -> tuple:
    """Parse filter-list text files into :class:`ParsedList` objects.

    The list name is the file stem, which is what reload churn reports
    key on.  Raises :class:`OSError` for unreadable paths.
    """
    parsed = []
    for raw in paths:
        path = Path(raw)
        parsed.append(parse_filter_list(path.read_text(encoding="utf-8"), name=path.stem))
    return tuple(parsed)


def build_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    threads: int = DEFAULT_THREADS,
    list_paths=(),
    artifact_path: str | None = None,
) -> BlockingServer:
    """Construct (but do not start) the server the CLI runs.

    ``artifact_path`` boots the service from a compiled ``.tsoracle``
    (one validated load, no parsing) instead of list text; it is mutually
    exclusive with ``list_paths``.
    """
    if artifact_path is not None and list_paths:
        raise ValueError("pass --lists or --artifact, not both")
    if artifact_path is not None:
        service = BlockingService(artifact=artifact_path)
        artifact_dir = Path(artifact_path).resolve().parent
    else:
        lists = load_list_files(list_paths) if list_paths else ()
        service = BlockingService(*lists)
        artifact_dir = None
    return BlockingServer(
        service,
        host=host,
        port=port,
        threads=threads,
        artifact_dir=artifact_dir,
    )


def run_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    threads: int = DEFAULT_THREADS,
    list_paths=(),
    artifact_path: str | None = None,
) -> int:
    """The ``trackersift serve`` entry point: serve until interrupted."""
    server = build_server(
        host=host,
        port=port,
        threads=threads,
        list_paths=list_paths,
        artifact_path=artifact_path,
    )
    snapshot = server.service.snapshot
    console.say(
        f"trackersift serve: listening on {server.url} "
        f"({threads} decide threads, {snapshot.rule_count} rules from "
        f"{', '.join(snapshot.list_names) or 'embedded defaults'})"
    )
    console.say(
        "endpoints: POST /v1/decide  POST /v1/reload  GET /healthz  GET /metrics"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        console.say("trackersift serve: shutting down")
    return 0
