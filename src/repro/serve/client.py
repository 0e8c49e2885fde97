"""Client for the blocking-decision API, plus an open-loop load generator.

:class:`BlockingClient` speaks the four-endpoint JSON protocol of
:mod:`repro.serve.protocol` over a persistent keep-alive connection.  One
client instance is bound to one connection and is **not** shared across
threads; a multi-threaded consumer holds one per thread.

:class:`OpenLoopLoadGenerator` is the measurement half: it offers decide
requests at a fixed arrival rate over pooled connections and collects
every decision (with the snapshot revision each was answered under), so
``benchmarks/bench_serve.py`` can check throughput and tail latency
*and* prove that a hot reload mid-load never dropped or mislabeled a
request.  Offered above the server's capacity, the same schedule
measures saturation throughput as ``achieved_rps``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import time
from dataclasses import dataclass, field

from .protocol import DEFAULT_PORT

__all__ = [
    "ServeError",
    "BlockingClient",
    "OpenLoopLoadGenerator",
    "OpenLoopReport",
]


class ServeError(RuntimeError):
    """An HTTP-level error response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class BlockingClient:
    """Thin JSON client over one keep-alive connection (single-threaded).

    ``timeout`` is the socket connect *and* read timeout, so a hung
    server surfaces as ``socket.timeout`` (an ``OSError``) instead of
    blocking the caller forever.  Idempotent calls (everything except
    ``/v1/reload``) are retried up to ``retries`` times on transport
    errors, with jittered exponential backoff between attempts; the
    jitter stream is seeded (``jitter_seed``) so retry schedules are
    reproducible in tests and benchmarks.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 10.0,
        retries: int = 2,
        retry_base_seconds: float = 0.05,
        retry_cap_seconds: float = 1.0,
        jitter_seed: int = 0,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.retry_base_seconds = retry_base_seconds
        self.retry_cap_seconds = retry_cap_seconds
        self._rng = random.Random(jitter_seed)
        self._conn: http.client.HTTPConnection | None = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "BlockingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(
        self, method: str, path: str, body: bytes | None, headers: dict
    ) -> tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (http.client.HTTPException, ConnectionError, OSError):
            self.close()
            raise

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        # Never replay a reload: it is the one non-idempotent endpoint, and
        # a response lost *after* the server acted would otherwise swap the
        # snapshot twice (the second churn report diffing the new lists
        # against themselves).  Everything else is safe to retry: a reused
        # keep-alive socket closed under us gets one immediate, uncounted
        # replay on a fresh connection, and genuine transport failures
        # (reset, refused, read timeout) get up to ``retries`` further
        # attempts with jittered exponential backoff.
        idempotent = path != "/v1/reload"
        stale_replay = idempotent and self._conn is not None
        attempts_left = self.retries if idempotent else 0
        attempt = 0
        while True:
            try:
                status, raw = self._exchange(method, path, body, headers)
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                if stale_replay:
                    stale_replay = False
                    continue
                if attempts_left <= 0:
                    raise
                attempts_left -= 1
                attempt += 1
                delay = min(
                    self.retry_cap_seconds,
                    self.retry_base_seconds * 2 ** (attempt - 1),
                )
                time.sleep(delay * (1.0 + self._rng.random()))
        parsed = json.loads(raw) if raw else {}
        if status >= 400:
            message = parsed.get("error", "") if isinstance(parsed, dict) else ""
            raise ServeError(status, message)
        return parsed

    # -- endpoints ---------------------------------------------------------
    def decide(
        self, url: str, resource_type: str = "other", page_url: str = ""
    ) -> dict:
        payload = {"url": url, "resource_type": resource_type}
        if page_url:
            payload["page_url"] = page_url
        return self._request("POST", "/v1/decide", payload)

    def decide_batch(self, requests: list) -> dict:
        """Batch decide; items are URL strings or request objects."""
        return self._request("POST", "/v1/decide", {"requests": list(requests)})

    def reload(self, lists: list | None = None) -> dict:
        """Hot-reload; ``lists`` is ``[(name, text), ...]`` or None for the
        embedded defaults."""
        if lists is None:
            return self._request("POST", "/v1/reload", {})
        specs = [{"name": name, "text": text} for name, text in lists]
        return self._request("POST", "/v1/reload", {"lists": specs})

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")


@dataclass
class OpenLoopReport:
    """What an :class:`OpenLoopLoadGenerator` run observed.

    ``latencies`` are measured from each request's *scheduled* send time,
    not its actual send time — so a server that falls behind the offered
    arrival rate accrues queueing delay in its percentiles instead of
    quietly slowing the clock down (the blind spot of a closed-loop
    client, which only offers the next request after the previous answer
    lands)."""

    offered_rps: float = 0.0
    decisions: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def requests(self) -> int:
        return len(self.decisions)

    @property
    def achieved_rps(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return len(self.decisions) / self.seconds

    @property
    def revisions_seen(self) -> tuple:
        return tuple(sorted({d["revision"] for d in self.decisions}))

    def percentile_ms(self, q: float) -> float:
        """Nearest-rank percentile of scheduled-send-to-response latency,
        in milliseconds."""
        if not self.latencies:
            return 0.0
        data = sorted(self.latencies)
        rank = -(-q * len(data) // 100)
        return data[min(len(data) - 1, max(0, int(rank) - 1))] * 1e3

    def summary(self) -> dict:
        return {
            "offered_rps": self.offered_rps,
            "achieved_rps": self.achieved_rps,
            "requests": self.requests,
            "errors": len(self.errors),
            "p50_ms": self.percentile_ms(50),
            "p99_ms": self.percentile_ms(99),
            "revisions_seen": list(self.revisions_seen),
        }


class OpenLoopLoadGenerator:
    """Fixed-arrival-rate decide load over pooled keep-alive connections.

    Request *i* is assigned the absolute deadline ``start + i / rate``;
    a deadline scheduler sleeps until each deadline and sends regardless
    of whether earlier responses have come back (up to ``connections``
    in-flight pipelines — requests stripe across the pool round-robin,
    and a connection whose previous exchange overruns sends late, with
    the lateness *charged to the measurement* because latency runs from
    the scheduled deadline).  This is the open-loop arrival model:
    offered load is a property of the schedule, not of the server's
    speed, which is what makes the recorded p99 an honest tail-latency
    number for ``BENCH_serve.json``.

    Runs on its own event loop via :meth:`run`, so callers stay
    synchronous (benchmarks, the smoke script).
    """

    def __init__(
        self,
        host: str,
        port: int,
        urls: list,
        rate_rps: float,
        connections: int = 8,
        timeout: float = 30.0,
    ) -> None:
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if connections < 1:
            raise ValueError("connections must be at least 1")
        if not urls:
            raise ValueError("urls must be non-empty")
        self.host = host
        self.port = port
        self.urls = list(urls)
        self.rate_rps = float(rate_rps)
        self.connections = connections
        self.timeout = timeout

    def _request_bytes(self, url: str) -> bytes:
        body = json.dumps({"url": url}).encode("utf-8")
        return (
            b"POST /v1/decide HTTP/1.1\r\n"
            b"Host: " + self.host.encode("latin-1") + b"\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode("latin-1") + b"\r\n"
            b"\r\n" + body
        )

    @staticmethod
    async def _read_response(reader) -> tuple[int, bytes]:
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await reader.readexactly(length) if length else b""
        return status, body

    async def _connection_worker(
        self,
        index: int,
        start: float,
        report: OpenLoopReport,
    ) -> None:
        loop = asyncio.get_running_loop()
        mine = range(index, len(self.urls), self.connections)
        writer = None
        try:
            for position, i in enumerate(mine):
                url = self.urls[i]
                if writer is None:
                    try:
                        reader, writer = await asyncio.open_connection(
                            self.host, self.port
                        )
                    except OSError as error:
                        # The server is gone: what this connection still
                        # owed is recorded as failed, and the decisions
                        # already collected stay in the report.
                        report.errors.extend(
                            f"{self.urls[j]}: connect failed: {error!r}"
                            for j in mine[position:]
                        )
                        return
                deadline = start + i / self.rate_rps
                delay = deadline - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                try:
                    writer.write(self._request_bytes(url))
                    await writer.drain()
                    status, body = await asyncio.wait_for(
                        self._read_response(reader), timeout=self.timeout
                    )
                except (
                    ConnectionError,
                    OSError,
                    asyncio.TimeoutError,
                    asyncio.IncompleteReadError,
                ) as error:
                    report.errors.append(f"{url}: {error!r}")
                    # The pipeline on this connection is no longer
                    # trustworthy; reconnect before the next deadline.
                    writer.close()
                    writer = None
                    continue
                latency = loop.time() - deadline
                payload = json.loads(body) if body else {}
                if status >= 400:
                    report.errors.append(
                        f"{url}: HTTP {status}: {payload.get('error', '')}"
                    )
                else:
                    report.decisions.append(payload)
                    report.latencies.append(latency)
        finally:
            if writer is not None:
                writer.close()

    async def _run(self) -> OpenLoopReport:
        report = OpenLoopReport(offered_rps=self.rate_rps)
        loop = asyncio.get_running_loop()
        # Small lead-in so connection 0's first deadline is not already
        # in the past by the time the last connection is dialed.
        start = loop.time() + 0.05
        begun = time.perf_counter()
        await asyncio.gather(
            *(
                self._connection_worker(index, start, report)
                for index in range(self.connections)
            )
        )
        report.seconds = time.perf_counter() - begun
        return report

    def run(self) -> OpenLoopReport:
        return asyncio.run(self._run())
