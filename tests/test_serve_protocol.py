"""The asyncio serve front end: framing, pipelining, coalescing, drain.

Proof obligations for ``repro.serve.protocol``:

* the hand-rolled HTTP/1.1 parser frames requests correctly — keep-alive
  reuse, ``Connection: close``, pipelined bursts answered in order — and
  rejects what it cannot trust (chunked bodies, malformed request lines,
  oversized headers) without wedging the connection loop;
* the cross-connection coalescer merges everything submitted in one
  event-loop tick into a *single* ``decide_validated`` call, splits
  results back per submitter, and keeps validation per-request (one bad
  request 400s alone);
* a supervised worker declines HTTP ``/v1/reload`` (reloads must be
  coordinated), honours ``metrics_provider``, and stamps decisions with
  its ``worker_tag``;
* graceful drain finishes in-flight requests before the server stops;
* a connection idle past the read deadline — stalled mid-headers or
  mid-body — is closed, while one with traffic is not, and one whose
  peer pipelines requests but never reads the answers is aborted once
  its response has been in flight past the same deadline;
* the open-loop load generator keeps what it measured when the server
  goes away mid-run.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.serve import protocol
from repro.serve.client import BlockingClient, OpenLoopLoadGenerator, ServeError
from repro.serve.protocol import (
    AsyncBlockingServer,
    AsyncServerThread,
    _Coalescer,
    _parse_requests,
    _ProtocolError,
)
from repro.serve.service import BlockingService


# -- the parser, in isolation -------------------------------------------------


def _post(path: str, body: bytes, extra: str = "") -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: x\r\n{extra}"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


class TestParser:
    def test_incomplete_request_is_kept_as_remainder(self):
        data = _post("/v1/decide", b'{"url": "https://a.example/x"}')
        requests, rest = _parse_requests(data[:20])
        assert requests == [] and rest == data[:20]
        requests, rest = _parse_requests(data)
        assert len(requests) == 1 and rest == b""
        assert requests[0].method == "POST"
        assert requests[0].target == "/v1/decide"
        assert json.loads(requests[0].body)["url"] == "https://a.example/x"

    def test_pipelined_burst_splits_in_order(self):
        burst = b"".join(
            _post("/v1/decide", json.dumps({"url": f"https://a.example/{i}"}).encode())
            for i in range(5)
        ) + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        requests, rest = _parse_requests(burst)
        assert [r.target for r in requests] == ["/v1/decide"] * 5 + ["/healthz"]
        assert rest == b""

    def test_http10_defaults_to_close(self):
        requests, _ = _parse_requests(b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n")
        assert requests[0].keep_alive is False

    def test_connection_close_honoured(self):
        requests, _ = _parse_requests(
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert requests[0].keep_alive is False

    def test_chunked_rejected(self):
        with pytest.raises(_ProtocolError, match="chunked"):
            _parse_requests(
                b"POST /v1/decide HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )

    @pytest.mark.parametrize(
        "raw",
        [
            b"NOPE\r\n\r\n",
            b"GET /x\r\n\r\n",
            b"GET /x SPDY/3\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            # Conflicting duplicates: no "last one wins" framing.
            b"POST /x HTTP/1.1\r\nContent-Length: 100\r\n"
            b"Content-Length: 2\r\n\r\nab",
            # int() leniency: underscores, signs, non-ASCII digits, empty.
            b"POST /x HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
            b"POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\nab",
            b"POST /x HTTP/1.1\r\nContent-Length: \xb2\r\n\r\nab",
            b"POST /x HTTP/1.1\r\nContent-Length:\r\n\r\n",
        ],
    )
    def test_malformed_framing_rejected(self, raw):
        with pytest.raises(_ProtocolError):
            _parse_requests(raw)

    def test_identical_duplicate_content_length_accepted(self):
        requests, rest = _parse_requests(
            b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n"
            b"content-length: 2\r\n\r\nab"
        )
        assert requests[0].body == b"ab" and rest == b""

    def test_oversized_headers_rejected(self):
        with pytest.raises(_ProtocolError, match="headers too large"):
            _parse_requests(b"GET /x HTTP/1.1\r\nA: " + b"b" * 70_000)


# -- the coalescer, in isolation ----------------------------------------------


class _RecordingService(BlockingService):
    """Counts decide_validated drains so tests can see the merge."""

    def __init__(self) -> None:
        super().__init__()
        self.drains: list = []

    def decide_validated(self, validated, *, batches=1):
        self.drains.append((len(validated), batches))
        return super().decide_validated(validated, batches=batches)


class TestCoalescer:
    def test_same_tick_submissions_merge_into_one_oracle_call(self):
        service = _RecordingService()

        async def scenario():
            coalescer = _Coalescer(service, asyncio.get_running_loop())
            first = coalescer.submit(
                service.validate_requests(["https://a.example/1"]), False
            )
            second = coalescer.submit(
                service.validate_requests(
                    ["https://a.example/2", "https://a.example/3"]
                ),
                True,
            )
            (one, rev_a), (two, rev_b) = await asyncio.gather(first, second)
            return one, two, rev_a, rev_b

        one, two, rev_a, rev_b = asyncio.run(scenario())
        # One drain of 3 URLs, counted as 1 client-visible batch call.
        assert service.drains == [(3, 1)]
        assert len(one) == 1 and len(two) == 2
        assert rev_a == rev_b
        assert one[0]["url"].endswith("/1")
        assert [d["url"][-1] for d in two] == ["2", "3"]

    def test_batch_latency_records_one_sample_per_url(self):
        service = _RecordingService()

        async def scenario():
            coalescer = _Coalescer(service, asyncio.get_running_loop())
            await coalescer.submit(
                service.validate_requests(
                    [f"https://a.example/{i}" for i in range(7)]
                ),
                True,
            )

        asyncio.run(scenario())
        assert service._latency.count == 7

    def test_next_tick_work_forms_a_new_batch(self):
        service = _RecordingService()

        async def scenario():
            coalescer = _Coalescer(service, asyncio.get_running_loop())
            await coalescer.submit(
                service.validate_requests(["https://a.example/1"]), False
            )
            await coalescer.submit(
                service.validate_requests(["https://a.example/2"]), False
            )

        asyncio.run(scenario())
        assert service.drains == [(1, 0), (1, 0)]


# -- the server over real sockets ---------------------------------------------


@pytest.fixture()
def server():
    with AsyncServerThread() as thread:
        yield thread


class TestAsyncServer:
    def test_four_endpoints_roundtrip(self, server):
        with BlockingClient(server.host, server.port) as client:
            health = client.healthz()
            assert health["status"] == "ok" and health["revision"] == 1
            decision = client.decide("https://doubleclick.net/pixel/1.gif")
            assert decision["blocked"] is True
            batch = client.decide_batch(
                ["https://doubleclick.net/a.js", "https://example.org/ok"]
            )
            assert batch["count"] == 2 and batch["revision"] == 1
            metrics = client.metrics()
            assert metrics["decisions"]["served"] == 3

    def test_keep_alive_connection_is_reused(self, server):
        with BlockingClient(server.host, server.port) as client:
            for _ in range(5):
                client.healthz()
            # One connection handled all five exchanges.
            assert len(server.server._connections) == 1

    def test_pipelined_burst_over_raw_socket(self, server):
        body = json.dumps({"url": "https://doubleclick.net/t.js"}).encode()
        burst = _post("/v1/decide", body) * 4
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(burst)
            received = b""
            deadline = time.monotonic() + 10
            while received.count(b"HTTP/1.1 200") < 4:
                assert time.monotonic() < deadline, received
                received += sock.recv(65536)
        assert received.count(b'"blocked": true') == 4

    def test_standalone_reload_supported(self, server):
        with BlockingClient(server.host, server.port) as client:
            report = client.reload([("tiny", "||fresh.example^\n")])
            assert report["revision"] == 2
            assert client.decide("https://fresh.example/x")["blocked"] is True

    def test_error_statuses(self, server):
        with BlockingClient(server.host, server.port) as client:
            with pytest.raises(ServeError) as missing:
                client._request("POST", "/v1/nowhere", {})
            assert missing.value.status == 404
            with pytest.raises(ServeError) as wrong_method:
                client._request("GET", "/v1/decide")
            assert wrong_method.value.status == 405
            with pytest.raises(ServeError) as bad_body:
                client._request("POST", "/v1/decide", {"url": ""})
            assert bad_body.value.status == 400

    def test_bad_batch_item_does_not_poison_neighbours(self, server):
        # Two pipelined decide calls, the first malformed: the second
        # still gets answered (validation is per-request, pre-merge).
        good = json.dumps({"url": "https://doubleclick.net/x.js"}).encode()
        bad = json.dumps({"url": ""}).encode()
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(_post("/v1/decide", bad) + _post("/v1/decide", good))
            received = b""
            deadline = time.monotonic() + 10
            while received.count(b"\r\n\r\n") < 2:
                assert time.monotonic() < deadline, received
                received += sock.recv(65536)
        assert b"400" in received.split(b"\r\n")[0]
        assert received.count(b'"blocked": true') == 1

    def test_chunked_body_rejected_then_closed(self, server):
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/decide HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
            response = sock.recv(65536)
            assert response.startswith(b"HTTP/1.1 400")
            # Framing is untrustworthy after that: server closes.
            assert sock.recv(65536) == b""


class TestSupervisedMode:
    def test_reload_declined_and_hooks_applied(self):
        merged = {"merged": True, "worker_pids": [41, 42]}
        with AsyncServerThread(
            supervised=True,
            metrics_provider=lambda: merged,
            worker_tag=4242,
        ) as thread:
            with BlockingClient(thread.host, thread.port) as client:
                with pytest.raises(ServeError) as declined:
                    client.reload()
                assert declined.value.status == 400
                assert "supervis" in declined.value.message
                assert client.metrics() == merged
                decision = client.decide("https://doubleclick.net/a.js")
                assert decision["worker"] == 4242
                batch = client.decide_batch(["https://doubleclick.net/b.js"])
                assert batch["decisions"][0]["worker"] == 4242


class TestDrain:
    def test_drain_finishes_in_flight_work(self):
        async def scenario():
            server = await AsyncBlockingServer().start()
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            body = json.dumps(
                {"requests": [f"https://doubleclick.net/{i}" for i in range(50)]}
            ).encode()
            writer.write(_post("/v1/decide", body))
            await writer.drain()
            # Drain while the batch is in flight: the response must still
            # arrive, complete, before the server lets go.
            await server.drain(timeout=10.0)
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"200" in head.split(b"\r\n")[0]
            length = int(
                [
                    line.partition(b":")[2]
                    for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length")
                ][0]
            )
            payload = json.loads(await reader.readexactly(length))
            assert payload["count"] == 50
            writer.close()
            return server

        server = asyncio.run(scenario())
        assert server.draining

    def test_drain_closes_idle_connections(self):
        async def scenario():
            server = await AsyncBlockingServer().start()
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            await asyncio.sleep(0.05)  # let the server register it as idle
            await server.drain(timeout=5.0)
            assert await reader.read(1) == b""  # peer closed
            writer.close()

        asyncio.run(scenario())


# -- idle read deadline -------------------------------------------------------


def _closed_within(sock: socket.socket, seconds: float) -> bool:
    """True once the server closes ``sock`` (EOF or reset) in time."""
    sock.settimeout(seconds)
    try:
        return sock.recv(65536) == b""
    except ConnectionResetError:
        return True
    except socket.timeout:
        return False


class TestIdleDeadline:
    @pytest.fixture()
    def quick_server(self, monkeypatch):
        monkeypatch.setattr(protocol, "_IDLE_TIMEOUT_S", 0.2)
        with AsyncServerThread() as thread:
            yield thread

    def test_partial_request_line_is_closed(self, quick_server):
        with socket.create_connection(
            (quick_server.host, quick_server.port), timeout=5
        ) as sock:
            sock.sendall(b"POST /v1/dec")
            assert _closed_within(sock, 5.0)

    def test_stalled_content_length_body_is_closed(self, quick_server):
        with socket.create_connection(
            (quick_server.host, quick_server.port), timeout=5
        ) as sock:
            sock.sendall(
                b"POST /v1/decide HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100\r\n\r\n{\"url\":"
            )
            assert _closed_within(sock, 5.0)
        assert _wait_for(lambda: not quick_server.server._connections)

    def test_active_connection_outlives_the_deadline(self, quick_server):
        with BlockingClient(quick_server.host, quick_server.port) as client:
            client.healthz()
            connection = client._conn
            for _ in range(8):  # 0.4 s of traffic, twice the deadline
                time.sleep(0.05)
                client.healthz()
            assert client._conn is connection  # never re-dialed

    def test_pipelining_client_that_never_reads_is_dropped(self, quick_server):
        urls = [f"https://doubleclick.net/{i}/pixel.js" for i in range(500)]
        burst = _post(
            "/v1/decide", json.dumps({"requests": urls}).encode()
        ) * 8
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # A tiny receive window fills after a few answers; the server then
        # blocks writing with its response in flight.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(0.5)
        try:
            sock.connect((quick_server.host, quick_server.port))
            while True:
                try:
                    sock.sendall(burst)
                except (socket.timeout, OSError):
                    break  # the server stopped reading, or dropped us
            assert _wait_for(lambda: not quick_server.server._connections)
        finally:
            sock.close()


def _wait_for(condition, seconds: float = 5.0) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.01)
    return condition()


# -- the open-loop load generator ---------------------------------------------


class TestOpenLoopLoadGenerator:
    def test_server_stopping_mid_run_keeps_the_report(self):
        urls = [f"https://doubleclick.net/{i}.js" for i in range(300)]
        server = AsyncServerThread().start()
        generator = OpenLoopLoadGenerator(
            server.host, server.port, urls, rate_rps=200.0, connections=4
        )
        stopper = threading.Timer(0.5, server.stop)
        stopper.start()
        try:
            report = generator.run()  # must return, not raise
        finally:
            stopper.join()
            server.stop()
        assert report.decisions, "decisions before the stop were discarded"
        assert report.errors, "requests after the stop were not recorded"
        assert report.requests + len(report.errors) == len(urls)
        assert all(decision["blocked"] for decision in report.decisions)
