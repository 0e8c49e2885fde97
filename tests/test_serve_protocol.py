"""The asyncio serve front end: framing, pipelining, coalescing, drain.

Proof obligations for ``repro.serve.protocol``:

* the hand-rolled HTTP/1.1 parser frames requests correctly — keep-alive
  reuse, ``Connection: close``, pipelined bursts answered in order — and
  rejects what it cannot trust (chunked bodies, malformed request lines,
  oversized headers) without wedging the connection loop;
* however a byte stream is cut into reads, it frames exactly as it does
  parsed whole, and hostile bytes raise nothing but ``_ProtocolError``;
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
import gc
import json
import logging
import re
import socket
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.filterlists.image import ArtifactError
from repro.serve import protocol
from repro.serve.client import BlockingClient, ServeError
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

    @pytest.mark.parametrize(
        "version, connection, keep_alive",
        [
            ("HTTP/1.1", b"Connection: close, TE", False),
            ("HTTP/1.1", b"Connection: TE,Close", False),
            ("HTTP/1.1", b"Connection: keep-alive\r\nConnection: close", False),
            ("HTTP/1.1", b"Connection: TE, Upgrade", True),
            ("HTTP/1.0", b"Connection: keep-alive, Upgrade", True),
            ("HTTP/1.0", b"Connection: Upgrade ,\tKeep-Alive", True),
            ("HTTP/1.0", b"Connection: keep-alive, close", False),
            # \x0b is not whitespace: "close\x0b" is another option.
            ("HTTP/1.1", b"Connection: close\x0b", True),
        ],
    )
    def test_connection_is_a_token_list(self, version, connection, keep_alive):
        requests, _ = _parse_requests(
            b"GET /healthz " + version.encode() + b"\r\n" + connection + b"\r\n\r\n"
        )
        assert requests[0].keep_alive is keep_alive

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
            # Whitespace before the colon, or a folded/indented name.
            b"POST /x HTTP/1.1\r\nContent-Length : 2\r\n\r\nab",
            b"POST /x HTTP/1.1\r\nContent-Length\t: 2\r\n\r\nab",
            b"POST /x HTTP/1.1\r\n Content-Length: 2\r\n\r\nab",
            b"POST /x HTTP/1.1\r\n: 2\r\n\r\nab",
            b"POST /x HTTP/1.1\r\nContent-Length\x0b: 2\r\n\r\nab",
            # Only SP and HTAB are whitespace.
            b"POST /x HTTP/1.1\r\nContent-Length: 2\x0b\r\n\r\nab",
            b"POST /x HTTP/1.1\r\nContent-Length:\xa02\r\n\r\nab",
            b"POST /x HTTP/1.1\r\nContent-Length: 2\x1f\r\n\r\nab",
            b"GET\x0c/x HTTP/1.1\r\n\r\n",
            b"GET /x\x85HTTP/1.1\r\n\r\n",
            b"GET  /x HTTP/1.1\r\n\r\n",
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


# -- the parser, under generated byte streams ---------------------------------

_TOKEN = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "!#$%&'*+-.^_`|~",
    min_size=1,
    max_size=12,
)
#: Framing headers are drawn on purpose, not by chance.
_FRAMING = {"content-length", "transfer-encoding", "connection"}
_FIELD = st.tuples(
    _TOKEN.filter(lambda name: name.lower() not in _FRAMING),
    # visible ASCII, SP, HTAB and obs-text: everything a field value may hold
    st.text(
        alphabet=st.sampled_from(
            [" ", "\t"] + [chr(c) for c in range(0x21, 0x7F)]
            + [chr(c) for c in range(0x80, 0x100)]
        ),
        max_size=30,
    ),
)


@st.composite
def _valid_request(draw):
    """One well-formed request and the ``(method, target, body,
    keep_alive)`` it must parse to."""
    method = draw(st.sampled_from(["GET", "POST", "PUT", "HEAD"]) | _TOKEN)
    target = draw(
        st.text(
            alphabet=st.sampled_from([chr(c) for c in range(0x21, 0x7F)]),
            min_size=1,
            max_size=40,
        )
    )
    version = draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"]))
    body = draw(st.binary(max_size=80))
    fields = draw(st.lists(_FIELD, max_size=4))
    # Connection is a token list: "close" anywhere closes, and HTTP/1.0
    # stays open only with a "keep-alive" option.
    options = draw(
        st.lists(
            st.sampled_from(
                ["close", "keep-alive", "Close", "Keep-Alive", "upgrade", "TE"]
            ),
            max_size=3,
        )
    )
    if options:
        connection = options[0]
        for option in options[1:]:
            connection += draw(st.sampled_from([",", ", ", " ,\t"])) + option
        fields.insert(draw(st.integers(0, len(fields))), ("Connection", connection))
    if body or draw(st.booleans()):
        name = draw(st.sampled_from(["Content-Length", "content-length"]))
        fields.insert(draw(st.integers(0, len(fields))), (name, str(len(body))))
    head = "\r\n".join(
        [f"{method} {target} {version}"]
        + [
            f"{name}:{draw(st.sampled_from(['', ' ', chr(9)]))}{value}"
            for name, value in fields
        ]
    )
    lowered = {option.lower() for option in options}
    keep_alive = "close" not in lowered and (
        version == "HTTP/1.1" or "keep-alive" in lowered
    )
    raw = (head + "\r\n\r\n").encode("latin-1") + body
    return raw, (method, target, body, keep_alive)


#: Where a stream is cut into reads (each taken modulo its length + 1).
_CUTS = st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=12)


def _chunks(stream: bytes, cuts: list[int]) -> list[bytes]:
    bounds = [0, *sorted(cut % (len(stream) + 1) for cut in cuts), len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


def _fed(chunks: list[bytes]) -> tuple[list, bytes]:
    """Parse ``chunks`` as the connection loop reads them: append each to
    the carried-over remainder and parse again."""
    parsed: list = []
    buffer = b""
    for chunk in chunks:
        buffer += chunk
        requests, buffer = _parse_requests(buffer)
        parsed.extend(requests)
    return parsed, buffer


def _fields(requests) -> list[tuple]:
    return [(r.method, r.target, r.body, r.keep_alive) for r in requests]


#: Byte fragments a hostile stream is spliced from: framing tokens that
#: make the parser go further than random bytes would.
_HOSTILE_FRAGMENT = st.sampled_from(
    [
        b"GET ", b"POST ", b"/v1/decide", b" HTTP/1.1", b" HTTP/1.0",
        b"\r\n", b"\r\n\r\n", b"\r", b"\n", b" ", b":", b"\x85", b"\xa0",
        b"\t", b"\x0b", b"\x0c", b"\x1c", b"\x1f",
        b"Content-Length: ", b"content-length:", b"Content-Length : ",
        b" Content-Length: ", b"Transfer-Encoding: chunked",
        b"Connection: close", b"Connection: keep-alive",
        b"Connection: close, TE", b"Connection: keep-alive, Upgrade",
        b"0", b"7", b"99999999999",
    ]
) | st.binary(max_size=12) | st.text(alphabet="0123456789", max_size=40).map(str.encode)


#: Characters str.split()/strip() treat as whitespace in latin-1 text
#: that HTTP does not.
_NOT_WHITESPACE = [bytes([c]) for c in (0x0B, 0x0C, 0x1C, 0x1D, 0x1E, 0x1F, 0x85, 0xA0)]


class TestParserProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_valid_request(), min_size=1, max_size=5), _CUTS)
    def test_any_split_of_a_pipelined_stream_parses_like_the_whole(
        self, drawn, cuts
    ):
        stream = b"".join(raw for raw, _ in drawn)
        whole, rest = _parse_requests(stream)
        assert rest == b""
        assert _fields(whole) == [expected for _, expected in drawn]

        parsed, rest = _fed(_chunks(stream, cuts))
        assert rest == b""
        assert _fields(parsed) == _fields(whole)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_HOSTILE_FRAGMENT, max_size=30).map(b"".join),
        _CUTS,
        st.sampled_from([protocol._MAX_HEADER_BYTES, 24, 64]),
    )
    @example(
        stream=b"POST /x HTTP/1.1\r\nContent-Length: "
        + b"1" * 5_000
        + b"\r\n\r\n",
        cuts=[],
        header_cap=protocol._MAX_HEADER_BYTES,
    ).via("int() refuses digit strings past sys.int_max_str_digits")
    @example(
        stream=b"GET /v1/decide HTTP/1.1\r\n\r\n", cuts=[26], header_cap=24
    ).via("a head whose blank line crosses the cap, cut inside it")
    def test_hostile_bytes_frame_alike_and_raise_only_protocol_errors(
        self, stream, cuts, header_cap
    ):
        with mock.patch.object(protocol, "_MAX_HEADER_BYTES", header_cap):
            try:
                whole = _parse_requests(stream)
            except _ProtocolError:
                whole = None
            try:
                fed = _fed(_chunks(stream, cuts))
            except _ProtocolError:
                fed = None
        # However the bytes arrive, the stream frames the same way.
        if whole is None:
            assert fed is None
        else:
            assert fed is not None
            assert _fields(fed[0]) == _fields(whole[0]) and fed[1] == whole[1]


    @settings(max_examples=200, deadline=None)
    @given(_valid_request(), st.sampled_from([" ", "\t", " \t "]), st.data())
    def test_whitespace_before_a_header_colon_is_refused(self, drawn, pad, data):
        head, _, body = drawn[0].partition(b"\r\n\r\n")
        lines = head.split(b"\r\n") + [b"Host: x"]
        index = data.draw(st.integers(1, len(lines) - 1))
        lines[index] = lines[index].replace(b":", pad.encode() + b":", 1)
        with pytest.raises(_ProtocolError) as refused:
            _parse_requests(b"\r\n".join(lines) + b"\r\n\r\n" + body)
        assert refused.value.status == 400

    @settings(max_examples=200, deadline=None)
    @given(
        _valid_request(),
        st.sampled_from(_NOT_WHITESPACE),
        st.sampled_from(["request-line", "before-length", "after-length"]),
    )
    def test_only_sp_and_htab_are_whitespace(self, drawn, char, where):
        head, _, body = drawn[0].partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        if where == "request-line":
            lines[0] = lines[0].replace(b" ", char, 1)
        else:
            lines = lines[:1] + [
                line for line in lines[1:]
                if not line.lower().startswith(b"content-length:")
            ]
            length = str(len(body)).encode()
            padded = char + length if where == "before-length" else length + char
            lines.append(b"Content-Length: " + padded)
        with pytest.raises(_ProtocolError) as refused:
            _parse_requests(b"\r\n".join(lines) + b"\r\n\r\n" + body)
        assert refused.value.status == 400


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
        assert service.latency.count == 7

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


# -- decide validation, in isolation ------------------------------------------

#: Any JSON value.
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=40),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


class TestDecideValidation:
    service = BlockingService()

    @settings(max_examples=300, deadline=None)
    @given(
        item=st.fixed_dictionaries(
            {},
            optional={
                "url": _JSON
                | st.sampled_from(["https://ads.example/p.gif", "//x.example/a"]),
                "resource_type": _JSON | st.sampled_from(["script", "image", "xhr"]),
                "page_url": _JSON | st.sampled_from(["https://site.example/", ""]),
            },
        )
    )
    @example(item={"url": "https://doubleclick.net/x.js", "page_url": 5})
    @example(item={"url": "https://doubleclick.net/x.js", "page_url": None})
    def test_any_json_item_validates_or_raises_value_error(self, item):
        try:
            validated = self.service.validate_requests([item])
        except ValueError as error:
            assert str(error).startswith("batch item 0")
            return
        # What validates is decidable: it joins a coalesced drain.
        ((url, _, page_url),) = validated
        assert isinstance(url, str) and isinstance(page_url, str)
        assert len(self.service.decide_validated(validated)["decisions"]) == 1

    def test_null_page_url_decides_like_an_absent_one(self):
        url = "https://doubleclick.net/x.js"
        assert self.service.validate_requests(
            [{"url": url, "page_url": None}]
        ) == self.service.validate_requests([{"url": url}])


# -- the server over real sockets ---------------------------------------------


def _read_until_closed(sock: socket.socket, seconds: float = 10.0) -> bytes:
    received = b""
    deadline = time.monotonic() + seconds
    while True:
        assert time.monotonic() < deadline, received
        data = sock.recv(65536)
        if not data:
            return received
        received += data


def _statuses(received: bytes) -> list[bytes]:
    """The status codes of a stream of responses, in order."""
    return re.findall(rb"HTTP/1\.1 (\d{3}) ", received)


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

    def test_non_string_page_url_does_not_poison_its_neighbour(self, server):
        # One drain would have held both: the bad page_url is refused at
        # validation, so the valid pipelined neighbour is still decided.
        good = json.dumps({"url": "https://doubleclick.net/x.js"}).encode()
        bad = json.dumps(
            {"url": "https://doubleclick.net/y.js", "page_url": 5}
        ).encode()
        close = "Connection: close\r\n"
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(_post("/v1/decide", good) + _post("/v1/decide", bad, close))
            received = _read_until_closed(sock)
        assert _statuses(received) == [b"200", b"400"]
        assert received.count(b'"blocked": true') == 1
        assert b"batch item 0: page_url must be a string or null" in received

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


class _FailingService(BlockingService):
    """Every drain fails while ``fail`` is set, as a corrupt mapped
    bucket makes it."""

    fail = True

    def decide_validated(self, validated, *, batches=1):
        if self.fail:
            raise ArtifactError("bucket 3 is corrupt")
        return super().decide_validated(validated, batches=batches)


class TestFailedDrain:
    def test_every_request_in_a_failed_drain_is_answered_500(self, caplog):
        body = json.dumps({"url": "https://doubleclick.net/t.js"}).encode()
        caplog.set_level(logging.ERROR, logger="asyncio")
        with AsyncServerThread(service=_FailingService()) as server:
            first = socket.create_connection((server.host, server.port), timeout=10)
            second = socket.create_connection((server.host, server.port), timeout=10)
            with first, second:
                # A pipelined burst of three on one connection, one more
                # on another: all four land in the same drain.
                first.sendall(_post("/v1/decide", body) * 3)
                second.sendall(_post("/v1/decide", body))
                answers = [_read_until_closed(first), _read_until_closed(second)]
            gc.collect()
        for received in answers:
            # The first failed decide is answered and the connection
            # closes: nothing after it on that connection can be trusted.
            assert _statuses(received) == [b"500"]
            assert b"Connection: close" in received
            head, _, payload = received.partition(b"\r\n\r\n")
            assert json.loads(payload) == {
                "error": "decide failed: bucket 3 is corrupt"
            }
        assert "never retrieved" not in caplog.text
        assert "Task exception" not in caplog.text

    def test_the_server_keeps_serving_after_a_failed_drain(self):
        service = _FailingService()
        with AsyncServerThread(service=service) as server:
            with BlockingClient(server.host, server.port) as client:
                with pytest.raises(ServeError) as failed:
                    client.decide("https://doubleclick.net/t.js")
                assert failed.value.status == 500
            service.fail = False
            with BlockingClient(server.host, server.port) as client:
                assert client.decide("https://doubleclick.net/t.js")["blocked"] is True


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


class _ChunkReader:
    """A stream reader that hands out pre-cut chunks, then EOF."""

    def __init__(self, chunks: list[bytes]) -> None:
        self._chunks = iter(chunks)

    async def read(self, _size: int) -> bytes:
        return next(self._chunks, b"")


class _RecordingWriter:
    """A stream writer that timestamps every write."""

    def __init__(self) -> None:
        self.writes: list[tuple[float, bytes]] = []

    def write(self, data: bytes) -> None:
        self.writes.append((time.perf_counter(), data))

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


class TestLargeBody:
    def test_body_framing_is_linear_in_its_size(self):
        """A 16 MB body arriving in 16 KiB reads is framed in well under a
        second; a buffer that copies itself on every read takes seconds."""
        body = b"x" * (16 * 1024 * 1024)
        stream = _post("/v1/nowhere", body)
        step = 16 * 1024
        chunks = [stream[i : i + step] for i in range(0, len(stream), step)]
        reader, writer = _ChunkReader(chunks), _RecordingWriter()
        server = AsyncBlockingServer()
        started = time.perf_counter()
        asyncio.run(server._handle(reader, writer))
        assert writer.writes, "no response was written"
        answered, response = writer.writes[0]
        assert response.startswith(b"HTTP/1.1 404 ")
        assert answered - started < 1.0


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

