"""Bench-owned HTTP/1.1 load: a pipelined open loop and a closed loop.

Both clients run in the calling thread over at most two keep-alive
connections, multiplexed with ``select`` (microsecond timeouts, unlike
epoll's millisecond ones).  Neither decodes JSON while load runs: the
reader frames responses by ``Content-Length`` and keeps raw bodies, and
callers decode them after the phase.

Why the open loop pipelines: a generator that waits for each response
before the next send on a connection can offer at most
``connections / round_trip`` requests per second, so a slow server
receives less load and queueing never shows.  Here one writer appends
every pre-encoded request that is due to its connection's buffer and
sends the buffer in one ``send`` call; requests are due at fixed
intervals whatever the server does, and each latency is timed from the
moment the request was due, so a stall delays (and is charged to) every
request scheduled behind it.
"""

from __future__ import annotations

import json
import select
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Container, Sequence

_HEAD_END = b"\r\n\r\n"
_LENGTH = b"content-length:"
_READ = 256 * 1024

#: Keep-alive connections per client: the load shape allows at most two.
CONNECTIONS = 2
#: Seconds to wait for a connection, and for an answer before the request
#: counts as lost.
TIMEOUT_S = 10.0


def encode_post(path: str, payload: dict) -> bytes:
    """One keep-alive ``POST`` request with a JSON body, ready to send."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


def split_responses(buffer) -> tuple[list[tuple[int, bytes]], int]:
    """Frame every complete response at the front of ``buffer``.

    Returns ``([(status, body), ...], bytes consumed)``; a trailing
    partial response is left for the next read.  Raises ``ValueError``
    for a response without ``Content-Length`` (the server always sends
    one, so its absence means the stream lost framing).
    """
    responses: list[tuple[int, bytes]] = []
    position = 0
    size = len(buffer)
    while True:
        head_end = buffer.find(_HEAD_END, position)
        if head_end < 0:
            return responses, position
        head = bytes(buffer[position:head_end]).lower()
        marker = head.find(_LENGTH)
        if marker < 0:
            raise ValueError(f"response without Content-Length: {head[:80]!r}")
        line_end = head.find(b"\r\n", marker)
        length = int(head[marker + len(_LENGTH): line_end if line_end >= 0 else None])
        body_start = head_end + 4
        body_end = body_start + length
        if body_end > size:
            return responses, position
        responses.append((int(head[9:12]), bytes(buffer[body_start:body_end])))
        position = body_end


class _Connection:
    __slots__ = ("sock", "out", "inbuf", "pending", "closed")

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.pending: deque = deque()
        self.closed = False

    def flush(self) -> None:
        if not self.out or self.closed:
            return
        try:
            sent = self.sock.send(self.out)
        except BlockingIOError:
            return
        except OSError:
            self.closed = True
            return
        del self.out[:sent]

    def read(self) -> list[tuple[int, bytes]]:
        """Responses completed by one ``recv``; marks the connection
        closed on EOF or error."""
        try:
            data = self.sock.recv(_READ)
        except BlockingIOError:
            return []
        except OSError:
            data = b""
        if not data:
            self.closed = True
            return []
        self.inbuf += data
        responses, consumed = split_responses(self.inbuf)
        if consumed:
            del self.inbuf[:consumed]
        return responses


class _Pool:
    """:data:`CONNECTIONS` keep-alive connections to one server."""

    def __init__(self, host: str, port: int) -> None:
        self.connections = [
            _Connection(host, port, TIMEOUT_S) for _ in range(CONNECTIONS)
        ]

    def close(self) -> None:
        for connection in self.connections:
            connection.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class OpenLoopResult:
    """One open-loop step.  Times are seconds; per-request lists are in
    send order and hold ``None`` for requests never answered."""

    rate: float
    duration: float
    sent: int
    failed: int
    aborted: bool
    latency: list
    lateness: list
    bodies: dict = field(default_factory=dict)
    cpu_s: float = 0.0
    wall_s: float = 0.0
    max_inflight: int = 0
    #: server CPU seconds during the step, for callers that can read it
    worker_cpu_s: float = 0.0

    @property
    def cpu_frac(self) -> float:
        return self.cpu_s / self.wall_s if self.wall_s > 0 else 0.0


class OpenLoopGenerator(_Pool):
    """Fixed-rate pipelined load; request ``i`` is due ``i / rate`` seconds
    after the step starts and goes to connection ``i % connections``."""

    def run(
        self,
        requests: Sequence[bytes],
        rate: float,
        duration: float,
        *,
        keep: Container[int] = (),
        abort_after: float = 1.0,
    ) -> OpenLoopResult:
        """Offer ``rate`` requests per second for ``duration`` seconds,
        cycling through ``requests``; keep the raw bodies of the request
        indices in ``keep``.

        A step whose oldest unanswered request is more than
        ``abort_after`` seconds past due stops sending early (it has
        already failed any sane latency limit), and answers still
        missing :data:`TIMEOUT_S` after the last send count as failed.
        """
        connections = self.connections
        fanout = len(connections)
        sockets = [c.sock for c in connections]
        by_socket = {c.sock: c for c in connections}
        total = len(requests)
        count = max(1, int(rate * duration))
        interval = 1.0 / rate
        latency: list = [None] * count
        lateness: list = [0.0] * count
        bodies: dict = {}
        failed = 0
        inflight = 0
        max_inflight = 0
        aborted = False
        limit = count
        next_index = 0
        cpu_started = time.process_time()
        started = time.perf_counter()
        origin = started + 0.002
        stop_sending_at = None
        while True:
            now = time.perf_counter()
            if next_index < limit and now >= origin:
                due = min(limit, int((now - origin) * rate) + 1)
                if due > next_index:
                    for index in range(next_index, due):
                        connection = connections[index % fanout]
                        connection.out += requests[index % total]
                        connection.pending.append(index)
                        lateness[index] = now - (origin + index * interval)
                    inflight += due - next_index
                    if inflight > max_inflight:
                        max_inflight = inflight
                    next_index = due
            writers = []
            for connection in connections:
                if connection.out:
                    connection.flush()
                    if connection.out and not connection.closed:
                        writers.append(connection.sock)
            if next_index < limit and inflight:
                oldest = min(
                    c.pending[0] for c in connections if c.pending
                )
                if now - (origin + oldest * interval) > abort_after:
                    limit = next_index
                    aborted = True
            if next_index >= limit:
                if stop_sending_at is None:
                    stop_sending_at = now
                if inflight == 0:
                    break
                if now - stop_sending_at > TIMEOUT_S or all(
                    c.closed for c in connections
                ):
                    failed += inflight
                    break
                timeout = 0.05
            else:
                timeout = max(0.0, origin + next_index * interval - now)
            readable, _, _ = select.select(sockets, writers, [], timeout)
            for sock in readable:
                connection = by_socket[sock]
                responses = connection.read()
                if not responses:
                    if connection.closed and connection.pending:
                        failed += len(connection.pending)
                        inflight -= len(connection.pending)
                        connection.pending.clear()
                    continue
                received = time.perf_counter()
                for status, body in responses:
                    index = connection.pending.popleft()
                    latency[index] = received - (origin + index * interval)
                    if status != 200:
                        failed += 1
                        continue
                    if index in keep:
                        bodies[index] = body
                inflight -= len(responses)
        finished = time.perf_counter()
        for connection in connections:
            connection.pending.clear()
            connection.out.clear()
        return OpenLoopResult(
            rate=rate,
            duration=duration,
            sent=limit,
            failed=failed,
            aborted=aborted,
            latency=latency[:limit],
            lateness=lateness[:limit],
            bodies=bodies,
            cpu_s=time.process_time() - cpu_started,
            wall_s=finished - started,
            max_inflight=max_inflight,
        )


@dataclass
class Record:
    """One closed-loop request: its index, send and receive times, HTTP
    status and raw response body."""

    index: int
    sent: float
    received: float
    status: int
    body: bytes


class ClosedLoopClient(_Pool):
    """Closed loop: each connection has one request in flight and sends
    the next as soon as the answer arrives, like a caller that waits for
    each reply."""

    def run(
        self,
        encode: Callable[[int], bytes],
        duration: float,
        *,
        tick: Callable[[float], None] | None = None,
        first_index: int = 0,
    ) -> tuple[list[Record], int, float]:
        """Send requests ``encode(first_index)``, ``encode(first_index+1)``
        ... for ``duration`` seconds.  ``tick(now)`` runs between socket
        waits (the caller's reloads hook in there).  Each connection's
        next request is encoded while its current one is in flight.

        Returns ``(records, lost, client CPU seconds)``: ``lost`` counts
        requests never answered, because their connection closed or no
        answer came within :data:`TIMEOUT_S` (that connection is then
        abandoned, since its responses can no longer be paired).
        """
        connections = self.connections
        by_socket = {c.sock: c for c in connections}
        records: list[Record] = []
        lost = 0
        next_index = first_index
        prepared: dict = {}
        cpu_started = time.process_time()
        end = time.perf_counter() + duration
        for connection in connections:
            connection.out += encode(next_index)
            connection.pending.append((next_index, time.perf_counter()))
            connection.flush()
            prepared[connection] = (next_index + 1, encode(next_index + 1))
            next_index += 2
        while any(c.pending for c in connections):
            now = time.perf_counter()
            if tick is not None:
                tick(now)
            for connection in connections:
                if connection.pending and (
                    connection.closed
                    or now - connection.pending[0][1] > TIMEOUT_S
                ):
                    lost += len(connection.pending)
                    connection.pending.clear()
                    connection.closed = True
            live = [c.sock for c in connections if not c.closed]
            writers = [c.sock for c in connections if c.out and not c.closed]
            readable, writable, _ = select.select(live, writers, [], 0.05)
            for sock in writable:
                by_socket[sock].flush()
            for sock in readable:
                connection = by_socket[sock]
                responses = connection.read()
                if not responses:
                    continue
                received = time.perf_counter()
                for status, body in responses:
                    index, sent = connection.pending.popleft()
                    records.append(Record(index, sent, received, status, body))
                    if received < end and not connection.closed:
                        index, payload = prepared[connection]
                        connection.out += payload
                        connection.pending.append((index, time.perf_counter()))
                        prepared[connection] = (next_index, encode(next_index))
                        next_index += 1
                connection.flush()
        return records, lost, time.process_time() - cpu_started
