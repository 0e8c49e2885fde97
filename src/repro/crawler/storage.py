"""Request database — the "Database" box in the paper's Figure 2.

The crawl writes every captured event here; TrackerSift's analysis is post
hoc and offline over this store.  Three access patterns are supported:

* an in-memory store (default) for analysis pipelines and tests,
* SQLite persistence (stdlib ``sqlite3``) for crawls that outlive a process,
* JSON-lines export/import for interchange.

All three round-trip losslessly, including nested async call stacks.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from pathlib import Path

from ..browser.devtools import RequestWillBeSent, ResponseReceived

__all__ = ["RequestDatabase"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS requests (
    request_id TEXT PRIMARY KEY,
    url TEXT NOT NULL,
    top_level_url TEXT NOT NULL,
    frame_url TEXT NOT NULL,
    resource_type TEXT NOT NULL,
    timestamp REAL NOT NULL,
    call_stack TEXT,
    headers TEXT NOT NULL,
    method TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS responses (
    request_id TEXT PRIMARY KEY,
    url TEXT NOT NULL,
    status INTEGER NOT NULL,
    mime_type TEXT NOT NULL,
    timestamp REAL NOT NULL,
    headers TEXT NOT NULL,
    body_size INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_requests_page ON requests (top_level_url);
"""


class RequestDatabase:
    """Store for captured request/response events.

    Implements the :class:`~repro.browser.extension.EventSink` protocol, so
    a :class:`~repro.browser.extension.CrawlExtension` can write straight
    into it.
    """

    def __init__(self) -> None:
        self._requests: list[RequestWillBeSent] = []
        self._responses: list[ResponseReceived] = []
        self._request_ids: set[str] = set()

    # -- EventSink protocol ---------------------------------------------------
    def add_request(self, event: RequestWillBeSent) -> None:
        if event.request_id in self._request_ids:
            raise ValueError(f"duplicate request_id {event.request_id}")
        self._request_ids.add(event.request_id)
        self._requests.append(event)

    def add_response(self, event: ResponseReceived) -> None:
        self._responses.append(event)

    def extend(self, other: "RequestDatabase") -> None:
        """Merge another database (used when joining cluster shards)."""
        for request in other.requests():
            self.add_request(request)
        for response in other.responses():
            self.add_response(response)

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._requests)

    def requests(self) -> list[RequestWillBeSent]:
        return list(self._requests)

    def responses(self) -> list[ResponseReceived]:
        return list(self._responses)

    def script_initiated(self) -> list[RequestWillBeSent]:
        """The subset entering TrackerSift's analysis (paper §3)."""
        return [r for r in self._requests if r.script_initiated]

    def for_page(self, top_level_url: str) -> list[RequestWillBeSent]:
        return [r for r in self._requests if r.top_level_url == top_level_url]

    def pages(self) -> list[str]:
        seen: set[str] = set()
        out: list[str] = []
        for request in self._requests:
            if request.top_level_url not in seen:
                seen.add(request.top_level_url)
                out.append(request.top_level_url)
        return out

    def iter_requests(self) -> Iterator[RequestWillBeSent]:
        return iter(self._requests)

    # -- JSONL -------------------------------------------------------------------
    def to_jsonl(self, path: str | Path) -> int:
        """Write all events to a JSON-lines file; returns lines written."""
        path = Path(path)
        lines = 0
        with path.open("w", encoding="utf-8") as handle:
            for request in self._requests:
                record = {"kind": "request", **request.to_dict()}
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                lines += 1
            for response in self._responses:
                record = {"kind": "response", **response.to_dict()}
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                lines += 1
        return lines

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "RequestDatabase":
        db = cls()
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                kind = record.pop("kind")
                if kind == "request":
                    db.add_request(RequestWillBeSent.from_dict(record))
                elif kind == "response":
                    db.add_response(ResponseReceived.from_dict(record))
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
        return db

    # -- SQLite ---------------------------------------------------------------
    def to_sqlite(self, path: str | Path) -> None:
        """Persist to a SQLite database file (created or replaced)."""
        import sqlite3

        with sqlite3.connect(str(path)) as conn:
            conn.executescript(_SCHEMA)
            conn.execute("DELETE FROM requests")
            conn.execute("DELETE FROM responses")
            conn.executemany(
                "INSERT INTO requests VALUES (?,?,?,?,?,?,?,?,?)",
                (
                    (
                        r.request_id,
                        r.url,
                        r.top_level_url,
                        r.frame_url,
                        r.resource_type,
                        r.timestamp,
                        json.dumps(r.call_stack.to_dict()) if r.call_stack else None,
                        json.dumps(r.headers, sort_keys=True),
                        r.method,
                    )
                    for r in self._requests
                ),
            )
            conn.executemany(
                "INSERT INTO responses VALUES (?,?,?,?,?,?,?)",
                (
                    (
                        r.request_id,
                        r.url,
                        r.status,
                        r.mime_type,
                        r.timestamp,
                        json.dumps(r.headers, sort_keys=True),
                        r.body_size,
                    )
                    for r in self._responses
                ),
            )
            conn.commit()

    @classmethod
    def from_sqlite(cls, path: str | Path) -> "RequestDatabase":
        import sqlite3

        from ..browser.callstack import CallStack

        db = cls()
        with sqlite3.connect(str(path)) as conn:
            rows = conn.execute(
                "SELECT request_id, url, top_level_url, frame_url, resource_type,"
                " timestamp, call_stack, headers, method FROM requests"
                " ORDER BY timestamp, request_id"
            )
            for row in rows:
                stack = CallStack.from_dict(json.loads(row[6])) if row[6] else None
                db.add_request(
                    RequestWillBeSent(
                        request_id=row[0],
                        url=row[1],
                        top_level_url=row[2],
                        frame_url=row[3],
                        resource_type=row[4],
                        timestamp=row[5],
                        call_stack=stack,
                        headers=json.loads(row[7]),
                        method=row[8],
                    )
                )
            rows = conn.execute(
                "SELECT request_id, url, status, mime_type, timestamp, headers,"
                " body_size FROM responses ORDER BY timestamp, request_id"
            )
            for row in rows:
                db.add_response(
                    ResponseReceived(
                        request_id=row[0],
                        url=row[1],
                        status=row[2],
                        mime_type=row[3],
                        timestamp=row[4],
                        headers=json.loads(row[5]),
                        body_size=row[6],
                    )
                )
        return db

    @classmethod
    def from_events(
        cls,
        requests: Iterable[RequestWillBeSent],
        responses: Iterable[ResponseReceived] = (),
    ) -> "RequestDatabase":
        db = cls()
        for request in requests:
            db.add_request(request)
        for response in responses:
            db.add_response(response)
        return db
