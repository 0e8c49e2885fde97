"""Client for the blocking-decision API.

:class:`BlockingClient` speaks the four-endpoint JSON protocol of
:mod:`repro.serve.protocol` over a persistent keep-alive connection.  One
client instance is bound to one connection and is **not** shared across
threads; a multi-threaded consumer holds one per thread.
"""

from __future__ import annotations

import http.client
import json
import random
import time

from .protocol import DEFAULT_PORT

__all__ = ["ServeError", "BlockingClient"]


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
