"""DevTools-style network events.

The paper's purpose-built Chrome extension listens to two DevTools network
events and stores their payloads (§3, Figure 2):

* ``requestWillBeSent`` — request id, top-level URL, frame URL, resource
  type, headers, timestamp and the initiator ``call_stack``;
* ``responseReceived`` — response headers and body.

We model exactly those payloads.  The analysis pipeline consumes
:class:`RequestWillBeSent`; responses exist for schema fidelity and for the
storage round-trip tests.
"""

from __future__ import annotations

from .._record import FrozenRecord, set_field
from .callstack import CallStack

__all__ = ["RequestWillBeSent", "ResponseReceived", "next_request_id"]


_REQUEST_COUNTER = {"value": 0}


def next_request_id() -> str:
    """Monotonic request ids in the DevTools ``"1000.42"`` style."""
    _REQUEST_COUNTER["value"] += 1
    return f"1000.{_REQUEST_COUNTER['value']}"


class RequestWillBeSent(FrozenRecord):
    """One captured HTTP request, as the crawling extension stores it."""

    __slots__ = (
        "request_id",
        "url",
        "top_level_url",
        "frame_url",
        "resource_type",
        "timestamp",
        "call_stack",
        "headers",
        "method",
    )

    request_id: str
    url: str
    top_level_url: str
    frame_url: str
    resource_type: str
    timestamp: float
    call_stack: CallStack | None
    headers: dict[str, str]
    method: str

    def __init__(
        self,
        request_id: str,
        url: str,
        top_level_url: str,
        frame_url: str,
        resource_type: str,
        timestamp: float,
        call_stack: CallStack | None = None,
        headers: dict[str, str] | None = None,
        method: str = "GET",
    ) -> None:
        set_field(self, "request_id", request_id)
        set_field(self, "url", url)
        set_field(self, "top_level_url", top_level_url)
        set_field(self, "frame_url", frame_url)
        set_field(self, "resource_type", resource_type)
        set_field(self, "timestamp", timestamp)
        set_field(self, "call_stack", call_stack)
        set_field(self, "headers", {} if headers is None else headers)
        set_field(self, "method", method)

    @property
    def script_initiated(self) -> bool:
        """Paper §3: only script-initiated requests enter the analysis."""
        return self.call_stack is not None

    @property
    def initiator_script(self) -> str:
        if self.call_stack is None:
            raise ValueError(f"request {self.request_id} is not script-initiated")
        return self.call_stack.initiator_script

    @property
    def initiator_method(self) -> str:
        if self.call_stack is None:
            raise ValueError(f"request {self.request_id} is not script-initiated")
        return self.call_stack.initiator_method

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "url": self.url,
            "top_level_url": self.top_level_url,
            "frame_url": self.frame_url,
            "resource_type": self.resource_type,
            "timestamp": self.timestamp,
            "call_stack": self.call_stack.to_dict() if self.call_stack else None,
            "headers": dict(self.headers),
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RequestWillBeSent":
        stack_data = data.get("call_stack")
        return cls(
            request_id=data["request_id"],
            url=data["url"],
            top_level_url=data["top_level_url"],
            frame_url=data.get("frame_url", data["top_level_url"]),
            resource_type=data.get("resource_type", "other"),
            timestamp=float(data.get("timestamp", 0.0)),
            call_stack=CallStack.from_dict(stack_data) if stack_data else None,
            headers=dict(data.get("headers", {})),
            method=data.get("method", "GET"),
        )


class ResponseReceived(FrozenRecord):
    """The paired HTTP response event."""

    __slots__ = (
        "request_id", "url", "status", "mime_type", "timestamp", "headers", "body_size"
    )

    request_id: str
    url: str
    status: int
    mime_type: str
    timestamp: float
    headers: dict[str, str]
    body_size: int

    def __init__(
        self,
        request_id: str,
        url: str,
        status: int,
        mime_type: str,
        timestamp: float,
        headers: dict[str, str] | None = None,
        body_size: int = 0,
    ) -> None:
        set_field(self, "request_id", request_id)
        set_field(self, "url", url)
        set_field(self, "status", status)
        set_field(self, "mime_type", mime_type)
        set_field(self, "timestamp", timestamp)
        set_field(self, "headers", {} if headers is None else headers)
        set_field(self, "body_size", body_size)

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "url": self.url,
            "status": self.status,
            "mime_type": self.mime_type,
            "timestamp": self.timestamp,
            "headers": dict(self.headers),
            "body_size": self.body_size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResponseReceived":
        return cls(
            request_id=data["request_id"],
            url=data["url"],
            status=int(data.get("status", 200)),
            mime_type=data.get("mime_type", "application/octet-stream"),
            timestamp=float(data.get("timestamp", 0.0)),
            headers=dict(data.get("headers", {})),
            body_size=int(data.get("body_size", 0)),
        )
