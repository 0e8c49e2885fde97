"""JavaScript call-stack model, matching the DevTools ``Runtime.StackTrace``.

The paper's crawler records, for every script-initiated network request, a
``call_stack`` object "containing the initiator information and the stack
trace".  For asynchronous JavaScript "the stack trace that preceded the
request is prepended in the stack" — DevTools represents this as a chain of
``parent`` stack traces; flattening that chain gives the full ancestry the
labeler and the call-stack analysis (Figure 5) operate on.
"""

from __future__ import annotations

from .._record import FrozenRecord, set_field
from ..webmodel.resources import Frame

__all__ = ["CallFrame", "CallStack", "Frame"]


class CallFrame(FrozenRecord):
    """One stack frame as DevTools reports it."""

    __slots__ = ("url", "function_name", "line_number", "column_number")

    url: str
    function_name: str
    line_number: int
    column_number: int

    def __init__(
        self, url: str, function_name: str, line_number: int = 0, column_number: int = 0
    ) -> None:
        set_field(self, "url", url)
        set_field(self, "function_name", function_name)
        set_field(self, "line_number", line_number)
        set_field(self, "column_number", column_number)

    @property
    def script_url(self) -> str:
        return self.url

    @property
    def method(self) -> str:
        return self.function_name

    def as_frame(self) -> Frame:
        return Frame(script_url=self.url, method=self.function_name)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.url}@{self.function_name}()"


class CallStack(FrozenRecord):
    """A stack trace, optionally chained to the async stack that spawned it.

    ``frames[0]`` is the innermost frame — the method that actually issued
    the request (the *initiator*).  ``parent`` is the stack captured when
    the asynchronous task was scheduled (``setTimeout``, promise, XHR
    callback); per the paper it is prepended, i.e. its frames extend the
    ancestry below ours.
    """

    __slots__ = ("frames", "parent", "description")

    frames: tuple[CallFrame, ...]
    parent: CallStack | None
    description: str

    def __init__(
        self,
        frames: tuple[CallFrame, ...],
        parent: CallStack | None = None,
        description: str = "",
    ) -> None:
        if not frames and parent is None:
            raise ValueError("a call stack needs at least one frame")
        set_field(self, "frames", frames)
        set_field(self, "parent", parent)
        set_field(self, "description", description)

    @property
    def initiator(self) -> CallFrame:
        """The frame that issued the request (top of the innermost stack)."""
        if self.frames:
            return self.frames[0]
        assert self.parent is not None
        return self.parent.initiator

    @property
    def initiator_script(self) -> str:
        return self.initiator.url

    @property
    def initiator_method(self) -> str:
        return self.initiator.function_name

    def flattened(self) -> tuple[CallFrame, ...]:
        """All frames, innermost first, across the async parent chain."""
        out: list[CallFrame] = list(self.frames)
        parent = self.parent
        while parent is not None:
            out.extend(parent.frames)
            parent = parent.parent
        return tuple(out)

    def scripts(self) -> tuple[str, ...]:
        """Unique script URLs in ancestry order (innermost first)."""
        seen: set[str] = set()
        out: list[str] = []
        for frame in self.flattened():
            if frame.url not in seen:
                seen.add(frame.url)
                out.append(frame.url)
        return tuple(out)

    @property
    def depth(self) -> int:
        return len(self.flattened())

    def to_dict(self) -> dict:
        """Serialise to the JSON shape DevTools uses."""
        data: dict = {
            "callFrames": [
                {
                    "url": f.url,
                    "functionName": f.function_name,
                    "lineNumber": f.line_number,
                    "columnNumber": f.column_number,
                }
                for f in self.frames
            ]
        }
        if self.description:
            data["description"] = self.description
        if self.parent is not None:
            data["parent"] = self.parent.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CallStack":
        frames = tuple(
            CallFrame(
                url=f.get("url", ""),
                function_name=f.get("functionName", ""),
                line_number=int(f.get("lineNumber", 0)),
                column_number=int(f.get("columnNumber", 0)),
            )
            for f in data.get("callFrames", ())
        )
        parent_data = data.get("parent")
        parent = cls.from_dict(parent_data) if parent_data else None
        return cls(
            frames=frames,
            parent=parent,
            description=data.get("description", ""),
        )

    @classmethod
    def from_frames(
        cls,
        frames: tuple[Frame, ...] | list[Frame],
        async_frames: tuple[Frame, ...] | list[Frame] = (),
    ) -> "CallStack":
        """Build a stack from webmodel frames; async frames become parent."""
        call_frames = tuple(
            CallFrame(url=f.script_url, function_name=f.method) for f in frames
        )
        parent = None
        if async_frames:
            parent = cls(
                frames=tuple(
                    CallFrame(url=f.script_url, function_name=f.method)
                    for f in async_frames
                ),
                description="async",
            )
        return cls(frames=call_frames, parent=parent)
