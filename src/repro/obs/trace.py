"""Structured tracing: lightweight spans over the monotonic clock.

A :class:`Tracer` collects :class:`SpanRecord` objects — named, timed,
attribute-carrying intervals with parent/child nesting.  Instrumented
code never holds a tracer reference: it calls the module-level
:func:`span` context manager, which resolves the *active* tracer through
a :mod:`contextvars` variable (so nesting follows threads and asyncio
tasks correctly) and is a cheap no-op when no tracer is active — the
engine, the artifact compiler and the serve layer all stay instrumented
at zero cost until someone attaches a tracer.

Spans cross process boundaries as plain dicts: a shard worker runs its
own tracer, ships :meth:`Tracer.export` output back with its
:class:`~repro.core.parallel.ShardOutcome`, and the parent
:meth:`Tracer.adopt`\\ s the records under its fan-out span — ids are
remapped on adoption, so worker-local ids can never collide.

The JSONL export (one span per line, ``trackersift`` writes it via
``--trace-out``) feeds :func:`summarize_spans`: per-stage totals plus
the critical path — the single deepest root-to-leaf chain by duration,
which is where wall-clock optimization effort should go first.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

from .._record import Record

__all__ = [
    "SpanRecord",
    "Tracer",
    "current_tracer",
    "reset_context",
    "span",
    "summarize_spans",
    "render_summary",
    "read_spans",
]

_ACTIVE_TRACER: contextvars.ContextVar["Tracer | None"] = contextvars.ContextVar(
    "trackersift_tracer", default=None
)
_ACTIVE_SPAN: contextvars.ContextVar[int] = contextvars.ContextVar(
    "trackersift_span", default=0
)


class SpanRecord(Record):
    """One completed (or synthetic) span.

    ``start`` is a monotonic-clock reading local to the process that
    recorded the span; durations are comparable across processes, start
    offsets only within one.  ``span_id`` 0 is reserved for "no parent".
    """

    __slots__ = ("span_id", "parent_id", "name", "start", "duration", "attrs")

    span_id: int
    parent_id: int
    name: str
    start: float
    duration: float
    attrs: dict

    def __init__(
        self,
        span_id: int,
        parent_id: int,
        name: str,
        start: float,
        duration: float,
        attrs: dict | None = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.duration = duration
        self.attrs = {} if attrs is None else attrs

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SpanRecord":
        return cls(
            span_id=int(record["span_id"]),
            parent_id=int(record["parent_id"]),
            name=str(record["name"]),
            start=float(record["start"]),
            duration=float(record["duration"]),
            attrs=dict(record.get("attrs") or {}),
        )


class Tracer:
    """Collects spans; thread-safe; activated via :meth:`activate`.

    >>> tracer = Tracer()
    >>> with tracer.activate():
    ...     with span("study", sites=10):
    ...         with span("crawl"):
    ...             pass
    >>> [record.name for record in tracer.records]
    ['crawl', 'study']
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._next_id = 1

    @property
    def records(self) -> tuple[SpanRecord, ...]:
        with self._lock:
            return tuple(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def _new_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Make this tracer the ambient one for the current context.

        Also starts a fresh span stack: a span id inherited from another
        tracer's context (e.g. across a process fork) belongs to that
        tracer's id space and must not parent spans recorded here.
        """
        token = _ACTIVE_TRACER.set(self)
        span_token = _ACTIVE_SPAN.set(0)
        try:
            yield self
        finally:
            _ACTIVE_SPAN.reset(span_token)
            _ACTIVE_TRACER.reset(token)

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[SpanRecord]:
        """Record a timed span, nested under the context's active span."""
        span_id = self._new_id()
        parent = _ACTIVE_SPAN.get()
        token = _ACTIVE_SPAN.set(span_id)
        record = SpanRecord(
            span_id=span_id,
            parent_id=parent,
            name=name,
            start=time.monotonic(),
            duration=0.0,
            attrs=dict(attrs),
        )
        started = time.perf_counter()
        try:
            yield record
        finally:
            record.duration = time.perf_counter() - started
            _ACTIVE_SPAN.reset(token)
            with self._lock:
                self._records.append(record)

    def add(
        self,
        name: str,
        duration: float,
        *,
        parent_id: int | None = None,
        start: float | None = None,
        **attrs,
    ) -> SpanRecord:
        """Record a synthetic span with an externally-measured duration.

        The engine uses this for stage times that are *accumulated*
        across an interleaved loop (crawl vs label inside one shard walk)
        and therefore have no single contiguous interval.  With no
        explicit ``parent_id`` the context's active span is the parent.
        """
        record = SpanRecord(
            span_id=self._new_id(),
            parent_id=(
                parent_id if parent_id is not None else _ACTIVE_SPAN.get()
            ),
            name=name,
            start=time.monotonic() if start is None else start,
            duration=duration,
            attrs=dict(attrs),
        )
        with self._lock:
            self._records.append(record)
        return record

    def adopt(
        self, records: Iterable[dict], *, parent_id: int | None = None
    ) -> int:
        """Graft exported spans (e.g. from a worker process) into this
        tracer, re-parenting their roots under ``parent_id`` (default:
        the context's active span).  Ids are remapped, so adopting the
        same worker export twice can never alias.  Returns how many
        spans were adopted."""
        root = parent_id if parent_id is not None else _ACTIVE_SPAN.get()
        imported = [SpanRecord.from_dict(record) for record in records]
        mapping: dict[int, int] = {}
        for record in imported:
            mapping[record.span_id] = self._new_id()
        with self._lock:
            for record in imported:
                self._records.append(
                    SpanRecord(
                        span_id=mapping[record.span_id],
                        parent_id=mapping.get(record.parent_id, root),
                        name=record.name,
                        start=record.start,
                        duration=record.duration,
                        attrs=record.attrs,
                    )
                )
        return len(imported)

    # -- export --------------------------------------------------------------
    def export(self) -> list[dict]:
        with self._lock:
            return [record.to_dict() for record in self._records]

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in self.export()
        )

    def write_jsonl(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path


def current_tracer() -> Tracer | None:
    """The context's active tracer, or ``None`` when tracing is off."""
    return _ACTIVE_TRACER.get()


def reset_context() -> None:
    """Drop any inherited tracer/span context.

    Forked worker processes inherit the parent's contextvars wholesale;
    the parent's active span id is meaningless in the child's tracer and
    would corrupt parentage of everything the child records (worst case
    it aliases a child-local id).  Pool initializers call this first.
    """
    _ACTIVE_TRACER.set(None)
    _ACTIVE_SPAN.set(0)


class _NullSpan:
    """Shared no-op context manager — the cost of tracing when disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """Open a span on the active tracer; a shared no-op without one.

    This is the one instrumentation entry point the rest of the codebase
    uses — call sites never need to thread a tracer object around.
    """
    tracer = _ACTIVE_TRACER.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def add_span(name: str, duration: float, **attrs) -> SpanRecord | None:
    """Synthetic-span twin of :func:`span`; no-op without a tracer."""
    tracer = _ACTIVE_TRACER.get()
    if tracer is None:
        return None
    return tracer.add(name, duration, **attrs)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def read_spans(path: str | Path) -> list[dict]:
    """Load a ``--trace-out`` JSONL file back into span dicts."""
    records: list[dict] = []
    for line_number, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path}:{line_number}: not a JSON span record: {error}"
            ) from None
        if not isinstance(record, dict) or "name" not in record:
            raise ValueError(
                f"{path}:{line_number}: span records need at least a 'name'"
            )
        records.append(record)
    return records


def summarize_spans(records: list[dict]) -> dict:
    """Per-stage time breakdown plus the critical path.

    * ``stages``: per span name — count, total/mean/max duration, and
      *self* time (duration minus child durations, so interleaved
      parents don't double-count their children);
    * ``critical_path``: the root-to-leaf chain with the largest summed
      duration — the chain to attack first when the wall-clock is too
      long;
    * ``wall_seconds``: total duration of root spans (no parent in the
      file).
    """
    spans = [SpanRecord.from_dict(record) for record in records]
    by_id = {record.span_id: record for record in spans}
    children: dict[int, list[SpanRecord]] = {}
    roots: list[SpanRecord] = []
    for record in spans:
        if record.parent_id in by_id:
            children.setdefault(record.parent_id, []).append(record)
        else:
            roots.append(record)

    stages: dict[str, dict] = {}
    for record in spans:
        entry = stages.setdefault(
            record.name,
            {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0,
             "self_seconds": 0.0},
        )
        entry["count"] += 1
        entry["total_seconds"] += record.duration
        entry["max_seconds"] = max(entry["max_seconds"], record.duration)
        child_total = sum(
            child.duration for child in children.get(record.span_id, [])
        )
        entry["self_seconds"] += max(0.0, record.duration - child_total)
    for entry in stages.values():
        entry["mean_seconds"] = (
            entry["total_seconds"] / entry["count"] if entry["count"] else 0.0
        )

    def deepest(record: SpanRecord) -> tuple[float, list[SpanRecord]]:
        best_cost, best_chain = 0.0, []
        for child in children.get(record.span_id, []):
            cost, chain = deepest(child)
            if cost > best_cost:
                best_cost, best_chain = cost, chain
        return record.duration + best_cost, [record] + best_chain

    critical: list[SpanRecord] = []
    critical_cost = 0.0
    for root in roots:
        cost, chain = deepest(root)
        if cost > critical_cost:
            critical_cost, critical = cost, chain

    return {
        "spans": len(spans),
        "wall_seconds": sum(record.duration for record in roots),
        "stages": stages,
        "critical_path": [
            {
                "name": record.name,
                "duration_seconds": record.duration,
                "attrs": record.attrs,
            }
            for record in critical
        ],
        "critical_path_seconds": critical_cost,
    }


def render_summary(summary: dict) -> str:
    """Human-readable rendering of :func:`summarize_spans` output."""
    lines = [
        f"{summary['spans']} spans, "
        f"{summary['wall_seconds']:.3f}s total root wall-clock",
        "",
        f"{'stage':28s} {'count':>6s} {'total':>9s} {'self':>9s} "
        f"{'mean':>9s} {'max':>9s}",
    ]
    ordered = sorted(
        summary["stages"].items(),
        key=lambda item: item[1]["total_seconds"],
        reverse=True,
    )
    for name, entry in ordered:
        lines.append(
            f"{name:28s} {entry['count']:>6d} "
            f"{entry['total_seconds']:>8.3f}s {entry['self_seconds']:>8.3f}s "
            f"{entry['mean_seconds']:>8.3f}s {entry['max_seconds']:>8.3f}s"
        )
    lines.append("")
    lines.append(
        f"critical path ({summary['critical_path_seconds']:.3f}s):"
    )
    for hop in summary["critical_path"]:
        attrs = ""
        if hop["attrs"]:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(hop["attrs"].items())
            )
            attrs = f"  [{rendered}]"
        lines.append(
            f"  {hop['name']:26s} {hop['duration_seconds']:>8.3f}s{attrs}"
        )
    return "\n".join(lines)
