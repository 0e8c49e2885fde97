"""Serve telemetry: counters, latency windows, the shared board, exposition.

The serving stack's telemetry is named numbers in plain dicts.  A
:class:`~repro.serve.service.BlockingService` counts with thread-safe
:class:`Counter`\\ s and a :class:`LatencyWindow`; a supervised worker
copies those raw counters into its slot of a :class:`SharedBoard`.
:func:`serving_blocks` turns raw counters plus sorted latency samples
into the ``decisions``/``cache``/``latency`` blocks of ``/metrics`` —
for one service and for the merged fleet alike — and
:func:`prometheus_from_dict` flattens any such payload into Prometheus
text, so JSON and Prometheus are two renderings of one dict.

:class:`SharedBoard` is the cross-process part: named scalar fields per
worker slot (plus a latency-sample ring and a parent-owned fleet
region) over an anonymous shared ``mmap`` viewed as doubles, without
locks: single writer per region, torn reads acceptable (monitoring, not
ledger).
"""

from __future__ import annotations

import mmap
import re
import threading
from collections import deque
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "LatencyWindow",
    "SharedBoard",
    "serving_blocks",
    "prometheus_from_dict",
    "nearest_rank",
    "wants_prometheus",
    "PROMETHEUS_CONTENT_TYPE",
]


def nearest_rank(data: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over *sorted* data: ceil(q/100*n), 1-based.

    The one percentile definition every latency view in the repo uses
    (service window, merged cross-worker board), factored out so they
    cannot drift."""
    if not data:
        return 0.0
    rank = -(-q * len(data) // 100)
    return data[min(len(data) - 1, max(0, int(rank) - 1))]


class Counter:
    """Monotonic counter; thread-safe."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class LatencyWindow:
    """Sliding window of recent latencies, for p50/p99 metrics.

    ``count`` and ``total`` cover every observation ever made; the
    window keeps the most recent ``size`` samples for percentiles.
    """

    def __init__(self, size: int = 4096) -> None:
        self._samples: deque[float] = deque(maxlen=size)
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)
            self.count += 1
            self.total += seconds

    def observe_many(self, seconds_each: float, count: int) -> None:
        """Record ``count`` samples of ``seconds_each`` under one lock —
        the batch path's per-decision latency, amortized over the batch."""
        if count <= 0:
            return
        with self._lock:
            self._samples.extend([seconds_each] * count)
            self.count += count
            self.total += seconds_each * count

    def drain_since(self, cursor: int) -> tuple[int, list[float]]:
        """Samples recorded after observation number ``cursor`` (bounded
        by the window), plus the new cursor — the incremental read the
        supervisor's shared-board publisher makes, so per-worker latency
        samples reach the merged ``/metrics`` view without re-copying
        the whole window every tick."""
        with self._lock:
            new = self.count
            fresh = new - cursor
            if fresh <= 0:
                return new, []
            take = min(fresh, len(self._samples))
            data = list(self._samples)[-take:] if take else []
        return new, data

    def sorted_samples(self) -> list[float]:
        with self._lock:
            return sorted(self._samples)


def serving_blocks(counters: Mapping[str, float], samples: Sequence[float]) -> dict:
    """The ``decisions``, ``cache`` and ``latency`` blocks of ``/metrics``.

    ``counters`` holds raw totals named like the supervisor board's slot
    fields (``served``, ``batches``, ``blocked``, ``reloads``, ``hits``,
    ``misses``, ``entries``, ``observed``, ``total_s``); ``samples`` are
    recent latencies in seconds, sorted.  A single service and the
    merged fleet both build their blocks here, so the two views cannot
    disagree on a name or a formula.
    """
    hits = int(counters["hits"])
    misses = int(counters["misses"])
    lookups = hits + misses
    observed = int(counters["observed"])
    return {
        "decisions": {
            name: int(counters[name])
            for name in ("served", "batches", "blocked", "reloads")
        },
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / lookups) if lookups else 0.0,
            "entries": int(counters["entries"]),
        },
        "latency": {
            "observed": observed,
            "window": len(samples),
            "mean_ms": (counters["total_s"] / observed * 1e3) if observed else 0.0,
            "p50_ms": nearest_rank(samples, 50) * 1e3,
            "p99_ms": nearest_rank(samples, 99) * 1e3,
        },
    }


# ---------------------------------------------------------------------------
# Cross-process shared mode
# ---------------------------------------------------------------------------

class SharedBoard:
    """Named-field view over a shared array of doubles, without locks.

    Layout: ``workers`` slots of ``len(fields) + ring`` doubles (scalar
    fields, then a latency-sample ring addressed by the slot's
    ``cursor`` field), followed by one parent-owned *fleet* region of
    ``len(fleet_fields)`` doubles.  Single writer per region — each
    worker owns its slot, the parent owns the fleet region — and torn
    reads are acceptable: this is monitoring, not the ledger.

    Construct either around a fresh shared array (:meth:`create`) or
    around the raw array a worker inherited over fork (the constructor).
    """

    CURSOR = "cursor"

    def __init__(
        self,
        array,
        fields: Sequence[str],
        workers: int,
        ring: int,
        fleet_fields: Sequence[str] = (),
    ) -> None:
        if self.CURSOR not in fields and ring:
            raise ValueError("a sample ring needs a 'cursor' field")
        self.array = array
        self.fields = tuple(fields)
        self.workers = workers
        self.ring = ring
        self.fleet_fields = tuple(fleet_fields)
        self._index = {name: i for i, name in enumerate(self.fields)}
        self._fleet_index = {
            name: i for i, name in enumerate(self.fleet_fields)
        }
        self.slot_size = len(self.fields) + ring
        self._fleet_base = workers * self.slot_size

    @classmethod
    def size(
        cls,
        fields: Sequence[str],
        workers: int,
        ring: int,
        fleet_fields: Sequence[str] = (),
    ) -> int:
        return workers * (len(fields) + ring) + len(fleet_fields)

    @classmethod
    def create(
        cls,
        fields: Sequence[str],
        workers: int,
        ring: int,
        fleet_fields: Sequence[str] = (),
    ) -> "SharedBoard":
        """A zeroed board in an anonymous shared map, which a forked
        child sees and writes through, like its parent.  A plain
        ``mmap`` view needs neither ``ctypes`` nor multiprocessing's
        shared heap."""
        size = cls.size(fields, workers, ring, fleet_fields)
        array = memoryview(mmap.mmap(-1, 8 * size)).cast("d")
        return cls(array, fields, workers, ring, fleet_fields)

    # -- worker slots --------------------------------------------------------
    def write_slot(self, worker: int, values: Mapping[str, float]) -> None:
        base = worker * self.slot_size
        for name, value in values.items():
            self.array[base + self._index[name]] = float(value)

    def read_slot(self, worker: int) -> dict:
        base = worker * self.slot_size
        return {
            name: self.array[base + index]
            for name, index in self._index.items()
        }

    def append_samples(self, worker: int, samples: Iterable[float]) -> None:
        """Write samples into the slot's ring at its cursor, advancing it.

        The cursor counts *all* samples ever written (monotonic), so
        readers know how many ring entries are valid (``min(cursor,
        ring)``) and the supervisor's merged percentile view stays a
        recent-window estimate, same as the in-process window."""
        base = worker * self.slot_size
        ring_base = base + len(self.fields)
        cursor_at = base + self._index[self.CURSOR]
        write_at = int(self.array[cursor_at])
        for sample in samples:
            self.array[ring_base + (write_at % self.ring)] = sample
            write_at += 1
        self.array[cursor_at] = float(write_at)

    def read_samples(self, worker: int) -> list[float]:
        base = worker * self.slot_size
        ring_base = base + len(self.fields)
        valid = min(int(self.array[base + self._index[self.CURSOR]]), self.ring)
        return list(self.array[ring_base : ring_base + valid]) if valid else []

    # -- fleet region (parent-owned) ----------------------------------------
    def write_fleet(self, values: Mapping[str, float]) -> None:
        for name, value in values.items():
            self.array[self._fleet_base + self._fleet_index[name]] = float(value)

    def read_fleet(self) -> dict:
        return {
            name: self.array[self._fleet_base + index]
            for name, index in self._fleet_index.items()
        }


# ---------------------------------------------------------------------------
# Prometheus exposition from arbitrary metrics JSON
# ---------------------------------------------------------------------------

_NOT_NAME_CHAR = re.compile(r"[^A-Za-z0-9_]")


def _sanitize(component) -> str:
    """One path component as ASCII ``[A-Za-z0-9_]``: anything else,
    non-ASCII letters included, becomes ``_``."""
    return _NOT_NAME_CHAR.sub("_", str(component)) or "_"


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _flatten(value, path: list[str], out: list[tuple[str, str]]) -> None:
    if isinstance(value, (int, float)):
        out.append(("_".join(path), _format_value(value)))
    elif isinstance(value, Mapping):
        for key in value:
            _flatten(value[key], path + [_sanitize(key)], out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten(item, path + [str(index)], out)
    # strings and None carry no numeric value: skipped.


PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def wants_prometheus(query: str, accept: str) -> bool:
    """``/metrics`` content negotiation.

    Prometheus text is served for ``?format=prometheus`` or an ``Accept``
    header naming ``text/plain``; everything else keeps the JSON default
    (existing dashboards and the supervisor's merge path rely on it).
    """
    for pair in query.split("&"):
        if pair == "format=prometheus":
            return True
    return "text/plain" in (accept or "")


def prometheus_from_dict(payload: Mapping) -> str:
    """Flatten a metrics JSON payload into Prometheus text exposition.

    Every numeric leaf becomes a gauge named by its underscore-joined
    path (``{"decisions": {"served": 6}}`` →
    ``trackersift_decisions_served 6``); booleans become 0/1; strings
    are skipped.  ``/metrics`` serves Prometheus through this one
    function over the *same* dict it serves as JSON, so the two formats
    cannot disagree.

    Keys can come from a client (a reloaded list's option names reach
    ``snapshot.unsupported``), so names are forced valid: characters
    outside ``[A-Za-z0-9_]`` become ``_``, and a name that is already
    taken gets the first free ``_2``, ``_3``, … suffix — a scraper
    rejects a whole scrape that repeats a series.  Payloads whose paths
    flatten to distinct names keep exactly those names.
    """
    flat: list[tuple[str, str]] = []
    _flatten(payload, ["trackersift"], flat)
    taken = {name for name, _ in flat}
    emitted: set[str] = set()
    lines: list[str] = []
    for name, value in flat:
        if name in emitted:
            suffix = 2
            while f"{name}_{suffix}" in taken:
                suffix += 1
            name = f"{name}_{suffix}"
            taken.add(name)
        emitted.add(name)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {value}")
    return "\n".join(lines) + "\n"
