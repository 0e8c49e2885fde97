"""A fork-safe layer timer that wraps the program's public functions from
outside.

:class:`LayerTimer` replaces a function (or method, or generator
function) with a wrapper that times each call and keeps a per-process
stack, so every layer gets *self* time: its wall time minus the time of
wrapped calls made inside it.  A generator function is timed per
``next()``, so a streaming stage is charged only for the work it does
between the items it yields.

Counters live in an anonymous shared ``mmap`` created before any fork:
one row per process (claimed on the first call a process records, under a
lock created with the table), four doubles per layer — calls, total
seconds, self seconds, items.  Forked children (fan-out shard workers, a
supervised serve worker) inherit the wrappers and the mapping and write
their own rows, so the parent can read every process's numbers without
any cooperation from the program.

Coarse calls (a page load, a label chunk, a sift, a reload) are also
recorded as spans, by the process that created the timer only, and
:meth:`LayerTimer.write_spans` writes them in the JSONL form that
``python -m repro trace summarize`` reads.

:func:`install` lists which public names stand for which layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import mmap
import multiprocessing
import os
import time
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Sequence

#: Per-layer fields in every process row.
FIELDS = ("calls", "total_s", "self_s", "items")

#: Processes the shared table has rows for: the benchmark or rep process,
#: the serve worker, and every fan-out shard worker a study starts.
MAX_PROCESSES = 64

#: The layers :func:`install` times, in table order.  ``study.run`` is the
#: root span a study rep opens around ``run()``: its self time is the
#: part of the run no wrapped layer accounts for.
LAYERS = (
    "study.run",
    "webmodel.generate",
    "browser.load",
    "labeling.iter_labeled",
    "urlkit.hostname",
    "urlkit.registrable_domain",
    "urlkit.is_third_party",
    "filterlists.oracle",
    "filterlists.cache",
    "filterlists.matcher",
    "filterlists.build",
    "filterlists.compile",
    "filterlists.image_open",
    "core.accumulate",
    "core.sift",
    "core.fanout_materialize",
    "core.parent_wait",
    "serve.validate",
    "serve.service",
    "serve.swap",
    "serve.reload",
)


class LayerTimer:
    """Self-time accounting for wrapped calls across forked processes."""

    def __init__(self, layers: Sequence[str] = LAYERS) -> None:
        self.layers = tuple(layers)
        self._slot = {name: index for index, name in enumerate(self.layers)}
        self._width = 1 + len(FIELDS) * len(self.layers)
        self._map = mmap.mmap(-1, 8 * (1 + MAX_PROCESSES * self._width))
        self._table = memoryview(self._map).cast("d")
        self._lock = multiprocessing.get_context("fork").Lock()
        self._owner = os.getpid()
        self._base = -1
        self._stack: list[list] = []
        self._spans: list[dict] = []
        self._next_span = 1
        self._patches: list[tuple] = []
        ref = weakref.ref(self)

        def after_fork() -> None:
            timer = ref()
            if timer is not None:
                timer._base = -1
                timer._stack = []
                timer._spans = []

        os.register_at_fork(after_in_child=after_fork)

    # -- recording -----------------------------------------------------------
    def _claim(self) -> int:
        with self._lock:
            row = int(self._table[0])
            if row >= MAX_PROCESSES:
                raise RuntimeError(f"layer table full ({MAX_PROCESSES} processes)")
            self._table[0] = row + 1
        base = 1 + row * self._width
        self._table[base] = os.getpid()
        self._base = base
        return base

    def _enter(self, span: str | None = None, attrs: dict | None = None) -> None:
        span_id = 0
        if span is not None and os.getpid() == self._owner:
            span_id = self._next_span
            self._next_span += 1
        self._stack.append([time.perf_counter(), 0.0, span_id, span, attrs])

    def _exit(self, slot: int, items: float = 0.0) -> None:
        ended = time.perf_counter()
        started, children, span_id, span, attrs = self._stack.pop()
        elapsed = ended - started
        if self._stack:
            self._stack[-1][1] += elapsed
        base = self._base if self._base >= 0 else self._claim()
        table = self._table
        at = base + 1 + len(FIELDS) * slot
        table[at] += 1.0
        table[at + 1] += elapsed
        table[at + 2] += elapsed - children
        table[at + 3] += items
        if span_id:
            parent_span = next(
                (frame[2] for frame in reversed(self._stack) if frame[2]), 0
            )
            self._spans.append(
                {
                    "span_id": span_id,
                    "parent_id": parent_span,
                    "name": span,
                    "start": started,
                    "duration": elapsed,
                    "attrs": attrs or {},
                }
            )

    @contextmanager
    def span(self, layer: str, **attrs):
        """Time a block as ``layer`` and record it as a span."""
        slot = self._slot[layer]
        self._enter(layer, attrs)
        try:
            yield
        finally:
            self._exit(slot)

    # -- wrapping ------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        *,
        items: Callable | None = None,
        span: bool = False,
    ) -> None:
        """Replace ``owner.attr`` (a module function, method, static or
        class method, or generator function) with a timed wrapper charged
        to ``layer``.  ``items(args, kwargs, result)`` counts the work
        items a call handled; ``span`` also records each call as a span."""
        raw = inspect.getattr_static(owner, attr)
        descriptor = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        function = raw.__func__ if descriptor else getattr(owner, attr)
        slot = self._slot[layer]
        name = layer if span else None
        timer = self

        if inspect.isgeneratorfunction(function):
            def wrapper(*args, **kwargs):
                return timer._timed_iter(function(*args, **kwargs), slot)
        else:
            def wrapper(*args, **kwargs):
                timer._enter(name)
                count = 0.0
                try:
                    result = function(*args, **kwargs)
                    if items is not None:
                        count = items(args, kwargs, result)
                    return result
                finally:
                    timer._exit(slot, count)

        wrapper = functools.wraps(function)(wrapper)
        # A method inherited from a base class is restored by deleting the
        # subclass attribute again; everything else by putting it back.
        inherited = isinstance(owner, type) and attr not in vars(owner)
        self._patches.append((owner, attr, raw, inherited))
        setattr(owner, attr, descriptor(wrapper) if descriptor else wrapper)

    def _timed_iter(self, generator, slot: int):
        while True:
            self._enter()
            try:
                item = next(generator)
            except StopIteration:
                self._exit(slot)
                return
            except BaseException:
                self._exit(slot)
                raise
            self._exit(slot, 1.0)
            yield item

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._patches:
            owner, attr, raw, inherited = self._patches.pop()
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- reading -------------------------------------------------------------
    def snapshot(self) -> dict[int, dict[str, list[float]]]:
        """``{pid: {layer: [calls, total_s, self_s, items]}}`` for every
        process that recorded anything."""
        table = self._table
        rows = int(table[0])
        out: dict[int, dict[str, list[float]]] = {}
        for row in range(rows):
            base = 1 + row * self._width
            pid = int(table[base])
            layers = out.setdefault(pid, {})
            for name, slot in self._slot.items():
                at = base + 1 + len(FIELDS) * slot
                values = [table[at + k] for k in range(len(FIELDS))]
                if any(values):
                    current = layers.get(name)
                    layers[name] = (
                        values if current is None
                        else [a + b for a, b in zip(current, values)]
                    )
        return out

    def write_spans(self, path: str | Path) -> Path:
        """Write the recorded spans as JSONL (``trace summarize`` input)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "".join(json.dumps(s, sort_keys=True) + "\n" for s in self._spans),
            encoding="utf-8",
        )
        return path


def delta(after: dict, before: dict) -> dict:
    """Per-process, per-layer difference of two :meth:`snapshot` results."""
    out: dict = {}
    for pid, layers in after.items():
        prior = before.get(pid, {})
        rows = {}
        for name, values in layers.items():
            base = prior.get(name, [0.0] * len(FIELDS))
            diff = [a - b for a, b in zip(values, base)]
            if any(diff):
                rows[name] = diff
        if rows:
            out[pid] = rows
    return out


def totals(snapshot: dict, pids=None) -> dict[str, list[float]]:
    """Sum a snapshot's rows over ``pids`` (default: every process)."""
    out: dict[str, list[float]] = {}
    for pid, layers in snapshot.items():
        if pids is not None and pid not in pids:
            continue
        for name, values in layers.items():
            current = out.setdefault(name, [0.0] * len(FIELDS))
            for index, value in enumerate(values):
                current[index] += value
    return out


def _count_result(args, kwargs, result) -> float:
    return float(len(result))


def _count_validated(args, kwargs, result) -> float:
    validated = args[1] if len(args) > 1 else kwargs["validated"]
    return float(len(validated))


def _artifact_bytes(args, kwargs, result) -> float:
    return float(result.get("bytes", 0))


def install(timer: LayerTimer) -> LayerTimer:
    """Wrap the public names that stand for each layer of the program.

    The urlkit functions are wrapped where the labeler and the oracle
    import them, so only the calls those two layers make are charged to
    urlkit.
    """
    from repro.browser.engine import BrowserEngine
    from repro.core import engine, parallel
    from repro.filterlists import compile as compile_module
    from repro.filterlists import oracle as oracle_module
    from repro.filterlists.cache import CachedMatcher
    from repro.filterlists.image import ImageMatcher
    from repro.filterlists.matcher import FilterMatcher
    from repro.labeling import labeler as labeler_module
    from repro.serve.service import BlockingService
    from repro.serve.supervisor import ServeSupervisor
    from repro.webmodel.generator import SyntheticWebGenerator

    wrap = timer.wrap
    wrap(SyntheticWebGenerator, "build", "webmodel.generate", span=True)
    wrap(BrowserEngine, "load", "browser.load", span=True)
    wrap(labeler_module.RequestLabeler, "iter_labeled", "labeling.iter_labeled")
    wrap(labeler_module, "hostname", "urlkit.hostname")
    wrap(labeler_module, "registrable_domain", "urlkit.registrable_domain")
    wrap(oracle_module, "hostname", "urlkit.hostname")
    wrap(oracle_module, "is_third_party", "urlkit.is_third_party")
    wrap(oracle_module.FilterListOracle, "label_request_many",
         "filterlists.oracle", items=_count_result, span=True)
    wrap(CachedMatcher, "match_many", "filterlists.cache", items=_count_result)
    wrap(FilterMatcher, "match", "filterlists.matcher")
    wrap(ImageMatcher, "match", "filterlists.matcher")
    wrap(FilterMatcher, "from_lists", "filterlists.build")
    wrap(compile_module, "compile_matcher", "filterlists.compile",
         items=_artifact_bytes, span=True)
    wrap(compile_module, "open_image", "filterlists.image_open")
    wrap(engine.SiftAccumulator, "add", "core.accumulate")
    wrap(engine.SiftAccumulator, "merge", "core.sift")
    wrap(engine.SiftAccumulator, "report", "core.sift", span=True)
    wrap(parallel.ShardSliceStore, "materialize", "core.fanout_materialize")
    wrap(parallel, "run_shards_leased", "core.parent_wait", span=True)
    wrap(BlockingService, "validate_requests", "serve.validate")
    wrap(BlockingService, "decide_validated", "serve.service",
         items=_count_validated)
    wrap(BlockingService, "swap_image", "serve.swap")
    wrap(ServeSupervisor, "reload", "serve.reload", span=True)
    return timer
