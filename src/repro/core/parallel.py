"""Lease-based, work-stealing shard execution on fork-inherited workers.

:class:`~repro.core.engine.StreamingPipeline` already proved that sharding
has zero semantic surface: per-site determinism (site-keyed coverage RNG,
``node_failure_seed`` keyed on the *cluster* assignment) means any
re-grouping of sites reproduces the batch crawl's exact observable
behaviour.  That is precisely the property that makes shards safe to run
in *separate processes* — and, since this revision, safe to run *twice*:
each worker crawls, labels and accumulates a shard completely
independently, serializes the resulting
:class:`~repro.core.engine.ShardState` (the same JSON the checkpoint files
hold), and the parent merges states through the exact same
:meth:`~repro.core.engine.SiftAccumulator.merge` path a sequential run
uses — so the output is bit-identical for every worker count, every retry
count, and every race outcome.

**Nothing is shipped to a worker; it inherits its work at fork.**  The
parent indexes the pending shards' sites once into an in-memory
:class:`ShardSliceStore`, then starts every worker (and every
replacement) with the ``fork`` start method, so each one is born holding
the store and the parent's oracle object — whatever its class — through
the :class:`WorkerSpec` it is handed.  Beyond the small lease messages
on its pipe, nothing goes to a worker serialized, written to disk or
compiled.  A worker's startup cost is building its private pipeline
around the inherited oracle; a shard's transfer cost is one store
lookup — both measured and shipped back in the :class:`ShardOutcome`
overhead fields.

**Shards are leased, not assigned.**  The previous fan-out handed a
``ProcessPoolExecutor`` a static future per shard; one crashed or hung
worker raised :class:`ShardExecutionError` and lost its in-flight shards
(``BrokenProcessPool`` takes the whole pool with it).  Now the parent
runs its own small scheduler (:func:`run_shards_leased`):

* **Leases with deadlines.**  Workers pull one shard lease at a time over
  a duplex pipe.  A background thread in each worker heartbeats while a
  shard is running; a lease that goes ``lease_seconds`` without a
  heartbeat is declared hung, the worker is killed, and the shard is
  re-queued.
* **Capped jittered retry.**  A failed execution (worker death, lease
  timeout, a transient crawl exception) re-queues the shard with
  exponential backoff plus deterministic jitter
  (:attr:`LeasePolicy.jitter_seed`), up to
  :attr:`LeasePolicy.max_failures` attempts.
* **Quarantine instead of dying.**  A shard that exhausts its attempts is
  quarantined — recorded with its full failure history in the
  :class:`LeaseReport` (and, via the engine, in a durable
  ``quarantine.json``) — and the run *completes*, explicitly degraded,
  instead of raising.  Strict callers (``quarantine=False``) get the old
  :class:`ShardExecutionError` behaviour.
* **Work stealing for stragglers.**  Heartbeats double as progress
  reports: when idle workers exist, the queue is drained, and a lease has
  run ``straggler_factor ×`` the median completed duration, the shard is
  *stolen* — a duplicate execution races the slow worker and the first
  result wins.  This is safe precisely because shard output is
  deterministic: both racers produce byte-identical state, so the gates
  that pin parallel output to sequential output stay enforced.
* **Worker restarts with backoff.**  Dead workers are replaced (up to
  :attr:`LeasePolicy.max_worker_restarts` per run) with exponential
  backoff between spawns, so a crash-looping fleet degrades instead of
  spinning.

**Fault injection is first-class.**  A :class:`~repro.faults.FaultPlan`
riding on the :class:`WorkerSpec` lets chaos tests schedule crashes,
hangs, stragglers and transient exceptions against exact ``(shard,
execution)`` coordinates — execution numbers are 1-based and monotonic
per shard (a retry or a stolen duplicate is a new execution), which makes
an entire chaos run deterministic and therefore comparable, byte for
byte, against a fault-free one.

Design notes carried over from the pool era:

* **The worker unit is a shard, the worker state is a process.**  Each
  worker process builds one :class:`_ShardWorker` (config, inherited
  oracle) at boot and reuses it for every lease, so the label cache stays
  warm across a worker's shards.
* **The parent stores outcomes as they complete**, preserving checkpoint
  semantics: a mid-run crash of the whole fleet loses only in-flight
  shards — everything already returned was checkpointed by the parent and
  resumes from disk.
* **Workers never checkpoint.**  Only the parent touches
  ``checkpoint_dir``, so there is exactly one writer per file and the
  durable atomic-write protocol (:mod:`repro.durable`) has a single
  enforcement point.
* **Cache counters travel with the outcome.**  Hits + misses always
  equals the number of labeled requests; the hit *rate* may differ from
  sequential (each worker warms its own copy of the cache it inherited
  at fork) and that is the only permitted difference.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..crawler.tranco import RankedSite
    from ..faults import FaultPlan
    from ..webmodel.website import Website
    from .engine import PipelineConfig

__all__ = [
    "LeasePolicy",
    "LeaseReport",
    "ShardOutcome",
    "ShardSlice",
    "ShardSliceStore",
    "WorkerSpec",
    "ShardExecutionError",
    "run_shards_leased",
]


@dataclass(frozen=True)
class ShardOutcome:
    """One shard's result as shipped from a worker back to the parent.

    ``state_json`` is exactly what :meth:`ShardState.to_json` produced in
    the worker — the parent re-hydrates and stores it through the same
    `_store` path a sequential crawl uses, so checkpoints written by a
    parallel run are indistinguishable from sequential ones.

    ``spans`` carries the worker-side trace for this shard as exported
    span dicts — always at least the ``worker.startup`` /
    ``worker.transfer`` / ``worker.compute`` synthetic spans (the parent
    derives the overhead *notes* from these), plus the full in-shard
    span tree when the parent ran with a tracer attached.  The parent
    :meth:`~repro.obs.trace.Tracer.adopt`\\ s them under its fan-out
    span.  ``crawl_digests`` / ``label_digests`` are the per-site
    determinism-ledger fingerprints (``(url, digest)`` pairs) collected
    when the parent runs with a ledger; empty otherwise.
    """

    shard_id: int
    state_json: str
    cache_hits: int
    cache_misses: int
    spans: tuple = ()
    crawl_digests: tuple = ()
    label_digests: tuple = ()


@dataclass(frozen=True)
class ShardSlice:
    """Everything one shard's crawl needs: its sites, websites, failures."""

    shard_id: int
    sites: "list[RankedSite]"
    websites: "list[Website]"
    failed_urls: set[str]

    @property
    def by_url(self) -> dict:
        return {website.url: website for website in self.websites}


class ShardSliceStore:
    """Per-shard site slices in memory — the parent's fan-out unit.

    The parent calls :meth:`materialize` once, before it starts the
    fleet; every worker is forked afterwards, so it inherits the whole
    store and :meth:`load` is a lookup — no slice is serialized, copied
    or written anywhere.
    """

    def __init__(self) -> None:
        self._slices: dict[int, ShardSlice] = {}

    def materialize(
        self,
        shard_ids: list[int],
        shard_sites: "list[list[RankedSite]]",
        by_url: dict,
        failed_urls: set[str],
    ) -> None:
        """Index one slice per pending shard.

        Each slice carries only its shard's sites, websites and failure
        subset.
        """
        for shard_id in shard_ids:
            sites = shard_sites[shard_id]
            self._slices[shard_id] = ShardSlice(
                shard_id=shard_id,
                sites=sites,
                websites=[
                    by_url[site.url] for site in sites if site.url in by_url
                ],
                failed_urls={
                    site.url for site in sites if site.url in failed_urls
                },
            )

    def load(self, shard_id: int) -> ShardSlice:
        """One shard's slice; a shard that was never materialized raises."""
        try:
            return self._slices[shard_id]
        except KeyError:
            raise KeyError(
                f"shard {shard_id} was never materialized"
            ) from None


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs, inherited at fork.

    ``store`` holds the pending shards' slices; ``oracle`` is the
    parent's own oracle object, of whatever class, so worker decisions
    are the sequential run's decisions by construction.  Workers start
    with the ``fork`` method and receive the spec as a process argument,
    which a forked process takes as-is, never serialized: both objects
    reach the worker as the parent's memory, shared copy-on-write.

    ``trace`` / ``ledger`` mirror the parent's observability state: with
    ``trace`` the worker activates a local tracer around each shard (so
    the full in-shard span tree ships back), with ``ledger`` the worker
    collects per-site determinism fingerprints.  Both default off — the
    baseline parallel path pays nothing.

    ``fault_plan`` is the chaos hook: workers consult it at the
    ``worker.shard`` site before each execution, so an injected crash,
    hang, straggler or transient exception lands on an exact ``(shard,
    execution)`` coordinate.  ``None`` (the default) costs nothing.
    """

    config: "PipelineConfig"
    shards: int
    store: ShardSliceStore
    oracle: object
    trace: bool = False
    ledger: bool = False
    fault_plan: "FaultPlan | None" = None


class ShardExecutionError(RuntimeError):
    """One or more shards exhausted their attempts; completed shards kept.

    ``failed_shards`` lists the shards whose work was lost.  With a
    ``checkpoint_dir`` every *completed* shard was already persisted by
    the parent, so re-running the pipeline resumes from those and only
    re-crawls the failed remainder.
    """

    def __init__(self, failures: list[tuple[int, BaseException]]) -> None:
        self.failed_shards = tuple(shard_id for shard_id, _ in failures)
        first = failures[0][1]
        super().__init__(
            f"{len(failures)} shard(s) failed "
            f"(shards {list(self.failed_shards)}): {first!r}; "
            "completed shards were stored and resume from checkpoint"
        )


@dataclass(frozen=True)
class LeasePolicy:
    """Knobs for the lease scheduler; defaults suit production studies.

    Tests and the chaos bench shrink the time constants so faults resolve
    in milliseconds; the *logic* is identical at every scale.
    """

    #: a lease this long without a heartbeat is hung: kill + re-queue.
    lease_seconds: float = 30.0
    #: worker heartbeat period while a shard is executing.
    heartbeat_seconds: float = 0.25
    #: failed executions before a shard is quarantined (the "N" in
    #: "shards that fail N times").
    max_failures: int = 3
    #: exponential retry backoff: base * 2**(failures-1), capped, then
    #: multiplied by a deterministic jitter in [1, 2).
    retry_base_seconds: float = 0.05
    retry_cap_seconds: float = 2.0
    #: steal a running lease once it exceeds
    #: max(straggler_min_seconds, straggler_factor * median completed
    #: duration) — only when workers are idle and the queue is drained.
    straggler_factor: float = 4.0
    straggler_min_seconds: float = 1.5
    #: replacement processes allowed per run (beyond the initial fleet).
    max_worker_restarts: int = 6
    #: backoff between replacement spawns (doubles, capped).
    restart_base_seconds: float = 0.05
    restart_cap_seconds: float = 1.0
    #: True: exhausted shards are quarantined and the run completes
    #: degraded.  False: the old strict behaviour — raise
    #: :class:`ShardExecutionError` once every attempt is spent.
    quarantine: bool = True
    #: seeds retry jitter so a chaos run's schedule is reproducible.
    jitter_seed: int = 0
    #: a worker that has not finished booting by then is replaced.
    ready_timeout_seconds: float = 60.0


@dataclass
class LeaseReport:
    """What the lease scheduler did — the engine folds this into notes.

    ``quarantined`` / ``failures`` map shard ids to their failure-reason
    histories; ``executions`` counts how many executions each shard
    started (1 == clean first attempt).
    """

    completed: int = 0
    leases_granted: int = 0
    retries: int = 0
    steals: int = 0
    steals_won: int = 0
    worker_crashes: int = 0
    worker_hangs: int = 0
    workers_restarted: int = 0
    restart_backoff_seconds: float = 0.0
    quarantined: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    executions: dict = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined)

    def to_notes(self) -> dict:
        """Flat float-valued counters for ``PipelineResult.notes``."""
        return {
            "lease_retries": float(self.retries),
            "leases_stolen": float(self.steals),
            "lease_steals_won": float(self.steals_won),
            "lease_worker_crashes": float(self.worker_crashes),
            "lease_worker_hangs": float(self.worker_hangs),
            "lease_workers_restarted": float(self.workers_restarted),
            "shards_quarantined": float(len(self.quarantined)),
        }

    def quarantine_record(self, max_failures: int) -> dict:
        """The ``quarantine.json`` payload for this report."""
        return {
            "format": 1,
            "max_failures": max_failures,
            "quarantined": [
                {
                    "shard": shard_id,
                    "failures": list(reasons),
                    "executions": self.executions.get(shard_id, 0),
                }
                for shard_id, reasons in sorted(self.quarantined.items())
            ],
        }


class _ShardWorker:
    """A worker process's resident crawl context.

    Wraps a private :class:`StreamingPipeline` (no checkpoint dir — the
    parent owns persistence) around the inherited oracle, and exposes
    exactly one operation: look up one shard's slice, crawl it, return
    its serialized state plus the label-cache delta and the overhead
    breakdown.
    """

    def __init__(self, spec: WorkerSpec) -> None:
        from ..obs.ledger import Ledger
        from .engine import StreamingPipeline

        started = time.perf_counter()
        self._pipeline = StreamingPipeline(
            spec.config,
            shards=spec.shards,
            oracle=spec.oracle,
            # A throwaway ledger switches on per-site digest collection;
            # the digests travel back with each outcome and the *parent's*
            # ledger records the merged chain.
            ledger=Ledger() if spec.ledger else None,
        )
        self._store = spec.store
        self._trace = spec.trace
        self._startup_seconds = time.perf_counter() - started
        self._startup_reported = False
        self._last_stats = self._stats()

    def _stats(self) -> tuple[int, int]:
        stats = self._pipeline.oracle.cache_stats
        return (stats.hits, stats.misses)

    def run(self, shard_id: int) -> ShardOutcome:
        from ..obs.trace import Tracer

        # One tracer per shard run: the worker.* synthetic spans always
        # ship (the parent derives its overhead notes from them); the full
        # in-shard span tree only when the parent traces too.
        tracer = Tracer()
        startup_seconds = (
            0.0 if self._startup_reported else self._startup_seconds
        )
        if startup_seconds:
            tracer.add("worker.startup", startup_seconds)
        loaded = time.perf_counter()
        shard_slice = self._store.load(shard_id)
        tracer.add(
            "worker.transfer", time.perf_counter() - loaded, shard=shard_id
        )
        if self._trace:
            with tracer.activate():
                with tracer.span("worker.compute", shard=shard_id):
                    state = self._pipeline._crawl_shard(
                        shard_id,
                        shard_slice.sites,
                        shard_slice.by_url,
                        shard_slice.failed_urls,
                    )
        else:
            computed = time.perf_counter()
            state = self._pipeline._crawl_shard(
                shard_id,
                shard_slice.sites,
                shard_slice.by_url,
                shard_slice.failed_urls,
            )
            tracer.add(
                "worker.compute",
                time.perf_counter() - computed,
                shard=shard_id,
            )
        crawl_digests, label_digests = self._pipeline.take_site_digests()
        hits, misses = self._stats()
        outcome = ShardOutcome(
            shard_id=shard_id,
            state_json=state.to_json(),
            cache_hits=hits - self._last_stats[0],
            cache_misses=misses - self._last_stats[1],
            spans=tuple(tracer.export()),
            crawl_digests=crawl_digests,
            label_digests=label_digests,
        )
        self._startup_reported = True
        self._last_stats = (hits, misses)
        return outcome

    def discard_partial(self) -> None:
        """Reset per-shard carry-over after a failed execution.

        A crawl that died mid-shard may have left ledger digests and
        cache-counter deltas behind; draining them here keeps the *next*
        outcome's digests and counters scoped to its own shard, which is
        what the accounting invariants assume.
        """
        self._pipeline.take_site_digests()
        self._last_stats = self._stats()


def _lease_worker_main(index, spec, policy, conn) -> None:
    """Worker process entry point: boot once, then serve leases forever.

    The protocol is tiny and one-directional per message:

    * parent → worker: ``("lease", shard_id, execution)`` or ``("stop",)``
    * worker → parent: ``("ready", index, pid)``, ``("boot-error", index,
      reason)``, ``("beat", index, shard, execution)``, ``("done", index,
      shard, execution, outcome)``, ``("fail", index, shard, execution,
      reason)``

    A background thread heartbeats while an execution is in flight; the
    send lock keeps its pipe writes from interleaving with result sends.
    Fault hooks fire per ``(shard, execution)`` coordinate *before* the
    crawl, so injected faults never leave partial state behind.
    """
    from ..faults import TransientFault
    from ..obs.trace import reset_context

    # Forked children inherit the parent's contextvars — including the
    # span that was active at fork time, whose id would alias into this
    # process's own tracer.  Start from a clean observability context.
    reset_context()
    send_lock = threading.Lock()

    def send(message) -> None:
        try:
            with send_lock:
                conn.send(message)
        except (BrokenPipeError, OSError):
            pass  # the parent is gone; our exit is imminent either way

    current = {"shard": None, "execution": 0, "beating": False}
    stop_beat = threading.Event()

    def heartbeat() -> None:
        while not stop_beat.wait(policy.heartbeat_seconds):
            if current["beating"]:
                send(("beat", index, current["shard"], current["execution"]))

    threading.Thread(
        target=heartbeat, name="lease-heartbeat", daemon=True
    ).start()
    try:
        worker = _ShardWorker(spec)
    except BaseException as error:  # noqa: BLE001 - reported, then exit
        send(("boot-error", index, f"{type(error).__name__}: {error}"))
        return
    send(("ready", index, os.getpid()))
    plan = spec.fault_plan
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _, shard_id, execution = message
        fault = (
            plan.at("worker.shard", shard_id, execution)
            if plan is not None
            else None
        )
        if fault is not None and fault.kind == "crash":
            os._exit(70)
        if fault is not None and fault.kind == "hang":
            # Heartbeats stay muted (beating never flips on): the parent
            # sees a silent lease, declares it hung and kills us.  The
            # exit below is only a backstop against enormous deadlines.
            time.sleep(fault.seconds)
            os._exit(71)
        current["shard"] = shard_id
        current["execution"] = execution
        current["beating"] = True
        try:
            if fault is not None and fault.kind == "slow":
                # A straggler, not a failure: sleep *while heartbeating*
                # so the parent steals the shard instead of killing us.
                time.sleep(fault.seconds)
            if fault is not None and fault.kind == "transient":
                raise TransientFault(
                    f"injected transient crawl fault "
                    f"(shard {shard_id}, execution {execution})"
                )
            outcome = worker.run(shard_id)
        except BaseException as error:  # noqa: BLE001 - shipped to parent
            worker.discard_partial()
            send(
                (
                    "fail",
                    index,
                    shard_id,
                    execution,
                    f"{type(error).__name__}: {error}",
                )
            )
        else:
            send(("done", index, shard_id, execution, outcome))
        finally:
            current["beating"] = False


class _LeasedWorker:
    """Parent-side handle on one worker process."""

    __slots__ = (
        "index",
        "process",
        "pipe",
        "ready",
        "lease",
        "assigned_at",
        "last_beat",
        "spawned_at",
    )

    def __init__(self, index, process, pipe, now) -> None:
        self.index = index
        self.process = process
        self.pipe = pipe
        self.ready = False
        self.lease = None  # (shard_id, execution) while one is out
        self.assigned_at = 0.0
        self.last_beat = now
        self.spawned_at = now


def run_shards_leased(
    spec: WorkerSpec,
    shard_ids: list[int],
    workers: int,
    store: Callable[[ShardOutcome], None],
    policy: LeasePolicy | None = None,
) -> LeaseReport:
    """Crawl ``shard_ids`` on a self-healing leased worker fleet.

    ``store`` is invoked in the parent, in completion order, exactly once
    per shard (first result wins when a stolen duplicate races) — the
    engine checkpoints there, so an interrupted run retains every
    finished shard.  Returns a :class:`LeaseReport`; with
    ``policy.quarantine`` (the default) a shard that exhausts
    ``max_failures`` attempts lands in ``report.quarantined`` and the
    call still returns.  With ``quarantine=False`` the same condition
    raises :class:`ShardExecutionError` after the remaining shards
    finish.  :class:`ShardExecutionError` is also raised — in either
    mode — if the worker-restart budget is exhausted with no fleet left.
    """
    policy = policy or LeasePolicy()
    report = LeaseReport()
    if not shard_ids:
        return report
    context = multiprocessing.get_context("fork")
    rng = random.Random(policy.jitter_seed)
    total = set(shard_ids)
    done: set[int] = set()
    executions_started = report.executions
    inflight: dict[int, dict[int, float]] = {}  # shard -> execution -> t0
    stolen: dict[int, int] = {}  # shard -> the stolen execution number
    pending: list[tuple[int, float]] = [(s, 0.0) for s in shard_ids]
    durations: list[float] = []
    live: dict[int, _LeasedWorker] = {}
    next_index = 0
    restarts_used = 0
    respawn_backoff = policy.restart_base_seconds
    next_spawn_at = 0.0
    tick = max(0.01, min(0.05, policy.heartbeat_seconds / 2))

    def unresolved() -> int:
        return len(total) - len(done) - len(report.quarantined)

    def spawn(now: float) -> None:
        nonlocal next_index
        parent_end, child_end = context.Pipe(duplex=True)
        process = context.Process(
            target=_lease_worker_main,
            args=(next_index, spec, policy, child_end),
            name=f"lease-worker-{next_index}",
            daemon=True,
        )
        process.start()
        child_end.close()
        live[next_index] = _LeasedWorker(next_index, process, parent_end, now)
        next_index += 1

    def record_failure(shard_id: int, reason: str, now: float) -> None:
        if shard_id in done or shard_id in report.quarantined:
            return
        history = report.failures.setdefault(shard_id, [])
        history.append(reason)
        if inflight.get(shard_id):
            # A racing duplicate is still out; let it decide the shard.
            return
        if len(history) >= policy.max_failures:
            report.quarantined[shard_id] = list(history)
        else:
            report.retries += 1
            delay = min(
                policy.retry_cap_seconds,
                policy.retry_base_seconds * (2 ** (len(history) - 1)),
            ) * (1.0 + rng.random())
            pending.append((shard_id, now + delay))

    def mark_dead(
        worker: _LeasedWorker, reason: str, now: float, *, hang: bool = False
    ) -> None:
        live.pop(worker.index, None)
        try:
            worker.pipe.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        if hang:
            report.worker_hangs += 1
        else:
            report.worker_crashes += 1
        if worker.lease is not None:
            shard_id, execution = worker.lease
            worker.lease = None
            inflight.get(shard_id, {}).pop(execution, None)
            record_failure(shard_id, reason, now)

    def assign(worker: _LeasedWorker, shard_id: int, now: float) -> None:
        execution = executions_started.get(shard_id, 0) + 1
        executions_started[shard_id] = execution
        worker.lease = (shard_id, execution)
        worker.assigned_at = now
        worker.last_beat = now
        inflight.setdefault(shard_id, {})[execution] = now
        report.leases_granted += 1
        try:
            worker.pipe.send(("lease", shard_id, execution))
        except (BrokenPipeError, OSError):
            mark_dead(worker, "worker pipe closed before lease send", now)

    def handle(worker: _LeasedWorker, message, now: float) -> None:
        worker.last_beat = now
        kind = message[0]
        if kind == "ready":
            worker.ready = True
        elif kind == "boot-error":
            mark_dead(worker, f"worker failed to start: {message[2]}", now)
        elif kind == "beat":
            pass  # last_beat update above is the whole point
        elif kind == "done":
            _, _, shard_id, execution, outcome = message
            if worker.lease == (shard_id, execution):
                worker.lease = None
            started = inflight.get(shard_id, {}).pop(execution, None)
            if shard_id in done:
                return  # a duplicate lost the race; discard
            done.add(shard_id)
            report.completed += 1
            if started is not None:
                durations.append(now - started)
            if stolen.get(shard_id) == execution:
                report.steals_won += 1
            store(outcome)
        elif kind == "fail":
            _, _, shard_id, execution, reason = message
            if worker.lease == (shard_id, execution):
                worker.lease = None
            inflight.get(shard_id, {}).pop(execution, None)
            record_failure(shard_id, reason, now)

    try:
        now = time.monotonic()
        for _ in range(min(workers, len(shard_ids))):
            spawn(now)
        while unresolved() > 0:
            now = time.monotonic()
            # -- replace dead workers, with backoff and a budget --------
            if (
                len(live) < min(workers, unresolved())
                and restarts_used < policy.max_worker_restarts
                and now >= next_spawn_at
            ):
                spawn(now)
                restarts_used += 1
                report.workers_restarted += 1
                report.restart_backoff_seconds += respawn_backoff
                next_spawn_at = now + respawn_backoff
                respawn_backoff = min(
                    respawn_backoff * 2.0, policy.restart_cap_seconds
                )
            if not live:
                if restarts_used >= policy.max_worker_restarts:
                    pairs = []
                    for shard_id in sorted(total - done):
                        reasons = report.failures.get(shard_id) or [
                            "worker restart budget exhausted "
                            "before the shard could run"
                        ]
                        pairs.append((shard_id, RuntimeError(reasons[-1])))
                    raise ShardExecutionError(pairs)
                time.sleep(min(tick, max(0.0, next_spawn_at - now)))
                continue
            # -- hand out leases ----------------------------------------
            idle = [
                w for w in live.values() if w.ready and w.lease is None
            ]
            ready_entries = []
            for entry in list(pending):
                shard_id, not_before = entry
                if shard_id in done or shard_id in report.quarantined:
                    pending.remove(entry)
                elif not_before <= now:
                    ready_entries.append(entry)
            while idle and ready_entries:
                entry = ready_entries.pop(0)
                pending.remove(entry)
                assign(idle.pop(0), entry[0], now)
            # -- steal from stragglers ----------------------------------
            if idle and not ready_entries and durations:
                median = sorted(durations)[len(durations) // 2]
                threshold = max(
                    policy.straggler_min_seconds,
                    policy.straggler_factor * median,
                )
                candidates = sorted(
                    (
                        w
                        for w in live.values()
                        if w.lease is not None
                        and w.lease[0] not in stolen
                        and w.lease[0] not in done
                        and now - w.assigned_at > threshold
                    ),
                    key=lambda w: w.assigned_at,
                )
                for thief, victim in zip(idle, candidates):
                    shard_id = victim.lease[0]
                    assign(thief, shard_id, now)
                    if thief.lease is not None:
                        stolen[shard_id] = thief.lease[1]
                        report.steals += 1
            # -- drain worker messages ----------------------------------
            pipes = {w.pipe: w for w in live.values()}
            try:
                readable = connection.wait(list(pipes), timeout=tick)
            except OSError:
                readable = []
            now = time.monotonic()
            for pipe in readable:
                worker = pipes.get(pipe)
                if worker is None or worker.index not in live:
                    continue
                try:
                    while True:
                        message = pipe.recv()
                        handle(worker, message, now)
                        if worker.index not in live or not pipe.poll():
                            break
                except (EOFError, OSError):
                    if worker.index in live:
                        mark_dead(
                            worker, "worker process died (pipe closed)", now
                        )
            # -- liveness: dead processes, hung leases, stuck boots -----
            now = time.monotonic()
            for worker in list(live.values()):
                if not worker.process.is_alive():
                    mark_dead(
                        worker,
                        "worker process exited "
                        f"(code {worker.process.exitcode})",
                        now,
                    )
                elif (
                    worker.lease is not None
                    and now - worker.last_beat > policy.lease_seconds
                ):
                    mark_dead(
                        worker,
                        f"lease deadline expired after "
                        f"{policy.lease_seconds:.1f}s without a heartbeat",
                        now,
                        hang=True,
                    )
                elif (
                    not worker.ready
                    and now - worker.spawned_at > policy.ready_timeout_seconds
                ):
                    mark_dead(
                        worker,
                        "worker did not become ready within "
                        f"{policy.ready_timeout_seconds:.1f}s",
                        now,
                    )
    finally:
        for worker in list(live.values()):
            try:
                worker.pipe.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            try:
                worker.pipe.close()
            except OSError:
                pass
        for worker in list(live.values()):
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
        live.clear()
    if report.quarantined and not policy.quarantine:
        pairs = [
            (shard_id, RuntimeError(reasons[-1]))
            for shard_id, reasons in sorted(report.quarantined.items())
        ]
        raise ShardExecutionError(pairs)
    return report
