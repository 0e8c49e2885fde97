"""Multi-process serving: N asyncio workers over one shared oracle image.

One Python process cannot use more than one core for decide work, and N
independent servers would hold N private copies of the rule index.
:class:`ServeSupervisor` gets parallelism *and* shared memory:

* **Workers** are forked processes, each running an
  :class:`~repro.serve.protocol.AsyncBlockingServer` event loop over a
  :class:`~repro.serve.service.BlockingService` booted with
  ``artifact=path`` — the worker ``mmap``\\ s the artifact's oracle image
  read-only, so all N workers share one page-cache-resident copy
  of the rule bytes and pay only a small private skeleton each (the
  cold-RSS gate in ``BENCH_artifacts.json`` pins this).
* **One port.** Where the platform has ``SO_REUSEPORT`` (Linux), the
  parent binds a non-listening reservation socket and each worker joins
  the group with its own listening socket — the kernel load-balances
  connections across workers with no accept contention.  Elsewhere, the
  parent binds+listens a single socket that every forked worker accepts
  from (correct, just herd-prone); ``strategy`` reports which mode is
  live.
* **Control pipes.** The parent holds a duplex pipe per worker, watched
  by each worker's event loop (``loop.add_reader``).  A coordinated
  reload is: parent validates the new artifact *once*, picks the next
  revision number, publishes ``(path, revision)`` to every pipe, and
  collects per-worker acks — so every worker swaps to the same revision
  (via :meth:`~repro.serve.service.BlockingService.swap_image`, one
  atomic reference assignment per worker; in-flight batches finish on the
  snapshot they started with).  Workers decline HTTP ``/v1/reload`` —
  a single worker must never diverge from its siblings.  Only the
  parent holds the parent ends: a worker closes those it inherited, so
  a parent that dies undrained shows as EOF and every worker drains.
* **Shared metrics board.** An anonymous shared ``mmap`` of doubles,
  without locks, with one writer per slot region: each worker periodically
  publishes its counters, revision, pid, and new latency samples into
  its slot; ``GET /metrics`` on *any* worker (and
  :meth:`ServeSupervisor.metrics`) merges all slots into one view with
  summed counters, cross-worker latency percentiles, per-worker pids,
  and a ``revision_consistent`` flag.
* **Graceful drain.** SIGTERM/SIGINT to the supervisor (or the process
  group) stops accepting, lets every in-flight request finish and flush,
  then exits 0; SIGHUP re-reads the boot artifact path as a coordinated
  reload.
* **Self-healing fleet.** A crashed worker is reaped (survivors report
  ``degraded`` on ``/healthz``, merged ``/metrics`` shows
  ``workers_alive < workers_spawned``) and then *restarted* by
  :meth:`ServeSupervisor.maintain` with per-slot exponential backoff and
  a restart cap; the replacement is converged to the fleet's current
  artifact revision before it counts as alive, restart totals surface as
  ``workers_restarted`` / ``restart_backoff_seconds``, and ``/healthz``
  returns to ``ok`` once the fleet is whole again.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import time
from pathlib import Path

from ..filterlists.compile import ArtifactError, read_artifact_meta
from ..obs import console
from ..obs.metrics import SharedBoard, serving_blocks

__all__ = ["ServeSupervisor", "run_supervisor", "merge_board"]

# Shared metrics board layout: per-worker slot of named doubles plus a
# latency-sample ring, followed by a parent-owned fleet region — see
# :class:`repro.obs.metrics.SharedBoard`.  Single writer per region,
# torn reads acceptable (monitoring, not ledger).
_SLOT_FIELDS = (
    "pid", "revision", "served", "batches", "blocked", "reloads",
    "hits", "misses", "entries", "observed", "total_s", "cursor",
)
#: The slot fields merge_board sums across workers: all but pid,
#: revision and cursor.
_SUMMED_FIELDS = _SLOT_FIELDS[2:-1]
_FLEET_FIELDS = ("spawned", "alive", "restarted", "backoff")
DEFAULT_RING = 512

_PUBLISH_INTERVAL = 0.05


def _as_board(board, workers: int, ring: int) -> SharedBoard:
    """Accept either a :class:`SharedBoard` or the raw shared array a
    forked worker inherited, and return the named-field view."""
    if isinstance(board, SharedBoard):
        return board
    return SharedBoard(board, _SLOT_FIELDS, workers, ring, _FLEET_FIELDS)


def merge_board(board, workers: int, ring: int) -> dict:
    """Fold every worker's board slot into one ``/metrics`` view.

    Pure function of the shared array, so the parent and every worker
    compute the identical merged view.  Workers that have not published
    yet (pid still 0) are skipped.
    """
    view = _as_board(board, workers, ring)
    per_worker = []
    totals = dict.fromkeys(_SUMMED_FIELDS, 0.0)
    samples: list[float] = []
    for index in range(workers):
        slot = view.read_slot(index)
        pid = int(slot["pid"])
        if pid == 0:
            continue
        per_worker.append(
            {
                "worker": index,
                "pid": pid,
                "revision": int(slot["revision"]),
                "served": int(slot["served"]),
                "batches": int(slot["batches"]),
                "blocked": int(slot["blocked"]),
                "reloads": int(slot["reloads"]),
                "cache_hits": int(slot["hits"]),
                "cache_misses": int(slot["misses"]),
            }
        )
        for name in _SUMMED_FIELDS:
            totals[name] += slot[name]
        samples.extend(view.read_samples(index))
    samples.sort()

    fleet = view.read_fleet()
    revisions = sorted({row["revision"] for row in per_worker})
    return {
        "workers": per_worker,
        "worker_pids": [row["pid"] for row in per_worker],
        "workers_spawned": int(fleet.get("spawned", 0)),
        "workers_alive": int(fleet.get("alive", 0)),
        "workers_restarted": int(fleet.get("restarted", 0)),
        "restart_backoff_seconds": float(fleet.get("backoff", 0.0)),
        "revisions": revisions,
        "revision_consistent": len(revisions) <= 1,
        **serving_blocks(totals, samples),
    }


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

def _publish_slot(service, board: SharedBoard, index: int, cursor: int) -> int:
    """Copy this worker's raw counters (:meth:`BlockingService.counters`,
    already named like the slot fields) and the latency samples observed
    since ``cursor`` into its board slot; returns the advanced cursor.
    Draining only the fresh samples keeps each publish tick from copying
    or sorting the whole latency window."""
    drained, fresh = service.latency.drain_since(cursor)
    board.write_slot(index, {"pid": os.getpid(), **service.counters()})
    board.append_samples(index, fresh)
    return drained


def _worker_main(
    index: int,
    artifact: str,
    host: str,
    port: int,
    inherited_sock,
    reuse_port: bool,
    conn,
    board,
    workers: int,
    ring: int,
    incarnation: int = 1,
    parent_ends: tuple = (),
) -> None:
    """Entry point of one forked worker: asyncio server on the shared
    port, control pipe on the loop, board publisher, own drain signals.

    ``incarnation`` counts spawns of this worker slot (1 = original, 2 =
    first restart, …) — it is the execution coordinate the
    ``serve.worker`` fault-injection site matches on, so a chaos plan can
    crash exactly the first incarnation and prove the restarted one
    serves identically.

    ``parent_ends`` are the supervisor's ends of the control pipes (this
    worker's and its live siblings'), which the fork copied in.  The
    worker closes them first: while any process but the supervisor holds
    the supervisor's end of ``conn``, the supervisor's death never shows
    here as EOF, and the worker would serve on unsupervised.
    """
    for end in parent_ends:
        end.close()
    # Nor does the worker keep the supervisor's stop and reload handlers:
    # it starts from the default dispositions, and its event loop installs
    # its own drain handlers.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGHUP, signal.SIG_DFL)

    import asyncio

    from ..faults import FaultPlan
    from .protocol import AsyncBlockingServer
    from .service import BlockingService

    async def main() -> None:
        service = BlockingService(artifact=artifact)
        shared = _as_board(board, workers, ring)

        def health() -> dict:
            # Liveness plus fleet status: the parent keeps the board's
            # fleet region current as it reaps crashed siblings, so any
            # worker's /healthz reports "degraded" while the fleet is
            # short-handed — a probe hitting a live worker still sees
            # that capacity is reduced.
            payload = service.healthz()
            fleet = shared.read_fleet()
            spawned = int(fleet.get("spawned", 0))
            alive = int(fleet.get("alive", 0))
            payload["workers_spawned"] = spawned
            payload["workers_alive"] = alive
            if spawned and alive < spawned:
                payload["status"] = "degraded"
            return payload

        server = AsyncBlockingServer(
            service,
            host=host,
            port=port,
            sock=inherited_sock,
            reuse_port=reuse_port,
            supervised=True,
            metrics_provider=lambda: merge_board(shared, workers, ring),
            health_provider=health,
            worker_tag=os.getpid(),
        )
        await server.start()
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        cursor = _publish_slot(service, shared, index, 0)

        # Chaos hook (env-injected; None costs nothing): a ``crash``
        # fault at this (worker, incarnation) coordinate hard-exits the
        # process after ``seconds`` of normal serving — the supervisor's
        # maintain() loop must notice and restart us.
        plan = FaultPlan.from_env()
        fault = (
            plan.at("serve.worker", index, incarnation)
            if plan is not None
            else None
        )
        if fault is not None and fault.kind == "crash":
            loop.call_later(fault.seconds, os._exit, 72)

        def start_drain() -> None:
            stopping.set()

        # The supervisor normally signals drain over the pipe, but a
        # process-group SIGTERM/SIGINT (Ctrl-C) reaches workers directly.
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, start_drain)

        def on_control() -> None:
            try:
                while conn.poll():
                    message = conn.recv()
                    op = message.get("op")
                    if op == "reload":
                        try:
                            report = service.swap_image(
                                message["path"], message["revision"]
                            )
                        except (ArtifactError, OSError) as error:
                            conn.send(
                                {
                                    "op": "reload-error",
                                    "worker": os.getpid(),
                                    "error": str(error),
                                }
                            )
                        else:
                            report["op"] = "reload-ack"
                            report["worker"] = os.getpid()
                            conn.send(report)
                    elif op == "drain":
                        start_drain()
                    elif op == "ping":
                        conn.send({"op": "pong", "worker": os.getpid()})
            except EOFError:
                # Parent went away: drain and exit rather than serve
                # unsupervised forever.
                start_drain()

        loop.add_reader(conn.fileno(), on_control)
        conn.send(
            {"op": "ready", "worker": os.getpid(), "port": server.port}
        )

        async def publisher() -> None:
            local = cursor
            while not stopping.is_set():
                await asyncio.sleep(_PUBLISH_INTERVAL)
                local = _publish_slot(service, shared, index, local)

        publish_task = asyncio.create_task(publisher())
        await stopping.wait()
        loop.remove_reader(conn.fileno())
        await server.drain(timeout=10.0)
        publish_task.cancel()
        _publish_slot(service, shared, index, 0)
        try:
            conn.send({"op": "drained", "worker": os.getpid()})
        except OSError:
            pass  # the supervisor is gone (the EOF drain above)
        conn.close()

    asyncio.run(main())


# ---------------------------------------------------------------------------
# Parent supervisor
# ---------------------------------------------------------------------------

class ServeSupervisor:
    """Parent of N image-backed asyncio serve workers on one port.

    Requires a compiled ``.tsoracle`` artifact (its oracle image is the
    whole payload): multi-process serving exists precisely to share that
    image's pages, and a coordinated reload needs an artifact path it can
    publish to every worker.  Embeddable (:meth:`start`/:meth:`shutdown`
    or context manager) for tests and benchmarks, or run blocking with
    :meth:`serve_forever` (the ``trackersift serve --workers N`` path).
    """

    def __init__(
        self,
        artifact: str | Path,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        ring: int = DEFAULT_RING,
        max_worker_restarts: int = 5,
        restart_base_seconds: float = 0.5,
        restart_cap_seconds: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.artifact = Path(artifact).resolve()
        # Validates magic/version/checksum up front: a bad artifact must
        # fail in the parent, not asynchronously in N children.
        self.artifact_meta = read_artifact_meta(self.artifact)
        self.workers = workers
        self.ring = ring
        # Restart policy: a dead worker slot is respawned after an
        # exponential per-slot backoff (base doubling to cap), at most
        # max_worker_restarts times per slot — a crash-looping worker
        # degrades the fleet instead of spinning the supervisor.
        self.max_worker_restarts = max_worker_restarts
        self.restart_base_seconds = restart_base_seconds
        self.restart_cap_seconds = restart_cap_seconds
        self._host = host
        self._port = port
        self._reserve_sock: socket.socket | None = None
        self._listen_sock: socket.socket | None = None
        # Index-stable worker slots: entry i belongs to worker slot i
        # forever; a dead worker leaves a None hole until maintain()
        # respawns it (restart bookkeeping is per-slot).
        self._processes: list = []
        self._pipes: list = []
        self._incarnations: list[int] = []
        self._restarts: list[int] = []
        self._backoffs: list[float] = []
        self._restart_at: list[float] = []
        self._total_restarts = 0
        self._total_backoff = 0.0
        self._context = None
        self._reuse_port = False
        self._board: SharedBoard | None = None
        self._revision = 1
        self._started = False

    # -- socket strategy ---------------------------------------------------
    @property
    def strategy(self) -> str:
        """``"reuseport"`` (per-worker listening sockets, kernel
        load-balanced) or ``"inherited"`` (one parent-listened socket all
        workers accept from)."""
        return "reuseport" if hasattr(socket, "SO_REUSEPORT") else "inherited"

    def _bind(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if self.strategy == "reuseport":
            # Reservation only — never listens.  Holding a bound
            # SO_REUSEPORT socket keeps the (possibly ephemeral) port
            # valid for workers joining and re-joining the group.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self._host, self._port))
            self._reserve_sock = sock
        else:
            sock.bind((self._host, self._port))
            sock.listen(512)
            self._listen_sock = sock
        self._host, self._port = sock.getsockname()[:2]

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self._port}"

    @property
    def worker_pids(self) -> list[int]:
        return [
            process.pid for process in self._processes if process is not None
        ]

    def _alive_count(self) -> int:
        return sum(
            1
            for process in self._processes
            if process is not None and process.is_alive()
        )

    # -- lifecycle ---------------------------------------------------------
    def _spawn_worker(self, index: int) -> None:
        """(Re)spawn worker slot ``index`` — pipe, process, bookkeeping."""
        self._incarnations[index] += 1
        parent_end, worker_end = self._context.Pipe(duplex=True)
        parent_ends = (
            parent_end,
            *(pipe for pipe in self._pipes if pipe is not None),
        )
        process = self._context.Process(
            target=_worker_main,
            args=(
                index,
                str(self.artifact),
                self._host,
                self._port,
                self._listen_sock,
                self._reuse_port,
                worker_end,
                self._board.array,
                self.workers,
                self.ring,
                self._incarnations[index],
                parent_ends,
            ),
            name=f"trackersift-serve-worker-{index}",
        )
        try:
            process.start()
        except BaseException:
            # A refused fork leaves the slot empty: both ends of this
            # attempt's pipe close here, so no retry leaks descriptors.
            parent_end.close()
            worker_end.close()
            raise
        worker_end.close()
        self._processes[index] = process
        self._pipes[index] = parent_end

    def _await_ready(self, index: int, timeout: float) -> dict:
        pipe = self._pipes[index]
        if pipe is None or timeout <= 0 or not pipe.poll(timeout):
            raise RuntimeError(
                f"worker {index} did not become ready within {timeout:.0f}s"
            )
        message = pipe.recv()
        if message.get("op") != "ready":
            raise RuntimeError(
                f"worker {index} sent {message!r} instead of ready"
            )
        return message

    def _converge_worker(self, index: int, timeout: float = 30.0) -> None:
        """Bring a freshly restarted worker to the fleet's revision.

        A restarted worker boots the *current* artifact but at revision 1;
        if the fleet has reloaded past that, publish a catch-up swap so
        ``revision_consistent`` holds again.
        """
        if self._revision <= 1:
            return
        pipe = self._pipes[index]
        pipe.send(
            {
                "op": "reload",
                "path": str(self.artifact),
                "revision": self._revision,
            }
        )
        if not pipe.poll(timeout):
            raise RuntimeError(f"worker {index} catch-up reload timed out")
        message = pipe.recv()
        if message.get("op") != "reload-ack":
            raise RuntimeError(
                f"worker {index} catch-up reload failed: {message!r}"
            )

    def start(self, ready_timeout: float = 30.0) -> "ServeSupervisor":
        if self._started:
            raise RuntimeError("supervisor already started")
        self._bind()
        # Fork, not spawn: workers inherit the board, pipes, and (in
        # inherited-socket mode) the listening socket without pickling.
        self._context = multiprocessing.get_context("fork")
        self._board = SharedBoard.create(
            _SLOT_FIELDS, self.workers, self.ring, _FLEET_FIELDS
        )
        self._reuse_port = self.strategy == "reuseport"
        self._processes = [None] * self.workers
        self._pipes = [None] * self.workers
        self._incarnations = [0] * self.workers
        self._restarts = [0] * self.workers
        self._backoffs = [self.restart_base_seconds] * self.workers
        self._restart_at = [0.0] * self.workers
        self._total_restarts = 0
        self._total_backoff = 0.0
        # A refused fork or a missed ready deadline drains the workers
        # already forked and releases the port before the error surfaces.
        try:
            for index in range(self.workers):
                self._spawn_worker(index)
            deadline = time.monotonic() + ready_timeout
            for index in range(self.workers):
                self._await_ready(index, deadline - time.monotonic())
        except BaseException:
            self.shutdown(timeout=2.0)
            raise
        self._board.write_fleet(
            {
                "spawned": self.workers,
                "alive": self.workers,
                "restarted": 0,
                "backoff": 0.0,
            }
        )
        self._started = True
        return self

    def reap(self) -> list[dict]:
        """Remove exited workers from the fleet, keep serving degraded.

        A crashed worker used to silently shrink capacity (in REUSEPORT
        mode the kernel keeps load-balancing over the survivors) with no
        externally visible signal.  Now the parent notices, closes the
        dead worker's pipe, leaves an index-stable hole for
        :meth:`maintain` to refill, and updates the board's fleet region
        so every surviving worker's ``/healthz`` reports ``degraded`` and
        the merged ``/metrics`` carries ``workers_alive <
        workers_spawned``.  Returns one record per reaped worker.
        """
        reaped = []
        now = time.monotonic()
        for index, process in enumerate(self._processes):
            if process is None or process.is_alive():
                continue
            process.join(timeout=0)
            reaped.append(
                {
                    "worker": index,
                    "pid": process.pid,
                    "exitcode": process.exitcode,
                }
            )
            pipe = self._pipes[index]
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:
                    pass
            self._processes[index] = None
            self._pipes[index] = None
            # Arm this slot's restart clock: maintain() respawns it once
            # the backoff window has passed.
            self._restart_at[index] = now + self._backoffs[index]
        if reaped and self._board is not None:
            self._board.write_fleet({"alive": self._alive_count()})
        return reaped

    def maintain(self, ready_timeout: float = 30.0) -> dict:
        """Reap dead workers and restart them with exponential backoff.

        The supervisor's periodic self-healing step (called every tick by
        :meth:`serve_forever`): each empty worker slot whose backoff
        window has passed and whose restart budget remains is respawned;
        the new worker is awaited ready and converged to the fleet's
        current revision, so it serves identically to the one it
        replaces.  Returns ``{"reaped": [...], "restarted": [...]}``.
        """
        events = {"reaped": self.reap(), "restarted": []}
        now = time.monotonic()
        for index in range(self.workers):
            if self._processes[index] is not None:
                continue
            if self._restarts[index] >= self.max_worker_restarts:
                continue
            if now < self._restart_at[index]:
                continue
            delay = self._backoffs[index]
            self._restarts[index] += 1
            self._total_restarts += 1
            self._total_backoff += delay
            self._backoffs[index] = min(
                self._backoffs[index] * 2.0, self.restart_cap_seconds
            )
            try:
                self._spawn_worker(index)
                self._await_ready(index, ready_timeout)
                self._converge_worker(index)
            except (OSError, RuntimeError):
                # The replacement itself failed (a refused fork, a missed
                # ready deadline, a broken pipe): clear the slot (its
                # restart budget was consumed) and try again next round
                # with a longer backoff.
                process = self._processes[index]
                if process is not None and process.is_alive():
                    process.kill()
                    process.join(timeout=2.0)
                pipe = self._pipes[index]
                if pipe is not None:
                    try:
                        pipe.close()
                    except OSError:
                        pass
                self._processes[index] = None
                self._pipes[index] = None
                self._restart_at[index] = now + self._backoffs[index]
                continue
            events["restarted"].append(
                {"worker": index, "pid": self._processes[index].pid}
            )
        if self._board is not None:
            self._board.write_fleet(
                {
                    "alive": self._alive_count(),
                    "restarted": self._total_restarts,
                    "backoff": self._total_backoff,
                }
            )
        return events

    def reload(
        self, artifact: str | Path | None = None, timeout: float = 30.0
    ) -> dict:
        """Coordinated cross-process artifact swap.

        Validates the artifact once in the parent, assigns the next
        revision number, publishes to every worker's control pipe, and
        waits for every ack.  Returns the merged report; raises
        :class:`~repro.filterlists.compile.ArtifactError` if the artifact
        fails validation (no worker is contacted) or ``RuntimeError`` if
        a worker fails or times out (workers that already swapped keep
        the new revision — the next reload re-converges them).
        """
        path = Path(artifact).resolve() if artifact is not None else self.artifact
        meta = read_artifact_meta(path)  # parent-side validation gate
        revision = self._revision + 1
        targets = [
            (index, pipe)
            for index, pipe in enumerate(self._pipes)
            if pipe is not None
        ]
        for _, pipe in targets:
            pipe.send({"op": "reload", "path": str(path), "revision": revision})
        acks = []
        deadline = time.monotonic() + timeout
        for index, pipe in targets:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not pipe.poll(remaining):
                raise RuntimeError(f"worker {index} reload ack timed out")
            message = pipe.recv()
            if message.get("op") != "reload-ack":
                raise RuntimeError(
                    f"worker {index} reload failed: "
                    f"{message.get('error', message)!r}"
                )
            acks.append(message)
        self._revision = revision
        self.artifact = path
        self.artifact_meta = meta
        return {
            "revision": revision,
            "artifact": str(path),
            "rule_count": meta.get("rule_count"),
            "workers": [
                {
                    "pid": ack["worker"],
                    "revision": ack["revision"],
                    "previous_revision": ack["previous_revision"],
                }
                for ack in acks
            ],
        }

    def metrics(self) -> dict:
        """The merged cross-worker metrics view (same function any
        worker's ``GET /metrics`` serves)."""
        return merge_board(self._board, self.workers, self.ring)

    def shutdown(self, timeout: float = 15.0) -> list[int]:
        """Graceful drain: publish drain to every pipe, join, escalate to
        terminate/kill only past the deadline.  Returns exit codes."""
        processes = [p for p in self._processes if p is not None]
        for pipe in self._pipes:
            if pipe is None:
                continue
            try:
                pipe.send({"op": "drain"})
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + timeout
        for process in processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=2.0)
        codes = [process.exitcode for process in processes]
        for pipe in self._pipes:
            if pipe is not None:
                pipe.close()
        for sock in (self._reserve_sock, self._listen_sock):
            if sock is not None:
                sock.close()
        self._reserve_sock = None
        self._listen_sock = None
        self._processes = []
        self._pipes = []
        self._started = False
        return codes

    def __enter__(self) -> "ServeSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        if self._started:
            self.shutdown()

    # -- CLI blocking mode -------------------------------------------------
    def serve_forever(self) -> int:
        """Start the fleet, then block until SIGTERM/SIGINT, draining
        gracefully (exit 0).
        SIGHUP re-reads the boot artifact as a coordinated reload.
        Crashed workers are reaped and restarted with exponential backoff
        (the fleet serves degraded in between — every survivor's
        ``/healthz`` says so); only a fleet that is fully dead with every
        restart budget spent exits non-zero.

        The signal handlers go in before the fleet starts, so a stop that
        arrives while the workers boot drains them, exit 0, as soon as
        :meth:`start` returns, instead of killing the supervisor by the
        signal's default action and leaving the workers behind."""
        stop = {"flag": False}
        fleet_dead = False

        def on_stop(signum, frame) -> None:
            stop["flag"] = True

        def on_hup(signum, frame) -> None:
            if not self._started:
                return  # booting: the workers are loading that artifact
            try:
                report = self.reload(self.artifact)
                console.say(
                    f"trackersift serve: reloaded revision "
                    f"{report['revision']} on {len(report['workers'])} workers"
                )
            except (ArtifactError, RuntimeError, OSError) as error:
                console.say(f"trackersift serve: reload failed: {error}")

        previous = {
            signal.SIGTERM: signal.signal(signal.SIGTERM, on_stop),
            signal.SIGINT: signal.signal(signal.SIGINT, on_stop),
            signal.SIGHUP: signal.signal(signal.SIGHUP, on_hup),
        }
        try:
            self.start()
            meta = self.artifact_meta
            console.say(
                f"trackersift serve: {self.workers} workers on {self.url} "
                f"({self.strategy} sockets, {meta.get('rule_count')} "
                f"rules, shared image {meta.get('image_bytes')} bytes)"
            )
            console.say(
                "endpoints: POST /v1/decide  GET /healthz  GET /metrics  "
                "(reload: SIGHUP to the supervisor)"
            )
            while not stop["flag"]:
                time.sleep(0.2)
                events = self.maintain()
                for record in events["reaped"]:
                    console.say(
                        f"trackersift serve: worker pid {record['pid']} "
                        f"exited {record['exitcode']}; continuing degraded "
                        f"({self._alive_count()}/{self.workers} workers "
                        "alive)"
                    )
                for record in events["restarted"]:
                    console.say(
                        f"trackersift serve: worker {record['worker']} "
                        f"restarted as pid {record['pid']} "
                        f"({self._alive_count()}/{self.workers} workers "
                        "alive)"
                    )
                if self._alive_count() == 0 and all(
                    count >= self.max_worker_restarts
                    for count in self._restarts
                ):
                    console.say(
                        "trackersift serve: every worker has exited and "
                        "the restart budget is spent; shutting down"
                    )
                    fleet_dead = True
                    stop["flag"] = True
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        codes = self.shutdown()
        if fleet_dead:
            return 1
        return 0 if all(code == 0 for code in codes) else 1


def run_supervisor(
    artifact: str,
    workers: int,
    host: str = "127.0.0.1",
    port: int = 0,
) -> int:
    """``trackersift serve --workers N --artifact ...`` entry point."""
    supervisor = ServeSupervisor(
        artifact, workers=workers, host=host, port=port
    )
    return supervisor.serve_forever()
