"""Multi-process serving: coordination, aggregation, graceful exit.

Proof obligations for ``repro.serve.supervisor``:

* N forked workers serve one port, every decision stamped with the pid
  that answered it, and the kernel (``SO_REUSEPORT``) or shared accept
  queue (inherited-socket fallback) spreads connections across workers;
* a coordinated reload leaves *every* worker on the same revision — the
  merged ``/metrics`` view must report ``revision_consistent`` and the
  per-worker acks must agree;
* ``/metrics`` (on any worker, and on the supervisor itself) merges
  per-worker counters, pids, and cross-worker latency percentiles;
* graceful drain: a batch mid-flight when shutdown starts still gets its
  complete answer, and every worker exits 0 — including via SIGTERM to a
  real supervisor process, even one still booting;
* no orphans: a supervisor killed without a drain takes its workers down.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.filterlists.compile import ArtifactError, compile_lists
from repro.filterlists.parser import parse_filter_list
from repro.serve.client import BlockingClient, ServeError
from repro.serve.service import default_lists
from repro.serve.supervisor import ServeSupervisor

HOTFIX_TEXT = "||hotfix-tracker.example^\n"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("supervisor-artifacts")
    boot = tmp / "boot.tsoracle"
    compile_lists(boot, *default_lists())
    hotfix = tmp / "hotfix.tsoracle"
    compile_lists(
        hotfix,
        *default_lists(),
        parse_filter_list(HOTFIX_TEXT, name="hotfix"),
    )
    return boot, hotfix


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _python(args: list[str]) -> subprocess.Popen:
    """A fresh interpreter on this checkout's ``repro``, stdout and stderr
    on one pipe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.Popen(
        [sys.executable, *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _serve_cli(boot: Path, port: int) -> subprocess.Popen:
    """``trackersift serve --workers 2`` on ``boot``, as its own process."""
    return _python(
        [
            "-m",
            "repro.cli",
            "serve",
            "--workers",
            "2",
            "--artifact",
            str(boot),
            "--port",
            str(port),
        ]
    )


def _gone(pid: int) -> bool:
    """Whether ``pid`` has exited.  An exited orphan stays a zombie until
    the process it was reparented to reaps it, so a zombie counts."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _wait_gone(pids, seconds: float) -> list[int]:
    """Poll until every pid has exited or ``seconds`` pass; the survivors
    are killed and returned."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and not all(map(_gone, pids)):
        time.sleep(0.1)
    survivors = [pid for pid in pids if not _gone(pid)]
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return survivors


def _held_parent_ends(supervisor) -> list[int]:
    """How many of the supervisor's control-pipe ends each worker holds
    open, matched by socket inode through ``/proc/<pid>/fd``."""
    ends = {
        os.fstat(pipe.fileno()).st_ino
        for pipe in supervisor._pipes
        if pipe is not None
    }
    held = []
    for pid in supervisor.worker_pids:
        inodes = set()
        for fd in Path(f"/proc/{pid}/fd").iterdir():
            try:
                inodes.add(fd.stat().st_ino)
            except OSError:
                pass  # closed while listing
        held.append(len(ends & inodes))
    return held


def _pids_over_fresh_connections(supervisor, attempts: int = 80) -> set:
    seen = set()
    for _ in range(attempts):
        with BlockingClient(supervisor.host, supervisor.port) as client:
            seen.add(client.decide("https://doubleclick.net/x.js")["worker"])
        if seen == set(supervisor.worker_pids):
            break
    return seen


class TestWorkers:
    def test_two_workers_one_port_tagged_decisions(self, artifacts):
        boot, _ = artifacts
        with ServeSupervisor(boot, workers=2) as supervisor:
            assert len(supervisor.worker_pids) == 2
            seen = _pids_over_fresh_connections(supervisor)
            assert seen == set(supervisor.worker_pids)

    def test_workers_must_be_positive_and_artifact_valid(self, tmp_path, artifacts):
        boot, _ = artifacts
        with pytest.raises(ValueError, match="workers"):
            ServeSupervisor(boot, workers=0)
        bad = tmp_path / "bad.tsoracle"
        bad.write_bytes(b"not an artifact")
        with pytest.raises(ArtifactError):
            ServeSupervisor(bad, workers=2)

    def test_supervised_workers_decline_http_reload(self, artifacts):
        boot, _ = artifacts
        with ServeSupervisor(boot, workers=2) as supervisor:
            with BlockingClient(supervisor.host, supervisor.port) as client:
                with pytest.raises(ServeError) as declined:
                    client.reload()
                assert declined.value.status == 400
                assert "supervis" in declined.value.message


class TestReload:
    def test_coordinated_reload_converges_every_worker(self, artifacts):
        boot, hotfix = artifacts
        with ServeSupervisor(boot, workers=2) as supervisor:
            with BlockingClient(supervisor.host, supervisor.port) as client:
                before = client.decide("https://hotfix-tracker.example/x")
                assert before["blocked"] is False and before["revision"] == 1
            report = supervisor.reload(hotfix)
            assert report["revision"] == 2
            assert sorted(w["pid"] for w in report["workers"]) == sorted(
                supervisor.worker_pids
            )
            assert all(w["revision"] == 2 for w in report["workers"])
            # Every worker now answers at revision 2 with the new rule.
            for _ in range(20):
                with BlockingClient(supervisor.host, supervisor.port) as client:
                    decision = client.decide("https://hotfix-tracker.example/x")
                    assert decision["blocked"] is True
                    assert decision["revision"] == 2

    def test_metrics_pin_revision_consistency_after_reload(self, artifacts):
        boot, hotfix = artifacts
        with ServeSupervisor(boot, workers=2) as supervisor:
            _pids_over_fresh_connections(supervisor, attempts=20)
            supervisor.reload(hotfix)
            time.sleep(0.2)  # two publish ticks
            merged = supervisor.metrics()
            assert merged["revisions"] == [2]
            assert merged["revision_consistent"] is True
            assert sorted(merged["worker_pids"]) == sorted(supervisor.worker_pids)

    def test_bad_reload_leaves_workers_serving(self, tmp_path, artifacts):
        boot, _ = artifacts
        with ServeSupervisor(boot, workers=2) as supervisor:
            bad = tmp_path / "bad.tsoracle"
            bad.write_bytes(b"garbage")
            with pytest.raises(ArtifactError):
                supervisor.reload(bad)
            with BlockingClient(supervisor.host, supervisor.port) as client:
                decision = client.decide("https://doubleclick.net/x.js")
                assert decision["blocked"] is True and decision["revision"] == 1


class TestMetrics:
    def test_merged_view_aggregates_counters_and_latency(self, artifacts):
        boot, _ = artifacts
        with ServeSupervisor(boot, workers=2) as supervisor:
            seen = _pids_over_fresh_connections(supervisor, attempts=30)
            with BlockingClient(supervisor.host, supervisor.port) as client:
                client.decide_batch(
                    [f"https://doubleclick.net/{i}.js" for i in range(10)]
                )
                time.sleep(0.2)  # let the publishers tick
                merged = client.metrics()
            assert set(merged["worker_pids"]) == set(supervisor.worker_pids)
            per_worker_served = {
                row["pid"]: row["served"] for row in merged["workers"]
            }
            assert sum(per_worker_served.values()) == merged["decisions"]["served"]
            assert merged["decisions"]["served"] >= len(seen) + 10
            assert merged["latency"]["observed"] == merged["decisions"]["served"]
            assert merged["latency"]["p99_ms"] >= merged["latency"]["p50_ms"] > 0
            # The supervisor computes the identical view directly.
            direct = supervisor.metrics()
            assert direct["worker_pids"] == merged["worker_pids"]

    def test_fleet_counts_published_while_healthy(self, artifacts):
        boot, _ = artifacts
        with ServeSupervisor(boot, workers=2) as supervisor:
            merged = supervisor.metrics()
            assert merged["workers_spawned"] == 2
            assert merged["workers_alive"] == 2
            with BlockingClient(supervisor.host, supervisor.port) as client:
                health = client.healthz()
            assert health["status"] == "ok"
            assert health["workers_alive"] == 2


class TestCrashRecovery:
    def test_reaped_crash_degrades_health_but_keeps_serving(self, artifacts):
        """Kill one worker: the supervisor reaps it, the merged metrics
        show the shrunken fleet, every survivor's /healthz reports
        degraded, and decisions keep flowing."""
        boot, _ = artifacts
        with ServeSupervisor(boot, workers=2) as supervisor:
            victim = supervisor.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10
            reaped = []
            while not reaped and time.monotonic() < deadline:
                reaped = supervisor.reap()
                time.sleep(0.05)
            assert [record["pid"] for record in reaped] == [victim]
            assert len(supervisor.worker_pids) == 1
            # Reaping twice is a no-op, not a double-count.
            assert supervisor.reap() == []
            merged = supervisor.metrics()
            assert merged["workers_spawned"] == 2
            assert merged["workers_alive"] == 1
            # The survivor serves, and its health says degraded.
            for _ in range(10):
                with BlockingClient(supervisor.host, supervisor.port) as client:
                    decision = client.decide("https://doubleclick.net/x.js")
                    assert decision["blocked"] is True
                    health = client.healthz()
            assert health["status"] == "degraded"
            assert health["workers_spawned"] == 2
            assert health["workers_alive"] == 1

    def test_sigkilled_worker_is_restarted_and_serves_identically(
        self, artifacts
    ):
        """SIGKILL one worker after a reload: ``maintain()`` restarts it
        with backoff, converges the replacement to the fleet's current
        revision, restart counters surface in merged ``/metrics``, and
        ``/healthz`` returns to ``ok`` once the fleet is whole."""
        boot, hotfix = artifacts
        with ServeSupervisor(
            boot, workers=2, restart_base_seconds=0.05
        ) as supervisor:
            supervisor.reload(hotfix)  # fleet now at revision 2
            victim = supervisor.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                supervisor.maintain()
                pids = supervisor.worker_pids
                if len(pids) == 2 and victim not in pids:
                    break
                time.sleep(0.05)
            assert len(pids) == 2 and victim not in pids
            time.sleep(0.3)  # publish ticks
            merged = supervisor.metrics()
            assert merged["workers_alive"] == 2
            assert merged["workers_restarted"] == 1
            assert merged["restart_backoff_seconds"] >= 0.05
            # The replacement answers at the reloaded revision — the
            # restart is invisible to clients beyond the pid change.
            seen = set()
            for _ in range(40):
                with BlockingClient(supervisor.host, supervisor.port) as client:
                    decision = client.decide("https://hotfix-tracker.example/x")
                    assert decision["blocked"] is True
                    assert decision["revision"] == 2
                    seen.add(decision["worker"])
                    health = client.healthz()
                if seen == set(pids):
                    break
            assert seen == set(pids)
            assert health["status"] == "ok"
            assert health["workers_alive"] == 2


    @pytest.mark.skipif(
        not Path("/proc/self/fd").is_dir(), reason="needs /proc/<pid>/fd"
    )
    def test_workers_hold_no_supervisor_pipe_end(self, artifacts):
        # A worker holding the supervisor's end of its own pipe (or a
        # sibling's) would never see EOF when the supervisor dies: checked
        # after start() and after a maintain() respawn.
        boot, _ = artifacts
        with ServeSupervisor(
            boot, workers=2, restart_base_seconds=0.05
        ) as supervisor:
            assert _held_parent_ends(supervisor) == [0, 0]
            victim = supervisor.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                supervisor.maintain()
                pids = supervisor.worker_pids
                if len(pids) == 2 and victim not in pids:
                    break
                time.sleep(0.05)
            assert len(pids) == 2 and victim not in pids
            assert _held_parent_ends(supervisor) == [0, 0]


class TestRefusedFork:
    def test_refused_fork_drains_started_workers_and_frees_port(
        self, artifacts, monkeypatch
    ):
        """A fork refused for the second worker must not leave the first
        one running, nor the port held, once start() raises."""
        from multiprocessing.context import ForkProcess

        boot, _ = artifacts
        real_start = ForkProcess.start
        forked: list[int] = []

        def start_once(process):
            if forked:
                raise OSError("fork refused")
            real_start(process)
            forked.append(process.pid)

        monkeypatch.setattr(ForkProcess, "start", start_once)
        supervisor = ServeSupervisor(boot, workers=2)
        try:
            with pytest.raises(OSError, match="fork refused"):
                supervisor.start()
            port = supervisor.port
            assert len(forked) == 1
            assert _wait_gone(forked, 15.0) == []
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", port))
        finally:
            supervisor.shutdown(timeout=2.0)

    def test_refused_respawn_keeps_serving_and_retries(
        self, artifacts, monkeypatch
    ):
        """A fork refused while respawning a dead worker is a failed
        replacement: its pipe closes, the slot's restart budget is
        charged, the fleet keeps serving degraded, and a later
        ``maintain()`` respawns the slot."""
        from multiprocessing.context import ForkProcess

        boot, _ = artifacts
        real_start = ForkProcess.start
        with ServeSupervisor(
            boot, workers=2, restart_base_seconds=0.05
        ) as supervisor:
            victim, survivor = supervisor.worker_pids
            context = supervisor._context
            real_pipe = context.Pipe
            attempts: list = []

            def recording_pipe(*args, **kwargs):
                ends = real_pipe(*args, **kwargs)
                attempts.append(ends)
                return ends

            def refused(process):
                raise OSError("fork refused")

            monkeypatch.setattr(context, "Pipe", recording_pipe)
            monkeypatch.setattr(ForkProcess, "start", refused)
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline and not attempts:
                supervisor.maintain()
                time.sleep(0.02)
            assert len(attempts) == 1
            assert all(end.closed for end in attempts[0])
            assert supervisor._restarts == [1, 0]
            assert supervisor.worker_pids == [survivor]
            with BlockingClient(supervisor.host, supervisor.port) as client:
                assert client.healthz()["status"] == "degraded"

            monkeypatch.setattr(ForkProcess, "start", real_start)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                supervisor.maintain()
                if len(supervisor.worker_pids) == 2:
                    break
                time.sleep(0.05)
            pids = supervisor.worker_pids
            assert len(pids) == 2 and victim not in pids
            assert supervisor._restarts == [2, 0]


class TestDrainAndExit:
    def test_midflight_batch_completes_through_shutdown(self, artifacts):
        boot, _ = artifacts
        supervisor = ServeSupervisor(boot, workers=2).start()
        urls = [f"https://doubleclick.net/{i}.js" for i in range(3000)]
        result: dict = {}
        connected = threading.Event()

        def send_batch() -> None:
            with BlockingClient(supervisor.host, supervisor.port, timeout=30) as client:
                client.healthz()  # establishes the keep-alive connection
                connected.set()
                result.update(client.decide_batch(urls))

        thread = threading.Thread(target=send_batch)
        thread.start()
        # Shut down while the batch is genuinely in flight: after the
        # connection exists, while the request is being sent/decided.
        assert connected.wait(timeout=10)
        time.sleep(0.01)
        codes = supervisor.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert result.get("count") == 3000, result.get("error")
        assert codes == [0, 0]

    def test_sigterm_to_real_supervisor_exits_zero(self, artifacts):
        boot, _ = artifacts
        port = _free_port()
        process = _serve_cli(boot, port)
        try:
            deadline = time.monotonic() + 20
            while True:
                assert time.monotonic() < deadline, "server never came up"
                try:
                    with BlockingClient("127.0.0.1", port, timeout=2) as client:
                        if client.healthz()["status"] == "ok":
                            break
                except OSError:
                    time.sleep(0.1)
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=20)
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == 0, out

    def test_sigterm_during_boot_drains_and_exits_zero(self, artifacts):
        # The stop arrives inside start(), right after the first worker's
        # ready message and before the second's: the supervisor must still
        # drain both workers and exit 0, not die by SIGTERM's default action.
        boot, _ = artifacts
        script = """
import os, signal, sys
from repro.serve import supervisor

await_ready = supervisor.ServeSupervisor._await_ready

def signal_on_first_ready(self, index, timeout):
    message = await_ready(self, index, timeout)
    if index == 0:
        sys.stdout.write(f"pids {self.worker_pids}\\n")
        sys.stdout.flush()
        os.kill(os.getpid(), signal.SIGTERM)
    return message

supervisor.ServeSupervisor._await_ready = signal_on_first_ready
sys.exit(supervisor.run_supervisor(sys.argv[1], workers=2))
"""
        process = _python(["-c", script, str(boot)])
        pids: list[int] = []
        try:
            for line in process.stdout:
                if line.startswith("pids "):
                    pids = json.loads(line[len("pids "):])
                    break
            assert len(pids) == 2
            # wait(), not communicate(): workers that outlived their
            # supervisor would hold the output pipe open.
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
            survivors = _wait_gone(pids, 2.0)
            process.stdout.close()
        assert survivors == []

    def test_sigkilled_supervisor_takes_its_workers_down(self, artifacts):
        # A supervisor that dies without draining (SIGKILL, OOM kill)
        # closes its ends of the control pipes; each worker sees EOF,
        # drains (10 s at most) and exits instead of serving orphaned.
        boot, _ = artifacts
        port = _free_port()
        process = _serve_cli(boot, port)
        pids: list[int] = []
        try:
            deadline = time.monotonic() + 20
            while len(pids) < 2:
                assert time.monotonic() < deadline, "workers never came up"
                try:
                    with BlockingClient("127.0.0.1", port, timeout=2) as client:
                        pids = client.metrics()["worker_pids"]
                except OSError:
                    pass
                time.sleep(0.1)
            process.kill()
            process.wait(timeout=10)
            assert _wait_gone(pids, 15.0) == []
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
            _wait_gone(pids, 0.0)
            process.stdout.close()


class TestSocketFallback:
    def test_inherited_socket_strategy_still_balances(self, artifacts, monkeypatch):
        boot, _ = artifacts
        # Platforms without SO_REUSEPORT: the parent listens once and the
        # forked workers all accept from that inherited socket.
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        with ServeSupervisor(boot, workers=2) as supervisor:
            assert supervisor.strategy == "inherited"
            seen = _pids_over_fresh_connections(supervisor)
            assert seen and seen <= set(supervisor.worker_pids)
            with BlockingClient(supervisor.host, supervisor.port) as client:
                assert client.decide("https://doubleclick.net/x.js")["blocked"]
        codes_ok = True  # context manager shutdown raised nothing
        assert codes_ok
