"""Multi-worker serving: 2-worker scaling and per-worker reload identity.

Two gates over a 2-worker :class:`ServeSupervisor` on one shared
memory-mapped oracle image:

* **Multi-worker scaling** (armed at full scale on hosts with at least
  two cores): the pair must reach 2x single-worker aggregate
  throughput; otherwise the gate is recorded disarmed with a loud
  ``skip_reason`` (shared gate schema in ``scripts/validate_bench.py``).
* **Reload-under-load identity** (always enforced): during a coordinated
  cross-process reload, zero dropped requests and zero decisions that
  disagree with the offline oracle of the revision that answered them —
  checked separately for every worker pid.

The single-process server's gates live elsewhere: served-equals-offline
identity, batch-vs-single and reload-under-load in
``tests/test_serve_server.py``; throughput and tail latency are the
``serve-open`` workload of ``benchmarks/perf/bench.py``.

Saturation throughput comes from ``connections`` client threads, each
sending its next decide as soon as its last answer lands, so the
decisions answered per second is the throughput.

Artifacts: ``benchmarks/output/BENCH_serve.json``.
"""

import http.client
import os
import threading
import time

from repro.filterlists.compile import compile_lists
from repro.filterlists.oracle import FilterListOracle
from repro.filterlists.parser import parse_filter_list
from repro.serve import BlockingClient, ServeSupervisor
from repro.serve.service import default_lists

from conftest import BENCH_SMOKE, write_json_artifact

import pytest

#: Extra rules a mid-load reload ships (a "hotfix" list update).
HOTFIX_TEXT = "||hotfix-tracker.example^\n/late-beacon*\n"

IDENTITY_URLS = 400 if BENCH_SMOKE else 2_000
LOAD_CONNECTIONS = 4
LOAD_ROUNDS = 2 if BENCH_SMOKE else 6
SCALING_REQUIRED_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def urls(study):
    """Real study URLs: heavy cross-site repetition, like live traffic."""
    return [r.url for r in study.labeled.requests[:IDENTITY_URLS]]


class _UnretriedClient(BlockingClient):
    """A :class:`BlockingClient` that surfaces a transport failure instead
    of replaying the request on a fresh connection, so a dropped request
    is counted rather than hidden."""

    def _exchange(self, *args):
        try:
            return super()._exchange(*args)
        except (http.client.HTTPException, OSError) as error:
            raise RuntimeError(f"transport failure: {error!r}") from error


class Saturation:
    """What :func:`saturate` observed."""

    def __init__(self, decisions: list, errors: list, seconds: float) -> None:
        self.decisions = decisions
        self.errors = errors
        self.achieved_rps = len(decisions) / seconds


def saturate(host, port, urls, connections=LOAD_CONNECTIONS) -> Saturation:
    """Every URL ``LOAD_ROUNDS`` times, striped over ``connections``
    client threads that each send as soon as their last answer lands."""
    load = list(urls) * LOAD_ROUNDS
    decisions: list = []
    errors: list = []

    def connection(index: int) -> None:
        with _UnretriedClient(host, port, timeout=30.0) as client:
            for url in load[index::connections]:
                try:
                    decisions.append(client.decide(url))
                except RuntimeError as error:  # also ServeError (HTTP >= 400)
                    errors.append(f"{url}: {error}")

    threads = [
        threading.Thread(target=connection, args=(index,))
        for index in range(connections)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Saturation(decisions, errors, time.perf_counter() - started)


@pytest.fixture(scope="module")
def results() -> dict:
    """Filled by the gate test; the artifact writer records it."""
    return {}


@pytest.fixture(scope="module")
def image_artifacts(tmp_path_factory):
    """Boot and hotfix ``.tsoracle`` artifacts the supervisor runs on."""
    tmp = tmp_path_factory.mktemp("serve-artifacts")
    boot = tmp / "boot.tsoracle"
    compile_lists(boot, *default_lists())
    hotfix = tmp / "hotfix.tsoracle"
    compile_lists(
        hotfix,
        *default_lists(),
        parse_filter_list(HOTFIX_TEXT, name="hotfix"),
    )
    return boot, hotfix


def test_multiworker_scaling_and_per_worker_reload_identity(
    urls, results, image_artifacts
):
    """Scaling gate (auto-armed on multi-core) + per-worker identity gate
    (always enforced) over the 2-worker supervisor."""
    boot, hotfix = image_artifacts

    with ServeSupervisor(boot, workers=1) as single:
        single_report = saturate(single.host, single.port, urls)
    assert single_report.errors == []

    old_oracle = FilterListOracle()
    new_oracle = FilterListOracle(
        *default_lists(), parse_filter_list(HOTFIX_TEXT, name="hotfix")
    )
    load_urls = urls + [
        "https://hotfix-tracker.example/tag.js",
        "https://cdn.example/late-beacon/7",
    ] * max(1, len(urls) // 40)

    with ServeSupervisor(boot, workers=2) as pair:
        strategy = pair.strategy
        pair_report = saturate(pair.host, pair.port, urls)
        assert pair_report.errors == []

        # Reload-under-load, identity-checked per worker pid.
        reload_outcome = {}

        def hot_reload() -> None:
            # into the first half's load, and early enough to land
            # inside it even at smoke size
            time.sleep(0.08)
            reload_outcome.update(pair.reload(hotfix))

        # The reload races the first half of the load; the second half
        # starts only once it has returned, so every run carries
        # revision-2 decisions however quickly the first half drains.
        # Both halves stripe the hotfix URLs.  More client connections
        # than the throughput run: REUSEPORT balances per connection, and
        # the identity gate wants decisions from as many workers as the
        # kernel will spread them over.
        reloader = threading.Thread(target=hot_reload)
        reloader.start()
        racing = saturate(
            pair.host, pair.port, load_urls[0::2],
            connections=LOAD_CONNECTIONS * 2,
        )
        reloader.join()
        reloaded = saturate(
            pair.host, pair.port, load_urls[1::2],
            connections=LOAD_CONNECTIONS * 2,
        )

    halves = (racing, reloaded)
    errors = [error for half in halves for error in half.errors]
    decisions = [decision for half in halves for decision in half.decisions]
    assert errors == []                                   # nothing dropped
    assert len(decisions) == len(load_urls) * LOAD_ROUNDS
    assert reload_outcome["revision"] == 2
    oracles = {1: old_oracle, 2: new_oracle}
    per_worker: dict = {}
    for decision in decisions:
        row = per_worker.setdefault(
            decision["worker"],
            {"decisions": 0, "mismatches": 0, "revisions": set()},
        )
        row["decisions"] += 1
        row["revisions"].add(decision["revision"])
        oracle = oracles[decision["revision"]]
        if decision["blocked"] != oracle.should_block_url(decision["url"]):
            row["mismatches"] += 1
    # Every answering pid is a supervised worker (the kernel decides how
    # many of them the client connections actually land on).
    ack_pids = {w["pid"] for w in reload_outcome["workers"]}
    assert per_worker and set(per_worker) <= ack_pids
    for pid, row in per_worker.items():
        assert row["mismatches"] == 0, f"worker {pid} mislabeled decisions"
    assert {2} <= set().union(*(r["revisions"] for r in per_worker.values()))

    cores = os.cpu_count() or 1
    speedup = pair_report.achieved_rps / single_report.achieved_rps
    scaling_armed = (not BENCH_SMOKE) and cores >= 2
    if BENCH_SMOKE:
        scaling_skip = (
            "BENCH_SMOKE=1: wall-clock gates are record-only in smoke runs"
        )
    elif cores < 2:
        scaling_skip = (
            f"DISARMED: host has {cores} CPU core(s); the >= "
            f"{SCALING_REQUIRED_SPEEDUP}x 2-worker scaling gate arms "
            "automatically on multi-core hosts"
        )
    else:
        scaling_skip = None
    results["multiworker"] = {
        "strategy": strategy,
        "cpu_cores": cores,
        "single_worker_rps": single_report.achieved_rps,
        "two_worker_rps": pair_report.achieved_rps,
        "two_worker_speedup": speedup,
        "reload_identity": {
            str(pid): {
                "decisions": row["decisions"],
                "mismatches": row["mismatches"],
                "revisions": sorted(row["revisions"]),
            }
            for pid, row in per_worker.items()
        },
    }
    gates = results.setdefault("gates", {})
    gates["two_worker_scaling"] = {
        "required_speedup": SCALING_REQUIRED_SPEEDUP,
        "enforced": scaling_armed,
        "achieved": speedup,
        "skip_reason": scaling_skip,
    }
    gates["supervisor_reload_identity"] = {
        "max_mismatches": 0.0,
        "enforced": True,
        "achieved": float(
            sum(row["mismatches"] for row in per_worker.values())
        ),
        "skip_reason": None,
    }
    if scaling_armed:
        assert speedup >= SCALING_REQUIRED_SPEEDUP, (
            f"2 workers reached only {speedup:.2f}x single-worker throughput"
        )


def test_write_artifact(results, output_dir):
    """Record the machine-readable trail (runs last in this module)."""
    write_json_artifact(
        output_dir, "BENCH_serve.json", {"bench": "serve", **results}
    )
    multiworker = results["multiworker"]
    checked = sum(
        row["decisions"] for row in multiworker["reload_identity"].values()
    )
    print(
        f"\nserve bench: 2-worker scaling "
        f"{multiworker['two_worker_speedup']:.2f}x "
        f"({multiworker['strategy']}, {multiworker['cpu_cores']} cores), "
        f"reload identity checked on {checked:,} decisions across "
        f"{len(multiworker['reload_identity'])} worker(s)"
    )
