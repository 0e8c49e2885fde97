"""Online serving benchmarks: identity, throughput, batch, hot reload.

Gates over real servers on loopback sockets:

* **Identity** (always enforced): every decision served over HTTP is
  bit-identical — label, blocked bit, matched rule, matched list — to
  offline :class:`FilterListOracle` labeling of the same URL against the
  same list snapshot.
* **Batch vs single** (always enforced): one ``/v1/decide`` batch call
  must beat the equivalent sequence of single calls; the win is protocol
  arithmetic (one round trip instead of N), so it holds on any host.
* **Throughput** (enforced at full scale; under ``BENCH_SMOKE=1`` the
  gate is recorded with its ``skip_reason``, per the shared gate schema
  in ``scripts/validate_bench.py``): the single-process server must
  sustain a floor of decisions/second under saturating load.
* **Reload under load** (always enforced): a hot reload landing in the
  middle of a load test must not drop a single request, and every
  response must match the offline oracle *of the snapshot revision that
  answered it* — the old snapshot keeps serving until the swap completes.
* **Open-loop tail latency** (enforced at full scale): a fixed
  arrival-rate load (deadline-scheduled, latency measured from the
  *scheduled* send time, so queueing delay counts) must hold its p99
  under a ceiling while absorbing most of the offered rate.
* **Multi-worker scaling** (auto-armed on multi-core hosts): a 2-worker
  :class:`ServeSupervisor` over one shared memory-mapped oracle image
  must reach 2x single-worker aggregate throughput; on a single-core
  host the gate is recorded disarmed with a loud ``skip_reason``.  The
  supervisor's **reload-under-load identity** gate (always enforced)
  re-proves the PR 3/4 contract per worker: during a coordinated
  cross-process reload, zero dropped requests and zero decisions that
  disagree with the offline oracle of the revision that answered them —
  checked separately for every worker pid.

Saturation throughput is measured open-loop: requests are offered at
``SATURATION_RATE_RPS``, far above any server's capacity, over
``LOAD_CONNECTIONS`` keep-alive connections, so each connection sends as
soon as its previous answer lands and ``achieved_rps`` is the throughput.

Artifacts: ``benchmarks/output/BENCH_serve.json``.
"""

import os
import threading
import time

from repro.filterlists.compile import compile_lists
from repro.filterlists.lists import EASYLIST_SNAPSHOT, EASYPRIVACY_SNAPSHOT
from repro.filterlists.oracle import FilterListOracle
from repro.filterlists.parser import parse_filter_list
from repro.serve import (
    AsyncServerThread,
    BlockingClient,
    OpenLoopLoadGenerator,
    ServeSupervisor,
)
from repro.serve.service import default_lists

from conftest import BENCH_SMOKE, write_json_artifact

import pytest

#: Extra rules a mid-load reload ships (a "hotfix" list update).
HOTFIX_TEXT = "||hotfix-tracker.example^\n/late-beacon*\n"

IDENTITY_URLS = 400 if BENCH_SMOKE else 2_000
SINGLE_CALLS = 300 if BENCH_SMOKE else 1_500
BATCH_SIZE = 250
LOAD_CONNECTIONS = 4
LOAD_ROUNDS = 2 if BENCH_SMOKE else 6
SATURATION_RATE_RPS = 1_000_000.0
THROUGHPUT_FLOOR_RPS = 300.0
OPEN_LOOP_RATE_RPS = 400.0 if BENCH_SMOKE else 800.0
OPEN_LOOP_SECONDS = 2.0 if BENCH_SMOKE else 5.0
OPEN_LOOP_MAX_P99_MS = 50.0
OPEN_LOOP_MIN_ACHIEVED_FRACTION = 0.85
SCALING_REQUIRED_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def urls(study):
    """Real study URLs: heavy cross-site repetition, like live traffic."""
    return [r.url for r in study.labeled.requests[:IDENTITY_URLS]]


@pytest.fixture(scope="module")
def server():
    with AsyncServerThread() as running:
        yield running


def saturate(host, port, urls, connections=LOAD_CONNECTIONS):
    """Every URL ``LOAD_ROUNDS`` times, offered faster than any server
    answers: ``achieved_rps`` of the report is saturation throughput."""
    return OpenLoopLoadGenerator(
        host,
        port,
        list(urls) * LOAD_ROUNDS,
        rate_rps=SATURATION_RATE_RPS,
        connections=connections,
    ).run()


@pytest.fixture(scope="module")
def results() -> dict:
    """Accumulates across tests; the last one writes the artifact."""
    return {}


def test_identity_served_equals_offline(server, urls, results):
    """Gate: HTTP decisions are bit-identical to offline oracle labels."""
    offline = FilterListOracle()
    with BlockingClient(server.host, server.port) as client:
        checked = 0
        for url in urls:
            decision = client.decide(url)
            labeled = offline.label_request(url)
            assert decision["blocked"] == offline.should_block_url(url)
            assert decision["label"] == labeled.label.value
            assert decision["matched_rule"] == labeled.matched_rule
            assert decision["matched_list"] == labeled.matched_list
            checked += 1
    results["identity_checked"] = checked


def test_batch_beats_single(server, urls, results):
    """Gate: batching amortizes the per-request round trip."""
    sample = urls[:SINGLE_CALLS]
    with BlockingClient(server.host, server.port) as client:
        client.decide(sample[0])  # connection + cache warm-up

        started = time.perf_counter()
        for url in sample:
            client.decide(url)
        single_seconds = time.perf_counter() - started

        started = time.perf_counter()
        batched = 0
        for start in range(0, len(sample), BATCH_SIZE):
            chunk = sample[start : start + BATCH_SIZE]
            batched += client.decide_batch(chunk)["count"]
        batch_seconds = time.perf_counter() - started

    assert batched == len(sample)
    speedup = single_seconds / batch_seconds
    results.update(
        {
            "single_calls": len(sample),
            "single_seconds": single_seconds,
            "batch_seconds": batch_seconds,
            "batch_speedup": speedup,
        }
    )
    # One round trip per BATCH_SIZE URLs instead of one per URL: anything
    # under 1.5x would mean the batch path itself is broken.
    assert speedup >= 1.5, f"batch speedup only {speedup:.2f}x"


def test_concurrent_throughput(server, urls, results):
    """Gate (full scale): sustained decisions/second under saturating load."""
    report = saturate(server.host, server.port, urls)
    assert report.errors == []
    assert report.requests == len(urls) * LOAD_ROUNDS
    results.update(
        {
            "load_connections": LOAD_CONNECTIONS,
            "load_requests": report.requests,
            "throughput_rps": report.achieved_rps,
            # Shared gate schema (scripts/validate_bench.py): skipped
            # gates must say why, never a silent enforced:false.
            "gates": {
                "throughput": {
                    "min_rps": THROUGHPUT_FLOOR_RPS,
                    "enforced": not BENCH_SMOKE,
                    "achieved": report.achieved_rps,
                    "skip_reason": (
                        "BENCH_SMOKE=1: wall-clock gates are record-only "
                        "in smoke runs"
                        if BENCH_SMOKE
                        else None
                    ),
                },
            },
        }
    )
    if not BENCH_SMOKE:
        assert report.achieved_rps >= THROUGHPUT_FLOOR_RPS, (
            f"served only {report.achieved_rps:.0f} rps"
        )


def test_reload_under_load_never_drops_or_mislabels(server, urls, results):
    """Gate: a mid-load hot reload loses nothing and mislabels nothing."""
    old_oracle = FilterListOracle()
    new_lists = [
        ("easylist", EASYLIST_SNAPSHOT),
        ("easyprivacy", EASYPRIVACY_SNAPSHOT),
        ("hotfix", HOTFIX_TEXT),
    ]
    new_oracle = FilterListOracle(
        *(parse_filter_list(text, name=name) for name, text in new_lists)
    )
    # make sure the reload actually changes answers for some of the load
    load_urls = urls + [
        "https://hotfix-tracker.example/tag.js",
        "https://cdn.example/late-beacon/7",
    ] * max(1, len(urls) // 40)

    reload_report = {}

    def hot_reload():
        # land the reload while the generator is mid-flight: past its
        # 0.05 s lead-in and the first few hundred decisions
        time.sleep(0.15)
        with BlockingClient(server.host, server.port) as admin:
            reload_report.update(admin.reload(lists=new_lists))

    reloader = threading.Thread(target=hot_reload)
    reloader.start()
    report = saturate(server.host, server.port, load_urls)
    reloader.join()

    before_revision = reload_report["previous_revision"]
    after_revision = reload_report["revision"]
    assert report.errors == []                      # nothing dropped
    assert report.requests == len(load_urls) * LOAD_ROUNDS
    oracles = {before_revision: old_oracle, after_revision: new_oracle}
    mismatches = [
        decision
        for decision in report.decisions
        if decision["blocked"]
        != oracles[decision["revision"]].should_block_url(decision["url"])
    ]
    assert mismatches == []                         # nothing mislabeled
    results["reload"] = {
        "decisions_during_load": report.requests,
        "revisions_seen": list(report.revisions_seen),
        "hotfix_rules_added": reload_report["churn"]["added"],
        "reload_seconds": reload_report["reload_seconds"],
    }


def test_open_loop_tail_latency(urls, results):
    """Gate (full scale): fixed-arrival-rate p99 under the ceiling while
    absorbing the offered load."""
    total = max(len(urls), int(OPEN_LOOP_RATE_RPS * OPEN_LOOP_SECONDS))
    load_urls = (urls * (total // len(urls) + 1))[:total]
    with AsyncServerThread() as server:
        report = OpenLoopLoadGenerator(
            server.host,
            server.port,
            load_urls,
            rate_rps=OPEN_LOOP_RATE_RPS,
            connections=8,
        ).run()
    assert report.errors == []
    assert report.requests == total
    achieved_fraction = report.achieved_rps / report.offered_rps
    results["open_loop"] = {
        "offered_rps": report.offered_rps,
        "achieved_rps": report.achieved_rps,
        "requests": float(report.requests),
        "p50_ms": report.percentile_ms(50),
        "p99_ms": report.percentile_ms(99),
    }
    results.setdefault("gates", {})["open_loop_p99"] = {
        "max_p99_ms": OPEN_LOOP_MAX_P99_MS,
        "min_achieved_fraction": OPEN_LOOP_MIN_ACHIEVED_FRACTION,
        "enforced": not BENCH_SMOKE,
        "achieved": report.percentile_ms(99),
        "skip_reason": (
            "BENCH_SMOKE=1: wall-clock gates are record-only in smoke runs"
            if BENCH_SMOKE
            else None
        ),
    }
    if not BENCH_SMOKE:
        assert report.percentile_ms(99) <= OPEN_LOOP_MAX_P99_MS, (
            f"open-loop p99 {report.percentile_ms(99):.1f} ms at "
            f"{report.offered_rps:.0f} rps"
        )
        assert achieved_fraction >= OPEN_LOOP_MIN_ACHIEVED_FRACTION, (
            f"absorbed only {achieved_fraction:.0%} of the offered rate"
        )


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
            # past the generator's 0.05 s lead-in, and early enough to
            # land inside the first half even at smoke size
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


def test_write_artifact(server, results, output_dir):
    """Record the machine-readable trail (runs last in this module)."""
    with BlockingClient(server.host, server.port) as client:
        metrics = client.metrics()
    payload = {
        "bench": "serve",
        "served_decisions": metrics["decisions"]["served"],
        "cache_hit_rate": metrics["cache"]["hit_rate"],
        "latency_p50_ms": metrics["latency"]["p50_ms"],
        "latency_p99_ms": metrics["latency"]["p99_ms"],
        "snapshot_revision": metrics["snapshot"]["revision"],
    }
    payload.update(results)
    write_json_artifact(output_dir, "BENCH_serve.json", payload)
    print(
        f"\nserve bench: {results['throughput_rps']:.0f} rps over "
        f"{results['load_connections']} saturating connections, batch speedup "
        f"{results['batch_speedup']:.1f}x, open-loop p99 "
        f"{results['open_loop']['p99_ms']:.1f} ms at "
        f"{results['open_loop']['offered_rps']:.0f} rps, 2-worker scaling "
        f"{results['multiworker']['two_worker_speedup']:.2f}x "
        f"({results['multiworker']['strategy']}, "
        f"{results['multiworker']['cpu_cores']} cores), identity checked on "
        f"{results['identity_checked']:,} URLs, reload served "
        f"{results['reload']['decisions_during_load']:,} decisions across "
        f"revisions {results['reload']['revisions_seen']}"
    )
