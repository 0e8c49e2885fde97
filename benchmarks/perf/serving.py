"""The ``serve-open`` and ``serve-churn`` workloads.

One supervised serve worker answers; this process is both its
supervisor and the only load source (at most two connections, no extra
threads), so the worker has the second core to itself.  The worker
boots from an artifact compiled from the embedded lists plus a seeded
EasyList-shaped list; the traffic is the requests a small seeded crawl
issues (:mod:`inputs`).
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.filterlists.compile import compile_lists
from repro.filterlists.lists import default_lists
from repro.filterlists.oracle import FilterListOracle
from repro.filterlists.parser import parse_filter_list
from repro.filterlists.rules import ResourceType
from repro.serve.supervisor import ServeSupervisor

import inputs
import layers
from calibration import timed_setup
from loadgen import CONNECTIONS, ClosedLoopClient, OpenLoopGenerator, encode_post
from outcome import Outcome, attributed_seconds, layer_metrics_from
from stats import RateSearch, backlog_growing, nearest_rank, summarize

#: The fixed arrival rate decide latency is reported at, and where the
#: rate search starts.
FIXED_RPS = 2_000
#: Latency limit a rate-search step must meet at p99.
P99_LIMIT_S = 0.050
#: Steps the rate search's time is split into.
SEARCH_STEPS = 8
#: A step whose client used this much of a core measured the generator.
GENERATOR_BOUND = 0.9
BATCH = 256
#: Decisions in batches this close to a reload are all checked.
RELOAD_WINDOW_S = 1.0
SAMPLE = 1 / 16
#: Timed set-ups in each gap between a serve run's phases (see
#: :class:`_Boots`).
SETUPS_PER_GAP = 2
HOTFIX_RULES = 24
#: Seconds a booting worker has to report healthy.
HEALTHY_TIMEOUT_S = 10.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Inputs:
    """The traffic a serve workload sends the program, built from the
    seed (the synthetic list is built, and booted from, before it)."""

    def __init__(self, ctx) -> None:
        self.trace = inputs.crawl_trace(ctx.seed + 1, ctx.scale["trace_sites"])
        self.hotfix = inputs.hotfix_rules(self.trace, ctx.seed, HOTFIX_RULES)
        self.prefix = inputs.buster_prefix(ctx.seed)
        self.singles = [
            encode_post(
                "/v1/decide",
                {"url": url, "resource_type": kind, "page_url": page},
            )
            for url, kind, page in self.trace
        ]

    def batch(self, index: int) -> list[tuple[str, str, str]]:
        """Batch ``index`` of never-repeated, cache-busted triples."""
        size = len(self.trace)
        out = []
        for offset in range(index * BATCH, (index + 1) * BATCH):
            url, kind, page = self.trace[offset % size]
            token = inputs.cache_buster(self.prefix, offset)
            out.append((inputs.busted(url, token), kind, page))
        return out

    def encode_batch(self, index: int) -> bytes:
        return encode_post(
            "/v1/decide",
            {
                "requests": [
                    {"url": url, "resource_type": kind, "page_url": page}
                    for url, kind, page in self.batch(index)
                ]
            },
        )


def _lists(text: str, hotfix: str = ""):
    lists = (*default_lists(), parse_filter_list(text, name="synthetic"))
    if hotfix:
        lists += (parse_filter_list(hotfix, name="hotfix"),)
    return lists


def _healthy(supervisor: ServeSupervisor) -> None:
    deadline = time.perf_counter() + HEALTHY_TIMEOUT_S
    while True:
        connection = http.client.HTTPConnection(
            supervisor.host, supervisor.port, timeout=HEALTHY_TIMEOUT_S
        )
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            body = json.loads(response.read())
            if response.status == 200 and body.get("status") == "ok":
                return
        except (OSError, ValueError):
            pass
        finally:
            connection.close()
        if time.perf_counter() > deadline:
            raise RuntimeError("serve worker never reported healthy")
        time.sleep(0.005)


def _start(artifact: Path) -> ServeSupervisor:
    """Start one supervised worker on ``artifact``; wait for ``/healthz``."""
    supervisor = ServeSupervisor(artifact, workers=1).start()
    try:
        _healthy(supervisor)
    except RuntimeError:
        supervisor.shutdown(timeout=2.0)
        raise
    return supervisor


def boot(rules: str, artifact: Path) -> ServeSupervisor:
    """Program set-up, as :class:`_Boots` times it: parse the lists,
    compile the artifact, start one supervised worker and wait for
    ``/healthz``."""
    compile_lists(artifact, *_lists(rules))
    return _start(artifact)


def _measured(rules: str, artifact: Path) -> "_Server":
    """Boot, untimed, the server the load runs against.  Its worker forks
    from this process and inherits the heap, so the benchmark's garbage is
    collected first: left in place, it moved the worker's peak RSS by one
    or two 1 MiB allocator arenas from run to run."""
    compile_lists(artifact, *_lists(rules))
    gc.collect()
    return _Server(_start(artifact))


class _Boots:
    """Timed set-ups of the server, each in a fresh process (this
    module's ``__main__``), :data:`SETUPS_PER_GAP` at a time in the gaps
    between a run's phases while the measured server idles; ``setup_s``
    is their median, each scaled to the reference host speed by
    :func:`calibration.timed_setup`.  A fresh process times the program
    alone: a boot inside the benchmark would fork the benchmark's heap
    into the worker and collect the benchmark's garbage."""

    def __init__(self, ctx, rules: str, stem: str) -> None:
        self.env = ctx.child_env()
        self.rules = ctx.out / f"{stem}-rules.txt"
        self.rules.write_text(rules, encoding="utf-8")
        self.artifact = ctx.out / f"{stem}-probe.tsoracle"
        self.times: list[float] = []

    def probe(self) -> None:
        for _ in range(SETUPS_PER_GAP):
            done = subprocess.run(
                [sys.executable, __file__, str(self.rules), str(self.artifact)],
                capture_output=True, text=True, env=self.env,
                timeout=6 * HEALTHY_TIMEOUT_S,
            )
            if done.returncode != 0:
                tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
                raise RuntimeError(
                    f"set-up probe exited {done.returncode}: {tail[0]}"
                )
            self.times.append(json.loads(done.stdout))

    def median(self, key: str = "setup_s") -> float:
        return statistics.median(record[key] for record in self.times)


def _cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _sample(seed: int, tag: str, count: int) -> set[int]:
    rng = random.Random(f"sample-{seed}-{tag}")
    return {index for index in range(count) if rng.random() < SAMPLE}


def step_verdict(result) -> str:
    """Why an open-loop step failed its latency target, or ``""``.

    A step keeps up when at least 99% of its offered requests are
    answered by the end of its sending window plus the latency limit:
    the request due last may still take up to the limit."""
    answered = [x for x in result.latency if x is not None]
    interval = 1.0 / result.rate
    answered_in_time = sum(
        1 for index, latency in enumerate(result.latency)
        if latency is not None
        and index * interval + latency <= result.duration + P99_LIMIT_S
    )
    if result.failed:
        return "failed requests"
    if result.aborted:
        return "aborted on backlog"
    if result.cpu_frac >= GENERATOR_BOUND:
        return "generator-bound"
    if nearest_rank(answered, 99.0) > P99_LIMIT_S:
        return "p99 over limit"
    if answered_in_time < 0.99 * result.rate * result.duration:
        return "achieved under 99% of offered"
    if backlog_growing(result.latency):
        return "growing backlog"
    return ""


class _Server:
    """The running supervisor plus the worker's pid."""

    def __init__(self, supervisor: ServeSupervisor) -> None:
        self.supervisor = supervisor
        self.pid = supervisor.worker_pids[0]

    def cpu(self) -> float:
        return _cpu_seconds(self.pid)


def _open_phase(gen, data, server, outcome, rate, seconds, tag, seed):
    """One open-loop step with worker CPU and the checked sample."""
    keep = _sample(seed, tag, max(1, int(rate * seconds)))
    cpu = server.cpu()
    result = gen.run(data.singles, rate, seconds, keep=keep)
    result.worker_cpu_s = server.cpu() - cpu
    outcome.attempted += result.sent
    if result.failed:
        outcome.fail(f"{tag}: {result.failed} requests failed", result.failed)
    return result


def _rate_search(gen, data, server, outcome, search, steps, budget, step_s,
                 seed) -> None:
    """Offer ``search``'s next rate for ``step_s`` seconds at a time until
    it is done or the next step would overrun ``budget`` seconds (at
    least one step); append each step's ``(result, verdict)`` to
    ``steps``."""
    deadline = time.perf_counter() + budget
    while not search.done:
        rate = search.rate
        result = _open_phase(
            gen, data, server, outcome, rate, step_s, f"step-{len(steps)}",
            seed,
        )
        verdict = step_verdict(result)
        search.record(rate, not verdict)
        steps.append((result, verdict))
        if time.perf_counter() + step_s > deadline:
            return


def _check_open(data: Inputs, artifact: Path, sample, outcome) -> int:
    """Compare sampled single decisions, ``(request index, raw body)``
    pairs, with the offline oracle of the boot artifact."""
    oracle = FilterListOracle.from_artifact(artifact)
    size = len(data.trace)
    triples = [data.trace[index % size] for index, _ in sample]
    expected = oracle.label_request_many(
        [(u, ResourceType.from_option(k), p) for u, k, p in triples]
    )
    mismatched = 0
    for (_, body), (url, _, _), want in zip(sample, triples, expected):
        got = json.loads(body)
        if (
            got.get("url") != url
            or got.get("label") != want.label.value
            or got.get("matched_rule") != want.matched_rule
            or got.get("matched_list") != want.matched_list
            or got.get("revision") != 1
        ):
            mismatched += 1
    if mismatched:
        outcome.fail(
            f"{mismatched} of {len(sample)} sampled decisions differ from "
            "the offline oracle", mismatched,
        )
    return len(sample)


def _warm(gen, data) -> None:
    """Replay the whole trace once, untimed."""
    rate = 4 * FIXED_RPS
    gen.run(data.singles, rate, len(data.singles) / rate, abort_after=30.0)


def _answered(result) -> list:
    return [x for x in result.latency if x is not None]


def run_open(ctx) -> Outcome:
    """Warm-up, the fixed-rate phase and the rate search, with timed
    set-ups before, between and after them."""
    outcome = Outcome(ctx.workload)
    rules = inputs.easylist_shaped(ctx.seed, ctx.scale["rules"])
    artifact = ctx.out / "serve-open.tsoracle"
    # Booted before the traffic is built, so the worker forks from a
    # process that holds little besides the program.
    server = _measured(rules, artifact)
    supervisor = server.supervisor
    fixed_s, search_s = (
        (0.2 * ctx.seconds, 0.3 * ctx.seconds) if ctx.trace
        else (0.3 * ctx.seconds, 0.55 * ctx.seconds)
    )
    search, steps = RateSearch(FIXED_RPS), []
    try:
        data = Inputs(ctx)
        boots = _Boots(ctx, rules, "serve-open")
        boots.probe()
        with OpenLoopGenerator(supervisor.host, supervisor.port) as gen:
            _warm(gen, data)
            boots.probe()
            fixed = _open_phase(
                gen, data, server, outcome, FIXED_RPS, fixed_s, "fixed",
                ctx.seed,
            )
            boots.probe()
            _rate_search(
                gen, data, server, outcome, search, steps, search_s,
                search_s / SEARCH_STEPS, ctx.seed,
            )
        boots.probe()
        peak = _peak_rss_mb(server.pid)
    finally:
        supervisor.shutdown()
    sample = [
        pair for result in [fixed] + [r for r, _ in steps]
        for pair in sorted(result.bodies.items())
    ]
    checked = _check_open(data, artifact, sample, outcome)

    latency = summarize(_answered(fixed))
    passing = [r for r, verdict in steps if not verdict]
    last = max(passing, key=lambda r: r.rate) if passing else fixed
    outcome.metric("setup_s", boots.median(), "s")
    outcome.metric("peak_rss_mb", peak, "MB")
    outcome.timing("decide_p50_ms", latency["p50"] * 1e3, "ms")
    outcome.timing(
        "decide_p99_ms", nearest_rank(_answered(fixed), 99.0) * 1e3, "ms"
    )
    outcome.timing("sustainable_rps", search.best, "req/s")
    outcome.detail(f"decide_p{latency['tail_pct']}_ms", latency["tail"] * 1e3, "ms")
    outcome.detail("decide.n", latency["n"], "count")
    outcome.detail("setup_s.raw", boots.median("setup_raw_s"), "s")
    outcome.detail("setup_s.n", len(boots.times), "count")
    outcome.detail("checked_decisions", checked, "count")
    for index, (result, verdict) in enumerate(steps):
        outcome.detail(
            f"step{index}", f"{result.rate:.0f}rps:{verdict or 'pass'}", "step"
        )
    outcome.detail("client.cpu_frac", last.cpu_frac, "ratio")
    outcome.detail("serve.worker_cpu_frac", last.worker_cpu_s / last.wall_s, "ratio")
    outcome.detail(
        "client.send_lateness_p99_ms", nearest_rank(fixed.lateness, 99.0) * 1e3, "ms"
    )
    if ctx.trace:
        _trace_open(ctx, rules, data, outcome, fixed, last, search.best)
    return outcome


@contextmanager
def _traced_server(ctx, rules: str, artifact: Path):
    """Install the layer timer, then boot a fresh worker under it (so the
    worker inherits the wrappers); yields ``(timer, server)`` and writes
    the spans once the worker is shut down."""
    timer = layers.install(layers.LayerTimer())
    try:
        server = _measured(rules, artifact)
        try:
            yield timer, server
        finally:
            server.supervisor.shutdown()
        timer.write_spans(ctx.out / f"spans-{ctx.workload}-seed{ctx.seed}.jsonl")
    finally:
        timer.restore()


def _traced_layers(before: dict, after: dict, server: _Server,
                   cpu: float) -> tuple[dict, float]:
    """Layer metrics of the worker between two snapshots, set-up layers
    (compile, image open) over the whole traced boot, and the worker CPU
    seconds no wrapped layer accounts for."""
    worker = {
        pid: rows for pid, rows in layers.delta(after, before).items()
        if pid == server.pid
    }
    booted = {
        pid: rows for pid, rows in after.items()
        if pid in (os.getpid(), server.pid)
    }
    metrics = layer_metrics_from(worker)
    setup = layer_metrics_from(booted)
    for name in ("filterlists.compile_s", "filterlists.artifact_bytes",
                 "filterlists.image_open_s"):
        metrics[name] = setup[name]
    unattributed = max(0.0, cpu - attributed_seconds(worker))
    metrics["trace.unattributed_frac"] = unattributed / cpu if cpu else 0.0
    return metrics, unattributed


def _trace_open(ctx, rules, data, outcome, fixed, last, best) -> None:
    """Traced serve-open: a fresh traced worker at the fixed rate and at
    80% of the untraced sustainable rate."""
    artifact = ctx.out / "serve-open-traced.tsoracle"
    with _traced_server(ctx, rules, artifact) as (timer, server):
        with OpenLoopGenerator(server.supervisor.host, server.supervisor.port) as gen:
            _warm(gen, data)
            before = timer.snapshot()
            traced_fixed = _open_phase(
                gen, data, server, outcome, FIXED_RPS, 0.15 * ctx.seconds,
                "traced-fixed", ctx.seed,
            )
            high = _open_phase(
                gen, data, server, outcome, max(FIXED_RPS, 0.8 * best),
                0.2 * ctx.seconds, "traced-high", ctx.seed,
            )
            after = timer.snapshot()
    _check_open(
        data, artifact,
        sorted(traced_fixed.bodies.items()) + sorted(high.bodies.items()),
        outcome,
    )
    cpu = traced_fixed.worker_cpu_s + high.worker_cpu_s
    metrics, unattributed = _traced_layers(before, after, server, cpu)
    untraced_cost = fixed.worker_cpu_s / fixed.sent
    traced_cost = traced_fixed.worker_cpu_s / traced_fixed.sent
    metrics.update(
        {
            "serve.worker_cpu_frac": last.worker_cpu_s / last.wall_s,
            "serve.protocol_us_per_request": (
                unattributed / (traced_fixed.sent + high.sent) * 1e6
            ),
            "client.cpu_frac": last.cpu_frac,
            "client.send_lateness_p99_ms": nearest_rank(fixed.lateness, 99.0) * 1e3,
            "client.max_inflight": last.max_inflight,
            "trace.overhead_frac": traced_cost / untraced_cost - 1.0,
        }
    )
    outcome.layers.update(metrics)


def _check_churn(data, artifacts, records, reloads, seed, outcome) -> int:
    """Check the sampled batches and every batch near a reload against
    the offline oracle of the revision that answered them, and check no
    batch sent after a reload completed was answered by an older one."""
    oracles = {}
    near = [(start - RELOAD_WINDOW_S, end + RELOAD_WINDOW_S) for start, end, _ in reloads]
    sample = _sample(seed, "churn", max((r.index for r in records), default=0) + 1)
    checked = mismatched = 0
    for record in records:
        sampled = record.index in sample
        close = any(
            record.sent <= high and record.received >= low for low, high in near
        )
        if record.status != 200:
            continue
        payload = json.loads(record.body)
        revision = payload.get("revision")
        floor = max(
            (rev for _, end, rev in reloads if end <= record.sent), default=1
        )
        if revision is None or revision < floor or payload.get("count") != BATCH:
            mismatched += BATCH
            checked += BATCH
            continue
        if not (sampled or close):
            continue
        artifact = artifacts[(revision - 1) % 2]
        oracle = oracles.get(artifact)
        if oracle is None:
            oracle = oracles[artifact] = FilterListOracle.from_artifact(artifact)
        triples = data.batch(record.index)
        expected = oracle.label_request_many(
            [(u, ResourceType.from_option(k), p) for u, k, p in triples]
        )
        for got, (url, _, _), want in zip(payload["decisions"], triples, expected):
            checked += 1
            if (
                got.get("url") != url
                or got.get("revision") != revision
                or got.get("label") != want.label.value
                or got.get("matched_rule") != want.matched_rule
                or got.get("matched_list") != want.matched_list
            ):
                mismatched += 1
    if mismatched:
        outcome.fail(
            f"{mismatched} of {checked} checked batch decisions differ from "
            "the offline oracle of their revision", mismatched,
        )
    return checked


def _churn_phase(data, server, artifacts, seconds, every, *, segments=1,
                 between=None, first_index=0) -> dict:
    """Closed-loop batches for ``seconds`` in ``segments`` equal parts,
    calling ``between()`` after each, with a reload every ``every``
    seconds that alternates the hotfix artifact and the base one."""
    supervisor = server.supervisor
    phase = {"records": [], "reloads": [], "lost": 0,
             "client_cpu_s": 0.0, "worker_cpu_s": 0.0, "wall": 0.0}
    reloads = phase["reloads"]
    for _ in range(segments):
        due = time.perf_counter() + every

        def tick(now: float) -> None:
            nonlocal due
            if now < due:
                return
            started = time.perf_counter()
            report = supervisor.reload(artifacts[1 - len(reloads) % 2])
            reloads.append((started, time.perf_counter(), report["revision"]))
            due += every

        cpu = server.cpu()
        with ClosedLoopClient(supervisor.host, supervisor.port) as client:
            started = time.perf_counter()
            records, lost, client_cpu = client.run(
                data.encode_batch, seconds / segments, tick=tick,
                first_index=first_index,
            )
            phase["wall"] += time.perf_counter() - started
        phase["worker_cpu_s"] += server.cpu() - cpu
        phase["client_cpu_s"] += client_cpu
        phase["lost"] += lost
        phase["records"] += records
        # Indices prepared but never sent are skipped, never reused: a
        # reused index would repeat its cache-busted URLs.
        first_index += len(records) + lost + len(client.connections)
        if between is not None:
            between()
    phase["client_cpu_frac"] = phase["client_cpu_s"] / phase["wall"]
    return phase


def _churn_metrics(phase) -> dict:
    """Decisions per second over the phase's wall time (set-up probes
    between its parts excluded), batch round trips and reload times."""
    ok = [r for r in phase["records"] if r.status == 200]
    rtts = [r.received - r.sent for r in ok]
    reload_s = [end - start for start, end, _ in phase["reloads"]]
    return {
        "batches": len(ok),
        "decisions_per_s": len(ok) * BATCH / phase["wall"],
        "batch": summarize(rtts),
        "batch_p99": nearest_rank(rtts, 99.0),
        "reload_s": statistics.median(reload_s) if reload_s else 0.0,
        "reload_max_s": max(reload_s, default=0.0),
        "reloads": len(reload_s),
        "worker_cpu_frac": phase["worker_cpu_s"] / phase["wall"],
    }


def _churn(ctx, data, server, artifacts, seconds, outcome, **parts) -> dict:
    phase = _churn_phase(
        data, server, artifacts, seconds, ctx.scale["reload_every"], **parts
    )
    # Operations are decisions, so a failed batch counts BATCH times, as
    # does each decision the check finds wrong.
    records = phase["records"]
    outcome.attempted += (len(records) + phase["lost"]) * BATCH
    errors = sum(1 for r in records if r.status != 200) + phase["lost"]
    if errors:
        outcome.fail(
            f"{errors} batches failed or went unanswered", errors * BATCH
        )
    started = time.perf_counter()
    phase["checked"] = _check_churn(
        data, artifacts, records, phase["reloads"], ctx.seed, outcome
    )
    phase["check_s"] = time.perf_counter() - started
    phase["metrics"] = _churn_metrics(phase)
    return phase


def run_churn(ctx) -> Outcome:
    """Untimed warm-up batches, then the churn phase in four parts with
    timed set-ups before and after each."""
    outcome = Outcome(ctx.workload)
    rules = inputs.easylist_shaped(ctx.seed, ctx.scale["rules"])
    artifacts = (
        ctx.out / "serve-churn.tsoracle",
        ctx.out / "serve-churn-hotfix.tsoracle",
    )
    # Booted before the traffic is built (see run_open).
    server = _measured(rules, artifacts[0])
    supervisor = server.supervisor
    try:
        data = Inputs(ctx)
        compile_lists(artifacts[1], *_lists(rules, data.hotfix))
        boots = _Boots(ctx, rules, "serve-churn")
        boots.probe()
        _churn_phase(data, server, artifacts, 0.5, 60.0, first_index=1 << 30)
        phase = _churn(
            ctx, data, server, artifacts,
            ctx.seconds * (0.45 if ctx.trace else 1.0), outcome,
            segments=4, between=boots.probe,
        )
        peak = _peak_rss_mb(server.pid)
    finally:
        supervisor.shutdown()
    churn = phase["metrics"]
    outcome.metric("setup_s", boots.median(), "s")
    outcome.metric("peak_rss_mb", peak, "MB")
    outcome.timing("decisions_per_s", churn["decisions_per_s"], "1/s")
    outcome.timing("batch_p50_ms", churn["batch"]["p50"] * 1e3, "ms")
    outcome.timing("batch_p99_ms", churn["batch_p99"] * 1e3, "ms")
    outcome.detail("batch.n", churn["batch"]["n"], "count")
    outcome.detail("setup_s.raw", boots.median("setup_raw_s"), "s")
    outcome.detail("setup_s.n", len(boots.times), "count")
    outcome.detail("checked_decisions", phase["checked"], "count")
    outcome.detail("check_s", phase["check_s"], "s")
    outcome.detail("serve.reloads", churn["reloads"], "count")
    outcome.detail("serve.reload_s", churn["reload_s"], "s")
    outcome.detail("serve.reload_max_s", churn["reload_max_s"], "s")
    outcome.detail("client.cpu_frac", phase["client_cpu_frac"], "ratio")
    outcome.detail("serve.worker_cpu_frac", churn["worker_cpu_frac"], "ratio")
    if ctx.trace:
        _trace_churn(ctx, rules, data, artifacts, phase, outcome)
    return outcome


def _trace_churn(ctx, rules, data, artifacts, untraced, outcome) -> None:
    """Traced serve-churn: the same churn phase on a fresh traced worker."""
    with _traced_server(ctx, rules, artifacts[0]) as (timer, server):
        _churn_phase(data, server, artifacts, 0.5, 60.0, first_index=1 << 30)
        before = timer.snapshot()
        phase = _churn(ctx, data, server, artifacts, 0.45 * ctx.seconds, outcome)
        after = timer.snapshot()
    cpu = phase["worker_cpu_s"]
    metrics, unattributed = _traced_layers(before, after, server, cpu)
    base = untraced["metrics"]
    traced = phase["metrics"]
    metrics.update(
        {
            "serve.worker_cpu_frac": base["worker_cpu_frac"],
            "serve.protocol_us_per_request": (
                unattributed / traced["batches"] * 1e6 if traced["batches"] else 0.0
            ),
            "serve.reload_s": base["reload_s"],
            "serve.reload_max_s": base["reload_max_s"],
            "serve.reloads": base["reloads"],
            "client.cpu_frac": untraced["client_cpu_frac"],
            "client.max_inflight": CONNECTIONS,
            "trace.overhead_frac": (
                base["decisions_per_s"] / traced["decisions_per_s"] - 1.0
                if traced["decisions_per_s"] else 0.0
            ),
        }
    )
    outcome.layers.update(metrics)


if __name__ == "__main__":
    # One timed set-up in a fresh process, for _Boots:
    #     python3 serving.py RULES_FILE ARTIFACT
    _rules = Path(sys.argv[1]).read_text(encoding="utf-8")
    _supervisor, _scaled, _raw = timed_setup(
        lambda: boot(_rules, Path(sys.argv[2]))
    )
    _supervisor.shutdown()
    sys.stdout.write(json.dumps({"setup_s": _scaled, "setup_raw_s": _raw}) + "\n")
