#!/usr/bin/env python
"""Quickstart: run the TrackerSift study end to end at a small scale.

This is the paper's whole pipeline in five steps — generate a calibrated
synthetic web (the 100K-crawl stand-in), crawl it with the instrumented
browser cluster, label every script-initiated request with the
EasyList/EasyPrivacy oracle, sift hierarchically, and print the paper's
Tables 1-2 plus the Figure 1 walk-through for one real mixed chain.

The batch pipeline below materializes every stage.  The same study also
runs through the streaming engine, which shards the crawl, labels through
a memoized oracle, never materializes the request database, and can
checkpoint/resume per shard — and fan the shards out to parallel worker
processes, with results identical for every worker count::

    from repro import PipelineConfig, StreamingPipeline

    engine = StreamingPipeline(
        PipelineConfig(sites=2_000, seed=7),
        shards=13,                       # any count; results are identical
        workers=4,                       # crawl shards on 4 processes
        checkpoint_dir="checkpoints/",   # optional: resumable per shard
    )
    result = engine.run()
    print(f"separation {result.report.final_separation:.1%}, "
          f"label cache hit rate {result.notes['label_cache_hit_rate']:.1%}")

(or on the command line: ``trackersift sift --streaming --shards 13
--workers 4``).  This script demonstrates both doors and checks they
agree — including a parallel run.

The study's oracle also deploys as a long-lived **online service**
(``trackersift serve --port 8377``): blocking decisions over an asyncio
HTTP/1.1 JSON API, answered from an atomically swappable snapshot that
hot-reloads new list versions without dropping a request::

    curl -s -X POST localhost:8377/v1/decide \
        -d '{"url": "https://doubleclick.net/pixel.gif"}'
    curl -s -X POST localhost:8377/v1/reload \
        -d '{"lists": [{"name": "hotfix", "text": "||evil.example^"}]}'
    curl -s localhost:8377/metrics

At deployment scale the same oracle serves from N processes sharing one
memory-mapped compiled image (``trackersift compile --out
rules.tsoracle`` then ``trackersift serve --workers 4 --artifact
rules.tsoracle``): each forked worker runs an asyncio server on the
shared port (``SO_REUSEPORT`` where available, an inherited listening
socket otherwise), reloads are coordinated across the whole fleet by
the supervisor (``SIGHUP``), and an extra worker costs a thin private
skeleton rather than another oracle copy.

The tail of this script runs the same loops in-process: start a server
on an ephemeral port, decide, hot-reload a hotfix rule, decide again —
then a 2-worker supervisor over a compiled artifact, with a coordinated
reload and merged cross-worker metrics.

Run:  python examples/quickstart.py
"""

from repro.analysis.report import render_table1, render_table2
from repro.analysis.tables import build_table1, build_table2
from repro.core.classifier import ResourceClass
from repro.core.engine import StreamingPipeline
from repro.core.pipeline import PipelineConfig, TrackerSiftPipeline


def main() -> None:
    config = PipelineConfig(sites=500, seed=7)
    print(f"Running TrackerSift on {config.sites} synthetic landing pages ...")
    result = TrackerSiftPipeline(config).run()

    print(
        f"\nCrawled {result.pages_crawled} pages, captured "
        f"{len(result.database):,} events, labeled "
        f"{result.total_script_requests:,} script-initiated requests "
        f"({result.labeled.excluded_non_script:,} non-script requests excluded)."
    )

    print("\nTable 1 — requests classified at each granularity:")
    print(render_table1(build_table1(result.report)))

    print("\nTable 2 — unique resources classified at each granularity:")
    print(render_table2(build_table2(result.report)))

    print(
        f"\nFinal separation factor: {result.report.final_separation:.1%} "
        "(paper: 98%)"
    )

    # The same study through the streaming engine: sharded, memoized,
    # nothing materialized — and the report is identical by construction.
    streamed = StreamingPipeline(config, shards=13).run(result.web)
    assert streamed.report.summary() == result.report.summary()
    print(
        f"\nStreaming engine agrees across 13 shards; label cache: "
        f"{int(streamed.notes['label_cache_hits']):,} hits / "
        f"{int(streamed.notes['label_cache_misses']):,} misses "
        f"({streamed.notes['label_cache_hit_rate']:.1%} hit rate)"
    )

    # And once more with parallel shard workers: each worker crawls,
    # labels and accumulates its shards in its own process, the parent
    # merges — the report stays identical for every worker count.
    parallel = StreamingPipeline(config, shards=13, workers=2).run(result.web)
    assert parallel.report.summary() == result.report.summary()
    print(
        f"Parallel engine agrees across {int(parallel.notes['workers'])} "
        f"workers x 13 shards."
    )

    # Figure 1, on live data: follow one mixed domain down the hierarchy.
    report = result.report
    mixed_domain = next(iter(sorted(report.domain.mixed_keys())))
    domain_result = report.domain.resources[mixed_domain]
    print(f"\nFigure 1 walk-through for mixed domain {mixed_domain!r}:")
    print(
        f"  domain   {mixed_domain}: T={domain_result.counts.tracking} "
        f"F={domain_result.counts.functional} -> {domain_result.resource_class.value}"
    )
    hosts = [
        h for h in report.hostname.resources.values()
        if h.key == mixed_domain or h.key.endswith("." + mixed_domain)
    ]
    for host in hosts[:4]:
        print(
            f"  hostname {host.key}: T={host.counts.tracking} "
            f"F={host.counts.functional} -> {host.resource_class.value}"
        )
    mixed_hosts = [h.key for h in hosts if h.resource_class is ResourceClass.MIXED]
    if mixed_hosts:
        scripts = {
            r.script
            for r in result.labeled.requests
            if r.hostname in set(mixed_hosts)
        }
        for script in sorted(scripts)[:3]:
            res = report.script.resources.get(script)
            if res is None:
                continue
            name = script.rsplit("/", 1)[-1]
            print(
                f"  script   {name}: T={res.counts.tracking} "
                f"F={res.counts.functional} -> {res.resource_class.value}"
            )

    # The oracle, served online: decide over HTTP, hot-reload a hotfix
    # list, and watch the snapshot revision advance — in-flight requests
    # always finish on the snapshot they started with.
    from repro.serve import AsyncServerThread, BlockingClient

    with AsyncServerThread(port=0) as server:
        client = BlockingClient(server.host, server.port)
        decision = client.decide("https://doubleclick.net/pixel/42.gif")
        print(
            f"\nServing on {server.url}: {decision['url']} -> "
            f"{decision['label']} (rule {decision['matched_rule']}, "
            f"snapshot revision {decision['revision']})"
        )
        assert not client.decide("https://cdn.flaky.example/app.js")["blocked"]
        report = client.reload(lists=[("hotfix", "||cdn.flaky.example^\n")])
        print(
            f"Hot reload -> revision {report['revision']}, rule churn "
            f"{report['churn']['summary']}"
        )
        assert client.decide("https://cdn.flaky.example/app.js")["blocked"]
        metrics = client.metrics()
        print(
            f"Metrics: {metrics['decisions']['served']} decisions served, "
            f"cache hit rate {metrics['cache']['hit_rate']:.0%}, "
            f"p99 latency {metrics['latency']['p99_ms']:.3f} ms"
        )
        client.close()

    # Deployment scale: compile the oracle once, fork 2 asyncio workers
    # over the memory-mapped image, reload the whole fleet in one
    # coordinated swap, and read the merged cross-worker metrics.
    import tempfile
    from pathlib import Path

    from repro.filterlists.compile import compile_lists
    from repro.filterlists.parser import parse_filter_list
    from repro.serve import ServeSupervisor
    from repro.serve.service import default_lists

    with tempfile.TemporaryDirectory(prefix="trackersift-quickstart-") as tmp:
        boot = Path(tmp) / "rules.tsoracle"
        compile_lists(boot, *default_lists())
        hotfix = Path(tmp) / "hotfix.tsoracle"
        compile_lists(
            hotfix,
            *default_lists(),
            parse_filter_list("||cdn.flaky.example^\n", name="hotfix"),
        )
        supervisor = ServeSupervisor(boot, workers=2).start()
        try:
            client = BlockingClient(supervisor.host, supervisor.port)
            decision = client.decide("https://doubleclick.net/pixel.gif")
            print(
                f"\n2 workers on :{supervisor.port} "
                f"({supervisor.strategy}): worker {decision['worker']} -> "
                f"{decision['label']} at revision {decision['revision']}"
            )
            report = supervisor.reload(hotfix)
            print(
                f"Coordinated reload -> revision {report['revision']} "
                f"acknowledged by {len(report['workers'])} workers"
            )
            assert client.decide("https://cdn.flaky.example/app.js")["blocked"]
            merged = supervisor.metrics()
            print(
                f"Merged metrics: pids {sorted(merged['worker_pids'])}, "
                f"revision_consistent={merged['revision_consistent']}"
            )
            client.close()
        finally:
            codes = supervisor.shutdown()
        assert codes == [0, 0], codes

    # Every execution path above (batch, streaming, fan-out, compiled
    # artifacts, the service) must produce the same decisions on *any*
    # workload — the scenario conformance matrix proves it per named
    # pack (cloaking, churn storms, token drift, ...), pinned by the
    # committed golden manifests.  `trackersift scenario run --matrix`
    # runs everything; one pack here keeps the demo quick.
    from repro.scenarios import ScenarioRunner

    outcome = ScenarioRunner().run("tiny-and-huge-mix")
    assert outcome.ok, outcome.problems()
    print(
        f"\nScenario 'tiny-and-huge-mix': {len(outcome.paths)} execution "
        f"paths, {outcome.labeled_requests:,} labeled requests — "
        "byte-identical across every path (golden-pinned)"
    )


if __name__ == "__main__":
    main()
