"""TrackerSift reproduction — untangling mixed tracking and functional web
resources (Amjad et al., ACM IMC 2021).

The package is organised as the paper's system plus every substrate it
depends on:

* :mod:`repro.urlkit` — URLs, hostnames, public-suffix eTLD+1,
* :mod:`repro.filterlists` — Adblock Plus engine + EasyList/EasyPrivacy
  snapshots (the labeling oracle), with a memoized decision cache for the
  labeling hot path,
* :mod:`repro.webmodel` — calibrated synthetic web (the 100K-crawl stand-in),
* :mod:`repro.browser` — simulated instrumented browser (DevTools events,
  call stacks, blocking policies, breakage grading),
* :mod:`repro.crawler` — ranked lists, stateless crawls, sharded cluster,
  request database,
* :mod:`repro.labeling` — oracle labeling with ancestral propagation,
* :mod:`repro.core` — TrackerSift itself: the ratio classifier, the
  hierarchical sifter, the streaming execution engine, sensitivity,
  call-stack analysis, surrogates, guards,
* :mod:`repro.analysis` — Tables 1-3 and Figures 3-5 builders + rendering,
* :mod:`repro.serve` — the online blocking-decision service: the oracle
  behind an asyncio HTTP/1.1 JSON API with hot-reloadable list snapshots.

The serving and scenario names re-exported here (``BlockingService``,
``AsyncServerThread``, ``BlockingClient``, ``OpenLoopLoadGenerator``,
``ScenarioRunner``, ``ScenarioSpec``, ``SCENARIO_PACKS``) load on first
use, so ``import repro`` for a study never imports the server stack.

**The pipeline.**  The crawl → label → sift path runs on one execution
engine with two front doors.  The classic batch API materializes every
stage — handy when you want the request database and labeled crawl in
hand afterwards::

    from repro import run_study
    result = run_study(sites=500, seed=7)
    print(result.report.final_separation)       # ~0.98 in the paper
    result.database.to_jsonl("crawl.jsonl")     # every captured event

The streaming API runs the same study without materializing anything
request-shaped: sites are sharded into batches, each page's events flow
straight through the memoized labeling oracle into grouped sift
accumulators, and completed shards checkpoint to disk so a partial run
resumes where it stopped::

    from repro import PipelineConfig, StreamingPipeline
    engine = StreamingPipeline(
        PipelineConfig(sites=2_000, seed=7),
        shards=13,                      # execution knob — never changes results
        workers=4,                      # crawl shards on 4 worker processes
        checkpoint_dir="checkpoints/",  # optional: resume after interruption
    )
    result = engine.run()
    print(result.report.final_separation)
    print(result.notes["label_cache_hit_rate"])   # >50% at study scale

Both doors produce identical reports for identical configs — the
equivalence is pinned, shard count by shard count and worker count by
worker count, in ``tests/test_streaming_engine.py`` and
``tests/test_parallel_engine.py`` — because
:class:`~repro.core.pipeline.TrackerSiftPipeline` *is* the engine in
retain mode, one shard per cluster node, and parallel workers run the
same per-shard crawl in their own processes (per-site determinism makes
the shard a pure function of its site list; see
:mod:`repro.core.parallel`).  ``trackersift sift --streaming --shards N
--workers W`` (or ``python -m repro sift --streaming ...``) exposes both
knobs on the command line.

**Serving.**  The same oracle the studies label with also runs as a
long-lived online service: :class:`~repro.serve.BlockingService` answers
per-request blocking decisions from an atomically swappable snapshot (a
cache-enabled oracle + its own thread-safe decision cache), and
:class:`~repro.serve.AsyncServerThread` exposes it over an asyncio
HTTP/1.1 JSON API with hot reload — ``trackersift serve --port 8377``
(``--workers N`` forks N such servers over one shared oracle image).  Served
decisions are bit-identical to offline
:meth:`FilterListOracle.should_block_url` labeling for the same lists
(the identity gate in ``benchmarks/bench_serve.py`` checks this over
live HTTP), and a reload never drops a request: in-flight decisions
finish on the old snapshot.

**Compiled artifacts.**  Parsing list text and building the token/host
indexes is paid *once*, at compile time: ``trackersift compile --out
lists.tsoracle`` (or :func:`repro.filterlists.compile.compile_lists`)
writes a fully built matcher's flat oracle image into a versioned,
checksummed artifact, and :meth:`FilterListOracle.from_artifact` /
``trackersift serve --artifact`` / ``POST /v1/reload {"artifact": ...}``
map it read-only with no parsing or index construction (>= 5x faster
oracle readiness, gated in ``benchmarks/bench_artifacts.py``).  The parallel
engine uses the same machinery internally: shard workers receive a
compiled oracle plus per-shard site slices from an on-disk fan-out store
instead of a pickled copy of the whole study, and ship a
transfer/startup/compute overhead breakdown back with every shard.

**Scenario conformance.**  Every fast path above promises the same
observable behaviour; :mod:`repro.scenarios` makes that a standing,
workload-diverse obligation.  Named scenario packs (CNAME cloaking,
filter-list churn storms, anonymized long tails, internal pages, hot
reload under load, cache-buster token drift, extreme site-size skew,
flaky crawls) are declarative :class:`~repro.scenarios.ScenarioSpec`
data; :class:`~repro.scenarios.ScenarioRunner` drives each pack through
every execution path — batch, streaming, process fan-out,
compiled-artifact fan-out, and the online service — and checks
byte-identical reports, ``ShardState`` JSON and blocking decisions
against committed golden manifests (``trackersift scenario run
--matrix``; gated per PR by the tier-1 matrix test and
``benchmarks/bench_scenarios.py``).

The fan-out is chaos-hardened: a lease-based work-stealing scheduler
retries, steals, and quarantines around worker crashes, hangs, and
stragglers without changing a byte of output, and every fault is
reproducible through the seed-driven :mod:`repro.faults` plane (the
``TRACKERSIFT_FAULTS`` environment variable or the ``fault_plan``
kwarg; gated by ``benchmarks/bench_chaos.py``).
"""

import importlib

from .core import (
    HierarchicalSifter,
    PipelineConfig,
    PipelineResult,
    RatioClassifier,
    ResourceClass,
    SiftReport,
    StreamingPipeline,
    TrackerSiftPipeline,
    log_ratio,
    run_study,
    sift_requests,
)
from .faults import FaultPlan, FaultSpec
from .filterlists import FilterListOracle, Label
from .labeling import AnalyzedRequest, LabeledCrawl, RequestLabeler
from .webmodel import PAPER, SyntheticWeb, SyntheticWebGenerator, generate_web

# The serving and scenario re-exports import on first use (PEP 562): a
# study never touches them, and eagerly importing them would pull asyncio,
# ssl, http.client and concurrent.futures into every ``import repro``.
_LAZY = {
    "AsyncServerThread": "serve",
    "BlockingClient": "serve",
    "BlockingService": "serve",
    "OpenLoopLoadGenerator": "serve",
    "SCENARIO_PACKS": "scenarios",
    "ScenarioRunner": "scenarios",
    "ScenarioSpec": "scenarios",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

__version__ = "1.10.0"

__all__ = [
    "__version__",
    "log_ratio",
    "ResourceClass",
    "RatioClassifier",
    "HierarchicalSifter",
    "sift_requests",
    "SiftReport",
    "PipelineConfig",
    "PipelineResult",
    "TrackerSiftPipeline",
    "StreamingPipeline",
    "run_study",
    "FilterListOracle",
    "Label",
    "FaultPlan",
    "FaultSpec",
    "BlockingService",
    "AsyncServerThread",
    "BlockingClient",
    "OpenLoopLoadGenerator",
    "SCENARIO_PACKS",
    "ScenarioRunner",
    "ScenarioSpec",
    "RequestLabeler",
    "AnalyzedRequest",
    "LabeledCrawl",
    "SyntheticWeb",
    "SyntheticWebGenerator",
    "generate_web",
    "PAPER",
]
