"""The scenario runner: every execution path, one verdict per scenario.

After PRs 1–4 the repo answers the same study five independent ways —
batch pipeline, streaming shards, process fan-out, compiled-artifact
fan-out, and the online service.  Each fast path was proven equivalent to
its predecessor *at the time it landed*; the runner makes that a standing
obligation over *diverse workloads*: it drives one
:class:`~repro.scenarios.spec.ScenarioSpec` through every path and
asserts that nothing observable depends on which path answered.

Per scenario the runner checks three identities:

* **report identity** — every pipeline-shaped path produces the same
  ``SiftReport.summary()`` (and labeled-request count);
* **shard-state identity** — every sharded path at the scenario's shard
  count produces byte-identical :class:`ShardState` JSON (sha256-pinned);
* **decision identity** — the online service, replaying the scenario's
  workload trace through its churn schedule, answers every chunk exactly
  as the offline oracle of the revision that answered it, and its
  final-state decision stream hashes to the offline reference digest.

Each identity is also pinned against a **committed golden manifest**
(``src/repro/scenarios/golden/<name>.json``), so a silent behaviour
change in *all* paths at once — the failure mode cross-path comparison
cannot see — still trips the matrix.  Regenerate goldens explicitly with
``trackersift scenario run --matrix --update-golden`` after an intended
behaviour change; the manifest embeds the spec's sha256, so a stale
golden for an edited pack fails loudly instead of comparing garbage.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..core.engine import StreamingPipeline
from ..core.pipeline import TrackerSiftPipeline
from ..filterlists.compile import compile_lists
from ..filterlists.lists import default_lists
from ..filterlists.oracle import FilterListOracle
from ..filterlists.parser import ParsedList
from ..obs.ledger import Ledger, StreamHasher, diff_ledgers
from ..serve.service import BlockingService
from ..webmodel.generator import SyntheticWeb, SyntheticWebGenerator
from .churn import churn_revisions
from .packs import get_pack
from .spec import ScenarioSpec
from .trace import TraceRequest, build_trace, decisions_digest, offline_decisions

__all__ = [
    "EXECUTION_PATHS",
    "PathResult",
    "ScenarioOutcome",
    "ScenarioRunner",
    "GOLDEN_DIR",
]

#: path name → one-line description, in canonical run order.
EXECUTION_PATHS: dict[str, str] = {
    "batch": "TrackerSiftPipeline (retain mode, the historical batch path)",
    "stream-1": "StreamingPipeline at shards=1",
    "stream-13": "StreamingPipeline at the scenario's cluster shard count",
    "fanout-2": "StreamingPipeline with 2 process-pool shard workers",
    "artifact-fanout": "2-worker fan-out labeling through a compiled .tsoracle",
    "service": "BlockingService trace replay through the churn schedule",
}

GOLDEN_DIR = Path(__file__).parent / "golden"

#: pipeline-shaped paths (produce a SiftReport) vs the service path.
_PIPELINE_PATHS = ("batch", "stream-1", "stream-13", "fanout-2", "artifact-fanout")
#: paths that run at the scenario's shard count and expose ShardState.
_SHARDED_PATHS = ("stream-13", "fanout-2", "artifact-fanout")


@dataclass
class PathResult:
    """One execution path's observable output on one scenario."""

    path: str
    wall_seconds: float
    requests: int
    summary: list[dict] | None = None
    shard_state_sha256: str | None = None
    decisions_sha256: str | None = None
    #: this path's determinism fingerprint chain (see repro.obs.ledger).
    ledger: Ledger | None = None

    @property
    def requests_per_second(self) -> float:
        return self.requests / self.wall_seconds if self.wall_seconds > 0 else 0.0


@dataclass
class ScenarioOutcome:
    """Everything one scenario run produced, plus its verdicts."""

    spec: ScenarioSpec
    paths: dict[str, PathResult] = field(default_factory=dict)
    #: canonical values (from the first pipeline path / the offline oracle).
    summary: list[dict] | None = None
    shard_state_sha256: str | None = None
    decisions_sha256: str | None = None
    labeled_requests: int = 0
    pages_crawled: int = 0
    trace_requests: int = 0
    revisions: int = 1
    web_sites: int = 0
    #: cross-path disagreements (empty == all paths agree).
    mismatches: list[str] = field(default_factory=list)
    #: disagreements with the committed golden manifest.
    golden_mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.golden_mismatches

    def problems(self) -> list[str]:
        return self.mismatches + self.golden_mismatches


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _summary_sha(summary: list[dict]) -> str:
    return _sha256(json.dumps(summary, sort_keys=True))


class ScenarioRunner:
    """Drives scenario packs through the execution-path matrix.

    ``paths`` selects a subset of :data:`EXECUTION_PATHS` (default: all).
    ``golden_dir`` points at the committed manifests; tests that need to
    exercise golden-divergence handling point it at a scratch directory
    instead.  The bench and the CLI always run against the committed
    manifests at each pack's committed scale.
    """

    def __init__(
        self,
        *,
        paths: tuple[str, ...] | None = None,
        golden_dir: str | Path | None = None,
        use_golden: bool = True,
    ) -> None:
        selected = tuple(paths) if paths is not None else tuple(EXECUTION_PATHS)
        unknown = [p for p in selected if p not in EXECUTION_PATHS]
        if unknown:
            raise ValueError(
                f"unknown execution path(s) {unknown}; "
                f"known: {', '.join(EXECUTION_PATHS)}"
            )
        if not selected:
            raise ValueError("need at least one execution path")
        # Keep canonical order regardless of how the caller listed them.
        self.paths = tuple(p for p in EXECUTION_PATHS if p in selected)
        self.golden_dir = Path(golden_dir) if golden_dir is not None else GOLDEN_DIR
        self.use_golden = use_golden

    # -- workload construction ---------------------------------------------
    @staticmethod
    def build_web(spec: ScenarioSpec) -> SyntheticWeb:
        """Generate the population and apply the spec's transforms.

        Fixed order — internal pages, then CNAME cloaking, then method
        anonymization — so a spec's meaning never depends on import order.
        Transforms mutate the web in place; the runner builds one web per
        scenario and shares it across paths (no path mutates it).
        """
        web = SyntheticWebGenerator(sites=spec.sites, seed=spec.seed).build()
        knobs = spec.web
        if knobs.internal_site_fraction > 0:
            from ..webmodel.internal import add_internal_pages

            add_internal_pages(
                web,
                pages_per_site=knobs.internal_pages_per_site,
                site_fraction=knobs.internal_site_fraction,
                seed=knobs.internal_seed,
            )
        if knobs.cloaking_fraction > 0:
            from ..webmodel.cloaking import apply_cname_cloaking

            apply_cname_cloaking(
                web, fraction=knobs.cloaking_fraction, seed=knobs.cloaking_seed
            )
        if knobs.anonymize_fraction > 0:
            from ..webmodel.anonymize import anonymize_methods

            anonymize_methods(
                web, fraction=knobs.anonymize_fraction, seed=knobs.anonymize_seed
            )
        return web

    # -- execution ---------------------------------------------------------
    def run(
        self, scenario: ScenarioSpec | str, *, update_golden: bool = False
    ) -> ScenarioOutcome:
        """Run one scenario through every selected path and judge it."""
        spec = get_pack(scenario) if isinstance(scenario, str) else scenario
        outcome = ScenarioOutcome(spec=spec)

        web = self.build_web(spec)
        outcome.web_sites = len(web.websites)
        revisions = churn_revisions(default_lists(), spec.churn)
        outcome.revisions = len(revisions)
        final_lists = revisions[-1]
        trace = build_trace(web, spec.trace)
        outcome.trace_requests = len(trace)

        # The offline reference decision stream: what *any* path that
        # labels this workload with the final rules must reproduce.
        reference = offline_decisions(FilterListOracle(*final_lists), trace)
        outcome.decisions_sha256 = decisions_digest(reference)

        for path in self.paths:
            if path == "service":
                outcome.paths[path] = self._run_service(
                    spec, trace, revisions, outcome
                )
            else:
                outcome.paths[path] = self._run_pipeline(
                    path, spec, web, final_lists, outcome
                )

        self._check_cross_path(outcome)
        if update_golden:
            self.write_golden(outcome)
        elif self.use_golden:
            self._check_golden(outcome)
        return outcome

    def _run_pipeline(
        self,
        path: str,
        spec: ScenarioSpec,
        web: SyntheticWeb,
        final_lists: tuple[ParsedList, ...],
        outcome: ScenarioOutcome,
    ) -> PathResult:
        config = spec.config()
        ledger = Ledger(path)
        started = time.perf_counter()
        engine: StreamingPipeline | None = None
        if path == "batch":
            result = TrackerSiftPipeline(
                config, oracle=FilterListOracle(*final_lists), ledger=ledger
            ).run(web)
        elif path == "stream-1":
            result = StreamingPipeline(
                config,
                shards=1,
                oracle=FilterListOracle(*final_lists),
                ledger=ledger,
            ).run(web)
        elif path == "stream-13":
            engine = StreamingPipeline(
                config,
                shards=spec.cluster_nodes,
                oracle=FilterListOracle(*final_lists),
                ledger=ledger,
            )
            result = engine.run(web)
        elif path == "fanout-2":
            engine = StreamingPipeline(
                config,
                shards=spec.cluster_nodes,
                workers=2,
                oracle=FilterListOracle(*final_lists),
                ledger=ledger,
            )
            result = engine.run(web)
        elif path == "artifact-fanout":
            with tempfile.TemporaryDirectory(
                prefix="trackersift-scenario-"
            ) as scratch:
                artifact = str(Path(scratch) / "oracle.tsoracle")
                compile_lists(artifact, *final_lists)
                engine = StreamingPipeline(
                    config,
                    shards=spec.cluster_nodes,
                    workers=2,
                    oracle=FilterListOracle.from_artifact(artifact),
                    ledger=ledger,
                )
                result = engine.run(web)
        else:  # pragma: no cover - guarded in __init__
            raise ValueError(f"not a pipeline path: {path}")
        wall = time.perf_counter() - started

        labeled = int(result.notes.get("labeled_requests", 0)) or len(
            result.labeled.requests
        )
        record = PathResult(
            path=path,
            wall_seconds=wall,
            requests=labeled,
            summary=result.report.summary(),
            ledger=ledger,
        )
        if engine is not None:
            record.shard_state_sha256 = _sha256(
                "\n".join(state.to_json() for state in engine.shard_states())
            )
        if outcome.summary is None:
            outcome.summary = record.summary
            outcome.labeled_requests = labeled
            outcome.pages_crawled = result.pages_crawled
        if outcome.shard_state_sha256 is None and record.shard_state_sha256:
            outcome.shard_state_sha256 = record.shard_state_sha256
        return record

    def _run_service(
        self,
        spec: ScenarioSpec,
        trace: list[TraceRequest],
        revisions: list[tuple[ParsedList, ...]],
        outcome: ScenarioOutcome,
    ) -> PathResult:
        """Replay the trace through a live service under the churn schedule.

        The trace is split into ``spec.trace.chunks`` contiguous chunks;
        after every chunk (except the last) the service hot-reloads one
        pending revision.  Each chunk's decisions are verified against the
        offline oracle of the revision that answered it — mid-churn
        correctness, not just end-state correctness.  Any reloads the
        chunk count left unapplied land afterwards, then the *full* trace
        replays against the final snapshot; that stream's digest is the
        path's decision fingerprint.
        """
        started = time.perf_counter()
        service = BlockingService(*revisions[0])
        # The service's determinism chain, plus an offline-built reference
        # chain fed from the *expected* decisions — the two must agree
        # stage for stage (snapshot identity + decision-stream digest per
        # revision, in revision order).
        ledger = service.attach_ledger(Ledger("service"))
        reference_streams: dict[int, StreamHasher] = {}
        rev_oracles: dict[int, FilterListOracle] = {}

        def oracle_for(rev_index: int) -> FilterListOracle:
            if rev_index not in rev_oracles:
                rev_oracles[rev_index] = FilterListOracle(*revisions[rev_index])
            return rev_oracles[rev_index]

        def replay(chunk: list[TraceRequest]) -> list[dict]:
            return [
                {
                    "url": decision["url"],
                    "label": decision["label"],
                    "blocked": decision["blocked"],
                }
                for decision in (
                    service.decide(t.url, t.resource_type, t.page_url)
                    for t in chunk
                )
            ]

        chunk_count = spec.trace.chunks
        size = max(1, -(-len(trace) // chunk_count))
        chunks = [trace[i : i + size] for i in range(0, len(trace), size)]
        decided = 0
        rev_index = 0
        for index, chunk in enumerate(chunks):
            served = replay(chunk)
            decided += len(served)
            expected = offline_decisions(oracle_for(rev_index), chunk)
            reference_streams.setdefault(
                rev_index + 1, StreamHasher()
            ).update_many(
                f"{d['url']}|{d['label']}|{int(d['blocked'])}"
                for d in expected
            )
            if served != expected:
                first = next(
                    (
                        s["url"]
                        for s, e in zip(served, expected)
                        if s != e
                    ),
                    "?",
                )
                outcome.mismatches.append(
                    f"service: chunk {index} (revision {rev_index}) diverged "
                    f"from the offline oracle (first at {first})"
                )
            if index < len(chunks) - 1 and rev_index + 1 < len(revisions):
                rev_index += 1
                service.reload(*revisions[rev_index])
        # Catch up on reloads the chunk count did not cover, so the
        # service always finishes on the schedule's final revision.
        while rev_index + 1 < len(revisions):
            rev_index += 1
            service.reload(*revisions[rev_index])
        if service.snapshot.revision != len(revisions):
            outcome.mismatches.append(
                f"service: snapshot revision {service.snapshot.revision} "
                f"after {len(revisions) - 1} reload(s), expected {len(revisions)}"
            )
        # Flush the chain *before* the verification-only full replay —
        # that replay re-decides the whole trace against the final
        # snapshot and must not pollute the per-revision streams.
        service.finalize_ledger()
        reference = Ledger("service-reference")
        for revision in range(1, len(revisions) + 1):
            reference.record(
                "serve.snapshot",
                {
                    "revision": revision,
                    "rule_count": oracle_for(revision - 1).rule_count,
                },
                revision=revision,
            )
            hasher = reference_streams.get(revision)
            reference.record_digest(
                "serve.decisions",
                (hasher or StreamHasher()).hexdigest(),
                revision=revision,
            )
        diff = diff_ledgers(reference, ledger)
        if not diff["identical"]:
            outcome.mismatches.append(
                f"service: ledger diverged from the offline reference at "
                f"stage {diff['stage']!r} (index {diff['index']})"
            )
        final = replay(trace)
        decided += len(final)
        record = PathResult(
            path="service",
            wall_seconds=time.perf_counter() - started,
            requests=decided,
            decisions_sha256=decisions_digest(final),
            ledger=ledger,
        )
        return record

    # -- verdicts ----------------------------------------------------------
    def _check_cross_path(self, outcome: ScenarioOutcome) -> None:
        pipeline = [
            outcome.paths[p] for p in _PIPELINE_PATHS if p in outcome.paths
        ]
        for record in pipeline[1:]:
            if record.summary != pipeline[0].summary:
                outcome.mismatches.append(
                    f"{record.path}: report diverged from {pipeline[0].path}"
                )
            if record.requests != pipeline[0].requests:
                outcome.mismatches.append(
                    f"{record.path}: labeled {record.requests} requests, "
                    f"{pipeline[0].path} labeled {pipeline[0].requests}"
                )
            if record.ledger is not None and pipeline[0].ledger is not None:
                diff = diff_ledgers(pipeline[0].ledger, record.ledger)
                if not diff["identical"]:
                    outcome.mismatches.append(
                        f"{record.path}: ledger diverged from "
                        f"{pipeline[0].path} at stage {diff['stage']!r} "
                        f"(index {diff['index']})"
                    )
        sharded = [
            outcome.paths[p] for p in _SHARDED_PATHS if p in outcome.paths
        ]
        for record in sharded[1:]:
            if record.shard_state_sha256 != sharded[0].shard_state_sha256:
                outcome.mismatches.append(
                    f"{record.path}: ShardState JSON diverged from "
                    f"{sharded[0].path}"
                )
        service = outcome.paths.get("service")
        if service is not None and (
            service.decisions_sha256 != outcome.decisions_sha256
        ):
            outcome.mismatches.append(
                "service: final-state decision stream diverged from the "
                "offline oracle's reference digest"
            )

    # -- golden manifests --------------------------------------------------
    def golden_path(self, spec: ScenarioSpec) -> Path:
        return self.golden_dir / f"{spec.name}.json"

    def _manifest(self, outcome: ScenarioOutcome) -> dict:
        spec = outcome.spec
        return {
            "scenario": spec.name,
            "spec": spec.to_dict(),
            "spec_sha256": _sha256(spec.to_json()),
            "summary": outcome.summary,
            "summary_sha256": (
                _summary_sha(outcome.summary) if outcome.summary else None
            ),
            "shard_state_sha256": outcome.shard_state_sha256,
            "decisions_sha256": outcome.decisions_sha256,
            "labeled_requests": outcome.labeled_requests,
            "pages_crawled": outcome.pages_crawled,
            "trace_requests": outcome.trace_requests,
            "revisions": outcome.revisions,
            "web_sites": outcome.web_sites,
        }

    def write_golden(self, outcome: ScenarioOutcome) -> Path:
        path = self.golden_path(outcome.spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self._manifest(outcome), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    def _check_golden(self, outcome: ScenarioOutcome) -> None:
        path = self.golden_path(outcome.spec)
        if not path.exists():
            outcome.golden_mismatches.append(
                f"golden manifest {path} missing; regenerate with "
                "`trackersift scenario run --matrix --update-golden`"
            )
            return
        golden = json.loads(path.read_text(encoding="utf-8"))
        current = self._manifest(outcome)
        if golden.get("spec_sha256") != current["spec_sha256"]:
            outcome.golden_mismatches.append(
                f"golden manifest {path.name} was generated from a "
                "different spec; the pack changed — regenerate the golden "
                "if the change is intended"
            )
            return
        keys = ["decisions_sha256", "trace_requests", "revisions", "web_sites"]
        if outcome.summary is not None:  # a pipeline path ran
            keys += ["summary_sha256", "labeled_requests", "pages_crawled"]
        if outcome.shard_state_sha256 is not None:  # a sharded path ran
            keys.append("shard_state_sha256")
        for key in keys:
            if golden.get(key) != current[key]:
                outcome.golden_mismatches.append(
                    f"{key} diverged from golden {path.name}: "
                    f"golden {golden.get(key)!r} vs run {current[key]!r}"
                )
