"""End-to-end TrackerSift pipeline: generate → crawl → label → sift.

This is the orchestration a user runs to reproduce the paper's study at
some scale.  Every stage is swappable — bring your own web (or a recorded
event database), your own filter lists, your own threshold — which is also
how the ablation benchmarks are built.

Since the streaming engine landed, :class:`TrackerSiftPipeline` is a thin
compatibility wrapper over :class:`~repro.core.engine.StreamingPipeline`
in retain mode: one engine shard per cluster node reproduces the classic
batch crawl bit-for-bit (same event order, same request ids, same failure
set) while the report itself comes from the engine's grouped sift — so
batch and streaming share one implementation.  The individual stage
methods (:meth:`~TrackerSiftPipeline.generate` /
:meth:`~TrackerSiftPipeline.crawl` / :meth:`~TrackerSiftPipeline.label` /
:meth:`~TrackerSiftPipeline.sift`) still run standalone for ablations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..crawler.cluster import CrawlCluster
from ..crawler.storage import RequestDatabase
from ..filterlists.oracle import FilterListOracle
from ..labeling.labeler import LabeledCrawl, RequestLabeler
from ..webmodel.generator import SyntheticWeb, SyntheticWebGenerator
from .engine import PipelineConfig, PipelineResult, StreamingPipeline, sifter_for
from .results import SiftReport

if TYPE_CHECKING:  # pragma: no cover - the ledger imports with its caller
    from ..obs.ledger import Ledger

__all__ = ["PipelineConfig", "PipelineResult", "TrackerSiftPipeline", "run_study"]


class TrackerSiftPipeline:
    """Composable pipeline; each stage can also be called on its own.

    ``workers`` selects the engine's process-parallel mode: the crawl
    fans out to that many shard workers and the report stays bit-identical
    to a sequential run.  Parallel runs carry aggregates only — like the
    streaming door, ``result.database`` and ``result.labeled.requests``
    stay empty, because materialized event streams cannot be reproduced
    identically across process boundaries (request ids are process-global).
    Keep ``workers=1`` when a stage needs the materialized crawl.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        *,
        oracle: FilterListOracle | None = None,
        workers: int = 1,
        ledger: Ledger | None = None,
    ) -> None:
        self.config = config or PipelineConfig()
        if workers < 1:
            raise ValueError("need at least one worker")
        self._workers = workers
        # Every run() and label() decides through this oracle's cache, so
        # repeat runs reuse warm decisions.
        self._oracle = oracle or FilterListOracle()
        # Determinism ledger, passed through to the engine each run().
        # Run once per ledger: every run() appends a fresh stage chain.
        self._ledger = ledger

    # -- stages --------------------------------------------------------------
    def generate(self) -> SyntheticWeb:
        return SyntheticWebGenerator(
            sites=self.config.sites, seed=self.config.seed
        ).build()

    def crawl(self, web: SyntheticWeb) -> tuple[RequestDatabase, int, int]:
        cluster = CrawlCluster(
            web,
            nodes=self.config.cluster_nodes,
            failure_rate=self.config.failure_rate,
        )
        result = cluster.crawl()
        return result.database, result.pages_crawled, result.pages_failed

    def label(self, database: RequestDatabase) -> LabeledCrawl:
        labeler = RequestLabeler(
            self._oracle, propagate_ancestry=self.config.propagate_ancestry
        )
        return labeler.label_crawl(database)

    def sift(self, labeled: LabeledCrawl) -> SiftReport:
        return sifter_for(self.config).sift(labeled.requests)

    # -- end to end -------------------------------------------------------------
    def run(self, web: SyntheticWeb | None = None) -> PipelineResult:
        engine = StreamingPipeline(
            self.config,
            shards=self.config.cluster_nodes,
            workers=self._workers,
            oracle=self._oracle,
            retain_events=self._workers == 1,
            ledger=self._ledger,
        )
        return engine.run(web)


def run_study(
    sites: int = 2_000, seed: int = 7, threshold: float = 2.0
) -> PipelineResult:
    """One-call reproduction of the measurement study at a given scale."""
    config = PipelineConfig(sites=sites, seed=seed, threshold=threshold)
    return TrackerSiftPipeline(config).run()
