"""Streaming sharded execution engine for the crawl → label → sift path.

The batch pipeline materializes every stage — the whole synthetic web, the
whole request database, the whole labeled crawl — before sifting, which
caps the scale a study can run at.  This engine runs the same study as a
stream: sites are sharded into batches, each page's DevTools events flow
straight through labeling into incremental sift accumulators, and nothing
request-shaped outlives the page that produced it.  Three properties make
that safe:

* **Per-site determinism.**  A page's events are a pure function of the
  site and the browser seed (coverage RNG is keyed per site/script/method,
  never an evolving stream), and the per-page failure decision is keyed on
  ``(failure seed, url)`` — so any re-grouping of sites reproduces the
  batch crawl's exact observable behaviour.  The engine assigns every site
  the virtual cluster node a :class:`~repro.crawler.cluster.CrawlCluster`
  would, so even the injected failures match the paper's 13-node setup for
  *any* engine shard count.
* **Grouped sifting.**  The hierarchical sift only needs per-resource
  tallies, so each request collapses into its attribution key
  ``(domain, hostname, script, method)`` — memory is bounded by distinct
  resources, not requests — and the report comes from the same
  :meth:`~repro.core.hierarchy.HierarchicalSifter.sift_maps`
  implementation the batch path uses, so the two cannot drift.  Shard
  states share one run-level key table, and the sift reads their tally
  maps in place: the parent holds one copy of each attribution key.
* **Memoized labeling.**  The oracle's match decision is cached on the
  normalized request shape (url, party, resource type — see
  :mod:`repro.filterlists.cache`), so a tracker script shared by thousands
  of sites is decided once; hit/miss counters surface in
  ``PipelineResult.notes``.

Shards checkpoint to disk as they complete, so a partial run resumes where
it stopped::

    engine = StreamingPipeline(config, shards=8, checkpoint_dir="ckpt/")
    engine.process_shards(limit=3)      # ... interrupted here ...
    result = StreamingPipeline(config, shards=8, checkpoint_dir="ckpt/").run()
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (parallel imports us)
    from ..obs.ledger import Ledger
    from .parallel import LeasePolicy

# Only what every study runs is imported here; event retention, failure
# injection, checkpoints, the ledger and fan-out import where they are
# used, so a plain study never loads them.
from .._record import FrozenRecord, Record, set_field
from ..browser.engine import BrowserEngine
from ..crawler.cluster import NODE_ENGINE_SEED, node_failure_seed, round_robin_shards
from ..crawler.storage import RequestDatabase
from ..crawler.tranco import RankedSite
from ..faults import FaultPlan, SimulatedCrash
from ..filterlists.oracle import FilterListOracle
from ..labeling.labeler import AnalyzedRequest, LabeledCrawl, RequestLabeler
from ..obs.trace import current_tracer, span
from ..stablehash import stable_hash
from ..webmodel.generator import SyntheticWeb, SyntheticWebGenerator
from .classifier import RatioClassifier
from .hierarchy import AttributionKey, HierarchicalSifter, attribution_key
from .results import SiftReport

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "SiftAccumulator",
    "ShardState",
    "StreamingPipeline",
    "sifter_for",
]


class PipelineConfig(FrozenRecord):
    """Study parameters (defaults mirror the paper, scaled down).

    ``descent_threshold`` optionally decouples which resources *descend*
    the hierarchy from the report ``threshold`` (see
    :class:`~repro.core.hierarchy.HierarchicalSifter`).  Leave it ``None``
    for the paper's single-threshold hierarchy; pin it (usually to 2.0)
    when comparing runs across report thresholds, so every run classifies
    the same population at each level and per-level separation factors
    stay monotone — the policy :func:`~repro.core.hierarchy.sift_requests`
    applies by default.
    """

    __slots__ = (
        "sites",
        "seed",
        "cluster_nodes",
        "threshold",
        "failure_rate",
        "propagate_ancestry",
        "descent_threshold",
    )

    sites: int
    seed: int
    cluster_nodes: int
    threshold: float
    failure_rate: float
    propagate_ancestry: bool
    descent_threshold: float | None

    def __init__(
        self,
        sites: int = 2_000,
        seed: int = 7,
        cluster_nodes: int = 13,
        threshold: float = 2.0,
        failure_rate: float = 0.0,
        propagate_ancestry: bool = True,
        descent_threshold: float | None = None,
    ) -> None:
        set_field(self, "sites", sites)
        set_field(self, "seed", seed)
        set_field(self, "cluster_nodes", cluster_nodes)
        set_field(self, "threshold", threshold)
        set_field(self, "failure_rate", failure_rate)
        set_field(self, "propagate_ancestry", propagate_ancestry)
        set_field(self, "descent_threshold", descent_threshold)


class PipelineResult(Record):
    """Everything the study produced, stage by stage.

    Streaming runs leave ``database`` empty and ``labeled.requests`` empty
    (their whole point is not materializing those); the aggregate fields —
    exclusion tallies, participation index, the report itself — are always
    populated, and ``notes`` carries the engine's counters (cache hits and
    misses, shard count, labeled-request total) plus, after a CLI run with
    ``--profile``/``--trace-out``/``--ledger-out``, the string paths of the
    exported observability artifacts.
    """

    __slots__ = (
        "config",
        "web",
        "database",
        "labeled",
        "report",
        "pages_crawled",
        "pages_failed",
        "notes",
    )

    config: PipelineConfig
    web: SyntheticWeb
    database: RequestDatabase
    labeled: LabeledCrawl
    report: SiftReport
    pages_crawled: int
    pages_failed: int
    notes: dict[str, float | str]

    def __init__(
        self,
        config: PipelineConfig,
        web: SyntheticWeb,
        database: RequestDatabase,
        labeled: LabeledCrawl,
        report: SiftReport,
        pages_crawled: int = 0,
        pages_failed: int = 0,
        notes: dict[str, float | str] | None = None,
    ) -> None:
        self.config = config
        self.web = web
        self.database = database
        self.labeled = labeled
        self.report = report
        self.pages_crawled = pages_crawled
        self.pages_failed = pages_failed
        self.notes = {} if notes is None else notes

    @property
    def total_script_requests(self) -> int:
        if self.labeled.requests:
            return len(self.labeled.requests)
        return int(self.notes.get("labeled_requests", 0))


class SiftAccumulator:
    """Incremental grouped tallies a hierarchical sift runs over.

    Feed it :class:`AnalyzedRequest` objects, or merge whole tally maps
    from other accumulators / checkpoints; ask for the report at the end.
    Merged maps are held by reference, not copied, and the report sifts
    them where they lie, so they must not change while the accumulator
    is in use.
    """

    def __init__(
        self, *, groups: dict[AttributionKey, list[int]] | None = None
    ) -> None:
        # ``groups`` may be a shared dict (a ShardState's tallies) so the
        # accumulation and the checkpoint stay one data structure.
        self._groups: dict[AttributionKey, list[int]] = (
            groups if groups is not None else {}
        )
        self._maps: list[Mapping[AttributionKey, list[int]]] = [self._groups]
        self.total_requests = 0

    def add(self, request: AnalyzedRequest) -> None:
        entry = self._groups.setdefault(attribution_key(request), [0, 0])
        entry[0 if request.is_tracking else 1] += 1
        self.total_requests += 1

    def merge(self, groups: Mapping[AttributionKey, list[int]], total: int) -> None:
        self._maps.append(groups)
        self.total_requests += total

    @property
    def groups(self) -> dict[AttributionKey, list[int]]:
        """The summed tally map; built afresh on each read once maps were
        merged in (only the ledger and tests read it)."""
        if len(self._maps) == 1:
            return self._groups
        merged: dict[AttributionKey, list[int]] = {}
        for groups in self._maps:
            for key, (tracking, functional) in groups.items():
                entry = merged.setdefault(key, [0, 0])
                entry[0] += tracking
                entry[1] += functional
        return merged

    @property
    def distinct_resources(self) -> int:
        # Counts each key at the first map that holds it, without
        # building the merged map.
        count = 0
        for index, groups in enumerate(self._maps):
            earlier = self._maps[:index]
            count += sum(
                1 for key in groups if not any(key in seen for seen in earlier)
            )
        return count

    def report(self, sifter: HierarchicalSifter) -> SiftReport:
        return sifter.sift_maps(self._maps, self.total_requests)


class ShardState(Record):
    """One shard's complete, mergeable output — the checkpoint unit."""

    __slots__ = (
        "shard_id",
        "pages_crawled",
        "pages_failed",
        "excluded_non_script",
        "excluded_unparseable",
        "labeled_requests",
        "tallies",
        "participation",
    )

    shard_id: int
    pages_crawled: int
    pages_failed: int
    excluded_non_script: int
    excluded_unparseable: int
    labeled_requests: int
    tallies: dict[AttributionKey, list[int]]
    participation: dict[str, list[int]]

    def __init__(
        self,
        shard_id: int,
        pages_crawled: int = 0,
        pages_failed: int = 0,
        excluded_non_script: int = 0,
        excluded_unparseable: int = 0,
        labeled_requests: int = 0,
        tallies: dict[AttributionKey, list[int]] | None = None,
        participation: dict[str, list[int]] | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.pages_crawled = pages_crawled
        self.pages_failed = pages_failed
        self.excluded_non_script = excluded_non_script
        self.excluded_unparseable = excluded_unparseable
        self.labeled_requests = labeled_requests
        self.tallies = {} if tallies is None else tallies
        self.participation = {} if participation is None else participation

    def to_json(self) -> str:
        return json.dumps(
            {
                "shard_id": self.shard_id,
                "pages_crawled": self.pages_crawled,
                "pages_failed": self.pages_failed,
                "excluded_non_script": self.excluded_non_script,
                "excluded_unparseable": self.excluded_unparseable,
                "labeled_requests": self.labeled_requests,
                "tallies": [
                    [*key, tracking, functional]
                    for key, (tracking, functional) in self.tallies.items()
                ],
                "participation": self.participation,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, data: str) -> "ShardState":
        record = json.loads(data)
        return cls(
            shard_id=record["shard_id"],
            pages_crawled=record["pages_crawled"],
            pages_failed=record["pages_failed"],
            excluded_non_script=record["excluded_non_script"],
            excluded_unparseable=record["excluded_unparseable"],
            labeled_requests=record["labeled_requests"],
            tallies={
                (domain, host, script, method): [tracking, functional]
                for domain, host, script, method, tracking, functional in record[
                    "tallies"
                ]
            },
            participation={
                script: list(entry)
                for script, entry in record["participation"].items()
            },
        )

    def share_keys(self, keys: dict) -> None:
        """Hold tally keys and script names through the key table ``keys``.

        The table maps each attribution key and each string in one to
        itself; every shard state of a run goes through the same table,
        so an equal key or string across shards is one object.  Order and
        content are unchanged.
        """
        tallies = {}
        for key, counts in self.tallies.items():
            shared = keys.get(key)
            if shared is None:
                shared = tuple(keys.setdefault(part, part) for part in key)
                # Entered as its own key, so the table holds no other copy.
                keys[shared] = shared
            tallies[shared] = counts
        self.tallies = tallies
        self.participation = {
            keys.setdefault(script, script): entry
            for script, entry in self.participation.items()
        }


def _check_checkpoint(state: ShardState, shard_id: int) -> None:
    """Raise ``ValueError`` unless ``state`` can be shard ``shard_id``'s:
    its own ID matches, every count is a non-negative int, every
    participation row holds exactly two counts, and every tally row
    counts at least one request."""
    if state.shard_id != shard_id:
        raise ValueError(f"checkpoint holds shard {state.shard_id!r}")
    counts = [
        state.pages_crawled,
        state.pages_failed,
        state.excluded_non_script,
        state.excluded_unparseable,
        state.labeled_requests,
    ]
    for row in state.tallies.values():
        counts.extend(row)
    for row in state.participation.values():
        if len(row) != 2:
            raise ValueError(
                "checkpoint holds a participation row that is not two counts"
            )
        counts.extend(row)
    if not all(type(count) is int and count >= 0 for count in counts):
        raise ValueError("checkpoint holds a count that is not a count")
    if any(sum(row) == 0 for row in state.tallies.values()):
        raise ValueError("checkpoint holds a tally row with no requests")


class StreamingPipeline:
    """Sharded streaming crawl → label → sift with checkpoint/resume.

    ``shards`` is an execution knob, not a semantic one: for a fixed
    config the report is identical for any shard count, and identical to
    the batch :class:`~repro.core.pipeline.TrackerSiftPipeline` (the
    equivalence suite pins this for shards ∈ {1, 2, 13}).

    ``checkpoint_dir`` enables resume: each completed shard is persisted
    atomically, a manifest guards against resuming under a different
    config, and a fresh ``StreamingPipeline`` pointed at the same
    directory picks up where the previous one stopped.

    ``workers`` fans not-yet-done shards out to a process pool
    (:mod:`repro.core.parallel`): each worker crawls+labels+accumulates
    its shards independently and ships serialized :class:`ShardState`
    back; the parent merges through the same accumulator path, so the
    report — and every checkpoint file — is bit-identical to a sequential
    run for any worker count.  Checkpointing composes with workers (the
    parent persists each shard as it completes; a crashed pool loses only
    in-flight shards); ``retain_events`` does not (request ids come from a
    process-global counter, so materialized event streams cannot be made
    identical across process boundaries — aggregates can, and are).

    ``retain_events`` additionally materializes the request database and
    labeled request list while streaming — that is the compatibility mode
    :class:`~repro.core.pipeline.TrackerSiftPipeline` wraps, bit-identical
    to the historical batch path.  It cannot be combined with
    checkpointing (checkpoints deliberately hold only aggregates).
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        *,
        shards: int | None = None,
        workers: int | None = None,
        oracle: FilterListOracle | None = None,
        checkpoint_dir: str | Path | None = None,
        retain_events: bool = False,
        ledger: Ledger | None = None,
        lease_policy: "LeasePolicy | None" = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self._shards = shards if shards is not None else self.config.cluster_nodes
        if self._shards < 1:
            raise ValueError("need at least one shard")
        self._workers = workers if workers is not None else 1
        if self._workers < 1:
            raise ValueError("need at least one worker")
        if retain_events and self._workers > 1:
            raise ValueError(
                "retain_events materializes per-request state (with "
                "process-global request ids) that cannot be reproduced "
                "bit-identically across worker processes; run workers=1 "
                "or drop retain_events"
            )
        if retain_events and checkpoint_dir is not None:
            raise ValueError(
                "retain_events materializes per-request state that "
                "checkpoints do not carry; use one or the other"
            )
        self._oracle = oracle or FilterListOracle()
        # Stats are cumulative on the (possibly shared) oracle; snapshot
        # them so this pipeline's notes report only its own lookups.
        stats = self._oracle.cache_stats
        self._stats_baseline = (stats.hits, stats.misses)
        self._checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._retain = retain_events
        self._states: dict[int, ShardState] = {}
        # The run's key table (ShardState.share_keys): every state that
        # enters _states (crawled here, shipped by a worker, or resumed
        # from a checkpoint) holds its keys and script names through it.
        self._keys: dict = {}
        self._resumed_shards = 0
        # Chaos plumbing: an explicit FaultPlan wins; otherwise the
        # TRACKERSIFT_FAULTS env var lets scripts chaos a run through the
        # real CLI.  None (the overwhelmingly common case) costs nothing.
        self._fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self._lease_policy = lease_policy
        # Lease-scheduler counters accumulated across fan-outs (a resumed
        # run may fan out more than once) — folded into result notes.
        self._lease_notes: dict[str, float] = {}
        # Shards the lease scheduler gave up on this run: the study still
        # completes, explicitly degraded, and a later resume retries them.
        self._quarantined: dict[int, list[str]] = {}
        # Corrupt checkpoint files detected (set aside + recomputed).
        self._checkpoints_discarded = 0
        # Per-shard checkpoint-write executions (for fault coordinates).
        self._store_counts: dict[int, int] = {}
        self._web: SyntheticWeb | None = None
        # True when the web came from self.generate() (kept for the web
        # re-pinning logic in process_shards).
        self._web_generated = False
        # Label-cache lookups performed inside worker processes (their
        # caches are worker-local; only the counters travel back).
        self._worker_hits = 0
        self._worker_misses = 0
        # Fan-out overhead accounting (parallel runs only): parent-side
        # slice indexing plus the per-worker breakdown shipped back with
        # each ShardOutcome — surfaced in PipelineResult.notes so benches
        # can attribute wall-clock instead of guessing.
        self._fanout_materialize_seconds = 0.0
        self._worker_startup_seconds = 0.0
        self._worker_transfer_seconds = 0.0
        self._worker_compute_seconds = 0.0
        # Determinism ledger (optional): per-site crawl/label stream
        # fingerprints accumulate here — shard-count-invariant because
        # they are keyed by site, not shard — and run() records the
        # stage chain exactly once.  Resumed shards carry no digests
        # (checkpoints deliberately hold only aggregates), so the
        # ledger gate always compares *fresh* runs.
        self._ledger = ledger
        self._ledger_recorded = False
        self._crawl_digests: dict[str, str] = {}
        self._label_digests: dict[str, str] = {}
        # Only populated in retain mode.
        self._database = RequestDatabase()
        self._retained = LabeledCrawl()

    @property
    def shards(self) -> int:
        return self._shards

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def oracle(self) -> FilterListOracle:
        return self._oracle

    @property
    def ledger(self) -> Ledger | None:
        return self._ledger

    @property
    def quarantined_shards(self) -> tuple[int, ...]:
        """Shards this run gave up on (empty unless explicitly degraded)."""
        return tuple(sorted(self._quarantined))

    def shard_states(self) -> tuple[ShardState, ...]:
        """Completed shard states in shard order (the mergeable units)."""
        return tuple(
            self._states[shard_id] for shard_id in sorted(self._states)
        )

    def take_site_digests(self) -> tuple[tuple, tuple]:
        """Drain the collected per-site ledger digests as sorted
        ``(url, digest)`` pairs — the worker side of the parallel path
        ships these back with each :class:`ShardOutcome`."""
        crawl = tuple(sorted(self._crawl_digests.items()))
        labels = tuple(sorted(self._label_digests.items()))
        self._crawl_digests.clear()
        self._label_digests.clear()
        return crawl, labels

    # -- stages --------------------------------------------------------------
    def generate(self) -> SyntheticWeb:
        with span("web.generate", sites=self.config.sites, seed=self.config.seed):
            return SyntheticWebGenerator(
                sites=self.config.sites, seed=self.config.seed
            ).build()

    def _site_list(self, web: SyntheticWeb) -> list[RankedSite]:
        return [RankedSite(rank=w.rank, url=w.url) for w in web.websites]

    def _failed_urls(self, sites: list[RankedSite]) -> set[str]:
        """The exact failure set a paper-shaped cluster crawl would see.

        Failure seeds follow the *cluster* node assignment
        (``config.cluster_nodes``-way round-robin), never the engine's
        shard count, so the observable crawl is shard-invariant.
        """
        if self.config.failure_rate <= 0:
            return set()
        from ..crawler.crawler import page_load_fails

        failed: set[str] = set()
        node_shards = round_robin_shards(sites, self.config.cluster_nodes)
        for node_id, assigned in enumerate(node_shards):
            seed = node_failure_seed(node_id)
            for site in assigned:
                if page_load_fails(seed, site.url, self.config.failure_rate):
                    failed.add(site.url)
        return failed

    # -- checkpointing -------------------------------------------------------
    def _manifest(self) -> dict:
        return {
            "sites": self.config.sites,
            "seed": self.config.seed,
            "cluster_nodes": self.config.cluster_nodes,
            # No threshold here: checkpoints hold classifier-free tallies,
            # so the same crawl is reusable across report thresholds.
            "failure_rate": self.config.failure_rate,
            "propagate_ancestry": self.config.propagate_ancestry,
            "shards": self._shards,
            # Guards resume against a *different web* under the same config
            # (e.g. a hand-built web passed to run()): stale shards from
            # another universe must not be merged silently.
            "web_fingerprint": _web_fingerprint(self._web) if self._web else 0,
        }

    def _shard_path(self, shard_id: int) -> Path:
        assert self._checkpoint_dir is not None
        return self._checkpoint_dir / f"shard-{shard_id:04d}.json"

    def _prepare_checkpoint_dir(self) -> None:
        if self._checkpoint_dir is None:
            return
        self._checkpoint_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = self._checkpoint_dir / "manifest.json"
        manifest = self._manifest()
        if manifest_path.exists():
            try:
                existing = json.loads(
                    manifest_path.read_text(encoding="utf-8")
                )
            except (ValueError, UnicodeDecodeError):
                # A torn manifest means the shard files cannot be trusted
                # to belong to this configuration: set everything aside
                # (preserved for diagnosis) and start the directory fresh.
                from ..durable import set_aside

                set_aside(manifest_path)
                for stale in sorted(self._checkpoint_dir.glob("shard-*.json")):
                    set_aside(stale)
                    self._checkpoints_discarded += 1
                _atomic_write(
                    manifest_path, json.dumps(manifest, sort_keys=True)
                )
                return
            if existing != manifest:
                raise ValueError(
                    f"checkpoint directory {self._checkpoint_dir} was written "
                    f"by a different study configuration: {existing!r}"
                )
        else:
            _atomic_write(manifest_path, json.dumps(manifest, sort_keys=True))

    def _load_checkpoints(self) -> None:
        if self._checkpoint_dir is None:
            return
        for shard_id in range(self._shards):
            if shard_id in self._states:
                continue
            path = self._shard_path(shard_id)
            if path.exists():
                try:
                    state = ShardState.from_json(
                        path.read_text(encoding="utf-8")
                    )
                    _check_checkpoint(state, shard_id)
                except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                    # A corrupt checkpoint (torn write from a pre-durable
                    # version, bit rot, another shard's file) must not
                    # poison resume: set the bad bytes aside and recompute
                    # exactly this shard.
                    from ..durable import set_aside

                    set_aside(path)
                    self._checkpoints_discarded += 1
                    continue
                state.share_keys(self._keys)
                self._states[shard_id] = state
                self._resumed_shards += 1

    def _store(self, state: ShardState) -> None:
        execution = self._store_counts.get(state.shard_id, 0) + 1
        self._store_counts[state.shard_id] = execution
        fault = (
            self._fault_plan.at("engine.checkpoint", state.shard_id, execution)
            if self._fault_plan is not None
            else None
        )
        if fault is not None and fault.kind == "crash-before-checkpoint":
            raise SimulatedCrash(
                f"injected crash before checkpointing shard {state.shard_id}"
            )
        state.share_keys(self._keys)
        self._states[state.shard_id] = state
        if self._checkpoint_dir is not None:
            payload = state.to_json()
            path = self._shard_path(state.shard_id)
            if fault is not None and fault.kind in ("corrupt", "truncate"):
                # Simulates a torn/bit-rotted checkpoint left by a
                # non-durable writer: the file exists at its final name
                # but does not parse — exactly what _load_checkpoints
                # must set aside and recompute.
                path.write_bytes(
                    FaultPlan.corrupt_bytes(payload.encode("utf-8"), fault)
                )
            else:
                _atomic_write(path, payload)
            if fault is not None and fault.kind == "crash-after-checkpoint":
                raise SimulatedCrash(
                    "injected crash after checkpointing shard "
                    f"{state.shard_id}"
                )

    # -- execution -----------------------------------------------------------
    def process_shards(
        self, web: SyntheticWeb | None = None, *, limit: int | None = None
    ) -> int:
        """Process up to ``limit`` not-yet-done shards; returns how many ran.

        With a ``checkpoint_dir`` this is the resumable unit of work: call
        it with a limit, lose the process, construct a fresh pipeline and
        call :meth:`run` — completed shards load from disk and only the
        remainder is crawled.  With ``workers > 1`` the pending shards run
        on a process pool; each completed shard is stored (and
        checkpointed) by the parent as it arrives, so interrupting the
        pool keeps every finished shard.
        """
        if web is None:
            if self._web is None:
                self._web = self.generate()
                self._web_generated = True
            web = self._web
        elif self._web is not None and web is not self._web:
            # In-memory shard states are only mergeable within one web;
            # the checkpoint manifest guards the on-disk equivalent.
            if _web_fingerprint(self._web) != _web_fingerprint(web):
                raise ValueError(
                    "this pipeline already crawled shards of a different "
                    "web; build a new StreamingPipeline for a new web"
                )
            self._web = web
            self._web_generated = False
        else:
            # First explicit web, or the already-pinned one handed back:
            # _web_generated stays False / keeps its value respectively.
            self._web = web
        sites = self._site_list(web)
        self._prepare_checkpoint_dir()
        self._load_checkpoints()
        pending = [
            shard_id
            for shard_id in range(self._shards)
            if shard_id not in self._states
        ]
        if limit is not None:
            pending = pending[:limit]
        if not pending:
            return 0
        failed_urls = self._failed_urls(sites)
        shard_sites = round_robin_shards(sites, self._shards)
        by_url = {w.url: w for w in web.websites}
        if self._workers > 1 and len(pending) > 1:
            return self._process_shards_parallel(
                pending, shard_sites, by_url, failed_urls
            )
        for shard_id in pending:
            self._store(
                self._crawl_shard(
                    shard_id, shard_sites[shard_id], by_url, failed_urls
                )
            )
        return len(pending)

    def _process_shards_parallel(
        self,
        pending: list[int],
        shard_sites: list,
        by_url: dict,
        failed_urls: set[str],
    ) -> int:
        """Fan ``pending`` shards out to worker processes.

        The pending shards' sites are indexed once into an in-memory
        slice store; the workers are forked after it, so each inherits
        the store and this pipeline's oracle object and nothing is
        serialized or written for them (see :mod:`repro.core.parallel`
        for the design and crash semantics).
        """
        from .parallel import (
            ShardOutcome,
            ShardSliceStore,
            WorkerSpec,
            run_shards_leased,
        )

        tracer = current_tracer()
        started = time.perf_counter()
        with span("fanout.materialize", shards=len(pending)):
            slice_store = ShardSliceStore()
            slice_store.materialize(pending, shard_sites, by_url, failed_urls)
        # Accumulated (not assigned): a resumed run may fan out more than
        # once, and the notes must account for every store built.
        self._fanout_materialize_seconds += time.perf_counter() - started
        spec = WorkerSpec(
            config=self.config,
            shards=self._shards,
            store=slice_store,
            oracle=self._oracle,
            trace=tracer is not None,
            ledger=self._ledger is not None,
            fault_plan=self._fault_plan,
        )

        def store(outcome: ShardOutcome) -> None:
            self._store(ShardState.from_json(outcome.state_json))
            self._worker_hits += outcome.cache_hits
            self._worker_misses += outcome.cache_misses
            # Overhead notes are derived from the worker.* spans each
            # outcome ships (not hand-counted scalars), so the notes
            # and an exported trace can never disagree.
            for record in outcome.spans:
                name = record.get("name")
                duration = float(record.get("duration", 0.0))
                if name == "worker.startup":
                    self._worker_startup_seconds += duration
                elif name == "worker.transfer":
                    self._worker_transfer_seconds += duration
                elif name == "worker.compute":
                    self._worker_compute_seconds += duration
            self._crawl_digests.update(outcome.crawl_digests)
            self._label_digests.update(outcome.label_digests)
            if tracer is not None:
                tracer.adopt(outcome.spans)

        with span("fanout", workers=self._workers, shards=len(pending)):
            report = run_shards_leased(
                spec,
                pending,
                self._workers,
                store,
                policy=self._lease_policy,
            )
        self._absorb_lease_report(report)
        return report.completed

    def _absorb_lease_report(self, report) -> None:
        """Fold one fan-out's :class:`LeaseReport` into run-level state."""
        from .parallel import LeasePolicy

        for key, value in report.to_notes().items():
            self._lease_notes[key] = self._lease_notes.get(key, 0.0) + value
        self._quarantined.update(report.quarantined)
        # A gauge, not a counter: recompute after the merge.
        self._lease_notes["shards_quarantined"] = float(len(self._quarantined))
        if report.quarantined and self._checkpoint_dir is not None:
            from ..durable import atomic_write_text

            policy = self._lease_policy or LeasePolicy()
            atomic_write_text(
                self._checkpoint_dir / "quarantine.json",
                json.dumps(
                    report.quarantine_record(policy.max_failures),
                    sort_keys=True,
                ),
            )

    def _crawl_shard(
        self,
        shard_id: int,
        sites: list[RankedSite],
        by_url: dict,
        failed_urls: set[str],
    ) -> ShardState:
        tracer = current_tracer()
        ledger_on = self._ledger is not None
        state = ShardState(shard_id=shard_id)
        accumulator = SiftAccumulator(groups=state.tallies)
        # A fresh engine per shard, like each cluster node ran its own
        # Chrome; page behaviour is site-keyed, so sharding cannot change it.
        browser = BrowserEngine(seed=NODE_ENGINE_SEED)
        labeler = RequestLabeler(
            self._oracle, propagate_ancestry=self.config.propagate_ancestry
        )
        counters = LabeledCrawl(participation=state.participation)
        extension = None
        if self._retain:
            from ..browser.extension import CrawlExtension

            extension = CrawlExtension(self._database)
        if ledger_on:
            from ..obs.ledger import stream_digest
        # Crawl vs label time interleaves per site, so the stage spans are
        # accumulated (Tracer.add) rather than contiguous; both the clock
        # reads and the per-site ledger hashing are skipped entirely when
        # no tracer/ledger is attached — the instrumented hot path costs
        # nothing by default.
        crawl_seconds = label_seconds = 0.0
        with span("shard", shard=shard_id, sites=len(sites)):
            for site in sites:
                website = by_url.get(site.url)
                if website is None or site.url in failed_urls:
                    state.pages_failed += 1
                    if ledger_on:
                        self._crawl_digests[site.url] = "failed"
                        self._label_digests[site.url] = "failed"
                    continue
                if tracer is None:
                    page = browser.load(website)
                else:
                    loaded = time.perf_counter()
                    page = browser.load(website)
                    crawl_seconds += time.perf_counter() - loaded
                if extension is not None:
                    extension.capture_page(page)
                if ledger_on:
                    # str concat + one bulk stream_digest, not per-event
                    # f-strings through StreamHasher.update(): this loop
                    # runs per request and is what keeps the attached
                    # ledger inside the <5% bench_obs overhead budget.
                    self._crawl_digests[site.url] = stream_digest(
                        [
                            event.url
                            + ("|1|" if event.script_initiated else "|0|")
                            + event.resource_type
                            for event in page.requests
                        ]
                    )
                    label_parts: list[str] = []
                    label_append = label_parts.append
                labeled = time.perf_counter() if tracer is not None else 0.0
                # iter_labeled drains the oracle through its chunked batch
                # path (label_request_many), amortizing decision-cache lock
                # rounds per page while keeping stream order and the
                # label_cache_* note accounting byte-identical.
                for analyzed in labeler.iter_labeled(
                    page.requests, counters=counters
                ):
                    accumulator.add(analyzed)
                    if ledger_on:
                        # The url is deliberately absent: label order is
                        # the script-initiated subsequence of the crawl
                        # stream, so once the crawl digests agree the
                        # urls at each label position already agree.
                        label_append(
                            analyzed.label.value
                            + "|" + analyzed.script
                            + "|" + analyzed.method
                        )
                    if self._retain:
                        self._retained.requests.append(analyzed)
                if tracer is not None:
                    label_seconds += time.perf_counter() - labeled
                if ledger_on:
                    self._label_digests[site.url] = stream_digest(label_parts)
                state.pages_crawled += 1
            if tracer is not None:
                tracer.add(
                    "shard.crawl",
                    crawl_seconds,
                    shard=shard_id,
                    pages=state.pages_crawled,
                )
                tracer.add(
                    "shard.label",
                    label_seconds,
                    shard=shard_id,
                    requests=accumulator.total_requests,
                )
        state.labeled_requests = accumulator.total_requests
        state.excluded_non_script = counters.excluded_non_script
        state.excluded_unparseable = counters.excluded_unparseable
        return state

    # -- end to end -----------------------------------------------------------
    def run(self, web: SyntheticWeb | None = None) -> PipelineResult:
        """Run (or finish) the study and assemble the result."""
        self.process_shards(web)
        web = self._web
        assert web is not None  # process_shards always pins the web
        accumulator = SiftAccumulator()
        # Aggregates are rebuilt from the shard states on every call, so a
        # repeated run() stays idempotent; only the retained request list
        # (appended at crawl time, and shards never re-crawl) is shared.
        labeled = LabeledCrawl(requests=self._retained.requests)
        pages_crawled = pages_failed = 0
        with span("sift", shards=self._shards):
            for shard_id in range(self._shards):
                if shard_id in self._quarantined:
                    # Explicitly degraded: the shard exhausted its retry
                    # budget and its contribution is absent from every
                    # aggregate below — flagged in notes, recorded in
                    # quarantine.json, retried by the next resume.
                    continue
                state = self._states[shard_id]
                accumulator.merge(state.tallies, state.labeled_requests)
                pages_crawled += state.pages_crawled
                pages_failed += state.pages_failed
                labeled.excluded_non_script += state.excluded_non_script
                labeled.excluded_unparseable += state.excluded_unparseable
                # By reference: a script in one shard keeps that shard's
                # row; only a script two shards share gets a new summed
                # row, so no shard row is ever written here.
                participation = labeled.participation
                for script, row in state.participation.items():
                    held = participation.setdefault(script, row)
                    if held is not row:
                        participation[script] = [held[0] + row[0], held[1] + row[1]]
            report = accumulator.report(sifter_for(self.config))
        if self._ledger is not None and not self._ledger_recorded:
            self._record_ledger(web, accumulator, report)
            self._ledger_recorded = True
        notes: dict[str, float] = {
            "shards": float(self._shards),
            "workers": float(self._workers),
            "shards_resumed": float(self._resumed_shards),
            "labeled_requests": float(accumulator.total_requests),
            "distinct_resources": float(accumulator.distinct_resources),
        }
        notes.update(self._lease_notes)
        if self._checkpoints_discarded:
            notes["checkpoints_discarded"] = float(self._checkpoints_discarded)
        if self._quarantined:
            notes["degraded"] = 1.0
            notes["quarantined_shard_ids"] = ",".join(
                str(shard_id) for shard_id in sorted(self._quarantined)
            )
        if self._workers > 1:
            # Fan-out overhead breakdown: parent-side indexing of the
            # slice store, and the summed per-worker startup (pipeline
            # construction), transfer (slice lookups) and compute seconds
            # shipped back with the shard outcomes.
            notes["fanout_materialize_seconds"] = (
                self._fanout_materialize_seconds
            )
            notes["worker_startup_seconds"] = self._worker_startup_seconds
            notes["worker_transfer_seconds"] = self._worker_transfer_seconds
            notes["worker_compute_seconds"] = self._worker_compute_seconds
        # Parent-side lookups plus the counters worker processes shipped
        # back with their shard outcomes.
        stats = self._oracle.cache_stats
        hits = stats.hits - self._stats_baseline[0] + self._worker_hits
        misses = stats.misses - self._stats_baseline[1] + self._worker_misses
        lookups = hits + misses
        notes["label_cache_hits"] = float(hits)
        notes["label_cache_misses"] = float(misses)
        notes["label_cache_hit_rate"] = hits / lookups if lookups else 0.0
        return PipelineResult(
            config=self.config,
            web=web,
            database=self._database,
            labeled=labeled,
            report=report,
            pages_crawled=pages_crawled,
            pages_failed=pages_failed,
            notes=notes,
        )

    def _record_ledger(
        self,
        web: SyntheticWeb,
        accumulator: SiftAccumulator,
        report: SiftReport,
    ) -> None:
        """Record the full stage chain into the attached ledger.

        Every stage's state is shard-count- and worker-count-invariant:
        list/matcher identity comes from the matcher itself (identical
        whether parsed fresh or loaded from an artifact), the crawl and
        label stages are per-*site* stream digests keyed by URL, and the
        sift stage is the merged tally map — so all execution paths of
        one study must produce the identical chain, and the first
        divergent stage localizes any determinism bug.
        """
        ledger = self._ledger
        assert ledger is not None
        plain = self._oracle.matcher.wrapped
        automaton = plain.automaton
        ledger.record(
            "filterlists",
            {"lists": list(plain.list_names), "rule_count": plain.rule_count},
        )
        ledger.record(
            "matcher",
            {
                "rule_count": plain.rule_count,
                "revision": plain.revision,
                "automaton_keys": (
                    automaton.vocabulary_size if automaton else 0
                ),
                "unsupported_rules": plain.unsupported_rule_count,
            },
        )
        ledger.record(
            "web",
            {"fingerprint": _web_fingerprint(web), "sites": len(web.websites)},
        )
        ledger.record(
            "crawl",
            self._crawl_digests,
            sites=len(self._crawl_digests),
            shards_resumed=self._resumed_shards,
        )
        ledger.record(
            "labels",
            self._label_digests,
            requests=int(accumulator.total_requests),
        )
        ledger.record(
            "sift",
            {
                "tallies": sorted(
                    [*key, tracking, functional]
                    for key, (tracking, functional) in accumulator.groups.items()
                ),
                "total_requests": accumulator.total_requests,
            },
            distinct_resources=accumulator.distinct_resources,
        )
        ledger.record("report", _report_state(report), levels=len(report.levels))


def _report_state(report: SiftReport) -> dict:
    """A :class:`SiftReport` reduced to its canonical-JSON-able content."""
    return {
        "total_requests": report.total_requests,
        "levels": [
            {
                "granularity": level.granularity,
                "resources": {
                    key: [
                        result.counts.tracking,
                        result.counts.functional,
                        result.resource_class.value,
                    ]
                    for key, result in level.resources.items()
                },
            }
            for level in report.levels
        ],
    }


def _web_fingerprint(web: SyntheticWeb) -> int:
    """Identity of a web's *content*, not just its site list.

    Two webs with the same URLs but different planned behaviour (mutated
    scripts, methods, invocations) are different simulated universes; the
    fingerprint covers enough structure to tell them apart so shard states
    never merge across them.
    """
    parts: list[object] = []
    for website in web.websites:
        parts.append(website.url)
        parts.append(website.rank)
        for script in website.scripts:
            parts.append(script.url)
            for method in script.methods:
                parts.append(method.name)
                parts.append(len(method.invocations))
                parts.append(
                    sum(len(inv.requests) for inv in method.invocations)
                )
    return stable_hash(*parts)


def sifter_for(config: PipelineConfig) -> HierarchicalSifter:
    """The sifter a config asks for — shared by both pipeline front doors."""
    return HierarchicalSifter(
        RatioClassifier(config.threshold),
        descent_classifier=(
            RatioClassifier(config.descent_threshold)
            if config.descent_threshold is not None
            else None
        ),
    )


def _atomic_write(path: Path, text: str) -> None:
    # Kept as the engine's single write seam (tests monkeypatch it);
    # durability itself lives in repro.durable.
    from ..durable import atomic_write_text

    atomic_write_text(path, text)
