"""Parallel shard workers: equivalence, crash semantics, resume.

The contract under test is the strongest one the engine makes: ``workers``
is an execution knob with zero semantic surface.  For a fixed config,
every worker count produces byte-identical ``ShardState.to_json()`` for
every shard — not just identical reports — because workers run the exact
same per-shard crawl the sequential engine runs, and per-site determinism
(site-keyed coverage RNG, cluster-keyed failure seeds) makes that crawl a
pure function of the shard's site list.
"""

import pytest

from repro.core.engine import PipelineConfig, StreamingPipeline
from repro.core.parallel import (
    ShardExecutionError,
    ShardSliceStore,
    WorkerSpec,
    run_shards_leased,
)
from repro.core.pipeline import TrackerSiftPipeline
from repro.filterlists.oracle import FilterListOracle, Label, LabeledRequest

SITES = 130
SEED = 11


class _InvertingOracle(FilterListOracle):
    """Module-level (picklable) oracle subclass with flipped labels."""

    def label_request_many(self, requests):
        return [
            LabeledRequest(
                url=labeled.url,
                label=(
                    Label.FUNCTIONAL
                    if labeled.label.is_tracking
                    else Label.TRACKING
                ),
            )
            for labeled in super().label_request_many(requests)
        ]


@pytest.fixture(scope="module")
def small_web():
    return StreamingPipeline(PipelineConfig(sites=SITES, seed=SEED)).generate()


def _run(config, web, *, shards, workers, checkpoint_dir=None):
    engine = StreamingPipeline(
        config, shards=shards, workers=workers, checkpoint_dir=checkpoint_dir
    )
    result = engine.run(web)
    return engine, result


@pytest.mark.tier1
class TestWorkerEquivalence:
    @pytest.mark.parametrize("shards", [1, 13])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_shard_states_byte_identical(self, small_web, shards, workers):
        config = PipelineConfig(sites=SITES, seed=SEED)
        sequential, seq_result = _run(config, small_web, shards=shards, workers=1)
        parallel, par_result = _run(
            config, small_web, shards=shards, workers=workers
        )
        seq_states = [state.to_json() for state in sequential.shard_states()]
        par_states = [state.to_json() for state in parallel.shard_states()]
        assert len(seq_states) == shards
        assert seq_states == par_states  # byte-for-byte, shard by shard
        assert par_result.report.summary() == seq_result.report.summary()
        assert par_result.pages_crawled == seq_result.pages_crawled
        assert par_result.pages_failed == seq_result.pages_failed

    def test_equivalence_with_injected_failures(self, tmp_path):
        config = PipelineConfig(sites=90, seed=3, failure_rate=0.25)
        web = StreamingPipeline(config).generate()
        _, seq_result = _run(config, web, shards=5, workers=1)
        assert seq_result.pages_failed > 0  # the knob actually bit
        _, par_result = _run(config, web, shards=5, workers=2)
        assert par_result.report.summary() == seq_result.report.summary()
        assert par_result.pages_failed == seq_result.pages_failed

    def test_worker_cache_accounting_is_complete(self, small_web):
        """Worker-local caches differ from a shared one, but every labeled
        request is exactly one lookup: hits + misses must add up."""
        config = PipelineConfig(sites=SITES, seed=SEED)
        _, result = _run(config, small_web, shards=6, workers=3)
        assert result.notes["workers"] == 3.0
        lookups = (
            result.notes["label_cache_hits"] + result.notes["label_cache_misses"]
        )
        assert lookups == result.notes["labeled_requests"]

    def test_wrapper_parallel_matches_batch_report(self, small_web):
        config = PipelineConfig(sites=SITES, seed=SEED)
        batch = TrackerSiftPipeline(config).run(small_web)
        parallel = TrackerSiftPipeline(config, workers=2).run(small_web)
        assert parallel.report.summary() == batch.report.summary()
        # Parallel wrapper runs are aggregate-only, like the streaming door.
        assert parallel.labeled.requests == []
        assert len(parallel.database) == 0
        assert parallel.total_script_requests == batch.total_script_requests


@pytest.mark.tier1
class TestParallelCheckpointResume:
    def test_interrupted_pool_resumes_sequentially(self, tmp_path, small_web):
        """A pool run that stops mid-way (here: after a shard limit; the
        same state a killed pool leaves behind, since the parent
        checkpoints each shard as it completes) must resume sequentially
        to the uninterrupted result."""
        config = PipelineConfig(sites=SITES, seed=SEED)
        _, uninterrupted = _run(config, small_web, shards=5, workers=1)

        ckpt = tmp_path / "ckpt"
        pool_engine = StreamingPipeline(
            config, shards=5, workers=2, checkpoint_dir=ckpt
        )
        done = pool_engine.process_shards(small_web, limit=3)
        assert done == 3
        files = sorted(path.name for path in ckpt.glob("shard-*.json"))
        assert len(files) == 3  # parent checkpointed each completed shard

        # "Kill" the pool engine; resume with a sequential one.
        resumed = StreamingPipeline(config, shards=5, workers=1, checkpoint_dir=ckpt)
        result = resumed.run(small_web)
        assert result.notes["shards_resumed"] == 3.0
        assert result.report.summary() == uninterrupted.report.summary()
        assert result.pages_crawled == uninterrupted.pages_crawled

    def test_sequential_checkpoints_resume_in_parallel(self, tmp_path, small_web):
        """The converse direction: shards crawled sequentially are valid
        checkpoints for a parallel finish (one shared on-disk format)."""
        config = PipelineConfig(sites=SITES, seed=SEED)
        _, uninterrupted = _run(config, small_web, shards=5, workers=1)
        ckpt = tmp_path / "ckpt"
        StreamingPipeline(config, shards=5, checkpoint_dir=ckpt).process_shards(
            small_web, limit=2
        )
        resumed = StreamingPipeline(config, shards=5, workers=2, checkpoint_dir=ckpt)
        result = resumed.run(small_web)
        assert result.notes["shards_resumed"] == 2.0
        assert result.report.summary() == uninterrupted.report.summary()


def _shared_across_states(states) -> int:
    """Assert that equal tally keys, key strings and script names are one
    object across ``states``; return how many values a later state shared
    with an earlier one."""
    first_seen: dict = {}
    shared = 0
    for index, state in enumerate(states):
        values = [
            value for key in state.tallies for value in (key, *key)
        ] + list(state.participation)
        for value in values:
            seen, owner = first_seen.setdefault(value, (value, index))
            assert seen is value, f"shard {state.shard_id} holds a copy of {value!r}"
            if owner != index:
                shared += 1
    return shared


@pytest.mark.tier1
class TestSharedKeyTable:
    """Every stored shard state holds its keys through the run's one key
    table, without changing a byte of its checkpoint form."""

    def test_fan_out_states_share_keys(self, small_web):
        config = PipelineConfig(sites=SITES, seed=SEED)
        sequential, _ = _run(config, small_web, shards=5, workers=1)
        parallel, _ = _run(config, small_web, shards=5, workers=2)
        assert _shared_across_states(parallel.shard_states()) > 0
        assert [state.to_json() for state in parallel.shard_states()] == [
            state.to_json() for state in sequential.shard_states()
        ]

    def test_resumed_states_share_keys(self, tmp_path, small_web):
        config = PipelineConfig(sites=SITES, seed=SEED)
        sequential, _ = _run(config, small_web, shards=5, workers=1)
        ckpt = tmp_path / "ckpt"
        StreamingPipeline(config, shards=5, checkpoint_dir=ckpt).process_shards(
            small_web, limit=2
        )
        resumed = StreamingPipeline(
            config, shards=5, workers=2, checkpoint_dir=ckpt
        )
        result = resumed.run(small_web)
        assert result.notes["shards_resumed"] == 2.0
        assert _shared_across_states(resumed.shard_states()) > 0
        assert [state.to_json() for state in resumed.shard_states()] == [
            state.to_json() for state in sequential.shard_states()
        ]

    def test_sequential_states_share_keys(self, small_web):
        config = PipelineConfig(sites=SITES, seed=SEED)
        sequential, _ = _run(config, small_web, shards=5, workers=1)
        assert _shared_across_states(sequential.shard_states()) > 0


class TestWorkerCrash:
    def test_completed_shards_survive_a_permanent_fault(
        self, tmp_path, small_web
    ):
        """A shard that fails every attempt loses only itself: in strict
        mode the remaining shards finish, are stored (and checkpointed),
        and then :class:`ShardExecutionError` names the lost shard."""
        from repro.core.parallel import LeasePolicy
        from repro.faults import FaultPlan

        plan = FaultPlan(
            specs=(FaultPlan.permanent("worker.shard", "transient", 3),)
        )
        policy = LeasePolicy(
            quarantine=False,
            max_failures=2,
            retry_base_seconds=0.01,
            retry_cap_seconds=0.05,
        )
        config = PipelineConfig(sites=SITES, seed=SEED)
        ckpt = tmp_path / "ckpt"
        engine = StreamingPipeline(
            config,
            shards=5,
            workers=2,
            checkpoint_dir=ckpt,
            fault_plan=plan,
            lease_policy=policy,
        )
        with pytest.raises(ShardExecutionError) as excinfo:
            engine.process_shards(small_web)
        assert excinfo.value.failed_shards == (3,)
        stored = {state.shard_id for state in engine.shard_states()}
        assert stored == {0, 1, 2, 4}
        on_disk = sorted(path.name for path in ckpt.glob("shard-*.json"))
        assert on_disk == [
            "shard-0000.json",
            "shard-0001.json",
            "shard-0002.json",
            "shard-0004.json",
        ]

        # Resume without the fault plan: only shard 3 is recomputed.
        resumed = StreamingPipeline(
            config, shards=5, workers=2, checkpoint_dir=ckpt
        )
        result = resumed.run(small_web)
        assert result.notes["shards_resumed"] == 4.0
        _, uninterrupted = _run(config, small_web, shards=5, workers=1)
        assert result.report.summary() == uninterrupted.report.summary()

    def test_worker_process_crash_is_retried_transparently(self, small_web):
        """A hard worker crash (os._exit mid-lease) costs a retry and a
        replacement process, never the run — and the output stays
        byte-identical to sequential."""
        from repro.core.parallel import LeasePolicy
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.shard", kind="crash", key=3, executions=(1,)
                ),
            )
        )
        policy = LeasePolicy(
            retry_base_seconds=0.01,
            retry_cap_seconds=0.05,
            restart_base_seconds=0.01,
        )
        config = PipelineConfig(sites=SITES, seed=SEED)
        sequential, _ = _run(config, small_web, shards=5, workers=1)
        chaotic = StreamingPipeline(
            config, shards=5, workers=2, fault_plan=plan, lease_policy=policy
        )
        result = chaotic.run(small_web)
        assert result.notes["lease_worker_crashes"] >= 1.0
        assert result.notes["lease_retries"] >= 1.0
        assert result.notes["shards_quarantined"] == 0.0
        assert "degraded" not in result.notes
        seq_states = [state.to_json() for state in sequential.shard_states()]
        par_states = [state.to_json() for state in chaotic.shard_states()]
        assert seq_states == par_states


@pytest.mark.tier1
class TestForkInheritance:
    def test_boot_failures_exhaust_the_restart_budget(
        self, small_web, monkeypatch
    ):
        """Workers that cannot boot are replaced until the restart budget
        runs out; then the run fails loudly and stores nothing."""
        from repro.core import parallel

        def refuse(self, spec):
            raise RuntimeError("injected boot failure")

        # Forked workers inherit the patched class.
        monkeypatch.setattr(parallel._ShardWorker, "__init__", refuse)
        policy = parallel.LeasePolicy(
            max_worker_restarts=2,
            restart_base_seconds=0.01,
            restart_cap_seconds=0.02,
        )
        engine = StreamingPipeline(
            PipelineConfig(sites=SITES, seed=SEED),
            shards=3,
            workers=2,
            lease_policy=policy,
        )
        with pytest.raises(
            ShardExecutionError, match="restart budget exhausted"
        ) as excinfo:
            engine.process_shards(small_web)
        assert excinfo.value.failed_shards == (0, 1, 2)
        assert engine.shard_states() == ()

    def test_fan_out_writes_no_file_and_compiles_nothing(
        self, small_web, tmp_path, monkeypatch
    ):
        """Workers inherit the slices and the oracle: a fan-out leaves no
        temporary file, never compiles an artifact, and still equals the
        sequential run."""
        import tempfile

        from repro.filterlists import compile as compile_module

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))

        def refuse(*args, **kwargs):
            raise AssertionError("the fan-out compiled an artifact")

        monkeypatch.setattr(compile_module, "compile_matcher", refuse)
        config = PipelineConfig(sites=SITES, seed=SEED)
        sequential, _ = _run(config, small_web, shards=4, workers=1)
        parallel, _ = _run(config, small_web, shards=4, workers=2)
        seq_states = [state.to_json() for state in sequential.shard_states()]
        par_states = [state.to_json() for state in parallel.shard_states()]
        assert par_states == seq_states
        assert list(scratch.iterdir()) == []


class TestValidation:
    def test_retain_events_rejects_workers(self):
        with pytest.raises(ValueError, match="retain_events"):
            StreamingPipeline(
                PipelineConfig(sites=10), workers=2, retain_events=True
            )

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="worker"):
            StreamingPipeline(PipelineConfig(sites=10), workers=0)
        with pytest.raises(ValueError, match="worker"):
            TrackerSiftPipeline(PipelineConfig(sites=10), workers=0)

    def test_run_shards_parallel_empty_is_noop(self):
        """An empty shard list dispatches nothing and completes nothing."""
        spec = WorkerSpec(
            config=PipelineConfig(sites=10),
            shards=2,
            store=ShardSliceStore(),  # never used: no shards dispatched
            oracle=None,
        )
        report = run_shards_leased(spec, [], 4, lambda outcome: None)
        assert report.completed == 0


class TestShardSliceFanOut:
    @pytest.mark.tier1
    def test_generated_web_fans_out_through_slices(self):
        """No explicit web (the CLI path): the parent generates once,
        materializes per-shard slices, and workers load only their slice —
        still byte-identical to sequential."""
        config = PipelineConfig(sites=SITES, seed=SEED)
        sequential = StreamingPipeline(config, shards=4, workers=1)
        seq_result = sequential.run()  # web generated internally
        parallel = StreamingPipeline(config, shards=4, workers=2)
        par_result = parallel.run()
        seq_states = [state.to_json() for state in sequential.shard_states()]
        par_states = [state.to_json() for state in parallel.shard_states()]
        assert seq_states == par_states
        assert par_result.report.summary() == seq_result.report.summary()

    def test_hand_built_web_fans_out_through_slices(self, small_web):
        """A web the pipeline did not generate fans out the same way:
        mutating provenance may not change the result."""
        config = PipelineConfig(sites=SITES, seed=SEED)
        _, seq_result = _run(config, small_web, shards=4, workers=1)
        engine = StreamingPipeline(config, shards=4, workers=2)
        result = engine.run(small_web)
        assert result.report.summary() == seq_result.report.summary()

    def test_parallel_runs_report_overhead_breakdown(self, small_web):
        """Parallel results carry the transfer/startup/compute breakdown
        (and the fan-out materialization cost); sequential runs do not."""
        config = PipelineConfig(sites=SITES, seed=SEED)
        _, seq_result = _run(config, small_web, shards=4, workers=1)
        assert "worker_compute_seconds" not in seq_result.notes
        _, par_result = _run(config, small_web, shards=4, workers=2)
        notes = par_result.notes
        for key in (
            "fanout_materialize_seconds",
            "worker_startup_seconds",
            "worker_transfer_seconds",
            "worker_compute_seconds",
        ):
            assert key in notes, key
            assert notes[key] >= 0.0
        # Every timed field actually measured something; workers inherit
        # their slices at fork, so no fan-out byte count is reported.
        assert notes["fanout_materialize_seconds"] > 0.0
        assert "fanout_bytes" not in notes
        assert notes["worker_startup_seconds"] > 0.0
        assert notes["worker_compute_seconds"] > 0.0

    def test_oracle_subclass_ships_as_object(self, small_web):
        """Workers use the parent's oracle object, so a subclass with
        overridden labeling keeps its behaviour — and worker output must
        still match sequential bit for bit."""
        config = PipelineConfig(sites=SITES, seed=SEED)
        seq_engine = StreamingPipeline(
            config, shards=4, workers=1, oracle=_InvertingOracle()
        )
        seq_result = seq_engine.run(small_web)
        par_engine = StreamingPipeline(
            config, shards=4, workers=2, oracle=_InvertingOracle()
        )
        par_result = par_engine.run(small_web)
        seq_states = [state.to_json() for state in seq_engine.shard_states()]
        par_states = [state.to_json() for state in par_engine.shard_states()]
        assert seq_states == par_states
        # The override actually bit: results differ from the base oracle.
        _, base_result = _run(config, small_web, shards=4, workers=1)
        assert (
            seq_result.report.summary() != base_result.report.summary()
        ), "inverting oracle should change the report"

    def test_slice_store_round_trip(self, small_web):
        """Slices hold exactly their shard's sites/websites/failures, and
        a shard that was never materialized is refused."""
        from repro.crawler.cluster import round_robin_shards
        from repro.crawler.tranco import RankedSite

        sites = [RankedSite(rank=w.rank, url=w.url) for w in small_web.websites]
        shard_sites = round_robin_shards(sites, 3)
        by_url = {w.url: w for w in small_web.websites}
        failed = {sites[0].url, sites[4].url}
        store = ShardSliceStore()
        store.materialize([0, 2], shard_sites, by_url, failed)
        loaded = store.load(0)
        assert loaded.shard_id == 0
        assert [s.url for s in loaded.sites] == [
            s.url for s in shard_sites[0]
        ]
        assert set(loaded.by_url) == {s.url for s in shard_sites[0]}
        # Only the shard's own failures ride along.
        assert loaded.failed_urls == failed & {s.url for s in shard_sites[0]}
        assert store.load(2).shard_id == 2
        # Shard 1 was not pending, so it was never materialized.
        with pytest.raises(KeyError, match="never materialized"):
            store.load(1)
