"""Streaming engine: shard-count equivalence and checkpoint/resume.

The engine's contract is that sharding is an execution knob with zero
semantic surface: for a fixed config, any shard count — and any
interrupt/resume schedule — produces a report identical to the batch
pipeline's, resource for resource, at all four granularities.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classifier import RatioClassifier, ResourceClass
from repro.core.engine import (
    PipelineConfig,
    ShardState,
    SiftAccumulator,
    StreamingPipeline,
)
from repro.core.hierarchy import HierarchicalSifter
from repro.core.pipeline import TrackerSiftPipeline


SITES = 130
SEED = 11


@pytest.fixture(scope="module")
def batch_run():
    config = PipelineConfig(sites=SITES, seed=SEED)
    pipeline = TrackerSiftPipeline(config)
    web = pipeline.generate()
    return config, web, pipeline.run(web)


def assert_reports_identical(a, b):
    """Same classes and counts for every resource at every granularity."""
    assert a.total_requests == b.total_requests
    assert len(a.levels) == len(b.levels)
    for level_a, level_b in zip(a.levels, b.levels):
        assert level_a.granularity == level_b.granularity
        assert level_a.resources == level_b.resources
    assert a.summary() == b.summary()


@pytest.mark.tier1
class TestShardEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 13])
    def test_streaming_matches_batch(self, batch_run, shards):
        config, web, batch = batch_run
        result = StreamingPipeline(config, shards=shards).run(web)
        assert_reports_identical(result.report, batch.report)
        assert result.pages_crawled == batch.pages_crawled
        assert result.pages_failed == batch.pages_failed
        assert result.labeled.excluded_non_script == batch.labeled.excluded_non_script
        assert result.labeled.participation == batch.labeled.participation

    @pytest.mark.parametrize("shards", [1, 2, 13])
    def test_streaming_matches_batch_with_failures(self, shards):
        config = PipelineConfig(sites=90, seed=3, failure_rate=0.25)
        pipeline = TrackerSiftPipeline(config)
        web = pipeline.generate()
        batch = pipeline.run(web)
        assert batch.pages_failed > 0  # the knob actually bit
        result = StreamingPipeline(config, shards=shards).run(web)
        assert_reports_identical(result.report, batch.report)
        assert result.pages_failed == batch.pages_failed

    def test_streaming_does_not_materialize(self, batch_run):
        config, web, _ = batch_run
        result = StreamingPipeline(config, shards=4).run(web)
        assert len(result.database) == 0
        assert result.labeled.requests == []
        assert result.total_script_requests > 0  # carried via notes

    def test_cache_counters_surface_in_notes(self, batch_run):
        config, web, _ = batch_run
        result = StreamingPipeline(config, shards=4).run(web)
        notes = result.notes
        assert notes["label_cache_hits"] > 0
        assert notes["label_cache_misses"] > 0
        assert 0.0 < notes["label_cache_hit_rate"] < 1.0
        assert notes["shards"] == 4.0
        assert notes["labeled_requests"] == result.total_script_requests


class TestSiftAccumulator:
    def test_matches_direct_sift(self, batch_run):
        _, _, batch = batch_run
        accumulator = SiftAccumulator()
        for request in batch.labeled.requests:
            accumulator.add(request)
        report = accumulator.report(HierarchicalSifter(RatioClassifier()))
        assert_reports_identical(report, batch.report)

    def test_merge_is_order_insensitive(self, batch_run):
        _, _, batch = batch_run
        left, right = SiftAccumulator(), SiftAccumulator()
        for index, request in enumerate(batch.labeled.requests):
            (left if index % 2 else right).add(request)
        merged = SiftAccumulator()
        merged.merge(left.groups, left.total_requests)
        merged.merge(right.groups, right.total_requests)
        report = merged.report(HierarchicalSifter(RatioClassifier()))
        assert_reports_identical(report, batch.report)


def _old_merge(maps):
    """The merged tally map: a copy of every key with its counts summed,
    in first-seen order."""
    merged = {}
    for groups in maps:
        for key, (tracking, functional) in groups.items():
            entry = merged.setdefault(key, [0, 0])
            entry[0] += tracking
            entry[1] += functional
    return merged


def _reference_sift(sifter, groups, total):
    """An independent sift over one merged map: a list of every key's
    tallies, filtered level by level to the mixed remainder."""
    from repro.core.results import SiftReport

    report = SiftReport(total_requests=total)
    remaining = [(key, t, f) for key, (t, f) in groups.items()]
    level_keys = (
        ("domain", lambda k: k[0]),
        ("hostname", lambda k: k[1]),
        ("script", lambda k: k[2]),
        ("method", lambda k: f"{k[2]}@{k[3]}"),
    )
    for granularity, level_key in level_keys:
        tallies = {}
        for key, t, f in remaining:
            entry = tallies.setdefault(level_key(key), [0, 0])
            entry[0] += t
            entry[1] += f
        report.levels.append(sifter._build_level(granularity, tallies))
        mixed = {
            name
            for name, (t, f) in tallies.items()
            if sifter.descent_classifier.classify_counts(t, f)
            is ResourceClass.MIXED
        }
        remaining = [item for item in remaining if level_key(item[0]) in mixed]
        if not remaining:
            break
    return report


_KEYS = st.tuples(
    st.sampled_from(["a.com", "b.com", "c.org"]),
    st.sampled_from(["a.com", "x.a.com", "b.com", "y.c.org"]),
    st.sampled_from(["a.js", "b.js", "c.js"]),
    st.sampled_from(["m1", "m2", "m3"]),
)
_COUNTS = st.lists(st.integers(0, 6), min_size=2, max_size=2)
_SHARDS = st.lists(
    st.tuples(st.dictionaries(_KEYS, _COUNTS, max_size=12), st.booleans()),
    max_size=6,
)


class TestStreamedSift:
    """The report sifts shard tallies where they lie, and must equal the
    sift of their merged copy."""

    @settings(max_examples=150, deadline=None)
    @given(
        shards=_SHARDS,
        threshold=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        descent=st.sampled_from([None, 2.0]),
    )
    def test_streamed_report_equals_merged_sift(self, shards, threshold, descent):
        sifter = HierarchicalSifter(
            RatioClassifier(threshold),
            descent_classifier=(
                RatioClassifier(descent) if descent is not None else None
            ),
        )
        # Quarantined shards (the flag) are left out of the sift entirely.
        kept = [groups for groups, quarantined in shards if not quarantined]
        totals = [sum(map(sum, groups.values())) for groups in kept]
        accumulator = SiftAccumulator()
        for groups, total in zip(kept, totals):
            accumulator.merge(groups, total)
        merged = _old_merge(kept)
        assert accumulator.groups == merged
        assert list(accumulator.groups) == list(merged)
        assert accumulator.distinct_resources == len(merged)
        try:
            expected = sifter.sift_grouped(merged, sum(totals))
        except ValueError:
            # A resource reached with no requests has no ratio: the
            # streamed sift must refuse it too.
            with pytest.raises(ValueError):
                accumulator.report(sifter)
            return

        report = accumulator.report(sifter)
        assert_reports_identical(report, expected)
        assert_reports_identical(
            report, _reference_sift(sifter, merged, sum(totals))
        )
        for level, old in zip(report.levels, expected.levels):
            assert list(level.resources) == list(old.resources)
        assert_reports_identical(accumulator.report(sifter), report)


class TestShardStateRoundTrip:
    def test_json_round_trip(self):
        state = ShardState(
            shard_id=3,
            pages_crawled=7,
            pages_failed=2,
            excluded_non_script=40,
            excluded_unparseable=1,
            labeled_requests=55,
            tallies={("d.com", "h.d.com", "s.js", "m"): [3, 2]},
            participation={"s.js": [3, 2]},
        )
        restored = ShardState.from_json(state.to_json())
        assert restored == state

    def test_share_keys_keeps_one_copy(self):
        key = ("d.com", "h.d.com", "s.js", "m")
        payload = ShardState(
            shard_id=0,
            tallies={key: [1, 0], ("d.com", "d.com", "t.js", "n"): [0, 2]},
            participation={"s.js": [1, 0], "t.js": [0, 2]},
        ).to_json()
        keys: dict = {}
        first, second = (ShardState.from_json(payload) for _ in range(2))
        assert next(iter(first.tallies)) is not next(iter(second.tallies))
        for state in (first, second):
            state.share_keys(keys)
        assert first == second
        assert next(iter(first.tallies)) is next(iter(second.tallies))
        (domain, host, script, _), (other_domain, *_) = first.tallies
        assert other_domain is domain
        assert next(iter(second.participation)) is script
        assert first.to_json() == second.to_json() == payload


@pytest.mark.tier1
class TestCheckpointResume:
    @pytest.mark.parametrize("failure_rate", [0.0, 0.25])
    @pytest.mark.parametrize("interrupt_after", [1, 3])
    def test_resume_matches_uninterrupted(
        self, tmp_path, failure_rate, interrupt_after
    ):
        config = PipelineConfig(sites=90, seed=3, failure_rate=failure_rate)
        web = StreamingPipeline(config).generate()
        uninterrupted = StreamingPipeline(config, shards=5).run(web)

        ckpt = tmp_path / "ckpt"
        first = StreamingPipeline(config, shards=5, checkpoint_dir=ckpt)
        done = first.process_shards(web, limit=interrupt_after)
        assert done == interrupt_after
        # "Kill" the engine: drop it, start a fresh one on the same dir.
        resumed = StreamingPipeline(config, shards=5, checkpoint_dir=ckpt)
        result = resumed.run(web)
        assert result.notes["shards_resumed"] == float(interrupt_after)
        assert_reports_identical(result.report, uninterrupted.report)
        assert result.pages_crawled == uninterrupted.pages_crawled
        assert result.pages_failed == uninterrupted.pages_failed
        assert (
            result.labeled.excluded_non_script
            == uninterrupted.labeled.excluded_non_script
        )

    def test_completed_run_resumes_without_crawling(self, tmp_path):
        config = PipelineConfig(sites=40, seed=5)
        ckpt = tmp_path / "ckpt"
        web = StreamingPipeline(config).generate()
        first = StreamingPipeline(config, shards=3, checkpoint_dir=ckpt).run(web)
        again = StreamingPipeline(config, shards=3, checkpoint_dir=ckpt)
        assert again.process_shards(web) == 0  # nothing left to crawl
        result = again.run(web)
        assert result.notes["shards_resumed"] == 3.0
        assert_reports_identical(result.report, first.report)

    def _resume_after(self, tmp_path, tamper):
        """Checkpoint a full 40-site, 3-shard run, let ``tamper`` edit the
        directory, then resume on it; returns the clean and resumed
        results."""
        config = PipelineConfig(sites=40, seed=5)
        ckpt = tmp_path / "ckpt"
        web = StreamingPipeline(config).generate()
        clean = StreamingPipeline(config, shards=3, checkpoint_dir=ckpt).run(web)
        tamper(ckpt)
        resumed = StreamingPipeline(config, shards=3, checkpoint_dir=ckpt)
        return clean, resumed.run(web)

    def test_checkpoint_with_an_empty_tally_row_is_recomputed(self, tmp_path):
        """Bit rot that keeps the JSON valid: a ``[..., 0, 0]`` row."""

        def zero_row(ckpt):
            path = ckpt / "shard-0001.json"
            record = json.loads(path.read_text(encoding="utf-8"))
            record["tallies"].append(
                ["zero.example", "zero.example", "z.js", "m", 0, 0]
            )
            path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")

        clean, result = self._resume_after(tmp_path, zero_row)
        assert result.notes["shards_resumed"] == 2.0
        assert result.notes["checkpoints_discarded"] == 1.0
        assert_reports_identical(result.report, clean.report)

    @pytest.mark.parametrize("extra", [[5], []], ids=["three-counts", "one-count"])
    def test_checkpoint_with_a_malformed_participation_row_is_recomputed(
        self, tmp_path, extra
    ):
        """A participation row that is not exactly two counts: set aside
        and recomputed, not carried into the merge."""

        def reshape_row(ckpt):
            path = ckpt / "shard-0001.json"
            record = json.loads(path.read_text(encoding="utf-8"))
            script, row = next(iter(record["participation"].items()))
            record["participation"][script] = row[: 1 + len(extra)] + extra
            path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")

        clean, result = self._resume_after(tmp_path, reshape_row)
        assert result.notes["shards_resumed"] == 2.0
        assert result.notes["checkpoints_discarded"] == 1.0
        assert_reports_identical(result.report, clean.report)
        assert result.labeled.participation == clean.labeled.participation

    def test_checkpoint_of_another_shard_is_recomputed(self, tmp_path):
        """A valid checkpoint under the wrong shard's name."""

        def swap(ckpt):
            (ckpt / "shard-0002.json").write_bytes(
                (ckpt / "shard-0000.json").read_bytes()
            )

        clean, result = self._resume_after(tmp_path, swap)
        assert result.notes["shards_resumed"] == 2.0
        assert result.notes["checkpoints_discarded"] == 1.0
        assert result.total_script_requests == clean.total_script_requests
        assert_reports_identical(result.report, clean.report)

    def test_manifest_guards_config_mismatch(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        config = PipelineConfig(sites=40, seed=5)
        StreamingPipeline(config, shards=3, checkpoint_dir=ckpt).process_shards(
            limit=1
        )
        other = PipelineConfig(sites=40, seed=6)
        with pytest.raises(ValueError, match="different study configuration"):
            StreamingPipeline(other, shards=3, checkpoint_dir=ckpt).process_shards(
                limit=1
            )

    def test_checkpoints_are_valid_json_files(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        config = PipelineConfig(sites=40, seed=5)
        StreamingPipeline(config, shards=3, checkpoint_dir=ckpt).process_shards(
            limit=2
        )
        files = sorted(p.name for p in ckpt.glob("shard-*.json"))
        assert files == ["shard-0000.json", "shard-0001.json"]
        for path in ckpt.glob("*.json"):
            json.loads(path.read_text(encoding="utf-8"))  # parses cleanly

    def test_checkpoints_are_reusable_across_thresholds(self, tmp_path):
        """Shard tallies are classifier-free: the same crawl resumes under
        a different report threshold instead of forcing a re-crawl."""
        ckpt = tmp_path / "ckpt"
        crawl_config = PipelineConfig(sites=40, seed=5, threshold=2.0)
        web = StreamingPipeline(crawl_config).generate()
        StreamingPipeline(
            crawl_config, shards=3, checkpoint_dir=ckpt
        ).process_shards(web, limit=3)
        reread = PipelineConfig(sites=40, seed=5, threshold=3.0)
        resumed = StreamingPipeline(reread, shards=3, checkpoint_dir=ckpt)
        result = resumed.run(web)
        assert result.notes["shards_resumed"] == 3.0
        fresh = StreamingPipeline(reread, shards=3).run(web)
        assert_reports_identical(result.report, fresh.report)

    def test_in_memory_web_mixing_rejected(self):
        """Shard states from one web must not merge with another web's."""
        config = PipelineConfig(sites=40, seed=5)
        web_a = StreamingPipeline(PipelineConfig(sites=40, seed=5)).generate()
        web_b = StreamingPipeline(PipelineConfig(sites=40, seed=8)).generate()
        engine = StreamingPipeline(config, shards=3)
        engine.process_shards(web_a, limit=1)
        with pytest.raises(ValueError, match="different web"):
            engine.run(web_b)

    def test_manifest_guards_web_mismatch(self, tmp_path):
        """Same config, different explicit web: stale shards must not merge."""
        ckpt = tmp_path / "ckpt"
        config = PipelineConfig(sites=40, seed=5)
        web_a = StreamingPipeline(PipelineConfig(sites=40, seed=5)).generate()
        web_b = StreamingPipeline(PipelineConfig(sites=40, seed=8)).generate()
        StreamingPipeline(config, shards=3, checkpoint_dir=ckpt).process_shards(
            web_a, limit=1
        )
        with pytest.raises(ValueError, match="different study configuration"):
            StreamingPipeline(config, shards=3, checkpoint_dir=ckpt).run(web_b)

    def test_retain_and_checkpoint_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="retain_events"):
            StreamingPipeline(
                PipelineConfig(sites=10),
                checkpoint_dir=tmp_path,
                retain_events=True,
            )


class TestCrossProcessDeterminism:
    def test_failure_and_coverage_decisions_stable_across_processes(self):
        """Resume-after-restart needs hash()-free simulation seeds.

        Spawn two interpreters with different hash salts and compare the
        derived decisions; the builtin ``hash()`` would flip them.
        """
        import pathlib
        import subprocess
        import sys

        repo_root = pathlib.Path(__file__).resolve().parent.parent
        program = (
            "from repro.crawler.crawler import page_load_fails\n"
            "from repro.stablehash import stable_hash\n"
            "fails = [page_load_fails(1003, f'https://site{i}.example/', 0.3)"
            " for i in range(50)]\n"
            "print(sum(fails), stable_hash(7, 'a', 'b'))\n"
        )
        outputs = set()
        for hash_seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(repo_root / "src")},
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1, outputs


class TestEmptyStudy:
    def test_all_pages_failed_still_yields_domain_level(self):
        """A crawl that labels nothing must still report an (empty) domain
        level — ``report.domain`` is part of the result contract."""
        config = PipelineConfig(sites=20, seed=5, failure_rate=1.0)
        result = StreamingPipeline(config, shards=2).run()
        assert result.pages_failed == 20
        assert result.report.domain.resources == {}
        assert result.report.final_separation == 0.0


class TestDescentThresholdConfig:
    def test_pinned_descent_restores_cross_threshold_monotonicity(self):
        """With descent pinned, per-level separation factors are monotone
        in the report threshold through the full pipeline entry point —
        the same guarantee sift_requests gives by default."""
        web = StreamingPipeline(PipelineConfig(sites=60, seed=5)).generate()
        reports = []
        for threshold in (1.0, 1.5, 2.0, 2.5, 3.0):
            config = PipelineConfig(
                sites=60, seed=5, threshold=threshold, descent_threshold=2.0
            )
            reports.append(StreamingPipeline(config, shards=2).run(web).report)
        for tight, loose in zip(reports, reports[1:]):
            assert len(tight.levels) == len(loose.levels)
            for tight_level, loose_level in zip(tight.levels, loose.levels):
                assert (
                    loose_level.separation_factor
                    <= tight_level.separation_factor + 1e-12
                )


@pytest.mark.tier1
class TestParticipationMerge:
    """``run()`` merges shard participation by reference: a script one
    shard holds keeps that shard's row, and only a script two shards
    share gets a new, summed row."""

    def test_repeated_run_leaves_participation_and_states_unchanged(self):
        engine = StreamingPipeline(PipelineConfig(sites=40, seed=5), shards=3)
        first = engine.run()
        states = [state.to_json() for state in engine.shard_states()]
        second = engine.run()
        assert second.labeled.participation == first.labeled.participation
        assert [state.to_json() for state in engine.shard_states()] == states

    def test_shared_script_merges_to_the_sum_and_no_shard_row_changes(self):
        both, alone = "https://s.example/both.js", "https://a.example/a.js"
        engine = StreamingPipeline(PipelineConfig(sites=20, seed=5), shards=2)
        engine.process_shards()
        left, right = engine.shard_states()
        left.participation = {both: [3, 1], alone: [0, 2]}
        right.participation = {both: [1, 4]}
        before = [state.to_json() for state in (left, right)]
        rows = [left.participation[both], right.participation[both]]
        for _ in range(2):
            merged = engine.run().labeled.participation
            assert merged == {both: [4, 5], alone: [0, 2]}
            assert merged[alone] is left.participation[alone]
            assert all(merged[both] is not row for row in rows)
        assert rows == [[3, 1], [1, 4]]
        assert [state.to_json() for state in (left, right)] == before


class TestWrapperCompatibility:
    def test_batch_wrapper_materializes_everything(self, batch_run):
        _, _, batch = batch_run
        assert len(batch.database) > 0
        assert len(batch.labeled.requests) > 0
        assert batch.total_script_requests == len(batch.labeled.requests)
        assert batch.notes["label_cache_hit_rate"] > 0.0

    def test_repeated_run_is_idempotent_in_retain_mode(self):
        """A second run() re-merges shard states; aggregates must not
        double and the caller's rule set must stay unmutated."""
        from repro.filterlists.oracle import FilterListOracle

        oracle = FilterListOracle()
        rule_count = oracle.rule_count
        config = PipelineConfig(sites=40, seed=5)
        engine = StreamingPipeline(config, oracle=oracle, retain_events=True)
        first = engine.run()
        second = engine.run()
        assert oracle.rule_count == rule_count
        assert len(second.labeled.requests) == len(first.labeled.requests)
        assert (
            second.labeled.excluded_non_script == first.labeled.excluded_non_script
        )
        assert second.labeled.participation == first.labeled.participation
        assert_reports_identical(second.report, first.report)

    def test_two_pipelines_sharing_one_oracle_share_its_cache(self):
        """Two engines handed one oracle decide through its one cache:
        identical reports, the second run only hits, and each run's
        notes count only its own lookups."""
        from repro.filterlists.oracle import FilterListOracle

        oracle = FilterListOracle()
        config = PipelineConfig(sites=40, seed=5)
        first = StreamingPipeline(config, shards=3, oracle=oracle).run()
        second = StreamingPipeline(config, shards=3, oracle=oracle).run()
        assert_reports_identical(second.report, first.report)
        for result in (first, second):
            notes = result.notes
            assert (
                notes["label_cache_hits"] + notes["label_cache_misses"]
                == notes["labeled_requests"]
            )
        assert second.notes["label_cache_hits"] > first.notes["label_cache_hits"]
        assert second.notes["label_cache_misses"] == 0

    def test_cache_counters_are_per_run_not_cumulative(self):
        """Repeated runs on one pipeline (shared oracle) report per-run
        lookups: hits + misses must equal that run's labeled requests."""
        config = PipelineConfig(sites=40, seed=5)
        pipeline = TrackerSiftPipeline(config)
        web = pipeline.generate()
        pipeline.run(web)
        second = pipeline.run(web)
        lookups = (
            second.notes["label_cache_hits"] + second.notes["label_cache_misses"]
        )
        assert lookups == second.notes["labeled_requests"]
        # Everything was cached by the first run: the second is all hits.
        assert second.notes["label_cache_hit_rate"] == 1.0

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="shard"):
            StreamingPipeline(PipelineConfig(sites=10), shards=0)
