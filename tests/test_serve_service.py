"""BlockingService: snapshot decisions, hot reload, churn, metrics."""

import threading

import pytest

from repro.filterlists.lists import default_lists
from repro.filterlists.oracle import FilterListOracle
from repro.filterlists.parser import parse_filter_list
from repro.serve.service import BlockingService, Snapshot

BLOCKED = "https://doubleclick.net/pixel/42.gif"
CLEAN = "https://functional.example/app.js"


def _mini_service(text: str = "||tracker.example^\n", name: str = "mini"):
    return BlockingService(parse_filter_list(text, name=name))


class TestDecide:
    def test_decision_matches_offline_oracle(self):
        service = BlockingService()
        oracle = FilterListOracle()
        for url in (BLOCKED, CLEAN, "https://google-analytics.com/collect?v=1"):
            decision = service.decide(url)
            labeled = oracle.label_request(url)
            assert decision["label"] == labeled.label.value
            assert decision["blocked"] == labeled.label.is_tracking
            assert decision["matched_rule"] == labeled.matched_rule
            assert decision["matched_list"] == labeled.matched_list
            assert decision["revision"] == 1
            assert service.decide(url)["blocked"] == oracle.should_block_url(url)

    def test_resource_type_and_page_url_reach_the_oracle(self):
        service = _mini_service("||cdn.example^$script,third-party\n")
        assert service.decide(
            "https://cdn.example/lib.js", "script", "https://site.example/"
        )["blocked"]
        # first-party: the $third-party option must see the page URL
        assert not service.decide(
            "https://cdn.example/lib.js", "script", "https://cdn.example/"
        )["blocked"]
        # $script does not cover images
        assert not service.decide(
            "https://cdn.example/pix.gif", "image", "https://site.example/"
        )["blocked"]

    def test_resource_type_aliases_accepted(self):
        service = _mini_service("||t.example^$xmlhttprequest\n")
        assert service.decide("https://t.example/api", "xhr")["blocked"]

    def test_rejects_empty_url_and_unknown_type(self):
        service = _mini_service()
        with pytest.raises(ValueError, match="non-empty url"):
            service.decide("")
        with pytest.raises(ValueError, match="unknown resource_type"):
            service.decide(CLEAN, "teapot")

    def test_single_decides_count_decisions_not_batches(self):
        service = _mini_service()
        urls = ["https://tracker.example/a.js", CLEAN, CLEAN, "https://tracker.example/b"]
        for url in urls:
            service.decide(url)
        decisions = service.metrics()["decisions"]
        assert decisions["served"] == len(urls)
        assert decisions["batches"] == 0
        assert decisions["blocked"] == 2
        assert service.latency.count == len(urls)

    @pytest.mark.parametrize(
        "item",
        [
            {"url": ""},
            {"url": None},
            {"url": CLEAN, "resource_type": "teapot"},
            {"url": CLEAN, "page_url": 7},
        ],
    )
    def test_bad_single_raises_the_batch_validation_text(self, item):
        service = _mini_service()
        with pytest.raises(ValueError) as expected:
            service.validate_requests([item])
        with pytest.raises(ValueError) as got:
            service.decide(
                item["url"],
                item.get("resource_type", "other"),
                item.get("page_url", ""),
            )
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("batch item 0: ")
        assert service.metrics()["decisions"]["served"] == 0

    def test_batch_decides_against_one_snapshot(self):
        service = _mini_service()
        result = service.decide_batch(
            ["https://tracker.example/a.js", {"url": CLEAN}]
        )
        assert result["count"] == 2
        assert result["revision"] == 1
        assert [d["blocked"] for d in result["decisions"]] == [True, False]

    def test_batch_rejects_non_request_items(self):
        with pytest.raises(ValueError, match="batch item"):
            _mini_service().decide_batch([42])

    def test_bad_batch_item_named_by_index(self):
        service = _mini_service()
        with pytest.raises(ValueError, match="batch item 2"):
            service.decide_batch([CLEAN, CLEAN, "", CLEAN])
        with pytest.raises(ValueError, match="batch item 1.*resource_type"):
            service.decide_batch([CLEAN, {"url": CLEAN, "resource_type": "teapot"}])
        with pytest.raises(ValueError, match="batch item 0"):
            service.decide_batch([None])

    def test_bad_batch_item_cannot_half_apply_a_batch(self):
        """Regression: a malformed URL mid-batch used to raise after
        latency/counters/cache had already been mutated for the valid
        prefix.  Batches are all-or-nothing now: validation runs up front
        and a failed batch leaves every observable counter untouched."""
        service = _mini_service()
        service.decide("https://tracker.example/warm.js")  # warm baseline
        before = service.metrics()
        cache_before = (before["cache"]["hits"], before["cache"]["misses"])
        with pytest.raises(ValueError, match="batch item 2"):
            service.decide_batch(
                ["https://tracker.example/a.js", CLEAN, {"url": ""}, CLEAN]
            )
        after = service.metrics()
        assert after["decisions"]["served"] == before["decisions"]["served"]
        assert after["decisions"]["blocked"] == before["decisions"]["blocked"]
        assert after["decisions"]["batches"] == before["decisions"]["batches"]
        assert after["latency"]["observed"] == before["latency"]["observed"]
        assert (after["cache"]["hits"], after["cache"]["misses"]) == cache_before
        # And the service still serves full batches afterwards.
        result = service.decide_batch(["https://tracker.example/a.js", CLEAN])
        assert result["count"] == 2

    def test_batch_decisions_identical_to_singles(self):
        service = _mini_service("||tracker.example^\n/pixel/*\n")
        urls = [
            "https://tracker.example/a.js",
            CLEAN,
            "https://safe.example/pixel/1.gif",
            "https://tracker.example/a.js",
        ]
        batch = service.decide_batch(urls)["decisions"]
        twin = _mini_service("||tracker.example^\n/pixel/*\n")
        singles = [twin.decide(url) for url in urls]
        assert batch == singles


class TestReload:
    def test_reload_swaps_rules_and_bumps_revision(self):
        service = _mini_service("||old.example^\n")
        assert service.decide("https://old.example/x")["blocked"]
        report = service.reload(parse_filter_list("||new.example^\n", name="mini"))
        assert report["revision"] == 2
        assert report["previous_revision"] == 1
        assert not service.decide("https://old.example/x")["blocked"]
        decision = service.decide("https://new.example/x")
        assert decision["blocked"] and decision["revision"] == 2

    def test_churn_report_uses_diff_lists(self):
        service = _mini_service("||a.example^\n||b.example^\n")
        report = service.reload(
            parse_filter_list("||b.example^\n||c.example^\n", name="mini")
        )
        assert report["churn"] == {
            "added": 1,
            "removed": 1,
            "unchanged": 1,
            "summary": "+1 -1 (unchanged 1)",
        }
        (entry,) = report["lists"]
        assert entry["name"] == "mini"
        assert entry["summary"] == "+1 -1 (unchanged 1)"

    def test_churn_pairs_lists_by_name(self):
        service = BlockingService(
            parse_filter_list("||a.example^\n", name="keep"),
            parse_filter_list("||b.example^\n", name="drop"),
        )
        report = service.reload(
            parse_filter_list("||a.example^\n||a2.example^\n", name="keep"),
            parse_filter_list("||c.example^\n", name="fresh"),
        )
        by_name = {entry["name"]: entry for entry in report["lists"]}
        assert by_name["keep"]["added"] == 1 and by_name["keep"]["unchanged"] == 1
        assert by_name["fresh"]["added"] == 1 and by_name["fresh"]["removed"] == 0
        assert by_name["drop"]["removed"] == 1  # no namesake: fully removed
        assert report["churn"]["added"] == 2
        assert report["churn"]["removed"] == 1

    def test_reload_without_args_restores_defaults(self):
        service = _mini_service()
        assert not service.decide(BLOCKED)["blocked"]
        report = service.reload()
        assert service.decide(BLOCKED)["blocked"]
        assert report["rule_count"] == BlockingService().snapshot.rule_count

    def test_reload_text_parses_named_pairs(self):
        service = _mini_service()
        report = service.reload_text(("hotfix", "||evil.example^\n"))
        assert report["lists"][0]["name"] == "hotfix"
        assert service.decide("https://evil.example/x")["blocked"]

    def test_old_snapshot_keeps_answering_during_swap(self):
        """A snapshot reference captured before a reload still serves."""
        service = _mini_service("||old.example^\n")
        before = service.snapshot
        service.reload(parse_filter_list("||new.example^\n", name="mini"))
        # the old snapshot object is untouched and still decides correctly
        assert before.oracle.should_block_url("https://old.example/x")
        assert not before.oracle.should_block_url("https://new.example/x")
        assert service.snapshot is not before

    def test_snapshot_is_immutable(self):
        with pytest.raises(AttributeError):
            BlockingService().snapshot.revision = 99

    def test_snapshot_build_matches_offline_oracle(self):
        lists = default_lists()
        snapshot = Snapshot.build(lists, revision=7)
        assert snapshot.revision == 7
        assert snapshot.rule_count == FilterListOracle(*lists).rule_count
        assert snapshot.list_names == ("easylist", "easyprivacy")


class TestLoopReloadContract:
    """The reload behaviors the control loop leans on (ISSUE 10 sat. 3)."""

    def test_add_only_candidate_is_incremental_not_full_replacement(self):
        # Round 1: the incumbent grows a hotfix list alongside its base.
        service = BlockingService(
            parse_filter_list("||a.example^\n||b.example^\n", name="base")
        )
        service.reload(
            parse_filter_list("||a.example^\n||b.example^\n", name="base"),
            parse_filter_list("||t1.example^\n", name="hotfix"),
        )
        # Round 2: the candidate only *adds* rules to its namesake hotfix.
        report = service.reload(
            parse_filter_list("||a.example^\n||b.example^\n", name="base"),
            parse_filter_list(
                "||t1.example^\n||t2.example^\n||t3.example^\n", name="hotfix"
            ),
        )
        by_name = {entry["name"]: entry for entry in report["lists"]}
        # Paired by name with the incumbent: the prior hotfix rule is
        # unchanged, only the genuinely new rules count as added — not a
        # 1-removed/3-added full replacement.
        assert by_name["hotfix"]["added"] == 2
        assert by_name["hotfix"]["removed"] == 0
        assert by_name["hotfix"]["unchanged"] == 1
        assert by_name["base"]["added"] == 0
        assert by_name["base"]["removed"] == 0
        assert by_name["base"]["unchanged"] == 2
        assert report["churn"]["added"] == 2
        assert report["churn"]["removed"] == 0
        assert report["churn"]["unchanged"] == 3

    def test_non_parsing_candidate_rejected_without_revision_bump(self):
        from repro.serve.service import apply_reload_payload

        service = _mini_service("||incumbent.example^\n")
        before = service.snapshot
        payload = {
            "lists": [
                # A bare exception marker has an empty pattern — one of
                # the few things the tolerant parser refuses outright.
                {"name": "hotfix", "text": "||ok.example^\n@@\n"}
            ]
        }
        with pytest.raises(ValueError, match="failed to parse"):
            apply_reload_payload(service, payload, artifact_dir=None)
        # 400-path contract: revision untouched, incumbent still serving,
        # and none of the candidate's salvageable rules leaked in.
        assert service.snapshot is before
        assert service.snapshot.revision == 1
        assert service.decide("https://incumbent.example/x")["blocked"]
        assert not service.decide("https://ok.example/x")["blocked"]

    def test_reload_provenance_is_stamped_and_surfaced(self):
        service = _mini_service()
        report = service.reload(
            parse_filter_list("||new.example^\n", name="mini"),
            provenance="loop-round-1",
        )
        assert report["provenance"] == "loop-round-1"
        assert service.snapshot.provenance == "loop-round-1"
        assert service.healthz()["provenance"] == "loop-round-1"
        assert service.metrics()["snapshot"]["provenance"] == "loop-round-1"

    def test_reload_text_strict_accepts_clean_candidates(self):
        service = _mini_service()
        report = service.reload_text(
            ("hotfix", "||clean.example^\n"),
            provenance="loop-round-2",
            strict=True,
        )
        assert report["provenance"] == "loop-round-2"
        assert service.decide("https://clean.example/x")["blocked"]


class TestObservability:
    def test_metrics_counters_and_latency(self):
        service = _mini_service()
        for _ in range(3):
            service.decide("https://tracker.example/a.js")
        service.decide(CLEAN)
        service.decide_batch([CLEAN, CLEAN])
        metrics = service.metrics()
        assert metrics["decisions"]["served"] == 6
        assert metrics["decisions"]["blocked"] == 3
        assert metrics["decisions"]["batches"] == 1
        assert metrics["snapshot"]["revision"] == 1
        assert metrics["snapshot"]["lists"] == ["mini"]
        # repeated URLs hit the snapshot's decision cache
        assert metrics["cache"]["hits"] >= 3
        assert metrics["cache"]["hits"] + metrics["cache"]["misses"] == 6
        latency = metrics["latency"]
        assert latency["observed"] == 6
        assert latency["p50_ms"] >= 0.0
        assert latency["p99_ms"] >= latency["p50_ms"]
        assert metrics["uptime_seconds"] > 0.0

    def test_reload_resets_cache_metrics_with_the_snapshot(self):
        service = _mini_service()
        service.decide(CLEAN)
        service.decide(CLEAN)
        assert service.metrics()["cache"]["hits"] == 1
        service.reload(parse_filter_list("||x.example^\n", name="mini"))
        metrics = service.metrics()
        # the new snapshot starts with a cold cache of its own
        assert metrics["cache"]["hits"] == 0 and metrics["cache"]["misses"] == 0
        assert metrics["decisions"]["reloads"] == 1

    def test_healthz(self):
        service = _mini_service()
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["revision"] == 1
        assert health["rule_count"] == 1
        assert health["uptime_seconds"] >= 0.0

    def test_batch_of_k_records_k_latency_samples(self):
        """Regression pin: a ``decide_batch`` of k URLs must land k
        per-decision samples in the latency window — batches counted as
        one sample would let a batch-heavy workload report a p99 drawn
        almost entirely from single calls."""
        service = _mini_service()
        service.decide_batch([f"https://tracker.example/{i}.js" for i in range(11)])
        window = service.latency
        assert window.count == 11
        assert len(window._samples) == 11
        # Every sample is the amortized per-decision cost: identical.
        assert len(set(window._samples)) == 1
        service.decide(CLEAN)
        assert window.count == 12
        # The same accounting holds through the coalescer's entry point.
        service.decide_validated(
            service.validate_requests([CLEAN, CLEAN, CLEAN]), batches=2
        )
        assert window.count == 15
        assert service.metrics()["latency"]["observed"] == 15
        assert service.metrics()["decisions"]["batches"] == 3

    def test_latency_window_drain_since_is_incremental(self):
        service = _mini_service()
        service.decide_batch([CLEAN, CLEAN])
        cursor, fresh = service.latency.drain_since(0)
        assert cursor == 2 and len(fresh) == 2
        cursor, fresh = service.latency.drain_since(cursor)
        assert cursor == 2 and fresh == []
        service.decide(CLEAN)
        cursor, fresh = service.latency.drain_since(cursor)
        assert cursor == 3 and len(fresh) == 1


class TestConcurrency:
    def test_decisions_consistent_across_threads_and_reloads(self):
        """Hammer decide() from many threads while reloading; every answer
        must match the offline oracle of the revision that served it."""
        old_text = "||blocked-old.example^\n"
        new_text = "||blocked-old.example^\n||blocked-new.example^\n"
        oracles = {
            1: FilterListOracle(parse_filter_list(old_text, name="mini")),
            2: FilterListOracle(parse_filter_list(new_text, name="mini")),
        }
        service = _mini_service(old_text)
        urls = [
            "https://blocked-old.example/a.js",
            "https://blocked-new.example/b.js",
            CLEAN,
        ] * 40
        results: list = []
        errors: list = []
        barrier = threading.Barrier(5)

        def worker():
            barrier.wait()
            local = []
            try:
                for url in urls:
                    local.append(service.decide(url))
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)
            results.extend(local)

        def reloader():
            barrier.wait()
            service.reload(parse_filter_list(new_text, name="mini"))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        threads.append(threading.Thread(target=reloader))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(results) == 4 * len(urls)
        for decision in results:
            expected = oracles[decision["revision"]].should_block_url(
                decision["url"]
            )
            assert decision["blocked"] == expected
        assert service.snapshot.revision == 2


class TestArtifactSnapshots:
    """Compiled-artifact cold start and hot reload (PR 4 tentpole)."""

    LIST_TEXT = "||tracker.example^\n/beacon/*\n@@||cdn.example^$script\n"

    def _compiled(self, tmp_path, text=None, name="mini"):
        from repro.filterlists.compile import compile_lists

        path = tmp_path / f"{name}.tsoracle"
        compile_lists(path, parse_filter_list(text or self.LIST_TEXT, name=name))
        return path

    def test_service_boots_from_artifact(self, tmp_path):
        path = self._compiled(tmp_path)
        from_artifact = BlockingService(artifact=path)
        from_text = _mini_service(self.LIST_TEXT)
        assert from_artifact.snapshot.revision == 1
        assert from_artifact.snapshot.list_names == ("mini",)
        for url in (
            "https://tracker.example/a.js",
            "https://site.example/beacon/1",
            "https://cdn.example/lib.js",
            CLEAN,
        ):
            assert (
                from_artifact.decide(url)["blocked"]
                == from_text.decide(url)["blocked"]
            ), url

    def test_artifact_and_lists_are_mutually_exclusive(self, tmp_path):
        path = self._compiled(tmp_path)
        with pytest.raises(ValueError, match="exactly one"):
            BlockingService(
                parse_filter_list(self.LIST_TEXT, name="mini"), artifact=path
            )

    def test_reload_artifact_swaps_and_reports_churn(self, tmp_path):
        service = _mini_service("||tracker.example^\n||legacy.example^\n")
        path = self._compiled(
            tmp_path, text="||tracker.example^\n||fresh.example^\n"
        )
        report = service.reload_artifact(path)
        assert report["revision"] == 2
        assert report["artifact"] == str(path)
        assert report["churn"]["added"] == 1
        assert report["churn"]["removed"] == 1
        assert service.decide("https://fresh.example/x.js")["blocked"]
        assert not service.decide("https://legacy.example/x.js")["blocked"]
        # The next reload diffs against the artifact's stored lists.
        second = service.reload(parse_filter_list("||tracker.example^\n", name="mini"))
        assert second["churn"]["removed"] == 1

    def test_bad_artifact_leaves_snapshot_serving(self, tmp_path):
        from repro.filterlists.compile import ArtifactError

        service = _mini_service()
        path = tmp_path / "corrupt.tsoracle"
        good = self._compiled(tmp_path)
        data = bytearray(good.read_bytes())
        data[-3] ^= 0xFF
        path.write_bytes(bytes(data))
        before = service.snapshot
        with pytest.raises(ArtifactError, match="checksum"):
            service.reload_artifact(path)
        assert service.snapshot is before  # untouched, still serving
        assert service.decide("https://tracker.example/a.js")["blocked"]

    def test_artifact_without_provenance_rejected(self, tmp_path):
        from repro.filterlists.compile import ArtifactError, compile_matcher
        from repro.filterlists.matcher import FilterMatcher

        path = tmp_path / "bare.tsoracle"
        compile_matcher(FilterMatcher.from_text(self.LIST_TEXT, name="mini"), path)
        with pytest.raises(ArtifactError, match="provenance"):
            BlockingService(artifact=path)

    # Unsupported ($popup) rules, duplicate lines, an empty list and a
    # retired list: every way provenance can differ from the indexed rules.
    OLD_LISTS = (
        ("mini", "||tracker.example^\n||legacy.example^\n||pop.example^$popup\n"),
        ("retired", "||old.example^\n"),
    )
    NEW_LISTS = (
        (
            "mini",
            "||tracker.example^\n||tracker.example^\n||pop.example^$popup\n"
            "||pop2.example^$popup\n/beacon/*\n",
        ),
        ("empty", ""),
    )

    @staticmethod
    def _parsed(specs):
        return tuple(parse_filter_list(text, name=name) for name, text in specs)

    @staticmethod
    def _churn(report):
        return {key: report[key] for key in ("rule_count", "lists", "churn")}

    def test_reload_artifact_churn_equals_text_reload(self, tmp_path):
        from repro.filterlists.compile import compile_lists

        old_path, new_path = tmp_path / "old.tsoracle", tmp_path / "new.tsoracle"
        compile_lists(old_path, *self._parsed(self.OLD_LISTS))
        compile_lists(new_path, *self._parsed(self.NEW_LISTS))
        expected = self._churn(
            BlockingService(*self._parsed(self.OLD_LISTS)).reload(
                *self._parsed(self.NEW_LISTS)
            )
        )
        assert expected["churn"]["added"] > 0 and expected["churn"]["removed"] > 0
        # text -> artifact, artifact -> artifact, artifact -> text: the
        # image's stored rule lines diff exactly like parsed lists.
        text_booted = BlockingService(*self._parsed(self.OLD_LISTS))
        assert self._churn(text_booted.reload_artifact(new_path)) == expected
        assert self._churn(
            BlockingService(artifact=old_path).reload_artifact(new_path)
        ) == expected
        assert self._churn(
            BlockingService(artifact=old_path).reload(*self._parsed(self.NEW_LISTS))
        ) == expected

    def test_boot_and_swap_never_decode_provenance(self, tmp_path, monkeypatch):
        from repro.filterlists.image import ImageMatcher

        path = self._compiled(tmp_path)
        hotfix = self._compiled(tmp_path, text="||hotfix.example^\n", name="hotfix")

        def forbidden(self):
            raise AssertionError("provenance decoded outside a reload")

        monkeypatch.setattr(ImageMatcher, "rule_lines", forbidden)
        service = BlockingService(artifact=path)
        assert service.snapshot.list_names == ("mini",)
        report = service.swap_image(hotfix, revision=5)
        assert report["revision"] == 5
        assert service.decide("https://hotfix.example/x.js")["blocked"]

    def test_snapshot_from_artifact_matches_build(self, tmp_path):
        parsed = parse_filter_list(self.LIST_TEXT, name="mini")
        path = self._compiled(tmp_path)
        built = Snapshot.build((parsed,), revision=7)
        loaded = Snapshot.from_artifact(path, revision=7)
        assert loaded.revision == 7
        assert loaded.rule_count == built.rule_count
        assert loaded.list_names == built.list_names


class TestUnsupportedSurfacing:
    def test_metrics_surface_unsupported_rule_counts(self):
        service = _mini_service(
            "||tracker.example^\n/track/v1/\n/ads/*$websocket-frame-weirdness\n"
        )
        snapshot = service.metrics()["snapshot"]
        assert snapshot["unsupported_rules"] == 2
        assert snapshot["unsupported"] == {
            "regex-rule": 1,
            "websocket-frame-weirdness": 1,
        }

    def test_clean_snapshot_reports_zero_unsupported(self):
        snapshot = _mini_service().metrics()["snapshot"]
        assert snapshot["unsupported_rules"] == 0
        assert snapshot["unsupported"] == {}
