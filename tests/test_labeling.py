"""Labeling stage: oracle application, exclusions, ancestral propagation."""

import pytest

from repro.browser.callstack import CallFrame, CallStack
from repro.browser.devtools import RequestWillBeSent
from repro.crawler.storage import RequestDatabase
from repro.filterlists.oracle import Label
from repro.labeling.labeler import RequestLabeler

PAGE = "https://www.pub.example/"


def event(url: str, frames=None, rid=None, resource_type="xmlhttprequest"):
    stack = None
    if frames is not None:
        stack = CallStack(
            frames=tuple(CallFrame(url=u, function_name=m) for u, m in frames)
        )
    event.counter = getattr(event, "counter", 0) + 1
    return RequestWillBeSent(
        request_id=rid or f"t.{event.counter}",
        url=url,
        top_level_url=PAGE,
        frame_url=PAGE,
        resource_type=resource_type,
        timestamp=1.0,
        call_stack=stack,
    )


STACK = [("https://cdn.example/clone.js", "m2"), ("https://t.example/track.js", "t")]


class TestLabelEvent:
    def test_tracking_label(self):
        labeler = RequestLabeler()
        analyzed = labeler.label_event(
            event("https://google-analytics.com/collect?v=1", STACK)
        )
        assert analyzed is not None
        assert analyzed.label is Label.TRACKING
        assert analyzed.is_tracking
        assert analyzed.matched_list == "easyprivacy"

    def test_functional_label(self):
        labeler = RequestLabeler()
        analyzed = labeler.label_event(
            event("https://cdnjs-mirror.net/static/js/app.2.js", STACK)
        )
        assert analyzed is not None
        assert analyzed.label is Label.FUNCTIONAL

    def test_attribution_keys(self):
        labeler = RequestLabeler()
        analyzed = labeler.label_event(event("https://i0.wp.com/pixel/1.gif", STACK))
        assert analyzed.domain == "wp.com"
        assert analyzed.hostname == "i0.wp.com"
        assert analyzed.script == "https://cdn.example/clone.js"
        assert analyzed.method == "m2"
        assert analyzed.method_key == ("https://cdn.example/clone.js", "m2")
        assert analyzed.page == PAGE

    def test_frames_preserved(self):
        labeler = RequestLabeler()
        analyzed = labeler.label_event(event("https://i0.wp.com/pixel/1.gif", STACK))
        assert analyzed.frames == tuple((u, m) for u, m in STACK)

    def test_ancestry_scripts(self):
        labeler = RequestLabeler()
        analyzed = labeler.label_event(event("https://i0.wp.com/pixel/1.gif", STACK))
        assert analyzed.ancestry == (
            "https://cdn.example/clone.js",
            "https://t.example/track.js",
        )

    def test_ancestry_disabled(self):
        labeler = RequestLabeler(propagate_ancestry=False)
        analyzed = labeler.label_event(event("https://i0.wp.com/pixel/1.gif", STACK))
        assert analyzed.ancestry == ("https://cdn.example/clone.js",)

    def test_non_script_initiated_excluded(self):
        labeler = RequestLabeler()
        assert labeler.label_event(event("https://i0.wp.com/a.png", frames=None)) is None

    def test_unparseable_url_excluded(self):
        labeler = RequestLabeler()
        assert labeler.label_event(event("not a url", STACK)) is None

    def test_ip_target_excluded(self):
        labeler = RequestLabeler()
        assert labeler.label_event(event("http://10.0.0.8/x", STACK)) is None


class TestLabelCrawl:
    def make_db(self):
        db = RequestDatabase()
        db.add_request(event(PAGE, frames=None, rid="a.1", resource_type="document"))
        db.add_request(event("https://i0.wp.com/pixel/2.gif", STACK, rid="a.2"))
        db.add_request(event("https://i0.wp.com/img/logo-2.png", STACK, rid="a.3"))
        return db

    def test_exclusion_accounting(self):
        crawl = RequestLabeler().label_crawl(self.make_db())
        assert crawl.excluded_non_script == 1
        assert len(crawl.requests) == 2
        assert crawl.tracking_count == 1
        assert crawl.functional_count == 1

    def test_participation_counts_full_ancestry(self):
        crawl = RequestLabeler().label_crawl(self.make_db())
        # both scripts in the stack participate in 1 tracking + 1 functional
        assert crawl.script_participation("https://cdn.example/clone.js") == (1, 1)
        assert crawl.script_participation("https://t.example/track.js") == (1, 1)

    def test_participation_unknown_script(self):
        crawl = RequestLabeler().label_crawl(self.make_db())
        assert crawl.script_participation("https://nowhere.example/x.js") == (0, 0)

    def test_participation_without_propagation(self):
        crawl = RequestLabeler(propagate_ancestry=False).label_crawl(self.make_db())
        assert crawl.script_participation("https://t.example/track.js") == (0, 0)


class TestCrawlScaleLabeling:
    def test_no_unparseable_in_synthetic_crawl(self, small_study):
        assert small_study.labeled.excluded_unparseable == 0

    def test_non_script_exclusions_counted(self, small_study):
        # the engine emits document + external-script fetches per page
        assert small_study.labeled.excluded_non_script > small_study.pages_crawled

    def test_every_labeled_request_has_initiator(self, small_study):
        for request in small_study.labeled.requests:
            assert request.script
            assert request.method
            assert request.frames


class TestBatchedLabelLoop:
    """The chunked oracle path in ``iter_labeled`` is an optimization,
    not a behavior: any chunk size yields the same requests, counters,
    and cache accounting as per-event labeling."""

    def _events(self, n=12):
        urls = [
            "https://i0.wp.com/pixel/2.gif",
            "https://i0.wp.com/img/logo-2.png",
            "https://functional.example/app.js",
            "not a url",
        ]
        out = [event(PAGE, frames=None, rid="p.0", resource_type="document")]
        for i in range(n):
            out.append(event(urls[i % len(urls)], STACK, rid=f"r.{i}"))
        return out

    @pytest.mark.parametrize("batch_size", [1, 3, 256])
    def test_any_chunk_size_is_identical(self, batch_size):
        from repro.labeling.labeler import LabeledCrawl

        baseline_labeler = RequestLabeler()
        baseline = LabeledCrawl()
        baseline_out = [
            a
            for a in baseline_labeler.iter_labeled(
                self._events(), counters=baseline, batch_size=1
            )
        ]

        labeler = RequestLabeler()
        counters = LabeledCrawl()
        out = list(
            labeler.iter_labeled(
                self._events(), counters=counters, batch_size=batch_size
            )
        )
        assert out == baseline_out
        assert counters.excluded_non_script == baseline.excluded_non_script
        assert counters.excluded_unparseable == baseline.excluded_unparseable
        assert counters.participation == baseline.participation

    def test_cache_accounting_identical_across_chunk_sizes(self):
        from repro.labeling.labeler import LabeledCrawl
        from repro.filterlists.oracle import FilterListOracle

        stats = []
        for batch_size in (1, 5, 256):
            labeler = RequestLabeler(FilterListOracle(cache=True))
            counters = LabeledCrawl()
            list(
                labeler.iter_labeled(
                    self._events(), counters=counters, batch_size=batch_size
                )
            )
            cache = labeler.oracle.cache_stats
            stats.append((cache.hits, cache.misses))
        assert len(set(stats)) == 1, stats


class TestSharedAttributionKeys:
    def test_one_host_shares_its_key_strings(self):
        labeler = RequestLabeler()
        urls = [
            "https://i0.wp.com/pixel/1.gif",
            "https://i0.wp.com/img/logo.png",
            "https://google-analytics.com/collect?v=1",
            "https://i0.wp.com/pixel/2.gif",
        ]
        analyzed = [labeler.label_event(event(url, STACK)) for url in urls]
        wp = [a for a in analyzed if a.hostname == "i0.wp.com"]
        assert len(wp) == 3
        assert all(a.hostname is wp[0].hostname for a in wp)
        assert all(a.domain is wp[0].domain for a in wp)
        fresh = [RequestLabeler().label_event(event(url, STACK)) for url in urls]
        assert [a.label for a in analyzed] == [a.label for a in fresh]
        assert [(a.domain, a.hostname) for a in analyzed] == [
            (a.domain, a.hostname) for a in fresh
        ]
