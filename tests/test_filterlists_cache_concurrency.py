"""Concurrent-access stress tests for the thread-safe decision cache.

The online service (:mod:`repro.serve`) shares one
:class:`CachedMatcher` across all server threads, so the cache must keep
its counters exact and its decisions consistent under contention.  These
tests hammer it from many threads (synchronized on a barrier to maximize
interleaving) and check the invariants that used to be racy: counter
totals, decision correctness, and invalidation during rule additions.
"""

import threading

from repro.filterlists.cache import CachedMatcher, DecisionCache
from repro.filterlists.matcher import FilterMatcher, MatchResult
from repro.filterlists.rules import RequestContext, ResourceType

RULES = """\
||tracker.example^
||ads.example^$script
/pixel*
@@||tracker.example/allowed.js
-banner-$image,domain=news.example|~blog.news.example
"""

URLS = [
    "https://tracker.example/spy.js",
    "https://tracker.example/allowed.js",
    "https://ads.example/unit.js",
    "https://cdn.example/pixel/207.gif",
    "https://cdn.example/pixel/501.gif",  # digit-run twin of the above
    "https://clean.example/app.js",
    "https://news.site/-banner-top.png",
]


def _contexts():
    contexts = []
    for index, url in enumerate(URLS):
        contexts.append(
            RequestContext(
                url=url,
                resource_type=(
                    ResourceType.SCRIPT if url.endswith(".js") else ResourceType.IMAGE
                ),
                page_host="news.example" if index % 2 else "blog.news.example",
                third_party=True,
            )
        )
    return contexts


def _hammer(threads, per_thread_work):
    barrier = threading.Barrier(threads)
    errors: list = []

    def runner(index):
        barrier.wait()
        try:
            per_thread_work(index)
        except Exception as error:  # noqa: BLE001 - surfaced in the assert
            errors.append(error)

    workers = [
        threading.Thread(target=runner, args=(index,)) for index in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert not errors


class TestConcurrentLookups:
    THREADS = 8
    ROUNDS = 150

    def test_counters_exact_and_decisions_consistent(self):
        matcher = FilterMatcher.from_text(RULES, name="stress")
        cached = CachedMatcher(matcher)
        contexts = _contexts()
        expected = {
            context: FilterMatcher.from_text(RULES, name="stress").match(context)
            for context in contexts
        }
        observed: dict[int, list] = {}

        def work(index):
            local = []
            # each thread walks the contexts at a different phase so hits
            # and misses interleave rather than serialize
            for round_number in range(self.ROUNDS):
                context = contexts[(index + round_number) % len(contexts)]
                local.append((context, cached.match(context)))
            observed[index] = local

        _hammer(self.THREADS, work)

        for local in observed.values():
            for context, result in local:
                want = expected[context]
                assert result.blocked == want.blocked
                assert (result.rule is None) == (want.rule is None)
                if result.rule is not None:
                    assert result.rule.text == want.rule.text
        stats = cached.stats
        assert stats.lookups == self.THREADS * self.ROUNDS
        assert stats.hits + stats.misses == stats.lookups
        # every distinct key was missed at least once, and the store never
        # grew beyond the distinct-key population
        assert stats.misses >= len(cached)
        assert len(cached) <= len(contexts)

    def test_rule_additions_mid_flight_never_serve_stale_decisions(self):
        matcher = FilterMatcher.from_text("||tracker.example^\n", name="stress")
        cached = CachedMatcher(matcher)
        late_context = RequestContext(
            url="https://late.example/tag.js",
            resource_type=ResourceType.SCRIPT,
        )
        stop = threading.Event()

        def work(index):
            if index == 0:
                from repro.filterlists.parser import parse_filter_list

                for step in range(10):
                    cached.add_rules(
                        parse_filter_list(f"||added{step}.example^\n").rules
                    )
                cached.add_rules(
                    parse_filter_list("||late.example^\n").rules
                )
                stop.set()
            else:
                while not stop.is_set():
                    cached.match(late_context)

        _hammer(4, work)

        # After the dust settles the cache must agree with the live rules:
        # the late rule blocks, and a fresh uncached matcher concurs.
        assert cached.match(late_context).blocked
        assert cached.wrapped.match(late_context).blocked
        assert cached.stats.hits + cached.stats.misses == cached.stats.lookups

    def test_concurrent_identical_misses_collapse_to_one_entry(self):
        matcher = FilterMatcher.from_text(RULES, name="stress")
        cached = CachedMatcher(matcher)
        context = _contexts()[0]

        _hammer(8, lambda index: [cached.match(context) for _ in range(50)])

        assert len(cached) == 1
        assert cached.stats.lookups == 8 * 50


class TestDecisionCacheUnit:
    def test_lookup_store_and_counters(self):
        cache = DecisionCache()
        result = MatchResult(blocked=True)
        assert cache.lookup(("k",)) is None  # not counted as hit
        cache.store(("k",), result)
        assert cache.lookup(("k",)) is result
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert len(cache) == 1

    def test_store_without_insert_counts_the_miss_only(self):
        cache = DecisionCache()
        cache.store(("k",), MatchResult(blocked=False), insert=False)
        assert cache.stats.misses == 1
        assert len(cache) == 0

    def test_max_entries_caps_the_store(self):
        cache = DecisionCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.store((key,), MatchResult(blocked=False))
        assert len(cache) == 2
        assert cache.max_entries == 2

    def test_clear(self):
        cache = DecisionCache()
        cache.store(("k",), MatchResult(blocked=False))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1  # counters survive a clear
