"""Memoized filter-match decisions — the labeling hot path, cached.

A study-scale crawl labels every script-initiated request by consulting
the ABP matcher, and the same third-party resources recur across
thousands of sites (the paper's premise: trackers are *shared*
infrastructure).  The raw matcher re-runs its regex candidates for every
occurrence; this module adds a decision cache in front of
:meth:`FilterMatcher.match` so each distinct request shape is decided
once.

Correctness before speed: the cache key covers **every** context field the
rules can read —

* the request URL (pattern matching),
* the resource type (``$script`` / ``$image`` … options),
* the third-party bit (``$third-party`` and its negation),
* the page host, *only when* some loaded rule carries ``domain=`` options
  (:attr:`FilterMatcher.domain_sensitive`).  Without such rules the
  decision provably never reads the page host, and dropping it from the
  key is what turns "script X on site k" into a cross-site cache hit.

**Key encoding.**  A key is one string, not a tuple of the fields: a
study holds tens of thousands of entries, and a tuple per entry would
be a second object beside the URL that already identifies it.  The key
is two characters coding ``(resource_type, third_party)`` (one table
entry per pair, built once from :class:`ResourceType`), then — only when
the matcher is domain-sensitive — ``len(page_host)``, ``":"`` and the
page host, then the (normalized) URL.  The prefix has a fixed width and
the host carries its length, so the encoding is injective: two contexts
get equal keys exactly when their ``(url, resource_type, third_party
[, page_host])`` tuples are equal, and hits and misses are those of a
tuple key.  A resource type or third-party value outside the table keeps
that tuple as its key, which no string key equals.

``tests/test_filterlists_cache_properties.py`` holds the Hypothesis proof
obligation: over randomized rule sets (including ``domain=`` rules) and
randomized request contexts, the cached matcher is observationally
equivalent to the uncached one, and the string keys are equal exactly
when the field tuples are.

**Thread safety.**  The cache is shared across server threads by the
online blocking service (:mod:`repro.serve`), so the decision store and
its counters live in :class:`DecisionCache`, which serializes every
compound operation on one lock.  The wrapped
:class:`~repro.filterlists.matcher.FilterMatcher` itself is safe for
concurrent *reads*: matching only reads the indexes, and the lazy
per-rule regex compilation is an idempotent publish (two racing threads
compile the same pattern and one result wins).  Concurrent rule
*additions* are serialized against the cache — a decision computed under
an older rule set is never inserted after the rules changed
(``tests/test_filterlists_cache_concurrency.py`` stresses both claims).
"""

from __future__ import annotations

import re
import threading

from .._record import Record
from .matcher import FilterMatcher, MatchResult
from .rules import RequestContext, ResourceType

__all__ = ["CacheStats", "DecisionCache", "CachedMatcher", "normalize_url_key"]

_DIGIT_RUN_RE = re.compile(r"[0-9]+")

#: ``(resource_type, third_party)`` -> the two-character key prefix.
_CONTEXT_PREFIX = {
    (resource_type, third_party): chr(0x41 + index) + ("1" if third_party else "0")
    for index, resource_type in enumerate(ResourceType)
    for third_party in (False, True)
}


def normalize_url_key(url: str) -> str:
    """Collapse digit runs in the path/query to a canonical ``0``.

    ``https://cdn.example/pixel/207.gif?uid=93`` and
    ``https://cdn.example/pixel/501.gif?uid=11`` normalize to the same
    key, turning per-occurrence URLs (cache-busting counters, session ids)
    into one decision.  The authority is left untouched — rule host
    anchors live there — and callers must first establish, via
    :meth:`FilterMatcher.digit_runs_irrelevant_for`, that no loaded rule
    can tell the collapsed URLs apart.
    """
    scheme_end = url.find("://")
    if scheme_end < 0:
        # No scheme — the authority (if any, e.g. scheme-relative ``//h``)
        # cannot be located reliably, so never rewrite: collapsing host
        # digits would merge decisions across different hosts.
        return url
    path_start = url.find("/", scheme_end + 3)
    if path_start < 0:
        return url
    return url[:path_start] + _DIGIT_RUN_RE.sub("0", url[path_start:])


class CacheStats(Record):
    """Hit/miss accounting, surfaced in ``PipelineResult.notes``."""

    __slots__ = ("hits", "misses")

    hits: int
    misses: int

    def __init__(self, hits: int = 0, misses: int = 0) -> None:
        self.hits = hits
        self.misses = misses

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class DecisionCache:
    """Thread-safe store of memoized match decisions plus counters.

    One re-entrant lock guards the entry dict and the
    :class:`CacheStats` counters, so concurrent server threads can never
    lose an increment or observe a half-applied invalidation.  Callers
    needing a compound read-modify-write (e.g. :class:`CachedMatcher`'s
    revision-guarded lookup) hold :attr:`lock` around the whole sequence;
    the re-entrant lock makes the individual operations nest freely.
    """

    __slots__ = ("lock", "stats", "_entries", "_max_entries")

    def __init__(self, max_entries: int = 1_000_000) -> None:
        self.lock = threading.RLock()
        self.stats = CacheStats()
        self._entries: dict[object, MatchResult] = {}
        self._max_entries = max_entries

    @property
    def max_entries(self) -> int:
        return self._max_entries

    def lookup(self, key: object) -> MatchResult | None:
        """The cached decision for ``key`` (counted as a hit), or ``None``."""
        with self.lock:
            result = self._entries.get(key)
            if result is not None:
                self.stats.hits += 1
            return result

    def store(self, key: object, result: MatchResult, *, insert: bool = True) -> bool:
        """Count a miss; insert the decision unless ``insert`` is False
        (the caller observed a concurrent rule change) or the cache is
        full.  Returns whether the entry was actually inserted, so batch
        callers can tell a memoized decision from a merely served one."""
        with self.lock:
            self.stats.misses += 1
            if insert and len(self._entries) < self._max_entries:
                self._entries[key] = result
                return True
            return False

    def clear(self) -> None:
        with self.lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)


class CachedMatcher:
    """A :class:`FilterMatcher` front-end that memoizes match decisions.

    Decides through :meth:`match_many` (:meth:`match` is a batch of
    one), and passes the wrapped matcher's introspection through.  Rule
    additions through the *wrapped* matcher are detected via
    :attr:`FilterMatcher.revision` and invalidate the cache on the next
    lookup; :meth:`add_list` / :meth:`add_rules` here invalidate
    immediately.

    Safe to share across threads: the decision store is a
    :class:`DecisionCache`, a batch decides its misses under that store's
    lock (so rule additions through this class wait for it), and a
    decision computed concurrently with a rule change made on the wrapped
    matcher directly is served but never cached.
    """

    def __init__(self, matcher: FilterMatcher, *, max_entries: int = 1_000_000) -> None:
        self._matcher = matcher
        self._cache = DecisionCache(max_entries=max_entries)
        self._revision = matcher.revision

    # -- construction pass-throughs (cache-invalidating) -------------------
    def add_list(self, parsed) -> None:
        with self._cache.lock:
            self._matcher.add_list(parsed)
            self._revision = self._matcher.revision
            self._cache.clear()

    def add_rules(self, rules) -> None:
        with self._cache.lock:
            self._matcher.add_rules(rules)
            self._revision = self._matcher.revision
            self._cache.clear()

    def clear(self) -> None:
        self._cache.clear()

    # -- introspection ------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def wrapped(self) -> FilterMatcher:
        return self._matcher

    @property
    def list_names(self) -> tuple[str, ...]:
        return self._matcher.list_names

    @property
    def rule_count(self) -> int:
        return self._matcher.rule_count

    @property
    def domain_sensitive(self) -> bool:
        return self._matcher.domain_sensitive

    @property
    def unsupported_counts(self) -> dict[str, int]:
        return self._matcher.unsupported_counts

    @property
    def unsupported_rule_count(self) -> int:
        return self._matcher.unsupported_rule_count

    def __len__(self) -> int:
        return len(self._cache)

    # -- matching ------------------------------------------------------------
    def _key(self, context: RequestContext) -> str | tuple:
        """The decision-cache key (see the module docstring's encoding)."""
        url = context.url
        if self._matcher.digit_runs_irrelevant_for(url):
            url = normalize_url_key(url)
        resource_type = context.resource_type
        third_party = context.third_party
        prefix = _CONTEXT_PREFIX.get((resource_type, third_party))
        # The page host participates in the decision only through
        # ``domain=`` options; leaving it out otherwise is what makes the
        # same resource a hit across every site that loads it.
        if self._matcher.domain_sensitive:
            host = context.page_host
            if prefix is None:
                return (url, resource_type, third_party, host)
            return f"{prefix}{len(host)}:{host}{url}"
        if prefix is None:
            return (url, resource_type, third_party)
        return prefix + url

    def match(self, context: RequestContext) -> MatchResult:
        """One decision: a batch of one through :meth:`match_many`."""
        return self.match_many((context,))[0]

    def match_many(self, contexts) -> list[MatchResult]:
        """The one decision entry: one result per context, same order.

        One lock acquisition covers the whole batch, which is where the
        batch path's throughput win over looped singles comes from at
        the service layer.  Hit/miss accounting is *exactly* the
        sequential loop's: a key seen twice in one batch is a miss then
        a hit (the first occurrence's decision is memoized before the
        second is looked up), so cache-stats fields in pipeline notes and
        scenario goldens are byte-identical however requests are
        batched.  The whole batch decides against one rule revision, and
        the key is built under the lock that synchronized it (the key
        derives from matcher state — digit-run safety, domain
        sensitivity — so a key built against stale rules could alias
        decisions across rule sets).  A revision change on the wrapped
        matcher racing the batch suppresses inserts: never a stale entry.
        """
        cache = self._cache
        matcher = self._matcher
        results: list[MatchResult] = []
        append = results.append
        with cache.lock:
            if matcher.revision != self._revision:
                cache.clear()
                self._revision = matcher.revision
            revision = self._revision
            for context in contexts:
                key = self._key(context)
                cached = cache.lookup(key)
                if cached is not None:
                    append(cached)
                    continue
                result = matcher.match(context)
                cache.store(key, result, insert=matcher.revision == revision)
                append(result)
        return results
