"""The TrackerSift test oracle: filter lists label each request.

Section 3 of the paper: "network requests that match EasyList or
EasyPrivacy are classified as tracking, otherwise they are classified as
functional."  The oracle wraps a :class:`FilterMatcher` built from both
lists and returns a :class:`Label` plus provenance (which list / rule
matched) for measurement purposes.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from .._record import FrozenRecord, set_field
from ..urlkit import hostname, is_third_party
from .cache import CachedMatcher, CacheStats
from .lists import default_lists
from .matcher import FilterMatcher, MatchResult
from .parser import ParsedList
from .rules import RequestContext, ResourceType

__all__ = ["Label", "LabeledRequest", "FilterListOracle"]


class Label(str, Enum):
    """The two behaviours TrackerSift distinguishes."""

    TRACKING = "tracking"
    FUNCTIONAL = "functional"

    @property
    def is_tracking(self) -> bool:
        return self is Label.TRACKING


class LabeledRequest(FrozenRecord):
    """A request URL together with the oracle's verdict and provenance."""

    __slots__ = ("url", "label", "matched_rule", "matched_list")

    url: str
    label: Label
    matched_rule: str
    matched_list: str

    def __init__(
        self, url: str, label: Label, matched_rule: str = "", matched_list: str = ""
    ) -> None:
        set_field(self, "url", url)
        set_field(self, "label", label)
        set_field(self, "matched_rule", matched_rule)
        set_field(self, "matched_list", matched_list)


class FilterListOracle:
    """Labels network requests as tracking or functional.

    By default it combines the embedded EasyList and EasyPrivacy snapshots,
    mirroring the paper's setup.  Custom :class:`ParsedList` instances can
    be supplied (e.g. regional lists, or a single list for ablations).
    """

    def __init__(self, *lists: ParsedList, cache: bool = False) -> None:
        if not lists:
            lists = default_lists()
        self._matcher: FilterMatcher | CachedMatcher = FilterMatcher.from_lists(
            *lists
        )
        # Lazily-built decision cache backing the URL-only convenience
        # queries on an otherwise uncached oracle (see _decision_matcher).
        self._convenience: CachedMatcher | None = None
        if cache:
            self.enable_cache()

    @classmethod
    def from_matcher(
        cls, matcher: FilterMatcher, *, cache: bool = False
    ) -> "FilterListOracle":
        """An oracle over an already-built matcher (no parsing, no index
        construction) — the adoption path for compiled artifacts."""
        oracle = cls.__new__(cls)
        oracle._matcher = matcher
        oracle._convenience = None
        if cache:
            oracle.enable_cache()
        return oracle

    @classmethod
    def from_artifact(
        cls, path: "str | Path", *, cache: bool = False
    ) -> "FilterListOracle":
        """Open a compiled ``.tsoracle`` artifact as a ready oracle.

        This is the fast path the parallel shard workers and the serving
        layer use: validation plus a read-only map of the oracle image,
        with list parsing and token/host index construction skipped
        entirely (:mod:`repro.filterlists.compile` defines the format and
        gates).  Raises :class:`~repro.filterlists.compile.ArtifactError`
        for a missing, truncated, corrupt or version-mismatched artifact.
        """
        from .compile import open_image

        return cls.from_matcher(open_image(path), cache=cache)

    def enable_cache(self) -> "FilterListOracle":
        """Memoize match decisions (idempotent); returns ``self``.

        See :mod:`repro.filterlists.cache` for the exactness argument.
        """
        if not isinstance(self._matcher, CachedMatcher):
            self._matcher = CachedMatcher(self._matcher)
            self._convenience = None  # superseded by the main cache
        return self

    def cached_view(self) -> "FilterListOracle":
        """A caching oracle over this oracle's rules, without mutating it.

        The streaming engine labels through a view of whatever oracle it
        is handed, so repeated resources across sites are decided once
        while the caller's oracle keeps its uncached matcher (and its
        mutability) untouched.  An already-cached oracle is shared as-is.
        """
        if isinstance(self._matcher, CachedMatcher):
            return self
        import copy

        view = copy.copy(self)  # keeps subclass identity and all state
        view._matcher = CachedMatcher(self._matcher)
        view._convenience = None  # the view's main matcher now caches
        return view

    def _decision_matcher(self) -> CachedMatcher:
        """The decision cache every convenience query routes through.

        A cache-enabled oracle's own matcher already memoizes; an uncached
        oracle gets a lazily-built side cache over its live rule set, so
        ``should_block_url``-style calls enjoy the same memoization the
        streaming engine's :meth:`cached_view` provides — and, because the
        cache key is the same normalized request shape, repeated URL-only
        lookups collapse exactly like the streaming path's do.  The side
        cache is rebuilt when the underlying matcher was swapped; in-place
        rule additions are caught by :class:`CachedMatcher` itself (it
        watches :attr:`FilterMatcher.revision`), so convenience answers
        always reflect the live rule set.
        """
        if isinstance(self._matcher, CachedMatcher):
            return self._matcher
        if self._convenience is None or self._convenience.wrapped is not self._matcher:
            self._convenience = CachedMatcher(self._matcher)
        return self._convenience

    @property
    def cache_stats(self) -> CacheStats | None:
        """Hit/miss counters when caching is enabled, else ``None``."""
        if isinstance(self._matcher, CachedMatcher):
            return self._matcher.stats
        return None

    @property
    def matcher(self) -> FilterMatcher | CachedMatcher:
        return self._matcher

    @property
    def rule_count(self) -> int:
        return self._matcher.rule_count

    @property
    def unsupported_counts(self) -> dict[str, int]:
        """Rules skipped at indexing time, per unsupported reason — the
        oracle's coverage-gap ledger (surfaced by ``/metrics``)."""
        return self._matcher.unsupported_counts

    @property
    def unsupported_rule_count(self) -> int:
        return self._matcher.unsupported_rule_count

    def _context(
        self,
        url: str,
        resource_type: ResourceType,
        page_url: str,
    ) -> RequestContext:
        page_host = ""
        third_party = True
        if page_url:
            try:
                page_host = hostname(page_url)
                third_party = is_third_party(url, page_url)
            except ValueError:
                page_host = ""
        return RequestContext(
            url=url,
            resource_type=resource_type,
            page_host=page_host,
            third_party=third_party,
        )

    def match(
        self,
        url: str,
        resource_type: ResourceType = ResourceType.OTHER,
        page_url: str = "",
    ) -> MatchResult:
        """Raw ABP match decision for one request."""
        return self._matcher.match(self._context(url, resource_type, page_url))

    def should_block_url(
        self,
        url: str,
        resource_type: ResourceType = ResourceType.OTHER,
        page_url: str = "",
    ) -> bool:
        """URL-only blocking decision, always served through the decision
        cache — a repeated lookup is a cache hit whether or not the oracle
        itself was built with ``cache=True``."""
        return self._decision_matcher().match(
            self._context(url, resource_type, page_url)
        ).blocked

    def label(
        self,
        url: str,
        resource_type: ResourceType = ResourceType.OTHER,
        page_url: str = "",
    ) -> Label:
        """The paper's labeling function: matched => tracking."""
        result = self.match(url, resource_type, page_url)
        return Label.TRACKING if result.blocked else Label.FUNCTIONAL

    def label_request(
        self,
        url: str,
        resource_type: ResourceType = ResourceType.OTHER,
        page_url: str = "",
    ) -> LabeledRequest:
        """Label a request and keep the matched rule for reporting."""
        result = self.match(url, resource_type, page_url)
        return self._to_labeled(url, result)

    @staticmethod
    def _to_labeled(url: str, result: MatchResult) -> LabeledRequest:
        label = Label.TRACKING if result.blocked else Label.FUNCTIONAL
        rule = result.rule
        return LabeledRequest(
            url=url,
            label=label,
            matched_rule=rule.text if rule is not None and result.blocked else "",
            matched_list=rule.list_name if rule is not None and result.blocked else "",
        )

    def decide_many(
        self,
        urls: "Iterable[str]",
        resource_type: ResourceType = ResourceType.OTHER,
        page_url: str = "",
    ) -> list[MatchResult]:
        """Batch :meth:`match` over URLs sharing one request context shape.

        Each URL still gets its own context, built exactly as :meth:`match`
        builds it: the page host and the third-party check are resolved
        once per URL, not once per batch.  The saving is in the decision
        layer underneath (cached or raw), which amortizes its per-call
        overhead — one lock round for a cached oracle instead of two per
        URL.
        Decision-identical to looping :meth:`match`, including cache
        hit/miss accounting (see :meth:`CachedMatcher.match_many`).
        Subclasses that override :meth:`match` keep their semantics: the
        batch short-circuit only engages on the base implementation.
        """
        urls = list(urls)
        if type(self).match is not FilterListOracle.match:
            return [
                self.match(url, resource_type, page_url) for url in urls
            ]
        contexts = [
            self._context(url, resource_type, page_url) for url in urls
        ]
        return self._matcher.match_many(contexts)

    def label_request_many(
        self,
        requests: "Iterable[tuple[str, ResourceType, str]]",
    ) -> list[LabeledRequest]:
        """Batch :meth:`label_request` over ``(url, resource_type,
        page_url)`` triples — the streaming engine's label loop and the
        serve layer's ``decide_batch`` both drain through here.

        Oracle subclasses stay first-class: when :meth:`label_request` or
        :meth:`match` is overridden, the batch devolves to looping the
        per-request method so custom labeling (e.g. test doubles shipped
        to shard workers) is never silently bypassed.
        """
        items = list(requests)
        cls = type(self)
        if (
            cls.label_request is not FilterListOracle.label_request
            or cls.match is not FilterListOracle.match
        ):
            return [
                self.label_request(url, resource_type, page_url)
                for url, resource_type, page_url in items
            ]
        contexts = [
            self._context(url, resource_type, page_url)
            for url, resource_type, page_url in items
        ]
        results = self._matcher.match_many(contexts)
        return [
            self._to_labeled(item[0], result)
            for item, result in zip(items, results)
        ]
