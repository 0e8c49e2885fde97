"""The TrackerSift test oracle: filter lists label each request.

Section 3 of the paper: "network requests that match EasyList or
EasyPrivacy are classified as tracking, otherwise they are classified as
functional."  The oracle wraps a :class:`FilterMatcher` built from both
lists, behind one decision cache, and returns a :class:`Label` plus
provenance (which list / rule matched) for measurement purposes.
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

    Every decision goes through one :class:`CachedMatcher` the oracle
    builds around its matcher, so a resource shared by many sites is
    decided once (see :mod:`repro.filterlists.cache` for the exactness
    argument).  :attr:`cache_stats` counts every lookup, and the raw
    matcher stays reachable as ``oracle.matcher.wrapped``.  Callers that
    share one oracle share its cache.
    """

    def __init__(self, *lists: ParsedList) -> None:
        if not lists:
            lists = default_lists()
        self._matcher = CachedMatcher(FilterMatcher.from_lists(*lists))

    @classmethod
    def from_matcher(cls, matcher: FilterMatcher) -> "FilterListOracle":
        """An oracle over an already-built matcher (no parsing, no index
        construction) — the adoption path for compiled artifacts."""
        oracle = cls.__new__(cls)
        oracle._matcher = CachedMatcher(matcher)
        return oracle

    @classmethod
    def from_artifact(cls, path: "str | Path") -> "FilterListOracle":
        """Open a compiled ``.tsoracle`` artifact as a ready oracle.

        This is the fast path the serving layer uses: validation plus a
        read-only map of the oracle image, with list parsing and
        token/host index construction skipped entirely
        (:mod:`repro.filterlists.compile` defines the format and gates).
        Raises :class:`~repro.filterlists.compile.ArtifactError` for a
        missing, truncated, corrupt or version-mismatched artifact.
        """
        from .compile import open_image

        return cls.from_matcher(open_image(path))

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the oracle's decision cache."""
        return self._matcher.stats

    @property
    def matcher(self) -> CachedMatcher:
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
                third_party = is_third_party(url, page_host)
            except ValueError:
                page_host = ""
        return RequestContext(
            url=url,
            resource_type=resource_type,
            page_host=page_host,
            third_party=third_party,
        )

    def _match_many(
        self,
        requests: "Iterable[tuple[str, ResourceType, str]]",
    ) -> list[MatchResult]:
        """Decide ``(url, resource_type, page_url)`` triples in order:
        the one place request contexts are built, decided through the
        decision cache's one entry (:meth:`CachedMatcher.match_many`)."""
        context = self._context
        return self._matcher.match_many(
            [context(url, resource_type, page_url)
             for url, resource_type, page_url in requests]
        )

    def match(
        self,
        url: str,
        resource_type: ResourceType = ResourceType.OTHER,
        page_url: str = "",
    ) -> MatchResult:
        """Raw ABP match decision for one request."""
        return self._match_many(((url, resource_type, page_url),))[0]

    def should_block_url(
        self,
        url: str,
        resource_type: ResourceType = ResourceType.OTHER,
        page_url: str = "",
    ) -> bool:
        """Blocking decision for one request."""
        return self.match(url, resource_type, page_url).blocked

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
        return self.label_request_many(((url, resource_type, page_url),))[0]

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

        Each URL still gets its own context: the page host and the
        third-party check are resolved once per URL, not once per batch.
        Decision-identical to looping :meth:`match`, including cache
        hit/miss accounting (see :meth:`CachedMatcher.match_many`).
        """
        return self._match_many((url, resource_type, page_url) for url in urls)

    def label_request_many(
        self,
        requests: "Iterable[tuple[str, ResourceType, str]]",
    ) -> list[LabeledRequest]:
        """Label ``(url, resource_type, page_url)`` triples, in order —
        the one labeling entry: :meth:`label_request`, the streaming
        engine's label loop and the serve layer's decisions all come
        through here.

        A subclass that labels differently (e.g. the control loop's
        ground-truth oracle) overrides this method, so no caller can
        bypass it.
        """
        items = list(requests)
        results = self._match_many(items)
        return [
            self._to_labeled(item[0], result)
            for item, result in zip(items, results)
        ]
