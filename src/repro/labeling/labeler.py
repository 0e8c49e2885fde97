"""Labeling stage: apply the filter-list oracle to the crawled requests.

Paper §3 ("Labeling"): every *script-initiated* network request is matched
against EasyList and EasyPrivacy; matches are tracking, the rest are
functional.  Non-script-initiated requests "can not be trivially classified
... we exclude them from our analysis".

The labeler also implements the paper's ancestral propagation: because the
captured call stack (with async stacks prepended) lists every ancestral
script that led to a request, each labeled request records its full script
ancestry, and the participation index exposes per-script tracking /
functional involvement for the call-stack analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..browser.callstack import CallStack
from ..browser.devtools import RequestWillBeSent
from ..crawler.storage import RequestDatabase
from ..filterlists.oracle import FilterListOracle, Label
from ..filterlists.rules import ResourceType
from ..urlkit import URLError, hostname, registrable_domain
from ..urlkit.dns import CnameResolver, DnsError

__all__ = ["AnalyzedRequest", "LabeledCrawl", "RequestLabeler"]


@dataclass(frozen=True)
class AnalyzedRequest:
    """One labeled, attribution-ready request.

    Carries every key the hierarchy needs: the target's registrable domain
    and hostname, and the initiator script/method from the call stack.
    """

    url: str
    label: Label
    domain: str
    hostname: str
    script: str
    method: str
    page: str
    resource_type: str
    ancestry: tuple[str, ...]
    #: flattened (script, method) frames, innermost first — the raw stack
    #: snapshot the call-stack analysis (Figure 5) consumes.
    frames: tuple[tuple[str, str], ...] = ()
    matched_rule: str = ""
    matched_list: str = ""

    @property
    def is_tracking(self) -> bool:
        return self.label is Label.TRACKING

    @property
    def method_key(self) -> tuple[str, str]:
        """Method identity: methods are scoped to their script."""
        return (self.script, self.method)


@dataclass
class LabeledCrawl:
    """The full labeled dataset plus exclusion accounting."""

    requests: list[AnalyzedRequest] = field(default_factory=list)
    excluded_non_script: int = 0
    excluded_unparseable: int = 0
    #: script URL -> (tracking, functional) request participation counts,
    #: counting every request whose *ancestry* (not just initiator)
    #: contains the script — the paper's ancestral label propagation.
    participation: dict[str, list[int]] = field(default_factory=dict)

    @property
    def tracking_count(self) -> int:
        return sum(1 for r in self.requests if r.is_tracking)

    @property
    def functional_count(self) -> int:
        return len(self.requests) - self.tracking_count

    def script_participation(self, script_url: str) -> tuple[int, int]:
        entry = self.participation.get(script_url)
        if entry is None:
            return (0, 0)
        return (entry[0], entry[1])


class RequestLabeler:
    """Applies the oracle and builds attribution keys for every request.

    ``resolver`` enables CNAME uncloaking (the Brave / uBlock-Origin-on-
    Firefox defence): before matching, the request host is replaced by its
    canonical DNS name, so ``||tracker.example^`` rules catch requests to
    first-party aliases.  Attribution keys (domain/hostname) stay on the
    *observed* host — the measurement reports what the browser saw.
    """

    def __init__(
        self,
        oracle: FilterListOracle | None = None,
        *,
        propagate_ancestry: bool = True,
        resolver: CnameResolver | None = None,
        anonymous_by_position: bool = False,
    ) -> None:
        self._oracle = oracle or FilterListOracle()
        self._propagate = propagate_ancestry
        self._resolver = resolver
        # Paper §5 limitation: "our method-level analysis does not
        # distinguish between different anonymous functions ... can be
        # addressed by using the line and column number information".
        # This flag turns that fix on.
        self._anonymous_by_position = anonymous_by_position
        # host -> (host, registrable domain): every request to one host
        # carries the same two string objects into the sift tallies, and
        # the public-suffix walk runs once per host, not once per request.
        self._hosts: dict[str, tuple[str, str | None]] = {}

    def _matching_url(self, url: str, host: str) -> str:
        """The URL used for rule matching (uncloaked when configured)."""
        if self._resolver is None:
            return url
        try:
            canonical = self._resolver.canonical_name(host)
        except DnsError:
            return url
        if canonical == host:
            return url
        return url.replace(f"//{host}", f"//{canonical}", 1)

    @property
    def oracle(self) -> FilterListOracle:
        return self._oracle

    def label_event(self, event: RequestWillBeSent) -> AnalyzedRequest | None:
        """Label one event; ``None`` when it is excluded from analysis."""
        if not event.script_initiated:
            return None
        prepared = self._prepare(event)
        if prepared is None:
            return None
        _, host, domain, resource_type, match_url = prepared
        labeled = self._oracle.label_request(
            match_url,
            resource_type=resource_type,
            page_url=event.top_level_url,
        )
        return self._finish(event, host, domain, labeled)

    def _prepare(
        self, event: RequestWillBeSent
    ) -> tuple[RequestWillBeSent, str, str, ResourceType, str] | None:
        """Everything about an event that must be known *before* the
        oracle is consulted; ``None`` when the event is unparseable."""
        try:
            host = hostname(event.url)
        except URLError:
            return None
        keys = self._hosts.get(host)
        if keys is None:
            keys = self._hosts[host] = (host, registrable_domain(host))
        host, domain = keys
        if domain is None:
            # IP literals / bare public suffixes have no eTLD+1; the paper's
            # domain granularity cannot hold them.
            return None
        resource_type = _resource_type(event.resource_type)
        match_url = self._matching_url(event.url, host)
        return (event, host, domain, resource_type, match_url)

    def _finish(
        self,
        event: RequestWillBeSent,
        host: str,
        domain: str,
        labeled,
    ) -> AnalyzedRequest:
        """Assemble the analyzed request from an oracle verdict."""
        stack: CallStack = event.call_stack  # type: ignore[assignment]
        ancestry = stack.scripts() if self._propagate else (stack.initiator_script,)
        frames = tuple((f.url, f.function_name) for f in stack.flattened())
        method = stack.initiator_method
        if self._anonymous_by_position and method in ("", "anonymous"):
            initiator = stack.initiator
            method = (
                f"anonymous@L{initiator.line_number}:C{initiator.column_number}"
            )
        return AnalyzedRequest(
            url=event.url,
            label=labeled.label,
            domain=domain,
            hostname=host,
            script=stack.initiator_script,
            method=method,
            page=event.top_level_url,
            resource_type=event.resource_type,
            ancestry=ancestry,
            frames=frames,
            matched_rule=labeled.matched_rule,
            matched_list=labeled.matched_list,
        )

    def iter_labeled(
        self,
        events: Iterable[RequestWillBeSent],
        *,
        counters: LabeledCrawl,
        batch_size: int = 256,
    ) -> Iterator[AnalyzedRequest]:
        """Label an event stream, yielding each analyzed request.

        Exclusion tallies and the participation index accumulate into
        ``counters`` (its ``requests`` list is *not* appended to — the
        caller decides whether to retain requests at all).  This is the
        streaming engine's entry point: one pass, nothing but the current
        chunk materialized.

        Oracle consultations drain through
        :meth:`FilterListOracle.label_request_many` in chunks of
        ``batch_size``, amortizing decision-cache lock rounds across the
        chunk.  Events are prepared, decided, and yielded strictly in
        stream order, and the batch path's cache accounting is exactly
        the sequential loop's, so labels, attribution, and the
        ``label_cache_hits``/``misses`` pipeline notes are byte-identical
        to per-event labeling.
        """
        chunk: list[tuple[RequestWillBeSent, str, str, ResourceType, str]] = []
        for event in events:
            if not event.script_initiated:
                counters.excluded_non_script += 1
                continue
            prepared = self._prepare(event)
            if prepared is None:
                counters.excluded_unparseable += 1
                continue
            chunk.append(prepared)
            if len(chunk) >= batch_size:
                yield from self._drain(chunk, counters)
                chunk = []
        if chunk:
            yield from self._drain(chunk, counters)

    def _drain(
        self,
        chunk: list[tuple[RequestWillBeSent, str, str, ResourceType, str]],
        counters: LabeledCrawl,
    ) -> Iterator[AnalyzedRequest]:
        """Decide one prepared chunk through the oracle's batch path and
        yield its analyzed requests, updating participation per event."""
        labeled = self._oracle.label_request_many(
            (match_url, resource_type, event.top_level_url)
            for event, _host, _domain, resource_type, match_url in chunk
        )
        for (event, host, domain, _resource_type, _match_url), verdict in zip(
            chunk, labeled
        ):
            analyzed = self._finish(event, host, domain, verdict)
            index = 0 if analyzed.is_tracking else 1
            for script in analyzed.ancestry:
                entry = counters.participation.setdefault(script, [0, 0])
                entry[index] += 1
            yield analyzed

    def label_events(
        self, events: Iterable[RequestWillBeSent]
    ) -> LabeledCrawl:
        """Label an event stream, retaining every analyzed request."""
        crawl = LabeledCrawl()
        crawl.requests.extend(self.iter_labeled(events, counters=crawl))
        return crawl

    def label_crawl(self, database: RequestDatabase) -> LabeledCrawl:
        """Label a whole crawl database."""
        return self.label_events(database.iter_requests())


def _resource_type(name: str) -> ResourceType:
    try:
        return ResourceType(name)
    except ValueError:
        return ResourceType.OTHER
