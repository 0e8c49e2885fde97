"""Entity models for the synthetic web population.

The generator plans the crawl *structurally*: every website, script, method
and network request is decided ahead of time (seeded and deterministic), and
the simulated browser then replays the plan, emitting DevTools-style events.
The TrackerSift pipeline never sees these plans — it re-derives everything
from the event log plus the filter-list oracle, which is what makes the
reproduction a real measurement rather than a tautology.

Category semantics (generator *intent*, not pipeline output):

* ``TRACKING`` entities serve/initiate (almost) exclusively tracking
  requests — their log-ratio lands in ``[2, inf]``.
* ``FUNCTIONAL`` entities the mirror image, ratio in ``[-inf, -2]``.
* ``MIXED`` entities carry both behaviours with ratio inside ``(-2, 2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "Category",
    "Frame",
    "PlannedRequest",
    "Invocation",
    "MethodSpec",
    "ScriptKind",
    "ScriptSpec",
    "HostnameSpec",
    "DomainSpec",
]


class Category(str, Enum):
    """Generator intent for an entity at any granularity."""

    TRACKING = "tracking"
    FUNCTIONAL = "functional"
    MIXED = "mixed"


@dataclass(frozen=True, slots=True)
class Frame:
    """One call-stack frame: a method within a script."""

    script_url: str
    method: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.script_url}@{self.method}()"


@dataclass(frozen=True, slots=True)
class PlannedRequest:
    """One network request the browser will issue during a page load.

    ``tracking`` is the generator's intent; the URL is synthesised so the
    filter-list oracle independently recovers the same label (validated by
    the test suite, never assumed by the pipeline).
    """

    url: str
    tracking: bool
    resource_type: str = "xmlhttprequest"


@dataclass(slots=True)
class Invocation:
    """One invocation of a method on a concrete page.

    ``caller_chain`` lists the frames *above* the initiator frame, nearest
    caller first (DevTools order).  ``async_chain`` is the stack that
    preceded an asynchronous hop; per the paper it is *prepended* to the
    stack of the request.  ``args`` model the invocation context used by the
    guard-inference extension (paper §5, "Blocking mixed scripts").

    ``caller_chain``, ``async_chain`` and ``args`` are shared within one
    generated web: equal chains (async halves included), equal frames
    inside them and equal ``(event, dest)`` contexts are each one object.
    Treat them as read-only: assign a new tuple or a new dict to change
    one, and never write into ``args``.
    """

    site: str
    requests: list[PlannedRequest] = field(default_factory=list)
    caller_chain: tuple[Frame, ...] = ()
    async_chain: tuple[Frame, ...] = ()
    args: dict[str, str] = field(default_factory=dict)
    sequence: int = 0


@dataclass(slots=True)
class MethodSpec:
    """A named method inside a script, with its planned invocations."""

    name: str
    category: Category
    invocations: list[Invocation] = field(default_factory=list)
    #: Probability the crawler ever observes this method (coverage gaps are
    #: what make naive surrogate generation risky — paper §5).
    coverage: float = 1.0
    #: Source position.  Anonymous functions all report the same (empty)
    #: name in stack traces; line/column is the only way to tell them
    #: apart — the paper's second stated limitation.
    line: int = 0
    column: int = 0

    @property
    def planned_requests(self) -> list[PlannedRequest]:
        return [r for inv in self.invocations for r in inv.requests]

    def request_counts(self) -> tuple[int, int]:
        """(tracking, functional) counts across all invocations."""
        tracking = functional = 0
        for request in self.planned_requests:
            if request.tracking:
                tracking += 1
            else:
                functional += 1
        return tracking, functional


class ScriptKind(str, Enum):
    """How the script is delivered — the circumvention axis of paper §5."""

    EXTERNAL = "external"
    INLINE = "inline"
    BUNDLED = "bundled"


@dataclass(slots=True)
class ScriptSpec:
    """A JavaScript resource: a URL identity plus a set of methods.

    External scripts have a real URL; inline scripts use the page URL with
    an ``#inline-N`` suffix (DevTools reports the document URL for inline
    code); bundled scripts are produced by :mod:`repro.webmodel.bundler`
    and record the originally separate sources in ``bundle_sources``.
    """

    url: str
    category: Category
    kind: ScriptKind = ScriptKind.EXTERNAL
    methods: list[MethodSpec] = field(default_factory=list)
    sites: list[str] = field(default_factory=list)
    bundle_sources: tuple[str, ...] = ()

    def method(self, name: str) -> MethodSpec:
        for method in self.methods:
            if method.name == name:
                return method
        raise KeyError(f"{self.url} has no method {name!r}")

    def request_counts(self) -> tuple[int, int]:
        tracking = functional = 0
        for method in self.methods:
            t, f = method.request_counts()
            tracking += t
            functional += f
        return tracking, functional


@dataclass(slots=True)
class HostnameSpec:
    """A hostname under some domain, with planned request volume."""

    host: str
    category: Category
    tracking_requests: int = 0
    functional_requests: int = 0

    @property
    def total_requests(self) -> int:
        return self.tracking_requests + self.functional_requests


@dataclass(slots=True)
class DomainSpec:
    """An eTLD+1 with its hostnames."""

    domain: str
    category: Category
    hostnames: list[HostnameSpec] = field(default_factory=list)

    def request_counts(self) -> tuple[int, int]:
        tracking = sum(h.tracking_requests for h in self.hostnames)
        functional = sum(h.functional_requests for h in self.hostnames)
        return tracking, functional

    @property
    def total_requests(self) -> int:
        t, f = self.request_counts()
        return t + f
