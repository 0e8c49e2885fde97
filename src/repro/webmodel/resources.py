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

from enum import Enum

from .._record import FrozenRecord, Record, set_field

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


class Frame(FrozenRecord):
    """One call-stack frame: a method within a script."""

    __slots__ = ("script_url", "method")

    script_url: str
    method: str

    def __init__(self, script_url: str, method: str) -> None:
        set_field(self, "script_url", script_url)
        set_field(self, "method", method)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.script_url}@{self.method}()"


class PlannedRequest(FrozenRecord):
    """One network request the browser will issue during a page load.

    ``tracking`` is the generator's intent; the URL is synthesised so the
    filter-list oracle independently recovers the same label (validated by
    the test suite, never assumed by the pipeline).
    """

    __slots__ = ("url", "tracking", "resource_type")

    url: str
    tracking: bool
    resource_type: str

    def __init__(
        self, url: str, tracking: bool, resource_type: str = "xmlhttprequest"
    ) -> None:
        set_field(self, "url", url)
        set_field(self, "tracking", tracking)
        set_field(self, "resource_type", resource_type)


class Invocation(Record):
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
    one, and never write into ``args``.  ``requests`` is an exact-size
    tuple (a replayed invocation shares its original's); change one
    request with :meth:`replace_request`.
    """

    __slots__ = ("site", "requests", "caller_chain", "async_chain", "args", "sequence")

    site: str
    requests: tuple[PlannedRequest, ...]
    caller_chain: tuple[Frame, ...]
    async_chain: tuple[Frame, ...]
    args: dict[str, str]
    sequence: int

    def __init__(
        self,
        site: str,
        requests: tuple[PlannedRequest, ...] = (),
        caller_chain: tuple[Frame, ...] = (),
        async_chain: tuple[Frame, ...] = (),
        args: dict[str, str] | None = None,
        sequence: int = 0,
    ) -> None:
        self.site = site
        self.requests = requests
        self.caller_chain = caller_chain
        self.async_chain = async_chain
        self.args = {} if args is None else args
        self.sequence = sequence

    def replace_request(self, index: int, request: PlannedRequest) -> None:
        """Give this invocation a new ``requests`` tuple with ``request``
        at ``index``; the old tuple, which a replay may share, is kept."""
        requests = self.requests
        self.requests = (*requests[:index], request, *requests[index + 1 :])


class MethodSpec(Record):
    """A named method inside a script, with its planned invocations."""

    __slots__ = ("name", "category", "invocations", "coverage", "line", "column")

    name: str
    category: Category
    invocations: list[Invocation]
    #: Probability the crawler ever observes this method (coverage gaps are
    #: what make naive surrogate generation risky — paper §5).
    coverage: float
    #: Source position.  Anonymous functions all report the same (empty)
    #: name in stack traces; line/column is the only way to tell them
    #: apart — the paper's second stated limitation.
    line: int
    column: int

    def __init__(
        self,
        name: str,
        category: Category,
        invocations: list[Invocation] | None = None,
        coverage: float = 1.0,
        line: int = 0,
        column: int = 0,
    ) -> None:
        self.name = name
        self.category = category
        self.invocations = [] if invocations is None else invocations
        self.coverage = coverage
        self.line = line
        self.column = column

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


class ScriptSpec(Record):
    """A JavaScript resource: a URL identity plus a set of methods.

    External scripts have a real URL; inline scripts use the page URL with
    an ``#inline-N`` suffix (DevTools reports the document URL for inline
    code); bundled scripts are produced by :mod:`repro.webmodel.bundler`
    and record the originally separate sources in ``bundle_sources``.
    """

    __slots__ = ("url", "category", "kind", "methods", "sites", "bundle_sources")

    url: str
    category: Category
    kind: ScriptKind
    methods: list[MethodSpec]
    sites: list[str]
    bundle_sources: tuple[str, ...]

    def __init__(
        self,
        url: str,
        category: Category,
        kind: ScriptKind = ScriptKind.EXTERNAL,
        methods: list[MethodSpec] | None = None,
        sites: list[str] | None = None,
        bundle_sources: tuple[str, ...] = (),
    ) -> None:
        self.url = url
        self.category = category
        self.kind = kind
        self.methods = [] if methods is None else methods
        self.sites = [] if sites is None else sites
        self.bundle_sources = bundle_sources

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


class HostnameSpec(Record):
    """A hostname under some domain, with planned request volume."""

    __slots__ = ("host", "category", "tracking_requests", "functional_requests")

    host: str
    category: Category
    tracking_requests: int
    functional_requests: int

    def __init__(
        self,
        host: str,
        category: Category,
        tracking_requests: int = 0,
        functional_requests: int = 0,
    ) -> None:
        self.host = host
        self.category = category
        self.tracking_requests = tracking_requests
        self.functional_requests = functional_requests

    @property
    def total_requests(self) -> int:
        return self.tracking_requests + self.functional_requests


class DomainSpec(Record):
    """An eTLD+1 with its hostnames."""

    __slots__ = ("domain", "category", "hostnames")

    domain: str
    category: Category
    hostnames: list[HostnameSpec]

    def __init__(
        self,
        domain: str,
        category: Category,
        hostnames: list[HostnameSpec] | None = None,
    ) -> None:
        self.domain = domain
        self.category = category
        self.hostnames = [] if hostnames is None else hostnames

    def request_counts(self) -> tuple[int, int]:
        tracking = sum(h.tracking_requests for h in self.hostnames)
        functional = sum(h.functional_requests for h in self.hostnames)
        return tracking, functional

    @property
    def total_requests(self) -> int:
        t, f = self.request_counts()
        return t + f
