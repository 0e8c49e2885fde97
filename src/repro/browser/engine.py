"""Simulated browser: deterministic page loads over the synthetic web.

The engine plays the role of Chrome in the paper's infrastructure: given a
:class:`~repro.webmodel.website.Website`, it "loads" the page — executing
every script method invocation the generator planned — and emits
DevTools-style events.  It also accepts a :class:`BlockingPolicy`, which is
how the breakage analysis (Table 3), surrogate scripts and guards (§5) are
evaluated: the policy suppresses scripts, methods or individual invocations
and the engine reports what broke.

Determinism: an engine seed fixes which low-coverage methods are observed,
so a crawl is reproducible, while *different* engine seeds model the
coverage gaps of dynamic analysis the paper warns about.
"""

from __future__ import annotations

import random
from typing import Callable

from .._record import FrozenRecord, Record, set_field
from ..stablehash import stable_hash
from ..webmodel.resources import Invocation, MethodSpec, ScriptSpec
from ..webmodel.website import Website
from .callstack import CallStack
from .devtools import RequestWillBeSent, ResponseReceived, next_request_id

__all__ = ["BlockingPolicy", "PageLoad", "BrowserEngine"]

#: A guard predicate: (script_url, method_name, invocation args) -> block?
GuardPredicate = Callable[[str, str, dict[str, str]], bool]

_PAGE_LOAD_SECONDS = 10.0  # average page-load time reported in §3
_POST_LOAD_WAIT_SECONDS = 10.0  # crawler waits 10 extra seconds


class BlockingPolicy(FrozenRecord):
    """What a content blocker removes during a page load.

    ``blocked_scripts`` models script-level filter rules; ``removed_methods``
    models a surrogate script with tracking methods stripped;
    ``guards`` models runtime predicates that veto individual invocations
    of a mixed method (paper §5, "Blocking mixed methods").
    """

    __slots__ = ("blocked_scripts", "removed_methods", "guards")

    blocked_scripts: frozenset[str]
    removed_methods: frozenset[tuple[str, str]]
    guards: tuple[tuple[str, str, GuardPredicate], ...]

    def __init__(
        self,
        blocked_scripts: frozenset[str] = frozenset(),
        removed_methods: frozenset[tuple[str, str]] = frozenset(),
        guards: tuple[tuple[str, str, GuardPredicate], ...] = (),
    ) -> None:
        set_field(self, "blocked_scripts", blocked_scripts)
        set_field(self, "removed_methods", removed_methods)
        set_field(self, "guards", guards)

    @classmethod
    def none(cls) -> "BlockingPolicy":
        return cls()

    def blocks_invocation(
        self, script_url: str, method: str, args: dict[str, str]
    ) -> bool:
        if script_url in self.blocked_scripts:
            return True
        if (script_url, method) in self.removed_methods:
            return True
        for guard_script, guard_method, predicate in self.guards:
            if guard_script == script_url and guard_method == method:
                if predicate(script_url, method, args):
                    return True
        return False


class PageLoad(Record):
    """Everything one crawl of one landing page produced."""

    __slots__ = (
        "website",
        "requests",
        "responses",
        "blocked_invocations",
        "functionality",
        "load_time",
    )

    website: Website
    requests: list[RequestWillBeSent]
    responses: list[ResponseReceived]
    #: invocations suppressed by the blocking policy, for experiment audits.
    blocked_invocations: list[tuple[str, str]]
    #: feature name -> works?, under the applied policy.
    functionality: dict[str, bool]
    load_time: float

    def __init__(
        self,
        website: Website,
        requests: list[RequestWillBeSent] | None = None,
        responses: list[ResponseReceived] | None = None,
        blocked_invocations: list[tuple[str, str]] | None = None,
        functionality: dict[str, bool] | None = None,
        load_time: float = _PAGE_LOAD_SECONDS,
    ) -> None:
        self.website = website
        self.requests = [] if requests is None else requests
        self.responses = [] if responses is None else responses
        self.blocked_invocations = (
            [] if blocked_invocations is None else blocked_invocations
        )
        self.functionality = {} if functionality is None else functionality
        self.load_time = load_time

    @property
    def script_initiated_requests(self) -> list[RequestWillBeSent]:
        return [r for r in self.requests if r.script_initiated]

    def broken_features(self) -> list[str]:
        return [name for name, works in self.functionality.items() if not works]


class BrowserEngine:
    """Deterministic page-load simulator with DevTools instrumentation.

    ``forced_execution`` models a forced-execution framework (the paper's
    §5 limitation cites J-Force): every planned method invocation runs
    regardless of its dynamic coverage, eliminating the observation gaps
    that make naive surrogate generation risky.
    """

    def __init__(self, seed: int = 1729, *, forced_execution: bool = False) -> None:
        self._seed = seed
        self._forced = forced_execution
        self._clock = 0.0

    def _coverage_rng(self, site_url: str, script_url: str, method: str) -> random.Random:
        # stable_hash, not hash(): coverage observations must be identical
        # across processes or a checkpointed crawl resumed after a restart
        # would see different page behaviour than the shards already done.
        return random.Random(
            stable_hash(self._seed, site_url, script_url, method)
        )

    def load(
        self, website: Website, policy: BlockingPolicy | None = None
    ) -> PageLoad:
        """Load one landing page and return the captured events.

        The crawl is *stateless*: nothing persists between loads (the paper
        clears cookies and local state between consecutive crawls), so every
        call starts from the same planned behaviour.
        """
        policy = policy or BlockingPolicy.none()
        page = PageLoad(website=website)
        timestamp = self._clock
        self._clock += _PAGE_LOAD_SECONDS + _POST_LOAD_WAIT_SECONDS

        # Parser-initiated fetches: the document and each external script.
        # These carry no call stack, and §3 excludes them from analysis —
        # keeping them in the event stream exercises that exclusion.
        page.requests.append(
            self._emit(website.url, website, timestamp, "document", None, page)
        )
        ordered_invocations: list[tuple[ScriptSpec, MethodSpec, Invocation]] = []
        for script in website.scripts:
            if script.kind.value == "external":
                page.requests.append(
                    self._emit(
                        script.url, website, timestamp, "script", None, page
                    )
                )
            for method in script.methods:
                rng = self._coverage_rng(website.url, script.url, method.name)
                for invocation in method.invocations:
                    if invocation.site != website.url:
                        continue
                    observed = self._forced or (
                        method.coverage >= 1.0 or rng.random() <= method.coverage
                    )
                    if not observed:
                        continue  # dynamic analysis never observed this path
                    ordered_invocations.append((script, method, invocation))

        ordered_invocations.sort(key=lambda item: item[2].sequence)
        step = _PAGE_LOAD_SECONDS / (len(ordered_invocations) + 1)
        for index, (script, method, invocation) in enumerate(ordered_invocations):
            if policy.blocks_invocation(script.url, method.name, invocation.args):
                page.blocked_invocations.append((script.url, method.name))
                continue
            stack = self._build_stack(script, method, invocation)
            at = timestamp + step * (index + 1)
            for planned in invocation.requests:
                event = self._emit(
                    planned.url,
                    website,
                    at,
                    planned.resource_type,
                    stack,
                    page,
                )
                page.requests.append(event)

        page.functionality = website.functionality_status(
            blocked_scripts=policy.blocked_scripts,
            removed_methods=policy.removed_methods,
        )
        return page

    def _build_stack(
        self, script: ScriptSpec, method: MethodSpec, invocation: Invocation
    ) -> CallStack:
        from ..webmodel.resources import Frame

        frames = (Frame(script.url, method.name),) + tuple(invocation.caller_chain)
        stack = CallStack.from_frames(frames, invocation.async_chain)
        if method.line or method.column:
            # DevTools reports source positions; anonymous functions are
            # only distinguishable through them.
            from .callstack import CallFrame

            top = CallFrame(
                url=script.url,
                function_name=method.name,
                line_number=method.line,
                column_number=method.column,
            )
            stack = CallStack(
                frames=(top,) + stack.frames[1:], parent=stack.parent
            )
        return stack

    def _emit(
        self,
        url: str,
        website: Website,
        timestamp: float,
        resource_type: str,
        stack: CallStack | None,
        page: PageLoad,
    ) -> RequestWillBeSent:
        request_id = next_request_id()
        event = RequestWillBeSent(
            request_id=request_id,
            url=url,
            top_level_url=website.url,
            frame_url=website.url,
            resource_type=resource_type,
            timestamp=timestamp,
            call_stack=stack,
            headers={"User-Agent": "ReproChrome/79.0.3945.79"},
        )
        page.responses.append(
            ResponseReceived(
                request_id=request_id,
                url=url,
                status=200,
                mime_type=_mime_for(resource_type),
                timestamp=timestamp + 0.05,
                headers={"Server": "synthetic-web"},
                body_size=512,
            )
        )
        return event


def _mime_for(resource_type: str) -> str:
    return {
        "document": "text/html",
        "script": "application/javascript",
        "stylesheet": "text/css",
        "image": "image/png",
        "font": "font/woff2",
        "media": "video/mp4",
        "xmlhttprequest": "application/json",
        "ping": "text/plain",
    }.get(resource_type, "application/octet-stream")
