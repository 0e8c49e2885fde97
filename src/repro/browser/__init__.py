"""Instrumented-browser substrate.

Simulates the paper's Chrome + DevTools + purpose-built extension setup:
deterministic page loads over the synthetic web, ``requestWillBeSent`` /
``responseReceived`` events with full (async-aware) call stacks, blocking
policies for treatment/control experiments, and the automated breakage
grader used for Table 3.

The page-load path (:mod:`engine`, :mod:`devtools`, :mod:`callstack`)
imports with the package; the event-capture extension and the breakage
grader load on first use.
"""

from .. import _lazy
from .callstack import CallFrame, CallStack
from .devtools import RequestWillBeSent, ResponseReceived, next_request_id
from .engine import BlockingPolicy, BrowserEngine, PageLoad

__getattr__ = _lazy.lazy_exports(
    __name__,
    {
        "breakage": (
            "BreakageAnalyzer",
            "BreakageLevel",
            "BreakageReport",
            "assess_breakage",
        ),
        "extension": ("CaptureStats", "CrawlExtension", "EventSink"),
    },
)

__all__ = [
    "CallFrame",
    "CallStack",
    "RequestWillBeSent",
    "ResponseReceived",
    "next_request_id",
    "BlockingPolicy",
    "BrowserEngine",
    "PageLoad",
    "CrawlExtension",
    "CaptureStats",
    "EventSink",
    "BreakageLevel",
    "BreakageReport",
    "assess_breakage",
    "BreakageAnalyzer",
]
