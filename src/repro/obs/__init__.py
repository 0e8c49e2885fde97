"""Unified observability: tracing, metrics, and the determinism ledger.

Three pillars, one shared nervous system for every execution path:

* :mod:`repro.obs.trace` — structured spans over the monotonic clock,
  nested via contextvars (thread- and asyncio-safe), exported as JSONL
  and summarized into per-stage breakdowns and a critical path
  (``trackersift trace summarize``).
* :mod:`repro.obs.metrics` — the serve stack's named numbers: thread-safe
  counters and a latency window per service, a cross-process
  shared-``Array`` board (the supervisor's), one builder for the
  ``/metrics`` blocks, and Prometheus text flattened from any metrics
  dict by :func:`~repro.obs.metrics.prometheus_from_dict`.
* :mod:`repro.obs.ledger` — the determinism fingerprint ledger: every
  stage of every execution path records a sha256 fingerprint of its
  canonical-JSON intermediate state into an ordered chain, so two paths
  that diverge are localized to the *first* differing stage instead of a
  differing final report (``trackersift ledger diff``).

Everything is stdlib-only, and everything is opt-in on the hot paths:
an engine or service without a tracer/ledger attached pays one ``None``
check per stage, never per request.  Only :mod:`~repro.obs.trace` imports
with the package; the ledger and metrics names load on first use.
"""

from .. import _lazy
from .trace import Tracer, current_tracer, span, summarize_spans

__getattr__ = _lazy.lazy_exports(
    __name__,
    {
        "ledger": (
            "Ledger",
            "LedgerEntry",
            "StreamHasher",
            "canonical_json",
            "fingerprint",
        ),
        "metrics": ("prometheus_from_dict",),
    },
)

__all__ = [
    "Ledger",
    "LedgerEntry",
    "StreamHasher",
    "canonical_json",
    "fingerprint",
    "prometheus_from_dict",
    "Tracer",
    "current_tracer",
    "span",
    "summarize_spans",
]
