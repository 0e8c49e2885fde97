"""The hierarchical sifter — TrackerSift's progressive classification.

Section 2 of the paper, in code:

1. **Domain** — every labeled script-initiated request is attributed to its
   eTLD+1; each domain's tracking/functional tallies are classified.
2. **Hostname** — requests belonging to *mixed* domains are re-attributed
   to their full hostname and classified again.
3. **Script** — requests belonging to mixed hostnames are attributed to the
   initiator script from the call stack.
4. **Method** — requests belonging to mixed scripts are attributed to the
   initiator method (scoped to its script).

Requests attributed to a pure resource are "set aside" at that level; only
the mixed remainder descends, which is what makes the separation factors of
Table 1 cumulative.

Two refinements over a naive implementation:

* The sift is computed over **grouped tallies** rather than raw request
  lists: every request is reduced to its attribution key (domain, hostname,
  script, script-scoped method) plus its label, and identical keys are
  merged.  :meth:`HierarchicalSifter.sift_maps` is the single
  implementation both the batch path and the streaming engine
  (:mod:`repro.core.engine`) share, so the two can never drift — and the
  memory footprint is bounded by the number of *distinct* attribution
  tuples, not the number of requests.  It sifts one tally map per shard
  where it lies, as if merged, without building the merged copy.
* The **descent policy is separable from the report classifier**.  The
  report classifier decides the class each resource is *published* with;
  the descent classifier decides which requests flow down to the next
  granularity.  When comparing reports across thresholds (Figure 4, the
  separation-factor monotonicity property) the descent must be held fixed,
  otherwise each threshold classifies a *different* request population at
  every level below the first and the per-level separation factors are not
  comparable — the subtlety :mod:`repro.core.sensitivity` documents.
  :func:`sift_requests` therefore descends by the paper's canonical ±2
  band regardless of the report threshold; :class:`HierarchicalSifter`
  keeps descent coupled to the report classifier unless told otherwise.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Mapping, Sequence

from ..labeling.labeler import AnalyzedRequest
from .classifier import RatioClassifier, ResourceClass, ResourceCounts
from .results import LevelReport, ResourceResult, SiftReport

__all__ = [
    "AttributionKey",
    "HierarchicalSifter",
    "attribution_key",
    "sift_requests",
]

_KeyFunc = Callable[[AnalyzedRequest], str]

#: One request's identity at every granularity at once:
#: ``(domain, hostname, script, method)``.  The method component is the raw
#: method name; it is scoped to its script on demand (see ``_LEVEL_KEYS``).
AttributionKey = tuple[str, str, str, str]


def attribution_key(request: AnalyzedRequest) -> AttributionKey:
    """Reduce a request to the four keys the hierarchy attributes it by."""
    return (request.domain, request.hostname, request.script, request.method)


def _method_key(request: AnalyzedRequest) -> str:
    # Methods are scoped to their script: `m2` in clone.js is a different
    # resource from `m2` in app.js.
    return f"{request.script}@{request.method}"


_LEVELS: tuple[tuple[str, _KeyFunc], ...] = (
    ("domain", lambda r: r.domain),
    ("hostname", lambda r: r.hostname),
    ("script", lambda r: r.script),
    ("method", _method_key),
)

#: Level key derived from an :data:`AttributionKey`, mirroring ``_LEVELS``.
_LEVEL_KEYS: tuple[tuple[str, Callable[[AttributionKey], str]], ...] = (
    ("domain", lambda k: k[0]),
    ("hostname", lambda k: k[1]),
    ("script", lambda k: k[2]),
    ("method", lambda k: f"{k[2]}@{k[3]}"),
)


class HierarchicalSifter:
    """Runs the four-level progressive classification.

    The classifier (and its threshold) is injectable for the Figure 4
    sensitivity sweep and the ablation benchmarks.  ``descent_classifier``
    optionally decouples which resources are *descended into* from how they
    are *reported*: by default both use ``classifier`` (the paper's single
    ±2 hierarchy), while threshold-comparison analyses pin the descent so
    every threshold classifies the same population at each level.
    """

    def __init__(
        self,
        classifier: RatioClassifier | None = None,
        *,
        descent_classifier: RatioClassifier | None = None,
    ) -> None:
        self._classifier = classifier or RatioClassifier()
        self._descent = descent_classifier or self._classifier

    @property
    def classifier(self) -> RatioClassifier:
        return self._classifier

    @property
    def descent_classifier(self) -> RatioClassifier:
        return self._descent

    def classify_level(
        self,
        granularity: str,
        requests: Iterable[AnalyzedRequest],
        key_func: _KeyFunc,
    ) -> LevelReport:
        """Group requests by ``key_func`` and classify every group."""
        tallies: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for request in requests:
            entry = tallies[key_func(request)]
            entry[0 if request.is_tracking else 1] += 1
        return self._build_level(granularity, tallies)

    def _build_level(
        self, granularity: str, tallies: Mapping[str, list[int]]
    ) -> LevelReport:
        report = LevelReport(granularity=granularity)
        for key, (tracking, functional) in tallies.items():
            counts = ResourceCounts(tracking=tracking, functional=functional)
            report.resources[key] = ResourceResult(
                key=key,
                counts=counts,
                resource_class=self._classifier.classify(counts),
            )
        return report

    def sift(self, requests: list[AnalyzedRequest]) -> SiftReport:
        """Run all four levels, descending only through mixed resources."""
        groups: dict[AttributionKey, list[int]] = defaultdict(lambda: [0, 0])
        for request in requests:
            groups[attribution_key(request)][0 if request.is_tracking else 1] += 1
        return self.sift_grouped(groups, total_requests=len(requests))

    def sift_grouped(
        self,
        groups: Mapping[AttributionKey, Iterable[int]],
        total_requests: int,
    ) -> SiftReport:
        """Sift pre-grouped ``(tracking, functional)`` tallies.

        ``groups`` maps each distinct :data:`AttributionKey` to its request
        tallies.  This produces exactly the report :meth:`sift` would for a
        request list with the same tallies — it *is* the implementation
        :meth:`sift` delegates to, through :meth:`sift_maps`, which the
        streaming engine's shard accumulators sift their maps with.
        """
        return self.sift_maps((groups,), total_requests)

    def sift_maps(
        self,
        maps: Sequence[Mapping[AttributionKey, Iterable[int]]],
        total_requests: int,
    ) -> SiftReport:
        """Sift the sum of several tally maps without merging them.

        A key present in several maps counts once, with its tallies
        summed: the report equals :meth:`sift_grouped` over the merged
        map, resource order included.  Each level streams over the maps
        again and keeps only per-level tallies, so no copy of the keys or
        of their counts is built.
        """
        report = SiftReport(total_requests=total_requests)
        # (level key, mixed level keys) of every level already sifted: a
        # key descends to the next level only if all of them are mixed.
        descended: list[tuple[Callable[[AttributionKey], str], set[str]]] = []
        for granularity, level_key in _LEVEL_KEYS:
            tallies: dict[str, list[int]] = defaultdict(lambda: [0, 0])
            for groups in maps:
                for key, (tracking, functional) in groups.items():
                    if descended and not all(
                        prior(key) in mixed for prior, mixed in descended
                    ):
                        continue
                    entry = tallies[level_key(key)]
                    entry[0] += tracking
                    entry[1] += functional
            report.levels.append(self._build_level(granularity, tallies))
            # Descend by the descent classifier, which the report classes
            # above may deliberately differ from (threshold comparisons).
            mixed = {
                key
                for key, (tracking, functional) in tallies.items()
                if self._descent.classify_counts(tracking, functional)
                is ResourceClass.MIXED
            }
            if not mixed:
                break
            descended.append((level_key, mixed))
        return report

    def sift_flat(
        self, requests: list[AnalyzedRequest], granularity: str
    ) -> LevelReport:
        """Ablation: classify *all* requests at a single granularity.

        This is what a non-hierarchical tool would do — e.g. classifying
        every request by initiator script without first peeling off pure
        domains/hostnames.  Compared against the hierarchy in
        ``benchmarks/bench_ablation_hierarchy.py``.
        """
        for name, key_func in _LEVELS:
            if name == granularity:
                return self.classify_level(name, requests, key_func)
        raise KeyError(granularity)


def sift_requests(
    requests: list[AnalyzedRequest], threshold: float = 2.0
) -> SiftReport:
    """Convenience sift reporting at ``threshold``.

    The *descent* is always the paper's canonical ±2 band
    (:data:`~repro.logratio.DEFAULT_THRESHOLD`), independent of the report
    threshold.  This is what makes per-level separation factors comparable
    — and provably monotone — across thresholds: every threshold
    classifies the *same* request population at every level, so widening
    the mixed band can only shrink each level's pure share.  Descending by
    the report threshold instead would let a looser threshold push extra
    requests downward, where a one-sided method can be pure at *any*
    threshold and lift a deeper level's separation factor above the
    tighter run's (the seed regression
    ``test_separation_factor_decreases_with_threshold`` guards this).
    """
    return HierarchicalSifter(
        RatioClassifier(threshold=threshold),
        descent_classifier=RatioClassifier(),
    ).sift(requests)
