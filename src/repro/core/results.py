"""Result containers for the hierarchical sift.

A :class:`LevelReport` holds, for one granularity, every resource's request
counts, its class, and the request totals per class — everything Tables 1-2
and Figure 3 need.  A :class:`SiftReport` chains the four levels together
and carries the cumulative separation factors (the 54% → 65% → 94% → 98%
sequence of Table 1).
"""

from __future__ import annotations

from .._record import FrozenRecord, Record, set_field
from .classifier import ResourceClass, ResourceCounts

__all__ = ["Granularity", "ResourceResult", "LevelReport", "SiftReport"]

#: Granularity order, coarse to fine (the paper's Figure 1 arrow).
Granularity = str
GRANULARITIES: tuple[Granularity, ...] = ("domain", "hostname", "script", "method")


class ResourceResult(FrozenRecord):
    """One resource's outcome at one granularity."""

    __slots__ = ("key", "counts", "resource_class")

    key: str
    counts: ResourceCounts
    resource_class: ResourceClass

    def __init__(
        self, key: str, counts: ResourceCounts, resource_class: ResourceClass
    ) -> None:
        set_field(self, "key", key)
        set_field(self, "counts", counts)
        set_field(self, "resource_class", resource_class)

    @property
    def ratio(self) -> float:
        return self.counts.ratio


class LevelReport(Record):
    """Classification outcome for one granularity level."""

    __slots__ = ("granularity", "resources")

    granularity: Granularity
    resources: dict[str, ResourceResult]

    def __init__(
        self,
        granularity: Granularity,
        resources: dict[str, ResourceResult] | None = None,
    ) -> None:
        if granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {granularity!r}")
        self.granularity = granularity
        self.resources = {} if resources is None else resources

    # -- entity-side views -----------------------------------------------
    def by_class(self, resource_class: ResourceClass) -> list[ResourceResult]:
        return [
            r for r in self.resources.values() if r.resource_class is resource_class
        ]

    def entity_count(self, resource_class: ResourceClass | None = None) -> int:
        if resource_class is None:
            return len(self.resources)
        return len(self.by_class(resource_class))

    def mixed_keys(self) -> set[str]:
        return {
            key
            for key, result in self.resources.items()
            if result.resource_class is ResourceClass.MIXED
        }

    def ratios(self) -> list[float]:
        """Per-entity log ratios (Figure 3's histogram input)."""
        return [r.ratio for r in self.resources.values()]

    # -- request-side views -----------------------------------------------
    def request_count(self, resource_class: ResourceClass | None = None) -> int:
        if resource_class is None:
            return sum(r.counts.total for r in self.resources.values())
        return sum(r.counts.total for r in self.by_class(resource_class))

    @property
    def separation_factor(self) -> float:
        """Share of this level's requests attributed to pure resources."""
        total = self.request_count()
        if total == 0:
            return 0.0
        pure = self.request_count(ResourceClass.TRACKING) + self.request_count(
            ResourceClass.FUNCTIONAL
        )
        return pure / total

    def summary_row(self) -> dict:
        """One Table 1 row (requests) and Table 2 row (entities) combined."""
        return {
            "granularity": self.granularity,
            "requests_tracking": self.request_count(ResourceClass.TRACKING),
            "requests_functional": self.request_count(ResourceClass.FUNCTIONAL),
            "requests_mixed": self.request_count(ResourceClass.MIXED),
            "entities_tracking": self.entity_count(ResourceClass.TRACKING),
            "entities_functional": self.entity_count(ResourceClass.FUNCTIONAL),
            "entities_mixed": self.entity_count(ResourceClass.MIXED),
            "separation_factor": self.separation_factor,
        }


class SiftReport(Record):
    """The chained four-level outcome of a hierarchical sift."""

    __slots__ = ("levels", "total_requests")

    levels: list[LevelReport]
    total_requests: int

    def __init__(
        self, levels: list[LevelReport] | None = None, total_requests: int = 0
    ) -> None:
        self.levels = [] if levels is None else levels
        self.total_requests = total_requests

    def level(self, granularity: Granularity) -> LevelReport:
        for level in self.levels:
            if level.granularity == granularity:
                return level
        raise KeyError(granularity)

    @property
    def domain(self) -> LevelReport:
        return self.level("domain")

    @property
    def hostname(self) -> LevelReport:
        return self.level("hostname")

    @property
    def script(self) -> LevelReport:
        return self.level("script")

    @property
    def method(self) -> LevelReport:
        return self.level("method")

    def cumulative_separation(self) -> list[float]:
        """Cumulative separation factor after each level.

        Defined over the total request population: after level *k*, the
        share of all requests attributed to a pure resource at some level
        ``<= k``.
        """
        if self.total_requests == 0:
            return [0.0] * len(self.levels)
        attributed = 0
        out: list[float] = []
        for level in self.levels:
            attributed += level.request_count(
                ResourceClass.TRACKING
            ) + level.request_count(ResourceClass.FUNCTIONAL)
            out.append(attributed / self.total_requests)
        return out

    @property
    def final_separation(self) -> float:
        """The headline number: 98% in the paper."""
        cumulative = self.cumulative_separation()
        return cumulative[-1] if cumulative else 0.0

    @property
    def unattributed_requests(self) -> int:
        """Requests still mixed after the finest level (<2% in the paper)."""
        if not self.levels:
            return 0
        return self.levels[-1].request_count(ResourceClass.MIXED)

    def summary(self) -> list[dict]:
        rows = []
        for level, cumulative in zip(self.levels, self.cumulative_separation()):
            row = level.summary_row()
            row["cumulative_separation"] = cumulative
            rows.append(row)
        return rows
