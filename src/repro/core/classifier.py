"""The ratio classifier — Equation 1 plus the ±2 threshold (paper §4).

At every granularity, TrackerSift computes the common-log ratio of
tracking to functional requests per resource and classifies:

* ``ratio >= +threshold``  → tracking  (100x more tracking than functional),
* ``ratio <= -threshold``  → functional,
* otherwise               → mixed, to be descended into.

The threshold defaults to the paper's 2.0; Figure 4's sensitivity analysis
sweeps it, so it is an explicit parameter here.
"""

from __future__ import annotations

from enum import Enum

from .._record import FrozenRecord, set_field
from ..logratio import DEFAULT_THRESHOLD, log_ratio

__all__ = [
    "ResourceClass",
    "ResourceCounts",
    "RatioClassifier",
    "log_ratio",
    "DEFAULT_THRESHOLD",
]


class ResourceClass(str, Enum):
    """TrackerSift's verdict for one resource at one granularity."""

    TRACKING = "tracking"
    FUNCTIONAL = "functional"
    MIXED = "mixed"


class ResourceCounts(FrozenRecord):
    """Per-resource request tallies, the classifier's only input."""

    __slots__ = ("tracking", "functional")

    tracking: int
    functional: int

    def __init__(self, tracking: int = 0, functional: int = 0) -> None:
        set_field(self, "tracking", tracking)
        set_field(self, "functional", functional)

    @property
    def total(self) -> int:
        return self.tracking + self.functional

    @property
    def ratio(self) -> float:
        return log_ratio(self.tracking, self.functional)

    def add(self, tracking: bool) -> "ResourceCounts":
        if tracking:
            return ResourceCounts(self.tracking + 1, self.functional)
        return ResourceCounts(self.tracking, self.functional + 1)


class RatioClassifier(FrozenRecord):
    """Threshold classifier over request-count ratios.

    >>> RatioClassifier().classify_counts(1000, 3)
    <ResourceClass.TRACKING: 'tracking'>
    """

    __slots__ = ("threshold",)

    threshold: float

    def __init__(self, threshold: float = DEFAULT_THRESHOLD) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        set_field(self, "threshold", threshold)

    def classify_ratio(self, ratio: float) -> ResourceClass:
        if ratio >= self.threshold:
            return ResourceClass.TRACKING
        if ratio <= -self.threshold:
            return ResourceClass.FUNCTIONAL
        return ResourceClass.MIXED

    def classify_counts(self, tracking: int, functional: int) -> ResourceClass:
        return self.classify_ratio(log_ratio(tracking, functional))

    def classify(self, counts: ResourceCounts) -> ResourceClass:
        return self.classify_counts(counts.tracking, counts.functional)

    def with_threshold(self, threshold: float) -> "RatioClassifier":
        return RatioClassifier(threshold=threshold)
