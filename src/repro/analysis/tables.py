"""Table builders: the three tables of the paper's evaluation.

* **Table 1** — requests classified at each granularity, with separation
  factor and cumulative separation factor.
* **Table 2** — unique resources classified at each granularity.
* **Table 3** — manual breakage analysis of blocking mixed scripts on a
  site sample (automated here through the functionality model).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._record import FrozenRecord, set_field
from ..browser.engine import BrowserEngine
from ..core.classifier import ResourceClass
from ..core.results import SiftReport
from ..webmodel.generator import SyntheticWeb

# Breakage grading loads where Table 3 is built: rendering Tables 1-2
# after a study never needs it.
if TYPE_CHECKING:  # pragma: no cover
    from ..browser.breakage import BreakageReport

__all__ = [
    "Table1Row",
    "Table2Row",
    "Table3Row",
    "build_table1",
    "build_table2",
    "build_table3",
]


class Table1Row(FrozenRecord):
    """One granularity's request-level row."""

    __slots__ = (
        "granularity",
        "tracking",
        "functional",
        "mixed",
        "separation_factor",
        "cumulative_separation",
    )

    granularity: str
    tracking: int
    functional: int
    mixed: int
    separation_factor: float
    cumulative_separation: float

    def __init__(
        self,
        granularity: str,
        tracking: int,
        functional: int,
        mixed: int,
        separation_factor: float,
        cumulative_separation: float,
    ) -> None:
        set_field(self, "granularity", granularity)
        set_field(self, "tracking", tracking)
        set_field(self, "functional", functional)
        set_field(self, "mixed", mixed)
        set_field(self, "separation_factor", separation_factor)
        set_field(self, "cumulative_separation", cumulative_separation)

    @property
    def total(self) -> int:
        return self.tracking + self.functional + self.mixed


class Table2Row(FrozenRecord):
    """One granularity's resource-level row."""

    __slots__ = (
        "granularity",
        "tracking",
        "functional",
        "mixed",
        "separation_factor",
    )

    granularity: str
    tracking: int
    functional: int
    mixed: int
    separation_factor: float

    def __init__(
        self,
        granularity: str,
        tracking: int,
        functional: int,
        mixed: int,
        separation_factor: float,
    ) -> None:
        set_field(self, "granularity", granularity)
        set_field(self, "tracking", tracking)
        set_field(self, "functional", functional)
        set_field(self, "mixed", mixed)
        set_field(self, "separation_factor", separation_factor)

    @property
    def total(self) -> int:
        return self.tracking + self.functional + self.mixed

    @property
    def mixed_share(self) -> float:
        return self.mixed / self.total if self.total else 0.0


class Table3Row(FrozenRecord):
    """One website's breakage outcome."""

    __slots__ = ("website", "mixed_script", "breakage", "comment")

    website: str
    mixed_script: str
    breakage: str
    comment: str

    def __init__(
        self, website: str, mixed_script: str, breakage: str, comment: str
    ) -> None:
        set_field(self, "website", website)
        set_field(self, "mixed_script", mixed_script)
        set_field(self, "breakage", breakage)
        set_field(self, "comment", comment)


def build_table1(report: SiftReport) -> list[Table1Row]:
    rows: list[Table1Row] = []
    for level, cumulative in zip(report.levels, report.cumulative_separation()):
        rows.append(
            Table1Row(
                granularity=level.granularity,
                tracking=level.request_count(ResourceClass.TRACKING),
                functional=level.request_count(ResourceClass.FUNCTIONAL),
                mixed=level.request_count(ResourceClass.MIXED),
                separation_factor=level.separation_factor,
                cumulative_separation=cumulative,
            )
        )
    return rows


def build_table2(report: SiftReport) -> list[Table2Row]:
    rows: list[Table2Row] = []
    for level in report.levels:
        # Table 2's separation factor is over *requests*, same as Table 1 —
        # the entity counts are what changes between the tables.
        rows.append(
            Table2Row(
                granularity=level.granularity,
                tracking=level.entity_count(ResourceClass.TRACKING),
                functional=level.entity_count(ResourceClass.FUNCTIONAL),
                mixed=level.entity_count(ResourceClass.MIXED),
                separation_factor=_entity_separation(level),
            )
        )
    return rows


def _entity_separation(level) -> float:
    """Share of the level's *resources* that are pure (Table 2's factor)."""
    total = level.entity_count()
    if total == 0:
        return 0.0
    return (
        level.entity_count(ResourceClass.TRACKING)
        + level.entity_count(ResourceClass.FUNCTIONAL)
    ) / total


def build_table3(
    web: SyntheticWeb,
    report: SiftReport,
    *,
    sample_size: int = 10,
    seed: int = 2021,
    engine: BrowserEngine | None = None,
) -> list[Table3Row]:
    """Block the classified-mixed scripts on a random site sample.

    Sites are eligible when they host at least one script the sift
    classified as mixed (the paper's random sample is implicitly
    conditioned the same way — each row names the site's mixed script).
    """
    import random

    from ..browser.breakage import assess_breakage

    engine = engine or BrowserEngine()
    mixed_script_urls = {
        result.key
        for result in report.script.by_class(ResourceClass.MIXED)
    }
    eligible = [
        site
        for site in web.websites
        if any(script.url in mixed_script_urls for script in site.scripts)
    ]
    rng = random.Random(seed)
    sample = rng.sample(eligible, min(sample_size, len(eligible)))
    rows: list[Table3Row] = []
    for site in sample:
        blocked = frozenset(
            script.url
            for script in site.scripts
            if script.url in mixed_script_urls
        )
        outcome: BreakageReport = assess_breakage(site, blocked, engine=engine)
        script_names = ", ".join(sorted(url.rsplit("/", 1)[-1] for url in blocked))
        rows.append(
            Table3Row(
                website=site.url,
                mixed_script=script_names,
                breakage=outcome.level.value.capitalize(),
                comment=outcome.comment,
            )
        )
    return rows
