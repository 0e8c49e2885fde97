"""Rendering and paper-vs-measured comparison.

Turns the table/figure data structures into the exact row/series shapes the
paper prints: ASCII tables for the terminal, CSV for post-processing, and a
side-by-side comparison against the published numbers (scaled to the crawl
size) for EXPERIMENTS.md.
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING

from .._record import FrozenRecord, set_field
from ..core.classifier import ResourceClass
from ..core.results import SiftReport
from ..webmodel.calibration import PAPER, PaperTargets
from .tables import Table1Row, Table2Row, Table3Row

if TYPE_CHECKING:  # pragma: no cover - figures loads the Figure 3-5 analyses
    from .figures import RatioHistogram

__all__ = [
    "ascii_table",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_histogram",
    "rows_to_csv",
    "PaperComparison",
    "compare_with_paper",
]


def ascii_table(headers: list[str], rows: list[list[str]]) -> str:
    """Minimal fixed-width table renderer."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "+".join("-" * (w + 2) for w in widths)
    line = f"+{line}+"

    def fmt(cells: list[str]) -> str:
        body = "|".join(f" {c:<{w}} " for c, w in zip(cells, widths))
        return f"|{body}|"

    out = [line, fmt(headers), line]
    out.extend(fmt(row) for row in rows)
    out.append(line)
    return "\n".join(out)


def _pct(value: float) -> str:
    return f"{100 * value:.0f}%"


def render_table1(rows: list[Table1Row]) -> str:
    return ascii_table(
        ["Granularity", "Tracking", "Functional", "Mixed", "Sep. Factor", "Cumulative"],
        [
            [
                r.granularity,
                f"{r.tracking:,}",
                f"{r.functional:,}",
                f"{r.mixed:,}",
                _pct(r.separation_factor),
                _pct(r.cumulative_separation),
            ]
            for r in rows
        ],
    )


def render_table2(rows: list[Table2Row]) -> str:
    return ascii_table(
        ["Granularity", "Tracking", "Functional", "Mixed", "Mixed share"],
        [
            [
                r.granularity,
                f"{r.tracking:,}",
                f"{r.functional:,}",
                f"{r.mixed:,}",
                _pct(r.mixed_share),
            ]
            for r in rows
        ],
    )


def render_table3(rows: list[Table3Row]) -> str:
    return ascii_table(
        ["Website", "Mixed Script", "Breakage", "Comment"],
        [[r.website, r.mixed_script, r.breakage, r.comment] for r in rows],
    )


def render_histogram(histogram: RatioHistogram, *, width: int = 50) -> str:
    """ASCII rendering of one Figure 3 panel."""
    peak = max((b.count for b in histogram.bins), default=1) or 1
    lines = [f"Figure 3 ({histogram.granularity}): log10(tracking/functional)"]
    for bin_ in histogram.bins:
        bar = "#" * max(0, round(bin_.count / peak * width))
        marker = {"tracking": "T", "functional": "F", "mixed": "M"}[bin_.region]
        lines.append(
            f"[{bin_.lo:+5.1f},{bin_.hi:+5.1f}) {marker} {bin_.count:>7,} {bar}"
        )
    return "\n".join(lines)


def rows_to_csv(headers: list[str], rows: list[list[str]]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


class PaperComparison(FrozenRecord):
    """Paper-reported vs measured, one metric per row."""

    __slots__ = ("metric", "paper_value", "measured_value")

    metric: str
    paper_value: float
    measured_value: float

    def __init__(
        self, metric: str, paper_value: float, measured_value: float
    ) -> None:
        set_field(self, "metric", metric)
        set_field(self, "paper_value", paper_value)
        set_field(self, "measured_value", measured_value)

    @property
    def absolute_error(self) -> float:
        return abs(self.paper_value - self.measured_value)

    def within(self, tolerance: float) -> bool:
        return self.absolute_error <= tolerance


def compare_with_paper(
    report: SiftReport, paper: PaperTargets = PAPER
) -> list[PaperComparison]:
    """Compare the shape metrics that do not depend on crawl scale.

    Separation factors, cumulative separation and mixed-entity shares are
    scale-free, so they are directly comparable to the published numbers.
    """
    comparisons: list[PaperComparison] = []
    paper_levels = {
        "domain": paper.domain,
        "hostname": paper.hostname,
        "script": paper.script,
        "method": paper.method,
    }
    paper_cumulative = paper.cumulative_separation()
    for level, measured_cum, paper_cum in zip(
        report.levels, report.cumulative_separation(), paper_cumulative
    ):
        target = paper_levels[level.granularity]
        comparisons.append(
            PaperComparison(
                metric=f"{level.granularity}: separation factor",
                paper_value=target.separation_factor,
                measured_value=level.separation_factor,
            )
        )
        comparisons.append(
            PaperComparison(
                metric=f"{level.granularity}: mixed entity share",
                paper_value=target.mixed_entity_share,
                measured_value=(
                    level.entity_count(ResourceClass.MIXED) / level.entity_count()
                    if level.entity_count()
                    else 0.0
                ),
            )
        )
        comparisons.append(
            PaperComparison(
                metric=f"{level.granularity}: cumulative separation",
                paper_value=paper_cum,
                measured_value=measured_cum,
            )
        )
    return comparisons


def render_comparison(comparisons: list[PaperComparison]) -> str:
    return ascii_table(
        ["Metric", "Paper", "Measured", "Abs. error"],
        [
            [
                c.metric,
                f"{c.paper_value:.3f}",
                f"{c.measured_value:.3f}",
                f"{c.absolute_error:.3f}",
            ]
            for c in comparisons
        ],
    )
