"""Measurement analysis: table/figure builders, bootstrap confidence
intervals, and rendering.

Every name imports from its submodule on first use (``repro/_lazy.py``):
rendering Tables 1-2 after a study loads ``tables`` and ``report`` only,
not the Figure 3-5 analyses, the bootstrap or breakage grading.
"""

from .. import _lazy

__getattr__ = _lazy.lazy_exports(
    __name__,
    {
        "confidence": (
            "ConfidenceInterval",
            "bootstrap_metric",
            "bootstrap_separation_factors",
        ),
        "figures": (
            "HistogramBin",
            "RatioHistogram",
            "build_figure3",
            "build_figure3_panel",
            "build_figure4",
            "build_figure5",
        ),
        "report": (
            "PaperComparison",
            "ascii_table",
            "compare_with_paper",
            "render_comparison",
            "render_histogram",
            "render_table1",
            "render_table2",
            "render_table3",
            "rows_to_csv",
        ),
        "tables": (
            "Table1Row",
            "Table2Row",
            "Table3Row",
            "build_table1",
            "build_table2",
            "build_table3",
        ),
    },
)

__all__ = [
    "Table1Row",
    "Table2Row",
    "Table3Row",
    "build_table1",
    "build_table2",
    "build_table3",
    "HistogramBin",
    "RatioHistogram",
    "build_figure3",
    "build_figure3_panel",
    "build_figure4",
    "build_figure5",
    "ascii_table",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_histogram",
    "render_comparison",
    "rows_to_csv",
    "PaperComparison",
    "compare_with_paper",
    "ConfidenceInterval",
    "bootstrap_metric",
    "bootstrap_separation_factors",
]
