"""Public API surface: everything advertised in __all__ imports and works."""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.10.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.urlkit",
            "repro.filterlists",
            "repro.webmodel",
            "repro.browser",
            "repro.crawler",
            "repro.labeling",
            "repro.core",
            "repro.faults",
            "repro.analysis",
            "repro.serve",
            "repro.cli",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_run_study_facade(self):
        result = repro.run_study(sites=60, seed=3)
        assert result.report.final_separation > 0.8
        assert result.pages_crawled == 60

    def test_log_ratio_is_equation_one(self):
        assert repro.log_ratio(100, 1) == pytest.approx(2.0)

    def test_paper_constants_exposed(self):
        assert repro.PAPER.sites == 100_000


class TestDocstrings:
    @pytest.mark.parametrize(
        "module",
        [
            "repro",
            "repro.urlkit.url",
            "repro.urlkit.psl",
            "repro.urlkit.dns",
            "repro.filterlists.rules",
            "repro.filterlists.parser",
            "repro.filterlists.matcher",
            "repro.filterlists.oracle",
            "repro.webmodel.generator",
            "repro.webmodel.calibration",
            "repro.webmodel.cloaking",
            "repro.webmodel.internal",
            "repro.webmodel.anonymize",
            "repro.browser.engine",
            "repro.browser.breakage",
            "repro.crawler.storage",
            "repro.labeling.labeler",
            "repro.core.classifier",
            "repro.core.hierarchy",
            "repro.core.pipeline",
            "repro.core.surrogate",
            "repro.core.guards",
            "repro.core.callstack_analysis",
            "repro.analysis.tables",
            "repro.analysis.figures",
            "repro.serve.service",
            "repro.serve.protocol",
            "repro.serve.client",
            "repro.faults.plan",
            "repro.durable",
            "repro.core.parallel",
        ],
    )
    def test_module_documented(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 40, module

    def test_public_classes_documented(self):
        from repro.core.hierarchy import HierarchicalSifter
        from repro.core.pipeline import TrackerSiftPipeline
        from repro.filterlists.matcher import FilterMatcher
        from repro.webmodel.generator import SyntheticWebGenerator

        for cls in (
            HierarchicalSifter,
            TrackerSiftPipeline,
            FilterMatcher,
            SyntheticWebGenerator,
        ):
            assert cls.__doc__ and len(cls.__doc__.strip()) > 20
