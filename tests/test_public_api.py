"""Public API surface: everything advertised in __all__ imports and works."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

#: Every subpackage of ``repro``, found on disk so a new one is covered.
_SUBPACKAGES = sorted(
    f"repro.{init.parent.name}"
    for init in Path(repro.__file__).parent.glob("*/__init__.py")
)

#: Modules a study never runs; ``import repro`` must leave them unloaded.
_NOT_ON_THE_STUDY_PATH = [
    "repro.core.rulegen",
    "repro.core.sensitivity",
    "repro.core.surrogate",
    "repro.core.guards",
    "repro.core.callstack_analysis",
    "repro.browser.breakage",
    "repro.browser.extension",
    "repro.webmodel.anonymize",
    "repro.webmodel.cloaking",
    "repro.webmodel.internal",
    "repro.filterlists.compile",
    "repro.filterlists.image",
    "repro.filterlists.maintenance",
    "repro.obs.ledger",
    "repro.obs.metrics",
    "repro.urlkit.dns",
    "repro.durable",
    "repro.crawler.crawler",
    "sqlite3",
    # The study path's records are written out (repro/_record.py): a
    # dataclass compiles its methods with exec at import, and importing
    # dataclasses loads inspect.
    "dataclasses",
    "inspect",
]

#: Modules only some CLI commands use; ``import repro.cli`` leaves them
#: to the commands that need them.
_NOT_ON_THE_CLI_IMPORT_PATH = [
    "repro.analysis",
    "repro.analysis.confidence",
    "repro.analysis.figures",
    "repro.analysis.report",
    "repro.analysis.tables",
    "repro.core.rulegen",
    "repro.core.parallel",
    "repro.core.sensitivity",
    "repro.core.callstack_analysis",
    "repro.browser.breakage",
    "multiprocessing",
    "socket",
    "subprocess",
    "pickle",
]

#: Modules a serve supervisor's start must leave unloaded: its shared
#: metrics board is an ``mmap`` view, not a ``multiprocessing.Array``.
_NOT_ON_THE_SERVE_START_PATH = [
    "ctypes",
    "multiprocessing.sharedctypes",
    "multiprocessing.heap",
]

#: Modules rendering Tables 1-2 after a study must leave unloaded: they
#: serve Figures 3-5, the bootstrap and Table 3, or (``dataclasses``,
#: ``inspect``) would compile the table rows' methods at import.
_NOT_ON_THE_TABLE_1_2_PATH = [
    "repro.analysis.figures",
    "repro.analysis.confidence",
    "repro.core.sensitivity",
    "repro.core.callstack_analysis",
    "repro.browser.breakage",
    "dataclasses",
    "inspect",
]


def _run_fresh(script: str) -> list[str]:
    """Run ``script`` in a new interpreter importing this ``repro``; its
    stdout lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()


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

    def test_study_import_leaves_the_server_stack_unloaded(self):
        out = _run_fresh(
            """
            import sys
            import repro
            repro.StreamingPipeline
            heavy = ["asyncio", "ssl", "http.client", "repro.serve",
                     "repro.scenarios"]
            print([name for name in heavy if name in sys.modules])
            print(repro.BlockingService.__module__,
                  repro.ScenarioRunner.__module__)
            namespace = {}
            exec("from repro import *", namespace)
            print(sorted(set(repro.__all__) - set(namespace)))
            """
        )
        assert out == [
            "[]",
            "repro.serve.service repro.scenarios.runner",
            "[]",
        ]

    @pytest.mark.tier1
    def test_study_set_up_leaves_unused_modules_unloaded(self):
        out = _run_fresh(
            f"""
            import sys
            import repro
            from repro.filterlists.oracle import FilterListOracle
            FilterListOracle()
            print([m for m in {_NOT_ON_THE_STUDY_PATH!r} if m in sys.modules])
            """
        )
        assert out == ["[]"]

    @pytest.mark.tier1
    def test_cli_import_leaves_command_modules_unloaded(self):
        out = _run_fresh(
            f"""
            import sys
            import repro.cli
            print([m for m in {_NOT_ON_THE_CLI_IMPORT_PATH!r}
                   if m in sys.modules])
            """
        )
        assert out == ["[]"]

    @pytest.mark.tier1
    def test_rendering_tables_1_and_2_loads_no_figure_analysis(self):
        out = _run_fresh(
            f"""
            import sys
            import repro.cli
            from repro.analysis.report import render_table1, render_table2
            from repro.analysis.tables import build_table1, build_table2
            print([m for m in {_NOT_ON_THE_TABLE_1_2_PATH!r} if m in sys.modules])
            """
        )
        assert out == ["[]"]

    @pytest.mark.tier1
    def test_a_study_run_imports_nothing_set_up_did_not(self):
        # Set-up pays every import a study needs; the timed run pays none.
        out = _run_fresh(
            """
            import sys
            import repro
            from repro.filterlists.oracle import FilterListOracle
            oracle = FilterListOracle()
            loaded = set(sys.modules)
            repro.StreamingPipeline(
                repro.PipelineConfig(sites=40, seed=7), oracle=oracle
            ).run()
            print(sorted(m for m in set(sys.modules) - loaded
                         if m.startswith("repro")))
            """
        )
        assert out == ["[]"]

    @pytest.mark.tier1
    def test_serve_start_loads_no_ctypes(self, tmp_path):
        artifact = str(tmp_path / "boot.tsoracle")
        out = _run_fresh(
            f"""
            import sys
            from repro.filterlists.compile import compile_lists
            from repro.filterlists.lists import default_lists
            from repro.serve.supervisor import ServeSupervisor
            compile_lists({artifact!r}, *default_lists())
            supervisor = ServeSupervisor({artifact!r}, workers=1).start()
            try:
                print([m for m in {_NOT_ON_THE_SERVE_START_PATH!r}
                       if m in sys.modules])
            finally:
                supervisor.shutdown()
            """
        )
        assert out == ["[]"]

    @pytest.mark.tier1
    @pytest.mark.parametrize("package", ["repro", *_SUBPACKAGES])
    def test_every_export_resolves_in_a_fresh_interpreter(self, package):
        # Lazy re-exports import on first access, so an import cycle shows
        # only when a name is first resolved with nothing else loaded.
        out = _run_fresh(
            f"""
            import importlib
            package = importlib.import_module({package!r})
            for name in getattr(package, "__all__", []):
                getattr(package, name)
            namespace = {{}}
            exec("from {package} import *", namespace)
            print(sorted(set(getattr(package, "__all__", [])) - set(namespace)))
            """
        )
        assert out == ["[]"]

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.NoSuchThing

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
