"""CLI smoke tests (tiny crawls, captured stdout)."""

import os
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cli import main

ARGS = ["--sites", "60", "--seed", "5"]


class TestCommands:
    def test_study(self, capsys):
        assert main(ARGS + ["study"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "Final separation factor" in out

    def test_figure3(self, capsys):
        assert main(ARGS + ["figure3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3 (domain)" in out
        assert "Figure 3 (method)" in out

    def test_figure4(self, capsys):
        assert main(ARGS + ["figure4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("threshold,mixed_share")
        assert len(out.splitlines()) == 22

    def test_table3(self, capsys):
        assert main(ARGS + ["table3"]) == 0
        assert "Breakage" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(ARGS + ["compare"]) == 0
        assert "Measured" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(ARGS + ["nonsense"])

    def test_threshold_flag(self, capsys):
        assert main(["--sites", "60", "--threshold", "1.5", "study"]) == 0

    def test_rules_to_stdout(self, capsys):
        assert main(ARGS + ["rules"]) == 0
        out = capsys.readouterr().out
        assert "! Title: TrackerSift generated rules" in out
        assert "||" in out

    def test_rules_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "generated.txt"
        assert main(ARGS + ["--out", str(out_path), "rules"]) == 0
        assert out_path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_strategies(self, capsys):
        assert main(ARGS + ["strategies"]) == 0
        out = capsys.readouterr().out
        assert "trackersift" in out and "conservative" in out

    def test_bootstrap(self, capsys):
        assert main(ARGS + ["--replicates", "10", "bootstrap"]) == 0
        out = capsys.readouterr().out
        assert "cumulative separation factor" in out

    def test_export_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "crawl.jsonl"
        assert main(ARGS + ["--out", str(out_path), "export"]) == 0
        assert out_path.exists()

    def test_export_sqlite(self, tmp_path, capsys):
        out_path = tmp_path / "crawl.sqlite"
        assert main(ARGS + ["--out", str(out_path), "export"]) == 0
        assert out_path.exists()

    def test_export_requires_out(self):
        with pytest.raises(SystemExit):
            main(ARGS + ["export"])

    def test_sift_batch(self, capsys):
        assert main(ARGS + ["sift"]) == 0
        out = capsys.readouterr().out
        assert "batch" in out and "Table 1" in out

    def test_sift_streaming(self, capsys):
        assert main(ARGS + ["--streaming", "--shards", "3", "sift"]) == 0
        out = capsys.readouterr().out
        assert "streaming engine, 3 shards" in out
        assert "Label cache:" in out

    def test_sift_streaming_resumes_from_checkpoints(self, tmp_path, capsys):
        flags = ["--streaming", "--shards", "3", "--checkpoint-dir", str(tmp_path)]
        assert main(ARGS + flags + ["sift"]) == 0
        first = capsys.readouterr().out
        assert "0 resumed from checkpoint" in first
        assert main(ARGS + flags + ["sift"]) == 0
        assert "3 resumed from checkpoint" in capsys.readouterr().out

    def test_streaming_flags_rejected_outside_sift(self):
        with pytest.raises(SystemExit, match="sift command only"):
            main(ARGS + ["--streaming", "study"])

    def test_sift_shards_require_streaming(self):
        with pytest.raises(SystemExit, match="require --streaming"):
            main(ARGS + ["--shards", "3", "sift"])

    def test_sift_streaming_parallel_workers(self, capsys):
        """The CLI parallel path: no explicit web, so workers regenerate
        it from the config — the output must match a sequential run."""
        assert main(ARGS + ["--streaming", "--shards", "3", "sift"]) == 0
        sequential = capsys.readouterr().out
        flags = ["--streaming", "--shards", "3", "--workers", "2"]
        assert main(ARGS + flags + ["sift"]) == 0
        parallel = capsys.readouterr().out
        # Identical tables and counts; only the cache counters may differ
        # (worker-local caches), so compare everything around that line.
        strip = lambda out: [
            line for line in out.splitlines() if not line.startswith("Label cache:")
        ]
        assert strip(parallel) == strip(sequential)

    def test_study_accepts_workers(self, capsys):
        assert main(ARGS + ["--workers", "2", "study"]) == 0
        assert "Table 1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command", ["figure4", "strategies", "bootstrap", "export"]
    )
    def test_event_commands_reject_workers(self, command):
        with pytest.raises(SystemExit, match="materialized crawl"):
            main(ARGS + ["--workers", "2", command])

    def test_workers_must_be_positive(self):
        with pytest.raises(SystemExit, match="at least 1"):
            main(ARGS + ["--workers", "0", "study"])


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"trackersift {__version__}"


class TestServeCommand:
    def test_serve_flags_rejected_outside_serve(self):
        with pytest.raises(SystemExit, match="serve command only"):
            main(ARGS + ["--port", "8377", "study"])
        with pytest.raises(SystemExit, match="serve command only"):
            main(ARGS + ["--host", "127.0.0.1", "sift"])

    def test_serve_workers_require_artifact(self):
        # --workers is the multi-process path: N forked processes share
        # one memory-mapped artifact, so a compiled artifact is the one
        # legal oracle source.
        with pytest.raises(SystemExit, match="requires --artifact"):
            main(["--workers", "2", "serve"])
        with pytest.raises(SystemExit, match="at least 1"):
            main(["--workers", "0", "serve", "--artifact", "x.tsoracle"])

    def test_serve_rejects_streaming_flags(self):
        with pytest.raises(SystemExit, match="sift command only"):
            main(["--streaming", "serve"])

    def test_serve_missing_list_file_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="serve"):
            main(["--lists", str(tmp_path / "nope.txt"), "serve"])

    def test_serve_loads_custom_lists(self, tmp_path):
        """Custom list files become the serving snapshot, named by stem."""
        list_path = tmp_path / "corp-blocklist.txt"
        list_path.write_text("||banned.example^\n/beacon*\n", encoding="utf-8")
        with _serving_cli(["--lists", str(list_path), "serve"]) as client:
            health = client.healthz()
            assert health["rule_count"] == 2
            decision = client.decide("https://banned.example/x.js")
            assert decision["blocked"]
            assert decision["matched_list"] == "corp-blocklist"
            assert not client.decide("https://doubleclick.net/x.js")["blocked"]

    def test_serve_boots_from_artifact(self, tmp_path):
        """``--artifact`` boots without parsing and opts in to HTTP
        artifact reloads from the artifact's own directory."""
        from repro.filterlists.compile import compile_lists
        from repro.filterlists.parser import parse_filter_list

        boot = tmp_path / "boot.tsoracle"
        compile_lists(boot, parse_filter_list("||tracker.example^\n", name="boot"))
        with _serving_cli(["serve", "--artifact", str(boot)]) as client:
            assert client.decide("https://tracker.example/x.js")["blocked"]
            report = client._request(
                "POST", "/v1/reload", {"artifact": "boot.tsoracle"}
            )
            assert report["revision"] == 2

    def test_serve_decides_then_exits_zero_on_sigterm(self):
        with _serving_cli(["serve"]) as client:
            assert client.healthz()["status"] == "ok"
            assert client.decide("https://doubleclick.net/x.js")["blocked"]
        # _serving_cli sent SIGTERM and asserted exit 0 with the
        # shutdown line; SIGINT takes the same path.

    def test_serve_rejects_removed_thread_count_flag(self):
        # The single-process server is one event loop: there is no
        # thread-count flag any more, and argparse refuses it (exit 2).
        removed = "--" + "threads=4"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", removed],
            env=_cli_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert f"unrecognized arguments: {removed}" in result.stderr


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return env


@contextmanager
def _serving_cli(argv):
    """Run ``python -m repro <argv> --port <free>`` as a real process,
    yield a client once ``/healthz`` answers, then SIGTERM it and require
    a clean exit 0."""
    from repro.serve.client import BlockingClient

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "--port", str(port), *argv],
        env=_cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.monotonic() + 30
        while True:
            assert process.poll() is None, process.communicate()[0]
            assert time.monotonic() < deadline, "server never came up"
            try:
                with BlockingClient("127.0.0.1", port, timeout=2) as client:
                    client.healthz()
                break
            except OSError:
                time.sleep(0.1)
        with BlockingClient("127.0.0.1", port, timeout=5) as client:
            yield client
        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, out
    assert "shutting down" in out, out


class TestCompileCommand:
    def test_compile_embedded_defaults(self, tmp_path, capsys):
        from repro.filterlists.oracle import FilterListOracle

        out = tmp_path / "defaults.tsoracle"
        assert main(["compile", "--out", str(out)]) == 0
        assert "compiled" in capsys.readouterr().out
        oracle = FilterListOracle.from_artifact(out)
        reference = FilterListOracle()
        assert oracle.rule_count == reference.rule_count
        assert oracle.label("https://doubleclick.net/pixel") == reference.label(
            "https://doubleclick.net/pixel"
        )

    def test_compile_custom_lists(self, tmp_path, capsys):
        from repro.serve.service import BlockingService

        list_path = tmp_path / "corp.txt"
        list_path.write_text("||banned.example^\n", encoding="utf-8")
        out = tmp_path / "corp.tsoracle"
        assert main(["--lists", str(list_path), "compile", "--out", str(out)]) == 0
        assert "corp" in capsys.readouterr().out
        service = BlockingService(artifact=out)
        assert service.decide("https://banned.example/x.js")["blocked"]

    def test_compile_reports_unsupported_rules(self, tmp_path, capsys):
        list_path = tmp_path / "mixed.txt"
        list_path.write_text(
            "||real.example^\n/track/v1/\n/re\\d+/\n", encoding="utf-8"
        )
        out = tmp_path / "mixed.tsoracle"
        assert main(["--lists", str(list_path), "compile", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "automaton keys" in printed
        assert "skipped 2 unsupported rule(s)" in printed
        assert "regex-rule: 2" in printed

    def test_compile_clean_list_prints_no_skip_line(self, tmp_path, capsys):
        list_path = tmp_path / "clean.txt"
        list_path.write_text("||real.example^\n", encoding="utf-8")
        out = tmp_path / "clean.tsoracle"
        assert main(["--lists", str(list_path), "compile", "--out", str(out)]) == 0
        assert "skipped" not in capsys.readouterr().out

    def test_compile_requires_out(self):
        with pytest.raises(SystemExit, match="--out"):
            main(["compile"])

    def test_compile_missing_list_file_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="compile"):
            main(["--lists", str(tmp_path / "nope.txt"), "compile", "--out", str(tmp_path / "x")])

    def test_compile_unwritable_out_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="compile"):
            main(["compile", "--out", str(tmp_path / "no" / "dir" / "x.tsoracle")])

    def test_lists_rejected_outside_serve_and_compile(self):
        with pytest.raises(SystemExit, match="serve and compile"):
            main(ARGS + ["--lists", "x.txt", "study"])

    def test_artifact_rejected_outside_serve(self):
        with pytest.raises(SystemExit, match="serve command only"):
            main(ARGS + ["--artifact", "x.tsoracle", "study"])

    def test_serve_rejects_lists_plus_artifact(self, tmp_path):
        list_path = tmp_path / "l.txt"
        list_path.write_text("||a.example^\n", encoding="utf-8")
        with pytest.raises(SystemExit, match="not both"):
            main(["--lists", str(list_path), "--artifact", "x.tsoracle", "serve"])


class TestProfileFlag:
    def test_profile_writes_table_next_to_checkpoint_dir(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        ckpt = tmp_path / "ckpt"
        assert (
            main(
                ARGS
                + [
                    "--streaming",
                    "--shards",
                    "2",
                    "--checkpoint-dir",
                    str(ckpt),
                    "--profile",
                    "sift",
                ]
            )
            == 0
        )
        # Filenames are runid-stamped (timestamp+pid): sibling of the
        # checkpoint dir, never inside it (resume must not trip over it).
        candidates = list(tmp_path.glob(f"{ckpt.name}-*-profile.txt"))
        assert len(candidates) == 1
        profile = candidates[0]
        text = profile.read_text(encoding="utf-8")
        assert "cumulative" in text
        assert "trackersift sift" in text
        assert str(profile) in capsys.readouterr().out
        assert not list(ckpt.glob("*-profile.txt"))

    def test_profile_without_checkpoint_dir_uses_cwd(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(ARGS + ["--profile", "study"]) == 0
        assert list(tmp_path.glob("trackersift-study-*-profile.txt"))

    def test_profile_handles_nameless_checkpoint_dir(
        self, tmp_path, capsys, monkeypatch
    ):
        """'.' has no path name; the profile must still land somewhere
        instead of crashing after a fully profiled run."""
        monkeypatch.chdir(tmp_path)
        assert (
            main(
                ARGS
                + ["--streaming", "--shards", "2", "--checkpoint-dir", ".",
                   "--profile", "sift"]
            )
            == 0
        )
        siblings = list(tmp_path.parent.glob(f"{tmp_path.name}-*-profile.txt"))
        local = list(tmp_path.glob("trackersift-sift-*-profile.txt"))
        assert siblings or local
        for sibling in siblings:
            sibling.unlink()

    def test_profile_rejected_outside_study_sift(self):
        with pytest.raises(SystemExit, match="--profile"):
            main(ARGS + ["--profile", "figure3"])


class TestObservabilityFlags:
    def test_trace_out_and_summarize_roundtrip(self, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        assert main(ARGS + ["--trace-out", str(spans), "study"]) == 0
        out = capsys.readouterr().out
        assert "trace: wrote" in out
        assert spans.exists()
        assert main(["trace", "summarize", str(spans)]) == 0
        summary = capsys.readouterr().out
        assert "critical path" in summary
        assert "web.generate" in summary
        assert "sift" in summary

    def test_ledger_out_and_identical_diff(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(ARGS + ["--ledger-out", str(a), "study"]) == 0
        assert main(
            ARGS + ["--ledger-out", str(b), "--streaming", "sift"]
        ) == 0
        capsys.readouterr()
        # Batch and streaming runs of the same config fingerprint
        # identically, stage by stage.
        assert main(["ledger", "diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_ledger_diff_names_divergent_stage(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(ARGS + ["--ledger-out", str(a), "study"]) == 0
        assert main(
            ["--sites", "60", "--seed", "6", "--ledger-out", str(b), "study"]
        ) == 0
        capsys.readouterr()
        assert main(["ledger", "diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        # Different seed → the synthetic web is the first stage to change.
        assert "web" in out

    def test_trace_out_rejected_outside_study_sift(self):
        with pytest.raises(SystemExit, match="--trace-out/--ledger-out"):
            main(ARGS + ["--trace-out", "x.jsonl", "figure3"])

    def test_trace_requires_summarize_action(self):
        with pytest.raises(SystemExit, match="trace summarize"):
            main(["trace"])

    def test_ledger_diff_requires_two_files(self):
        with pytest.raises(SystemExit, match="ledger diff"):
            main(["ledger", "diff", "only-one.jsonl"])

    def test_extra_args_rejected_for_other_commands(self):
        with pytest.raises(SystemExit, match="unexpected argument"):
            main(["scenario", "list", "whatever"])

    def test_missing_trace_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="trace:"):
            main(["trace", "summarize", str(tmp_path / "absent.jsonl")])
