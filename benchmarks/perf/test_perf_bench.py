"""Unit tests for the benchmark's own machinery.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/perf``.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import stats  # noqa: E402
from loadgen import split_responses  # noqa: E402
from rep import report_fingerprint  # noqa: E402


# -- percentiles ---------------------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(10, 0, -1))  # any order
    assert stats.nearest_rank(values, 50) == 5
    assert stats.nearest_rank(values, 90) == 9
    assert stats.nearest_rank(values, 91) == 10
    assert stats.nearest_rank(values, 100) == 10
    assert stats.nearest_rank(values, 0) == 1
    assert stats.nearest_rank([], 50) == 0.0


@pytest.mark.parametrize(
    "count, expected",
    [(100_000, 99.99), (99_999, 99.9), (10_000, 99.9), (1_000, 99.0),
     (999, 95.0), (200, 95.0), (40, 75.0), (20, 50.0), (19, None)],
)
def test_tail_needs_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_summarize_reports_supported_tail():
    summary = stats.summarize([float(v) for v in range(1, 1001)])
    assert summary["n"] == 1000
    assert summary["p50"] == 500.0
    assert summary["tail_pct"] == 99.0
    assert summary["tail"] == 990.0


def test_spread_and_bound():
    values = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 102.0, 98.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)
    assert stats.suggest_bound(values) == pytest.approx(
        max(0.03, 3 * stats.spread(values))
    )
    assert stats.suggest_bound([1.0, 2.0, 3.0, 4.0]) == stats.BOUND_CAP


def test_timed_setup_scales_by_the_calibrations_around_it(monkeypatch):
    import calibration

    loops = iter([0.006, 0.010])  # the host ran at half the reference speed
    monkeypatch.setattr(calibration, "loop_s", lambda: next(loops))
    allowed = os.sched_getaffinity(0)
    pinned = []

    def setup():
        pinned.append(os.sched_getaffinity(0))
        time.sleep(0.02)
        return "ready"

    result, scaled, raw = calibration.timed_setup(setup)
    assert result == "ready" and raw >= 0.02
    assert scaled == pytest.approx(raw * calibration.REFERENCE_S / 0.008)
    assert len(pinned[0]) == 1 and os.sched_getaffinity(0) == allowed


# -- rate search and backlog ------------------------------------------------------

def _search(capacity: float, start: float = 2000) -> stats.RateSearch:
    search = stats.RateSearch(start)
    for _ in range(50):
        if search.done:
            break
        search.record(search.rate, search.rate <= capacity)
    return search


def test_rate_search_doubles_then_bisects():
    search = _search(13_100)
    assert [rate for rate, _ in search.steps] == [
        2000, 4000, 8000, 16000, 12000, 14000, 13000, 13500,
    ]
    assert search.done
    assert search.best == 13000
    assert search.failed - search.best <= 0.05 * search.best


def test_rate_search_below_start():
    search = _search(1_500)
    assert search.steps[0] == (2000, False)
    assert search.best == 1500
    assert search.done


def test_step_verdict_names_the_failed_limit():
    from types import SimpleNamespace

    from serving import step_verdict

    def step(**changes):
        base = dict(latency=[0.001] * 400, failed=0, aborted=False,
                    cpu_frac=0.3, rate=1000.0, duration=0.4)
        base.update(changes)
        return SimpleNamespace(**base)

    assert step_verdict(step()) == ""
    assert step_verdict(step(failed=1)) == "failed requests"
    assert step_verdict(step(cpu_frac=0.95)) == "generator-bound"
    assert step_verdict(step(latency=[0.001] * 390 + [0.2] * 10)) == "p99 over limit"
    # The last request may take up to the latency limit past the window;
    # one more unanswered request than 1% fails the step.
    assert step_verdict(step(latency=[0.001] * 390 + [0.049] * 10)) == ""
    assert step_verdict(step(latency=[0.001] * 395 + [None] * 5)) == (
        "achieved under 99% of offered"
    )
    growing = [0.001 + 0.0001 * i for i in range(400)]
    assert step_verdict(step(latency=growing)) == "growing backlog"


def test_backlog_detection():
    flat = [0.0005 + 0.0001 * (i % 3) for i in range(400)]
    assert not stats.backlog_growing(flat)
    growing = [0.001 + 0.0005 * i for i in range(400)]
    assert stats.backlog_growing(growing)
    # Growth that stays under the floor is jitter, not a queue.
    creeping = [0.0001 + 0.000001 * i for i in range(400)]
    assert not stats.backlog_growing(creeping)


# -- inputs ------------------------------------------------------------------------

def test_synthetic_list_follows_embedded_rule_kinds():
    from collections import Counter

    from repro.filterlists.lists import default_lists
    from repro.filterlists.parser import parse_filter_list

    from inputs import easylist_shaped, rule_kind

    embedded = Counter(
        rule_kind(rule) for parsed in default_lists() for rule in parsed.rules
    )
    text = easylist_shaped(7, 6000)
    assert text == easylist_shaped(7, 6000)
    parsed = parse_filter_list(text, name="synthetic")
    assert not parsed.error_lines and len(parsed.rules) == 6000
    drawn = Counter(rule_kind(rule) for rule in parsed.rules)
    assert set(drawn) == set(embedded)
    for kind, count in embedded.items():
        share = count / sum(embedded.values())
        assert drawn[kind] / 6000 == pytest.approx(share, abs=0.02)


# -- response framing --------------------------------------------------------------

def _response(body: bytes, status: int = 200) -> bytes:
    return (
        f"HTTP/1.1 {status} OK\r\nContent-Type: application/json\r\n"
        f"content-LENGTH: {len(body)}\r\n\r\n"
    ).encode() + body


def test_split_responses_frames_by_content_length():
    stream = _response(b'{"a":1}') + _response(b"{}", 400) + _response(b'{"b":2}')
    cut = len(stream) - 3
    responses, consumed = split_responses(stream[:cut])
    assert responses == [(200, b'{"a":1}'), (400, b"{}")]
    rest, used = split_responses(stream[consumed:])
    assert rest == [(200, b'{"b":2}')] and used == len(stream) - consumed


# -- layer timer -------------------------------------------------------------------

class _Work:
    def outer(self):
        time.sleep(0.02)
        return self.inner()

    def inner(self):
        time.sleep(0.03)
        return 1

    def stream(self, n):
        for _ in range(n):
            time.sleep(0.01)
            self.inner()
            yield 1

    @staticmethod
    def static(x):
        return x + 1

    @classmethod
    def build(cls):
        return cls()


def _timer():
    return layers.LayerTimer(("outer", "inner", "stream", "static", "build"))


def test_self_time_excludes_wrapped_children():
    timer = _timer()
    timer.wrap(_Work, "outer", "outer")
    timer.wrap(_Work, "inner", "inner")
    try:
        assert _Work().outer() == 1
    finally:
        timer.restore()
    rows = timer.snapshot()[os.getpid()]
    calls, total, self_s, _ = rows["outer"]
    assert calls == 1
    assert total == pytest.approx(0.05, abs=0.02)
    assert self_s == pytest.approx(0.02, abs=0.01)
    assert rows["inner"][2] == pytest.approx(0.03, abs=0.01)
    assert _Work.outer.__name__ == "outer" and "outer" in vars(_Work)


def test_generator_timed_per_next_minus_children():
    timer = _timer()
    timer.wrap(_Work, "stream", "stream")
    timer.wrap(_Work, "inner", "inner")
    try:
        for _ in _Work().stream(3):
            time.sleep(0.02)  # the consumer's time is nobody's layer
    finally:
        timer.restore()
    rows = timer.snapshot()[os.getpid()]
    calls, total, self_s, items = rows["stream"]
    assert calls == 4 and items == 3
    assert self_s == pytest.approx(0.03, abs=0.015)
    assert total == pytest.approx(0.12, abs=0.03)
    assert rows["inner"][0] == 3


def test_static_and_class_methods_keep_their_binding():
    timer = _timer()
    timer.wrap(_Work, "static", "static")
    timer.wrap(_Work, "build", "build")
    try:
        assert _Work.static(1) == 2 and _Work().static(2) == 3
        assert isinstance(_Work.build(), _Work)
        assert isinstance(_Work().build(), _Work)
    finally:
        timer.restore()
    rows = timer.snapshot()[os.getpid()]
    assert rows["static"][0] == 2 and rows["build"][0] == 2
    assert isinstance(vars(_Work)["static"], staticmethod)
    assert isinstance(vars(_Work)["build"], classmethod)


def _child_calls(count):
    for _ in range(count):
        _Work().inner()


class _Forker:
    def __init__(self, children):
        self.children = children

    def spawn(self):
        for child in self.children:
            child.start()
        return _Work().inner()


def test_forked_processes_aggregate_in_shared_table():
    timer = layers.LayerTimer(("inner", "spawn"))
    timer.wrap(_Work, "inner", "inner")
    timer.wrap(_Forker, "spawn", "spawn")
    context = multiprocessing.get_context("fork")
    children = [context.Process(target=_child_calls, args=(2,)) for _ in range(3)]
    try:
        # Forked from inside a wrapped call: each child must start from an
        # empty stack instead of charging its work to the parent's frame.
        _Forker(children).spawn()
        for child in children:
            child.join(timeout=30)
            assert child.exitcode == 0
    finally:
        timer.restore()
    snapshot = timer.snapshot()
    assert set(snapshot) == {os.getpid(), *(c.pid for c in children)}
    total = layers.totals(snapshot)
    assert total["inner"][0] == 3 * 2 + 1
    assert total["spawn"][0] == 1
    for child in children:
        assert snapshot[child.pid]["inner"][0] == 2
        assert "spawn" not in snapshot[child.pid]


def test_spans_are_written_for_trace_summarize(tmp_path):
    from repro.obs.trace import read_spans, summarize_spans

    timer = _timer()
    timer.wrap(_Work, "inner", "inner", span=True)
    try:
        with timer.span("outer"):
            _Work().inner()
            _Work().inner()
    finally:
        timer.restore()
    path = timer.write_spans(tmp_path / "spans.jsonl")
    summary = summarize_spans(read_spans(path))
    assert summary["stages"]["inner"]["count"] == 2
    outer = summary["stages"]["outer"]
    assert outer["self_seconds"] < 0.02 < outer["total_seconds"]


# -- report fingerprint -------------------------------------------------------------

def test_fingerprint_is_stable_across_shard_counts_and_key_order():
    import repro
    from repro.core.results import LevelReport, SiftReport

    config = repro.PipelineConfig(sites=40, seed=3)
    one = repro.StreamingPipeline(config, shards=1).run().report
    four = repro.StreamingPipeline(config, shards=4).run().report
    assert report_fingerprint(one) == report_fingerprint(four)

    shuffled = SiftReport(total_requests=one.total_requests)
    for level in one.levels:
        reordered = LevelReport(level.granularity)
        for key in reversed(list(level.resources)):
            reordered.resources[key] = level.resources[key]
        shuffled.levels.append(reordered)
    assert report_fingerprint(shuffled) == report_fingerprint(one)

    other = repro.StreamingPipeline(
        repro.PipelineConfig(sites=40, seed=4), shards=1
    ).run().report
    assert report_fingerprint(other) != report_fingerprint(one)


# -- BENCHMARK.json ------------------------------------------------------------------

def test_benchmark_json_matches_what_the_bench_prints():
    import json

    from bench import WORKLOADS
    from outcome import END_TO_END, PER_LAYER

    root = Path(__file__).resolve().parents[2]
    recorded = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in recorded["workloads"]} == WORKLOADS
    assert [(m["name"], m["unit"]) for m in recorded["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in recorded["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in recorded["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
