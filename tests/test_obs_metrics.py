"""Serve telemetry: latency window, Prometheus exposition, shared board.

The exposition tests validate against the Prometheus text format rules
(one sample per line, ``# TYPE`` before samples, valid ASCII metric
names, no series or ``TYPE`` line repeated) rather than just
substring-matching, because a scraper is the real consumer.
"""

from __future__ import annotations

import multiprocessing
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.filterlists.parser import parse_filter_list
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    LatencyWindow,
    SharedBoard,
    nearest_rank,
    prometheus_from_dict,
    serving_blocks,
    wants_prometheus,
)
from repro.serve.service import BlockingService

SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|[0-9.]+)$"
)
METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")


def assert_valid_exposition(text: str) -> dict[str, str]:
    """Parse Prometheus text exposition; returns {metric line: value}.

    Rejects what makes a scraper drop the whole scrape: a malformed or
    non-ASCII name, a repeated ``TYPE`` line, a repeated series."""
    samples: dict[str, str] = {}
    typed: set[str] = set()
    assert text.endswith("\n")
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            parts = line.split()
            assert parts[3] in ("counter", "gauge", "histogram")
            assert METRIC_NAME.fullmatch(parts[2]), f"bad name: {line!r}"
            assert parts[2] not in typed, f"repeated TYPE line: {line!r}"
            typed.add(parts[2])
            continue
        if line.startswith("#") or not line:
            continue
        assert line.isascii() and SAMPLE_LINE.match(line), (
            f"bad sample line: {line!r}"
        )
        name, value = line.rsplit(" ", 1)
        assert name not in samples, f"repeated series: {name!r}"
        samples[name] = value
        base = name.split("{")[0]
        for suffix in ("_bucket", "_sum", "_count"):
            base = base.removesuffix(suffix)
        assert any(base.startswith(t.removesuffix("_bucket")) for t in typed | {base}), name
    return samples


class TestLatencyWindow:
    def test_percentiles_and_batch_observe(self):
        window = LatencyWindow(size=100)
        window.observe_many(0.010, 9)
        window.observe(0.100)
        counters = {
            "served": 10, "batches": 0, "blocked": 0, "reloads": 0,
            "hits": 0, "misses": 0, "entries": 0,
            "observed": window.count, "total_s": window.total,
        }
        snap = serving_blocks(counters, window.sorted_samples())["latency"]
        assert snap["observed"] == 10
        assert snap["p50_ms"] == pytest.approx(10.0)
        assert snap["p99_ms"] == pytest.approx(100.0)

    def test_drain_since_is_incremental(self):
        window = LatencyWindow(size=10)
        window.observe_many(0.001, 3)
        cursor, fresh = window.drain_since(0)
        assert cursor == 3 and len(fresh) == 3
        cursor, fresh = window.drain_since(cursor)
        assert fresh == []
        window.observe(0.002)
        cursor, fresh = window.drain_since(cursor)
        assert fresh == [0.002]

    def test_nearest_rank_bounds(self):
        assert nearest_rank([], 99) == 0.0
        assert nearest_rank([1.0], 50) == 1.0
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0


class TestContentNegotiation:
    def test_query_param_wins(self):
        assert wants_prometheus("format=prometheus", "")
        assert wants_prometheus("a=b&format=prometheus", "application/json")
        assert not wants_prometheus("format=json", "")

    def test_accept_header(self):
        assert wants_prometheus("", "text/plain")
        assert wants_prometheus("", "text/plain; version=0.0.4")
        assert not wants_prometheus("", "application/json")
        assert not wants_prometheus("", "")

    def test_content_type_pinned(self):
        assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain")


class TestPrometheusFromDict:
    def test_flattens_nested_numeric_leaves(self):
        payload = {
            "decisions": {"served": 6, "blocked": 2},
            "workers": [{"alive": True}, {"alive": False}],
            "revision": 3,
            "status": "serving",  # strings carry no numeric value
        }
        text = prometheus_from_dict(payload)
        samples = assert_valid_exposition(text)
        assert samples["trackersift_decisions_served"] == "6"
        assert samples["trackersift_workers_0_alive"] == "1"
        assert samples["trackersift_workers_1_alive"] == "0"
        assert samples["trackersift_revision"] == "3"
        assert not any("status" in name for name in samples)

    def test_sanitizes_awkward_keys(self):
        text = prometheus_from_dict({"p99-ms": 1.5})
        assert "trackersift_p99_ms 1.5" in text

    def test_hostile_list_options_give_valid_unique_names(self):
        """Unsupported-option names reach ``/metrics`` from reloaded list
        text: non-ASCII letters are replaced, and keys that sanitize to
        an existing name (including the ``unsupported_rules`` total) get
        a suffix instead of repeating a series."""
        service = BlockingService(
            parse_filter_list(
                "||a.example^$redirect=noop.js\n"
                "||b.example^$redirect=noop-js\n"
                "||c.example^$ünknown\n"
                "||d.example^$rules\n"
            )
        )
        samples = assert_valid_exposition(prometheus_from_dict(service.metrics()))
        assert samples["trackersift_snapshot_unsupported_rules"] == "4"
        unsupported = sorted(
            name
            for name in samples
            if name.startswith("trackersift_snapshot_unsupported_")
            and name != "trackersift_snapshot_unsupported_rules"
        )
        assert unsupported == [
            "trackersift_snapshot_unsupported__nknown",
            "trackersift_snapshot_unsupported_redirect_noop_js",
            "trackersift_snapshot_unsupported_redirect_noop_js_2",
            "trackersift_snapshot_unsupported_rules_2",
        ]

    def test_suffix_skips_names_taken_later_in_the_payload(self):
        samples = assert_valid_exposition(
            prometheus_from_dict({"a-b": 1, "a_b": 2, "a_b_2": 3})
        )
        assert samples == {
            "trackersift_a_b": "1",
            "trackersift_a_b_3": "2",
            "trackersift_a_b_2": "3",
        }


def _numeric_leaves(value) -> int:
    if isinstance(value, (int, float)):
        return 1
    if isinstance(value, dict):
        return sum(_numeric_leaves(child) for child in value.values())
    if isinstance(value, list):
        return sum(_numeric_leaves(child) for child in value)
    return 0


def _payloads(keys):
    leaves = st.one_of(
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.booleans(),
        st.text(max_size=5),
        st.none(),
    )
    return st.dictionaries(
        keys,
        st.recursive(
            leaves,
            lambda children: st.one_of(
                st.lists(children, max_size=3),
                st.dictionaries(keys, children, max_size=4),
            ),
            max_leaves=20,
        ),
        max_size=5,
    )


def _joined_paths(value, path: str, out: list[str]) -> None:
    if isinstance(value, (int, float)):
        out.append(path)
    elif isinstance(value, dict):
        for key, child in value.items():
            _joined_paths(child, f"{path}_{key}", out)
    elif isinstance(value, list):
        for index, child in enumerate(value):
            _joined_paths(child, f"{path}_{index}", out)


class TestExpositionProperties:
    @given(_payloads(st.text(max_size=6)))
    def test_any_payload_gives_valid_unique_series(self, payload):
        samples = assert_valid_exposition(prometheus_from_dict(payload))
        assert len(samples) == _numeric_leaves(payload)

    @given(
        _payloads(
            st.text(
                alphabet="abcXYZ019_", min_size=1, max_size=4
            )
        )
    )
    def test_collision_free_payloads_keep_their_names(self, payload):
        names: list[str] = []
        _joined_paths(payload, "trackersift", names)
        samples = assert_valid_exposition(prometheus_from_dict(payload))
        if len(set(names)) == len(names):
            assert list(samples) == names


class TestSharedBoard:
    FIELDS = ("cursor", "decisions", "errors")

    def _board(self, workers=2, ring=4, fleet=("spawned", "alive")):
        return SharedBoard.create(
            self.FIELDS,
            workers,
            ring,
            fleet_fields=fleet,
        )

    def test_slots_are_independent(self):
        board = self._board()
        board.write_slot(0, {"decisions": 5})
        board.write_slot(1, {"decisions": 7, "errors": 1})
        assert board.read_slot(0)["decisions"] == 5.0
        assert board.read_slot(0)["errors"] == 0.0
        assert board.read_slot(1) == {"cursor": 0.0, "decisions": 7.0, "errors": 1.0}

    def test_sample_ring_wraps_and_bounds_valid_reads(self):
        board = self._board(ring=3)
        board.append_samples(0, [0.1, 0.2])
        assert board.read_samples(0) == pytest.approx([0.1, 0.2])
        board.append_samples(0, [0.3, 0.4])  # wraps: cursor 4, ring 3
        assert len(board.read_samples(0)) == 3
        assert board.read_slot(0)["cursor"] == 4.0

    def test_fleet_region_is_separate_from_slots(self):
        board = self._board()
        board.write_fleet({"spawned": 4, "alive": 3})
        board.write_slot(1, {"errors": 9})
        assert board.read_fleet() == {"spawned": 4.0, "alive": 3.0}

    def test_ring_requires_cursor_field(self):
        with pytest.raises(ValueError, match="cursor"):
            SharedBoard.create(("decisions",), 1, 4)

    def test_fleet_survives_fork(self):
        """A forked child sees the parent's fleet writes — the mechanism
        behind every worker's /healthz degrading when a sibling dies."""
        ctx = multiprocessing.get_context("fork")
        board = self._board()
        board.write_fleet({"spawned": 2, "alive": 2})

        def child(array, queue):
            view = SharedBoard(
                array, self.FIELDS, 2, 4, fleet_fields=("spawned", "alive")
            )
            queue.put(view.read_fleet())

        queue = ctx.Queue()
        process = ctx.Process(target=child, args=(board.array, queue))
        process.start()
        fleet = queue.get(timeout=10)
        process.join(timeout=10)
        assert fleet == {"spawned": 2.0, "alive": 2.0}
