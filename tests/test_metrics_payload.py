"""Pins the ``/metrics`` payload shape: JSON key sets and Prometheus names.

Dashboards and scrapers key on these names, so the single-service view
(:meth:`BlockingService.metrics`), the merged fleet view
(:func:`merge_board`) and their Prometheus flattening are pinned here
exactly, after a fixed sequence of decisions and over a hand-filled
board.
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import SharedBoard, prometheus_from_dict
from repro.serve.service import BlockingService
from repro.serve.supervisor import _FLEET_FIELDS, _SLOT_FIELDS, merge_board

URLS = [
    "https://doubleclick.net/pixel.gif",
    "https://functional.example/app.js",
    "https://doubleclick.net/pixel.gif",
]


def key_paths(value, prefix: str = "") -> set[str]:
    """Dotted path of every dict key and list index, leaves included."""
    paths: set[str] = set()
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return paths
    for key, child in items:
        path = f"{prefix}{key}"
        paths.add(path)
        paths |= key_paths(child, path + ".")
    return paths


def series_names(text: str) -> list[str]:
    return [
        line.split(" ", 1)[0]
        for line in text.splitlines()
        if line and not line.startswith("#")
    ]


SERVICE_KEYS = {
    "uptime_seconds",
    "snapshot",
    "snapshot.revision",
    "snapshot.rule_count",
    "snapshot.provenance",
    "snapshot.lists",
    "snapshot.lists.0",
    "snapshot.lists.1",
    "snapshot.unsupported_rules",
    "snapshot.unsupported",
    "decisions",
    "decisions.served",
    "decisions.batches",
    "decisions.blocked",
    "decisions.reloads",
    "cache",
    "cache.hits",
    "cache.misses",
    "cache.hit_rate",
    "cache.entries",
    "latency",
    "latency.observed",
    "latency.window",
    "latency.mean_ms",
    "latency.p50_ms",
    "latency.p99_ms",
}

SERVICE_SERIES = [
    "trackersift_uptime_seconds",
    "trackersift_snapshot_revision",
    "trackersift_snapshot_rule_count",
    "trackersift_snapshot_unsupported_rules",
    "trackersift_decisions_served",
    "trackersift_decisions_batches",
    "trackersift_decisions_blocked",
    "trackersift_decisions_reloads",
    "trackersift_cache_hits",
    "trackersift_cache_misses",
    "trackersift_cache_hit_rate",
    "trackersift_cache_entries",
    "trackersift_latency_observed",
    "trackersift_latency_window",
    "trackersift_latency_mean_ms",
    "trackersift_latency_p50_ms",
    "trackersift_latency_p99_ms",
]


def test_service_metrics_payload_is_pinned():
    service = BlockingService()  # the embedded default lists
    for url in URLS:
        service.decide(url)
    service.decide_batch(URLS)
    metrics = service.metrics()
    assert key_paths(metrics) == SERVICE_KEYS
    assert metrics["snapshot"]["lists"] == ["easylist", "easyprivacy"]
    assert metrics["snapshot"]["unsupported"] == {}
    assert metrics["decisions"] == {
        "served": 6,
        "batches": 1,
        "blocked": 4,
        "reloads": 0,
    }
    assert metrics["cache"]["hits"] == 4
    assert metrics["cache"]["misses"] == 2
    assert metrics["cache"]["hit_rate"] == pytest.approx(4 / 6)
    assert metrics["latency"]["observed"] == 6
    assert metrics["latency"]["window"] == 6
    assert series_names(prometheus_from_dict(metrics)) == SERVICE_SERIES


def _hand_filled_board() -> SharedBoard:
    board = SharedBoard.create(_SLOT_FIELDS, 3, 4, _FLEET_FIELDS)
    board.write_slot(
        0,
        {
            "pid": 101, "revision": 2, "served": 10, "batches": 3,
            "blocked": 4, "reloads": 1, "hits": 6, "misses": 4,
            "entries": 4, "observed": 10, "total_s": 0.02,
        },
    )
    board.append_samples(0, [0.001, 0.003])
    # Slot 1 never published (pid 0): the merged view skips it.
    board.write_slot(
        2,
        {
            "pid": 303, "revision": 2, "served": 5, "batches": 5,
            "blocked": 1, "reloads": 1, "hits": 1, "misses": 4,
            "entries": 4, "observed": 5, "total_s": 0.01,
        },
    )
    board.append_samples(2, [0.002])
    board.write_fleet(
        {"spawned": 3, "alive": 2, "restarted": 1, "backoff": 0.5}
    )
    return board


def test_merged_board_payload_is_pinned():
    merged = merge_board(_hand_filled_board(), 3, 4)
    assert merged == {
        "workers": [
            {
                "worker": 0, "pid": 101, "revision": 2, "served": 10,
                "batches": 3, "blocked": 4, "reloads": 1,
                "cache_hits": 6, "cache_misses": 4,
            },
            {
                "worker": 2, "pid": 303, "revision": 2, "served": 5,
                "batches": 5, "blocked": 1, "reloads": 1,
                "cache_hits": 1, "cache_misses": 4,
            },
        ],
        "worker_pids": [101, 303],
        "workers_spawned": 3,
        "workers_alive": 2,
        "workers_restarted": 1,
        "restart_backoff_seconds": 0.5,
        "revisions": [2],
        "revision_consistent": True,
        "decisions": {"served": 15, "batches": 8, "blocked": 5, "reloads": 2},
        "cache": {"hits": 7, "misses": 8, "hit_rate": 7 / 15, "entries": 8},
        "latency": {
            "observed": 15,
            "window": 3,
            "mean_ms": pytest.approx(2.0),
            "p50_ms": pytest.approx(2.0),
            "p99_ms": pytest.approx(3.0),
        },
    }
    row = [
        "worker", "pid", "revision", "served", "batches", "blocked",
        "reloads", "cache_hits", "cache_misses",
    ]
    assert series_names(prometheus_from_dict(merged)) == [
        *(f"trackersift_workers_0_{name}" for name in row),
        *(f"trackersift_workers_1_{name}" for name in row),
        "trackersift_worker_pids_0",
        "trackersift_worker_pids_1",
        "trackersift_workers_spawned",
        "trackersift_workers_alive",
        "trackersift_workers_restarted",
        "trackersift_restart_backoff_seconds",
        "trackersift_revisions_0",
        "trackersift_revision_consistent",
        "trackersift_decisions_served",
        "trackersift_decisions_batches",
        "trackersift_decisions_blocked",
        "trackersift_decisions_reloads",
        "trackersift_cache_hits",
        "trackersift_cache_misses",
        "trackersift_cache_hit_rate",
        "trackersift_cache_entries",
        "trackersift_latency_observed",
        "trackersift_latency_window",
        "trackersift_latency_mean_ms",
        "trackersift_latency_p50_ms",
        "trackersift_latency_p99_ms",
    ]
