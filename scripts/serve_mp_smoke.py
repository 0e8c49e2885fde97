#!/usr/bin/env python3
"""Multi-process serve smoke, run by ``scripts/check.sh``.

End-to-end over the real multi-worker code path: compile two artifact
revisions, boot a 2-worker :class:`ServeSupervisor` sharing the mapped
boot image, drive decisions from a client thread while the supervisor
coordinates a reload *mid-load*, and check every answered decision —
including the ones that raced the swap — against the offline oracle of
the revision that answered it.  After the reload, a worker's Prometheus
``/metrics`` must be valid exposition with no series name repeated.
Finishes with a graceful shutdown that must report exit code 0 for
every worker.  Pure stdlib + repro, seconds to run — the cheap
guarantee that N processes serving one image stay decision-identical
through a coordinated swap.
"""

from __future__ import annotations

import http.client
import re
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.filterlists.compile import compile_lists, open_image  # noqa: E402
from repro.filterlists.parser import parse_filter_list  # noqa: E402
from repro.serve.client import BlockingClient  # noqa: E402
from repro.serve.service import default_lists  # noqa: E402
from repro.serve.supervisor import ServeSupervisor  # noqa: E402

HOTFIX_TEXT = "||hotfix-tracker.example^\n"
METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")

PROBE_URLS = [
    "https://doubleclick.net/pixel.gif",
    "https://hotfix-tracker.example/lib.js",  # flips at revision 2
    "https://sub.doubleclick.net/x.js",
    "https://functional.example/app.js",
    "https://criteo.com/t.js",
]


def check_prometheus(host: str, port: int) -> int:
    """Fetch a worker's Prometheus ``/metrics``; fail on an invalid or
    repeated series name (a scraper drops the whole scrape for either).
    Returns the number of series."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/metrics?format=prometheus")
        response = conn.getresponse()
        body = response.read().decode("utf-8")
    finally:
        conn.close()
    assert response.status == 200, (response.status, body)
    assert response.getheader("Content-Type", "").startswith("text/plain")
    typed: set[str] = set()
    series: set[str] = set()
    for line in body.splitlines():
        if line.startswith("# TYPE "):
            name = line.split()[2]
            assert name not in typed, f"repeated TYPE line: {line!r}"
            typed.add(name)
        elif line and not line.startswith("#"):
            name, _, value = line.partition(" ")
            assert METRIC_NAME.fullmatch(name), f"invalid name: {line!r}"
            assert name not in series, f"repeated series: {name!r}"
            float(value)
            series.add(name)
    assert "trackersift_decisions_served" in series, sorted(series)
    return len(series)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="trackersift-mp-smoke-") as tmp:
        boot = Path(tmp) / "boot.tsoracle"
        compile_lists(boot, *default_lists())
        hotfix = Path(tmp) / "hotfix.tsoracle"
        compile_lists(
            hotfix,
            *default_lists(),
            parse_filter_list(HOTFIX_TEXT, name="hotfix"),
        )

        # The offline truth per revision: what each artifact's oracle
        # says about every probe, independent of the serving stack.
        expected = {}
        for revision, artifact in ((1, boot), (2, hotfix)):
            with open_image(artifact) as matcher:
                expected[revision] = {
                    url: result.blocked
                    for url, result in zip(
                        PROBE_URLS, matcher.decide_many(PROBE_URLS)
                    )
                }
        assert expected[1] != expected[2], "hotfix must change a decision"

        supervisor = ServeSupervisor(boot, workers=2).start()
        try:
            decided: list[tuple[str, bool, int, int]] = []
            stop = threading.Event()

            def load() -> None:
                with BlockingClient(
                    supervisor.host, supervisor.port, timeout=30
                ) as client:
                    while not stop.is_set():
                        for url in PROBE_URLS:
                            decision = client.decide(url)
                            decided.append(
                                (
                                    url,
                                    decision["blocked"],
                                    decision["revision"],
                                    decision["worker"],
                                )
                            )

            loader = threading.Thread(target=load)
            loader.start()
            while len(decided) < 50:  # the swap happens mid-load
                time.sleep(0.005)
            report = supervisor.reload(hotfix)
            assert report["revision"] == 2, report
            assert sorted(w["pid"] for w in report["workers"]) == sorted(
                supervisor.worker_pids
            ), report
            while len(decided) < 200:  # keep racing the new snapshot
                time.sleep(0.005)
            stop.set()
            loader.join(timeout=30)
            assert not loader.is_alive(), "load thread hung"

            # Identity: every decision matches the offline oracle of the
            # revision that answered it — zero dropped, zero mislabeled.
            pids = set(supervisor.worker_pids)
            revisions_seen = set()
            for url, blocked, revision, worker in decided:
                assert blocked == expected[revision][url], (
                    url,
                    revision,
                    blocked,
                )
                assert worker in pids, (worker, pids)
                revisions_seen.add(revision)
            assert revisions_seen <= {1, 2}, revisions_seen
            assert 2 in revisions_seen, "no post-reload decision observed"

            # Fresh connections land on revision 2 only, and the merged
            # metrics view agrees the fleet converged.
            with BlockingClient(supervisor.host, supervisor.port) as client:
                fresh = client.decide(PROBE_URLS[1])
                assert fresh["revision"] == 2 and fresh["blocked"], fresh
            merged = supervisor.metrics()
            assert merged["revision_consistent"], merged
            series = check_prometheus(supervisor.host, supervisor.port)
        finally:
            codes = supervisor.shutdown()
        assert codes == [0, 0], codes
        print(
            f"serve_mp_smoke: {len(decided)} decisions across "
            f"{len(pids)} workers, reload mid-load identity-checked "
            f"(revisions {sorted(revisions_seen)}), {series} valid "
            f"Prometheus series, clean exit {codes}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
