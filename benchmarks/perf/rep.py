"""One study rep in a fresh process, as a CLI user runs a study.

Run by ``studies.py`` with ``PYTHONPATH`` pointing at the program's
sources; prints one JSON object on stdout.  Set-up (importing ``repro``
and building the filter-list oracle, scaled to the reference host speed
by :func:`calibration.timed_setup`) and the study (``run()``: generate,
crawl, label, sift, report) are timed separately; the report fingerprint
and the layer table are taken outside both.

    python3 rep.py --seed 7 --sites 2000 --workers 1 [--spans out.jsonl]
    python3 rep.py --seed 7 --sites 2000 --setup-only
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from calibration import timed_setup

#: Shards every study rep streams its sites through.
SHARDS = 13


def report_fingerprint(report) -> str:
    """Digest of a :class:`SiftReport`'s public content: totals and every
    level's per-resource counts and class."""
    from repro.obs.ledger import fingerprint

    # The same fields, in the same shape, as the run ledger's report
    # stage (``repro.core.engine._report_state``), read here from public
    # attributes only; keep the two in step.
    return fingerprint(
        {
            "total_requests": report.total_requests,
            "levels": [
                {
                    "granularity": level.granularity,
                    "resources": {
                        key: [
                            result.counts.tracking,
                            result.counts.functional,
                            result.resource_class.value,
                        ]
                        for key, result in level.resources.items()
                    },
                }
                for level in report.levels
            ],
        }
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sites", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--spans", default="")
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up, print it and stop")
    args = parser.parse_args()

    def setup():
        import repro  # noqa: F401  (what a CLI user's process imports)
        from repro.filterlists.oracle import FilterListOracle

        return FilterListOracle()

    oracle, setup_s, setup_raw_s = timed_setup(setup)
    if args.setup_only:
        sys.stdout.write(
            json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}) + "\n"
        )
        return 0
    import repro

    pipeline = repro.StreamingPipeline(
        repro.PipelineConfig(sites=args.sites, seed=args.seed),
        shards=SHARDS,
        workers=args.workers,
        oracle=oracle,
    )
    timer = None
    if args.spans:
        import layers

        timer = layers.install(layers.LayerTimer())
        started = time.perf_counter()
        with timer.span("study.run", sites=args.sites, seed=args.seed):
            result = pipeline.run()
        study_s = time.perf_counter() - started
    else:
        started = time.perf_counter()
        result = pipeline.run()
        study_s = time.perf_counter() - started

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    record = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "study_s": study_s,
        "peak_rss_mb": own,
        "children_peak_rss_mb": children,
        "fingerprint": report_fingerprint(result.report),
        "final_separation": result.report.final_separation,
        "labeled_requests": int(result.notes.get("labeled_requests", 0)),
        "pages_crawled": result.pages_crawled,
        "notes": {
            key: value for key, value in result.notes.items()
            if isinstance(value, (int, float))
        },
        "degraded": bool(result.notes.get("degraded")),
    }
    if timer is not None:
        import os

        record["owner_pid"] = os.getpid()
        record["layers"] = {
            str(pid): rows for pid, rows in timer.snapshot().items()
        }
        timer.write_spans(args.spans)
        timer.restore()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
