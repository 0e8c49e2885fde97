#!/usr/bin/env python3
"""Sample the study's resident memory stage by stage, in fresh processes.

    python scripts/study_peak_stages.py

Runs the repo benchmark's study shape (``benchmarks/perf/rep.py``: seed
7, 2,000 sites, 13 shards, set-up = ``import repro`` plus
``FilterListOracle()``) twice, first with ``workers=1`` (the ``study``
workload) and then with ``workers=2`` (``study-fanout``), each in a new
interpreter.  After each stage it reads ``VmRSS`` (resident now) and
``VmHWM`` (the peak so far) of the study process from
``/proc/self/status``:

* ``setup``  — ``import repro`` and the oracle;
* ``generate`` — the synthetic web;
* ``shards`` — every shard crawled (or fanned out) and stored;
* ``run``    — ``run()``: merge, sift and report.

After ``shards`` and ``run`` it also prints the entry count of the
oracle's decision cache, the largest block the study holds after the
plan.  With ``workers=2`` the numbers are the parent's; its shard
workers are separate processes that decide through their own caches.
Evidence, not a gate: there are no options, and the exit status is 0
unless a run fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEED = 7
SITES = 2_000
SHARDS = 13
STAGES = ("setup", "generate", "shards", "run")


def _memory_mb() -> tuple[float, float]:
    """``(VmRSS, VmHWM)`` of this process, in MB."""
    fields = {}
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            name, _, value = line.partition(":")
            if name in ("VmRSS", "VmHWM"):
                fields[name] = int(value.split()[0]) / 1024.0
    return fields["VmRSS"], fields["VmHWM"]


def _study(workers: int) -> dict:
    """One study in this (fresh) process; memory after each stage, and
    the decision cache's entry count after ``shards`` and ``run``."""
    samples = {}
    entries = {}
    import repro
    from repro.filterlists.oracle import FilterListOracle

    oracle = FilterListOracle()
    samples["setup"] = _memory_mb()
    pipeline = repro.StreamingPipeline(
        repro.PipelineConfig(sites=SITES, seed=SEED),
        shards=SHARDS,
        workers=workers,
        oracle=oracle,
    )
    web = pipeline.generate()
    samples["generate"] = _memory_mb()
    pipeline.process_shards(web)
    samples["shards"] = _memory_mb()
    entries["shards"] = len(oracle.matcher)
    result = pipeline.run(web)
    samples["run"] = _memory_mb()
    entries["run"] = len(oracle.matcher)
    return {
        "samples": samples,
        "cache_entries": entries,
        "labeled_requests": int(result.notes["labeled_requests"]),
        "distinct_resources": int(result.notes["distinct_resources"]),
    }


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        sys.stdout.write(json.dumps(_study(int(sys.argv[2]))) + "\n")
        return 0
    if len(sys.argv) > 1:
        sys.stderr.write(f"usage: {sys.argv[0]} (takes no options)\n")
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    print(
        f"study memory by stage: seed {SEED}, {SITES:,} sites, "
        f"{SHARDS} shards, MB of the study process"
    )
    print(
        f"{'workers':<9}{'stage':<10}{'VmRSS':>9}{'VmHWM':>9}"
        f"{'cache entries':>15}"
    )
    for workers in (1, 2):
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(workers)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return 1
        record = json.loads(done.stdout)
        for stage in STAGES:
            rss, hwm = record["samples"][stage]
            entries = record["cache_entries"].get(stage)
            count = "" if entries is None else f"{entries:,}"
            print(f"{workers:<9}{stage:<10}{rss:>9.1f}{hwm:>9.1f}{count:>15}")
        print(
            f"{'':<9}{record['labeled_requests']:,} labeled requests, "
            f"{record['distinct_resources']:,} distinct resources"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
