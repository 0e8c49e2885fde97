#!/usr/bin/env python3
"""Time the serve boot stage by stage, each run in a fresh process.

    python scripts/serve_boot_stages.py [--runs 10]

Each run is a new interpreter pinned to one CPU that boots a server the
way the repo benchmark's serve workloads time it, through the
benchmark's own ``serving._lists`` and ``serving._healthy``
(``benchmarks/perf/serving.py``): parse the embedded lists plus the
seed-7 EasyList-shaped synthetic list at the benchmark's full rule
count (``inputs.easylist_shaped(7, bench.FULL["rules"])``), compile the
artifact, start one supervised worker, then poll ``/healthz`` until it
answers ok.  Imports happen before the clock starts, as in the
benchmark.  Printed per stage, in raw milliseconds (not scaled for host
speed): the median and the quartiles over the runs of

* ``parse``   — both embedded lists and the synthetic one;
* ``index``   — the ``artifact.index`` span of ``compile_lists``;
* ``compile`` — its ``artifact.compile`` span (encode and write);
* ``start``   — ``ServeSupervisor(artifact, workers=1).start()``;
* ``healthz`` — from ``start()`` returning to the first ok ``/healthz``;

plus how many collections the cyclic collector ran inside
``compile_lists`` and over the whole boot (and the time they took), and
whether ``start()`` loaded ``ctypes``.  Timing
only: there is no gate and the exit status is 0 unless a boot fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERF = ROOT / "benchmarks" / "perf"
STAGES = ("parse", "index", "compile", "start", "healthz")
#: The seed ``bench.py --seed 7`` builds the serve workloads' list from.
SEED = 7


def _boot(rules_path: str, artifact: str) -> dict:
    """One timed boot in this (fresh) process; stage times in ms."""
    import gc
    import time

    import serving
    from repro.filterlists.compile import compile_lists
    from repro.obs.trace import Tracer
    from repro.serve.supervisor import ServeSupervisor

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    text = Path(rules_path).read_text(encoding="utf-8")
    # Collections over the whole boot: (inside compile_lists?, seconds).
    collections: list[tuple[bool, float]] = []
    inside = [False]
    began = [0.0]

    def on_collect(phase: str, info: dict) -> None:
        if phase == "start":
            began[0] = time.perf_counter()
        else:
            collections.append((inside[0], time.perf_counter() - began[0]))

    ctypes_before = "ctypes" in sys.modules
    gc.callbacks.append(on_collect)
    started = time.perf_counter()
    lists = serving._lists(text)
    parsed = time.perf_counter()
    tracer = Tracer()
    with tracer.activate():
        inside[0] = True
        try:
            compile_lists(artifact, *lists)
        finally:
            inside[0] = False
    spans = {record.name: record.duration for record in tracer.records}
    before_start = time.perf_counter()
    supervisor = ServeSupervisor(artifact, workers=1).start()
    try:
        after_start = time.perf_counter()
        serving._healthy(supervisor)
        healthy = time.perf_counter()
        gc.callbacks.remove(on_collect)
        ctypes_loaded = not ctypes_before and "ctypes" in sys.modules
    finally:
        supervisor.shutdown()
    return {
        "parse": (parsed - started) * 1e3,
        "index": spans["artifact.index"] * 1e3,
        "compile": spans["artifact.compile"] * 1e3,
        "start": (after_start - before_start) * 1e3,
        "healthz": (healthy - after_start) * 1e3,
        "compile_collections": sum(1 for flag, _ in collections if flag),
        "boot_collections": len(collections),
        "collect_ms": sum(seconds for _, seconds in collections) * 1e3,
        "ctypes": ctypes_loaded,
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--child", nargs=2, metavar=("RULES", "ARTIFACT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        sys.stdout.write(json.dumps(_boot(*args.child)) + "\n")
        return 0
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    sys.path[:0] = [str(SRC), str(PERF)]
    import bench
    import inputs

    rule_count = bench.FULL["rules"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(PERF)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="serve-boot-stages-") as tmp:
        rules = Path(tmp) / "rules.txt"
        rules.write_text(
            inputs.easylist_shaped(SEED, rule_count), encoding="utf-8"
        )
        for _ in range(args.runs):
            done = subprocess.run(
                [sys.executable, __file__, "--child", str(rules),
                 str(Path(tmp) / "boot.tsoracle")],
                capture_output=True, text=True, env=env, timeout=120,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            runs.append(json.loads(done.stdout))

    print(
        f"serve boot stages: {args.runs} fresh process(es), seed {SEED}, "
        f"{rule_count} synthetic rules, raw ms on one CPU"
    )
    print(f"{'stage':<9}{'median':>9}{'q1':>9}{'q3':>9}")
    for stage in (*STAGES, "total"):
        values = [
            sum(run[name] for name in STAGES) if stage == "total" else run[stage]
            for run in runs
        ]
        low, median, high = _quartiles(values)
        print(f"{stage:<9}{median:>9.1f}{low:>9.1f}{high:>9.1f}")
    for key, label in (
        ("compile_collections", "gc collections inside compile_lists"),
        ("boot_collections", "gc collections over the whole boot"),
        ("collect_ms", "ms spent collecting over the whole boot"),
    ):
        values = sorted(run[key] for run in runs)
        print(
            f"{label}: median {statistics.median(values):.3g} "
            f"(min {values[0]:.3g}, max {values[-1]:.3g})"
        )
    loaded = sum(run["ctypes"] for run in runs)
    print(f"start() loaded ctypes: {loaded}/{len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
