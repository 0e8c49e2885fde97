"""Parallel shard workers vs sequential: speedup with identical output.

Runs the study-scale crawl through the streaming engine at worker counts
1, 2 and 4 (same web, same shard count) and measures wall-clock and the
label-cache counters.  Timing runs are **untraced** — ``tracemalloc``
slows the crawl several-fold and (on spawn platforms) would not even
follow the workers, so tracing while timing would corrupt both the
recorded trajectory and the speedup gate.  A separate traced pass
records the *parent process's* peak allocation (workers hold their own
copies; the field is named ``parent_peak_traced_mb`` accordingly — the
parent-side win is that shard states replace the retained crawl).

The engine's contract makes the comparison sharp: every worker count
must produce an identical ``SiftReport.summary()`` — the speedup buys
nothing away.

Gate: on hardware with >= 4 usable cores, ``workers=4`` must be >= 1.8x
faster than ``workers=1``; with >= 2 cores, ``workers=2`` must be >=
1.3x faster.  On fewer cores (or under ``BENCH_SMOKE=1``) the wall-clock
gate is recorded, not enforced — a process pool cannot beat a sequential
loop without cores to run on — but every skipped gate states its
``skip_reason`` in the JSON *and* on stdout (a silent ``enforced:
false`` reads as a pass), and the identity gate always applies.  Each
parallel run also records the engine's fan-out overhead breakdown
(parent-side materialization, per-worker startup, per-shard transfer,
compute), so the single-core overhead bound is accountable line by line.
Results land in ``output/BENCH_parallel.json`` so the perf trajectory is
trackable across PRs.
"""

import os
import time
import tracemalloc

from repro.core.engine import PipelineConfig, StreamingPipeline

from conftest import (
    BENCH_SEED,
    BENCH_SITES,
    BENCH_SMOKE,
    write_artifact,
    write_json_artifact,
)

SHARDS = 8
WORKER_COUNTS = (1, 2, 4)
SPEEDUP_GATES = {2: 1.3, 4: 1.8}
# Single-core collapse bound, tightened from the original 3.0: workers
# are forked after the parent indexes the pending shards' sites, so they
# inherit their slices and the oracle copy-on-write and non-compute
# overhead is process start-up plus the shipped-back results — the
# breakdown fields in the JSON attribute whatever remains.
OVERHEAD_MAX_RATIO = 2.5


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed_run(config, web, workers):
    """Untraced wall-clock measurement — what the gates compare."""
    started = time.perf_counter()
    result = StreamingPipeline(config, shards=SHARDS, workers=workers).run(web)
    return result, time.perf_counter() - started


def _parent_peak_mb(config, web, workers):
    """Parent-process peak traced allocation, measured in a separate
    (slower) pass so tracing never contaminates the timed runs."""
    tracemalloc.start()
    StreamingPipeline(config, shards=SHARDS, workers=workers).run(web)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak / 1e6


def test_parallel_workers_speedup(output_dir):
    config = PipelineConfig(sites=BENCH_SITES, seed=BENCH_SEED)
    web = StreamingPipeline(config).generate()
    cores = _usable_cores()

    runs = {}
    for workers in WORKER_COUNTS:
        result, elapsed = _timed_run(config, web, workers)
        runs[workers] = {
            "wall_seconds": elapsed,
            "cache_hit_rate": result.notes["label_cache_hit_rate"],
            "summary": result.report.summary(),
            "labeled_requests": int(result.notes["labeled_requests"]),
            # Fan-out overhead breakdown (parallel runs only): how the
            # wall-clock splits into parent-side materialization,
            # per-worker startup (compiled-oracle load), per-shard slice
            # transfer, and actual compute.
            "overhead": {
                key: result.notes.get(key)
                for key in (
                    "fanout_materialize_seconds",
                    "worker_startup_seconds",
                    "worker_transfer_seconds",
                    "worker_compute_seconds",
                )
            },
        }
    for workers in (1, 4):
        runs[workers]["parent_peak_traced_mb"] = _parent_peak_mb(
            config, web, workers
        )

    # The identity gate: speedup must change nothing observable.
    baseline = runs[1]["summary"]
    for workers in WORKER_COUNTS[1:]:
        assert runs[workers]["summary"] == baseline, f"workers={workers} diverged"
        assert runs[workers]["labeled_requests"] == runs[1]["labeled_requests"]

    speedups = {
        workers: runs[1]["wall_seconds"] / runs[workers]["wall_seconds"]
        for workers in WORKER_COUNTS
    }
    # A gate that cannot arm must say *why* — silence reads as a pass.
    gate_skip_reasons = {}
    for workers in SPEEDUP_GATES:
        if BENCH_SMOKE:
            gate_skip_reasons[workers] = (
                "BENCH_SMOKE=1: wall-clock gates are record-only in smoke runs"
            )
        elif cores < workers:
            gate_skip_reasons[workers] = (
                f"host has {cores} usable core(s); a {workers}-worker "
                f"speedup gate needs >= {workers} to be meaningful"
            )
        else:
            gate_skip_reasons[workers] = None
    gates_enforced = {
        workers: gate_skip_reasons[workers] is None for workers in SPEEDUP_GATES
    }
    # Without parallel hardware the only meaningful wall-clock bound is
    # that the pool does not collapse: bounded overhead over sequential.
    # Fork-inherited slices and oracle are what hold this down — the
    # breakdown below shows where the remaining overhead lives.
    overhead_ratio = runs[4]["wall_seconds"] / runs[1]["wall_seconds"]
    overhead_gate_enforced = not BENCH_SMOKE and not any(
        gates_enforced.values()
    )
    overhead_skip_reason = (
        None
        if overhead_gate_enforced
        else (
            "BENCH_SMOKE=1: pool startup dominates at smoke scale"
            if BENCH_SMOKE
            else f"{cores} cores armed a real speedup gate instead"
        )
    )

    lines = [
        f"Parallel shard workers — {BENCH_SITES} sites, seed {BENCH_SEED}, "
        f"{SHARDS} shards, {cores} usable core(s)",
        f"labeled requests: {runs[1]['labeled_requests']:,}",
    ]
    for workers in WORKER_COUNTS:
        run = runs[workers]
        peak = run.get("parent_peak_traced_mb")
        lines.append(
            f"workers={workers}: {run['wall_seconds']:6.2f}s "
            f"(speedup {speedups[workers]:4.2f}x)  "
            + (f"parent peak {peak:6.1f} MB  " if peak is not None else "")
            + f"cache hit rate {run['cache_hit_rate']:.1%}"
        )
        overhead = run["overhead"]
        if overhead["worker_compute_seconds"] is not None:
            lines.append(
                f"  overhead: materialize "
                f"{overhead['fanout_materialize_seconds']:.3f}s, "
                f"worker startup {overhead['worker_startup_seconds']:.3f}s, "
                f"transfer {overhead['worker_transfer_seconds']:.3f}s, "
                f"compute {overhead['worker_compute_seconds']:.3f}s"
            )
    lines.append("reports identical across all worker counts: yes")
    for workers, reason in sorted(gate_skip_reasons.items()):
        if reason is not None:
            lines.append(f"GATE SKIPPED (workers={workers} speedup): {reason}")
    if overhead_skip_reason is not None:
        lines.append(f"GATE SKIPPED (single_core_overhead): {overhead_skip_reason}")
    artifact = "\n".join(lines) + "\n"
    write_artifact(output_dir, "parallel.txt", artifact)
    print("\n" + artifact)

    write_json_artifact(
        output_dir,
        "BENCH_parallel.json",
        {
            "bench": "parallel",
            "shards": SHARDS,
            "usable_cores": cores,
            "labeled_requests": runs[1]["labeled_requests"],
            "runs": {
                str(workers): {
                    "wall_seconds": runs[workers]["wall_seconds"],
                    "parent_peak_traced_mb": runs[workers].get(
                        "parent_peak_traced_mb"
                    ),
                    "cache_hit_rate": runs[workers]["cache_hit_rate"],
                    "speedup_vs_sequential": speedups[workers],
                    "overhead": runs[workers]["overhead"],
                }
                for workers in WORKER_COUNTS
            },
            "gates": {
                **{
                    str(workers): {
                        "required_speedup": SPEEDUP_GATES[workers],
                        "enforced": gates_enforced[workers],
                        "achieved": speedups[workers],
                        "skip_reason": gate_skip_reasons[workers],
                    }
                    for workers in SPEEDUP_GATES
                },
                "single_core_overhead": {
                    "max_ratio": OVERHEAD_MAX_RATIO,
                    "enforced": overhead_gate_enforced,
                    "achieved": overhead_ratio,
                    "skip_reason": overhead_skip_reason,
                    # Accountability: the breakdown the ratio must answer
                    # to — parent materialize + worker startup + slice
                    # transfer at workers=4, in seconds.
                    "non_compute_overhead_seconds": (
                        (runs[4]["overhead"]["fanout_materialize_seconds"] or 0)
                        + (runs[4]["overhead"]["worker_startup_seconds"] or 0)
                        + (runs[4]["overhead"]["worker_transfer_seconds"] or 0)
                    ),
                },
            },
            "reports_identical": True,
        },
    )

    for workers, required in SPEEDUP_GATES.items():
        if gates_enforced[workers]:
            assert speedups[workers] >= required, (
                f"workers={workers} speedup {speedups[workers]:.2f}x "
                f"below the {required}x gate on {cores} cores"
            )
    if overhead_gate_enforced:
        # Smoke runs record this ratio (JSON above) but never enforce it;
        # at smoke scale pool startup dominates and the bound would flake.
        assert overhead_ratio <= OVERHEAD_MAX_RATIO, (
            f"workers=4 overhead {overhead_ratio:.2f}x over sequential "
            f"exceeds the single-core collapse bound"
        )
