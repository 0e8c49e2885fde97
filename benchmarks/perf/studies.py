"""The ``study`` and ``study-fanout`` workloads.

Each rep is a fresh ``rep.py`` process (CLI users pay cold lazy set-up
on every study), so reps run one after another and the study process
has the second core to itself; ``study-fanout`` hands that core to its
two shard workers instead.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from outcome import Outcome, layer_metrics_from

HERE = Path(__file__).resolve().parent

#: Set-up takes about 0.1 s and comes in bursts of slow ones on a shared
#: host, so each rep is followed by set-up-only processes and ``setup_s``
#: is the median over all of them.
SETUP_PROBES_PER_REP = 2


def _rep(ctx, workers: int, *extra: str) -> tuple[dict | None, str]:
    """Run ``rep.py`` in a fresh process; its JSON record, or why not."""
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--seed", str(ctx.seed), "--sites", str(ctx.scale["sites"]),
        "--workers", str(workers), *extra,
    ]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, env=ctx.child_env(),
            timeout=150,
        )
    except subprocess.TimeoutExpired:
        return None, "rep timed out after 150 s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"rep exited {done.returncode}: {tail[0]}"
    return json.loads(done.stdout.strip().splitlines()[-1]), ""


def _digest_book(out: Path) -> dict:
    path = out / "digests.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def run(ctx, workers: int) -> Outcome:
    """Run reps for ``ctx.seconds`` (at least ``min_reps``), check
    them, and report metrics; with ``ctx.trace`` the last rep is traced."""
    outcome = Outcome(ctx.workload)
    reps: list[dict] = []
    setups: list[dict] = []
    walls: list[float] = []
    budget = ctx.seconds * (0.6 if ctx.trace else 1.0)
    started = time.perf_counter()
    while len(walls) < ctx.scale["max_reps"]:
        begun = time.perf_counter()
        record, error = _rep(ctx, workers)
        outcome.attempted += 1
        if record is None:
            outcome.fail(error)
        else:
            reps.append(record)
            setups.append(record)
        for _ in range(SETUP_PROBES_PER_REP):
            probe, error = _rep(ctx, workers, "--setup-only")
            outcome.attempted += 1
            if probe is None:
                outcome.fail(error)
            else:
                setups.append(probe)
        walls.append(time.perf_counter() - begun)
        elapsed = time.perf_counter() - started
        if (len(walls) >= ctx.scale["min_reps"]
                and elapsed + statistics.median(walls) > budget):
            break

    traced = None
    if ctx.trace:
        spans = ctx.out / f"spans-{ctx.workload}-seed{ctx.seed}.jsonl"
        traced, error = _rep(ctx, workers, "--spans", str(spans))
        outcome.attempted += 1
        if traced is None:
            outcome.fail(error)
        else:
            outcome.detail("trace.spans_file", str(spans), "path")

    _check(ctx, outcome, reps + ([traced] if traced else []))
    if not reps:
        return outcome

    study = [r["study_s"] for r in reps]
    median_study = statistics.median(study)
    outcome.metric("setup_s", statistics.median(r["setup_s"] for r in setups), "s")
    outcome.metric(
        "peak_rss_mb", statistics.median(r["peak_rss_mb"] for r in reps), "MB"
    )
    outcome.timing("study_s", median_study, "s")
    outcome.detail("study_s.min", min(study), "s")
    outcome.detail("study_s.max", max(study), "s")
    outcome.detail("study_s.n", len(study), "count")
    outcome.detail(
        "setup_s.raw", statistics.median(r["setup_raw_s"] for r in setups), "s"
    )
    outcome.detail("setup_s.n", len(setups), "count")
    outcome.detail("labeled_requests", reps[0]["labeled_requests"], "count")
    if traced is not None:
        _trace_metrics(outcome, traced, median_study)
    return outcome


def _check(ctx, outcome: Outcome, reps: list[dict]) -> None:
    """Each rep's report must match the reference digest and separate
    well, and the rep must not finish degraded; a rep that breaks any of
    these is one failed operation.  The reference is the digest pinned in
    ``expected.json`` for this seed, else the one an earlier study or
    study-fanout run of the seed recorded, else the first rep's."""
    if not reps:
        return
    book = _digest_book(ctx.out)
    key = f"{ctx.scale['sites']}:{ctx.seed}"
    pinned = ctx.expected.get(str(ctx.seed))
    if pinned is not None:
        reference, source = pinned, "pinned"
    elif key in book:
        reference, source = book[key], "from an earlier run of this seed"
    else:
        reference, source = reps[0]["fingerprint"], "from the first rep"
    for record in reps:
        problems = []
        if record["fingerprint"] != reference:
            problems.append(
                f"report digest {record['fingerprint']} != {source} {reference}"
            )
        if record["degraded"]:
            problems.append("the rep finished degraded (quarantined shards)")
        if record["final_separation"] < 0.95:
            problems.append(
                f"final separation {record['final_separation']:.4f} < 0.95"
            )
        if problems:
            outcome.fail("; ".join(problems))
    outcome.detail("report_digest", reps[0]["fingerprint"], "sha256")
    if not outcome.failed and key not in book:
        book[key] = reference
        ctx.out.mkdir(parents=True, exist_ok=True)
        (ctx.out / "digests.json").write_text(
            json.dumps(book, indent=1, sort_keys=True), encoding="utf-8"
        )


def _trace_metrics(outcome: Outcome, traced: dict, untraced_study: float) -> None:
    owner = str(traced["owner_pid"])
    rows = traced["layers"]
    metrics = layer_metrics_from(rows)
    root = rows.get(owner, {}).get("study.run", [1, 0.0, 0.0, 0])
    notes = traced["notes"]
    metrics.update(
        {
            "core.fanout_materialize_s": notes.get("fanout_materialize_seconds", 0.0),
            "core.fanout_bytes": notes.get("fanout_bytes", 0.0),
            "core.worker_startup_s": notes.get("worker_startup_seconds", 0.0),
            "core.worker_transfer_s": notes.get("worker_transfer_seconds", 0.0),
            "core.worker_compute_s": notes.get("worker_compute_seconds", 0.0),
            "core.lease_retries": notes.get("lease_retries", 0.0),
            "core.worker_peak_rss_mb": (
                traced["children_peak_rss_mb"] if notes.get("workers", 1) > 1
                else 0.0
            ),
            "trace.overhead_frac": traced["study_s"] / untraced_study - 1.0,
            "trace.unattributed_frac": root[2] / root[1] if root[1] else 0.0,
        }
    )
    outcome.layers.update(metrics)
    outcome.detail("trace.study_s", traced["study_s"], "s")
