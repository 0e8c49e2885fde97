#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end metrics, a traced run.

    python3 benchmarks/perf/bench.py --seed 7                  # every workload
    python3 benchmarks/perf/bench.py --workload study --seed 7 --seconds 25 --trace 0
    python3 benchmarks/perf/bench.py --workload serve-open --seed 7 --trace
    python3 benchmarks/perf/bench.py --seed 7 --repeat 10      # spread, bounds
    python3 benchmarks/perf/bench.py --seed 7 --smoke          # ~15 s check

Every metric is printed as ``workload metric value unit``; the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): end-to-end metrics without ``--trace``,
per-layer metrics with it.  ``benchmarks/perf/out/result.json`` gets the
full record.  Exit status: 0 when every output checked out, 1 on any
correctness failure, 2 when the program's sources cannot be loaded.
See ``README.md`` next to this file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: Why each workload exists (also in ``BENCHMARK.json`` and the README).
WORKLOADS = {
    "study": "the paper's 2,000-site study as a CLI user runs it: "
             "generate, crawl, label, sift, report in a fresh process",
    "study-fanout": "the same study with 2 shard workers: the only "
                    "workload that runs the lease scheduler and artifact fan-out",
    "serve-open": "single-URL decides on a warm cache, open-loop and "
                  "pipelined: HTTP parsing, coalescing and encoding dominate",
    "serve-churn": "never-repeated 256-URL batches with a reload every "
                   "2 s: cache misses, the matcher and snapshot swaps dominate",
}

FULL = {"sites": 2_000, "trace_sites": 500, "rules": 12_000,
        "min_reps": 3, "max_reps": 12, "seconds": 25.0, "reload_every": 2.0}
SMOKE = {"sites": 150, "trace_sites": 40, "rules": 600,
         "min_reps": 1, "max_reps": 2, "seconds": 2.5, "reload_every": 0.5}


@dataclass
class Context:
    """One workload run's settings."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: dict
    expected: dict
    src: Path = SRC
    out: Path = OUT

    def child_env(self) -> dict:
        """Environment of a fresh program process (a study rep, a timed
        serve set-up): the program's sources on the path, and bytecode
        cached under ``out/`` (also where the environment asks Python
        not to write it), so set-up times imports as an installed
        program runs them instead of compiling every module each time."""
        env = dict(
            os.environ,
            PYTHONPATH=str(self.src),
            PYTHONPYCACHEPREFIX=str(self.out / "pycache"),
        )
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        return env


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="TrackerSift repo benchmark (see README.md here)."
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float,
                        help="measured time per workload run (default 25, "
                             "BENCHMARK.json's run_seconds, which the "
                             "benchmark harness passes; 2.5 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run each workload N times on seeds seed.."
                             "seed+N-1 and print median, spread and bound")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; checks correctness only")
    return parser


def _load_program() -> str:
    """Put the program's sources on the path; '' or why it failed."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"program sources not found under {SRC}"
    sys.path.insert(0, str(SRC))
    try:
        import repro  # noqa: F401
    except Exception as error:  # report any import failure, then exit 2
        return f"importing repro failed: {error!r}"
    return ""


def _expected(scale: dict) -> dict:
    pinned = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    return pinned["report_digest"].get(str(scale["sites"]), {})


def run_workload(name: str, args) -> "Outcome":
    import serving
    import studies
    from calibration import loop_s
    from outcome import Outcome

    scale = SMOKE if args.smoke else FULL
    ctx = Context(
        workload=name,
        seed=args.seed,
        seconds=args.seconds if args.seconds else scale["seconds"],
        trace=bool(args.trace),
        scale=scale,
        expected=_expected(scale),
    )
    ctx.out.mkdir(parents=True, exist_ok=True)
    runners = {
        "study": lambda c: studies.run(c, workers=1),
        "study-fanout": lambda c: studies.run(c, workers=2),
        "serve-open": serving.run_open,
        "serve-churn": serving.run_churn,
    }
    before = loop_s()
    try:
        outcome = runners[name](ctx)
    except Exception as error:  # a crashed workload is a failed run
        traceback.print_exc()
        outcome = Outcome(name)
        outcome.attempted += 1
        outcome.fail(f"workload crashed: {error!r}")
    # The host's speed before and after the run, to tell host drift
    # apart from a change in the program.
    outcome.detail("host.calibration_ms", before * 1e3, "ms")
    outcome.detail("host.calibration_end_ms", loop_s() * 1e3, "ms")
    return outcome


def _record(outcome, trace: bool) -> dict:
    return {
        **outcome.result(trace),
        "problems": outcome.problems,
        "end_to_end": outcome.metrics,
        "per_layer": outcome.layers,
        "details": {name: [value, unit] for name, value, unit in outcome.details},
    }


def run(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace)
    outcomes = []
    for name in names:
        outcome = run_workload(name, args)
        outcomes.append(outcome)
        for line in outcome.lines(trace):
            print(line, flush=True)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "result.json").write_text(
        json.dumps(
            {
                "seed": args.seed,
                "smoke": args.smoke,
                "trace": trace,
                "workloads": {o.workload: _record(o, trace) for o in outcomes},
            },
            indent=1,
            sort_keys=True,
        ),
        encoding="utf-8",
    )
    if len(outcomes) == 1:
        final = outcomes[0].result(trace)
    else:
        final = {
            "correct": all(o.correct for o in outcomes),
            "attempted": sum(max(1, o.attempted) for o in outcomes),
            "failed": sum(o.failed for o in outcomes),
            "metrics": {
                f"{o.workload}.{name}": entry
                for o in outcomes
                for name, entry in o.reported(trace).items()
            },
        }
    print(json.dumps(final, sort_keys=True), flush=True)
    return 0 if final["correct"] else 1


def repeat(args) -> int:
    """Run each workload ``args.repeat`` times on consecutive seeds, each
    in its own process, and print every metric's median, spread
    (quartile distance over median) and the bound that spread supports."""
    from stats import spread, suggest_bound

    names = [args.workload] if args.workload else list(WORKLOADS)
    report: dict = {}
    status = 0
    for name in names:
        values: dict[str, list[float]] = {}
        for offset in range(args.repeat):
            command = [
                sys.executable, str(HERE / "bench.py"), "--workload", name,
                "--seed", str(args.seed + offset), "--trace", str(args.trace),
            ]
            if args.seconds:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            if done.returncode != 0 or not result.get("correct"):
                status = 1
                print(f"{name} run seed={args.seed + offset} incorrect "
                      f"(exit {done.returncode})", flush=True)
            for metric, entry in result.get("metrics", {}).items():
                values.setdefault(metric, []).append(entry["value"])
            # The host's speed during this run, for reading the spread.
            record = json.loads((OUT / "result.json").read_text(encoding="utf-8"))
            details = record["workloads"][name]["details"]
            if "host.calibration_ms" in details:
                values.setdefault("host.calibration_ms", []).append(
                    details["host.calibration_ms"][0]
                )
        report[name] = {}
        for metric, series in values.items():
            q1, median, q3 = (
                statistics.quantiles(series, n=4) if len(series) > 1
                else (series[0],) * 3
            )
            row = {
                "values": series,
                "median": median,
                "iqr": q3 - q1,
                "spread": spread(series),
                "bound": suggest_bound(series),
            }
            report[name][metric] = row
            print(
                f"{name} {metric} median={median:.6g} iqr={row['iqr']:.6g} "
                f"spread={row['spread']:.4f} bound={row['bound']:.3f} "
                f"n={len(series)}",
                flush=True,
            )
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "repeat.json").write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="utf-8"
    )
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    problem = _load_program()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    # Temporary files of the benchmark and of every process it starts
    # (the fan-out's slice store, for one) stay inside the checkout.
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    if args.repeat:
        return repeat(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
