#!/usr/bin/env python3
"""Validate ``BENCH_*.json`` artifacts against the shared bench schema.

Every machine-readable bench artifact (tracked full-scale runs and the
``smoke-`` outputs ``scripts/check.sh`` produces) must be diffable across
PRs without per-bench knowledge, so they share a minimal contract:

* top level: ``bench`` (non-empty str), ``sites`` (positive int),
  ``seed`` (int), ``smoke`` (bool) — the scale stamp that stops numbers
  being compared across scales blindly;
* optional ``gates``: a mapping of gate name to an object with
  ``enforced`` (bool); a gate that is *not* enforced must say why in a
  non-empty ``skip_reason`` — silent ``enforced: false`` reads as a pass
  and has already hidden a 0.96x "speedup" for a whole PR cycle;
* any present ``achieved`` / ``required_*`` / ``max_*`` gate fields must
  be numbers;
* optional ``latency`` / ``batch`` / ``rss``: non-empty mappings of
  measurement name to a number (per-decision microseconds, speedup
  ratios, per-worker resident-set bytes) — the matching-core bench
  records its walk/automaton latencies and batch-vs-looped numbers here,
  and the artifacts bench its per-process memory footprints, so they
  stay diffable across PRs;
* optional ``scenarios``: a non-empty mapping of pack name to an object
  with ``skipped`` (bool); a pack that *is* skipped must say why in a
  non-empty ``skip_reason`` — a scenario silently missing from the
  matrix reads as covered when it was not;
* optional ``trace_overhead``: the observability cost record — must
  carry numeric ``baseline_seconds``, ``instrumented_seconds``, and
  ``overhead_ratio`` (instrumented/baseline), so the <5% tracing+ledger
  budget stays diffable across PRs;
* optional ``ledger``: the determinism-fingerprint record — ``stages``
  (non-empty list of strings) and ``chains_identical`` (bool); a
  non-identical chain must name its ``first_divergence`` in a non-empty
  string, mirroring the skip_reason rule: divergence must fail loudly;
* optional ``loop``: the arms-race record (``BENCH_loop.json``) —
  ``rounds`` (positive int), ``trajectory`` (non-empty list of numbers:
  post-reload tracking coverage per revision), and the boolean verdicts
  ``recovery_ok`` / ``drift_zero_drop`` / ``functional_zero`` /
  ``roundtrip_ok`` / ``identity_ok``; any ``False`` verdict must name
  its ``failure_reason`` in a non-empty string — a silently failed
  recovery reads as the loop having won the race when it lost;
* the artifacts bench (``bench: "artifacts"``) carries a positive
  integer ``artifact_bytes`` and numeric ``readiness_from_text_seconds``
  / ``readiness_from_artifact_seconds`` (both timed through the first
  decision); when it carries ``rss``, the cold-RSS gate's denominator is
  ``rss.text_cold_bytes`` — a matcher built from list text;
* optional ``faults``: the chaos-injection record (``BENCH_chaos.json``)
  — ``injected`` (a non-empty mapping of fault kind to a non-negative
  count, at least one positive), ``quarantined`` (int >= 0), and
  ``identical_under_faults`` (bool); a run that was *not* identical
  under faults must name its ``first_divergence`` in a non-empty string.

Usage: ``python scripts/validate_bench.py benchmarks/output/BENCH_*.json``
Exits non-zero listing every violation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

NUMERIC_GATE_FIELDS = ("achieved",)
NUMERIC_GATE_PREFIXES = ("required_", "max_", "min_")


def validate_bench(payload: dict, name: str) -> list[str]:
    """All schema violations in one bench payload (empty when valid)."""
    problems: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            problems.append(f"{name}: {message}")

    check(isinstance(payload, dict), "top level must be a JSON object")
    if not isinstance(payload, dict):
        return problems
    bench = payload.get("bench")
    check(
        isinstance(bench, str) and bench != "",
        "'bench' must be a non-empty string",
    )
    check(
        isinstance(payload.get("sites"), int) and payload.get("sites", 0) > 0,
        "'sites' must be a positive integer",
    )
    check(isinstance(payload.get("seed"), int), "'seed' must be an integer")
    check(isinstance(payload.get("smoke"), bool), "'smoke' must be a boolean")

    for section in ("latency", "batch", "rss"):
        measurements = payload.get(section)
        if measurements is None:
            continue
        check(
            isinstance(measurements, dict) and measurements,
            f"'{section}' must be a non-empty object",
        )
        if isinstance(measurements, dict):
            for measure_name, value in measurements.items():
                check(
                    isinstance(value, (int, float))
                    and not isinstance(value, bool),
                    f"{section}[{measure_name!r}] must be a number, "
                    f"got {value!r}",
                )

    trace_overhead = payload.get("trace_overhead")
    if trace_overhead is not None:
        check(
            isinstance(trace_overhead, dict),
            "'trace_overhead' must be an object",
        )
        if isinstance(trace_overhead, dict):
            for field in (
                "baseline_seconds",
                "instrumented_seconds",
                "overhead_ratio",
            ):
                value = trace_overhead.get(field)
                check(
                    isinstance(value, (int, float))
                    and not isinstance(value, bool),
                    f"trace_overhead.{field} must be a number, got {value!r}",
                )

    ledger = payload.get("ledger")
    if ledger is not None:
        check(isinstance(ledger, dict), "'ledger' must be an object")
        if isinstance(ledger, dict):
            stages = ledger.get("stages")
            check(
                isinstance(stages, list)
                and stages
                and all(isinstance(s, str) and s for s in stages),
                "ledger.stages must be a non-empty list of stage names",
            )
            identical = ledger.get("chains_identical")
            check(
                isinstance(identical, bool),
                "ledger.chains_identical must be a boolean",
            )
            if identical is False:
                divergence = ledger.get("first_divergence")
                check(
                    isinstance(divergence, str) and divergence.strip() != "",
                    "ledger chains diverged but carry no first_divergence — "
                    "divergence must fail loudly",
                )

    loop = payload.get("loop")
    if loop is not None:
        check(isinstance(loop, dict), "'loop' must be an object")
        if isinstance(loop, dict):
            rounds = loop.get("rounds")
            check(
                isinstance(rounds, int)
                and not isinstance(rounds, bool)
                and rounds > 0,
                "loop.rounds must be a positive integer",
            )
            trajectory = loop.get("trajectory")
            check(
                isinstance(trajectory, list)
                and trajectory
                and all(
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    for value in trajectory
                ),
                "loop.trajectory must be a non-empty list of numbers",
            )
            verdicts = (
                "recovery_ok",
                "drift_zero_drop",
                "functional_zero",
                "roundtrip_ok",
                "identity_ok",
            )
            for field in verdicts:
                check(
                    isinstance(loop.get(field), bool),
                    f"loop.{field} must be a boolean",
                )
            if any(loop.get(field) is False for field in verdicts):
                reason = loop.get("failure_reason")
                check(
                    isinstance(reason, str) and reason.strip() != "",
                    "a failed loop verdict carries no failure_reason — a "
                    "silent loss reads as the loop having won the race",
                )

    faults = payload.get("faults")
    if faults is not None:
        check(isinstance(faults, dict), "'faults' must be an object")
        if isinstance(faults, dict):
            injected = faults.get("injected")
            check(
                isinstance(injected, dict)
                and injected
                and all(
                    isinstance(count, int)
                    and not isinstance(count, bool)
                    and count >= 0
                    for count in injected.values()
                )
                and any(count > 0 for count in injected.values()),
                "faults.injected must be a non-empty mapping of fault kind "
                "to a non-negative count, with at least one fault injected",
            )
            quarantined = faults.get("quarantined")
            check(
                isinstance(quarantined, int)
                and not isinstance(quarantined, bool)
                and quarantined >= 0,
                "faults.quarantined must be a non-negative integer",
            )
            identical = faults.get("identical_under_faults")
            check(
                isinstance(identical, bool),
                "faults.identical_under_faults must be a boolean",
            )
            if identical is False:
                divergence = faults.get("first_divergence")
                check(
                    isinstance(divergence, str) and divergence.strip() != "",
                    "faults changed the output but carry no first_divergence "
                    "— chaos divergence must fail loudly",
                )

    scenarios = payload.get("scenarios")
    if scenarios is not None:
        check(
            isinstance(scenarios, dict) and scenarios,
            "'scenarios' must be a non-empty object",
        )
        if isinstance(scenarios, dict):
            for pack_name, cell in scenarios.items():
                where = f"scenarios[{pack_name!r}]"
                if not isinstance(cell, dict):
                    problems.append(f"{name}: {where} must be an object")
                    continue
                skipped = cell.get("skipped")
                check(
                    isinstance(skipped, bool),
                    f"{where}.skipped must be a boolean",
                )
                if skipped is True:
                    reason = cell.get("skip_reason")
                    check(
                        isinstance(reason, str) and reason.strip() != "",
                        f"{where} is skipped but carries no skip_reason — "
                        "skipped packs must fail loudly",
                    )

    if bench == "artifacts":
        artifact_bytes = payload.get("artifact_bytes")
        check(
            isinstance(artifact_bytes, int)
            and not isinstance(artifact_bytes, bool)
            and artifact_bytes > 0,
            "artifact_bytes must be a positive integer",
        )
        for field in (
            "readiness_from_text_seconds",
            "readiness_from_artifact_seconds",
        ):
            value = payload.get(field)
            check(
                isinstance(value, (int, float)) and not isinstance(value, bool),
                f"{field} must be a number, got {value!r}",
            )
        rss = payload.get("rss")
        if isinstance(rss, dict):
            check(
                "text_cold_bytes" in rss,
                "rss.text_cold_bytes (the cold-RSS denominator) is missing",
            )

    gates = payload.get("gates")
    if gates is None:
        return problems
    check(isinstance(gates, dict), "'gates' must be an object")
    if not isinstance(gates, dict):
        return problems
    for gate_name, gate in gates.items():
        where = f"gates[{gate_name!r}]"
        if not isinstance(gate, dict):
            problems.append(f"{name}: {where} must be an object")
            continue
        enforced = gate.get("enforced")
        check(isinstance(enforced, bool), f"{where}.enforced must be a boolean")
        if enforced is False:
            reason = gate.get("skip_reason")
            check(
                isinstance(reason, str) and reason.strip() != "",
                f"{where} is not enforced but carries no skip_reason — "
                "skipped gates must fail loudly",
            )
        for field, value in gate.items():
            if field in NUMERIC_GATE_FIELDS or field.startswith(
                NUMERIC_GATE_PREFIXES
            ):
                check(
                    isinstance(value, (int, float)) and not isinstance(value, bool),
                    f"{where}.{field} must be a number, got {value!r}",
                )
    return problems


def main(argv: list[str]) -> int:
    if not argv:
        print(
            "usage: validate_bench.py BENCH_*.json [...]",
            file=sys.stderr,
        )
        return 2
    problems: list[str] = []
    checked = 0
    for raw in argv:
        path = Path(raw)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            problems.append(f"{path.name}: unreadable ({error})")
            continue
        problems.extend(validate_bench(payload, path.name))
        checked += 1
    if problems:
        for problem in problems:
            print(f"SCHEMA: {problem}", file=sys.stderr)
        print(
            f"validate_bench: {len(problems)} violation(s) across "
            f"{len(argv)} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"validate_bench: {checked} bench artifact(s) conform to the schema")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
