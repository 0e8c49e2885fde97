"""Compiled oracle artifacts: load speedup, fan-out identity, worker RSS.

Three gates anchor the compiled-artifact layer (PR 4, extended with the
mapped oracle image):

* **Readiness.**  Getting an oracle ready from a compiled ``.tsoracle``
  (``open_image``: validate + map; no parsing, no index construction)
  must be >= 5x faster than getting it ready from list text at EasyList
  scale (12K rules).  Both sides are timed *through the first decision*,
  so work either form defers (the automaton's scan tables, rule
  materialization) is charged where a caller pays it.  Measured as
  best-of-N on both sides so a scheduler hiccup on a busy CI box cannot
  decide the gate; under ``BENCH_SMOKE=1`` the ratio is recorded, not
  enforced, like every wall-clock gate in this suite — with the skip
  reason printed in the JSON and on stdout.
* **Identity.**  The fork-inherited fan-out must change *nothing*:
  for workers in {1, 2, 4} x shards in {1, 13}, every shard's
  ``ShardState.to_json()`` is byte-identical to the sequential run's.
  This gate is mandatory at every scale — speed that buys divergence is
  a bug, not a feature.

* **Cold RSS per worker.**  A serve worker that ``open_image``\\ s the
  artifact's memory-mapped oracle image must cost < 25% of the private
  memory a matcher built from list text costs — the mapped rule bytes
  are file-backed and shared across workers, so only the per-worker
  skeleton (token automaton, span tables) is private.  Measured with
  *two* concurrent image workers (file pages mapped by both count as
  shared, exactly the multi-process serving deployment) against one
  text-built worker and an import-only baseline, all via
  ``/proc/self/smaps_rollup``.  Not wall-clock dependent, so it is
  enforced even under ``BENCH_SMOKE=1``; it disarms (loudly) only where
  ``smaps_rollup`` does not exist.

The identity runs also surface the per-worker overhead breakdown
(transfer/startup/compute) the engine now measures, so the fan-out cost
the old ship-everything pickle hid is a number in the artifact, not a
guess.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.engine import PipelineConfig, StreamingPipeline
from repro.filterlists.compile import compile_lists, open_image
from repro.filterlists.matcher import FilterMatcher
from repro.filterlists.parser import parse_filter_list
from repro.filterlists.rules import RequestContext

from bench_matcher import _large_list_text
from conftest import (
    BENCH_SEED,
    BENCH_SITES,
    BENCH_SMOKE,
    _artifact_name,
    write_artifact,
    write_json_artifact,
)

READINESS_GATE = 5.0
PARSE_REPS = 3
LOAD_REPS = 9
IDENTITY_WORKERS = (1, 2, 4)
IDENTITY_SHARDS = (1, 13)
COLD_RSS_MAX_FRACTION = 0.25
SMAPS_ROLLUP = "/proc/self/smaps_rollup"


def _probe_urls():
    return [
        "https://tracker17.example17.com/a.js",
        "https://cdn23.example23.com/lib.js",
        "https://clean.example/app.js",
        "https://host.example/pixel33/1.gif",
        "https://x.example/-banner10-/ad.png",
    ]


def test_compiled_artifact_readiness_speedup(tmp_path, output_dir):
    import gc

    from repro.filterlists.parser import _OPTIONS_CACHE

    text = _large_list_text()
    first = RequestContext(url=_probe_urls()[0])

    parse_seconds = []
    for _ in range(PARSE_REPS):
        # Every rep is an honest cold parse: readiness-from-text in a
        # fresh process never starts with a warm options-interning cache.
        _OPTIONS_CACHE.clear()
        started = time.perf_counter()
        parsed = parse_filter_list(text, name="large")
        matcher = FilterMatcher.from_lists(parsed)
        matcher.match(first)
        parse_seconds.append(time.perf_counter() - started)
    path = tmp_path / "large.tsoracle"
    artifact_bytes = compile_lists(path, parsed)["bytes"]

    load_seconds = []
    opened = None
    for _ in range(LOAD_REPS):
        # Close (and free the previous open) *outside* the timed window
        # so the gate measures readiness, not our own loop's garbage.
        if opened is not None:
            opened.close()
        gc.collect()
        started = time.perf_counter()
        opened = open_image(path)
        opened.match(first)
        load_seconds.append(time.perf_counter() - started)

    # Identity probe: the opened image is the same oracle.
    for url in _probe_urls():
        context = RequestContext(url=url)
        ours = matcher.match(context)
        theirs = opened.match(context)
        assert ours.blocked == theirs.blocked, url
        assert (ours.rule.text if ours.rule else None) == (
            theirs.rule.text if theirs.rule else None
        ), url
    opened.close()

    best_parse = min(parse_seconds)
    best_load = min(load_seconds)
    speedup = best_parse / best_load
    enforced = not BENCH_SMOKE
    skip_reason = (
        None
        if enforced
        else "BENCH_SMOKE=1: wall-clock gates are record-only in smoke runs"
    )

    lines = [
        f"Compiled oracle artifact — {matcher.rule_count:,} rules, "
        f"{artifact_bytes:,} artifact bytes",
        f"readiness from text:     {best_parse * 1e3:8.1f} ms "
        f"(parse + index construction + first decision, best of {PARSE_REPS})",
        f"readiness from artifact: {best_load * 1e3:8.1f} ms "
        f"(validate + map + first decision, best of {LOAD_REPS})",
        f"load speedup: {speedup:.1f}x (gate: >= {READINESS_GATE}x, "
        + ("enforced" if enforced else f"SKIPPED — {skip_reason}")
        + ")",
    ]
    artifact_text = "\n".join(lines) + "\n"
    write_artifact(output_dir, "artifacts.txt", artifact_text)
    print("\n" + artifact_text)

    write_json_artifact(
        output_dir,
        "BENCH_artifacts.json",
        {
            "bench": "artifacts",
            "rules": matcher.rule_count,
            "artifact_bytes": artifact_bytes,
            "readiness_from_text_seconds": best_parse,
            "readiness_from_artifact_seconds": best_load,
            "gates": {
                "readiness_speedup": {
                    "required_speedup": READINESS_GATE,
                    "enforced": enforced,
                    "achieved": speedup,
                    "skip_reason": skip_reason,
                },
            },
        },
    )

    if enforced:
        assert speedup >= READINESS_GATE, (
            f"artifact readiness speedup {speedup:.2f}x below the "
            f"{READINESS_GATE}x gate"
        )


def test_fanout_identity_matrix(output_dir):
    """Mandatory: the fan-out is invisible in the output."""
    config = PipelineConfig(sites=BENCH_SITES, seed=BENCH_SEED)
    web = StreamingPipeline(config).generate()

    matrix = {}
    overheads = {}
    for shards in IDENTITY_SHARDS:
        states_by_workers = {}
        for workers in IDENTITY_WORKERS:
            engine = StreamingPipeline(config, shards=shards, workers=workers)
            result = engine.run(web)
            states_by_workers[workers] = [
                state.to_json() for state in engine.shard_states()
            ]
            if workers > 1:
                overheads[f"workers={workers},shards={shards}"] = {
                    key: result.notes.get(key, 0.0)
                    for key in (
                        "fanout_materialize_seconds",
                        "worker_startup_seconds",
                        "worker_transfer_seconds",
                        "worker_compute_seconds",
                    )
                }
        baseline = states_by_workers[1]
        assert len(baseline) == shards
        for workers in IDENTITY_WORKERS[1:]:
            assert states_by_workers[workers] == baseline, (
                f"shard states diverged at workers={workers}, shards={shards}"
            )
        matrix[str(shards)] = {
            "shards": shards,
            "identical_across_workers": True,
        }

    lines = [
        f"Fan-out identity — {BENCH_SITES} sites, seed {BENCH_SEED}: "
        f"workers {list(IDENTITY_WORKERS)} x shards {list(IDENTITY_SHARDS)} "
        "all byte-identical",
    ]
    for label, overhead in sorted(overheads.items()):
        lines.append(
            f"{label}: materialize "
            f"{overhead['fanout_materialize_seconds']:.3f}s, startup "
            f"{overhead['worker_startup_seconds']:.3f}s, transfer "
            f"{overhead['worker_transfer_seconds']:.3f}s, compute "
            f"{overhead['worker_compute_seconds']:.3f}s"
        )
    artifact_text = "\n".join(lines) + "\n"
    write_artifact(output_dir, "fanout_identity.txt", artifact_text)
    print("\n" + artifact_text)

    write_json_artifact(
        output_dir,
        "BENCH_fanout.json",
        {
            "bench": "fanout_identity",
            "workers": list(IDENTITY_WORKERS),
            "shard_counts": list(IDENTITY_SHARDS),
            "identity": matrix,
            "overhead": overheads,
            "gates": {
                "identity": {
                    "enforced": True,
                    "achieved": 1.0,
                    "skip_reason": None,
                },
            },
        },
    )


# -- cold RSS per image worker ------------------------------------------------

#: Child program for the RSS measurement: readies an oracle in one of
#: three modes (import only, built from list text, mapped image), signals
#: READY, then reports its private (non-shared) resident bytes once
#: *every* sibling is up — so the image workers' mapped file pages are
#: held by two processes and count as shared, the way a real
#: multi-worker deployment holds them.
_RSS_CHILD = r"""
import json, sys

mode, path, text_path = sys.argv[1], sys.argv[2], sys.argv[3]

def private_bytes():
    fields = {}
    with open("/proc/self/smaps_rollup") as handle:
        for line in handle:
            name, _, rest = line.partition(":")
            parts = rest.split()
            if parts and parts[-1] == "kB":
                fields[name.strip()] = int(parts[0]) * 1024
    return fields["Private_Clean"] + fields["Private_Dirty"]

probes = [
    "https://tracker17.example17.com/a.js",
    "https://cdn23.example23.com/lib.js",
    "https://clean.example/app.js",
]
import repro.filterlists.compile  # same import cost in every mode
if mode == "text":
    from repro.filterlists.matcher import FilterMatcher
    from repro.filterlists.parser import parse_filter_list
    with open(text_path, encoding="utf-8") as handle:
        matcher = FilterMatcher.from_lists(parse_filter_list(handle.read(), name="large"))
    matcher.decide_many(probes)
elif mode == "image":
    matcher = repro.filterlists.compile.open_image(path)
    matcher.decide_many(probes)

print("READY", flush=True)
sys.stdin.readline()  # parent says every sibling is up: measure now
print(json.dumps({"mode": mode, "private_bytes": private_bytes()}), flush=True)
sys.stdin.readline()  # hold the mapping until every sibling measured
"""


def test_cold_rss_per_image_worker(tmp_path, output_dir):
    """Gate (enforced even in smoke): an image worker's private memory is
    < 25% of a text-built worker's, over the 12K-rule artifact."""
    merged_name = _artifact_name("BENCH_artifacts.json")
    payload = json.loads(
        (output_dir / merged_name).read_text(encoding="utf-8")
    )

    supported = os.path.exists(SMAPS_ROLLUP)
    if not supported:
        payload.setdefault("gates", {})["cold_rss_per_worker"] = {
            "max_fraction": COLD_RSS_MAX_FRACTION,
            "enforced": False,
            "skip_reason": (
                f"DISARMED: {SMAPS_ROLLUP} does not exist on this platform; "
                "private-RSS accounting needs Linux smaps"
            ),
        }
        write_json_artifact(output_dir, "BENCH_artifacts.json", payload)
        pytest.skip(f"no {SMAPS_ROLLUP} on this platform")

    text_path = tmp_path / "large.txt"
    text_path.write_text(_large_list_text(), encoding="utf-8")
    artifact_path = tmp_path / "large.tsoracle"
    compile_lists(artifact_path, parse_filter_list(text_path.read_text(), name="large"))

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    modes = ["baseline", "text", "image", "image"]
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _RSS_CHILD, mode, str(artifact_path), str(text_path)],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        for mode in modes
    ]
    measured = {}
    try:
        for child in children:
            assert child.stdout.readline().strip() == "READY"
        for child in children:  # every sibling is up: measure
            child.stdin.write("measure\n")
            child.stdin.flush()
        reports = [json.loads(child.stdout.readline()) for child in children]
        for child in children:  # every sibling measured: release
            child.stdin.write("done\n")
            child.stdin.flush()
        for child in children:
            assert child.wait(timeout=30) == 0
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()

    baseline = reports[0]["private_bytes"]
    text_cold = reports[1]["private_bytes"] - baseline
    image_colds = [report["private_bytes"] - baseline for report in reports[2:]]
    image_cold = max(image_colds)  # gate on the worse worker
    assert text_cold > 0, "text-built worker measured no private memory"
    fraction = image_cold / text_cold

    measured = {
        "baseline_private_bytes": float(baseline),
        "text_cold_bytes": float(text_cold),
        "image_cold_bytes_worker0": float(image_colds[0]),
        "image_cold_bytes_worker1": float(image_colds[1]),
        "image_cold_fraction": fraction,
    }
    payload["rss"] = measured
    payload.setdefault("gates", {})["cold_rss_per_worker"] = {
        "max_fraction": COLD_RSS_MAX_FRACTION,
        "enforced": True,  # byte accounting, not wall clock: smoke too
        "achieved": fraction,
        "skip_reason": None,
    }
    write_json_artifact(output_dir, "BENCH_artifacts.json", payload)
    print(
        f"\ncold RSS per worker: image {image_cold / 1e6:.1f} MB private vs "
        f"text-built matcher {text_cold / 1e6:.1f} MB "
        f"({fraction:.1%}, gate < {COLD_RSS_MAX_FRACTION:.0%})"
    )
    assert fraction < COLD_RSS_MAX_FRACTION, (
        f"an image worker costs {fraction:.1%} of a text-built matcher "
        f"(gate < {COLD_RSS_MAX_FRACTION:.0%})"
    )
