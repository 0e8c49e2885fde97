#!/bin/sh
# One-command gate for builders: the ROADMAP tier-1 suite, then the
# streaming/cache invariants on their own (fast, and loudly attributable
# when they break).  No make, no extra deps — plain sh + pytest.
set -eu

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: full suite (ROADMAP.md verify command) =="
python -m pytest -x -q

echo
echo "== tier1-marked invariants: equivalence + cache + resume =="
python -m pytest -q -m tier1

echo
echo "== compile smoke (compile → load → serve identity) =="
python scripts/compile_smoke.py

echo
echo "== matcher smoke (automaton vs reference walk identity) =="
python scripts/matcher_smoke.py
BENCH_SMOKE=1 python scripts/matcher_smoke.py

echo
echo "== no naked prints (library output goes through the CLI or obs console) =="
python scripts/lint_prints.py

echo
echo "== ledger smoke (batch vs streaming fingerprint chains via the CLI) =="
python scripts/ledger_smoke.py

echo
echo "== benchmark smoke (small scale; identity gates, wall-clock recorded) =="
BENCH_SMOKE=1 python -m pytest -q -p no:cacheprovider \
    benchmarks/bench_streaming.py \
    benchmarks/bench_parallel.py \
    benchmarks/bench_artifacts.py \
    benchmarks/bench_obs.py \
    benchmarks/bench_chaos.py \
    "benchmarks/bench_matcher.py::test_lazy_construction_beats_eager_compilation" \
    "benchmarks/bench_matcher.py::test_matcher_core_gates"

echo
echo "== repo benchmark: its own tests, then a smoke run (pinned 150-site digest, serve identity) =="
python -m pytest -q -p no:cacheprovider benchmarks/perf
python3 benchmarks/perf/bench.py --seed 7 --smoke

echo
echo "== chaos smoke (env-injected faults, quarantine, fleet self-heal) =="
python scripts/chaos_smoke.py

echo
echo "== loop smoke (sift -> rulegen -> validation -> hot reload, adversary replayed) =="
python scripts/loop_smoke.py

echo
echo "== arms-race gate smoke (recovery, drift immunity, per-revision identity) =="
BENCH_SMOKE=1 python -m pytest -q -p no:cacheprovider \
    benchmarks/bench_loop.py

echo
echo "== serve smoke (start server, decide, hot reload, shut down) =="
BENCH_SMOKE=1 python -m pytest -q -p no:cacheprovider \
    benchmarks/bench_serve.py

echo
echo "== multi-process serve smoke (2 workers, reload mid-load, identity-checked) =="
python scripts/serve_mp_smoke.py

echo
echo "== scenario matrix smoke (fast packs x every execution path, golden-pinned) =="
BENCH_SMOKE=1 python -m pytest -q -p no:cacheprovider \
    benchmarks/bench_scenarios.py

echo
echo "== bench artifact schema (tracked + smoke outputs) =="
python scripts/validate_bench.py benchmarks/output/BENCH_*.json \
    benchmarks/output/smoke-BENCH_*.json

echo
echo "All checks passed."
