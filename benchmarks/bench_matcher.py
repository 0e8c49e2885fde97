"""Substrate performance: filter-matching and labeling throughput.

The labeling pass touches every crawled request, so matcher throughput is
what bounds 100K-site-scale studies.  Compares the token-indexed engine
against a brute-force scan to show the index matters, gates the lazy
regex compilation (building a matcher from a >= 10K-rule list must be
measurably faster than if every rule compiled eagerly), and gates the
matching core itself: at 12K rules the token-automaton decision path must
be at least 2x faster than the reference tokenize-then-probe walk
(``tests/reference_matcher.py``), and ``decide_many`` must beat looping
single decisions — while staying decision- and attribution-identical to
both.
"""

import random
import sys
import time
from pathlib import Path

from repro.filterlists.cache import CachedMatcher
from repro.filterlists.lists import default_lists
from repro.filterlists.matcher import FilterMatcher
from repro.filterlists.oracle import FilterListOracle
from repro.filterlists.parser import parse_filter_list
from repro.filterlists.rules import RequestContext

from conftest import BENCH_SEED, BENCH_SMOKE, write_artifact, write_json_artifact

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from reference_matcher import ReferenceMatcher  # noqa: E402


def _request_urls(study, limit=5_000):
    return [r.url for r in study.labeled.requests[:limit]]


def test_indexed_matcher_throughput(benchmark, study):
    oracle = FilterListOracle()
    urls = _request_urls(study)

    def run():
        return sum(1 for url in urls if oracle.matcher.wrapped.should_block_url(url))

    blocked = benchmark(run)
    assert 0 < blocked < len(urls)


def test_brute_force_matcher_throughput(benchmark, study, output_dir):
    easylist, easyprivacy = default_lists()
    rules = [
        r for r in easylist.rules + easyprivacy.rules if r.supported
    ]
    blocking = [r for r in rules if not r.is_exception]
    exceptions = [r for r in rules if r.is_exception]
    urls = _request_urls(study)

    def run():
        blocked = 0
        for url in urls:
            context = RequestContext(url=url)
            if any(r.matches(context) for r in blocking) and not any(
                r.matches(context) for r in exceptions
            ):
                blocked += 1
        return blocked

    brute_blocked = benchmark(run)
    indexed = FilterMatcher(rules)
    indexed_blocked = sum(1 for url in urls if indexed.should_block_url(url))
    assert brute_blocked == indexed_blocked

    write_artifact(
        output_dir,
        "matcher.txt",
        "Filter matcher: indexed and brute-force agree on "
        f"{len(urls):,} URLs ({indexed_blocked:,} blocked). See "
        "pytest-benchmark output for the throughput gap.\n",
    )


def test_full_labeling_throughput(benchmark, study):
    from repro.labeling.labeler import RequestLabeler

    labeler = RequestLabeler()
    crawl = benchmark(labeler.label_crawl, study.database)
    assert crawl.requests


# -- lazy compilation gate ----------------------------------------------------

LARGE_LIST_RULES = 12_000


def _large_list_text(count: int = LARGE_LIST_RULES) -> str:
    """An EasyList-shaped synthetic list: mostly host anchors, plus path
    fragments, options and exceptions, so it exercises every index tier."""
    lines = []
    for index in range(count):
        kind = index % 6
        if kind in (0, 1, 2):  # host anchors dominate real lists
            lines.append(f"||tracker{index}.example{index % 97}.com^")
        elif kind == 3:
            lines.append(f"/pixel{index}/*")
        elif kind == 4:
            lines.append(f"-banner{index}-$image,third-party")
        else:
            lines.append(f"@@||cdn{index}.example{index % 97}.com^$script")
    return "\n".join(lines)


def test_lazy_construction_beats_eager_compilation(output_dir):
    """Gate: matcher construction from a >= 10K-rule list no longer pays
    regex compilation.  The eager equivalent is reconstructed explicitly
    (build, then force-compile every rule), so the gate measures exactly
    the cost laziness removed."""
    text = _large_list_text()

    started = time.perf_counter()
    parsed = parse_filter_list(text, name="large")
    matcher = FilterMatcher.from_lists(parsed)
    lazy_seconds = time.perf_counter() - started
    assert matcher.rule_count >= 10_000

    started = time.perf_counter()
    compiled = 0
    for rule in parsed.rules:
        if not rule.regex_compiled:
            rule.regex  # materialize — what eager __init__ used to do
            compiled += 1
    compile_all_seconds = time.perf_counter() - started
    eager_seconds = lazy_seconds + compile_all_seconds

    # Sanity: the matcher really is lazy (host-anchor rules in particular
    # must never have compiled during construction or matching).
    assert compiled >= matcher.fast_path_rule_count > matcher.rule_count * 0.4

    artifact = (
        f"Matcher construction — {matcher.rule_count:,} rules "
        f"({matcher.fast_path_rule_count:,} on the host fast path)\n"
        f"lazy (shipped):     {lazy_seconds * 1e3:8.1f} ms\n"
        f"eager (equivalent): {eager_seconds * 1e3:8.1f} ms "
        f"(+{compile_all_seconds * 1e3:.1f} ms compiling "
        f"{compiled:,} regexes)\n"
        f"construction speedup: {eager_seconds / lazy_seconds:.2f}x\n"
    )
    write_artifact(output_dir, "matcher_construction.txt", artifact)
    print("\n" + artifact)

    # "Measurably faster": dropping compilation must at least halve
    # construction time at this scale (it is ~5x+ in practice).
    assert eager_seconds >= lazy_seconds * 2.0


# -- matching-core gates ------------------------------------------------------


def _decision_workload(rule_count: int, size: int) -> list:
    """A seeded URL mix over the synthetic list: host-anchor hits,
    exception-covered CDN fetches, path-token hits (pixel/banner), and
    clean URLs that select no bucket at all (the common case real
    traffic is dominated by)."""
    rng = random.Random(BENCH_SEED)
    urls = []
    for _ in range(size):
        n = rng.randrange(rule_count)
        kind = rng.randrange(5)
        if kind == 0:
            urls.append(
                f"https://tracker{n}.example{n % 97}.com"
                f"/asset/{rng.randrange(1000)}.js"
            )
        elif kind == 1:
            urls.append(
                f"https://cdn{n}.example{n % 97}.com"
                f"/lib/{rng.randrange(1000)}.js"
            )
        elif kind == 2:
            urls.append(f"https://site{n}.example/pixel{n}/p.gif")
        elif kind == 3:
            urls.append(f"https://site{n}.example/img-banner{n}-x.png")
        else:
            urls.append(
                f"https://clean{n}.example/assets/app-{rng.randrange(10**6)}.js"
            )
    return urls


def _best_of(func, reps: int = 5) -> float:
    """Min wall-clock over ``reps`` runs — the standard noise floor."""
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return best


def test_matcher_core_gates(output_dir):
    """The tentpole's performance contract, measured and gated.

    Identity always holds (any scale): the automaton path and the
    reference walk agree on every decision *and* attribute it to the same
    rule object, and ``decide_many`` equals looping ``match``.  The
    wall-clock gates — decision speedup >= 2x at 12K rules, batch beats
    looped — enforce only at full scale; ``BENCH_SMOKE=1`` records them
    as measurements (``enforced: false`` + reason) so CI stays
    hardware-independent.
    """
    rule_count = 2_000 if BENCH_SMOKE else LARGE_LIST_RULES
    url_count = 1_000 if BENCH_SMOKE else 6_000
    text = _large_list_text(rule_count)
    parsed = parse_filter_list(text, name="large")
    fast = FilterMatcher.from_lists(parsed)
    walk = ReferenceMatcher.from_lists(parsed)

    urls = _decision_workload(rule_count, url_count)
    contexts = [RequestContext(url=url) for url in urls]

    # Identity: same decisions, same rule objects (the indexes share the
    # parsed rules, so attribution can be compared with ``is``).
    walk_results = [walk.match(context) for context in contexts]
    fast_results = [fast.match(context) for context in contexts]
    blocked = 0
    for fast_result, walk_result in zip(fast_results, walk_results):
        assert fast_result.blocked == walk_result.blocked
        assert fast_result.rule is walk_result.rule
        assert fast_result.exception is walk_result.exception
        blocked += fast_result.blocked
    assert 0 < blocked < len(urls)
    assert fast.decide_many(urls) == fast_results

    # Latency: per-decision (prebuilt contexts isolate the match path),
    # then batch against the caller-visible alternative (loop building a
    # context per URL — what every decide_many call site replaces).
    walk_seconds = _best_of(lambda: [walk.match(c) for c in contexts])
    fast_seconds = _best_of(lambda: [fast.match(c) for c in contexts])
    looped_seconds = _best_of(
        lambda: [fast.match(RequestContext(url=url)) for url in urls]
    )
    batch_seconds = _best_of(lambda: fast.decide_many(urls))

    cached = CachedMatcher(fast)
    # warm: steady-state is the all-hit regime
    cached.match_many([RequestContext(url=url) for url in urls])
    cached_looped_seconds = _best_of(
        lambda: [cached.match(RequestContext(url=url)) for url in urls]
    )
    cached_batch_seconds = _best_of(
        lambda: cached.match_many([RequestContext(url=u) for u in urls])
    )

    count = len(urls)
    decision_speedup = walk_seconds / fast_seconds
    batch_speedup = looped_seconds / batch_seconds
    cached_batch_speedup = cached_looped_seconds / cached_batch_seconds

    artifact = (
        f"Matching core — {fast.rule_count:,} rules, {count:,} URL "
        f"decisions ({blocked:,} blocked)\n"
        f"reference walk:   {walk_seconds / count * 1e6:8.2f} us/decision\n"
        f"token automaton:  {fast_seconds / count * 1e6:8.2f} us/decision "
        f"({decision_speedup:.2f}x)\n"
        f"looped singles:   {looped_seconds / count * 1e6:8.2f} us/decision\n"
        f"decide_many:      {batch_seconds / count * 1e6:8.2f} us/decision "
        f"({batch_speedup:.2f}x)\n"
        f"cached looped:    {cached_looped_seconds / count * 1e6:8.2f} "
        f"us/decision\n"
        f"cached batch:     {cached_batch_seconds / count * 1e6:8.2f} "
        f"us/decision ({cached_batch_speedup:.2f}x)\n"
    )
    write_artifact(output_dir, "matcher_core.txt", artifact)
    print("\n" + artifact)

    smoke_reason = (
        "BENCH_SMOKE=1: wall-clock gates are record-only at smoke scale"
    )
    gates = {
        "decision_speedup": {
            "achieved": decision_speedup,
            "required_min": 2.0,
            "enforced": not BENCH_SMOKE,
        },
        "batch_speedup": {
            "achieved": batch_speedup,
            "required_min": 1.0,
            "enforced": not BENCH_SMOKE,
        },
    }
    if BENCH_SMOKE:
        for gate in gates.values():
            gate["skip_reason"] = smoke_reason
    write_json_artifact(
        output_dir,
        "BENCH_matcher.json",
        {
            "bench": "matcher_core",
            "rules": fast.rule_count,
            "urls": count,
            "blocked": blocked,
            "latency": {
                "walk_us": walk_seconds / count * 1e6,
                "automaton_us": fast_seconds / count * 1e6,
            },
            "batch": {
                "looped_us": looped_seconds / count * 1e6,
                "decide_many_us": batch_seconds / count * 1e6,
                "cached_looped_us": cached_looped_seconds / count * 1e6,
                "cached_batch_us": cached_batch_seconds / count * 1e6,
                "cached_speedup": cached_batch_speedup,
            },
            "gates": gates,
        },
    )

    if not BENCH_SMOKE:
        assert decision_speedup >= 2.0, (
            f"automaton decision path only {decision_speedup:.2f}x over "
            f"the reference walk at {fast.rule_count:,} rules"
        )
        assert batch_speedup > 1.0, (
            f"decide_many ({batch_seconds / count * 1e6:.2f}us) does not "
            f"beat looped singles ({looped_seconds / count * 1e6:.2f}us)"
        )
