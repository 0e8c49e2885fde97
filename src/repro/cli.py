"""Command-line runner: ``trackersift`` (or ``python -m repro``).

Subcommands mirror the paper's workflow plus the library's extensions:

* ``study``     — run the full pipeline and print Tables 1-2,
* ``sift``      — run the study through the execution engine; with
  ``--streaming`` it shards the crawl, labels through the memoized
  decision cache without materializing the database, checkpoints per
  shard (``--checkpoint-dir``) and prints the cache counters; with
  ``--workers N`` the shards crawl on N parallel processes (identical
  results for every worker count),
* ``figure3``   — print the ratio histograms,
* ``figure4``   — print the threshold-sensitivity curve (CSV),
* ``table3``    — run the breakage analysis sample,
* ``compare``   — paper-vs-measured shape comparison,
* ``rules``     — emit a generated filter list (finer-grained blocking),
* ``strategies``— score conservative / naive / TrackerSift policies,
* ``bootstrap`` — confidence intervals for the separation factors,
* ``export``    — dump the crawl database to JSONL or SQLite,
* ``serve``     — run the online blocking-decision service: the filter
  oracle behind an asyncio HTTP/1.1 JSON API (``--port``, ``--host``)
  with hot-reloadable list snapshots; ``--lists`` loads filter-list
  files in place of the embedded defaults, ``--artifact`` boots from a
  compiled ``.tsoracle`` without parsing anything, and ``--workers N``
  (with ``--artifact``) forks N asyncio serve workers sharing one
  memory-mapped oracle image (reload all workers with SIGHUP),
* ``compile``   — compile filter lists (``--lists``, or the embedded
  defaults) into a versioned, checksummed ``.tsoracle`` artifact
  (``--out``) that loads with no parsing or index construction — the
  fast path ``serve --artifact`` uses,
* ``scenario``  — the cross-path conformance matrix
  (:mod:`repro.scenarios`): ``scenario list`` names the packs,
  ``scenario run`` drives them through every execution path (batch,
  streaming, fan-out, compiled-artifact fan-out, online service) and
  checks byte-identical decisions against the committed golden
  manifests; ``--matrix`` runs every pack (default: the fast ones),
  ``--packs``/``--paths`` select subsets, ``--update-golden``
  regenerates the manifests after an intended behaviour change,
* ``loop``      — ``loop run`` closes the paper's loop
  (:mod:`repro.loop`): sift → rule generation → validation → hot
  reload, with an adversary mutating the web between rounds;
  ``--pack`` replays a scenario pack's web (e.g. ``arms-race``),
  ``--rounds`` sets the schedule length (quiet round, then
  alternating relocate/drift moves), ``--out`` writes the full JSON
  report (without it the report prints to stdout); exits 1 when any
  revision fails a validation gate,
* ``trace``     — ``trace summarize <spans.jsonl>`` renders the
  per-stage time breakdown and critical path of a ``--trace-out``
  export (:mod:`repro.obs.trace`),
* ``ledger``    — ``ledger diff <a.jsonl> <b.jsonl>`` compares two
  determinism fingerprint chains and names the first divergent stage
  (:mod:`repro.obs.ledger`); exits 1 on divergence.

``--profile`` (study/sift) wraps the run in :mod:`cProfile` and writes a
top-25 cumulative-time table next to the checkpoint dir, so perf work
starts from data.  ``--trace-out``/``--ledger-out`` (study/sift) attach
a tracer / determinism ledger to the run and export them as JSONL.
Auto-named profile tables carry a run id (timestamp + pid) so
concurrent runs never clobber each other; explicit ``--trace-out`` /
``--ledger-out`` paths are honored verbatim (the run id is echoed in
the confirmation line), and all artifact paths land in
``PipelineResult.notes``.  ``trackersift --version`` prints the package
version.
"""

from __future__ import annotations

import argparse
import sys

# The analysis, rule-generation and fan-out modules import inside the
# commands that use them, so ``import repro.cli`` costs no more than the
# study path ``import repro`` already loads.
from .core.engine import StreamingPipeline
from .core.pipeline import PipelineConfig, TrackerSiftPipeline

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="trackersift",
        description="TrackerSift (IMC 2021) reproduction pipeline",
    )
    parser.add_argument(
        "--version", action="version", version=f"trackersift {__version__}"
    )
    parser.add_argument("--sites", type=int, default=1_000, help="crawl size")
    parser.add_argument("--seed", type=int, default=7, help="generator seed")
    parser.add_argument(
        "--threshold", type=float, default=2.0, help="classification threshold"
    )
    parser.add_argument(
        "--replicates", type=int, default=100, help="bootstrap replicates"
    )
    parser.add_argument(
        "--out", type=str, default="", help="output path (rules/export/compile/loop)"
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="sift: run the sharded streaming engine instead of batch",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="sift --streaming: number of crawl shards (default: 13 nodes)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=str,
        default="",
        help="sift --streaming: persist per-shard checkpoints here (resumable)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "crawl shards on N parallel worker processes — results are "
            "identical for every worker count; not accepted by "
            "figure4/strategies/bootstrap/export, which analyse the "
            "materialized crawl that parallel runs do not carry. "
            "serve: fork N asyncio serve workers sharing one "
            "memory-mapped oracle image (requires --artifact)"
        ),
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve: TCP port for the decision API (default: 8377)",
    )
    parser.add_argument(
        "--host",
        type=str,
        default=None,
        help="serve: bind address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--lists",
        action="append",
        default=None,
        metavar="PATH",
        help=(
            "serve/compile: filter-list text file to use instead of the "
            "embedded EasyList/EasyPrivacy snapshots (repeatable)"
        ),
    )
    parser.add_argument(
        "--artifact",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "serve: boot from a compiled .tsoracle artifact instead of "
            "parsing list text (see the compile command)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "study/sift: profile the run under cProfile and write a "
            "top-25 cumulative-time table next to the checkpoint dir "
            "(or into the working directory without one); filenames are "
            "run-id stamped so concurrent runs never collide"
        ),
    )
    parser.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "study/sift: record structured spans for every stage and "
            "write them as JSONL here (inspect with: trackersift trace "
            "summarize PATH)"
        ),
    )
    parser.add_argument(
        "--ledger-out",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "study/sift: record the determinism fingerprint ledger and "
            "write it as JSONL here (compare runs with: trackersift "
            "ledger diff A B)"
        ),
    )
    parser.add_argument(
        "--packs",
        type=str,
        default=None,
        metavar="NAME[,NAME...]",
        help="scenario run: comma-separated pack names (default: fast packs)",
    )
    parser.add_argument(
        "--paths",
        type=str,
        default=None,
        metavar="PATH[,PATH...]",
        help=(
            "scenario run: comma-separated execution paths "
            "(default: all of them)"
        ),
    )
    parser.add_argument(
        "--matrix",
        action="store_true",
        help="scenario run: every pack through every selected path",
    )
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help=(
            "scenario run: regenerate the committed golden manifests from "
            "this run instead of checking against them"
        ),
    )
    parser.add_argument(
        "--pack",
        type=str,
        default=None,
        metavar="NAME",
        help=(
            "loop run: build the loop's web from this scenario pack "
            "(e.g. arms-race) instead of --sites/--seed"
        ),
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help=(
            "loop run: number of rounds — a quiet round, then "
            "alternating relocate/drift adversary moves (default: 3)"
        ),
    )
    parser.add_argument(
        "command",
        choices=[
            "study",
            "sift",
            "figure3",
            "figure4",
            "table3",
            "compare",
            "rules",
            "strategies",
            "bootstrap",
            "export",
            "serve",
            "compile",
            "scenario",
            "loop",
            "trace",
            "ledger",
        ],
        help="what to run",
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        help=(
            "subcommand: scenario list|run, loop run, trace summarize, "
            "ledger diff"
        ),
    )
    parser.add_argument(
        "extra",
        nargs="*",
        default=[],
        help="file arguments for the trace/ledger subcommands",
    )
    return parser


def _cmd_serve(args) -> int:
    from .filterlists.compile import ArtifactError
    from .serve.protocol import DEFAULT_PORT

    if args.artifact and args.lists:
        raise SystemExit("serve: pass --lists or --artifact, not both")
    host = args.host or "127.0.0.1"
    port = args.port if args.port is not None else DEFAULT_PORT
    if args.workers is not None:
        # Multi-process mode: N forked asyncio workers over one shared
        # memory-mapped oracle image, coordinated by a supervisor
        # (reload via SIGHUP, drain via SIGTERM/SIGINT).
        if args.workers < 1:
            raise SystemExit("serve: --workers must be at least 1")
        if not args.artifact:
            raise SystemExit(
                "serve: --workers requires --artifact — workers share the "
                "compiled artifact's memory-mapped oracle image (compile "
                "one with: trackersift compile --out rules.tsoracle)"
            )
    try:
        if args.workers is not None:
            from .serve.supervisor import run_supervisor

            return run_supervisor(
                args.artifact, workers=args.workers, host=host, port=port
            )
        return _serve_single(host, port, args.lists or (), args.artifact)
    except (ArtifactError, OSError, RuntimeError) as error:
        raise SystemExit(f"serve: {error}")


def _serve_single(host: str, port: int, list_paths, artifact) -> int:
    """One in-process server on its event-loop thread; the main thread
    waits for SIGINT/SIGTERM, then drains the server and returns 0.

    ``artifact`` boots from a compiled ``.tsoracle`` and opts in to HTTP
    artifact reloads confined to that artifact's directory.
    """
    import signal
    import threading
    from pathlib import Path

    from .filterlists.lists import load_list_files
    from .obs import console
    from .serve.protocol import AsyncServerThread
    from .serve.service import BlockingService

    if artifact is not None:
        service = BlockingService(artifact=artifact)
        artifact_dir = Path(artifact).resolve().parent
    else:
        service = BlockingService(*load_list_files(list_paths))
        artifact_dir = None
    stop = threading.Event()
    previous = {
        signum: signal.signal(signum, lambda *_: stop.set())
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    server = AsyncServerThread(
        service=service, host=host, port=port, artifact_dir=artifact_dir
    )
    try:
        server.start()
        snapshot = service.snapshot
        console.say(
            f"trackersift serve: listening on {server.url} "
            f"({snapshot.rule_count} rules from "
            f"{', '.join(snapshot.list_names) or 'embedded defaults'})"
        )
        console.say(
            "endpoints: POST /v1/decide  POST /v1/reload  GET /healthz  "
            "GET /metrics"
        )
        stop.wait()
        console.say("trackersift serve: shutting down")
    finally:
        server.stop()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


def _cmd_compile(args) -> int:
    from .filterlists.compile import ArtifactError, compile_lists, read_artifact_meta
    from .filterlists.lists import default_lists, load_list_files

    if not args.out:
        raise SystemExit("compile requires --out <path.tsoracle>")
    try:
        lists = load_list_files(args.lists) if args.lists else default_lists()
        compile_lists(args.out, *lists)
        # Round-trip the header: what we print is what a loader accepts.
        meta = read_artifact_meta(args.out)
    except (OSError, ArtifactError) as error:
        raise SystemExit(f"compile: {error}")
    print(
        f"compiled {meta['rule_count']:,} rules from "
        f"{', '.join(meta['lists']) or 'embedded defaults'} to {args.out} "
        f"({meta['bytes']:,} bytes, format v{meta['version']}, "
        f"{meta.get('automaton_keys', 0):,} automaton keys)"
    )
    unsupported = meta.get("unsupported") or {}
    if unsupported:
        breakdown = ", ".join(
            f"{reason}: {count}" for reason, count in sorted(unsupported.items())
        )
        print(
            f"skipped {meta.get('unsupported_rules', 0):,} unsupported "
            f"rule(s) ({breakdown}) — not matched by the oracle"
        )
    print(
        "load it with: trackersift serve --artifact "
        f"{args.out}  (or FilterListOracle.from_artifact)"
    )
    return 0


def _cmd_scenario(args) -> int:
    from .scenarios import (
        EXECUTION_PATHS,
        SCENARIO_PACKS,
        ScenarioRunner,
        all_packs,
        fast_packs,
    )

    if args.action == "list":
        print("Scenario packs (fast packs run in the tier-1 matrix test):")
        for spec in all_packs():
            tag = "fast" if spec.fast else "full"
            print(
                f"  {spec.name:24s} [{tag}] {spec.sites:4d} sites, "
                f"{len(spec.churn) + 1} list revision(s) — {spec.description}"
            )
        print("\nExecution paths:")
        for name, description in EXECUTION_PATHS.items():
            print(f"  {name:16s} {description}")
        return 0
    if args.action != "run":
        raise SystemExit(
            "scenario: expected an action — `trackersift scenario list` or "
            "`trackersift scenario run [--matrix] [--packs a,b] [--paths p,q]`"
        )

    if args.packs:
        names = [name.strip() for name in args.packs.split(",") if name.strip()]
        unknown = [name for name in names if name not in SCENARIO_PACKS]
        if unknown:
            raise SystemExit(
                f"scenario: unknown pack(s) {', '.join(unknown)}; "
                f"known: {', '.join(SCENARIO_PACKS)}"
            )
        specs = tuple(SCENARIO_PACKS[name] for name in names)
    else:
        specs = all_packs() if args.matrix else fast_packs()
    paths = None
    if args.paths:
        paths = tuple(p.strip() for p in args.paths.split(",") if p.strip())
    if args.update_golden and paths is not None:
        # A golden written from a path subset would carry null report /
        # shard digests and break every full run against it.
        raise SystemExit(
            "scenario: --update-golden requires the full path set; "
            "drop --paths"
        )
    try:
        runner = ScenarioRunner(paths=paths)
    except ValueError as error:
        raise SystemExit(f"scenario: {error}")

    failed = 0
    for spec in specs:
        outcome = runner.run(spec, update_golden=args.update_golden)
        verdict = "ok" if outcome.ok else "FAIL"
        if args.update_golden:
            verdict = "golden updated" if not outcome.mismatches else "FAIL"
        print(
            f"{spec.name:24s} {verdict:14s} "
            f"{outcome.labeled_requests:6,d} labeled / "
            f"{outcome.trace_requests:4,d} trace requests, "
            f"{outcome.revisions} revision(s)"
        )
        for path in runner.paths:
            record = outcome.paths[path]
            print(
                f"    {path:16s} {record.wall_seconds:6.2f}s  "
                f"{record.requests_per_second:10,.0f} req/s"
            )
        for problem in outcome.problems():
            print(f"    MISMATCH: {problem}")
        if not outcome.ok and not (args.update_golden and not outcome.mismatches):
            failed += 1
    print(
        f"\nscenario matrix: {len(specs)} scenario(s) x "
        f"{len(runner.paths)} execution path(s) — "
        + ("all identical" if failed == 0 else f"{failed} FAILED")
    )
    return 1 if failed else 0


def _cmd_loop(args) -> int:
    import json

    from .loop import ControlLoop, LoopError
    from .webmodel.generator import SyntheticWebGenerator

    if args.action != "run":
        raise SystemExit(
            "loop: expected an action — `trackersift loop run "
            "[--pack arms-race] [--rounds N] [--out report.json]`"
        )
    rounds = args.rounds if args.rounds is not None else 3
    if rounds < 1:
        raise SystemExit("loop: --rounds must be at least 1")
    if args.pack:
        from .scenarios import get_pack

        try:
            spec = get_pack(args.pack)
        except KeyError as error:
            raise SystemExit(f"loop: {error.args[0]}")
        loop = ControlLoop.from_pack(spec)
    else:
        web = SyntheticWebGenerator(sites=args.sites, seed=args.seed).build()
        loop = ControlLoop(web, seed=args.seed, threshold=args.threshold)
    # Round 1 sifts the quiet web; every later round opens with an
    # adversary move the loop then has to win back.
    schedule = tuple(
        None if index == 0 else ("relocate" if index % 2 else "drift")
        for index in range(rounds)
    )
    try:
        report = loop.run(schedule)
    except LoopError as error:
        raise SystemExit(f"loop: {error}")
    failed = 0
    for record in report.rounds:
        gates_ok = (
            record.parse_ok
            and record.roundtrip_ok
            and record.identity_ok
            and record.attribution_consistent
            and record.coverage_after.functional_url_blocked == 0
        )
        if not gates_ok:
            failed += 1
        move = record.mutation.kind if record.mutation else "quiet"
        print(
            f"round {record.index}  rev {record.revision:3d}  "
            f"{move:8s} coverage {record.coverage_before.coverage:.3f} -> "
            f"{record.coverage_after.coverage:.3f}  "
            f"rules {record.rules_kept}/{record.rules_emitted} kept  "
            f"gates {'ok' if gates_ok else 'FAIL'}"
        )
    payload = report.to_dict()
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(f"loop: wrote report for {rounds} round(s) to {args.out}")
    else:
        print(json.dumps(payload, indent=2))
    return 1 if failed else 0


def _runid() -> str:
    """Stamp for profile/trace filenames: wall-clock second plus pid.

    Deterministic given the run (no randomness) yet non-colliding across
    concurrent runs — two processes share a pid never, a second often."""
    import os
    import time

    return time.strftime("%Y%m%dT%H%M%S") + f"-p{os.getpid()}"


def _write_profile(profiler, checkpoint_dir: str, command: str, runid: str) -> str:
    """Render the top-25 cumulative-time table next to the checkpoint dir
    (its sibling, so resume never mistakes it for a shard) — or into the
    working directory when the run had no checkpoint dir."""
    import io
    import pstats
    from pathlib import Path

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(25)
    # resolve() so name-less checkpoint dirs ('.', trailing slash) still
    # yield a sibling path; a nameless root falls back to the cwd file,
    # as does an unwritable sibling location — the table must never be
    # lost after a fully profiled run.
    base = Path(checkpoint_dir).resolve() if checkpoint_dir else None
    text = (
        f"trackersift {command} — cProfile, top 25 by cumulative time\n"
        + stream.getvalue()
    )
    fallback = Path(f"trackersift-{command}-{runid}-profile.txt")
    if base is not None and base.name:
        path = base.with_name(f"{base.name}-{runid}-profile.txt")
    else:
        path = fallback
    try:
        path.write_text(text, encoding="utf-8")
    except OSError:
        if path == fallback:
            raise
        path = fallback
        path.write_text(text, encoding="utf-8")
    return str(path)


def _cmd_trace(args) -> int:
    from .obs.trace import read_spans, render_summary, summarize_spans

    if args.action != "summarize" or len(args.extra) != 1:
        raise SystemExit(
            "trace: expected `trackersift trace summarize <spans.jsonl>`"
        )
    try:
        records = read_spans(args.extra[0])
    except (OSError, ValueError) as error:
        raise SystemExit(f"trace: {error}")
    print(render_summary(summarize_spans(records)))
    return 0


def _cmd_ledger(args) -> int:
    from .obs.ledger import Ledger, diff_ledgers, render_diff

    if args.action != "diff" or len(args.extra) != 2:
        raise SystemExit(
            "ledger: expected `trackersift ledger diff <a.jsonl> <b.jsonl>`"
        )
    try:
        left = Ledger.from_jsonl(args.extra[0])
        right = Ledger.from_jsonl(args.extra[1])
    except (OSError, ValueError) as error:
        raise SystemExit(f"ledger: {error}")
    diff = diff_ledgers(left, right)
    print(render_diff(diff))
    return 0 if diff["identical"] else 1


def _cmd_study(result) -> None:
    from .analysis.report import render_table1, render_table2
    from .analysis.tables import build_table1, build_table2

    print(
        f"Crawled {result.pages_crawled} landing pages "
        f"({result.total_script_requests:,} script-initiated requests)"
    )
    print()
    print("Table 1: requests classified at each granularity")
    print(render_table1(build_table1(result.report)))
    print()
    print("Table 2: resources classified at each granularity")
    print(render_table2(build_table2(result.report)))
    print()
    print(f"Final separation factor: {result.report.final_separation:.1%}")


def _cmd_sift(result, streaming: bool) -> None:
    from .analysis.report import render_table1
    from .analysis.tables import build_table1

    notes = result.notes
    engine = "streaming" if streaming else "batch"
    print(
        f"Sifted {int(notes.get('labeled_requests', result.total_script_requests)):,} "
        f"script-initiated requests over {result.pages_crawled} pages "
        f"({engine} engine, {int(notes.get('shards', 0))} shards, "
        f"{int(notes.get('shards_resumed', 0))} resumed from checkpoint)"
    )
    if "label_cache_hit_rate" in notes:
        print(
            f"Label cache: {int(notes['label_cache_hits']):,} hits / "
            f"{int(notes['label_cache_misses']):,} misses "
            f"({notes['label_cache_hit_rate']:.1%} hit rate)"
        )
    print()
    print("Table 1: requests classified at each granularity")
    print(render_table1(build_table1(result.report)))
    print()
    print(f"Final separation factor: {result.report.final_separation:.1%}")


def _cmd_rules(result, out: str) -> None:
    from .core.rulegen import generate_recommendation

    recommendation = generate_recommendation(result.report)
    text = recommendation.to_filter_list()
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"wrote {recommendation.rule_count} rules and "
            f"{len(recommendation.surrogates)} surrogate directives to {out}"
        )
    else:
        print(text)


def _cmd_strategies(result) -> None:
    from .analysis.report import ascii_table
    from .core.rulegen import compare_strategies

    outcomes = compare_strategies(result.labeled.requests, result.report)
    print(
        ascii_table(
            ["Strategy", "Tracking blocked", "Collateral", "Missed"],
            [
                [
                    o.strategy.value,
                    f"{o.tracking_coverage:.1%}",
                    f"{o.collateral_rate:.1%}",
                    f"{o.tracking_missed:,}",
                ]
                for o in outcomes
            ],
        )
    )


def _cmd_bootstrap(result, replicates: int) -> None:
    from .analysis.confidence import bootstrap_separation_factors
    from .analysis.report import ascii_table

    intervals = bootstrap_separation_factors(
        result.labeled.requests, replicates=replicates
    )
    print(
        ascii_table(
            ["Metric", "Point", "95% low", "95% high"],
            [
                [
                    i.metric,
                    f"{i.point:.3f}",
                    f"{i.low:.3f}",
                    f"{i.high:.3f}",
                ]
                for i in intervals
            ],
        )
    )


def _cmd_export(result, out: str) -> None:
    if not out:
        raise SystemExit("export requires --out <path.jsonl|path.sqlite>")
    if out.endswith(".sqlite") or out.endswith(".db"):
        result.database.to_sqlite(out)
        print(f"wrote {len(result.database):,} events to SQLite {out}")
    else:
        lines = result.database.to_jsonl(out)
        print(f"wrote {lines:,} JSONL records to {out}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    scenario_flags = (
        args.packs is not None
        or args.paths is not None
        or args.matrix
        or args.update_golden
    )
    if args.command != "scenario" and scenario_flags:
        raise SystemExit(
            f"{args.command}: --packs/--paths/--matrix/--update-golden "
            "apply to the scenario command only"
        )
    loop_flags = args.pack is not None or args.rounds is not None
    if args.command != "loop" and loop_flags:
        raise SystemExit(
            f"{args.command}: --pack/--rounds apply to the loop command only"
        )
    if (
        args.command not in ("scenario", "loop", "trace", "ledger")
        and args.action is not None
    ):
        raise SystemExit(
            f"{args.command}: takes no subcommand (got {args.action!r})"
        )
    if args.extra and args.command not in ("trace", "ledger"):
        raise SystemExit(
            f"{args.command}: unexpected argument(s): {' '.join(args.extra)}"
        )
    serve_flags = (
        args.port is not None
        or args.host is not None
        or args.artifact is not None
    )
    if serve_flags and args.command != "serve":
        raise SystemExit(
            f"{args.command}: --port/--host/--artifact apply to "
            "the serve command only"
        )
    if args.lists is not None and args.command not in ("serve", "compile"):
        raise SystemExit(
            f"{args.command}: --lists applies to the serve and compile "
            "commands only"
        )
    if args.profile and args.command not in ("study", "sift"):
        raise SystemExit(
            f"{args.command}: --profile applies to the study and sift "
            "commands only"
        )
    if (args.trace_out or args.ledger_out) and args.command not in ("study", "sift"):
        raise SystemExit(
            f"{args.command}: --trace-out/--ledger-out apply to the study "
            "and sift commands only"
        )
    engine_flags = (
        args.streaming or args.shards is not None or args.checkpoint_dir
    )
    if engine_flags and args.command != "sift":
        raise SystemExit(
            f"{args.command}: --streaming/--shards/--checkpoint-dir apply "
            "to the sift command only"
        )
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "loop":
        return _cmd_loop(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "ledger":
        return _cmd_ledger(args)
    config = PipelineConfig(
        sites=args.sites, seed=args.seed, threshold=args.threshold
    )
    if args.command == "sift" and not args.streaming and engine_flags:
        raise SystemExit("sift: --shards/--checkpoint-dir require --streaming")
    workers = args.workers if args.workers is not None else 1
    if workers < 1:
        raise SystemExit("--workers must be at least 1")
    if workers > 1 and args.command in ("figure4", "strategies", "bootstrap", "export"):
        # These commands analyse the materialized per-request crawl, which
        # parallel runs (aggregates only) deliberately do not carry.
        raise SystemExit(
            f"{args.command}: needs the materialized crawl; drop --workers"
        )
    # Only a fan-out raises ShardExecutionError, and only a fan-out loads
    # the lease scheduler; a sequential run catches nothing extra.
    fanout_errors: tuple = ()
    if workers > 1:
        from .core.parallel import ShardExecutionError

        fanout_errors = (ShardExecutionError,)
    runid = _runid()
    tracer = None
    ledger = None
    if args.trace_out or args.ledger_out:
        from .obs.ledger import Ledger
        from .obs.trace import Tracer

        if args.trace_out:
            tracer = Tracer()
        if args.ledger_out:
            ledger = Ledger(args.command)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    import contextlib

    with tracer.activate() if tracer is not None else contextlib.nullcontext():
        if args.command == "sift" and args.streaming:
            try:
                engine = StreamingPipeline(
                    config,
                    shards=args.shards,
                    workers=workers,
                    checkpoint_dir=args.checkpoint_dir or None,
                    ledger=ledger,
                )
                result = engine.run()
            except (ValueError, *fanout_errors) as error:
                raise SystemExit(f"sift --streaming: {error}")
        else:
            try:
                result = TrackerSiftPipeline(
                    config, workers=workers, ledger=ledger
                ).run()
            except fanout_errors as error:
                raise SystemExit(f"{args.command}: {error}")
    if profiler is not None:
        profiler.disable()
        path = _write_profile(profiler, args.checkpoint_dir, args.command, runid)
        result.notes["profile_path"] = path
        print(f"profile: wrote top-25 cumulative-time table to {path}")
    if tracer is not None:
        trace_path = tracer.write_jsonl(args.trace_out)
        result.notes["trace_path"] = str(trace_path)
        print(
            f"trace: wrote {len(tracer.export())} span(s) to {trace_path} "
            f"(run id {runid}) — summarize with: "
            f"trackersift trace summarize {trace_path}"
        )
    if ledger is not None:
        ledger_path = ledger.write_jsonl(args.ledger_out)
        result.notes["ledger_path"] = str(ledger_path)
        print(
            f"ledger: wrote {len(ledger.chain())} stage fingerprint(s) to "
            f"{ledger_path} — compare with: trackersift ledger diff"
        )
    report = result.report

    if args.command == "study":
        _cmd_study(result)
    elif args.command == "sift":
        _cmd_sift(result, streaming=args.streaming)
    elif args.command == "figure3":
        from .analysis.figures import build_figure3
        from .analysis.report import render_histogram

        for histogram in build_figure3(report).values():
            print(render_histogram(histogram))
            print()
    elif args.command == "figure4":
        from .analysis.figures import build_figure4

        sweep = build_figure4(result.labeled.requests)
        print("threshold,mixed_share")
        for point in sweep.points:
            print(f"{point.threshold:.1f},{point.mixed_share:.4f}")
    elif args.command == "table3":
        from .analysis.report import render_table3
        from .analysis.tables import build_table3

        print(render_table3(build_table3(result.web, report)))
    elif args.command == "compare":
        from .analysis.report import compare_with_paper, render_comparison

        print(render_comparison(compare_with_paper(report)))
    elif args.command == "rules":
        _cmd_rules(result, args.out)
    elif args.command == "strategies":
        _cmd_strategies(result)
    elif args.command == "bootstrap":
        _cmd_bootstrap(result, args.replicates)
    elif args.command == "export":
        _cmd_export(result, args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
