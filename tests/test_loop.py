"""The control loop: sift → rulegen → validation → hot reload (ISSUE 10)."""

import hashlib

import pytest

from repro.browser.callstack import CallFrame, CallStack
from repro.browser.devtools import RequestWillBeSent
from repro.filterlists.oracle import FilterListOracle
from repro.filterlists.parser import parse_filter_list
from repro.filterlists.rules import ResourceType
from repro.loop import (
    HOTFIX_LIST,
    Adversary,
    ControlLoop,
    GroundTruthOracle,
    LoopError,
)
from repro.labeling.labeler import RequestLabeler
from repro.webmodel.generator import SyntheticWebGenerator

SITES = 30
SEED = 7


@pytest.fixture(scope="module")
def loop_run():
    """One three-round arms race, shared by every assertion below."""
    web = SyntheticWebGenerator(sites=SITES, seed=SEED).build()
    loop = ControlLoop(web, seed=SEED, cluster_nodes=4, breakage_sites=6)
    report = loop.run((None, "relocate", "drift"))
    return loop, report


class TestGroundTruthOracle:
    def test_known_urls_labeled_by_truth(self):
        web = SyntheticWebGenerator(sites=12, seed=3).build()
        oracle = GroundTruthOracle(web)
        tracking = functional = None
        for script in web.scripts:
            for request in (
                r
                for m in script.methods
                for inv in m.invocations
                for r in inv.requests
            ):
                if request.tracking and tracking is None:
                    tracking = request.url
                if not request.tracking and functional is None:
                    functional = request.url
        labeled = oracle.label_request(tracking)
        assert labeled.label.is_tracking
        assert labeled.matched_list == "ground-truth"
        assert not oracle.label_request(functional).label.is_tracking

    def test_unknown_urls_fall_back_to_lists(self):
        web = SyntheticWebGenerator(sites=12, seed=3).build()
        oracle = GroundTruthOracle(web)
        labeled = oracle.label_request("https://doubleclick.net/pixel/1.gif")
        assert labeled.label.is_tracking
        assert labeled.matched_list != "ground-truth"

    def test_batch_path_devolves_to_truth(self):
        # label_request_many must route through the override, never the
        # raw matcher — the pipeline's label stage depends on it.
        web = SyntheticWebGenerator(sites=12, seed=3).build()
        oracle = GroundTruthOracle(web)
        url = next(
            r.url
            for s in web.scripts
            for m in s.methods
            for inv in m.invocations
            for r in inv.requests
            if r.tracking
        )
        (batched,) = oracle.label_request_many(
            [(url, ResourceType.OTHER, "")]
        )
        assert batched == oracle.label_request(url)


def _recording(oracle: FilterListOracle) -> list[str]:
    """Record, in order, every URL the oracle's decision cache is asked
    about (one entry per lookup, hit or miss)."""
    seen: list[str] = []
    cache = oracle.matcher
    match_many = cache.match_many

    def recorder(contexts):
        contexts = list(contexts)
        seen.extend(context.url for context in contexts)
        return match_many(contexts)

    cache.match_many = recorder
    return seen


class TestGroundTruthOneEntry:
    """Every query form of :class:`GroundTruthOracle` goes through its one
    ``label_request_many`` override: truth-table URLs are answered from
    the table, and only the unknown URLs reach the decision cache, in
    input order, with the hits and misses a plain oracle would count."""

    PAGE = "https://www.pub.example/"

    @pytest.fixture(scope="class")
    def mixed(self):
        web = SyntheticWebGenerator(sites=12, seed=3).build()
        requests = [
            r
            for s in web.scripts
            for m in s.methods
            for inv in m.invocations
            for r in inv.requests
        ]
        tracking = [r.url for r in requests if r.tracking][:2]
        functional = [r.url for r in requests if not r.tracking][:2]
        unknown = [
            "https://doubleclick.net/pixel/1.gif",
            "https://functional.example/app.js",
            "https://doubleclick.net/pixel/1.gif",
            "https://google-analytics.com/collect?v=1",
        ]
        urls = [
            tracking[0], unknown[0], functional[0], unknown[1],
            tracking[1], unknown[2], functional[1], unknown[3],
        ]
        return web, urls, unknown

    def _event(self, url: str) -> RequestWillBeSent:
        return RequestWillBeSent(
            request_id=url,
            url=url,
            top_level_url=self.PAGE,
            frame_url=self.PAGE,
            resource_type="other",
            timestamp=1.0,
            call_stack=CallStack(
                frames=(CallFrame(url="https://cdn.example/a.js", function_name="f"),)
            ),
        )

    def _verdicts(self, labeled):
        return [(x.label, x.matched_rule, x.matched_list) for x in labeled]

    def test_every_query_form_agrees_and_caches_like_a_plain_oracle(self, mixed):
        web, urls, unknown = mixed
        plain = FilterListOracle()
        plain_seen = _recording(plain)
        plain.label_request_many(
            [(url, ResourceType.OTHER, self.PAGE) for url in unknown]
        )
        assert plain_seen == unknown
        plain_stats = (plain.cache_stats.hits, plain.cache_stats.misses)
        assert plain_stats == (1, 3)

        forms = {
            "label_request": lambda o: [
                o.label_request(url, ResourceType.OTHER, self.PAGE) for url in urls
            ],
            "label_request_many": lambda o: o.label_request_many(
                [(url, ResourceType.OTHER, self.PAGE) for url in urls]
            ),
            "label_event": lambda o: [
                RequestLabeler(o).label_event(self._event(url)) for url in urls
            ],
        }
        verdicts = {}
        for name, decide in forms.items():
            oracle = GroundTruthOracle(web)
            seen = _recording(oracle)
            verdicts[name] = self._verdicts(decide(oracle))
            assert seen == unknown, name
            stats = oracle.cache_stats
            assert (stats.hits, stats.misses) == plain_stats, name
        assert verdicts["label_request"] == verdicts["label_request_many"]
        assert verdicts["label_event"] == verdicts["label_request_many"]
        lists = [matched_list for _, _, matched_list in verdicts["label_request"]]
        assert lists[0::4] == ["ground-truth", "ground-truth"]
        assert lists[2::4] == ["", ""]
        assert "ground-truth" not in lists[1::2]


class TestAdversary:
    def test_relocate_moves_blocked_hosts_to_fresh_ones(self):
        web = SyntheticWebGenerator(sites=12, seed=3).build()
        oracle = FilterListOracle()
        blocked = {
            r.url
            for s in web.scripts
            for m in s.methods
            for inv in m.invocations
            for r in inv.requests
            if r.tracking and oracle.should_block_url(r.url)
        }
        move = Adversary(web, seed=1).relocate(
            blocked.__contains__, max_hosts=2
        )
        assert move.kind == "relocate"
        assert move.rewritten_requests > 0
        assert len(move.fresh_hosts) == len(move.retired_hosts) == 2
        urls = {
            r.url
            for s in web.scripts
            for m in s.methods
            for inv in m.invocations
            for r in inv.requests
        }
        for fresh in move.fresh_hosts:
            relocated = [u for u in urls if fresh in u]
            assert relocated
            # the whole point: the incumbent lists miss the fresh hosts
            assert not any(oracle.should_block_url(u) for u in relocated)

    def test_moves_keep_request_tuples_and_their_counts(self):
        """Internal pages, cloaking, relocate and drift on one web: every
        invocation's requests stay an exact-size tuple, and the counts
        and the planned URLs are those of the list-based rewrite."""
        from repro.webmodel.cloaking import apply_cname_cloaking
        from repro.webmodel.internal import add_internal_pages
        from repro.webmodel.generator import generate_web

        web = generate_web(sites=40, seed=3)
        internal = add_internal_pages(
            web, pages_per_site=2, site_fraction=0.5, seed=4
        )
        cloaked = apply_cname_cloaking(web, fraction=0.5, seed=5)
        oracle = FilterListOracle()
        adversary = Adversary(web, seed=1)
        relocate = adversary.relocate(oracle.should_block_url, max_hosts=3)
        drift = adversary.drift(oracle.should_block_url, fraction=0.5)
        assert (
            internal.pages_added,
            internal.tracking_requests_added,
            internal.functional_requests_added,
        ) == (32, 390, 183)
        assert cloaked.cloaked_requests == 127
        assert relocate.rewritten_requests == 324
        assert drift.rewritten_requests == 215
        invocations = [
            inv for s in web.scripts for m in s.methods for inv in m.invocations
        ]
        assert len(invocations) == 913
        assert all(type(inv.requests) is tuple for inv in invocations)
        urls = "\n".join(r.url for inv in invocations for r in inv.requests)
        digest = hashlib.sha256(urls.encode()).hexdigest()
        assert digest.startswith("7d8f914c28bfb16c")

    def test_relocation_is_seeded_deterministic(self):
        def run():
            web = SyntheticWebGenerator(sites=12, seed=3).build()
            oracle = FilterListOracle()
            move = Adversary(web, seed=5).relocate(
                lambda u: oracle.should_block_url(u), max_hosts=2
            )
            urls = sorted(
                r.url
                for s in web.scripts
                for m in s.methods
                for inv in m.invocations
                for r in inv.requests
            )
            return move, urls

        first_move, first_urls = run()
        second_move, second_urls = run()
        assert first_move == second_move
        assert first_urls == second_urls

    def test_drift_keeps_hosts_and_only_adds_query_tokens(self):
        web = SyntheticWebGenerator(sites=12, seed=3).build()
        oracle = FilterListOracle()
        before = {
            id(inv): list(inv.requests)
            for s in web.scripts
            for m in s.methods
            for inv in m.invocations
        }
        move = Adversary(web, seed=1).drift(
            lambda u: oracle.should_block_url(u), fraction=1.0
        )
        assert move.kind == "drift"
        assert move.rewritten_requests > 0
        for s in web.scripts:
            for m in s.methods:
                for inv in m.invocations:
                    for old, new in zip(before[id(inv)], inv.requests):
                        if old.url == new.url:
                            continue
                        # same URL up to an appended query token
                        assert new.url.startswith(old.url)
                        assert new.tracking == old.tracking


class TestControlLoopRound:
    def test_quiet_round_serves_a_validated_hotfix(self, loop_run):
        loop, report = loop_run
        first = report.rounds[0]
        assert first.mutation is None
        assert first.revision == 2  # boot revision is 1
        assert first.provenance == "loop-round-1"
        assert first.parse_ok
        assert first.rules_kept > 0
        assert first.surrogates_kept > 0
        assert HOTFIX_LIST in loop.service.snapshot.list_names
        # the service ends the race carrying the last round's provenance
        assert loop.service.snapshot.provenance == "loop-round-3"

    def test_every_round_passes_roundtrip_and_identity_gates(self, loop_run):
        _, report = loop_run
        for record in report.rounds:
            assert record.roundtrip_ok, record.roundtrip_failures
            assert record.identity_ok
            assert record.parse_ok
            assert record.attribution_consistent

    def test_functional_blocking_stays_zero(self, loop_run):
        _, report = loop_run
        for record in report.rounds:
            assert record.coverage_after.functional_url_blocked == 0

    def test_relocation_drops_then_recovers_coverage(self, loop_run):
        _, report = loop_run
        quiet, relocate, drift = report.rounds
        assert quiet.coverage_after.coverage == pytest.approx(1.0)
        # the adversary's move evades the served rules...
        assert relocate.mutation.kind == "relocate"
        assert relocate.mutation.rewritten_requests > 0
        assert relocate.coverage_before.coverage < 0.9
        # ...and the loop wins it back within one revision
        assert relocate.coverage_after.coverage >= quiet.coverage_after.coverage - 1e-9

    def test_drift_never_drops_coverage(self, loop_run):
        _, report = loop_run
        relocate, drift = report.rounds[1], report.rounds[2]
        assert drift.mutation.kind == "drift"
        assert drift.mutation.rewritten_requests > 0
        assert (
            drift.coverage_before.coverage
            >= relocate.coverage_after.coverage - 1e-9
        )

    def test_churn_attribution_is_incremental(self, loop_run):
        _, report = loop_run
        relocate = report.rounds[1]
        hotfix = relocate.churn["hotfix"]
        # by-name pairing: the still-valid rules stay unchanged, only the
        # fresh evade hosts' rules are added and the retired hosts' are
        # removed — never a full replacement.
        assert hotfix["unchanged"] > 0
        assert hotfix["added"] >= 1
        assert hotfix["added"] + hotfix["removed"] < hotfix["unchanged"]
        attribution = relocate.churn_attribution
        assert len(attribution["added"]) == hotfix["added"]
        assert len(attribution["removed"]) == hotfix["removed"]
        for entry in attribution["added"]:
            assert entry["axis"] in ("domain", "hostname", "script")
            assert entry["rule"]
            assert entry["key"]

    def test_breakage_gate_rejects_page_scoped_script_rules(self, loop_run):
        _, report = loop_run
        first = report.rounds[0]
        # inline scripts produce page-URL script rules that would block a
        # site's whole script set; the validation stage must catch them.
        assert first.breakage["worse_sites"] == []
        breakage_rejections = [
            entry
            for entry in first.rules_rejected
            if entry["reason"] == "worsens breakage grade"
        ]
        assert breakage_rejections
        for entry in breakage_rejections:
            assert entry["rule"].endswith("$script")

    def test_report_round_trips_to_json_shape(self, loop_run):
        import json

        _, report = loop_run
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["trajectory"] == [
            r.coverage_after.coverage for r in report.rounds
        ]

    def test_unknown_mutation_rejected(self):
        web = SyntheticWebGenerator(sites=10, seed=3).build()
        loop = ControlLoop(web, cluster_nodes=2, breakage_sites=2)
        with pytest.raises(ValueError, match="unknown adversary move"):
            loop.run_round(mutation="teleport")

    def test_from_pack_builds_the_arms_race_web(self):
        # The scenario registry is the loop's runner hook: a pack's web
        # recipe (sites, seed, knobs) becomes the arms-race battlefield.
        from repro.scenarios import get_pack

        spec = get_pack("arms-race")
        loop = ControlLoop.from_pack(spec, cluster_nodes=4)
        assert len(loop.web.websites) == spec.sites
        assert HOTFIX_LIST not in loop.service.snapshot.list_names

    def test_base_lists_must_not_shadow_hotfix_name(self):
        web = SyntheticWebGenerator(sites=10, seed=3).build()
        with pytest.raises(ValueError, match=HOTFIX_LIST):
            ControlLoop(
                web,
                base_lists=(
                    parse_filter_list("||x.example^\n", name=HOTFIX_LIST),
                ),
            )
