"""The paper's control loop: sift → rulegen → validation → hot reload.

TrackerSift's conclusion (§7) is that sift output *feeds back* into
finer-grained blocking: hotfix rules for tracking resources, surrogate
scripts for mixed ones.  This module closes that loop against the live
serving stack:

1. **Sift** — run the hierarchical pipeline over the current synthetic
   web under the analyst's labeling vantage (:class:`GroundTruthOracle`:
   ground truth for the web's own planned requests, the filter lists for
   everything else — this is what lets the loop *see* traffic the
   incumbent rules miss, exactly the situation after an adversary move).
2. **Recommend** — :func:`repro.core.rulegen.generate_recommendation`.
3. **Validate** — compile the candidate rules through the real
   :mod:`repro.filterlists` parser; reject any rule that blocks a
   ground-truth-functional request the incumbent base lists do not
   already block; grade functional breakage per site via
   :func:`repro.browser.breakage.assess_breakage` and reject rules that
   make any site worse than the incumbent; verify every surrogate
   directive by generating and checking the actual surrogate source
   through :mod:`repro.jsgen`.
4. **Hot reload** — survivors become the ``trackersift-hotfix`` list,
   published into :class:`~repro.serve.service.BlockingService` with
   revision provenance and per-rule churn attribution; the round then
   replays the workload through the service and checks served-vs-offline
   identity for the revision that answered.

An :class:`~repro.loop.adversary.Adversary` can mutate the web between
rounds, so :meth:`ControlLoop.run` executes the arms race the paper
describes: coverage drops when the tracker relocates, and the next
revision must win it back without blocking functional traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..browser.breakage import BreakageLevel, assess_breakage
from ..browser.engine import BrowserEngine
from ..core.engine import PipelineConfig
from ..core.pipeline import TrackerSiftPipeline
from ..core.classifier import ResourceClass
from ..core.results import SiftReport
from ..core.rulegen import (
    FilterRecommendation,
    SurrogateDirective,
    generate_recommendation,
    host_rule,
    script_rule,
)
from ..filterlists.lists import default_lists
from ..filterlists.oracle import FilterListOracle, Label, LabeledRequest
from ..filterlists.parser import ParsedList, parse_filter_list
from ..filterlists.rules import ResourceType
from ..jsgen.analyzer import analyze_source
from ..jsgen.codegen import script_to_source
from ..jsgen.surrogate import generate_surrogate_source, verify_surrogate_source
from ..scenarios.spec import ScenarioSpec
from ..serve.service import BlockingService
from ..urlkit import hostname, registrable_domain
from ..webmodel.generator import SyntheticWeb
from .adversary import Adversary, AdversaryMove

__all__ = [
    "HOTFIX_LIST",
    "ControlLoop",
    "CoverageStat",
    "GroundTruthOracle",
    "LoopError",
    "LoopReport",
    "RoundRecord",
]

#: The candidate revision's list name.  Constant across rounds on
#: purpose: ``BlockingService._churn`` pairs lists by name, so each
#: round's reload report attributes exactly the rules that changed —
#: never a full replacement of the hotfix list.
HOTFIX_LIST = "trackersift-hotfix"

_SEVERITY = {BreakageLevel.NONE: 0, BreakageLevel.MINOR: 1, BreakageLevel.MAJOR: 2}

#: bounded repair passes for the reject-and-rebuild validation loops.
_MAX_REPAIR_PASSES = 4


class LoopError(RuntimeError):
    """An invariant the control loop depends on failed."""


class GroundTruthOracle(FilterListOracle):
    """The analyst's labeling vantage for the loop's sift.

    Knows the synthetic web's own planned requests and labels them by
    ground truth (``matched_list="ground-truth"``); everything else falls
    back to the filter lists.  This models what the paper's measurement
    study has that the serving oracle does not — labeled traffic — and is
    what lets the sift classify traffic the incumbent rules miss (e.g. a
    freshly relocated tracking host).

    It overrides the oracle's one labeling entry,
    ``label_request_many``, so every pipeline path and
    ``label_request`` see the ground truth.
    """

    def __init__(self, web: SyntheticWeb, *lists: ParsedList) -> None:
        super().__init__(*lists)
        truth: dict[str, bool] = {}
        for script in web.scripts:
            for method in script.methods:
                for invocation in method.invocations:
                    for request in invocation.requests:
                        truth[request.url] = request.tracking
        self._truth = truth

    def label_request_many(self, requests) -> list[LabeledRequest]:
        """Truth-table URLs from the table; the rest decided by the filter
        lists in one batch, in input order (so the decision cache sees
        the same hits and misses as a plain oracle over those URLs)."""
        items = list(requests)
        truth = self._truth
        decided = iter(
            super().label_request_many(
                item for item in items if item[0] not in truth
            )
        )
        labeled = []
        for item in items:
            url = item[0]
            tracking = truth.get(url)
            if tracking is None:
                labeled.append(next(decided))
            elif tracking:
                labeled.append(
                    LabeledRequest(
                        url=url,
                        label=Label.TRACKING,
                        matched_rule="ground-truth",
                        matched_list="ground-truth",
                    )
                )
            else:
                labeled.append(LabeledRequest(url=url, label=Label.FUNCTIONAL))
        return labeled


@dataclass(frozen=True)
class _WorkloadRequest:
    """One planned request plus the attribution the loop validates with."""

    url: str
    resource_type: str
    page_url: str
    script: str
    method: str
    tracking: bool


@dataclass(frozen=True)
class CoverageStat:
    """How one rule state scores on the current ground-truth workload.

    A tracking request counts as *covered* when the state intercepts it
    at any of the paper's three enforcement points: its URL blocks, its
    initiating script's URL blocks (``$script``), or its (script, method)
    is stubbed by an active surrogate.  ``functional_url_blocked`` is the
    URL-level collateral — the number the loop's gate holds at zero.
    """

    tracking_total: int
    tracking_covered: int
    functional_total: int
    functional_url_blocked: int

    @property
    def coverage(self) -> float:
        if self.tracking_total == 0:
            return 1.0
        return self.tracking_covered / self.tracking_total

    def to_dict(self) -> dict:
        return {
            "tracking_total": self.tracking_total,
            "tracking_covered": self.tracking_covered,
            "coverage": self.coverage,
            "functional_total": self.functional_total,
            "functional_url_blocked": self.functional_url_blocked,
        }


@dataclass
class RoundRecord:
    """Everything one loop round did, for gates and reports."""

    index: int
    revision: int
    provenance: str
    mutation: AdversaryMove | None
    coverage_before: CoverageStat
    coverage_after: CoverageStat
    rules_emitted: int
    rules_kept: int
    rules_rejected: list[dict]
    surrogates_kept: int
    surrogates_rejected: list[dict]
    parse_ok: bool
    roundtrip_failures: list[dict]
    identity_ok: bool
    identity_mismatches: int
    breakage: dict
    churn: dict
    churn_attribution: dict
    attribution_consistent: bool

    @property
    def roundtrip_ok(self) -> bool:
        return not self.roundtrip_failures

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "revision": self.revision,
            "provenance": self.provenance,
            "mutation": self.mutation.to_dict() if self.mutation else None,
            "coverage_before": self.coverage_before.to_dict(),
            "coverage_after": self.coverage_after.to_dict(),
            "rules_emitted": self.rules_emitted,
            "rules_kept": self.rules_kept,
            "rules_rejected": self.rules_rejected,
            "surrogates_kept": self.surrogates_kept,
            "surrogates_rejected": self.surrogates_rejected,
            "parse_ok": self.parse_ok,
            "roundtrip_ok": self.roundtrip_ok,
            "roundtrip_failures": self.roundtrip_failures,
            "identity_ok": self.identity_ok,
            "identity_mismatches": self.identity_mismatches,
            "breakage": self.breakage,
            "churn": self.churn,
            "churn_attribution": self.churn_attribution,
            "attribution_consistent": self.attribution_consistent,
        }


@dataclass
class LoopReport:
    """The whole run: one record per round, plus the workload scale."""

    sites: int
    seed: int
    rounds: list[RoundRecord] = field(default_factory=list)

    def trajectory(self) -> list[float]:
        """Post-reload tracking coverage, round by round."""
        return [record.coverage_after.coverage for record in self.rounds]

    def to_dict(self) -> dict:
        return {
            "sites": self.sites,
            "seed": self.seed,
            "rounds": [record.to_dict() for record in self.rounds],
            "trajectory": self.trajectory(),
        }


class ControlLoop:
    """Run the sift → rulegen → validation → hot-reload loop for N rounds.

    ``service`` defaults to a fresh :class:`BlockingService` over
    ``base_lists`` (themselves defaulting to the embedded lists); pass an
    existing service to hotfix a live deployment.  ``breakage_sites``
    bounds the per-round treatment/control breakage study (the paper's
    §5 sample, not a full-population sweep).
    """

    def __init__(
        self,
        web: SyntheticWeb,
        *,
        base_lists: tuple[ParsedList, ...] | None = None,
        service: BlockingService | None = None,
        seed: int = 7,
        threshold: float = 2.0,
        cluster_nodes: int = 13,
        breakage_sites: int = 8,
        adversary_seed: int = 0,
        max_hosts_per_move: int = 4,
    ) -> None:
        self._web = web
        self._base = tuple(base_lists) if base_lists else default_lists()
        if any(parsed.name == HOTFIX_LIST for parsed in self._base):
            raise ValueError(f"base lists may not be named {HOTFIX_LIST!r}")
        self._service = service or BlockingService(*self._base)
        self._seed = seed
        self._threshold = threshold
        self._cluster_nodes = cluster_nodes
        self._breakage_sites = breakage_sites
        self._max_hosts_per_move = max_hosts_per_move
        self._adversary = Adversary(web, seed=adversary_seed)
        self._engine = BrowserEngine()
        self._round = 0
        #: rules currently serving in the hotfix list, and where each came
        #: from (axis, sift key) — the source of churn attribution.
        self._active_rules: list[str] = []
        self._rule_origins: dict[str, dict] = {}
        self._active_surrogates: dict[str, frozenset[str]] = {}

    @classmethod
    def from_pack(cls, spec: ScenarioSpec, **overrides) -> "ControlLoop":
        """Build a loop from a scenario pack (the runner's web recipe)."""
        from ..scenarios.runner import ScenarioRunner

        web = ScenarioRunner.build_web(spec)
        kwargs = dict(
            seed=spec.seed,
            threshold=spec.threshold,
            cluster_nodes=spec.cluster_nodes,
        )
        kwargs.update(overrides)
        return cls(web, **kwargs)

    # -- public surface ----------------------------------------------------
    @property
    def service(self) -> BlockingService:
        return self._service

    @property
    def web(self) -> SyntheticWeb:
        return self._web

    def run(self, schedule: tuple[str | None, ...]) -> LoopReport:
        """One round per schedule entry: ``None``, ``"relocate"``, or
        ``"drift"`` (the adversary's move *before* that round's sift)."""
        report = LoopReport(sites=len(self._web.websites), seed=self._seed)
        for move in schedule:
            report.rounds.append(self.run_round(mutation=move))
        return report

    def run_round(self, mutation: str | None = None) -> RoundRecord:
        self._round += 1
        index = self._round

        move = self._mutate(mutation)
        workload = self._workload()
        incumbent = self._service.snapshot.oracle
        coverage_before = self._coverage(
            workload, incumbent, self._active_surrogates
        )

        # 1-2. sift under the analyst's vantage, recommend.
        report = self._sift()
        rec = generate_recommendation(report)
        origins = self._origins_for(report)
        emitted = [rule for rule in rec.all_rules()]

        # 3. validation: compile + reject + breakage + surrogates.
        kept, rejected = self._reject_functional_blockers(
            emitted, workload, incumbent
        )
        kept, breakage_rejected, breakage = self._breakage_gate(
            kept, incumbent
        )
        rejected.extend(breakage_rejected)
        surrogates_kept, surrogates_rejected = self._validate_surrogates(
            rec.surrogates
        )

        hotfix, parse_ok = self._compile_candidate(
            index, kept, origins, surrogates_kept
        )
        candidate_oracle = FilterListOracle(*self._base, hotfix)
        roundtrip_failures = self._roundtrip_failures(
            kept, origins, workload, candidate_oracle
        )

        # 4. hot reload with provenance + per-rule churn attribution.
        attribution = self._attribution(kept, origins)
        provenance = f"loop-round-{index}"
        reload_report = self._service.reload(
            *self._base, hotfix, provenance=provenance
        )
        reload_report["churn_attribution"] = attribution
        attribution_consistent = self._attribution_consistent(
            reload_report, attribution
        )

        identity_ok, identity_mismatches = self._identity_gate(workload)

        self._active_rules = kept
        self._rule_origins.update(
            {rule: origins[rule] for rule in kept if rule in origins}
        )
        self._active_surrogates = {
            directive.script: frozenset(directive.removed_methods)
            for directive in surrogates_kept
        }
        coverage_after = self._coverage(
            workload, self._service.snapshot.oracle, self._active_surrogates
        )

        return RoundRecord(
            index=index,
            revision=reload_report["revision"],
            provenance=provenance,
            mutation=move,
            coverage_before=coverage_before,
            coverage_after=coverage_after,
            rules_emitted=len(emitted),
            rules_kept=len(kept),
            rules_rejected=rejected,
            surrogates_kept=len(surrogates_kept),
            surrogates_rejected=surrogates_rejected,
            parse_ok=parse_ok,
            roundtrip_failures=roundtrip_failures,
            identity_ok=identity_ok,
            identity_mismatches=identity_mismatches,
            breakage=breakage,
            churn={
                "report": reload_report["churn"],
                "hotfix": self._hotfix_entry(reload_report),
            },
            churn_attribution=attribution,
            attribution_consistent=attribution_consistent,
        )

    # -- round stages ------------------------------------------------------
    def _mutate(self, mutation: str | None) -> AdversaryMove | None:
        if mutation is None:
            return None
        blocked = self._served_blocked_tracking_urls()
        membership = blocked.__contains__
        if mutation == "relocate":
            return self._adversary.relocate(
                membership, max_hosts=self._max_hosts_per_move
            )
        if mutation == "drift":
            return self._adversary.drift(membership)
        raise ValueError(
            f"unknown adversary move {mutation!r}; None, 'relocate' or 'drift'"
        )

    def _sift(self) -> SiftReport:
        config = PipelineConfig(
            sites=max(len(self._web.websites), 10),
            seed=self._seed,
            cluster_nodes=self._cluster_nodes,
            threshold=self._threshold,
        )
        oracle = GroundTruthOracle(self._web, *self._base)
        pipeline = TrackerSiftPipeline(config, oracle=oracle, workers=1)
        return pipeline.run(self._web).report

    def _workload(self) -> list[_WorkloadRequest]:
        """Every planned request with ground truth, in canonical order
        (mirrors :func:`repro.scenarios.trace._planned_requests`)."""
        out: list[_WorkloadRequest] = []
        for script in sorted(self._web.scripts, key=lambda s: s.url):
            for method in script.methods:
                for invocation in method.invocations:
                    for request in invocation.requests:
                        out.append(
                            _WorkloadRequest(
                                url=request.url,
                                resource_type=request.resource_type,
                                page_url=invocation.site,
                                script=script.url,
                                method=method.name,
                                tracking=request.tracking,
                            )
                        )
        return out

    @staticmethod
    def _triples(
        workload: list[_WorkloadRequest],
    ) -> list[tuple[str, ResourceType, str]]:
        return [
            (
                request.url,
                ResourceType.from_option(request.resource_type)
                or ResourceType.OTHER,
                request.page_url,
            )
            for request in workload
        ]

    def _served_blocked_tracking_urls(self) -> frozenset[str]:
        """Tracking URLs the currently-served revision blocks (the
        adversary's eligibility set)."""
        workload = [r for r in self._workload() if r.tracking]
        oracle = self._service.snapshot.oracle
        labeled = oracle.label_request_many(self._triples(workload))
        return frozenset(
            request.url
            for request, result in zip(workload, labeled)
            if result.label.is_tracking
        )

    def _coverage(
        self,
        workload: list[_WorkloadRequest],
        oracle: FilterListOracle,
        surrogates: dict[str, frozenset[str]],
    ) -> CoverageStat:
        labeled = oracle.label_request_many(self._triples(workload))
        script_blocked: dict[str, bool] = {}

        def blocks_script(script_url: str) -> bool:
            cached = script_blocked.get(script_url)
            if cached is None:
                cached = oracle.should_block_url(
                    script_url, ResourceType.SCRIPT
                )
                script_blocked[script_url] = cached
            return cached

        tracking_total = tracking_covered = 0
        functional_total = functional_blocked = 0
        for request, result in zip(workload, labeled):
            url_blocked = result.label.is_tracking
            if request.tracking:
                tracking_total += 1
                if (
                    url_blocked
                    or blocks_script(request.script)
                    or request.method in surrogates.get(request.script, ())
                ):
                    tracking_covered += 1
            else:
                functional_total += 1
                if url_blocked:
                    functional_blocked += 1
        return CoverageStat(
            tracking_total=tracking_total,
            tracking_covered=tracking_covered,
            functional_total=functional_total,
            functional_url_blocked=functional_blocked,
        )

    @staticmethod
    def _origins_for(report: SiftReport) -> dict[str, dict]:
        """rule text → the axis and sift key that produced it (coarsest
        axis wins, mirroring ``generate_recommendation``'s dedup)."""
        origins: dict[str, dict] = {}
        for axis, level, to_rule in (
            ("domain", report.domain, host_rule),
            ("hostname", report.hostname, host_rule),
            ("script", report.script, script_rule),
        ):
            for result in level.by_class(ResourceClass.TRACKING):
                rule = to_rule(result.key)
                if rule is not None and rule not in origins:
                    origins[rule] = {"axis": axis, "key": result.key}
        return origins

    def _reject_functional_blockers(
        self,
        rules: list[str],
        workload: list[_WorkloadRequest],
        incumbent: FilterListOracle,
    ) -> tuple[list[str], list[dict]]:
        """Drop every candidate rule that URL-blocks a ground-truth
        functional request the incumbent does not already block.

        Attribution comes from the matcher itself: labeling the offending
        request against a hotfix-only oracle names the first matching
        rule.  Dropping a blocking rule can only unblock, but a second
        rule may match next, so reject-and-rebuild until clean (bounded).
        """
        functional = [r for r in workload if not r.tracking]
        triples = self._triples(functional)
        incumbent_blocked = {
            request.url
            for request, result in zip(
                functional, incumbent.label_request_many(triples)
            )
            if result.label.is_tracking
        }
        kept = list(rules)
        rejected: list[dict] = []
        for _ in range(_MAX_REPAIR_PASSES):
            if not kept:
                break
            oracle = FilterListOracle(
                parse_filter_list("\n".join(kept) + "\n", name=HOTFIX_LIST)
            )
            offenders: dict[str, str] = {}
            for request, result in zip(
                functional, oracle.label_request_many(triples)
            ):
                if not result.label.is_tracking:
                    continue
                if request.url in incumbent_blocked:
                    continue
                offenders.setdefault(result.matched_rule, request.url)
            if not offenders:
                break
            for rule, url in sorted(offenders.items()):
                rejected.append(
                    {
                        "rule": rule,
                        "reason": "blocks functional request",
                        "example": url,
                    }
                )
            kept = [rule for rule in kept if rule not in offenders]
        return kept, rejected

    def _blocked_scripts(self, oracle: FilterListOracle) -> frozenset[str]:
        return frozenset(
            script.url
            for script in self._web.scripts
            if oracle.should_block_url(script.url, ResourceType.SCRIPT)
        )

    def _breakage_gate(
        self, rules: list[str], incumbent: FilterListOracle
    ) -> tuple[list[str], list[dict], dict]:
        """Reject rules whose script-level blocking makes any sampled
        site's breakage grade worse than the incumbent's."""
        sites = sorted(self._web.websites, key=lambda s: s.url)[
            : self._breakage_sites
        ]
        incumbent_blocked = self._blocked_scripts(incumbent)
        incumbent_levels = {
            site.url: assess_breakage(
                site,
                incumbent_blocked & frozenset(site.script_urls()),
                engine=self._engine,
            ).level
            for site in sites
        }
        kept = list(rules)
        rejected: list[dict] = []
        breakage_counts = {level.value: 0 for level in BreakageLevel}
        worse_sites: list[str] = []
        for _ in range(_MAX_REPAIR_PASSES):
            candidate = FilterListOracle(
                *self._base,
                parse_filter_list("\n".join(kept) + "\n", name=HOTFIX_LIST),
            )
            candidate_blocked = self._blocked_scripts(candidate)
            hotfix_only = FilterListOracle(
                parse_filter_list("\n".join(kept) + "\n", name=HOTFIX_LIST)
            )
            breakage_counts = {level.value: 0 for level in BreakageLevel}
            worse_sites = []
            worse_scripts: set[str] = set()
            for site in sites:
                cand_report = assess_breakage(
                    site,
                    candidate_blocked & frozenset(site.script_urls()),
                    engine=self._engine,
                )
                breakage_counts[cand_report.level.value] += 1
                if (
                    _SEVERITY[cand_report.level]
                    > _SEVERITY[incumbent_levels[site.url]]
                ):
                    worse_sites.append(site.url)
                    worse_scripts |= (
                        candidate_blocked - incumbent_blocked
                    ) & frozenset(site.script_urls())
            if not worse_sites or not kept:
                break
            offenders: dict[str, str] = {}
            for script_url in sorted(worse_scripts):
                labeled = hotfix_only.label_request(
                    script_url, ResourceType.SCRIPT
                )
                if labeled.label.is_tracking and labeled.matched_rule:
                    offenders.setdefault(labeled.matched_rule, script_url)
            if not offenders:
                break  # worsening not attributable to a hotfix rule
            for rule, script_url in sorted(offenders.items()):
                rejected.append(
                    {
                        "rule": rule,
                        "reason": "worsens breakage grade",
                        "example": script_url,
                    }
                )
            kept = [rule for rule in kept if rule not in offenders]
        summary = {
            "sampled_sites": len(sites),
            "candidate_levels": breakage_counts,
            "worse_sites": worse_sites,
        }
        return kept, rejected, summary

    def _validate_surrogates(
        self, directives: list[SurrogateDirective]
    ) -> tuple[list[SurrogateDirective], list[dict]]:
        """Generate and verify the actual surrogate source per directive."""
        kept: list[SurrogateDirective] = []
        rejected: list[dict] = []
        for directive in directives:
            try:
                spec = self._web.script(directive.script)
            except KeyError:
                rejected.append(
                    {
                        "script": directive.script,
                        "reason": "no script source available",
                    }
                )
                continue
            source = script_to_source(spec)
            surrogate = generate_surrogate_source(
                source, directive.removed_methods
            )
            if not surrogate.complete:
                rejected.append(
                    {
                        "script": directive.script,
                        "reason": "methods not found in source: "
                        + ", ".join(surrogate.missing),
                    }
                )
                continue
            if not verify_surrogate_source(surrogate, analyze_source(source)):
                rejected.append(
                    {
                        "script": directive.script,
                        "reason": "surrogate verification failed",
                    }
                )
                continue
            kept.append(directive)
        return kept, rejected

    def _compile_candidate(
        self,
        index: int,
        kept: list[str],
        origins: dict[str, dict],
        surrogates: list[SurrogateDirective],
    ) -> tuple[ParsedList, bool]:
        """Serialize the surviving candidate through the real parser."""
        candidate = FilterRecommendation(surrogates=list(surrogates))
        for rule in kept:
            axis = origins.get(rule, {}).get("axis", "domain")
            bucket = {
                "domain": candidate.domain_rules,
                "hostname": candidate.hostname_rules,
                "script": candidate.script_rules,
            }[axis]
            bucket.append(rule)
        text = candidate.to_filter_list(
            title=f"TrackerSift hotfix (loop round {index})"
        )
        hotfix = parse_filter_list(text, name=HOTFIX_LIST)
        parse_ok = (
            not hotfix.error_lines
            and len(hotfix.blocking_rules) == len(kept)
        )
        if not parse_ok:
            raise LoopError(
                f"candidate revision failed to compile: "
                f"{len(hotfix.error_lines)} error line(s), "
                f"{len(hotfix.blocking_rules)} of {len(kept)} rules parsed"
            )
        return hotfix, parse_ok

    def _roundtrip_failures(
        self,
        kept: list[str],
        origins: dict[str, dict],
        workload: list[_WorkloadRequest],
        candidate: FilterListOracle,
    ) -> list[dict]:
        """The parse→match round-trip property, checked per kept rule:
        the compiled candidate oracle must block sample URLs of the
        resource each rule was emitted for."""
        by_domain: dict[str, list[_WorkloadRequest]] = {}
        by_hostname: dict[str, list[_WorkloadRequest]] = {}
        for request in workload:
            if not request.tracking:
                continue
            try:
                host = hostname(request.url)
            except ValueError:
                continue
            if len(by_hostname.setdefault(host, [])) < 3:
                by_hostname[host].append(request)
            domain = registrable_domain(host) or host
            if len(by_domain.setdefault(domain, [])) < 3:
                by_domain[domain].append(request)
        failures: list[dict] = []
        for rule in kept:
            origin = origins.get(rule)
            if origin is None:
                continue
            axis, key = origin["axis"], origin["key"]
            if axis == "script":
                if not candidate.should_block_url(key, ResourceType.SCRIPT):
                    failures.append(
                        {"rule": rule, "axis": axis, "url": key}
                    )
                continue
            samples = (by_domain if axis == "domain" else by_hostname).get(
                key, []
            )
            for request in samples:
                resource = (
                    ResourceType.from_option(request.resource_type)
                    or ResourceType.OTHER
                )
                if not candidate.should_block_url(
                    request.url, resource, request.page_url
                ):
                    failures.append(
                        {"rule": rule, "axis": axis, "url": request.url}
                    )
        return failures

    def _attribution(
        self, kept: list[str], origins: dict[str, dict]
    ) -> dict:
        """Per-rule churn attribution for the hotfix list this round."""
        previous = set(self._active_rules)
        current = set(kept)

        def describe(rule: str) -> dict:
            origin = origins.get(rule) or self._rule_origins.get(rule) or {}
            return {
                "rule": rule,
                "axis": origin.get("axis", "unknown"),
                "key": origin.get("key", ""),
            }

        return {
            "list": HOTFIX_LIST,
            "added": [describe(rule) for rule in sorted(current - previous)],
            "removed": [
                describe(rule) for rule in sorted(previous - current)
            ],
            "unchanged": len(current & previous),
        }

    @staticmethod
    def _hotfix_entry(reload_report: dict) -> dict:
        for entry in reload_report["lists"]:
            if entry["name"] == HOTFIX_LIST:
                return entry
        raise LoopError("reload report carries no hotfix list entry")

    def _attribution_consistent(
        self, reload_report: dict, attribution: dict
    ) -> bool:
        """The loop's rule-level attribution must agree with the service's
        by-name churn pairing (an add-only candidate reports incremental
        added/removed, never a full replacement)."""
        entry = self._hotfix_entry(reload_report)
        return (
            entry["added"] == len(attribution["added"])
            and entry["removed"] == len(attribution["removed"])
            and entry["unchanged"] == attribution["unchanged"]
        )

    def _identity_gate(
        self, workload: list[_WorkloadRequest], chunk: int = 256
    ) -> tuple[bool, int]:
        """Served-vs-offline identity for the revision that answered.

        Replays the workload through the live service in batches and
        compares every decision against an *independently built* oracle
        over the served snapshot's own rule lines (re-parsed, so a
        snapshot opened from an artifact is checked the same way).  Any
        label/blocked mismatch or a decision answered by a different
        revision counts."""
        snapshot = self._service.snapshot
        offline = FilterListOracle(
            *(
                parse_filter_list("\n".join(lines), name=name)
                for name, lines in snapshot.rule_lines()
            )
        )
        mismatches = 0
        for start in range(0, len(workload), chunk):
            batch = workload[start : start + chunk]
            response = self._service.decide_batch(
                [
                    {
                        "url": request.url,
                        "resource_type": request.resource_type,
                        "page_url": request.page_url,
                    }
                    for request in batch
                ]
            )
            expected = offline.label_request_many(self._triples(batch))
            for decision, labeled in zip(response["decisions"], expected):
                if (
                    decision["label"] != labeled.label.value
                    or decision["blocked"] != labeled.label.is_tracking
                    or decision["revision"] != snapshot.revision
                ):
                    mismatches += 1
        return mismatches == 0, mismatches
