"""Finer-grained content blocking from sift results (paper §1/§7).

The paper's conclusion: "TrackerSift paves the way towards finer-grained
content blocking ... [and] can be used to automatically generate surrogate
scripts".  This module operationalises that:

* :func:`generate_recommendation` turns a :class:`SiftReport` into a
  deployable blocking recommendation — ABP rules for tracking domains and
  hostnames, ``$script`` rules for tracking scripts, and surrogate
  directives (tracking-method removals) for mixed scripts;
* :func:`evaluate_strategy` replays a labeled request log against a
  blocking *strategy* and scores it on the two axes the paper frames the
  whole problem around: tracking blocked (privacy) versus functional
  requests blocked (breakage).

Strategies model the realistic policy space:

* ``CONSERVATIVE`` — block only resources classified tracking at the domain
  level (what a cautious list author ships): misses everything hidden in
  mixed resources.
* ``NAIVE_MIXED`` — block tracking *and* mixed domains (what an aggressive
  list author ships): catches the tracking but takes functional traffic
  down with it.
* ``TRACKERSIFT`` — hierarchical: block tracking resources at every
  granularity and shim mixed scripts with surrogates; only requests from
  still-mixed methods remain undecided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..labeling.labeler import AnalyzedRequest
from ..urlkit import URLError
from ..urlkit.url import normalize_host
from .classifier import ResourceClass
from .results import SiftReport

__all__ = [
    "BlockingStrategy",
    "FilterRecommendation",
    "StrategyOutcome",
    "generate_recommendation",
    "evaluate_strategy",
    "compare_strategies",
    "host_rule",
    "script_rule",
]


class BlockingStrategy(str, Enum):
    """The policy space evaluated in the strategy comparison."""

    CONSERVATIVE = "conservative"
    NAIVE_MIXED = "naive-mixed"
    TRACKERSIFT = "trackersift"


@dataclass(frozen=True)
class SurrogateDirective:
    """A surrogate recommendation: strip these methods from this script."""

    script: str
    removed_methods: tuple[str, ...]


@dataclass
class FilterRecommendation:
    """Deployable output of a sift: rules plus surrogate directives."""

    domain_rules: list[str] = field(default_factory=list)
    hostname_rules: list[str] = field(default_factory=list)
    script_rules: list[str] = field(default_factory=list)
    surrogates: list[SurrogateDirective] = field(default_factory=list)
    #: sift keys that could not be turned into a well-formed rule (e.g. a
    #: hostname IDNA refuses to encode) — dropped loudly, never silently.
    dropped_keys: list[str] = field(default_factory=list)

    @property
    def rule_count(self) -> int:
        return (
            len(self.domain_rules)
            + len(self.hostname_rules)
            + len(self.script_rules)
        )

    def all_rules(self) -> list[str]:
        """Every emitted rule, coarse axis first, in emission order."""
        return self.domain_rules + self.hostname_rules + self.script_rules

    def to_filter_list(self, title: str = "TrackerSift generated rules") -> str:
        """Serialise as an Adblock Plus document our own engine can parse.

        Method-granular surrogates have no ABP request syntax; they are
        emitted as comment directives the way uBO surrogate metadata rides
        along in practice.
        """
        lines = [f"! Title: {title}", "! Generated by TrackerSift rulegen"]
        lines += ["! -- tracking domains"] + self.domain_rules
        lines += ["! -- tracking hostnames within mixed domains"]
        lines += self.hostname_rules
        lines += ["! -- tracking scripts hitting mixed hostnames"]
        lines += self.script_rules
        lines += ["! -- surrogate directives for mixed scripts"]
        for directive in self.surrogates:
            methods = ",".join(directive.removed_methods)
            lines.append(f"! surrogate: {directive.script} remove {methods}")
        return "\n".join(lines) + "\n"


def generate_recommendation(report: SiftReport) -> FilterRecommendation:
    """Build the blocking recommendation from a sift report.

    Emit-side host normalization mirrors the matcher's
    :class:`~repro.filterlists.matcher.RequestShape` (trailing-dot strip,
    lowercase, IDNA/punycode), so every ``||host^`` rule survives the
    parse→match round trip against the requests that produced it.  A key
    that cannot be normalized is recorded in ``dropped_keys`` instead of
    becoming a dead rule.  Rules are deduplicated per axis and across
    axes (coarsest axis wins), so a resource surfacing under several
    granularities counts once per axis, not once per covering rule.
    """
    rec = FilterRecommendation()
    emitted: set[str] = set()

    def emit(bucket: list[str], rule: str | None, key: str) -> None:
        if rule is None:
            rec.dropped_keys.append(key)
            return
        if rule in emitted:
            return
        emitted.add(rule)
        bucket.append(rule)

    def tracking(granularity: str):
        # The hierarchical sift only descends into MIXED resources, so a
        # clean population legitimately stops short of the finer levels —
        # an absent level recommends nothing, it is not an error.
        try:
            level = report.level(granularity)
        except KeyError:
            return ()
        return level.by_class(ResourceClass.TRACKING)

    for result in tracking("domain"):
        emit(rec.domain_rules, host_rule(result.key), result.key)
    for result in tracking("hostname"):
        emit(rec.hostname_rules, host_rule(result.key), result.key)
    for result in tracking("script"):
        emit(rec.script_rules, script_rule(result.key), result.key)

    removals: dict[str, list[str]] = {}
    for result in tracking("method"):
        script, separator, method = result.key.rpartition("@")
        if not separator or not script or not method:
            # A method key that does not carry its script ("@" missing, or
            # either side empty) cannot name a surrogate target; emitting
            # it would produce an empty directive.
            rec.dropped_keys.append(result.key)
            continue
        removals.setdefault(script, []).append(method)
    for script, methods in sorted(removals.items()):
        rec.surrogates.append(
            SurrogateDirective(script=script, removed_methods=tuple(sorted(methods)))
        )
    return rec


def host_rule(host_key: str) -> str | None:
    """``||host^`` for a sifted domain/hostname key, match-normalized.

    Returns ``None`` when the key cannot be normalized into a host the
    matcher could ever see (empty, or IDNA-invalid) — a rule emitted from
    it would parse fine and then never match anything.
    """
    try:
        return f"||{normalize_host(host_key)}^"
    except URLError:
        return None


def script_rule(script_url: str) -> str | None:
    """An ABP rule blocking a script resource by its URL.

    The authority portion is normalized exactly like :func:`host_rule`;
    the path is kept verbatim (the matcher compares paths case-
    sensitively as rule authors wrote them).
    """
    body = script_url
    for prefix in ("https://", "http://"):
        if body.startswith(prefix):
            body = body.removeprefix(prefix)
            break
    # Inline scripts have no fetchable URL; rule authors fall back to the
    # page (documented as a caveat — one reason the paper prefers shims).
    body = body.split("#", 1)[0]
    host, slash, path = body.partition("/")
    try:
        host = normalize_host(host)
    except URLError:
        return None
    return f"||{host}{slash}{path}^$script"


@dataclass(frozen=True)
class StrategyOutcome:
    """How one strategy scores on a labeled request log."""

    strategy: BlockingStrategy
    tracking_blocked: int
    tracking_total: int
    functional_blocked: int
    functional_total: int

    @property
    def tracking_coverage(self) -> float:
        if self.tracking_total == 0:
            return 0.0
        return self.tracking_blocked / self.tracking_total

    @property
    def collateral_rate(self) -> float:
        if self.functional_total == 0:
            return 0.0
        return self.functional_blocked / self.functional_total

    @property
    def tracking_missed(self) -> int:
        return self.tracking_total - self.tracking_blocked


def _classes(report: SiftReport) -> tuple[dict, dict, dict, dict]:
    return (
        {k: r.resource_class for k, r in report.domain.resources.items()},
        {k: r.resource_class for k, r in report.hostname.resources.items()},
        {k: r.resource_class for k, r in report.script.resources.items()},
        {k: r.resource_class for k, r in report.method.resources.items()},
    )


def _blocks(
    request: AnalyzedRequest,
    strategy: BlockingStrategy,
    domain_cls: dict,
    host_cls: dict,
    script_cls: dict,
    method_cls: dict,
) -> bool:
    domain = domain_cls.get(request.domain)
    if strategy is BlockingStrategy.CONSERVATIVE:
        return domain is ResourceClass.TRACKING
    if strategy is BlockingStrategy.NAIVE_MIXED:
        return domain in (ResourceClass.TRACKING, ResourceClass.MIXED)
    # TRACKERSIFT: descend exactly the way the hierarchy attributed.
    if domain is ResourceClass.TRACKING:
        return True
    if domain is not ResourceClass.MIXED:
        return False
    host = host_cls.get(request.hostname)
    if host is ResourceClass.TRACKING:
        return True
    if host is not ResourceClass.MIXED:
        return False
    script = script_cls.get(request.script)
    if script is ResourceClass.TRACKING:
        return True
    if script is not ResourceClass.MIXED:
        return False
    method = method_cls.get(f"{request.script}@{request.method}")
    return method is ResourceClass.TRACKING


def evaluate_strategy(
    requests: list[AnalyzedRequest],
    report: SiftReport,
    strategy: BlockingStrategy,
) -> StrategyOutcome:
    """Score a strategy on the request log that produced ``report``."""
    domain_cls, host_cls, script_cls, method_cls = _classes(report)
    tracking_blocked = functional_blocked = 0
    tracking_total = functional_total = 0
    for request in requests:
        blocked = _blocks(
            request, strategy, domain_cls, host_cls, script_cls, method_cls
        )
        if request.is_tracking:
            tracking_total += 1
            tracking_blocked += blocked
        else:
            functional_total += 1
            functional_blocked += blocked
    return StrategyOutcome(
        strategy=strategy,
        tracking_blocked=tracking_blocked,
        tracking_total=tracking_total,
        functional_blocked=functional_blocked,
        functional_total=functional_total,
    )


def compare_strategies(
    requests: list[AnalyzedRequest], report: SiftReport
) -> list[StrategyOutcome]:
    """All strategies, scored on the same log — the paper's trade-off table."""
    return [
        evaluate_strategy(requests, report, strategy)
        for strategy in BlockingStrategy
    ]
