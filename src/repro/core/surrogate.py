"""Surrogate-script generation (paper §5, "Blocking mixed scripts").

Content blockers already shim known-problematic scripts with hand-written
*surrogate scripts* (NoScript, uBlock Origin, AdGuard, Firefox SmartBlock).
TrackerSift automates this: once method classification has labeled the
methods of a mixed script, removing the tracking methods yields a surrogate
that keeps the functional behaviour.

The paper also flags the risk: dynamic analysis has coverage gaps, so a
method that *looked* tracking-only (or was never observed) might carry
functional duties; naive removal then breaks the page.  The validator
replays the page with the surrogate installed and reports both the tracking
requests removed and any functionality broken.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..browser.breakage import BreakageLevel, grade_breakage
from ..browser.engine import BlockingPolicy, BrowserEngine
from ..webmodel.resources import ScriptSpec
from ..webmodel.website import Website
from .classifier import ResourceClass
from .results import SiftReport

__all__ = ["SurrogateScript", "SurrogateValidation", "generate_surrogate", "validate_surrogate"]


@dataclass(frozen=True)
class SurrogateScript:
    """A mixed script with its tracking methods stripped."""

    original_url: str
    removed_methods: tuple[str, ...]
    kept_methods: tuple[str, ...]

    @property
    def policy(self) -> BlockingPolicy:
        """The blocking policy that installs this surrogate at runtime."""
        return BlockingPolicy(
            removed_methods=frozenset(
                (self.original_url, method) for method in self.removed_methods
            )
        )

    @property
    def is_noop(self) -> bool:
        return not self.removed_methods


def generate_surrogate(
    script: ScriptSpec,
    report: SiftReport,
    *,
    remove_mixed: bool = False,
) -> SurrogateScript:
    """Build a surrogate for ``script`` from a sift report's method level.

    Methods classified tracking are removed; functional methods are kept.
    Methods the sift never saw (no observed requests, or below the method
    level because the script resolved earlier) are conservatively kept.
    ``remove_mixed`` additionally strips methods still classified as mixed —
    more tracking removed, more breakage risk; the benchmark quantifies the
    trade-off.
    """
    method_level = report.method
    removed: list[str] = []
    kept: list[str] = []
    for method in script.methods:
        key = f"{script.url}@{method.name}"
        result = method_level.resources.get(key)
        if result is None:
            kept.append(method.name)
            continue
        if result.resource_class is ResourceClass.TRACKING:
            removed.append(method.name)
        elif result.resource_class is ResourceClass.MIXED and remove_mixed:
            removed.append(method.name)
        else:
            kept.append(method.name)
    return SurrogateScript(
        original_url=script.url,
        removed_methods=tuple(removed),
        kept_methods=tuple(kept),
    )


@dataclass(frozen=True)
class SurrogateValidation:
    """Replay outcome: what the surrogate removed and what it broke."""

    surrogate: SurrogateScript
    website: str
    tracking_removed: int
    tracking_remaining: int
    functional_removed: int
    functional_remaining: int
    breakage: BreakageLevel
    broken_features: tuple[str, ...]

    @property
    def collateral_rate(self) -> float:
        total = self.functional_removed + self.functional_remaining
        return self.functional_removed / total if total else 0.0

    @property
    def safe(self) -> bool:
        return self.breakage is BreakageLevel.NONE and self.functional_removed == 0


def validate_surrogate(
    website: Website,
    script: ScriptSpec,
    surrogate: SurrogateScript,
    *,
    oracle_label=None,
    engine: BrowserEngine | None = None,
) -> SurrogateValidation:
    """Replay ``website`` with the surrogate installed and diff behaviour.

    ``oracle_label`` is a callable ``url -> bool`` (is tracking); by default
    the embedded filter-list oracle is used, so validation judges requests
    exactly the way the measurement pipeline does.
    """
    if oracle_label is None:
        from ..filterlists.oracle import FilterListOracle

        oracle = FilterListOracle()

        def oracle_label(url: str) -> bool:
            return oracle.label(url).is_tracking

    engine = engine or BrowserEngine()
    control = engine.load(website)
    treatment = engine.load(website, policy=surrogate.policy)

    def counts(page, from_script: str) -> tuple[int, int]:
        tracking = functional = 0
        for event in page.script_initiated_requests:
            if event.initiator_script != from_script:
                continue
            if oracle_label(event.url):
                tracking += 1
            else:
                functional += 1
        return tracking, functional

    control_t, control_f = counts(control, script.url)
    treat_t, treat_f = counts(treatment, script.url)
    level, core, secondary = grade_breakage(
        control.functionality, treatment.functionality, website
    )
    return SurrogateValidation(
        surrogate=surrogate,
        website=website.url,
        tracking_removed=control_t - treat_t,
        tracking_remaining=treat_t,
        functional_removed=control_f - treat_f,
        functional_remaining=treat_f,
        breakage=level,
        broken_features=core + secondary,
    )
