"""Websites, pages and their functionality model.

A website in the synthetic web is a landing page (the paper crawls landing
pages only) that includes a set of scripts and exposes *functionalities* —
the user-visible features the paper's breakage analysis checks (§5,
Table 3).  Core functionality (search bar, menu, images, page navigation)
versus secondary functionality (comments, media widgets, video player,
icons) follow the paper's definitions, and each functionality declares
which scripts (optionally which methods) it needs to work.
"""

from __future__ import annotations

from enum import Enum

from .._record import Record
from .resources import ScriptSpec

__all__ = ["FunctionalityTier", "Functionality", "Website", "CORE_FEATURES", "SECONDARY_FEATURES"]


class FunctionalityTier(str, Enum):
    """The paper's breakage severity taxonomy."""

    CORE = "core"
    SECONDARY = "secondary"


#: Feature vocabularies straight from the paper's breakage definitions.
CORE_FEATURES: tuple[str, ...] = (
    "search bar",
    "menu",
    "images",
    "page navigation",
    "scroll bar",
    "page banners",
    "page load",
)
SECONDARY_FEATURES: tuple[str, ...] = (
    "comment section",
    "review section",
    "media widgets",
    "video player",
    "icons",
    "social share buttons",
    "newsletter signup",
)


class Functionality(Record):
    """One user-visible feature and its script dependencies.

    ``required_methods`` refines the dependency to specific methods: if
    empty, blocking the script breaks the feature; if non-empty, the feature
    breaks only when one of those methods is removed (this is what makes
    method-granular surrogates safer than script blocking).

    Both dependency sets are shared within one generated web: features
    with equal dependencies hold the same frozenset, and most hold the
    same empty one.  They are read-only; replace the feature (as
    :func:`~repro.webmodel.anonymize.anonymize_methods` does) to change
    them.
    """

    __slots__ = ("name", "tier", "required_scripts", "required_methods")

    name: str
    tier: FunctionalityTier
    required_scripts: frozenset[str]
    required_methods: frozenset[tuple[str, str]]

    def __init__(
        self,
        name: str,
        tier: FunctionalityTier,
        required_scripts: frozenset[str] = frozenset(),
        required_methods: frozenset[tuple[str, str]] = frozenset(),
    ) -> None:
        self.name = name
        self.tier = tier
        self.required_scripts = required_scripts
        self.required_methods = required_methods

    def works(self, blocked_scripts: frozenset[str], removed_methods: frozenset[tuple[str, str]]) -> bool:
        """Does the feature work given blocked scripts / removed methods?"""
        if self.required_methods:
            if any(m in removed_methods for m in self.required_methods):
                return False
            # A method dependency also fails when its whole script is gone.
            return not any(script in blocked_scripts for script, _ in self.required_methods)
        return not (self.required_scripts & blocked_scripts)


class Website(Record):
    """One crawl target: a landing page, its scripts, its features."""

    __slots__ = ("url", "rank", "scripts", "functionalities")

    url: str
    rank: int
    scripts: list[ScriptSpec]
    functionalities: list[Functionality]

    def __init__(
        self,
        url: str,
        rank: int,
        scripts: list[ScriptSpec] | None = None,
        functionalities: list[Functionality] | None = None,
    ) -> None:
        self.url = url
        self.rank = rank
        self.scripts = [] if scripts is None else scripts
        self.functionalities = [] if functionalities is None else functionalities

    def script_urls(self) -> list[str]:
        return [script.url for script in self.scripts]

    def mixed_scripts(self) -> list[ScriptSpec]:
        """Scripts whose *planned* behaviour is mixed (generator intent)."""
        from .resources import Category

        return [s for s in self.scripts if s.category is Category.MIXED]

    def functionality_status(
        self,
        blocked_scripts: frozenset[str] = frozenset(),
        removed_methods: frozenset[tuple[str, str]] = frozenset(),
    ) -> dict[str, bool]:
        """Map feature name -> works?, under the given blocking decision."""
        return {
            feature.name: feature.works(blocked_scripts, removed_methods)
            for feature in self.functionalities
        }
