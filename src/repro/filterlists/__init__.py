"""EasyList/EasyPrivacy substrate: Adblock Plus filter parsing and matching.

This subpackage is TrackerSift's *test oracle* (paper §3, "Labeling"): a
network request matching EasyList or EasyPrivacy is tracking, everything
else is functional.  It is a complete ABP network-rule engine — parser,
rule model with options, token-indexed matcher, embedded list snapshots,
and a compiled-artifact layer (:mod:`repro.filterlists.compile`) that
writes a built matcher's flat image to disk so consumers map it without
re-parsing or re-indexing — not a lookup table.

The labeling path (parser, rules, matcher, cache, oracle, embedded lists)
imports with the package; the artifact layer (:mod:`compile` and the
:mod:`image` it builds) and :mod:`maintenance` load on first use.
"""

from .. import _lazy
from .cache import CachedMatcher, CacheStats, DecisionCache
from .lists import (
    AD_PATH_MARKERS,
    ADVERTISING_DOMAINS,
    EASYLIST_SNAPSHOT,
    EASYPRIVACY_SNAPSHOT,
    TRACKER_DOMAINS,
    TRACKER_PATH_MARKERS,
    default_lists,
    load_easylist,
    load_easyprivacy,
    load_list_files,
)
from .matcher import FilterMatcher, MatchResult
from .oracle import FilterListOracle, Label, LabeledRequest
from .parser import ParsedList, parse_filter_list, parse_rule_line
from .rules import (
    NetworkRule,
    RequestContext,
    ResourceType,
    RuleOptions,
    RuleParseError,
)

__getattr__ = _lazy.lazy_exports(
    __name__,
    {
        "compile": (
            "ArtifactError",
            "compile_lists",
            "compile_matcher",
            "open_image",
            "read_artifact_meta",
        ),
        "maintenance": ("ListDiff", "diff_lists", "find_redundant_rules"),
    },
)

__all__ = [
    "NetworkRule",
    "RequestContext",
    "ResourceType",
    "RuleOptions",
    "RuleParseError",
    "ParsedList",
    "parse_filter_list",
    "parse_rule_line",
    "FilterMatcher",
    "MatchResult",
    "CachedMatcher",
    "CacheStats",
    "DecisionCache",
    "ArtifactError",
    "compile_lists",
    "compile_matcher",
    "open_image",
    "read_artifact_meta",
    "FilterListOracle",
    "Label",
    "LabeledRequest",
    "load_easylist",
    "load_easyprivacy",
    "default_lists",
    "load_list_files",
    "EASYLIST_SNAPSHOT",
    "EASYPRIVACY_SNAPSHOT",
    "TRACKER_DOMAINS",
    "ADVERTISING_DOMAINS",
    "TRACKER_PATH_MARKERS",
    "AD_PATH_MARKERS",
    "ListDiff",
    "diff_lists",
    "find_redundant_rules",
]
