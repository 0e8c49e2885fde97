"""Synthetic web population — the substitute for the paper's 100K crawl.

The generator builds a deterministic, seeded population of publishers,
trackers, CDNs and mixed organisations whose planned traffic reproduces the
paper's published marginals (Tables 1-2) at any crawl scale.  The
TrackerSift pipeline never reads these plans; it re-derives everything from
browser events plus the filter-list oracle.

The generator and its building blocks import with the package; the web
transforms (:mod:`cloaking`, :mod:`internal`, :mod:`anonymize`) load on
first use.
"""

from .. import _lazy
from .allocation import (
    allocate_volumes,
    impurity_for_pure,
    largest_remainder,
    log_ratio,
    split_mixed_volume,
    split_mixed_volumes,
    zipf_weights,
)
from .bundler import bundle_scripts, inline_script, webpack_bundle_name
from .calibration import (
    PAPER,
    LevelTargets,
    PaperTargets,
    ScaledTargets,
    scale_targets,
)
from .generator import SyntheticWeb, SyntheticWebGenerator, generate_web
from .naming import NameFactory
from .resources import (
    Category,
    DomainSpec,
    Frame,
    HostnameSpec,
    Invocation,
    MethodSpec,
    PlannedRequest,
    ScriptKind,
    ScriptSpec,
)
from .website import (
    CORE_FEATURES,
    SECONDARY_FEATURES,
    Functionality,
    FunctionalityTier,
    Website,
)

__getattr__ = _lazy.lazy_exports(
    __name__,
    {
        "anonymize": ("ANONYMOUS_NAME", "AnonymizeManifest", "anonymize_methods"),
        "cloaking": ("CloakingManifest", "apply_cname_cloaking"),
        "internal": ("InternalPagesManifest", "add_internal_pages"),
    },
)

__all__ = [
    "Category",
    "Frame",
    "PlannedRequest",
    "Invocation",
    "MethodSpec",
    "ScriptKind",
    "ScriptSpec",
    "HostnameSpec",
    "DomainSpec",
    "Functionality",
    "FunctionalityTier",
    "Website",
    "CORE_FEATURES",
    "SECONDARY_FEATURES",
    "LevelTargets",
    "PaperTargets",
    "PAPER",
    "ScaledTargets",
    "scale_targets",
    "SyntheticWeb",
    "SyntheticWebGenerator",
    "generate_web",
    "CloakingManifest",
    "apply_cname_cloaking",
    "InternalPagesManifest",
    "add_internal_pages",
    "AnonymizeManifest",
    "anonymize_methods",
    "ANONYMOUS_NAME",
    "NameFactory",
    "bundle_scripts",
    "inline_script",
    "webpack_bundle_name",
    "zipf_weights",
    "largest_remainder",
    "allocate_volumes",
    "split_mixed_volume",
    "split_mixed_volumes",
    "impurity_for_pure",
    "log_ratio",
]
