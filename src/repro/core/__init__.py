"""TrackerSift core: the paper's primary contribution.

* :mod:`classifier` — Equation 1 and the ±2 threshold classifier,
* :mod:`hierarchy` — progressive domain → hostname → script → method sift,
* :mod:`results` — level reports, separation factors,
* :mod:`engine` — streaming sharded execution with memoized labeling,
* :mod:`pipeline` — end-to-end study orchestration,
* :mod:`sensitivity` — Figure 4 threshold sweep,
* :mod:`callstack_analysis` — Figure 5 point-of-divergence search,
* :mod:`surrogate` — automated surrogate scripts for mixed scripts,
* :mod:`guards` — invariant-inference guards for residual mixed methods.

The study path (classifier, hierarchy, results, engine, pipeline) imports
with the package; the names re-exported from :mod:`sensitivity`,
:mod:`callstack_analysis`, :mod:`surrogate`, :mod:`guards` and
:mod:`rulegen` load their module on first use.
"""

from .. import _lazy
from .classifier import (
    DEFAULT_THRESHOLD,
    RatioClassifier,
    ResourceClass,
    ResourceCounts,
    log_ratio,
)
from .engine import ShardState, SiftAccumulator, StreamingPipeline
from .hierarchy import HierarchicalSifter, sift_requests
from .pipeline import PipelineConfig, PipelineResult, TrackerSiftPipeline, run_study
from .results import LevelReport, ResourceResult, SiftReport

__getattr__ = _lazy.lazy_exports(
    __name__,
    {
        "callstack_analysis": (
            "CallGraph",
            "DivergenceResult",
            "analyze_mixed_method",
            "build_call_graph",
        ),
        "guards": (
            "GuardEvaluation",
            "InvocationObservation",
            "MethodGuard",
            "collect_observations",
            "evaluate_guard",
            "infer_guard",
            "mixed_method_guards",
        ),
        "rulegen": (
            "BlockingStrategy",
            "FilterRecommendation",
            "StrategyOutcome",
            "compare_strategies",
            "evaluate_strategy",
            "generate_recommendation",
        ),
        "sensitivity": (
            "SensitivityPoint",
            "SensitivityResult",
            "sweep_level",
            "threshold_sweep",
        ),
        "surrogate": (
            "SurrogateScript",
            "SurrogateValidation",
            "generate_surrogate",
            "validate_surrogate",
        ),
    },
)

__all__ = [
    "log_ratio",
    "DEFAULT_THRESHOLD",
    "ResourceClass",
    "ResourceCounts",
    "RatioClassifier",
    "LevelReport",
    "ResourceResult",
    "SiftReport",
    "HierarchicalSifter",
    "sift_requests",
    "PipelineConfig",
    "PipelineResult",
    "TrackerSiftPipeline",
    "StreamingPipeline",
    "SiftAccumulator",
    "ShardState",
    "run_study",
    "SensitivityPoint",
    "SensitivityResult",
    "sweep_level",
    "threshold_sweep",
    "CallGraph",
    "DivergenceResult",
    "build_call_graph",
    "analyze_mixed_method",
    "SurrogateScript",
    "SurrogateValidation",
    "generate_surrogate",
    "validate_surrogate",
    "InvocationObservation",
    "MethodGuard",
    "GuardEvaluation",
    "collect_observations",
    "infer_guard",
    "evaluate_guard",
    "mixed_method_guards",
    "BlockingStrategy",
    "FilterRecommendation",
    "StrategyOutcome",
    "generate_recommendation",
    "evaluate_strategy",
    "compare_strategies",
]
