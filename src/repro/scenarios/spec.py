"""Declarative scenario specifications for the conformance matrix.

A :class:`ScenarioSpec` is the complete, serializable description of one
workload the repo's execution paths must agree on: the synthetic-web
knobs (scale, seed, transforms), an optional filter-list churn schedule,
and a workload trace for the online service.  Specs are *data*, not code:
they round-trip losslessly through JSON (property-tested), so a pack can
be committed, diffed, and replayed bit-identically on any machine —
which is what makes the golden manifests in
:mod:`repro.scenarios.runner` meaningful across PRs.

Determinism contract: every stochastic choice a scenario induces (web
generation, transforms, churn shuffles, trace sampling, token drift) is
keyed on a seed carried *inside* the spec.  Two runs of the same spec
produce byte-identical traces, churn revisions, and decisions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

from ..core.engine import PipelineConfig

__all__ = [
    "ChurnStep",
    "TraceSpec",
    "WebKnobs",
    "ScenarioSpec",
    "CHURN_OPS",
]

#: The churn operations :mod:`repro.scenarios.churn` implements.
CHURN_OPS = ("noop", "reorder", "rename", "drop", "add")


@dataclass(frozen=True)
class ChurnStep:
    """One revision of the filter lists in a scenario's churn schedule.

    ``op`` selects the transformation applied to *every* list of the
    previous revision:

    * ``noop``    — re-parse the same text (a no-op reload);
    * ``reorder`` — shuffle rule order with ``seed`` (decisions unchanged);
    * ``rename``  — append ``suffix`` to each list name (what a
      provider rename looks like to :func:`~repro.filterlists.maintenance.diff_lists`);
    * ``drop``    — remove ``fraction`` of the rules, chosen by ``seed``;
    * ``add``     — append ``count`` generated ``||churn…^`` rules.
    """

    op: str
    seed: int = 0
    fraction: float = 0.0
    suffix: str = ""
    count: int = 0

    def __post_init__(self) -> None:
        if self.op not in CHURN_OPS:
            raise ValueError(f"unknown churn op {self.op!r}; one of {CHURN_OPS}")
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError(f"fraction must be in [0, 1), got {self.fraction}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")


@dataclass(frozen=True)
class TraceSpec:
    """The request workload replayed through :class:`BlockingService`.

    The trace is a seeded sample of the web's planned requests (in
    canonical site/script/method order), optionally mutated by
    cache-buster *token drift*: ``drift`` is the fraction of sampled
    requests whose URL gains a seeded random-digit query token — the
    adversarial input for the digit-run-normalized decision cache.
    ``chunks`` is how many slices the service replay splits the trace
    into; churn reloads land between chunks (hot reload under load).
    """

    requests: int = 400
    seed: int = 101
    drift: float = 0.0
    drift_seed: int = 17
    chunks: int = 1

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("trace needs at least one request")
        if not 0.0 <= self.drift <= 1.0:
            raise ValueError(f"drift must be in [0, 1], got {self.drift}")
        if self.chunks < 1:
            raise ValueError("trace needs at least one chunk")


@dataclass(frozen=True)
class WebKnobs:
    """Opt-in transforms applied to the generated population, in a fixed
    order: internal pages first (they replay landing invocations), then
    CNAME cloaking, then method anonymization.  All default to off, so a
    spec with default knobs is exactly the calibrated population."""

    internal_site_fraction: float = 0.0
    internal_pages_per_site: int = 2
    internal_seed: int = 31
    cloaking_fraction: float = 0.0
    cloaking_seed: int = 23
    anonymize_fraction: float = 0.0
    anonymize_seed: int = 47

    def __post_init__(self) -> None:
        for name in ("internal_site_fraction", "cloaking_fraction", "anonymize_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.internal_pages_per_site < 1:
            raise ValueError("internal_pages_per_site must be >= 1")


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, fully-reproducible workload for the conformance matrix."""

    name: str
    description: str = ""
    sites: int = 80
    seed: int = 7
    cluster_nodes: int = 13
    threshold: float = 2.0
    failure_rate: float = 0.0
    web: WebKnobs = field(default_factory=WebKnobs)
    trace: TraceSpec = field(default_factory=TraceSpec)
    churn: tuple[ChurnStep, ...] = ()
    #: fast packs run in the tier-1 matrix test; slow ones only in the
    #: full (``-m slow``) matrix, the CLI, and the bench.
    fast: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.sites < 10:
            raise ValueError("scenario needs at least 10 sites")
        if not isinstance(self.churn, tuple):
            object.__setattr__(self, "churn", tuple(self.churn))

    def config(self) -> PipelineConfig:
        """The study config every pipeline-shaped execution path uses."""
        return PipelineConfig(
            sites=self.sites,
            seed=self.seed,
            cluster_nodes=self.cluster_nodes,
            threshold=self.threshold,
            failure_rate=self.failure_rate,
        )

    # -- lossless JSON round-trip ------------------------------------------
    def to_dict(self) -> dict:
        record = asdict(self)
        record["churn"] = [asdict(step) for step in self.churn]
        return record

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no float surprises: every field is
        stored verbatim, so ``from_json(to_json(spec)) == spec``)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, record: dict) -> "ScenarioSpec":
        record = dict(record)
        record["web"] = WebKnobs(**record.get("web", {}))
        record["trace"] = TraceSpec(**record.get("trace", {}))
        record["churn"] = tuple(
            ChurnStep(**step) for step in record.get("churn", ())
        )
        known = {f.name for f in fields(cls)}
        unknown = set(record) - known
        if unknown:
            raise ValueError(f"unknown ScenarioSpec fields: {sorted(unknown)}")
        return cls(**record)

    @classmethod
    def from_json(cls, data: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(data))

    def scaled(self, sites: int) -> "ScenarioSpec":
        """The same scenario at a different crawl size (bench smoke mode)."""
        return replace(self, sites=sites)
