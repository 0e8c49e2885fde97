"""Calibrated synthetic-web generator.

This is the substitute for the paper's 100K-site live crawl.  Given a site
count and a seed, it builds a deterministic population of domains,
hostnames, scripts, methods and websites whose *planned* request traffic
reproduces the paper's published marginals (Tables 1 and 2) at any scale:

* entity counts per class at every granularity,
* request counts per class at every granularity,
* per-entity log-ratios inside the correct classification band, so the
  TrackerSift pipeline — which re-derives everything from raw events plus
  the filter-list oracle — recovers the published shape.

The generator works in five phases:

1. **Initiator side** — scripts and methods that hit mixed hostnames, with
   per-entity (tracking, functional) request budgets (Table 1/2 script and
   method rows).
2. **Serving side** — domains and hostnames with per-entity budgets
   (domain and hostname rows); mixed-hostname totals are taken from phase 1
   so the two sides agree exactly.
3. **Pairing** — each method's request budget is spread over concrete
   mixed hostnames; URLs are synthesised so the oracle recovers the intent.
4. **Site assembly** — scripts are placed on websites, per-site app scripts
   absorb the pure-domain traffic, inlining/bundling transforms are applied,
   and functionality dependencies are wired for the breakage study.
5. **Validation** — every entity's realised ratio is checked against its
   class band (also exercised by the test suite).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .allocation import (
    allocate_volumes,
    impurity_for_pure,
    log_ratio,
    split_mixed_volumes,
)
from .bundler import bundle_scripts, inline_script, webpack_bundle_name
from .calibration import PAPER, PaperTargets, ScaledTargets, scale_targets
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

__all__ = ["SyntheticWeb", "SyntheticWebGenerator", "generate_web"]

_TRACKING_EVENTS = ("imp", "click", "view", "scroll-depth")
_FUNCTIONAL_EVENTS = ("load", "render", "fetch", "hydrate")
_RESOURCE_TYPES_TRACKING = ("image", "ping", "xmlhttprequest")
_RESOURCE_TYPES_FUNCTIONAL = ("xmlhttprequest", "image", "script", "stylesheet", "font")


@dataclass
class SyntheticWeb:
    """The fully-planned population handed to the crawler/browser."""

    seed: int
    targets: ScaledTargets
    websites: list[Website]
    domains: list[DomainSpec]
    scripts: list[ScriptSpec]
    #: hosts covered by a ``||domain^``-style rule (tracking-by-domain).
    listed_tracker_domains: frozenset[str]

    @property
    def sites(self) -> int:
        return len(self.websites)

    def website(self, url: str) -> Website:
        for site in self.websites:
            if site.url == url:
                return site
        raise KeyError(url)

    def script(self, url: str) -> ScriptSpec:
        for script in self.scripts:
            if script.url == url:
                return script
        raise KeyError(url)

    def planned_request_count(self) -> int:
        return sum(
            len(inv.requests)
            for script in self.scripts
            for method in script.methods
            for inv in method.invocations
        )

    def validate(self) -> None:
        """Assert every planned entity sits in its classification band."""
        for domain in self.domains:
            t, f = domain.request_counts()
            if t + f == 0:
                raise AssertionError(f"domain {domain.domain} has no requests")
            _check_band(domain.category, t, f, f"domain {domain.domain}")
            if domain.category is Category.MIXED:
                for host in domain.hostnames:
                    _check_band(
                        host.category,
                        host.tracking_requests,
                        host.functional_requests,
                        f"hostname {host.host}",
                    )


def _check_band(category: Category, tracking: int, functional: int, what: str) -> None:
    ratio = log_ratio(tracking, functional)
    if category is Category.TRACKING and not ratio >= 2:
        raise AssertionError(f"{what}: ratio {ratio:.2f} not tracking")
    if category is Category.FUNCTIONAL and not ratio <= -2:
        raise AssertionError(f"{what}: ratio {ratio:.2f} not functional")
    if category is Category.MIXED and not -2 < ratio < 2:
        raise AssertionError(f"{what}: ratio {ratio:.2f} not mixed")


@dataclass
class _Budget:
    """A (tracking, functional) request budget for one planned entity."""

    tracking: int
    functional: int

    @property
    def total(self) -> int:
        return self.tracking + self.functional


def _pure_budgets(
    count: int,
    total: int,
    rng: random.Random,
    *,
    tracking_side: bool,
    allow_impurity: bool = True,
) -> list[_Budget]:
    """Budgets for pure entities: heavy-tailed, optional trickle impurity."""
    volumes = allocate_volumes(count, total, rng, minimum=1)
    budgets: list[_Budget] = []
    for volume in volumes:
        impurity = impurity_for_pure(volume, rng) if allow_impurity else 0
        main = volume - impurity
        if tracking_side:
            budgets.append(_Budget(tracking=main, functional=impurity))
        else:
            budgets.append(_Budget(tracking=impurity, functional=main))
    return budgets


def _mixed_budgets(
    count: int,
    target_tracking: int,
    target_functional: int,
    rng: random.Random,
) -> list[_Budget]:
    volumes = allocate_volumes(
        count, target_tracking + target_functional, rng, minimum=4
    )
    splits = split_mixed_volumes(volumes, target_tracking, target_functional, rng)
    return [_Budget(tracking=t, functional=f) for t, f in splits]


# ---------------------------------------------------------------------------
# Phase 1 — initiator side: scripts and methods hitting mixed hostnames
# ---------------------------------------------------------------------------


@dataclass
class _PlannedMethod:
    name: str
    category: Category
    budget: _Budget
    coverage: float = 1.0
    #: for mixed methods: do tracking and functional invocations have
    #: distinguishable contexts (caller chain / arguments)?  The paper's
    #: Figure 5 and guard proposals only work on the separable majority.
    context_separable: bool = True


@dataclass
class _PlannedScript:
    category: Category
    methods: list[_PlannedMethod] = field(default_factory=list)

    def counts(self) -> tuple[int, int]:
        t = sum(m.budget.tracking for m in self.methods)
        f = sum(m.budget.functional for m in self.methods)
        return t, f

    def in_band(self) -> bool:
        t, f = self.counts()
        if t + f == 0:
            return False
        ratio = log_ratio(t, f)
        if self.category is Category.TRACKING:
            return ratio >= 2
        if self.category is Category.FUNCTIONAL:
            return ratio <= -2
        return -2 < ratio < 2


def _plan_initiators(
    targets: ScaledTargets, names: NameFactory, rng: random.Random
) -> list[_PlannedScript]:
    """Build the script/method plan for mixed-hostname traffic."""
    script_t = targets.script
    method_t = targets.method

    scripts: list[_PlannedScript] = []

    # Pure tracking / functional scripts: one or two same-class methods.
    for tracking_side, count, total in (
        (True, script_t.entities_tracking, script_t.requests_tracking),
        (False, script_t.entities_functional, script_t.requests_functional),
    ):
        category = Category.TRACKING if tracking_side else Category.FUNCTIONAL
        budgets = _pure_budgets(count, total, rng, tracking_side=tracking_side)
        method_names = names.method_names(category.value, 2)
        for budget in budgets:
            script = _PlannedScript(category=category)
            if budget.total >= 6 and rng.random() < 0.4:
                first = budget.total // 2
                parts = [
                    _Budget(
                        tracking=min(budget.tracking, first),
                        functional=max(0, first - min(budget.tracking, first)),
                    ),
                ]
                rest = _Budget(
                    tracking=budget.tracking - parts[0].tracking,
                    functional=budget.functional - parts[0].functional,
                )
                parts.append(rest)
                for i, part in enumerate(parts):
                    if part.total:
                        script.methods.append(
                            _PlannedMethod(method_names[i % 2], category, part)
                        )
            else:
                script.methods.append(
                    _PlannedMethod(method_names[0], category, budget)
                )
            scripts.append(script)

    # Mixed scripts: composed from the method-level plan.
    mixed_scripts = [
        _PlannedScript(category=Category.MIXED)
        for _ in range(script_t.entities_mixed)
    ]
    t_methods = [
        _PlannedMethod(name, Category.TRACKING, budget)
        for name, budget in zip(
            names.method_names("tracking", method_t.entities_tracking),
            _pure_budgets(
                method_t.entities_tracking,
                method_t.requests_tracking,
                rng,
                tracking_side=True,
            ),
        )
    ]
    f_methods = [
        _PlannedMethod(name, Category.FUNCTIONAL, budget)
        for name, budget in zip(
            names.method_names("functional", method_t.entities_functional),
            _pure_budgets(
                method_t.entities_functional,
                method_t.requests_functional,
                rng,
                tracking_side=False,
            ),
        )
    ]
    mixed_request_total = method_t.requests_mixed
    mixed_tracking = max(
        method_t.entities_mixed, round(0.45 * mixed_request_total)
    )
    mixed_functional = mixed_request_total - mixed_tracking
    m_methods = [
        _PlannedMethod(
            name,
            Category.MIXED,
            budget,
            context_separable=rng.random() < 0.8,
        )
        for name, budget in zip(
            names.method_names("mixed", method_t.entities_mixed),
            _mixed_budgets(
                method_t.entities_mixed, mixed_tracking, mixed_functional, rng
            ),
        )
    ]
    # Low coverage on a slice of methods: the surrogate-safety hazard the
    # paper warns about.  A partially-observed *mixed* method can look
    # purely tracking to the crawl, so a surrogate that removes it silently
    # drops functional behaviour — visible only under forced execution.
    for method in f_methods:
        if rng.random() < 0.08:
            method.coverage = rng.uniform(0.2, 0.7)
    for method in m_methods:
        if rng.random() < 0.08:
            method.coverage = rng.uniform(0.4, 0.8)

    _distribute_methods(mixed_scripts, t_methods, f_methods, m_methods, rng)
    _repair_script_bands(mixed_scripts)
    scripts.extend(mixed_scripts)
    return scripts


def _distribute_methods(
    scripts: list[_PlannedScript],
    t_methods: list[_PlannedMethod],
    f_methods: list[_PlannedMethod],
    m_methods: list[_PlannedMethod],
    rng: random.Random,
) -> None:
    """Assign method entities to mixed scripts, keeping each script mixed.

    Skeletons first: a script gets either one mixed method, or a
    (tracking, functional) pair of similar volume — rank-pairing keeps the
    per-script ratio near the global one.  Leftover methods go wherever they
    do not push a script out of band.
    """
    t_sorted = sorted(t_methods, key=lambda m: m.budget.total, reverse=True)
    f_sorted = sorted(f_methods, key=lambda m: m.budget.total, reverse=True)
    m_sorted = sorted(m_methods, key=lambda m: m.budget.total, reverse=True)

    need_pairs = max(0, len(scripts) - len(m_sorted))
    if need_pairs > min(len(t_sorted), len(f_sorted)):
        raise ValueError(
            "not enough pure methods to seed every mixed script; "
            "increase the crawl size"
        )
    scripts_shuffled = scripts[:]
    rng.shuffle(scripts_shuffled)
    pair_scripts = scripts_shuffled[:need_pairs]
    mixed_seeded = scripts_shuffled[need_pairs:]

    for script, t_m, f_m in zip(pair_scripts, t_sorted, f_sorted):
        script.methods.extend((t_m, f_m))
    leftovers: list[_PlannedMethod] = t_sorted[need_pairs:] + f_sorted[need_pairs:]

    m_iter = iter(m_sorted)
    for script in mixed_seeded:
        script.methods.append(next(m_iter))
    leftovers.extend(m_iter)

    rng.shuffle(leftovers)
    for method in leftovers:
        placed = False
        candidates = rng.sample(scripts, min(len(scripts), 12))
        for script in candidates:
            script.methods.append(method)
            if script.in_band():
                placed = True
                break
            script.methods.pop()
        if not placed:
            # Exhaustive fallback before declaring failure.
            for script in scripts:
                script.methods.append(method)
                if script.in_band():
                    placed = True
                    break
                script.methods.pop()
        if not placed:
            # Park it on the largest script; the repair pass fixes bands.
            max(scripts, key=lambda s: sum(m.budget.total for m in s.methods)).methods.append(method)
    _shape_script_ratio_tail(scripts, rng)


def _script_ratio(script: _PlannedScript) -> float:
    t, f = script.counts()
    return log_ratio(t, f)


def _shape_script_ratio_tail(
    scripts: list[_PlannedScript], rng: random.Random, share: float = 0.05
) -> None:
    """Push a small slice of mixed scripts toward |ratio| in (1, 2).

    The Figure 4 sensitivity curve rises between thresholds 1 and 2 before
    it plateaus — that rise is exactly the scripts whose ratio magnitude
    falls in that band.  Rank-wise method pairing clusters ratios near the
    global mean, so we swap same-class methods between script pairs (which
    preserves every global total) until a calibrated share of scripts sits
    in the near-threshold band, with both swap partners staying in band.
    """
    target = max(1, round(share * len(scripts)))
    current = sum(1 for s in scripts if 1.0 < abs(_script_ratio(s)) < 2.0)
    attempts = 0
    while current < target and attempts < 200 * len(scripts):
        attempts += 1
        a, b = rng.sample(scripts, 2)
        swappable_a = [m for m in a.methods if m.category is Category.FUNCTIONAL]
        swappable_b = [m for m in b.methods if m.category is Category.FUNCTIONAL]
        if not swappable_a or not swappable_b:
            continue
        method_a = rng.choice(swappable_a)
        method_b = rng.choice(swappable_b)
        if method_a.budget.total == method_b.budget.total:
            continue
        before = sum(1 for s in (a, b) if 1.0 < abs(_script_ratio(s)) < 2.0)
        a.methods.remove(method_a)
        b.methods.remove(method_b)
        a.methods.append(method_b)
        b.methods.append(method_a)
        if not (a.in_band() and b.in_band()):
            a.methods.remove(method_b)
            b.methods.remove(method_a)
            a.methods.append(method_a)
            b.methods.append(method_b)
            continue
        after = sum(1 for s in (a, b) if 1.0 < abs(_script_ratio(s)) < 2.0)
        if after <= before:
            a.methods.remove(method_b)
            b.methods.remove(method_a)
            a.methods.append(method_a)
            b.methods.append(method_b)
            continue
        current += after - before


def _repair_script_bands(scripts: list[_PlannedScript]) -> None:
    """Swap methods between scripts until every script is in band."""
    for _ in range(10 * len(scripts) + 100):
        offenders = [s for s in scripts if not s.in_band()]
        if not offenders:
            return
        offender = offenders[0]
        t, f = offender.counts()
        heavy_tracking = t > f
        movable = [
            m
            for m in offender.methods
            if len(offender.methods) > 1
            and (
                m.category is Category.TRACKING
                if heavy_tracking
                else m.category is Category.FUNCTIONAL
            )
        ]
        if not movable:
            movable = [m for m in offender.methods if len(offender.methods) > 1]
        if not movable:
            raise AssertionError("unrepairable mixed script plan")
        method = max(movable, key=lambda m: m.budget.total)
        offender.methods.remove(method)
        # Find a host that stays in band with the extra method.
        for target in sorted(
            scripts, key=lambda s: sum(m.budget.total for m in s.methods)
        ):
            if target is offender:
                continue
            target.methods.append(method)
            if target.in_band():
                break
            target.methods.pop()
        else:
            offender.methods.append(method)  # give up on this move
    remaining = [s for s in scripts if not s.in_band()]
    if remaining:
        raise AssertionError(
            f"{len(remaining)} mixed scripts could not be balanced"
        )


# ---------------------------------------------------------------------------
# Phase 2 — serving side: domains and hostnames
# ---------------------------------------------------------------------------


def _plan_domains(
    targets: ScaledTargets,
    mixed_host_tracking: int,
    mixed_host_functional: int,
    names: NameFactory,
    rng: random.Random,
) -> tuple[list[DomainSpec], frozenset[str]]:
    domain_t = targets.domain
    host_t = targets.hostname

    domains: list[DomainSpec] = []
    listed: set[str] = set()

    # Pure tracking domains.
    tracking_names = names.tracking_domains(domain_t.entities_tracking)
    tracking_budgets: list[_Budget] = []
    volumes = allocate_volumes(
        domain_t.entities_tracking, domain_t.requests_tracking, rng, minimum=1
    )
    for name, volume in zip(tracking_names, volumes):
        if names.is_listed_tracker(name):
            listed.add(name)
            tracking_budgets.append(_Budget(tracking=volume, functional=0))
        else:
            impurity = impurity_for_pure(volume, rng)
            tracking_budgets.append(
                _Budget(tracking=volume - impurity, functional=impurity)
            )
    for name, budget in zip(tracking_names, tracking_budgets):
        domains.append(
            DomainSpec(
                domain=name,
                category=Category.TRACKING,
                hostnames=_pure_domain_hosts(name, Category.TRACKING, budget, rng),
            )
        )

    # Pure functional domains.
    functional_names = names.functional_domains(domain_t.entities_functional)
    functional_budgets = _pure_budgets(
        domain_t.entities_functional,
        domain_t.requests_functional,
        rng,
        tracking_side=False,
    )
    for name, budget in zip(functional_names, functional_budgets):
        domains.append(
            DomainSpec(
                domain=name,
                category=Category.FUNCTIONAL,
                hostnames=_pure_domain_hosts(name, Category.FUNCTIONAL, budget, rng),
            )
        )

    # Mixed domains with their hostname populations.
    n_mixed_domains = domain_t.entities_mixed
    n_mixed_hosts = max(host_t.entities_mixed, n_mixed_domains)
    mixed_domain_names = names.mixed_domains(n_mixed_domains)
    mixed_domains = [
        DomainSpec(domain=name, category=Category.MIXED)
        for name in mixed_domain_names
    ]

    host_budgets_t = _pure_budgets(
        host_t.entities_tracking, host_t.requests_tracking, rng, tracking_side=True
    )
    host_budgets_f = _pure_budgets(
        host_t.entities_functional,
        host_t.requests_functional,
        rng,
        tracking_side=False,
    )
    host_budgets_m = _mixed_budgets(
        n_mixed_hosts, mixed_host_tracking, mixed_host_functional, rng
    )

    _assign_hostnames(
        mixed_domains, host_budgets_t, host_budgets_f, host_budgets_m, names, rng
    )
    _repair_domain_bands(mixed_domains)
    domains.extend(mixed_domains)
    # pixel.wp.com / stats.wp.com are explicitly listed in the snapshot.
    for domain in mixed_domains:
        for host in domain.hostnames:
            if host.host in ("pixel.wp.com", "stats.wp.com"):
                listed.add(host.host)
    return domains, frozenset(listed)


def _pure_domain_hosts(
    domain: str, category: Category, budget: _Budget, rng: random.Random
) -> list[HostnameSpec]:
    """One or two hostnames carrying a pure domain's budget."""
    hosts: list[HostnameSpec] = []
    prefixes = ("www", "cdn") if category is Category.FUNCTIONAL else ("www", "t")
    n_hosts = 2 if budget.total >= 8 and rng.random() < 0.5 else 1
    tracking_left, functional_left = budget.tracking, budget.functional
    for i in range(n_hosts):
        last = i == n_hosts - 1
        if last:
            t_part, f_part = tracking_left, functional_left
        else:
            t_part = tracking_left // 2
            f_part = functional_left // 2
        tracking_left -= t_part
        functional_left -= f_part
        if t_part + f_part == 0:
            continue
        host = domain if i == 0 else f"{prefixes[1]}.{domain}"
        hosts.append(
            HostnameSpec(
                host=host,
                category=category,
                tracking_requests=t_part,
                functional_requests=f_part,
            )
        )
    return hosts


def _domain_counts(domain: DomainSpec) -> tuple[int, int]:
    return domain.request_counts()


def _domain_in_band(domain: DomainSpec) -> bool:
    t, f = _domain_counts(domain)
    if t == 0 and f == 0:
        return False
    ratio = log_ratio(t, f)
    return -2 < ratio < 2


def _assign_hostnames(
    mixed_domains: list[DomainSpec],
    budgets_t: list[_Budget],
    budgets_f: list[_Budget],
    budgets_m: list[_Budget],
    names: NameFactory,
    rng: random.Random,
) -> None:
    """Give every mixed domain >= 1 mixed hostname, then greedy-place rest."""
    budgets_m_sorted = sorted(budgets_m, key=lambda b: b.total, reverse=True)
    order = mixed_domains[:]
    rng.shuffle(order)
    per_domain_index: dict[str, int] = {d.domain: 0 for d in mixed_domains}

    def add_host(domain: DomainSpec, category: Category, budget: _Budget) -> None:
        index = per_domain_index[domain.domain]
        per_domain_index[domain.domain] += 1
        # Re-use the paper's hostnames on wp.com for the case study.
        host = names.hostname(domain.domain, category.value, index)
        domain.hostnames.append(
            HostnameSpec(
                host=host,
                category=category,
                tracking_requests=budget.tracking,
                functional_requests=budget.functional,
            )
        )

    for i, budget in enumerate(budgets_m_sorted[: len(order)]):
        add_host(order[i], Category.MIXED, budget)
    extras = budgets_m_sorted[len(order):]

    remaining: list[tuple[Category, _Budget]] = [
        (Category.MIXED, b) for b in extras
    ]
    remaining += [(Category.TRACKING, b) for b in budgets_t]
    remaining += [(Category.FUNCTIONAL, b) for b in budgets_f]
    remaining.sort(key=lambda item: item[1].total, reverse=True)

    for category, budget in remaining:
        candidates = rng.sample(mixed_domains, min(len(mixed_domains), 10))
        best: DomainSpec | None = None
        best_score = float("inf")
        for domain in candidates:
            t, f = _domain_counts(domain)
            t += budget.tracking
            f += budget.functional
            if t == 0 or f == 0:
                score = float("inf")
            else:
                ratio = log_ratio(t, f)
                score = abs(ratio) if -2 < ratio < 2 else float("inf")
            if score < best_score:
                best, best_score = domain, score
        if best is None or best_score == float("inf"):
            # No sampled candidate stays in band; scan everything.
            for domain in mixed_domains:
                t, f = _domain_counts(domain)
                t += budget.tracking
                f += budget.functional
                if t and f and -2 < log_ratio(t, f) < 2:
                    best = domain
                    break
            else:
                best = rng.choice(mixed_domains)  # repaired later
        add_host(best, category, budget)


def _repair_domain_bands(mixed_domains: list[DomainSpec]) -> None:
    """Move pure hostnames between mixed domains until all are in band."""
    for _ in range(10 * len(mixed_domains) + 100):
        offenders = [d for d in mixed_domains if not _domain_in_band(d)]
        if not offenders:
            return
        offender = offenders[0]
        t, f = _domain_counts(offender)
        heavy_tracking = t > f
        movable = [
            h
            for h in offender.hostnames
            if h.category
            is (Category.TRACKING if heavy_tracking else Category.FUNCTIONAL)
        ]
        if not movable:
            raise AssertionError(
                f"domain {offender.domain} out of band with no movable host"
            )
        host = max(movable, key=lambda h: h.total_requests)
        offender.hostnames.remove(host)
        for target in sorted(
            mixed_domains,
            key=lambda d: _domain_counts(d)[0 if not heavy_tracking else 1],
            reverse=True,
        ):
            if target is offender:
                continue
            target.hostnames.append(host)
            if _domain_in_band(target):
                break
            target.hostnames.pop()
        else:
            offender.hostnames.append(host)
    remaining = [d for d in mixed_domains if not _domain_in_band(d)]
    if remaining:
        raise AssertionError(f"{len(remaining)} mixed domains unbalanced")


# ---------------------------------------------------------------------------
# Phase 3/4 — pairing, URL synthesis, site assembly
# ---------------------------------------------------------------------------


@dataclass
class _HostSlots:
    host: str
    listed: bool
    tracking: int
    functional: int


class _SharedArgs(dict):
    """One ``Invocation.args`` dict per distinct ``(event, dest)`` pair.

    A plan holds tens of thousands of invocations but only a few thousand
    distinct argument contexts, so invocations share their dict (which is
    why :attr:`Invocation.args` is read-only).  Each build owns its own
    table: two webs never share a dict.
    """

    def __missing__(self, key: tuple[str, str]) -> dict[str, str]:
        event, dest = key
        args = self[key] = {"event": event, "dest": dest}
        return args


class SyntheticWebGenerator:
    """Builds a :class:`SyntheticWeb` for a given site count and seed."""

    def __init__(
        self,
        sites: int = 2_000,
        seed: int = 7,
        paper: PaperTargets = PAPER,
        *,
        inline_fraction: float = 0.22,
        bundle_fraction: float = 0.12,
    ) -> None:
        if sites < 10:
            raise ValueError("need at least 10 sites for a meaningful crawl")
        self.sites = sites
        self.seed = seed
        self.paper = paper
        self.inline_fraction = inline_fraction
        self.bundle_fraction = bundle_fraction

    # -- public API ---------------------------------------------------------
    def build(self) -> SyntheticWeb:
        rng = random.Random(self.seed)
        names = NameFactory(rng)
        targets = scale_targets(self.sites, self.paper)

        planned_scripts = _plan_initiators(targets, names, rng)
        mixed_host_tracking = sum(
            m.budget.tracking for s in planned_scripts for m in s.methods
        )
        mixed_host_functional = sum(
            m.budget.functional for s in planned_scripts for m in s.methods
        )
        domains, listed = _plan_domains(
            targets, mixed_host_tracking, mixed_host_functional, names, rng
        )

        websites = self._make_websites(names)
        shared_args = _SharedArgs()
        scripts = self._realise_scripts(
            planned_scripts, domains, websites, listed, names, rng, shared_args
        )
        scripts += _make_app_scripts(
            domains, websites, listed, names, rng, shared_args
        )
        _apply_transforms(
            scripts, websites, rng, self.inline_fraction, self.bundle_fraction
        )
        _wire_functionality(websites, rng)

        web = SyntheticWeb(
            seed=self.seed,
            targets=targets,
            websites=websites,
            domains=domains,
            scripts=scripts,
            listed_tracker_domains=listed,
        )
        web.validate()
        return web

    # -- sites ---------------------------------------------------------------
    def _make_websites(self, names: NameFactory) -> list[Website]:
        publisher_domains = names.publisher_domains(self.sites)
        return [
            Website(url=f"https://www.{domain}/", rank=rank + 1)
            for rank, domain in enumerate(publisher_domains)
        ]

    # -- realising initiator scripts ------------------------------------------
    def _realise_scripts(
        self,
        planned: list[_PlannedScript],
        domains: list[DomainSpec],
        websites: list[Website],
        listed: frozenset[str],
        names: NameFactory,
        rng: random.Random,
        shared_args: _SharedArgs,
    ) -> list[ScriptSpec]:
        host_slots = [
            _HostSlots(
                host=h.host,
                listed=h.host in listed,
                tracking=h.tracking_requests,
                functional=h.functional_requests,
            )
            for d in domains
            if d.category is Category.MIXED
            for h in d.hostnames
            if h.category is Category.MIXED
        ]
        rng.shuffle(host_slots)
        tracking_queue = [s for s in host_slots if s.tracking > 0]
        functional_queue = [s for s in host_slots if s.functional > 0]

        def draw(queue: list[_HostSlots], tracking_side: bool, count: int) -> list[tuple[str, bool, int]]:
            """Take ``count`` request slots off the hostname queues."""
            out: list[tuple[str, bool, int]] = []
            while count > 0:
                if not queue:
                    raise AssertionError("hostname slots exhausted during pairing")
                slot = queue[-1]
                available = slot.tracking if tracking_side else slot.functional
                take = min(count, available)
                out.append((slot.host, slot.listed, take))
                if tracking_side:
                    slot.tracking -= take
                else:
                    slot.functional -= take
                if (slot.tracking if tracking_side else slot.functional) == 0:
                    queue.pop()
                count -= take
            return out

        cdn_hosts = [
            h.host
            for d in domains
            if d.category is Category.FUNCTIONAL
            for h in d.hostnames
        ]
        scripts: list[ScriptSpec] = []
        site_cycle = websites[:]
        rng.shuffle(site_cycle)
        site_index = 0
        for plan in planned:
            site = site_cycle[site_index % len(site_cycle)]
            site_index += 1
            host = rng.choice(cdn_hosts)
            script = ScriptSpec(
                url=names.script_url(host, plan.category.value),
                category=plan.category,
                kind=ScriptKind.EXTERNAL,
                sites=[site.url],
            )
            for planned_method in plan.methods:
                method = MethodSpec(
                    name=planned_method.name,
                    category=planned_method.category,
                    coverage=planned_method.coverage,
                )
                t_slots = draw(tracking_queue, True, planned_method.budget.tracking)
                f_slots = draw(
                    functional_queue, False, planned_method.budget.functional
                )
                self._emit_invocations(
                    script,
                    method,
                    site.url,
                    t_slots,
                    f_slots,
                    names,
                    rng,
                    shared_args,
                    context_separable=planned_method.context_separable,
                )
                script.methods.append(method)
            scripts.append(script)
            site.scripts.append(script)
        if any(s.tracking for s in tracking_queue) or any(
            s.functional for s in functional_queue
        ):
            raise AssertionError("pairing left unserved hostname slots")
        return scripts

    def _emit_invocations(
        self,
        script: ScriptSpec,
        method: MethodSpec,
        site: str,
        t_slots: list[tuple[str, bool, int]],
        f_slots: list[tuple[str, bool, int]],
        names: NameFactory,
        rng: random.Random,
        shared_args: _SharedArgs,
        *,
        context_separable: bool = True,
    ) -> None:
        """Turn per-hostname slot counts into invocations with requests.

        ``context_separable`` governs whether a mixed method's tracking and
        functional invocations carry distinguishable contexts: separable
        methods get divergent caller chains (Figure 5 finds the tracking
        helper) and disjoint argument vocabularies (guards can learn an
        invariant); inseparable ones share both — the residue that even the
        paper's §5 techniques cannot split.
        """
        tracking_chain, functional_chain = _caller_chains(script, method, site)
        mixed = method.category is Category.MIXED
        for tracking_side, slots in ((True, t_slots), (False, f_slots)):
            for host, listed, count in slots:
                while count > 0:
                    batch = min(count, rng.randint(1, 3))
                    count -= batch
                    requests = [
                        PlannedRequest(
                            url=names.request_url(host, tracking_side, listed),
                            tracking=tracking_side,
                            resource_type=rng.choice(
                                _RESOURCE_TYPES_TRACKING
                                if tracking_side
                                else _RESOURCE_TYPES_FUNCTIONAL
                            ),
                        )
                        for _ in range(batch)
                    ]
                    is_async = rng.random() < 0.25
                    if mixed and context_separable:
                        chain = tracking_chain if tracking_side else functional_chain
                        event_pool = (
                            _TRACKING_EVENTS if tracking_side else _FUNCTIONAL_EVENTS
                        )
                    elif mixed:
                        chain = functional_chain
                        event_pool = _TRACKING_EVENTS + _FUNCTIONAL_EVENTS
                    else:
                        chain = functional_chain
                        event_pool = (
                            _TRACKING_EVENTS if tracking_side else _FUNCTIONAL_EVENTS
                        )
                    method.invocations.append(
                        Invocation(
                            site=site,
                            requests=requests,
                            caller_chain=chain if not is_async else chain[:1],
                            async_chain=chain[1:] if is_async else (),
                            args=shared_args[rng.choice(event_pool), host],
                        )
                    )


# Caller-chain synthesis: mixed methods get *divergent* ancestries so the
# Figure 5 call-stack analysis has a point of divergence to find.
def _caller_chains(
    script: ScriptSpec, method: MethodSpec, site: str
) -> tuple[tuple[Frame, ...], tuple[Frame, ...]]:
    page_main = Frame(f"{site}#inline-0", "main")
    if method.category is Category.MIXED:
        tracker_helper = Frame(f"{site}track-helper.js", "t")
        user_chain = (
            Frame(f"{site}user.js", "k"),
            Frame(f"{site}get.js", "a"),
        )
        return (tracker_helper, page_main), user_chain + (page_main,)
    shared = (Frame(f"{site}loader.js", "boot"), page_main)
    return shared, shared


# ---------------------------------------------------------------------------
# App scripts: per-site initiators that absorb pure-domain traffic.


class _AppScriptPool:
    """Lazily creates 1-3 app scripts per site and spreads requests over them."""

    def __init__(
        self, websites: list[Website], names: NameFactory, rng: random.Random
    ) -> None:
        self._websites = {w.url: w for w in websites}
        self._names = names
        self._rng = rng
        self._scripts: dict[str, list[ScriptSpec]] = {}

    def script_for(self, site: str) -> ScriptSpec:
        scripts = self._scripts.get(site)
        if scripts is None:
            count = self._rng.randint(1, 3)
            scripts = []
            website = self._websites[site]
            for i in range(count):
                script = ScriptSpec(
                    url=f"{site}assets/{self._names.script_name('functional')}"
                    if i
                    else f"{site}#inline-0",
                    category=Category.FUNCTIONAL,
                    kind=ScriptKind.INLINE if i == 0 else ScriptKind.EXTERNAL,
                    sites=[site],
                )
                script.methods.append(
                    MethodSpec(name=f"init{i}", category=Category.FUNCTIONAL)
                )
                scripts.append(script)
                website.scripts.append(script)
            self._scripts[site] = scripts
        return self._rng.choice(scripts)

    def all_scripts(self) -> list[ScriptSpec]:
        return [s for scripts in self._scripts.values() for s in scripts]


def _append_app_requests(
    pool: _AppScriptPool,
    site: str,
    host: str,
    listed: bool,
    tracking: bool,
    count: int,
    names: NameFactory,
    rng: random.Random,
    shared_args: _SharedArgs,
) -> None:
    while count > 0:
        batch = min(count, rng.randint(1, 4))
        count -= batch
        script = pool.script_for(site)
        method = script.methods[0]
        chain = (Frame(f"{site}#inline-0", "onload"),)
        method.invocations.append(
            Invocation(
                site=site,
                requests=[
                    PlannedRequest(
                        url=names.request_url(host, tracking, listed),
                        tracking=tracking,
                        resource_type=rng.choice(
                            _RESOURCE_TYPES_TRACKING
                            if tracking
                            else _RESOURCE_TYPES_FUNCTIONAL
                        ),
                    )
                    for _ in range(batch)
                ],
                caller_chain=chain,
                args=shared_args["load", host],
            )
        )


def _make_app_scripts(
    domains: list[DomainSpec],
    websites: list[Website],
    listed: frozenset[str],
    names: NameFactory,
    rng: random.Random,
    shared_args: _SharedArgs,
) -> list[ScriptSpec]:
    """Emit the pure-domain traffic (and pure hostnames of mixed domains)."""
    pool = _AppScriptPool(websites, names, rng)
    for domain in domains:
        domain_listed = domain.domain in listed
        for host in domain.hostnames:
            if domain.category is Category.MIXED and host.category is Category.MIXED:
                continue  # already paired with level-3 scripts
            host_listed = domain_listed or host.host in listed
            for tracking, count in (
                (True, host.tracking_requests),
                (False, host.functional_requests),
            ):
                remaining = count
                while remaining > 0:
                    site = rng.choice(websites).url
                    chunk = min(remaining, rng.randint(1, 6))
                    remaining -= chunk
                    _append_app_requests(
                        pool,
                        site,
                        host.host,
                        host_listed,
                        tracking,
                        chunk,
                        names,
                        rng,
                        shared_args,
                    )
    return pool.all_scripts()


def _apply_transforms(
    scripts: list[ScriptSpec],
    websites: list[Website],
    rng: random.Random,
    inline_fraction: float,
    bundle_fraction: float,
) -> None:
    """Inline or bundle a slice of the mixed/tracking scripts (paper §5)."""
    sites = {w.url: w for w in websites}
    inline_counter: dict[str, int] = {}
    for i, script in enumerate(scripts):
        if script.kind is not ScriptKind.EXTERNAL or not script.sites:
            continue
        if script.category is Category.FUNCTIONAL:
            continue
        site = script.sites[0]
        roll = rng.random()
        if roll < inline_fraction:
            index = inline_counter.get(site, 0) + 1
            inline_counter[site] = index
            new = inline_script(script, site, index)
            scripts[i] = new
            _replace_in_site(sites[site], script, new)
        elif roll < inline_fraction + bundle_fraction:
            bundle_url = f"{site}assets/{webpack_bundle_name(rng)}"
            partner = ScriptSpec(
                url=f"{site}assets/module-{i}.js",
                category=Category.FUNCTIONAL,
                kind=ScriptKind.EXTERNAL,
                methods=[MethodSpec(name="renderApp", category=Category.FUNCTIONAL)],
                sites=[site],
            )
            new = bundle_scripts([script, partner], bundle_url, site=site, rng=rng)
            scripts[i] = new
            _replace_in_site(sites[site], script, new)


def _replace_in_site(site: Website, old: ScriptSpec, new: ScriptSpec) -> None:
    for index, script in enumerate(site.scripts):
        if script is old:
            site.scripts[index] = new
            return
    site.scripts.append(new)


def _wire_functionality(websites: list[Website], rng: random.Random) -> None:
    """Attach core/secondary features to each site's scripts.

    Mixed scripts carry real functional duties (that is what makes blocking
    them break pages — Table 3).  Each mixed script draws one *role*,
    calibrated to the paper's breakage distribution (7 major / 2 minor /
    1 none on 10 sites): it underpins core functionality, underpins
    secondary functionality, or is decorative.  Dependencies are wired at
    method granularity where possible, so surrogate scripts that only drop
    tracking methods keep the page working.
    """
    for site in websites:
        if not site.scripts:
            continue
        features: list[Functionality] = []
        mixed = [s for s in site.scripts if s.category is Category.MIXED]
        functional = [s for s in site.scripts if s.category is Category.FUNCTIONAL]

        core_names = rng.sample(CORE_FEATURES, rng.randint(3, 5))
        secondary_names = rng.sample(SECONDARY_FEATURES, rng.randint(2, 4))
        for name in core_names:
            deps = set()
            if functional:
                deps.add(rng.choice(functional).url)
            features.append(
                Functionality(
                    name=name,
                    tier=FunctionalityTier.CORE,
                    required_scripts=frozenset(deps),
                )
            )
        for name in secondary_names:
            deps = set()
            if functional and rng.random() < 0.6:
                deps.add(rng.choice(functional).url)
            features.append(
                Functionality(
                    name=name,
                    tier=FunctionalityTier.SECONDARY,
                    required_scripts=frozenset(deps),
                )
            )

        for script in mixed:
            roll = rng.random()
            if roll < 0.65:
                tier, pool = FunctionalityTier.CORE, core_names
            elif roll < 0.9:
                tier, pool = FunctionalityTier.SECONDARY, secondary_names
            else:
                continue  # decorative: blocking it breaks nothing
            functional_methods = [
                m for m in script.methods if m.category is Category.FUNCTIONAL
            ]
            method_deps: frozenset[tuple[str, str]] = frozenset()
            script_deps: frozenset[str] = frozenset()
            if functional_methods and rng.random() < 0.7:
                method_deps = frozenset(
                    {(script.url, rng.choice(functional_methods).name)}
                )
            else:
                script_deps = frozenset({script.url})
            features.append(
                Functionality(
                    name=rng.choice(pool),
                    tier=tier,
                    required_scripts=script_deps,
                    required_methods=method_deps,
                )
            )
        site.functionalities = features


def generate_web(sites: int = 2_000, seed: int = 7) -> SyntheticWeb:
    """Convenience wrapper: build the default calibrated population."""
    return SyntheticWebGenerator(sites=sites, seed=seed).build()
