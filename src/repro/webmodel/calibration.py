"""Paper-derived calibration targets.

Tables 1 and 2 of the paper give, for each granularity, the number of
entities and the number of requests in each class.  The generator scales
these marginals to the requested crawl size so that the *shape* of the
reproduction (who is mixed, what share of requests descends each level,
where the separation factors land) matches the paper at any scale.

All numbers below are copied verbatim from the paper:

* Table 1 (requests):  domain 755,784 T / 566,810 F / 1,129,109 M;
  hostname 161,604 / 106,542 / 860,963; script 235,157 / 490,295 / 135,511;
  method 23,819 / 74,223 / 37,469.
* Table 2 (entities):  domain 6,493 / 50,938 / 11,861 (of 69,292);
  hostname 4,429 / 9,248 / 12,383 (of 26,060); script 194,156 / 134,726 /
  21,168 (of 350,050); method 17,940 / 40,500 / 5,579 (of 64,019).
* Crawl: 100,000 sites, 2,451,703 script-initiated requests.
"""

from __future__ import annotations

from .._record import FrozenRecord, set_field

__all__ = ["LevelTargets", "PaperTargets", "PAPER", "ScaledTargets", "scale_targets"]


class LevelTargets(FrozenRecord):
    """Entity and request counts for one granularity level."""

    __slots__ = (
        "entities_tracking",
        "entities_functional",
        "entities_mixed",
        "requests_tracking",
        "requests_functional",
        "requests_mixed",
    )

    entities_tracking: int
    entities_functional: int
    entities_mixed: int
    requests_tracking: int
    requests_functional: int
    requests_mixed: int

    def __init__(
        self,
        entities_tracking: int,
        entities_functional: int,
        entities_mixed: int,
        requests_tracking: int,
        requests_functional: int,
        requests_mixed: int,
    ) -> None:
        set_field(self, "entities_tracking", entities_tracking)
        set_field(self, "entities_functional", entities_functional)
        set_field(self, "entities_mixed", entities_mixed)
        set_field(self, "requests_tracking", requests_tracking)
        set_field(self, "requests_functional", requests_functional)
        set_field(self, "requests_mixed", requests_mixed)

    @property
    def entities_total(self) -> int:
        return self.entities_tracking + self.entities_functional + self.entities_mixed

    @property
    def requests_total(self) -> int:
        return self.requests_tracking + self.requests_functional + self.requests_mixed

    @property
    def separation_factor(self) -> float:
        """Share of this level's requests attributed to pure resources."""
        total = self.requests_total
        if total == 0:
            return 0.0
        return (self.requests_tracking + self.requests_functional) / total

    @property
    def mixed_entity_share(self) -> float:
        total = self.entities_total
        return self.entities_mixed / total if total else 0.0


class PaperTargets(FrozenRecord):
    """The full set of published marginals."""

    __slots__ = ("sites", "domain", "hostname", "script", "method")

    sites: int
    domain: LevelTargets
    hostname: LevelTargets
    script: LevelTargets
    method: LevelTargets

    def __init__(
        self,
        sites: int,
        domain: LevelTargets,
        hostname: LevelTargets,
        script: LevelTargets,
        method: LevelTargets,
    ) -> None:
        set_field(self, "sites", sites)
        set_field(self, "domain", domain)
        set_field(self, "hostname", hostname)
        set_field(self, "script", script)
        set_field(self, "method", method)

    @property
    def total_requests(self) -> int:
        return self.domain.requests_total

    def cumulative_separation(self) -> list[float]:
        """Cumulative separation factor after each level (54/65/94/98%)."""
        total = self.domain.requests_total
        attributed = 0
        out: list[float] = []
        for level in (self.domain, self.hostname, self.script, self.method):
            attributed += level.requests_tracking + level.requests_functional
            out.append(attributed / total)
        return out


PAPER = PaperTargets(
    sites=100_000,
    domain=LevelTargets(6_493, 50_938, 11_861, 755_784, 566_810, 1_129_109),
    hostname=LevelTargets(4_429, 9_248, 12_383, 161_604, 106_542, 860_963),
    script=LevelTargets(194_156, 134_726, 21_168, 235_157, 490_295, 135_511),
    method=LevelTargets(17_940, 40_500, 5_579, 23_819, 74_223, 37_469),
)


class ScaledTargets(FrozenRecord):
    """Paper targets scaled to a smaller (or larger) crawl."""

    __slots__ = ("sites", "scale", "domain", "hostname", "script", "method")

    sites: int
    scale: float
    domain: LevelTargets
    hostname: LevelTargets
    script: LevelTargets
    method: LevelTargets

    def __init__(
        self,
        sites: int,
        scale: float,
        domain: LevelTargets,
        hostname: LevelTargets,
        script: LevelTargets,
        method: LevelTargets,
    ) -> None:
        set_field(self, "sites", sites)
        set_field(self, "scale", scale)
        set_field(self, "domain", domain)
        set_field(self, "hostname", hostname)
        set_field(self, "script", script)
        set_field(self, "method", method)

    @property
    def levels(self) -> tuple[LevelTargets, ...]:
        return (self.domain, self.hostname, self.script, self.method)


def _scale_level(
    level: LevelTargets,
    scale: float,
    *,
    min_entities: int = 2,
    min_mixed_requests_per_entity: int = 4,
) -> LevelTargets:
    """Scale one level's marginals, keeping every class non-degenerate.

    Mixed entities need enough request volume to express a ratio strictly
    inside ``(-2, 2)``; ``min_mixed_requests_per_entity`` guards that.
    """

    def ents(count: int) -> int:
        return max(min_entities, round(count * scale))

    e_t, e_f, e_m = (
        ents(level.entities_tracking),
        ents(level.entities_functional),
        ents(level.entities_mixed),
    )
    r_t = max(e_t, round(level.requests_tracking * scale))
    r_f = max(e_f, round(level.requests_functional * scale))
    r_m = max(e_m * min_mixed_requests_per_entity, round(level.requests_mixed * scale))
    return LevelTargets(e_t, e_f, e_m, r_t, r_f, r_m)


def scale_targets(sites: int, paper: PaperTargets = PAPER) -> ScaledTargets:
    """Scale the paper's marginals to a crawl of ``sites`` landing pages.

    The scaling is linear in the site count — the paper's per-site request
    rate (~24.5 script-initiated requests/site) is preserved — with floors
    so that even tiny test crawls keep every class populated.

    Cross-level consistency (the requests of level *k+1* are exactly the
    mixed requests of level *k*) is restored after rounding by rebuilding
    each deeper level's request total from its class shares.
    """
    if sites <= 0:
        raise ValueError(f"sites must be positive, got {sites}")
    scale = sites / paper.sites

    domain = _scale_level(paper.domain, scale)
    hostname = _scale_level(paper.hostname, scale)
    script = _scale_level(paper.script, scale)
    method = _scale_level(paper.method, scale)

    # Re-balance each child level so its request total equals the parent's
    # mixed-request count, preserving the published class shares.
    hostname = _fit_requests(hostname, domain.requests_mixed)
    script = _fit_requests(script, hostname.requests_mixed)
    method = _fit_requests(method, script.requests_mixed)
    return ScaledTargets(
        sites=sites,
        scale=scale,
        domain=domain,
        hostname=hostname,
        script=script,
        method=method,
    )


def _fit_requests(level: LevelTargets, request_total: int) -> LevelTargets:
    """Rescale a level's request classes to sum exactly to ``request_total``."""
    current = level.requests_total
    if current == 0:
        raise ValueError("level has no requests to fit")
    shares = (
        level.requests_tracking / current,
        level.requests_functional / current,
        level.requests_mixed / current,
    )
    floors = (
        level.entities_tracking,
        level.entities_functional,
        level.entities_mixed * 4,
    )
    needed = sum(floors)
    if request_total < needed:
        raise ValueError(
            f"request budget {request_total} cannot satisfy per-entity "
            f"minimums {needed}; increase the crawl size"
        )
    r_t = max(floors[0], round(shares[0] * request_total))
    r_f = max(floors[1], round(shares[1] * request_total))
    r_m = request_total - r_t - r_f
    if r_m < floors[2]:
        # Take the shortfall back from the larger pure class.
        shortfall = floors[2] - r_m
        if r_f - shortfall >= floors[1]:
            r_f -= shortfall
        else:
            r_t -= shortfall
        r_m = floors[2]
    return LevelTargets(
        level.entities_tracking,
        level.entities_functional,
        level.entities_mixed,
        r_t,
        r_f,
        r_m,
    )
