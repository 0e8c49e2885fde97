"""CNAME-cloaking transform for the synthetic web (paper §6 related work).

Rewrites a slice of the tracking traffic that is currently caught by
``||tracker-domain^`` rules so it is served from a first-party subdomain
(``metrics.<publisher>``) with a clean path, and records the CNAME that
points that subdomain back at the tracker.  After the transform:

* the plain filter-list oracle misses the rewritten requests (they look
  first-party and carry no path markers),
* an uncloaking labeler (``RequestLabeler(resolver=...)``) recovers them by
  matching rules against the canonical name.

The transform is opt-in — the default calibrated population stays exactly
as published — and returns a manifest for experiment accounting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..filterlists import ADVERTISING_DOMAINS, TRACKER_DOMAINS
from ..urlkit import hostname, parse_url
from ..urlkit.dns import CnameResolver, DnsZone
from .generator import SyntheticWeb
from .resources import PlannedRequest

__all__ = ["CloakingManifest", "apply_cname_cloaking"]

_CLOAK_PREFIXES = ("metrics", "insight", "data", "cdn-analytics", "smetrics")
_LISTED = frozenset(ADVERTISING_DOMAINS) | frozenset(TRACKER_DOMAINS)


@dataclass
class CloakingManifest:
    """What the transform changed, for experiment accounting."""

    zone: DnsZone
    cloaked_requests: int = 0
    eligible_requests: int = 0
    aliases: dict[str, str] = field(default_factory=dict)

    @property
    def resolver(self) -> CnameResolver:
        return CnameResolver(self.zone)

    @property
    def cloaked_share(self) -> float:
        if self.eligible_requests == 0:
            return 0.0
        return self.cloaked_requests / self.eligible_requests


def _first_party_domain(site_url: str) -> str:
    host = hostname(site_url)
    return host.removeprefix("www.")


def apply_cname_cloaking(
    web: SyntheticWeb,
    *,
    fraction: float = 0.3,
    seed: int = 23,
) -> CloakingManifest:
    """Cloak ``fraction`` of the domain-rule-labeled tracking requests.

    Only requests whose tracking label comes from a listed tracker *domain*
    are eligible — marker-path tracking stays labeled regardless of host,
    so cloaking it would not evade anything.  Mutates ``web`` in place.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = random.Random(seed)
    manifest = CloakingManifest(zone=DnsZone())

    for script in web.scripts:
        if not script.sites:
            continue
        site = script.sites[0]
        publisher = _first_party_domain(site)
        for method in script.methods:
            for invocation in method.invocations:
                for index, request in enumerate(invocation.requests):
                    if not request.tracking:
                        continue
                    url = parse_url(request.url)
                    tracker_domain = _listed_domain(url.host)
                    if tracker_domain is None:
                        continue
                    if _has_marker_path(url.path + "?" + url.query):
                        continue  # path rules would still catch it
                    manifest.eligible_requests += 1
                    if rng.random() >= fraction:
                        continue
                    alias = manifest.aliases.get(tracker_domain + "|" + publisher)
                    if alias is None:
                        # one alias per (tracker, publisher) pair, like real
                        # CNAME deployments (e.g. Adobe's smetrics.*); a
                        # numeric suffix disambiguates when one publisher
                        # cloaks several trackers behind the same prefix
                        prefix = rng.choice(_CLOAK_PREFIXES)
                        alias = f"{prefix}.{publisher}"
                        suffix = 1
                        while alias in manifest.zone.records:
                            suffix += 1
                            alias = f"{prefix}{suffix}.{publisher}"
                        manifest.aliases[tracker_domain + "|" + publisher] = alias
                        manifest.zone.add_cname(alias, url.host)
                    cloaked = f"https://{alias}/api/v1/content/{rng.randrange(10**6)}"
                    invocation.replace_request(
                        index,
                        PlannedRequest(
                            url=cloaked,
                            tracking=request.tracking,
                            resource_type=request.resource_type,
                        ),
                    )
                    manifest.cloaked_requests += 1
    return manifest


def _listed_domain(host: str) -> str | None:
    for domain in _LISTED:
        if host == domain or host.endswith("." + domain):
            return domain
    return None


def _has_marker_path(path_and_query: str) -> bool:
    from ..filterlists import AD_PATH_MARKERS, TRACKER_PATH_MARKERS

    return any(
        marker in path_and_query
        for marker in AD_PATH_MARKERS + TRACKER_PATH_MARKERS
    )
