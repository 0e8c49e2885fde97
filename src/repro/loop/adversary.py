"""The arms-race counterpart: a tracker that mutates against served rules.

The paper frames TrackerSift as one move in an ongoing arms race (§1:
trackers respond to filter lists by re-hosting and re-shaping their
traffic; list authors respond with finer-grained rules).  This module is
the tracker's side of that race for the synthetic web: an
:class:`Adversary` inspects which of its tracking requests the
*currently-served* rules block, and mutates the population in place so
the next crawl sees evaded traffic.

Two move kinds, mirroring the cloaking/token-drift scenario machinery:

* ``relocate`` — the strong move.  Pick the highest-volume blocked
  tracking hosts and move *all* their tracking requests onto fresh,
  never-listed hosts with clean (marker-free) paths.  A plain filter
  oracle misses every relocated request until the control loop sifts the
  new traffic and ships a hotfix rule; coverage must then recover.
* ``drift`` — the weak move.  Append seeded cache-buster query tokens to
  blocked tracking URLs (the classic tracker idiom, same shape as
  :func:`repro.scenarios.trace.build_trace`'s drift).  Host-anchored
  rules are immune by construction, so a correct loop loses *zero*
  coverage to drift — the gate that catches accidental exact-URL rules.

Mutations follow the in-place idiom of
:func:`repro.webmodel.cloaking.apply_cname_cloaking`: planned requests
are replaced inside their invocations, every choice is seeded, and each
move returns a manifest (:class:`AdversaryMove`) for accounting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..urlkit import hostname
from ..webmodel.generator import SyntheticWeb
from ..webmodel.resources import Invocation, PlannedRequest

__all__ = ["Adversary", "AdversaryMove"]

_DRIFT_KEYS = ("cb", "session", "uid", "ts")


@dataclass(frozen=True)
class AdversaryMove:
    """What one mutation changed, for experiment accounting."""

    kind: str  # "relocate" | "drift"
    generation: int
    rewritten_requests: int
    #: hosts whose traffic was moved away (relocate) or drifted.
    retired_hosts: tuple[str, ...]
    #: never-listed hosts the traffic moved onto (relocate only).
    fresh_hosts: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "generation": self.generation,
            "rewritten_requests": self.rewritten_requests,
            "retired_hosts": list(self.retired_hosts),
            "fresh_hosts": list(self.fresh_hosts),
        }


class Adversary:
    """Mutates the synthetic web's tracking traffic against served rules.

    ``blocked`` callables receive a URL (and the truth that it is a
    tracking request is the adversary's own knowledge); they answer
    whether the currently-served revision blocks it.  Previously-minted
    evasion hosts become eligible again the moment the loop catches
    them — that is what makes the race run for N rounds instead of one.
    """

    def __init__(self, web: SyntheticWeb, seed: int = 0) -> None:
        self._web = web
        self._rng = random.Random(seed)
        self._generation = 0

    # -- eligibility -------------------------------------------------------
    def _blocked_tracking_sites(
        self, blocked: Callable[[str], bool]
    ) -> dict[str, list[tuple[Invocation, int, PlannedRequest]]]:
        """Blocked tracking requests, grouped by host, in canonical order.

        Each entry is ``(invocation, index, request)`` so the mutation can
        replace the request through :meth:`Invocation.replace_request`.
        """
        by_host: dict[str, list[tuple[Invocation, int, PlannedRequest]]] = {}
        for script in sorted(self._web.scripts, key=lambda s: s.url):
            for method in script.methods:
                for invocation in method.invocations:
                    for index, request in enumerate(invocation.requests):
                        if not request.tracking:
                            continue
                        if not blocked(request.url):
                            continue
                        try:
                            host = hostname(request.url)
                        except ValueError:
                            continue
                        by_host.setdefault(host, []).append(
                            (invocation, index, request)
                        )
        return by_host

    # -- moves -------------------------------------------------------------
    def relocate(
        self, blocked: Callable[[str], bool], max_hosts: int = 4
    ) -> AdversaryMove:
        """Move the busiest blocked hosts' tracking traffic to fresh hosts."""
        self._generation += 1
        generation = self._generation
        by_host = self._blocked_tracking_sites(blocked)
        # Busiest first; name as the deterministic tie-break.
        targets = sorted(
            by_host, key=lambda host: (-len(by_host[host]), host)
        )[:max_hosts]
        rewritten = 0
        fresh_hosts = []
        for ordinal, host in enumerate(targets):
            # A never-listed registrable domain with a clean path: nothing
            # the incumbent lists know, nothing a path marker gives away.
            fresh = f"a{ordinal}.evade-g{generation}-{ordinal}.example"
            fresh_hosts.append(fresh)
            for invocation, index, request in by_host[host]:
                token = "".join(
                    self._rng.choice("0123456789abcdef") for _ in range(10)
                )
                invocation.replace_request(
                    index,
                    PlannedRequest(
                        url=f"https://{fresh}/api/v2/asset/{token}",
                        tracking=True,
                        resource_type=request.resource_type,
                    ),
                )
                rewritten += 1
        return AdversaryMove(
            kind="relocate",
            generation=generation,
            rewritten_requests=rewritten,
            retired_hosts=tuple(targets),
            fresh_hosts=tuple(fresh_hosts),
        )

    def drift(
        self, blocked: Callable[[str], bool], fraction: float = 0.5
    ) -> AdversaryMove:
        """Cache-buster drift on blocked tracking URLs (hosts unchanged)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        self._generation += 1
        by_host = self._blocked_tracking_sites(blocked)
        rewritten = 0
        touched = []
        for host in sorted(by_host):
            drifted_any = False
            for invocation, index, request in by_host[host]:
                if self._rng.random() >= fraction:
                    continue
                key = self._rng.choice(_DRIFT_KEYS)
                token = "".join(
                    self._rng.choice("0123456789") for _ in range(8)
                )
                joiner = "&" if "?" in request.url else "?"
                invocation.replace_request(
                    index,
                    PlannedRequest(
                        url=f"{request.url}{joiner}{key}={token}",
                        tracking=True,
                        resource_type=request.resource_type,
                    ),
                )
                rewritten += 1
                drifted_any = True
            if drifted_any:
                touched.append(host)
        return AdversaryMove(
            kind="drift",
            generation=self._generation,
            rewritten_requests=rewritten,
            retired_hosts=tuple(touched),
            fresh_hosts=(),
        )
