"""Tranco-style ranked site list and sampling.

The paper crawls "the landing pages of 100K websites that are randomly
sampled from the Tranco top-million list".  Our synthetic web already
carries ranks; this module provides the list abstraction (rank order,
deterministic random sampling, CSV round-trip in Tranco's ``rank,domain``
format) so crawl composition is an explicit, testable step.
"""

from __future__ import annotations

import random
from pathlib import Path

from .._record import FrozenRecord, set_field

__all__ = ["RankedSite", "TrancoList"]


class RankedSite(FrozenRecord):
    """One entry of the ranked list."""

    __slots__ = ("rank", "url")

    rank: int
    url: str

    def __init__(self, rank: int, url: str) -> None:
        set_field(self, "rank", rank)
        set_field(self, "url", url)


class TrancoList:
    """An ordered top-list with deterministic sampling."""

    def __init__(self, sites: list[RankedSite]) -> None:
        ranks = [s.rank for s in sites]
        if len(set(ranks)) != len(ranks):
            raise ValueError("duplicate ranks in top list")
        self._sites = sorted(sites, key=lambda s: s.rank)

    def __len__(self) -> int:
        return len(self._sites)

    def __iter__(self):
        return iter(self._sites)

    def __getitem__(self, index: int) -> RankedSite:
        return self._sites[index]

    @classmethod
    def from_urls(cls, urls: list[str]) -> "TrancoList":
        return cls([RankedSite(rank=i + 1, url=url) for i, url in enumerate(urls)])

    def top(self, n: int) -> list[RankedSite]:
        return self._sites[:n]

    def sample(self, n: int, seed: int = 0) -> list[RankedSite]:
        """Random sample of ``n`` sites, in rank order (paper's sampling)."""
        if n > len(self._sites):
            raise ValueError(f"cannot sample {n} from {len(self._sites)} sites")
        rng = random.Random(seed)
        chosen = rng.sample(self._sites, n)
        return sorted(chosen, key=lambda s: s.rank)

    # -- CSV round-trip (Tranco's ``rank,domain`` format) --------------------
    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as handle:
            for site in self._sites:
                handle.write(f"{site.rank},{site.url}\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "TrancoList":
        sites: list[RankedSite] = []
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                rank_text, _, url = line.partition(",")
                sites.append(RankedSite(rank=int(rank_text), url=url))
        return cls(sites)
