"""Sharded crawl coordinator — the paper's 13-node Docker cluster.

The study partitioned 100K pages across a 13-node cluster, each node
crawling its shard in a container.  We reproduce the coordination logic:
deterministic sharding, per-node crawls (sequentially simulated; the
behaviour is identical because crawls are stateless), failure accounting
and shard merging into one database.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._record import FrozenRecord, Record, set_field
from ..browser.engine import BlockingPolicy, BrowserEngine
from ..webmodel.generator import SyntheticWeb
from .storage import RequestDatabase
from .tranco import RankedSite

# The node crawler imports where a cluster crawls: the streaming engine
# uses only round_robin_shards and the node seeds from this module.
if TYPE_CHECKING:  # pragma: no cover
    from .crawler import CrawlResult

__all__ = [
    "NodeReport",
    "ClusterCrawlResult",
    "CrawlCluster",
    "NODE_ENGINE_SEED",
    "node_failure_seed",
    "round_robin_shards",
]

_PAPER_NODE_COUNT = 13

#: Every node runs its browser with this seed (one Chrome build per
#: container); page behaviour is then a pure function of the site, so any
#: re-grouping of sites reproduces the same events.
NODE_ENGINE_SEED = 1729

_NODE_FAILURE_SEED_BASE = 1000


def node_failure_seed(node_id: int) -> int:
    """The failure-injection seed node ``node_id`` crawls with."""
    return _NODE_FAILURE_SEED_BASE + node_id


def round_robin_shards(sites: list[RankedSite], nodes: int) -> list[list[RankedSite]]:
    """Round-robin shard assignment — balanced and deterministic.

    Shared with the streaming engine, whose failure accounting must assign
    each site the same virtual node a :class:`CrawlCluster` would.
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    shards: list[list[RankedSite]] = [[] for _ in range(nodes)]
    for index, site in enumerate(sites):
        shards[index % nodes].append(site)
    return shards


class NodeReport(FrozenRecord):
    """Per-node crawl accounting."""

    __slots__ = (
        "node_id",
        "pages_assigned",
        "pages_crawled",
        "pages_failed",
        "average_load_time",
    )

    node_id: int
    pages_assigned: int
    pages_crawled: int
    pages_failed: int
    average_load_time: float

    def __init__(
        self,
        node_id: int,
        pages_assigned: int,
        pages_crawled: int,
        pages_failed: int,
        average_load_time: float,
    ) -> None:
        set_field(self, "node_id", node_id)
        set_field(self, "pages_assigned", pages_assigned)
        set_field(self, "pages_crawled", pages_crawled)
        set_field(self, "pages_failed", pages_failed)
        set_field(self, "average_load_time", average_load_time)


class ClusterCrawlResult(Record):
    """Merged output of every node's shard."""

    __slots__ = ("database", "nodes")

    database: RequestDatabase
    nodes: list[NodeReport]

    def __init__(
        self, database: RequestDatabase, nodes: list[NodeReport] | None = None
    ) -> None:
        self.database = database
        self.nodes = [] if nodes is None else nodes

    @property
    def pages_crawled(self) -> int:
        return sum(n.pages_crawled for n in self.nodes)

    @property
    def pages_failed(self) -> int:
        return sum(n.pages_failed for n in self.nodes)


class CrawlCluster:
    """Shards the site list over N nodes and merges the results."""

    def __init__(
        self,
        web: SyntheticWeb,
        *,
        nodes: int = _PAPER_NODE_COUNT,
        policy: BlockingPolicy | None = None,
        failure_rate: float = 0.0,
    ) -> None:
        if nodes < 1:
            raise ValueError("need at least one node")
        self._web = web
        self._nodes = nodes
        self._policy = policy
        self._failure_rate = failure_rate

    def shards(self) -> list[list[RankedSite]]:
        """This cluster's shard assignment (see :func:`round_robin_shards`)."""
        from .crawler import Crawler

        crawler = Crawler(self._web)
        return round_robin_shards(list(crawler.site_list()), self._nodes)

    def crawl(self) -> ClusterCrawlResult:
        """Run every node's shard and merge the databases."""
        from .crawler import Crawler

        merged = RequestDatabase()
        reports: list[NodeReport] = []
        for node_id, shard in enumerate(self.shards()):
            # Each node gets its own engine, like each container ran its
            # own Chrome; the shared clock seed keeps runs reproducible.
            crawler = Crawler(
                self._web,
                engine=BrowserEngine(seed=NODE_ENGINE_SEED),
                policy=self._policy,
                failure_rate=self._failure_rate,
                failure_seed=node_failure_seed(node_id),
            )
            result: CrawlResult = crawler.crawl(shard)
            merged.extend(result.database)
            reports.append(
                NodeReport(
                    node_id=node_id,
                    pages_assigned=len(shard),
                    pages_crawled=result.pages_crawled,
                    pages_failed=result.pages_failed,
                    average_load_time=result.average_load_time,
                )
            )
        return ClusterCrawlResult(database=merged, nodes=reports)
