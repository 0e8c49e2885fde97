"""Crawl infrastructure: ranked site lists, stateless crawling, sharding,
and the request database the offline analysis runs over.

The streaming engine uses the shard assignment, site lists and request
database, which import with the package; the node :mod:`crawler` (the
batch cluster crawl) loads on first use, and :mod:`storage` imports
``sqlite3`` only inside its SQLite methods.
"""

from .. import _lazy
from .cluster import (
    ClusterCrawlResult,
    CrawlCluster,
    NodeReport,
    node_failure_seed,
    round_robin_shards,
)
from .storage import RequestDatabase
from .tranco import RankedSite, TrancoList

__getattr__ = _lazy.lazy_exports(
    __name__, {"crawler": ("CrawlResult", "Crawler", "page_load_fails")}
)

__all__ = [
    "RequestDatabase",
    "RankedSite",
    "TrancoList",
    "Crawler",
    "CrawlResult",
    "CrawlCluster",
    "ClusterCrawlResult",
    "NodeReport",
    "round_robin_shards",
    "node_failure_seed",
    "page_load_fails",
]
