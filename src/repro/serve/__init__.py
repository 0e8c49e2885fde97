"""Online blocking-decision service: the oracle, deployed.

TrackerSift's output is deployable blocking knowledge — filter rules a
content blocker consults per request.  This subpackage turns the repo's
offline oracle into that deployment:

* :mod:`repro.serve.service` — :class:`BlockingService`: atomically
  swappable oracle snapshots, hot :meth:`~BlockingService.reload` with a
  ``diff_lists`` churn report, metrics (cache counters, latency
  p50/p99, revision, uptime);
* :mod:`repro.serve.protocol` — :class:`AsyncBlockingServer`: the
  service behind a JSON API (``POST /v1/decide``, ``POST /v1/reload``,
  ``GET /healthz``, ``GET /metrics``) on one asyncio event loop, with
  HTTP/1.1 pipelining and cross-connection decide coalescing (plus
  :class:`AsyncServerThread` for embedding, which the single-process
  ``trackersift serve`` also runs);
* :mod:`repro.serve.supervisor` — :class:`ServeSupervisor`: N forked
  asyncio workers on one port (``SO_REUSEPORT`` where available) over
  one shared memory-mapped oracle image, with coordinated reloads,
  merged ``/metrics``, and graceful drain;
* :mod:`repro.serve.client` — :class:`BlockingClient`, one keep-alive
  JSON connection per thread.  Load testing lives outside the library:
  ``benchmarks/perf/bench.py --seed 7 --workload serve-open`` drives
  the server open-loop and pipelined.

Quick embedded use::

    from repro.serve import AsyncServerThread, BlockingClient

    with AsyncServerThread(port=0) as server:       # ephemeral port
        client = BlockingClient(server.host, server.port)
        print(client.decide("https://doubleclick.net/pixel/1.gif"))
        client.reload()                              # back to defaults
        client.close()

Or on the command line: ``trackersift serve --port 8377``,
or multi-process over a compiled artifact:
``trackersift serve --workers 4 --artifact rules.tsoracle``.
"""

from .client import BlockingClient, ServeError
from .protocol import AsyncBlockingServer, AsyncServerThread
from .service import BlockingService, Snapshot
from .supervisor import ServeSupervisor, run_supervisor

__all__ = [
    "BlockingService",
    "Snapshot",
    "AsyncBlockingServer",
    "AsyncServerThread",
    "ServeSupervisor",
    "run_supervisor",
    "BlockingClient",
    "ServeError",
]
