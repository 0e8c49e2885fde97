"""End-to-end HTTP tests for the blocking-decision server.

Every test runs a real :class:`AsyncServerThread` (the server the
single-process ``trackersift serve`` runs) on an ephemeral loopback port
and talks to it with :class:`BlockingClient` (or raw connections for the
protocol-error cases) — the same path production traffic takes.
"""

import http.client
import json
import threading
import time

import pytest

from repro.filterlists.lists import EASYLIST_SNAPSHOT, EASYPRIVACY_SNAPSHOT
from repro.filterlists.oracle import FilterListOracle
from repro.filterlists.parser import parse_filter_list
from repro.serve import (
    AsyncServerThread,
    BlockingClient,
    BlockingService,
    ServeError,
)

MINI_LIST = "||tracker.example^\n/pixel*\n@@||tracker.example/ok.js\n"


def _mini_service() -> BlockingService:
    return BlockingService(parse_filter_list(MINI_LIST, name="mini"))


@pytest.fixture()
def server():
    with AsyncServerThread(service=_mini_service(), port=0) as running:
        yield running


@pytest.fixture()
def client(server):
    with BlockingClient(server.host, server.port) as running:
        yield running


class _UnretriedClient(BlockingClient):
    """A :class:`BlockingClient` that surfaces a transport failure instead
    of replaying the request on a fresh connection, so a dropped request
    is counted rather than hidden."""

    def _exchange(self, *args):
        try:
            return super()._exchange(*args)
        except (http.client.HTTPException, OSError) as error:
            raise RuntimeError(f"transport failure: {error!r}") from error


def _striped_load(server, urls, connections, rate_rps):
    """Decide ``urls`` striped over ``connections`` client threads, URL
    *i* sent no earlier than ``i / rate_rps`` after the start and no
    earlier than its thread's previous answer; returns
    ``(decisions, errors)``."""
    decisions: list = []
    errors: list = []
    start = time.monotonic()

    def connection(index: int) -> None:
        with _UnretriedClient(server.host, server.port) as client:
            for i in range(index, len(urls), connections):
                delay = start + i / rate_rps - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                try:
                    decisions.append(client.decide(urls[i]))
                except RuntimeError as error:  # also ServeError (HTTP >= 400)
                    errors.append(f"{urls[i]}: {error}")

    threads = [
        threading.Thread(target=connection, args=(index,))
        for index in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    return decisions, errors


def _raw(server, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


class TestDecideEndpoint:
    def test_single_decision(self, client):
        decision = client.decide("https://tracker.example/spy.js")
        assert decision["blocked"] is True
        assert decision["label"] == "tracking"
        assert decision["matched_rule"] == "||tracker.example^"
        assert decision["matched_list"] == "mini"
        assert decision["revision"] == 1

    def test_exception_rule_respected(self, client):
        decision = client.decide("https://tracker.example/ok.js")
        assert decision["blocked"] is False

    def test_batch_decision(self, client):
        result = client.decide_batch(
            [
                "https://tracker.example/spy.js",
                {"url": "https://clean.example/app.js"},
            ]
        )
        assert result["count"] == 2
        assert [d["blocked"] for d in result["decisions"]] == [True, False]
        assert result["revision"] == 1

    def test_served_identical_to_offline_oracle(self, server, client):
        oracle = FilterListOracle(parse_filter_list(MINI_LIST, name="mini"))
        urls = [
            "https://tracker.example/spy.js",
            "https://tracker.example/ok.js",
            "https://cdn.example/pixel/77.gif",
            "https://clean.example/app.js",
        ]
        for url in urls:
            decision = client.decide(url)
            labeled = oracle.label_request(url)
            assert decision["blocked"] == oracle.should_block_url(url)
            assert decision["label"] == labeled.label.value
            assert decision["matched_rule"] == labeled.matched_rule

    def test_missing_url_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.decide("")
        assert excinfo.value.status == 400

    def test_unknown_resource_type_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.decide("https://x.example/a", resource_type="teapot")
        assert excinfo.value.status == 400
        assert "resource_type" in excinfo.value.message

    def test_malformed_json_is_400(self, server):
        status, payload = _raw(
            server,
            "POST",
            "/v1/decide",
            body=b"{not json",
            headers={"Content-Length": "9"},
        )
        assert status == 400 and "error" in payload

    def test_chunked_body_is_400_not_silently_empty(self, server):
        """A chunked reload must not be misread as 'reset to defaults'."""
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
        try:
            conn.putrequest("POST", "/v1/reload")
            conn.putheader("Transfer-Encoding", "chunked")
            conn.endheaders()
            conn.send(b"5\r\n{\"a\":\r\n0\r\n\r\n")
            response = conn.getresponse()
            assert response.status == 400
            assert b"chunked" in response.read()
        finally:
            conn.close()
        # and the snapshot was left untouched
        with BlockingClient(server.host, server.port) as check:
            assert check.healthz()["revision"] == 1

    def test_non_object_body_is_400(self, server):
        body = b'["https://x.example"]'
        status, payload = _raw(
            server,
            "POST",
            "/v1/decide",
            body=body,
            headers={"Content-Length": str(len(body))},
        )
        assert status == 400

    def test_unknown_path_is_404(self, server):
        status, payload = _raw(server, "GET", "/v2/decide")
        assert status == 404

    def test_wrong_method_is_405(self, server):
        assert _raw(server, "GET", "/v1/decide")[0] == 405
        body = b"{}"
        status, _ = _raw(
            server,
            "POST",
            "/metrics",
            body=body,
            headers={"Content-Length": str(len(body))},
        )
        assert status == 405


class TestReloadEndpoint:
    def test_reload_swaps_and_reports_churn(self, client):
        report = client.reload(
            lists=[("mini", "||tracker.example^\n||fresh.example^\n")]
        )
        assert report["revision"] == 2
        assert report["churn"]["added"] == 1  # ||fresh.example^
        assert report["churn"]["removed"] == 2  # /pixel* and the @@ rule
        assert report["churn"]["unchanged"] == 1
        assert client.decide("https://fresh.example/x.js")["blocked"]
        # the pixel rule is gone in the new snapshot
        assert not client.decide("https://cdn.example/pixel/7.gif")["blocked"]

    def test_reload_empty_body_restores_defaults(self, client):
        report = client.reload()
        assert report["revision"] == 2
        assert client.decide("https://doubleclick.net/ad.js")["blocked"]

    def test_reload_with_embedded_snapshots(self, client):
        report = client.reload(
            lists=[
                ("easylist", EASYLIST_SNAPSHOT),
                ("easyprivacy", EASYPRIVACY_SNAPSHOT),
            ]
        )
        assert {entry["name"] for entry in report["lists"]} == {
            "easylist",
            "easyprivacy",
            "mini",
        }
        assert client.healthz()["revision"] == 2

    def test_reload_bad_spec_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/reload", {"lists": [{"name": "x"}]})
        assert excinfo.value.status == 400
        assert "text" in excinfo.value.message


class TestObservabilityEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok" and health["revision"] == 1

    def test_metrics_reflect_served_traffic(self, client):
        for _ in range(3):
            client.decide("https://tracker.example/spy.js")
        metrics = client.metrics()
        assert metrics["decisions"]["served"] == 3
        assert metrics["cache"]["hits"] == 2
        assert metrics["latency"]["observed"] == 3
        assert metrics["snapshot"]["lists"] == ["mini"]

    def _get_text(self, server, path, headers=None):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
        try:
            conn.request("GET", path, headers=headers or {})
            response = conn.getresponse()
            return (
                response.status,
                response.getheader("Content-Type") or "",
                response.read().decode("utf-8"),
            )
        finally:
            conn.close()

    def test_metrics_default_stays_json(self, server, client):
        client.decide("https://tracker.example/spy.js")
        status, content_type, body = self._get_text(server, "/metrics")
        assert status == 200
        assert "application/json" in content_type
        assert json.loads(body)["decisions"]["served"] == 1

    def test_metrics_format_prometheus_query(self, server, client):
        client.decide("https://tracker.example/spy.js")
        status, content_type, body = self._get_text(
            server, "/metrics?format=prometheus"
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        # Valid exposition: TYPE comments plus bare name-value samples,
        # and the same numbers the JSON view serves.
        assert "# TYPE trackersift_decisions_served gauge" in body
        assert "trackersift_decisions_served 1" in body.splitlines()
        assert body.endswith("\n")
        for line in body.splitlines():
            assert line.startswith("#") or len(line.split(" ")) == 2

    def test_metrics_accept_header_negotiates_prometheus(self, server, client):
        client.decide("https://tracker.example/spy.js")
        status, content_type, body = self._get_text(
            server, "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "trackersift_decisions_served 1" in body.splitlines()


class TestConcurrentServing:
    def test_load_with_hot_reload_never_drops_or_mislabels(self, server):
        """The acceptance property, on a small scale: decide traffic from
        several connections while a reload lands mid-flight; every response
        arrives and matches the offline oracle for the revision that
        answered it."""
        old = FilterListOracle(parse_filter_list(MINI_LIST, name="mini"))
        new_text = MINI_LIST + "||late.example^\n"
        new = FilterListOracle(parse_filter_list(new_text, name="mini"))
        urls = [
            "https://tracker.example/spy.js",
            "https://late.example/tag.js",
            "https://clean.example/app.js",
            "https://cdn.example/pixel/9.gif",
        ] * 75
        reloaded = {}

        def hot_reload():
            with BlockingClient(server.host, server.port) as admin:
                reloaded.update(admin.reload(lists=[("mini", new_text)]))

        reloader = threading.Timer(0.05, hot_reload)
        reloader.start()
        decisions, errors = _striped_load(
            server, urls, connections=4, rate_rps=1000.0
        )
        reloader.join()

        assert reloaded["revision"] == 2
        assert errors == []
        assert len(decisions) == len(urls)  # nothing dropped
        oracles = {1: old, 2: new}
        for decision in decisions:
            expected = oracles[decision["revision"]].should_block_url(
                decision["url"]
            )
            assert decision["blocked"] == expected, decision

    def test_batch_beats_single(self, server):
        """One batch call per 250 URLs must beat one call per URL by 1.5x:
        the win is one round trip instead of 250, so anything less means
        the batch path itself is broken."""
        urls = [
            f"https://{('tracker', 'cdn', 'clean')[i % 3]}.example/"
            f"{('pixel', 'app')[i % 2]}/{i}.js"
            for i in range(300)
        ]
        with BlockingClient(server.host, server.port) as client:
            client.decide(urls[0])  # connection + cache warm-up

            started = time.perf_counter()
            for url in urls:
                client.decide(url)
            single_seconds = time.perf_counter() - started

            started = time.perf_counter()
            batched = 0
            for start in range(0, len(urls), 250):
                chunk = urls[start : start + 250]
                batched += client.decide_batch(chunk)["count"]
            batch_seconds = time.perf_counter() - started

        assert batched == len(urls)
        speedup = single_seconds / batch_seconds
        assert speedup >= 1.5, f"batch speedup only {speedup:.2f}x"

    def test_batched_load(self, server):
        urls = ["https://tracker.example/spy.js", "https://c.example/a.js"] * 30
        decisions: list = []

        def batches(index: int) -> None:
            mine = urls[index::3]
            with BlockingClient(server.host, server.port) as client:
                for start in range(0, len(mine), 8):
                    result = client.decide_batch(mine[start : start + 8])
                    decisions.extend(result["decisions"])

        workers = [
            threading.Thread(target=batches, args=(index,)) for index in range(3)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
        assert len(decisions) == len(urls)
        assert {decision["revision"] for decision in decisions} == {1}
        assert sum(decision["blocked"] for decision in decisions) == 30


class TestServerLifecycle:
    def test_ephemeral_port_and_url(self, server):
        assert server.port > 0
        assert server.url == f"http://{server.host}:{server.port}"

    def test_idle_keepalive_clients_do_not_starve_new_traffic(self):
        """Connected-but-quiet keep-alive clients hold no decide capacity:
        a fresh client is answered while they idle."""
        with AsyncServerThread(service=_mini_service(), port=0) as running:
            idlers = [
                BlockingClient(running.host, running.port) for _ in range(2)
            ]
            try:
                for idler in idlers:
                    idler.decide("https://tracker.example/spy.js")  # now idle
                with BlockingClient(running.host, running.port) as fresh:
                    fresh.timeout = 5.0
                    assert fresh.decide("https://clean.example/a.js")[
                        "blocked"
                    ] is False
            finally:
                for idler in idlers:
                    idler.close()

    def test_stop_without_start_does_not_hang(self):
        server = AsyncServerThread(service=_mini_service(), port=0)
        server.stop()  # no loop to signal: returns at once

    def test_client_retries_decide_but_never_replays_a_reload(self, server):
        """A dead keep-alive socket: decide self-heals on a fresh
        connection, reload surfaces the failure (non-idempotent — a
        transparent replay could execute the swap twice)."""
        client = BlockingClient(server.host, server.port)
        try:
            client.decide("https://tracker.example/spy.js")  # keep-alive up
            client._conn.sock.close()  # fault injection: socket dies
            with pytest.raises((ServeError, OSError, http.client.HTTPException)):
                client.reload(lists=[("mini", MINI_LIST)])
            assert server.server.service.snapshot.revision == 1  # never ran

            client.decide("https://tracker.example/spy.js")  # fresh socket
            client._conn.sock.close()  # dies again ...
            decision = client.decide("https://clean.example/a.js")
            assert decision["revision"] == 1  # ... and decide retried through
        finally:
            client.close()

    def test_stop_releases_the_port(self):
        first = AsyncServerThread(service=_mini_service(), port=0).start()
        port = first.port
        first.stop()
        second = AsyncServerThread(service=_mini_service(), port=port).start()
        try:
            assert second.port == port
        finally:
            second.stop()


class TestArtifactReloadEndpoint:
    """HTTP artifact reload: opt-in, confined to the boot artifact's dir."""

    def _post_reload(self, server, payload):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
        try:
            body = json.dumps(payload)
            conn.request(
                "POST",
                "/v1/reload",
                body=body,
                headers={"Content-Length": str(len(body))},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def _compiled(self, tmp_path, name, text):
        from repro.filterlists.compile import compile_lists

        path = tmp_path / name
        compile_lists(path, parse_filter_list(text, name=path.stem))
        return path

    def test_disabled_without_artifact_boot(self, server):
        status, payload = self._post_reload(server, {"artifact": "x.tsoracle"})
        assert status == 400
        assert "disabled" in payload["error"]

    def test_confined_reload_by_bare_name(self, tmp_path):
        boot = self._compiled(tmp_path, "boot.tsoracle", MINI_LIST)
        update = self._compiled(
            tmp_path, "update.tsoracle", "||fresh.example^\n"
        )
        service = BlockingService(artifact=boot)
        with AsyncServerThread(
            service=service, port=0, artifact_dir=tmp_path
        ) as running:
            status, payload = self._post_reload(
                running, {"artifact": update.name}
            )
            assert status == 200
            assert payload["revision"] == 2
            with BlockingClient(running.host, running.port) as client:
                assert client.decide("https://fresh.example/a.js")["blocked"]

            # Paths (absolute or traversing) are refused outright: clients
            # name artifacts, the operator chooses the directory.
            for evil in ("/etc/passwd", "../boot.tsoracle", "a/b.tsoracle"):
                status, payload = self._post_reload(running, {"artifact": evil})
                assert status == 400, evil
                assert "bare file name" in payload["error"], evil
