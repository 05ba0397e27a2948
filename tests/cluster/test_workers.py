"""Worker-fleet tests: an in-process WorkerNode driving the real wire
protocol against a gateway, and a full subprocess cluster where a
SIGKILLed worker mid-batch still leaves the batch complete."""

import time

import pytest

from repro.cluster.topology import LocalCluster
from repro.cluster.workers import GatewayLink, GatewayUnreachable, WorkerNode
from repro.service.client import ServiceClient
from repro.service.server import ParallelizationServer


def _probe(op="echo", **extra):
    payload = {"kind": "probe", "probe": op}
    payload.update(extra)
    return payload


@pytest.fixture()
def gateway():
    gw = ParallelizationServer(port=0, tier="cluster", jobs=0,
                               retry_backoff=0.01, heartbeat_timeout=2.0)
    gw.start()
    yield gw
    gw.stop()


@pytest.fixture()
def make_node(gateway):
    nodes = []

    def factory(**kwargs):
        kwargs.setdefault("name", f"test-worker-{len(nodes)}")
        kwargs.setdefault("threads", 1)
        kwargs.setdefault("inline", True)
        kwargs.setdefault("pull_wait", 0.2)
        kwargs.setdefault("heartbeat_interval", 0.1)
        node = WorkerNode(*gateway.address, **kwargs)
        node.start()
        nodes.append(node)
        return node

    yield factory
    for node in nodes:
        node.stop()
        node.wait(timeout=10)


class TestGatewayLink:
    def test_unreachable_raises(self):
        link = GatewayLink("127.0.0.1", 1, timeout=0.5)
        with pytest.raises(GatewayUnreachable):
            link.request({"op": "health"})

    def test_request_roundtrip(self, gateway):
        link = GatewayLink(*gateway.address)
        response = link.request({"op": "health"})
        assert response["ok"] and response["tier"] == "cluster"
        link.close()


class TestFleetExecution:
    def test_remote_node_executes_submissions(self, gateway, make_node):
        node = make_node()
        client = ServiceClient(*gateway.address)
        response = client.submit(_probe(value="fleet"), wait=True,
                                 wait_timeout=15)
        assert response["state"] == "done"
        assert response["result"] == {"echo": "fleet"}
        assert node.jobs_done == 1

    def test_node_appears_in_health_with_info(self, gateway, make_node):
        node = make_node()
        client = ServiceClient(*gateway.address)
        deadline = time.monotonic() + 5
        workers = {}
        while time.monotonic() < deadline:
            workers = client.health()["cluster"]["worker_nodes"]
            if node.name in workers and workers[node.name]["info"]:
                break
            time.sleep(0.05)
        assert node.name in workers
        entry = workers[node.name]
        assert entry["alive"] and not entry["local"]
        assert entry["info"]["pool_mode"] == "inline"

    def test_crash_retry_lands_on_the_fleet(self, gateway, make_node,
                                            tmp_path):
        make_node()
        client = ServiceClient(*gateway.address)
        marker = tmp_path / "fleet-crash.marker"
        response = client.submit(_probe("crash-once", marker=str(marker)),
                                 wait=True, wait_timeout=20,
                                 max_retries=2)
        assert response["state"] == "done"
        assert response["result"] == {"recovered": True}
        assert response["attempts"] == 2

    def test_two_nodes_split_a_batch(self, gateway, make_node):
        a = make_node()
        b = make_node()
        client = ServiceClient(*gateway.address)
        submitted = [client.submit(_probe("sleep", seconds=0.1,
                                          tag=f"split-{i}"), wait=False)
                     for i in range(6)]
        for s in submitted:
            response = client.result(s["job_id"], wait=True,
                                     wait_timeout=20)
            assert response["ok"]
        assert a.jobs_done + b.jobs_done == 6
        assert a.jobs_done > 0 and b.jobs_done > 0

    def test_node_stops_when_gateway_announces_shutdown(self, gateway,
                                                        make_node):
        node = make_node()
        ServiceClient(*gateway.address).shutdown()
        assert gateway.wait(timeout=10)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not node.stopping:
            time.sleep(0.05)
        assert node.stopping

    def test_heartbeat_seq_advances(self, gateway, make_node):
        node = make_node()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and node._seq == 0:
            time.sleep(0.05)
        assert node._seq >= 1


class TestMetricsHandOver:
    def test_inline_node_counts_each_loop_once(self, gateway, make_node):
        """A node in the gateway's own process shares its default
        registry: it must ship each job's loop counts once, and never
        ship back what the gateway merged from earlier heartbeats."""
        node = make_node()
        client = ServiceClient(*gateway.address)
        response = client.submit_benchmark("trfd", config="none",
                                           wait=True, wait_timeout=60)
        assert response["state"] == "done"
        result = response["result"]
        expected = {'{verdict="parallel"}': result["parallel_count"],
                    '{verdict="serial"}': sum(
                        result["serial_reasons"].values())}
        assert expected['{verdict="parallel"}'] > 0

        def loops_after(beats):
            seq = node._seq
            deadline = time.monotonic() + 10
            while node._seq < seq + beats and time.monotonic() < deadline:
                time.sleep(0.02)
            assert node._seq >= seq + beats
            return client.metrics()["metrics"]["repro_loops_total"]

        assert loops_after(5) == expected
        assert loops_after(3) == expected


class TestSubprocessCluster:
    """The whole topology as real processes (the loadtest --spawn path)."""

    def test_kill_worker_mid_batch_batch_still_completes(self, tmp_path):
        """SIGKILL one worker mid-batch; the dead-node
        sweep re-queues its leases and the batch completes."""
        with LocalCluster(shards=2, workers=2, worker_threads=1,
                          heartbeat_timeout=1.0, retry_backoff=0.1,
                          cache_dir=str(tmp_path)) as cluster:
            client = ServiceClient(*cluster.gateway_address)
            submitted = [client.submit(_probe("sleep", seconds=0.25,
                                              tag=f"batch-{i}"),
                                       wait=False)
                         for i in range(8)]
            time.sleep(0.3)          # let worker 0 lease and start work
            cluster.kill_worker(0)   # SIGKILL, no goodbye
            for s in submitted:
                response = client.result(s["job_id"], wait=True,
                                         wait_timeout=60)
                assert response["ok"], f"job lost after worker kill: {s}"
            health = client.health()
            assert health["cluster"]["workers_alive"] >= 1
            # repeat submission is answered from the shard tier
            repeat = client.submit(_probe("sleep", seconds=0.25,
                                          tag="batch-0"), wait=True,
                                   wait_timeout=10)
            assert repeat["cached"]
