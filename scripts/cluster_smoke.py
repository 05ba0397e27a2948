#!/usr/bin/env python
"""Cluster smoke test (used by CI, runnable locally).

Spawns the full distributed topology as real processes — 1 gateway,
2 cache shards, 2 worker nodes — then:

  1. submits a batch of jobs and SIGKILLs one worker mid-batch,
  2. asserts every accepted job still completes (the dead-node sweep
     re-queues the killed worker's leases onto the survivor),
  3. resubmits the batch and asserts the repeats are answered from the
     shard tier (per-shard hit metrics observed through the gateway),
  4. drains the gateway and checks a clean exit.

Usage: PYTHONPATH=src python scripts/cluster_smoke.py [--jobs N]
"""

import argparse
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cluster.topology import LocalCluster  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402


def probe(op="echo", **extra):
    payload = {"kind": "probe", "probe": op}
    payload.update(extra)
    return payload


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=8)
    parser.add_argument("--sleep", type=float, default=0.25,
                        help="per-job busy time, long enough to be "
                             "mid-batch when the worker dies")
    args = parser.parse_args()

    failures = []
    with tempfile.TemporaryDirectory(prefix="cluster-smoke-") as cache_dir:
        with LocalCluster(shards=2, workers=2, worker_threads=1,
                          heartbeat_timeout=1.0, retry_backoff=0.1,
                          cache_dir=cache_dir) as cluster:
            client = ServiceClient(*cluster.gateway_address, timeout=60.0)
            deadline = time.monotonic() + 20
            topo = client.health()["cluster"]
            while topo["workers_alive"] < 2 and time.monotonic() < deadline:
                time.sleep(0.2)  # workers register on first heartbeat
                topo = client.health()["cluster"]
            print(f"cluster up: gateway={cluster.gateway_address} "
                  f"shards={len(topo['ring']['shards'])} "
                  f"workers_alive={topo['workers_alive']}")
            assert len(topo["ring"]["shards"]) == 2, topo
            assert topo["workers_alive"] == 2, topo

            submitted = [client.submit(probe("sleep", seconds=args.sleep,
                                             tag=f"smoke-{i}"),
                                       wait=False)
                         for i in range(args.jobs)]
            time.sleep(args.sleep + 0.1)  # let worker 0 lease + start
            pid = cluster.kill_worker(0)
            print(f"killed worker pid={pid} mid-batch")

            try:
                for s in submitted:
                    response = client.result(s["job_id"], wait=True,
                                             wait_timeout=90)
                    assert response["ok"] and response["state"] == "done", \
                        f"job lost after worker kill: {response}"
                print(f"batch of {args.jobs} completed after the kill")

                health = client.health()
                assert health["cluster"]["workers_alive"] >= 1, health
                deadline = time.monotonic() + 10
                dead = 0
                while time.monotonic() < deadline:
                    metrics = client.metrics()["metrics"]
                    dead = metrics.get("repro_cluster_dead_nodes_total", 0)
                    if dead:
                        break
                    time.sleep(0.2)
                assert dead >= 1, \
                    "the sweeper never noticed the killed worker"

                # repeats land on the shard tier: hits on both shards
                for i in range(args.jobs):
                    repeat = client.submit(
                        probe("sleep", seconds=args.sleep,
                              tag=f"smoke-{i}"),
                        wait=True, wait_timeout=30)
                    assert repeat["cached"], \
                        f"repeat not served from cache: {repeat}"
                shards = client.health()["cluster"]["shards"]
                hits = {name: stats.get("hits", 0)
                        for name, stats in shards.items()}
                print(f"shard hits after resubmit: {hits}")
                assert sum(hits.values()) >= args.jobs, hits
                if not all(h > 0 for h in hits.values()):
                    # possible (if unlikely) for a small key set to hash
                    # onto one shard; worth a note, not a failure
                    print(f"note: uneven shard traffic: {hits}")

                response = client.shutdown(drain=True, drain_timeout=30)
                assert response["ok"] and response["draining"], response
                print("gateway drained cleanly")
            except AssertionError as exc:
                failures.append(str(exc))
            except ServiceError as exc:
                failures.append(f"service error: {exc}")

    if failures:
        print("SMOKE FAILED:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    print("SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
