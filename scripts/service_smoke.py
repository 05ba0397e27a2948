#!/usr/bin/env python
"""Service smoke test (used by CI, runnable locally).

Starts the daemon as a real subprocess, submits a small benchmark
twice, and asserts the second submission is served from the result
cache without re-analysis (checked through the metrics op); then
runs a job past its deadline and checks that its late worker was
killed, leaving the daemon exactly ``JOBS`` worker processes once both
slots are busy again; then restarts the daemon on the same port and
checks that the same client object, whose kept connection the old
daemon closed, submits to the new one; then verifies a clean shutdown.

Usage: PYTHONPATH=src python scripts/service_smoke.py [--port N]
"""

import argparse
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service.client import ServiceClient, ServiceError  # noqa: E402

#: the daemon's executor slots (``repro serve -j``)
JOBS = 2


def start_daemon(port, env):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "-j", str(JOBS),
         "--queue-capacity", "8"],
        env=env)


def wait_for_server(client, seconds=30.0):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            return client.health()
        except ServiceError:
            time.sleep(0.2)
    raise SystemExit("server did not come up in time")


def child_pids(pid):
    """Direct children of ``pid``, from every one of its threads."""
    task_dir = f"/proc/{pid}/task"
    pids = set()
    for tid in os.listdir(task_dir):
        with open(os.path.join(task_dir, tid, "children")) as fh:
            pids.update(int(p) for p in fh.read().split())
    return pids


def check_deadline_kills_worker(client, server_pid):
    """A job that outlives its deadline times out, and its worker goes
    with it: once ``JOBS`` jobs are running again, the daemon has
    exactly ``JOBS`` children, not a late sleeper besides them."""
    late = client.submit({"kind": "probe", "probe": "sleep",
                          "seconds": 30.0}, wait=True, deadline=0.5,
                          max_retries=0, wait_timeout=60)
    assert late["state"] == "timeout", late
    fill = [client.submit({"kind": "probe", "probe": "sleep",
                           "seconds": 1.0, "value": slot}, wait=False)
            for slot in range(JOBS)]
    time.sleep(0.5)  # both jobs are on their workers
    children = child_pids(server_pid)
    for job in fill:
        done = client.result(job["job_id"], wait=True, wait_timeout=60)
        assert done["state"] == "done", done
    assert len(children) == JOBS, \
        f"daemon has {len(children)} children, expected {JOBS}"
    print(f"deadline miss: job timed out, daemon keeps {JOBS} workers")


def check_restart_survival(client, server, port, env):
    """Shut the daemon down, start a new one on the same port, and
    submit through the same client: its kept connection is dead, so the
    submit retries once on a fresh socket and reaches the new daemon.
    Returns the new daemon's process."""
    assert client.shutdown()["stopping"]
    assert server.wait(timeout=30) == 0, \
        f"daemon exited with {server.returncode}"
    server = start_daemon(port, env)
    with ServiceClient(port=port) as probe:
        wait_for_server(probe)
    again = client.submit({"kind": "probe", "probe": "echo",
                           "value": "after-restart"}, wait=True,
                          wait_timeout=60)
    assert again["state"] == "done", again
    assert again["result"] == {"echo": "after-restart"}, again
    print("restart: the same client submitted to the new daemon")
    return server


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, default=7713)
    parser.add_argument("--benchmark", default="adm")
    args = parser.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p)
    server = start_daemon(args.port, env)
    client = ServiceClient(port=args.port, timeout=120.0)
    failures = []
    try:
        health = wait_for_server(client)
        print(f"server up: {health}")

        first = client.submit_benchmark(args.benchmark, wait=True,
                                        wait_timeout=120)
        assert first["state"] == "done", first
        assert not first["cached"], "first submit must run the pipeline"
        print(f"first submit: state={first['state']} "
              f"parallel={first['result']['parallel_count']}")

        second = client.submit_benchmark(args.benchmark, wait=True,
                                         wait_timeout=120)
        assert second["state"] == "done", second
        assert second["cached"], "second submit must be a cache hit"
        assert second["result"] == first["result"], \
            "cached artifact must be identical"
        metrics = client.metrics()["metrics"]
        assert metrics["repro_cache_hits_total"] == 1, metrics
        assert metrics["repro_jobs_submitted_total"] == 1, \
            "the second submit must not have re-run the pipeline"
        print("second submit: served from cache (verified via metrics)")

        prom = client.metrics(format="prometheus")["text"]
        assert "repro_cache_hits_total 1" in prom, prom
        print("prometheus rendering ok")

        if os.path.isdir(f"/proc/{server.pid}/task"):
            check_deadline_kills_worker(client, server.pid)
        server = check_restart_survival(client, server, args.port, env)
    except AssertionError as exc:
        failures.append(str(exc))
    finally:
        try:
            client.shutdown()
        except ServiceError:
            server.terminate()
        if server.wait(timeout=30) != 0 and not failures:
            failures.append(f"server exited with {server.returncode}")

    if failures:
        print("SMOKE FAILED:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    print("SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
