"""Spawn a whole localhost cluster as subprocesses.

:class:`LocalCluster` wires up the full topology — N cache shards, one
gateway routing over them, M worker nodes pulling from the gateway —
each as a real separate process speaking the real wire protocol.  Used
by ``scripts/cluster_smoke.py``, ``repro loadtest --spawn``, and the
integration tests; it is also the reference for deploying the pieces by
hand (each member is just a ``repro cluster …`` CLI invocation).

Fault injection is first-class: :meth:`LocalCluster.kill_worker` sends
SIGKILL — no cleanup, no goodbye — so tests can prove the gateway's
dead-node sweep re-runs the victim's leased jobs.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.obs import logging as obs_logging

_log = obs_logging.get_logger("repro.cluster.topology")


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (best-effort: released before use)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def wait_listening(host: str, port: int, timeout: float = 10.0,
                   proc: Optional[subprocess.Popen] = None) -> None:
    """Block until ``host:port`` accepts connections (or raise)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc is not None and proc.poll() is not None:
            raise RuntimeError(
                f"process exited with {proc.returncode} before "
                f"listening on {host}:{port}")
        try:
            with socket.create_connection((host, port), timeout=0.25):
                return
        except OSError:
            time.sleep(0.05)
    raise RuntimeError(f"nothing listening on {host}:{port} "
                       f"after {timeout}s")


class LocalCluster:
    """A gateway + shard + worker fleet on localhost subprocesses."""

    def __init__(self, shards: int = 2, workers: int = 2,
                 worker_threads: int = 1,
                 shard_capacity: int = 512,
                 cache_dir: Optional[str] = None,
                 queue_capacity: int = 1024,
                 heartbeat_timeout: float = 2.0,
                 retry_backoff: float = 0.1,
                 inline_pools: bool = True,
                 host: str = "127.0.0.1",
                 env: Optional[Dict[str, str]] = None,
                 telemetry_dir: Optional[str] = None,
                 run_id: Optional[str] = None):
        self.host = host
        self.n_shards = shards
        self.n_workers = workers
        self.worker_threads = worker_threads
        self.shard_capacity = shard_capacity
        self.cache_dir = cache_dir
        self.queue_capacity = queue_capacity
        self.heartbeat_timeout = heartbeat_timeout
        self.retry_backoff = retry_backoff
        self.inline_pools = inline_pools
        self.telemetry_dir = telemetry_dir
        self.run_id = run_id
        self.env = dict(os.environ, **(env or {}))
        # make `python -m repro` work regardless of installation state
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        existing = self.env.get("PYTHONPATH", "")
        if src not in existing.split(os.pathsep):
            self.env["PYTHONPATH"] = (src + os.pathsep + existing
                                      if existing else src)

        self.gateway_address: Optional[Tuple[str, int]] = None
        self.shard_addresses: List[Tuple[str, int]] = []
        self.gateway_proc: Optional[subprocess.Popen] = None
        self.shard_procs: List[subprocess.Popen] = []
        self.worker_procs: List[subprocess.Popen] = []

    def _spawn(self, args: List[str]) -> subprocess.Popen:
        cmd = [sys.executable, "-m", "repro", "cluster"] + args
        return subprocess.Popen(cmd, env=self.env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)

    def start(self, timeout: float = 20.0) -> Tuple[str, int]:
        """Bring up shards, then the gateway, then workers; returns the
        gateway address once every member is reachable/launched."""
        for i in range(self.n_shards):
            port = free_port(self.host)
            args = ["shard", "--host", self.host, "--port", str(port),
                    "--capacity", str(self.shard_capacity)]
            if self.cache_dir:
                args += ["--cache-dir",
                         os.path.join(self.cache_dir, f"shard-{i}")]
            proc = self._spawn(args)
            self.shard_procs.append(proc)
            self.shard_addresses.append((self.host, port))
        for (host, port), proc in zip(self.shard_addresses,
                                      self.shard_procs):
            wait_listening(host, port, timeout=timeout, proc=proc)

        gw_port = free_port(self.host)
        args = ["gateway", "--host", self.host, "--port", str(gw_port),
                "--queue-capacity", str(self.queue_capacity),
                "--heartbeat-timeout", str(self.heartbeat_timeout),
                "--retry-backoff", str(self.retry_backoff)]
        if self.telemetry_dir:
            args += ["--telemetry-dir", self.telemetry_dir]
        if self.run_id:
            args += ["--run-id", self.run_id]
        for host, port in self.shard_addresses:
            args += ["--shard", f"{host}:{port}"]
        self.gateway_proc = self._spawn(args)
        wait_listening(self.host, gw_port, timeout=timeout,
                       proc=self.gateway_proc)
        self.gateway_address = (self.host, gw_port)

        for i in range(self.n_workers):
            self.worker_procs.append(self._spawn_worker(i))
        _log.info("cluster-up", gateway=f"{self.host}:{gw_port}",
                  shards=self.n_shards, workers=self.n_workers)
        return self.gateway_address

    def _spawn_worker(self, index: int) -> subprocess.Popen:
        host, port = self.gateway_address
        args = ["worker", "--gateway", f"{host}:{port}",
                "--name", f"worker-{index}",
                "--threads", str(self.worker_threads),
                "--heartbeat-interval",
                str(max(0.1, self.heartbeat_timeout / 4))]
        if self.inline_pools:
            args.append("--inline")
        return self._spawn(args)

    # -- fault injection ---------------------------------------------

    def kill_worker(self, index: int = 0) -> int:
        """SIGKILL one worker process (no drain, no goodbye) and return
        its pid.  The gateway's sweeper must recover its leases."""
        proc = self.worker_procs[index]
        pid = proc.pid
        if proc.poll() is None:
            os.kill(pid, signal.SIGKILL)
            proc.wait(timeout=10.0)
        _log.info("worker-killed", index=index, pid=pid)
        return pid

    def alive(self) -> Dict[str, int]:
        return {
            "gateway": int(self.gateway_proc is not None
                           and self.gateway_proc.poll() is None),
            "shards": sum(1 for p in self.shard_procs
                          if p.poll() is None),
            "workers": sum(1 for p in self.worker_procs
                           if p.poll() is None),
        }

    def stop(self, timeout: float = 10.0) -> None:
        """Terminate workers, gateway, then shards (reverse data flow)."""
        procs = (self.worker_procs
                 + ([self.gateway_proc] if self.gateway_proc else [])
                 + self.shard_procs)
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.terminate()
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        for proc in procs:
            budget = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=budget)
            except subprocess.TimeoutExpired:
                try:
                    proc.kill()
                    proc.wait(timeout=5.0)
                except (OSError, subprocess.TimeoutExpired):
                    pass
        self.worker_procs.clear()
        self.shard_procs.clear()
        self.gateway_proc = None

    def __enter__(self) -> "LocalCluster":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
