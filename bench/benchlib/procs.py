"""Child servers of the ``service`` workload: spawn, observe, reap.

Memory and CPU of a child are read from ``/proc`` (Linux), over the
child and every process below it: the daemon hands its jobs to a pool
worker process, which is where the pipeline runs.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List

from . import SRC_DIR

_LISTENING = re.compile(r"listening on ([\w.]+):(\d+)")
_TICKS = os.sysconf("SC_CLK_TCK")


def child_env(tmp_dir: str) -> Dict[str, str]:
    """The environment of a child: the caller's minus every ``REPRO_*``
    variable, importing this checkout, temp files inside ``tmp_dir``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC_DIR
    env["TMPDIR"] = tmp_dir
    return env


class Server:
    """A ``python -m repro ...`` server child on an ephemeral port."""

    def __init__(self, args: List[str], out_dir: str, tag: str,
                 ready_timeout: float = 30.0):
        os.makedirs(out_dir, exist_ok=True)
        self._log = open(os.path.join(out_dir, f"{tag}.log"), "wb")
        t0 = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *args, "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log,
            env=child_env(out_dir), start_new_session=True)
        try:
            self.host, self.port = self._await_listening(ready_timeout)
        except BaseException:
            self.stop()
            raise
        #: seconds from spawn to the child listening
        self.start_s = time.perf_counter() - t0

    def _await_listening(self, timeout: float):
        deadline = time.monotonic() + timeout
        stdout = self.process.stdout
        buffer = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.2)
            if ready:
                chunk = os.read(stdout.fileno(), 4096)
                if not chunk:
                    break
                buffer += chunk
                match = _LISTENING.search(buffer.decode("utf-8", "replace"))
                if match:
                    return match.group(1), int(match.group(2))
            elif self.process.poll() is not None:
                break
        raise RuntimeError(f"server did not start listening: {buffer!r}")

    # -- observation ---------------------------------------------------
    def tree(self) -> List[int]:
        """Pids of the child and every live process below it."""
        parents: Dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                stat = _read(f"/proc/{entry}/stat")
                if stat:
                    # the command (field 2) may hold spaces: split after it
                    fields = stat.rsplit(")", 1)[-1].split()
                    parents[int(entry)] = int(fields[1])
        tree = [self.process.pid]
        for pid in tree:
            tree.extend(p for p, parent in parents.items() if parent == pid)
        return tree

    def peak_rss_mb(self) -> float:
        """Sum over the tree of each process's peak resident set."""
        total_kb = 0
        for pid in self.tree():
            match = re.search(r"VmHWM:\s+(\d+) kB",
                              _read(f"/proc/{pid}/status"))
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def cpu_s(self) -> float:
        """User + system CPU seconds the tree has used so far."""
        ticks = 0
        for pid in self.tree():
            stat = _read(f"/proc/{pid}/stat")
            if stat:
                fields = stat.rsplit(")", 1)[-1].split()
                ticks += int(fields[11]) + int(fields[12])
        return ticks / _TICKS

    # -- reaping -------------------------------------------------------
    def stop(self, shutdown=None) -> None:
        """Stop the child and everything below it, and wait for it:
        ``shutdown`` (the protocol's shutdown op) first, then SIGTERM,
        then SIGKILL to its process group."""
        process = self.process
        try:
            if shutdown is not None and process.poll() is None:
                try:
                    shutdown()
                except Exception:  # boundary: fall through to signals
                    pass
            for sig, patience in ((None, 10.0), (signal.SIGTERM, 10.0),
                                  (signal.SIGKILL, 10.0)):
                if sig is not None:
                    _signal_group(process.pid, sig)
                try:
                    process.wait(timeout=patience)
                    break
                except subprocess.TimeoutExpired:
                    continue
            # pool workers the daemon left behind share its group
            _signal_group(process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while _group_running(process.pid) \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            if process.stdout is not None:
                process.stdout.close()
            self._log.close()


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def _group_running(pgid: int) -> bool:
    """Is any process of the group still running (zombies excluded: a
    reparented one may stay until the container's init reaps it)?"""
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _read(f"/proc/{entry}/stat").rsplit(")", 1)[-1].split()
            if len(fields) > 2 and int(fields[2]) == pgid \
                    and fields[0] != "Z":
                return True
    return False
