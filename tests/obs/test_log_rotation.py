"""The log file sink: atomic appends that follow an outside rotation."""

import glob
import os
import sys
import threading

from repro.obs.logging import AppendFileSink


class TestRotatingFileSink:
    def test_plain_append_without_max_bytes(self, tmp_path):
        path = str(tmp_path / "repro.log")
        sink = AppendFileSink(path)
        sink.write("one\n")
        sink.write("two\n")
        sink.close()
        with open(path) as fh:
            assert fh.read() == "one\ntwo\n"

    def test_no_interleaved_lines_across_threads(self, tmp_path):
        """Threads sharing one sink: no write fails, no record is lost.

        Before each write a writer renames the live file away, standing
        in for a log rotator, so every write reopens the path; the
        barrier releases all writers at once and a short switch interval
        preempts them mid-``write`` — so without the sink's lock one
        thread's reopen closes the fd another is about to write
        (``EBADF``) or has just opened.  With the lock each record must
        survive exactly once, in the live file or a renamed one.
        """
        path = str(tmp_path / "repro.log")
        tags, per_thread = tuple(f"t{k:02d}" for k in range(16)), 100
        sink = AppendFileSink(path)
        barrier = threading.Barrier(len(tags))
        errors = []

        def writer(tag):
            try:
                barrier.wait(timeout=10)
                for i in range(per_thread):
                    try:
                        os.replace(path, f"{path}.{tag}.{i}")
                    except FileNotFoundError:
                        pass
                    sink.write(f"{tag}:{i:03d}:" + "payload" * 3 + "\n")
            except Exception as exc:  # surfaced by the assert below
                errors.append(f"{tag}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in tags]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        sink.close()
        assert errors == []
        seen = []
        for f in glob.glob(path + "*"):
            with open(f) as fh:
                for line in fh:
                    assert line.endswith("\n")
                    tag, num, payload = line.rstrip("\n").split(":")
                    assert payload == "payload" * 3
                    seen.append((tag, num))
        assert sorted(seen) == [(tag, f"{i:03d}") for tag in tags
                                for i in range(per_thread)]

    def test_follows_external_rotation(self, tmp_path):
        path = str(tmp_path / "repro.log")
        sink = AppendFileSink(path)
        sink.write("before\n")
        os.replace(path, path + ".1")  # another process rotates
        sink.write("after\n")
        sink.close()
        with open(path) as fh:
            assert fh.read() == "after\n"
        with open(path + ".1") as fh:
            assert fh.read() == "before\n"

    def test_env_wiring(self, tmp_path, monkeypatch):
        """REPRO_LOG_FILE builds a file sink."""
        from repro.obs import logging as obs_logging
        path = str(tmp_path / "wired.log")
        monkeypatch.setenv("REPRO_LOG", "json")
        monkeypatch.setenv("REPRO_LOG_FILE", path)
        obs_logging.configure()
        try:
            obs_logging.get_logger("test.rotation").warning(
                "rotation-smoke", detail="hello")
            with open(path) as fh:
                assert "rotation-smoke" in fh.read()
        finally:
            monkeypatch.delenv("REPRO_LOG_FILE")
            monkeypatch.delenv("REPRO_LOG")
            obs_logging.configure(stream=None)
