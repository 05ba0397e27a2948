"""Size-based log rotation: atomic keep-N generations, no interleave."""

import os
import sys
import threading

from repro.obs.logging import RotatingFileSink


class TestRotatingFileSink:
    def test_plain_append_without_max_bytes(self, tmp_path):
        path = str(tmp_path / "repro.log")
        sink = RotatingFileSink(path)
        sink.write("one\n")
        sink.write("two\n")
        sink.close()
        with open(path) as fh:
            assert fh.read() == "one\ntwo\n"
        assert sink.generations() == [path]

    def test_rotates_at_size_and_keeps_n(self, tmp_path):
        path = str(tmp_path / "repro.log")
        sink = RotatingFileSink(path, max_bytes=40, keep=2)
        for i in range(12):
            sink.write(f"record-{i:04d} xxxxxxxxxx\n")  # ~23 bytes each
        sink.close()
        files = sink.generations()
        assert files[0] == path
        assert all(os.path.exists(f) for f in files)
        # bounded: live file + at most `keep` rotated generations
        assert len(files) <= 3
        assert not os.path.exists(f"{path}.3")
        for f in files:
            assert os.path.getsize(f) <= 40 + 23  # one record of slack

    def test_rotation_preserves_newest_records_in_live_file(self, tmp_path):
        path = str(tmp_path / "repro.log")
        sink = RotatingFileSink(path, max_bytes=30, keep=3)
        for i in range(6):
            sink.write(f"rec-{i}\n")
        sink.close()
        with open(path) as fh:
            live = fh.read()
        with open(f"{path}.1") as fh:
            rotated = fh.read()
        assert "rec-5" in live
        # every rotated record is older than every live record
        assert max(rotated.split()) < min(live.split())

    def test_no_interleaved_lines_across_threads(self, tmp_path):
        """Threads sharing one sink: no write fails, no record is lost.

        ``max_bytes`` below two records makes every other write rotate,
        the barrier releases all writers into that at once, and a short
        switch interval preempts them mid-``write`` — so without the
        sink's lock a rotation closes the fd another thread is about to
        write (``EBADF``) or two rotations shift each other's
        generations away.  ``keep`` covers every rotation, so with the
        lock each record must survive exactly once.
        """
        path = str(tmp_path / "repro.log")
        tags, per_thread = ("aa", "bb", "cc", "dd"), 60
        sink = RotatingFileSink(path, max_bytes=40,
                                keep=len(tags) * per_thread)
        barrier = threading.Barrier(len(tags))
        errors = []

        def writer(tag):
            try:
                barrier.wait(timeout=10)
                for i in range(per_thread):
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
        for f in sink.generations():
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
        sink = RotatingFileSink(path)
        sink.write("before\n")
        os.replace(path, path + ".1")  # another process rotates
        sink.write("after\n")
        sink.close()
        with open(path) as fh:
            assert fh.read() == "after\n"
        with open(path + ".1") as fh:
            assert fh.read() == "before\n"

    def test_env_wiring(self, tmp_path, monkeypatch):
        """REPRO_LOG_FILE + REPRO_LOG_MAX_BYTES build a rotating sink."""
        from repro.obs import logging as obs_logging
        path = str(tmp_path / "wired.log")
        monkeypatch.setenv("REPRO_LOG", "json")
        monkeypatch.setenv("REPRO_LOG_FILE", path)
        monkeypatch.setenv("REPRO_LOG_MAX_BYTES", "100000")
        obs_logging.configure()
        try:
            obs_logging.get_logger("test.rotation").warning(
                "rotation-smoke", detail="hello")
            with open(path) as fh:
                assert "rotation-smoke" in fh.read()
        finally:
            monkeypatch.delenv("REPRO_LOG_FILE")
            monkeypatch.delenv("REPRO_LOG_MAX_BYTES")
            monkeypatch.delenv("REPRO_LOG")
            obs_logging.configure(stream=None)
