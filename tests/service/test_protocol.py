"""Framing tests: length-prefixed JSON over real socket pairs; and
the client side's retry contract (``protocol.Link``)."""

import socket
import struct
import threading
import time

import pytest

from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ParallelizationServer


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestRoundtrip:
    def test_simple(self, pair):
        a, b = pair
        protocol.send_message(a, {"op": "health"})
        assert protocol.recv_message(b) == {"op": "health"}

    def test_multiple_frames_in_order(self, pair):
        a, b = pair
        for i in range(5):
            protocol.send_message(a, {"i": i})
        assert [protocol.recv_message(b)["i"] for i in range(5)] == \
            [0, 1, 2, 3, 4]

    def test_unicode_payload(self, pair):
        a, b = pair
        message = {"text": "ω ≤ Δ — ünïcode"}
        protocol.send_message(a, message)
        assert protocol.recv_message(b) == message

    def test_large_payload(self, pair):
        a, b = pair
        message = {"sources": {"big.f": "C" * 200_000}}
        # sendall on a socketpair buffer can deadlock if the reader
        # waits; send from a thread
        import threading
        t = threading.Thread(target=protocol.send_message,
                             args=(a, message))
        t.start()
        assert protocol.recv_message(b) == message
        t.join()


class TestErrors:
    def test_eof_raises(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(protocol.ProtocolError):
            protocol.recv_message(b)

    def test_truncated_frame(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", 100) + b"short")
        a.close()
        with pytest.raises(protocol.ProtocolError, match="mid-frame"):
            protocol.recv_message(b)

    def test_oversize_frame_rejected(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", protocol.MAX_FRAME + 1))
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.recv_message(b)

    def test_bad_json(self, pair):
        a, b = pair
        body = b"not json"
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(protocol.ProtocolError, match="bad JSON"):
            protocol.recv_message(b)

    def test_non_object_frame(self, pair):
        a, b = pair
        body = b"[1,2,3]"
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(protocol.ProtocolError, match="JSON object"):
            protocol.recv_message(b)

    def test_encode_oversize_message(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode({"x": "y" * (protocol.MAX_FRAME + 1)})


class Unreachable(Exception):
    pass


class SilentListener:
    """Accepts connections and reads request frames, never replying."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.frames = []
        self._readers = []
        self._acceptor = threading.Thread(target=self._accept, daemon=True)
        self._acceptor.start()

    def _accept(self):
        while True:
            try:
                conn, _addr = self.sock.accept()
            except OSError:
                return
            reader = threading.Thread(target=self._read, args=(conn,),
                                      daemon=True)
            reader.start()
            self._readers.append(reader)

    def _read(self, conn):
        with conn:
            while True:
                try:
                    self.frames.append(protocol.recv_message(conn))
                except (OSError, protocol.ProtocolError):
                    return

    def close(self):
        self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()
        self._acceptor.join(timeout=5)
        for reader in self._readers:
            reader.join(timeout=5)


class TestLinkRetryContract:
    def test_timeout_raises_at_once_and_never_resends(self):
        listener = SilentListener()
        link = protocol.Link("127.0.0.1", listener.port, 0.3, Unreachable,
                             "peer")
        try:
            t0 = time.monotonic()
            with pytest.raises(Unreachable, match="timed out"):
                link.request({"op": "submit", "wait": True})
            elapsed = time.monotonic() - t0
        finally:
            link.close()  # ends the reader's connection
            listener.close()
        assert elapsed < 0.55, f"{elapsed:.2f} s: the request was retried"
        assert listener.frames == [{"op": "submit", "wait": True}]

    def test_client_survives_a_restart_on_the_same_port(self):
        first = ParallelizationServer(port=0, jobs=1, inline=True)
        host, port = first.start()
        client = ServiceClient(host, port)
        try:
            assert client.health()["ok"]
            first.stop()
            second = ParallelizationServer(port=port, jobs=1, inline=True)
            second.start()
            try:
                done = client.submit({"kind": "probe", "probe": "echo",
                                      "value": 7}, wait=True,
                                     wait_timeout=10)
                assert done["state"] == "done"
                assert done["result"] == {"echo": 7}
            finally:
                second.stop()
        finally:
            client.close()
            first.stop()

    def test_refused_connect_is_one_attempt(self, monkeypatch):
        closed = socket.socket()
        closed.bind(("127.0.0.1", 0))  # bound, not listening: refused
        port = closed.getsockname()[1]
        connects = []
        create_connection = socket.create_connection

        def counting(*args, **kwargs):
            connects.append(args[0])
            return create_connection(*args, **kwargs)

        monkeypatch.setattr(protocol.socket, "create_connection", counting)
        try:
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient("127.0.0.1", port, timeout=1.0).health()
        finally:
            closed.close()
        assert excinfo.value.code == "unreachable"
        assert connects == [("127.0.0.1", port)]
