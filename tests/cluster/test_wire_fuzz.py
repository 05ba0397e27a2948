"""Byte-level wire fuzz: no bytes a peer sends take a server down.

Every server runs the one framed-JSON loop
(:class:`repro.service.protocol.ThreadedServer`): the job server behind
``repro serve`` and ``repro cluster gateway``, and the cache shard.
Each gets arbitrary bytes, truncated frames, a length header above
``MAX_FRAME``, bodies that are not UTF-8 and JSON that is not an
object; after every example a fresh connection's ``health`` must answer
``ok``.  The examples are derandomized, so the run is the same each
time.
"""

import json
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.shardcache import CacheShardServer
from repro.service import protocol
from repro.service.server import ParallelizationServer

SERVERS = {
    "daemon": lambda: ParallelizationServer(port=0, jobs=1, inline=True),
    "gateway": lambda: ParallelizationServer(port=0, tier="cluster",
                                             jobs=1, inline=True),
    "shard": lambda: CacheShardServer(port=0),
}


@pytest.fixture(scope="module", params=sorted(SERVERS))
def server(request):
    srv = SERVERS[request.param]()
    srv.start()
    yield srv
    srv.stop()


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _truncate(pair) -> bytes:
    """A whole request frame cut short: never answered, never run."""
    fields, cut = pair
    frame = protocol.encode({"op": "health", **fields})
    return frame[:cut % len(frame)]


def _is_utf8(body: bytes) -> bool:
    try:
        body.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


#: the hostile input families of the module docstring, as raw bytes
HOSTILE = st.one_of(
    st.binary(max_size=64),
    st.tuples(st.dictionaries(st.text(max_size=6), _json_values,
                              max_size=3),
              st.integers(min_value=0, max_value=500)).map(_truncate),
    st.tuples(st.integers(protocol.MAX_FRAME + 1, 2 ** 32 - 1),
              st.binary(max_size=16)).map(
        lambda pair: struct.pack(">I", pair[0]) + pair[1]),
    st.binary(min_size=1, max_size=16).filter(
        lambda body: not _is_utf8(body)).map(_frame),
    _json_values.filter(lambda value: not isinstance(value, dict)).map(
        lambda value: _frame(json.dumps(value).encode())),
)


def _send_and_hang_up(address, data: bytes) -> None:
    """Send ``data``, signal EOF, read whatever comes back until the
    server closes; a reset is as good an answer to garbage as any."""
    with socket.create_connection(address, timeout=5) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            while sock.recv(65536):
                pass
        except OSError:
            pass


def _health(address) -> dict:
    with socket.create_connection(address, timeout=5) as sock:
        protocol.send_message(sock, {"op": "health"})
        return protocol.recv_message(sock)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=HOSTILE)
def test_hostile_bytes_never_stop_the_server(server, data):
    _send_and_hang_up(server.address, data)
    assert _health(server.address)["ok"]


@pytest.mark.parametrize("data", [
    b"",                                           # connect and hang up
    struct.pack(">I", 12) + b"not-json-at!",        # garbage body
    struct.pack(">I", 1000) + b"{\"op\":",          # truncated frame
    struct.pack(">I", protocol.MAX_FRAME + 1),      # oversize header
    _frame(b"[1, 2, 3]"),                           # JSON, not an object
    _frame(b"\xff\xfe\xfd"),                        # not UTF-8
    b"\x00\x00",                                    # half a header
], ids=["empty", "garbage", "truncated", "oversize", "array", "not-utf8",
        "half-header"])
def test_named_hostile_inputs(server, data):
    _send_and_hang_up(server.address, data)
    assert _health(server.address)["ok"]
