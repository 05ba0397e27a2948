"""Wire protocol: length-prefixed JSON frames over a stream socket.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Both requests and responses are single JSON
objects; a connection carries any number of request/response pairs in
order.  Requests name an operation in ``op``; responses always carry a
boolean ``ok``, plus ``error``/``code`` when ``ok`` is false.

Job payloads may set ``trace: true`` to run the pipeline under a
:class:`repro.trace.Tracer`; the worker attaches the exported trace to
the stored result.  Because traces are bulky, ``submit`` and ``result``
responses omit the ``trace`` key unless the request sets
``include_trace: true``.

The frame length is capped so a corrupt or hostile peer cannot make the
server allocate unbounded memory from four bytes of garbage.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Any, Callable, Dict, Optional, Tuple

#: refuse frames beyond this many bytes (a full benchmark source tree is
#: a few hundred KB; 32 MiB leaves room for batched sources)
MAX_FRAME = 32 * 1024 * 1024

_LEN = struct.Struct(">I")
HEADER_SIZE = _LEN.size


class ProtocolError(Exception):
    """Malformed frame, oversize frame, or connection closed mid-frame."""


def encode(message: Dict[str, Any]) -> bytes:
    body = json.dumps(message, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"message of {len(body)} bytes exceeds the "
                            f"{MAX_FRAME}-byte frame limit")
    return _LEN.pack(len(body)) + body


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    sock.sendall(encode(message))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def decode_body(body: bytes) -> Dict[str, Any]:
    """Parse one frame body; raises :class:`ProtocolError` on bad JSON."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame must be a JSON object")
    return message


def frame_length(header: bytes) -> int:
    """The body length a 4-byte frame header announces; raises
    :class:`ProtocolError` beyond :data:`MAX_FRAME`."""
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds the "
                            f"{MAX_FRAME}-byte limit")
    return length


def recv_message(sock: socket.socket) -> Dict[str, Any]:
    """Read one frame; raises :class:`ProtocolError` on EOF/corruption."""
    header = sock.recv(HEADER_SIZE)
    if not header:
        raise ProtocolError("connection closed")  # clean EOF between frames
    return _finish_frame(sock, header)


def _finish_frame(sock: socket.socket, header: bytes) -> Dict[str, Any]:
    """The rest of a frame whose first header bytes were read."""
    if len(header) < HEADER_SIZE:
        header += _recv_exact(sock, HEADER_SIZE - len(header))
    length = frame_length(header)
    body = _recv_exact(sock, length) if length else b""
    return decode_body(body)


def error_response(error: str, code: str = "error") -> Dict[str, Any]:
    return {"ok": False, "error": error, "code": code}


class ThreadedServer:
    """A listening socket and the blocking framed-JSON server loop: one
    daemon thread per connection answering requests in order through
    the subclass's ``handle_request``.  A handler exception becomes an
    ``internal`` error response, and a response too large for one frame
    an ``oversize`` one (never a silently dropped connection).  A
    response carrying the ``_shutdown``/``_drain``/``_drain_timeout``
    markers (stripped, so they never leak to the client) runs the
    subclass's ``stop(drain=..., drain_timeout=...)`` on its own thread
    once the reply is sent.

    A stopped server reads no further request on any connection: it
    tracks its open session sockets and ``_close`` shuts their read
    side, which wakes a session blocked in ``recv`` and ends it.  A
    request already being handled still gets its reply.  A kept-alive
    client therefore sees its connection closed, never an answer from
    a stopped server."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.address: Optional[Tuple[str, int]] = None
        self._sock: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._threads: list = []
        self._sessions: set = set()
        self._sessions_lock = threading.Lock()

    def _listen(self) -> Tuple[str, int]:
        self._sock = socket.create_server((self.host, self.port))
        self.address = self._sock.getsockname()[:2]
        self._spawn("repro-accept", self._accept_loop)
        return self.address

    def _spawn(self, name: str, target: Callable, *args: Any) -> None:
        t = threading.Thread(target=target, args=args, name=name,
                             daemon=True)
        t.start()
        self._threads.append(t)

    def _close(self) -> None:
        """Stop accepting, end every open session and join the threads.
        ``shutdown`` before ``close``: ``close`` alone leaves a thread
        already blocked in ``accept`` or ``recv`` asleep on Linux."""
        self._stop.set()
        if self._sock is not None:
            for step in (lambda: self._sock.shutdown(socket.SHUT_RDWR),
                         self._sock.close):
                try:
                    step()
                except OSError:
                    pass
        with self._sessions_lock:  # a session closes only once it left
            for conn in self._sessions:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer reset it already
        for t in self._threads:
            if t is not threading.current_thread():
                t.join(timeout=5.0)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server stops (the CLI foreground)."""
        return self._stop.wait(timeout=timeout)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # listening socket closed by _close()
            threading.Thread(target=self._session, args=(conn,),
                             daemon=True).start()

    def _session(self, conn: socket.socket) -> None:
        with self._sessions_lock:
            if self._stop.is_set():
                conn.close()  # accepted as the server stopped
                return
            self._sessions.add(conn)
        try:
            self._serve(conn)
        finally:
            with self._sessions_lock:
                self._sessions.discard(conn)
            conn.close()

    def _serve(self, conn: socket.socket) -> None:
        """Answer requests on one connection, in order, until the peer
        closes it or the server stops."""
        while not self._stop.is_set():
            try:
                request = recv_message(conn)
            except (OSError, ProtocolError):
                return
            if self._stop.is_set():
                return  # read as the server stopped: never answered
            try:
                response = self.handle_request(request)
            except Exception as exc:
                response = error_response(
                    f"{type(exc).__name__}: {exc}", code="internal")
            shutdown = response.pop("_shutdown", False)
            stop = {"drain": response.pop("_drain", False),
                    "drain_timeout": response.pop("_drain_timeout",
                                                  None)}
            try:
                frame = encode(response)
            except ProtocolError as exc:
                frame = encode(error_response(
                    f"response too large for one frame: {exc}",
                    code="oversize"))
            try:
                conn.sendall(frame)
            except OSError:
                return
            if shutdown:
                threading.Thread(target=self.stop, kwargs=stop,
                                 daemon=True).start()
                return


# -- the client side: one persistent connection --------------------------

class _Unanswered(ProtocolError):
    """The connection failed before any byte of the reply arrived, and
    not by a timeout."""


class Link:
    """A persistent request/response connection to ``host:port``.

    Requests are serialized, so a link may be shared across threads;
    concurrent callers that must not wait on each other hold one link
    each.  A failed request raises ``error`` — the exception type the
    owning tier reports unreachable peers with — and drops the socket,
    so the next request connects afresh.  The retry contract:

    * a request retries once, on a fresh socket, only when a connection
      that already carried a request fails before its reply begins —
      the peer closed or restarted between calls;
    * a failure on a fresh connection raises at once, and so does any
      timeout: a request that may still be running on the peer (a
      ``submit`` waiting for its job) is never sent twice by a timeout.
    """

    def __init__(self, host: str, port: int, timeout: Optional[float],
                 error: Callable[[str], Exception], peer: str):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._error = error
        self._peer = peer
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            try:
                if self._sock is not None:
                    try:
                        return self._exchange(message)
                    except _Unanswered:
                        self._drop()  # stale: the peer closed it
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
                return self._exchange(message)
            except (OSError, ProtocolError) as exc:
                self._drop()
                raise self._error(
                    f"{self._peer} {self.host}:{self.port} "
                    f"unreachable ({exc})") from None

    def _exchange(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request and its reply on the open socket."""
        try:
            send_message(self._sock, message)
            header = self._sock.recv(HEADER_SIZE)
        except TimeoutError:
            raise
        except OSError as exc:
            raise _Unanswered(str(exc)) from None
        if not header:
            raise _Unanswered("connection closed")
        return _finish_frame(self._sock, header)

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._drop()
