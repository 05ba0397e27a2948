"""Thin client for the parallelization daemon.

A client holds one persistent :class:`~repro.service.protocol.Link`,
so its calls after the first skip connect, accept, a new server
session thread and the first read.  That is most of a cheap call:
fresh-socket-per-call clients spent 0.347 ms of a 0.469 ms probe round
trip (bench ``service``, traced, ``wire_ms_p50`` beside
``server_ms_p50`` 0.141 ms) on the wire; on one connection it is
0.132 ms.  The link's retry contract keeps a client usable across a
daemon restart: a kept connection the old daemon closed is retried
once on a fresh socket.  A client is not for concurrent callers — its
requests are serialized — so threads hold one each; ``close()`` (or a
``with`` block) ends the connection.  Errors reported by the server
(backpressure, unknown jobs, failed jobs) surface as
:class:`ServiceError` carrying the protocol error ``code``; a daemon
that cannot be reached is ``code="unreachable"``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.logging import current_context
from repro.service import protocol

DEFAULT_PORT = 7411  # 'repro' on a phone keypad, roughly


class ServiceError(Exception):
    """The server answered ``ok: false`` (or could not be reached)."""

    def __init__(self, message: str, code: str = "error"):
        super().__init__(message)
        self.code = code


def _unreachable(message: str) -> ServiceError:
    return ServiceError(message, code="unreachable")


class ServiceClient:
    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout: Optional[float] = 60.0):
        self._link = protocol.Link(host, port, timeout, _unreachable,
                                   "repro service")

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the connection (the next request would open a new
        one)."""
        self._link.close()

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response round trip; raises ServiceError."""
        response = self._link.request(message)
        if not response.get("ok"):
            raise ServiceError(response.get("error", "request failed"),
                               code=response.get("code", "error"))
        return response

    # -- operations --------------------------------------------------

    def submit(self, payload: Dict[str, Any], wait: bool = True,
               deadline: Optional[float] = None,
               max_retries: Optional[int] = None,
               wait_timeout: Optional[float] = None,
               include_trace: bool = False,
               trace_ctx: Optional[Dict[str, Any]] = None
               ) -> Dict[str, Any]:
        message: Dict[str, Any] = {"op": "submit", "payload": payload,
                                   "wait": wait}
        ctx = current_context()
        if ctx:
            # correlation IDs ride next to the payload (never inside it:
            # they must not perturb the dedup digest)
            message["ctx"] = ctx
        if trace_ctx is not None:
            # distributed trace context: same rule as ctx — beside the
            # payload, never part of the dedup digest
            message["trace_ctx"] = trace_ctx
        if deadline is not None:
            message["deadline"] = deadline
        if max_retries is not None:
            message["max_retries"] = max_retries
        if wait_timeout is not None:
            message["wait_timeout"] = wait_timeout
        if include_trace:
            message["include_trace"] = True
        return self.request(message)

    def submit_benchmark(self, name: str, config: str = "annotation",
                         **kwargs) -> Dict[str, Any]:
        return self.submit({"kind": "benchmark", "benchmark": name,
                            "config": config}, **kwargs)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self.request({"op": "status", "job_id": job_id})

    def result(self, job_id: str, wait: bool = False,
               wait_timeout: Optional[float] = None,
               include_trace: bool = False) -> Dict[str, Any]:
        message: Dict[str, Any] = {"op": "result", "job_id": job_id,
                                   "wait": wait}
        if wait_timeout is not None:
            message["wait_timeout"] = wait_timeout
        if include_trace:
            message["include_trace"] = True
        return self.request(message)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.request({"op": "cancel", "job_id": job_id})

    def health(self) -> Dict[str, Any]:
        return self.request({"op": "health"})

    def metrics(self, format: str = "json") -> Dict[str, Any]:
        return self.request({"op": "metrics", "format": format})

    def telemetry(self, events_since: int = 0) -> Dict[str, Any]:
        """One live telemetry frame: a fresh metric+health snapshot plus
        events newer than ``events_since`` (feeds ``repro top``)."""
        return self.request({"op": "telemetry",
                             "events_since": events_since})

    def trace_export(self, trace_id: Optional[str] = None
                     ) -> Dict[str, Any]:
        """All stored spans (optionally one trace), per-node clock
        offsets, and decision records (feeds ``repro trace-collect``)."""
        message: Dict[str, Any] = {"op": "trace-export"}
        if trace_id is not None:
            message["trace_id"] = trace_id
        return self.request(message)

    def shutdown(self, drain: bool = False,
                 drain_timeout: Optional[float] = None) -> Dict[str, Any]:
        message: Dict[str, Any] = {"op": "shutdown"}
        if drain:
            message["drain"] = True
        if drain_timeout is not None:
            message["drain_timeout"] = drain_timeout
        return self.request(message)
