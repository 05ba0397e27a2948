"""The result cache, partitioned across cache-shard nodes.

A shard node is a tiny threaded TCP server (:class:`CacheShardServer`)
wrapping one existing :class:`repro.service.cache.ResultCache` — LRU
memory tier, bounded JSON disk tier, corrupt-entry sweep — behind the
same length-prefixed JSON protocol the rest of the system speaks
(``cache-get`` / ``cache-put`` / ``cache-stats`` / ``health`` /
``shutdown``).

:class:`ShardedCache` is the cache the job server
(:class:`repro.service.server.ParallelizationServer`) holds: it routes
each payload digest over a :class:`repro.cluster.ring.HashRing` to one
shard backend and mirrors the ``ResultCache`` interface
(``get``/``put``/``stats``).  Backends are either in-process
(:class:`LocalShard`: ``repro serve``, unit tests, single-box
deployments) or remote (:class:`RemoteShard`, a persistent reconnecting
socket).

Failure model: the cache is an optimization, never a correctness
dependency.  A shard that is down makes ``get`` a miss and ``put`` a
no-op for its arc of the ring — jobs recompute, the cluster stays
correct — and every such failure is counted per shard
(``repro_cluster_shard_requests_total{shard=...,outcome=error}``).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.cluster.ring import DEFAULT_REPLICAS, HashRing
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs.distributed import TraceContext
from repro.service import protocol
from repro.service.cache import ResultCache
from repro.trace.tracer import Tracer

_log = obs_logging.get_logger("repro.cluster.shard")


class ShardError(Exception):
    """A shard backend could not serve a request (node down, bad frame)."""


# ---------------------------------------------------------------------------
# shard backends
# ---------------------------------------------------------------------------

class LocalShard:
    """In-process shard: wraps a ResultCache directly."""

    def __init__(self, cache: Optional[ResultCache] = None,
                 capacity: int = 128, directory: Optional[str] = None):
        self.cache = cache if cache is not None \
            else ResultCache(capacity, directory=directory)

    def get(self, digest: str, trace_ctx: Optional[Dict] = None
            ) -> Optional[Dict]:
        return self.cache.get(digest)

    def put(self, digest: str, result: Dict,
            trace_ctx: Optional[Dict] = None) -> None:
        self.cache.put(digest, result)

    def stats(self) -> Dict[str, object]:
        return {"entries": len(self.cache), **self.cache.stats()}

    def close(self) -> None:
        pass


class RemoteShard:
    """A shard reached over the wire: one persistent
    :class:`~repro.service.protocol.Link`, :class:`ShardError` on
    failure."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._link = protocol.Link(host, port, timeout, ShardError, "shard")
        #: callable(spans, remote_wall) receiving spans the shard node
        #: piggybacked on a traced response (set by the job server)
        self.on_spans = None

    def request(self, message: Dict) -> Dict:
        return self._link.request(message)

    def _call(self, op: str, trace_ctx: Optional[Dict] = None,
              **fields) -> Dict:
        message = {"op": op, **fields}
        if trace_ctx is not None:
            message["trace_ctx"] = trace_ctx
        response = self.request(message)
        if not response.get("ok"):
            raise ShardError(response.get("error", f"{op} failed"))
        spans = response.get("spans")
        if isinstance(spans, list) and spans and self.on_spans is not None:
            try:
                self.on_spans(spans, response.get("wall"))
            except Exception:
                pass  # span delivery must never fail a cache op
        return response

    def get(self, digest: str, trace_ctx: Optional[Dict] = None
            ) -> Optional[Dict]:
        response = self._call("cache-get", trace_ctx, digest=digest)
        return response.get("result") if response.get("found") else None

    def put(self, digest: str, result: Dict,
            trace_ctx: Optional[Dict] = None) -> None:
        self._call("cache-put", trace_ctx, digest=digest, result=result)

    def stats(self) -> Dict[str, object]:
        response = self._call("cache-stats")
        return {"entries": response.get("entries", 0),
                **response.get("stats", {})}

    def close(self) -> None:
        self._link.close()


def parse_shard_spec(spec: str) -> Tuple[str, int]:
    """``host:port`` (or bare ``:port`` = 127.0.0.1) -> address tuple."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"bad shard spec {spec!r}; expected host:port")
    return host or "127.0.0.1", int(port)


# ---------------------------------------------------------------------------
# the sharded client
# ---------------------------------------------------------------------------

class ShardedCache:
    """Digest-partitioned result cache over a consistent-hash ring.

    Mirrors the ``ResultCache`` surface (``get``/``put``/``stats``) so
    the job server treats one box and a shard fleet the same way.  All
    methods are thread-safe (backends carry their own locks; ring
    membership changes take the membership lock).
    """

    def __init__(self, shards: Optional[Dict[str, object]] = None,
                 replicas: int = DEFAULT_REPLICAS,
                 registry: Optional[obs_metrics.MetricsRegistry] = None):
        self._lock = threading.Lock()
        self._shards: Dict[str, object] = {}
        self._ring = HashRing(replicas=replicas)
        registry = registry or obs_metrics.get_registry()
        self._m_requests = registry.counter(
            "repro_cluster_shard_requests_total",
            "shard cache requests by shard and outcome "
            "(hit/miss/put/error)")
        self._span_sink = None
        for name, backend in (shards or {}).items():
            self.add_shard(name, backend)

    def set_span_sink(self, sink) -> None:
        """Route distributed spans to ``sink(spans, remote_wall)``.

        Remote shards piggyback their own spans, recorded on the shard
        node's clock — ``remote_wall`` lets the receiver estimate the
        offset.  An in-process shard records none: the caller's own
        ``cache-lookup`` span covers it."""
        with self._lock:
            self._span_sink = sink
            for backend in self._shards.values():
                if hasattr(backend, "on_spans"):
                    backend.on_spans = sink

    @classmethod
    def from_specs(cls, specs: List[str], timeout: float = 10.0,
                   replicas: int = DEFAULT_REPLICAS,
                   registry=None) -> "ShardedCache":
        """Build from ``host:port`` strings (``cluster gateway --shard``)."""
        shards = {}
        for spec in specs:
            host, port = parse_shard_spec(spec)
            shards[f"{host}:{port}"] = RemoteShard(host, port,
                                                   timeout=timeout)
        return cls(shards, replicas=replicas, registry=registry)

    # -- membership --------------------------------------------------

    def add_shard(self, name: str, backend) -> None:
        with self._lock:
            self._shards[name] = backend
            self._ring.add_node(name)
            if self._span_sink is not None \
                    and hasattr(backend, "on_spans"):
                backend.on_spans = self._span_sink

    def remove_shard(self, name: str) -> None:
        with self._lock:
            backend = self._shards.pop(name, None)
            self._ring.remove_node(name)
        if backend is not None:
            backend.close()

    @property
    def shard_names(self) -> List[str]:
        with self._lock:
            return sorted(self._shards)

    @property
    def replicas(self) -> int:
        return self._ring.replicas

    def _route(self, digest: str):
        with self._lock:
            name = self._ring.node_for(digest)
            return name, self._shards.get(name)

    # -- the ResultCache surface -------------------------------------

    def get(self, digest: str,
            trace_ctx: Optional[Dict] = None) -> Optional[Dict]:
        name, shard = self._route(digest)
        if shard is None:
            return None
        try:
            result = shard.get(digest, trace_ctx)
        except ShardError as exc:
            self._m_requests.inc(shard=name, outcome="error")
            _log.warning("shard-get-failed", shard=name, error=str(exc))
            return None
        self._m_requests.inc(shard=name,
                             outcome="hit" if result is not None else "miss")
        return result

    def put(self, digest: str, result: Dict,
            trace_ctx: Optional[Dict] = None) -> None:
        name, shard = self._route(digest)
        if shard is None:
            return
        try:
            shard.put(digest, result, trace_ctx)
        except ShardError as exc:
            self._m_requests.inc(shard=name, outcome="error")
            _log.warning("shard-put-failed", shard=name, error=str(exc))
            return
        self._m_requests.inc(shard=name, outcome="put")

    def stats(self, per_shard: Optional[Dict[str, Dict]] = None
              ) -> Dict[str, int]:
        """Aggregate lookup counters across reachable shards (the
        single-node ``health`` shape), from ``per_shard`` when the
        caller already holds a :meth:`shard_stats` answer."""
        totals = {"hits": 0, "disk_hits": 0, "misses": 0, "evictions": 0}
        if per_shard is None:
            per_shard = self.shard_stats()
        for stats in per_shard.values():
            for key in totals:
                value = stats.get(key)
                if isinstance(value, int):
                    totals[key] += value
        return totals

    def shard_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-shard stats; unreachable shards report ``alive: False``."""
        with self._lock:
            shards = dict(self._shards)
        out: Dict[str, Dict[str, object]] = {}
        for name, shard in sorted(shards.items()):
            try:
                out[name] = {"alive": True, **shard.stats()}
            except ShardError as exc:
                out[name] = {"alive": False, "error": str(exc)}
        return out

    def ring_info(self) -> Dict[str, object]:
        with self._lock:
            return {"replicas": self._ring.replicas,
                    "shards": self._ring.nodes}

    def close(self) -> None:
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            shard.close()


# ---------------------------------------------------------------------------
# the shard node server
# ---------------------------------------------------------------------------

class CacheShardServer(protocol.ThreadedServer):
    """One cache-shard node: a ResultCache behind the wire protocol.

    Deliberately tiny — no queue, no workers, no job table: an op table
    on the shared threaded serve loop (the job server holds one
    persistent connection per shard, so thread count stays small).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 capacity: int = 512, directory: Optional[str] = None,
                 max_bytes: Optional[int] = None,
                 name: Optional[str] = None):
        super().__init__(host, port)
        self.cache = ResultCache(capacity, directory=directory,
                                 max_bytes=max_bytes)
        self.name = name
        self._ops = {"cache-get": self._op_get, "cache-put": self._op_put,
                     "cache-stats": self._op_stats,
                     "health": self._op_stats,
                     "shutdown": self._op_shutdown}

    def start(self) -> Tuple[str, int]:
        swept = self.cache.sweep()
        if swept:
            _log.warning("shard-sweep", removed=swept)
        address = self._listen()
        if self.name is None:
            self.name = f"shard:{address[0]}:{address[1]}"
        self.tracer = Tracer(label=self.name)
        return address

    def stop(self, drain: bool = False,
             drain_timeout: Optional[float] = None) -> None:
        """Stop serving (nothing is in flight: ``drain`` changes
        nothing)."""
        if not self._stop.is_set():
            self._close()

    def handle_request(self, request: Dict) -> Dict:
        op = request.get("op")
        handler = self._ops.get(op) if isinstance(op, str) else None
        if handler is None:
            return protocol.error_response(
                f"unknown op {op!r}; expected {'/'.join(self._ops)}",
                code="bad-op")
        return handler(request)

    def _op_get(self, request: Dict) -> Dict:
        digest = request.get("digest")
        if not isinstance(digest, str):
            return protocol.error_response("cache-get needs a 'digest'",
                                           "bad-request")
        t0_wall, t0 = time.time(), time.perf_counter()
        result = self.cache.get(digest)
        response = {"ok": True, "found": result is not None,
                    "result": result}
        self._attach_span(response, request, t0_wall, t0,
                          hit=result is not None)
        return response

    def _op_put(self, request: Dict) -> Dict:
        digest = request.get("digest")
        result = request.get("result")
        if not isinstance(digest, str) or not isinstance(result, dict):
            return protocol.error_response(
                "cache-put needs 'digest' and a 'result' object",
                "bad-request")
        t0_wall, t0 = time.time(), time.perf_counter()
        self.cache.put(digest, result)
        response = {"ok": True, "stored": True}
        self._attach_span(response, request, t0_wall, t0)
        return response

    def _op_stats(self, request: Dict) -> Dict:
        return {"ok": True, "role": "cache-shard",
                "entries": len(self.cache),
                "capacity": self.cache.capacity,
                "max_bytes": self.cache.max_bytes,
                "directory": self.cache.directory,
                "stats": self.cache.stats()}

    def _op_shutdown(self, request: Dict) -> Dict:
        return {"ok": True, "stopping": True, "_shutdown": True}

    def _attach_span(self, response: Dict, request: Dict,
                     t0_wall: float, t0: float, **args) -> None:
        """Record this operation's span (stamped with *this* node's wall
        clock) and piggyback what the shard has recorded on the
        response; the caller's ``wall`` sample feeds its clock-offset
        estimate for our lane.  An absent or malformed ``trace_ctx``
        records nothing: tracing must never make a cache op fail."""
        try:
            parent = TraceContext.from_dict(request.get("trace_ctx"))
        except ValueError:
            return
        if parent is None:
            return
        self.tracer.record(request["op"], parent.child(), cat="shard",
                           start_wall=t0_wall,
                           duration=time.perf_counter() - t0,
                           parent_id=parent.span_id, **args)
        response["spans"] = self.tracer.drain()
        response["wall"] = time.time()
