"""repro.service — a batch parallelization daemon.

The one-shot CLI pays the full parse → inline → analyze → reverse cost
on every invocation.  This package turns the Figure-15 pipeline into a
long-running server: a sans-IO job ledger — bounded queue, deadlines,
crash retry, backpressure, the client op table (:mod:`.ledger`,
:mod:`.jobs`) — inside a socket server speaking a length-prefixed JSON
protocol (:mod:`.server`, :mod:`.protocol`), an LRU result cache
layered over the ``.repro_cache/`` disk cache (:mod:`.cache`), and a
thin client (:mod:`.client`) behind the ``repro serve`` /
``repro submit`` / ``repro svc-status`` subcommands.  Service metrics
(JSON and Prometheus text) are :mod:`repro.obs.metrics` registries.

See ``docs/service.md`` for the protocol, knobs and failure modes.
"""

from repro.service.cache import ResultCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import FINAL_STATES, Job, JobState, QueueFullError
from repro.service.ledger import JobLedger
from repro.service.server import ParallelizationServer

__all__ = [
    "FINAL_STATES", "Job", "JobLedger", "JobState",
    "ParallelizationServer", "QueueFullError", "ResultCache",
    "ServiceClient", "ServiceError",
]
