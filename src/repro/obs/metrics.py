"""Shared metrics: counters, gauges, histograms, and the process-wide
default registry.

A single :class:`MetricsRegistry` owns every metric; accessors are
get-or-create so instrumentation points never race registration.
Re-registering a name with a *conflicting* ``help`` text or histogram
``buckets`` raises :class:`ValueError` — two call sites that disagree
about what a metric means are a bug, not a race.

Render formats:

* ``to_json()`` — nested dict for the ``metrics`` protocol op and tests;
* ``to_prometheus()`` — the Prometheus text exposition format, so a
  scraper pointed at ``repro svc-status --prometheus`` (or the raw op)
  needs no translation layer.

Cross-process story (mirrors :meth:`repro.trace.Tracer.drain`): a
worker observes into its own process-local default registry and hands
over what it saw with :meth:`MetricsRegistry.drain` — a JSON-safe dict
that empties the registry as it is taken — and the parent
:meth:`MetricsRegistry.merge`\\ s it in.  Pool workers drain once per
task, a worker node once per acknowledged heartbeat, so ``repro table2
-j 8`` ends with the same counter values as ``-j 1``.

All mutation is lock-protected; observation costs one lock acquire, fine
at this system's request rates (the pipeline behind each job runs for
milliseconds to seconds, not nanoseconds).
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

#: default histogram buckets (seconds) — the pipeline spans ~1ms probes
#: to multi-second whole-benchmark runs
DEFAULT_BUCKETS = (0.005, 0.02, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


def _fmt(value: float) -> str:
    """Prometheus sample value: integers render without a decimal."""
    return str(int(value)) if float(value).is_integer() else repr(value)


def _labels_suffix(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing count, optionally split by one label."""

    kind = "counter"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._lock = lock
        self._values: Dict[Tuple[Tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1, **labels: str) -> None:
        key = tuple(sorted(labels.items()))
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        key = tuple(sorted(labels.items()))
        with self._lock:
            return self._values.get(key, 0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def to_json(self):
        with self._lock:
            if not self._values:
                return 0
            if list(self._values) == [()]:
                return self._values[()]
            return {_labels_suffix(k) or "total": v
                    for k, v in sorted(self._values.items())}

    def samples(self) -> List[str]:
        with self._lock:
            items = sorted(self._values.items()) or [((), 0)]
            return [f"{self.name}{_labels_suffix(k)} {_fmt(v)}"
                    for k, v in items]

    # -- cross-process snapshots -------------------------------------

    def export(self) -> Dict[str, object]:
        with self._lock:
            values = [[list(map(list, k)), v]
                      for k, v in sorted(self._values.items())]
        return {"kind": self.kind, "help": self.help, "values": values}

    def merge(self, exported: Dict[str, object]) -> None:
        for key, amount in exported.get("values", ()):
            if amount:
                self.inc(amount, **{k: v for k, v in key})

    def drain(self) -> Optional[Dict[str, object]]:
        with self._lock:
            taken, self._values = self._values, {}
        return {"kind": self.kind, "help": self.help,
                "values": [[list(map(list, k)), v]
                           for k, v in sorted(taken.items())]} \
            if taken else None


class Gauge:
    """A value that goes up and down (queue depth, running jobs)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._lock = lock
        self._value = 0.0
        self._drained = 0.0  # the value the last drain() handed over

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    def value(self) -> float:
        with self._lock:
            return self._value

    def to_json(self):
        return self.value()

    def samples(self) -> List[str]:
        return [f"{self.name} {_fmt(self.value())}"]

    # -- cross-process snapshots -------------------------------------

    def export(self) -> Dict[str, object]:
        return {"kind": self.kind, "help": self.help, "value": self.value()}

    def merge(self, exported: Dict[str, object]) -> None:
        amount = float(exported.get("value", 0.0))
        if amount:
            self.inc(amount)

    def drain(self) -> Optional[Dict[str, object]]:
        with self._lock:
            change, self._drained = self._value - self._drained, self._value
        return {"kind": self.kind, "help": self.help,
                "value": change} if change else None


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help: str, lock: threading.Lock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self._lock = lock
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    def time(self) -> "_HistogramTimer":
        """Context manager observing the elapsed wall clock on exit."""
        return _HistogramTimer(self)

    def count(self) -> int:
        with self._lock:
            return self._count

    def sum(self) -> float:
        with self._lock:
            return self._sum

    def to_json(self):
        with self._lock:
            cumulative = 0
            buckets = {}
            for bound, n in zip(self.buckets, self._counts):
                cumulative += n
                buckets[_fmt(bound)] = cumulative
            buckets["+Inf"] = self._count
            return {"count": self._count, "sum": self._sum,
                    "buckets": buckets}

    def samples(self) -> List[str]:
        with self._lock:
            out = []
            cumulative = 0
            for bound, n in zip(self.buckets, self._counts):
                cumulative += n
                out.append(f'{self.name}_bucket{{le="{_fmt(bound)}"}} '
                           f'{cumulative}')
            out.append(f'{self.name}_bucket{{le="+Inf"}} {self._count}')
            out.append(f"{self.name}_sum {_fmt(self._sum)}")
            out.append(f"{self.name}_count {self._count}")
            return out

    # -- cross-process snapshots -------------------------------------

    def export(self) -> Dict[str, object]:
        with self._lock:
            return {"kind": self.kind, "help": self.help,
                    "buckets": list(self.buckets),
                    "counts": list(self._counts),
                    "sum": self._sum, "count": self._count}

    def merge(self, exported: Dict[str, object]) -> None:
        counts = exported.get("counts", ())
        if tuple(exported.get("buckets", ())) != self.buckets \
                or len(counts) != len(self._counts):
            # incompatible bucket layout: keep sum/count honest at least
            with self._lock:
                self._sum += float(exported.get("sum", 0.0))
                self._count += int(exported.get("count", 0))
                self._counts[-1] += int(exported.get("count", 0))
            return
        with self._lock:
            for i, n in enumerate(counts):
                self._counts[i] += n
            self._sum += float(exported.get("sum", 0.0))
            self._count += int(exported.get("count", 0))

    def drain(self) -> Optional[Dict[str, object]]:
        with self._lock:
            counts, self._counts = self._counts, [0] * len(self._counts)
            total, self._sum = self._sum, 0.0
            count, self._count = self._count, 0
        return {"kind": self.kind, "help": self.help,
                "buckets": list(self.buckets), "counts": counts,
                "sum": total, "count": count} if count or total else None


class _HistogramTimer:
    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._t0 = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._histogram.observe(perf_counter() - self._t0)
        return False


class MetricsRegistry:
    """Thread-safe, get-or-create home for every metric."""

    def __init__(self):
        self._lock = threading.Lock()          # guards the metric table
        self._metrics: Dict[str, object] = {}  # name -> metric (ordered)

    def _get(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                if cls is Histogram and kwargs.get("buckets") is None:
                    kwargs["buckets"] = DEFAULT_BUCKETS
                metric = cls(name, help, threading.Lock(), **kwargs)
                self._metrics[name] = metric
                return metric
            if not isinstance(metric, cls):
                raise TypeError(f"metric {name!r} already registered "
                                f"as {type(metric).__name__}")
            # conflicting re-registration is a bug at the call site, not
            # a get-or-create race: the empty help means "no opinion"
            if help and metric.help and help != metric.help:
                raise ValueError(
                    f"metric {name!r} already registered with help "
                    f"{metric.help!r}; conflicting help {help!r}")
            if help and not metric.help:
                metric.help = help
            buckets = kwargs.get("buckets")
            if buckets is not None \
                    and tuple(sorted(buckets)) != metric.buckets:
                raise ValueError(
                    f"histogram {name!r} already registered with buckets "
                    f"{metric.buckets}; conflicting buckets "
                    f"{tuple(sorted(buckets))}")
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def _snapshot(self) -> List[object]:
        with self._lock:
            return list(self._metrics.values())

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for metric in self._snapshot():
            out[metric.name] = metric.to_json()
        return out

    def to_prometheus(self) -> str:
        lines: List[str] = []
        for metric in self._snapshot():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.samples())
        return "\n".join(lines) + "\n"

    # -- cross-process snapshots -------------------------------------

    def export(self) -> Dict[str, Dict[str, object]]:
        """JSON-safe snapshot of every metric (picklable across the pool
        boundary, serializable on the service wire)."""
        return {m.name: m.export() for m in self._snapshot()}

    def drain(self) -> Dict[str, Dict[str, object]]:
        """Remove and return what every metric observed since the last
        drain, in :meth:`export`'s shape: counters hand over the label
        sets touched since (and zero them), histograms their new
        observations, a gauge its change; a metric with nothing new is
        left out.  A worker drains once per task (or heartbeat), so it
        never reports an observation twice."""
        taken = ((m.name, m.drain()) for m in self._snapshot())
        return {name: data for name, data in taken if data}

    def merge(self, exported: Optional[Dict[str, Dict[str, object]]]
              ) -> None:
        """Fold an :meth:`export` (usually a :meth:`drain`) into this
        registry, get-or-creating each metric.  Counter and histogram
        values add; gauge deltas add (an absolute child gauge should be
        folded by the caller instead)."""
        if not exported:
            return
        for name, data in exported.items():
            kind = data.get("kind")
            if kind == "counter":
                self.counter(name, str(data.get("help", ""))).merge(data)
            elif kind == "gauge":
                self.gauge(name, str(data.get("help", ""))).merge(data)
            elif kind == "histogram":
                self.histogram(name, str(data.get("help", "")),
                               buckets=data.get("buckets")).merge(data)


# ---------------------------------------------------------------------------
# the process-wide default registry
# ---------------------------------------------------------------------------

_default_lock = threading.Lock()
_default: MetricsRegistry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every instrumentation point
    shares (the CLI, the experiment pipeline, the fuzzer, and the
    service all observe into this one)."""
    return _default


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (tests isolate themselves with this);
    returns the previous one so callers can restore it."""
    global _default
    with _default_lock:
        previous = _default
        _default = registry
    return previous


def counter(name: str, help: str = "") -> Counter:
    return get_registry().counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    return get_registry().gauge(name, help)


def histogram(name: str, help: str = "",
              buckets: Optional[Sequence[float]] = None) -> Histogram:
    return get_registry().histogram(name, help, buckets=buckets)
