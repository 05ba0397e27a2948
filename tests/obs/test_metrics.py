"""Shared metrics registry: conflict detection, render consistency,
drain/merge arithmetic, and concurrent observation from threads and
pool workers.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.executor import WorkerPool, observed, run_tasks
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


@pytest.fixture()
def registry():
    """Isolate the process-wide default registry per test."""
    fresh = MetricsRegistry()
    previous = obs_metrics.set_registry(fresh)
    try:
        yield fresh
    finally:
        obs_metrics.set_registry(previous)


class TestConflictDetection:
    def test_conflicting_help_raises(self):
        m = MetricsRegistry()
        m.counter("repro_x_total", "one meaning")
        with pytest.raises(ValueError, match="conflicting help"):
            m.counter("repro_x_total", "another meaning")

    def test_empty_help_is_no_opinion(self):
        m = MetricsRegistry()
        a = m.counter("repro_x_total", "the meaning")
        assert m.counter("repro_x_total") is a
        assert m.counter("repro_x_total", "the meaning") is a

    def test_late_help_is_adopted(self):
        m = MetricsRegistry()
        a = m.counter("repro_x_total")
        assert a.help == ""
        m.counter("repro_x_total", "finally documented")
        assert a.help == "finally documented"

    def test_conflicting_buckets_raise(self):
        m = MetricsRegistry()
        m.histogram("repro_h_seconds", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="conflicting buckets"):
            m.histogram("repro_h_seconds", buckets=(1.0, 5.0))

    def test_omitted_buckets_match_anything(self):
        m = MetricsRegistry()
        h = m.histogram("repro_h_seconds", buckets=(1.0, 2.0))
        assert m.histogram("repro_h_seconds") is h
        d = m.histogram("repro_d_seconds")  # default buckets
        assert d.buckets == tuple(sorted(DEFAULT_BUCKETS))
        assert m.histogram("repro_d_seconds",
                           buckets=DEFAULT_BUCKETS) is d

    def test_kind_conflict_raises_type_error(self):
        m = MetricsRegistry()
        m.counter("repro_x")
        with pytest.raises(TypeError):
            m.histogram("repro_x")


class TestRenderConsistency:
    def test_bucket_labels_match_between_json_and_samples(self):
        m = MetricsRegistry()
        h = m.histogram("repro_h_seconds", buckets=(0.1, 1.0, 10.0))
        h.observe(0.05)
        h.observe(3.0)
        json_labels = set(m.to_json()["repro_h_seconds"]["buckets"])
        sample_text = "\n".join(h.samples())
        for label in json_labels - {"+Inf"}:
            assert f'le="{label}"' in sample_text
        # integral bounds render without a trailing .0 in both places
        assert "1" in json_labels and "1.0" not in json_labels
        assert 'le="1"' in sample_text and 'le="1.0"' not in sample_text


class TestExportDeltaMerge:
    """A worker's ``drain()`` — everything it observed since the last
    drain — merges into a parent; each test's first drain plays the
    worker-start hook, dropping the counts a worker inherits."""

    def test_counter_round_trip(self):
        a = MetricsRegistry()
        c = a.counter("repro_x_total", "x")
        c.inc(3, kind="a")
        a.drain()
        c.inc(2, kind="a")
        c.inc(5, kind="b")
        delta = a.drain()
        b = MetricsRegistry()
        b.counter("repro_x_total", "x").inc(10, kind="a")
        b.merge(delta)
        assert b.counter("repro_x_total").value(kind="a") == 12
        assert b.counter("repro_x_total").value(kind="b") == 5
        # the hand-over emptied the worker side
        assert c.total() == 0
        assert a.drain() == {}

    def test_zero_deltas_are_dropped(self):
        a = MetricsRegistry()
        a.counter("repro_x_total").inc()
        a.gauge("repro_g").set(4)
        a.histogram("repro_h_seconds").observe(0.5)
        a.drain()
        assert a.drain() == {}
        a.gauge("repro_g").set(4)
        a.histogram("repro_h_seconds")
        assert a.drain() == {}

    def test_histogram_round_trip(self):
        a = MetricsRegistry()
        h = a.histogram("repro_h_seconds", "h", buckets=(1.0, 10.0))
        h.observe(0.5)
        a.drain()
        h.observe(5.0)
        delta = a.drain()
        b = MetricsRegistry()
        b.merge(delta)
        merged = b.histogram("repro_h_seconds")
        assert merged.count() == 1
        assert merged.sum() == 5.0
        assert merged.buckets == (1.0, 10.0)
        assert delta["repro_h_seconds"]["counts"] == [0, 1, 0]

    def test_merge_creates_missing_metrics(self):
        a = MetricsRegistry()
        a.counter("repro_x_total", "x").inc(7)
        b = MetricsRegistry()
        b.merge(a.export())
        assert b.counter("repro_x_total").value() == 7
        assert b.counter("repro_x_total").help == "x"

    def test_gauge_delta_adds(self):
        a = MetricsRegistry()
        g = a.gauge("repro_g")
        g.set(2)
        a.drain()
        g.set(5)
        delta = a.drain()
        b = MetricsRegistry()
        b.gauge("repro_g").set(10)
        b.merge(delta)
        assert b.gauge("repro_g").value() == 13
        # a gauge hands over its change and keeps its level
        assert g.value() == 5


# -- the export/delta arithmetic drain() replaced, kept as a reference --

def _reference_subtract(before, after):
    kind = after["kind"]
    if kind == "counter":
        base = {tuple(map(tuple, k)): v for k, v in before["values"]}
        values = [[k, v - base.get(tuple(map(tuple, k)), 0)]
                  for k, v in after["values"]]
        return {"kind": kind, "help": after["help"],
                "values": [[k, d] for k, d in values if d]}
    if kind == "gauge":
        return {"kind": kind, "help": after["help"],
                "value": float(after["value"]) - float(before["value"])}
    return {"kind": kind, "help": after["help"],
            "buckets": list(after["buckets"]),
            "counts": [a - b for a, b in zip(after["counts"],
                                             before["counts"])],
            "sum": float(after["sum"]) - float(before["sum"]),
            "count": int(after["count"]) - int(before["count"])}


def _reference_is_zero(diff):
    if diff["kind"] == "counter":
        return not diff["values"]
    if diff["kind"] == "gauge":
        return not diff["value"]
    return not diff["count"] and not diff["sum"]


def _reference_delta(before, after):
    out = {}
    for name, exported in after.items():
        prev = before.get(name)
        diff = dict(exported) if prev is None \
            else _reference_subtract(prev, exported)
        if not _reference_is_zero(diff):
            out[name] = diff
    return out


_COUNTERS = ("repro_p_total", "repro_q_total")
_GAUGES = ("repro_p_level", "repro_q_level")
_HISTOGRAMS = ("repro_p_seconds",)

#: observations are multiples of 1/64, so sums are exact in either order
_OPS = st.one_of(
    st.tuples(st.just("inc"), st.sampled_from(_COUNTERS),
              st.sampled_from(("", "a", "b")), st.integers(0, 5)),
    st.tuples(st.sampled_from(("g-inc", "g-dec", "g-set")),
              st.sampled_from(_GAUGES), st.just(""), st.integers(-3, 5)),
    st.tuples(st.just("observe"), st.sampled_from(_HISTOGRAMS),
              st.just(""), st.integers(0, 2000).map(lambda n: n / 64)),
    st.tuples(st.just("cut"), st.just(""), st.just(""), st.just(0)))


def _apply(registry, op):
    kind, name, label, amount = op
    if kind == "inc":
        registry.counter(name).inc(amount, **({"kind": label}
                                              if label else {}))
    elif kind == "observe":
        registry.histogram(name, buckets=(0.5, 4.0, 16.0)).observe(amount)
    elif kind != "cut":
        gauge = registry.gauge(name)
        {"g-inc": gauge.inc, "g-dec": gauge.dec,
         "g-set": gauge.set}[kind](amount)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_OPS, max_size=60))
def test_drain_matches_reference_delta(ops):
    """Ops before the first cut are the parent's state when it forks a
    worker (which inherits it); each later cut ends a task the worker
    runs.  Merging each task's ``drain()`` leaves the parent exactly
    where merging the delta of two exports did, after every task."""
    tasks = [[]]
    for op in ops:
        if op[0] == "cut":
            tasks.append([])
        else:
            tasks[-1].append(op)
    reference, drained, parent_ref, parent_drain = (
        MetricsRegistry() for _ in range(4))
    for registry in (reference, drained, parent_ref, parent_drain):
        for op in tasks[0]:
            _apply(registry, op)
    before = reference.export()
    drained.drain()  # the worker-start hook
    for task in tasks[1:]:
        for op in task:
            _apply(reference, op)
            _apply(drained, op)
        after = reference.export()
        parent_ref.merge(_reference_delta(before, after))
        before = after
        parent_drain.merge(drained.drain())
        assert parent_drain.export() == parent_ref.export()


class TestThreadConcurrency:
    def test_many_threads_one_counter(self, registry):
        c = obs_metrics.counter("repro_thread_total")
        n_threads, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                c.inc(shard="x")

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value(shard="x") == n_threads * per_thread

    def test_concurrent_registration_yields_one_metric(self, registry):
        results = []
        barrier = threading.Barrier(6)

        def register():
            barrier.wait()
            results.append(obs_metrics.counter("repro_race_total"))

        threads = [threading.Thread(target=register) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)


def _observed_square(task):
    obs_metrics.counter("repro_obs_test_total",
                        "per-task increments").inc(task)
    obs_metrics.histogram("repro_obs_test_seconds").observe(0.001)
    return task * task


class TestWorkerPoolMerge:
    """Worker-side observations land in the parent default registry with
    the same values for any worker count, and a forked worker never
    ships back the counts it inherited from its parent."""

    def _run(self, jobs, inherited=0):
        fresh = MetricsRegistry()
        if inherited:
            # the parent's own counts, present before the pool forks
            fresh.counter("repro_obs_test_total").inc(inherited)
            fresh.histogram("repro_obs_test_seconds").observe(0.5)
        previous = obs_metrics.set_registry(fresh)
        try:
            results = run_tasks(_observed_square, list(range(1, 9)),
                                jobs=jobs)
        finally:
            obs_metrics.set_registry(previous)
        return results, fresh

    def test_serial_counts(self):
        results, registry = self._run(jobs=1)
        assert results == [i * i for i in range(1, 9)]
        assert registry.counter("repro_obs_test_total").total() == 36
        assert registry.histogram("repro_obs_test_seconds").count() == 8

    def test_process_pool_counts_match_serial(self):
        for inherited in (0, 100):
            try:
                results, registry = self._run(jobs=2, inherited=inherited)
            except (OSError, PermissionError):
                pytest.skip("sandbox cannot start worker processes")
            assert results == [i * i for i in range(1, 9)]
            assert registry.counter("repro_obs_test_total").total() \
                == inherited + 36
            assert registry.histogram("repro_obs_test_seconds").count() \
                == (1 if inherited else 0) + 8
            # the executor's own accounting rode along
            assert registry.counter("repro_executor_tasks_total").total() \
                == 8
            assert registry.histogram(
                "repro_executor_task_seconds").count() == 8

    def test_worker_pool_worker_drops_inherited_counts(self, registry):
        """A ``WorkerPool`` worker forked after the parent merged earlier
        jobs (and holding its own counts) hands back only its task's."""
        registry.counter("repro_obs_test_total").inc(100)
        pool = WorkerPool(workers=1, inline=False)
        try:
            for task in (1, 2, 3):
                if task == 2:
                    pool.shutdown()  # task 2's worker forks after a merge
                result, metrics = pool.run(observed(_observed_square), task)
                assert result == task * task
                registry.merge(metrics)
        finally:
            pool.shutdown()
        assert registry.counter("repro_obs_test_total").total() == 106
        assert registry.histogram("repro_obs_test_seconds").count() == 3
        assert registry.histogram(
            "repro_executor_task_seconds").count() == 3
