"""``service`` — jobs through the daemon, reads beside writes.

A ``python -m repro serve --jobs 1`` child on an ephemeral port; one
closed-loop client (each call waits for its reply, one fresh connection
per call, as ``ServiceClient`` does).  A pass is a fixed script of 377
``submit(wait=True)`` calls: 200 distinct ``probe/echo`` jobs (control
plane only), then 59 executing jobs (36 ``benchmark`` payloads and the 23
corpus files as ``parallelize`` payloads) that carry a per-pass no-op
``tag`` so they miss and write the result cache, then the same 59 twice
more, which hit it.  The median op is a control-plane op, the p90 op an
executing job.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Tuple

from repro.cluster.loadtest import VOLATILE_RESULT_KEYS
from repro.experiments.pipeline import CONFIGS
from repro.perfect.suite import benchmark_names
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.execution import execute_payload
from repro.service.jobs import payload_digest

from .. import expected
from ..procs import Server
from ..timing import Clock, PassTiming
from ..workload import Workload
from .parallelize import corpus_inputs

PROBES = 200
HITS_PER_PASS = 118
MISSES_PER_PASS = 259
#: counters of the daemon's ``metrics`` op, by per-layer metric name
SERVER_COUNTERS = {
    "service.cache_hits": "repro_cache_hits_total",
    "service.cache_misses": "repro_cache_misses_total",
    "service.jobs_retried": "repro_jobs_retried_total",
    "service.jobs_rejected": "repro_jobs_rejected_total",
}


def executing_payloads() -> Dict[str, Dict[str, Any]]:
    """The 59 payloads that run the pipeline, by reference key."""
    payloads: Dict[str, Dict[str, Any]] = {}
    for name in benchmark_names():
        for kind in CONFIGS:
            payloads[f"benchmark/{name}/{kind}"] = {
                "kind": "benchmark", "benchmark": name, "config": kind}
    for op_id, sources in corpus_inputs().items():
        payloads[f"parallelize/{op_id.split('/', 1)[1]}"] = {
            "kind": "parallelize", "sources": sources}
    return payloads


def comparable(result: Any) -> Any:
    if not isinstance(result, dict):
        return result
    return {k: v for k, v in result.items()
            if k not in VOLATILE_RESULT_KEYS}


def summarize(result: Dict[str, Any]) -> Dict[str, Any]:
    """What an executing job's result is checked on, beside the byte
    comparison with the local reference."""
    return {"parallel_count": result.get("parallel_count"),
            "code_lines": result.get("code_lines"),
            "output_sha256": expected.sha256_text(result.get("output", ""))}


class Service(Workload):
    name = "service"
    ops_per_pass = PROBES + 3 * 59
    server = None

    def prepare(self) -> None:
        self.payloads = executing_payloads()
        if PROBES + 3 * len(self.payloads) != self.ops_per_pass:
            raise RuntimeError(f"{len(self.payloads)} executing payloads")
        reference = expected.load(self.name, self.expected_dir)["jobs"]
        self.expected: Dict[str, Any] = {}
        #: what ``execute_payload`` answers locally, volatile keys dropped
        self.local: Dict[str, Any] = {}
        t0 = perf_counter()
        for key, payload in self.payloads.items():
            entry = reference.get(key)
            unchanged = entry and entry["input_sha256"] == \
                payload_digest(payload)
            self.expected[key] = entry["summary"] if unchanged else None
            self.local[key] = comparable(execute_payload(dict(payload)))
        self.verify_s += perf_counter() - t0
        self.server = Server(["serve", "--jobs", "1"], self.out_dir,
                             "daemon")
        self.client = ServiceClient(self.server.host, self.server.port)
        self._server_s: List[float] = []
        self._messages: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []

    def close(self) -> None:
        if self.server is not None:
            self.server.stop(self.client.shutdown)

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    # -- one pass -------------------------------------------------------
    def script(self, index: int) -> List[Tuple[str, str, Dict[str, Any]]]:
        """``(op id, reference key or '', payload)`` in execution order."""
        tag = f"{self.seed}/{index}"
        ops = [(f"probe/{i:03d}", "",
                {"kind": "probe", "probe": "echo", "value": f"{tag}/{i}"})
               for i in range(PROBES)]
        keys = sorted(self.payloads)
        self.rng(index).shuffle(keys)
        for cls in ("miss", "hit1", "hit2"):
            ops.extend((f"{cls}/{key}", key, {**self.payloads[key],
                                              "tag": tag})
                       for key in keys)
        return ops

    def run_pass(self, index: int, clock: Clock) -> None:
        self._pass(self.client, index, clock)

    def run_pass_staged(self, index: int, clock: Clock) -> None:
        self._server_s = []
        self._messages = []
        cpu0 = self.server.cpu_s()
        self._pass(self.client, index, clock, staged=True)
        self.report_s("service.daemon_cpu_s", self.server.cpu_s() - cpu0)
        # what framing and digesting this pass's own messages costs,
        # re-done in this process
        t0 = perf_counter()
        for request, response in self._messages:
            protocol.decode_body(protocol.encode(request)[4:])
            protocol.decode_body(protocol.encode(response)[4:])
        t1 = perf_counter()
        for request, _response in self._messages:
            payload_digest(request["payload"])
        self.report_s("service.codec_s", t1 - t0)
        self.report_s("service.digest_s", perf_counter() - t1)

    def _pass(self, client: ServiceClient, index: int, clock: Clock,
              staged: bool = False) -> None:
        before = client.metrics()["metrics"]
        for op_id, key, payload in self.script(index):
            def op():
                with clock.span("service.rtt"):
                    return client.submit(payload, wait=True)
            response = self.attempt(clock, op_id, op)
            if response is None:
                continue
            if staged:
                self._server_s.append(response.get("latency") or 0.0)
                self._messages.append(
                    ({"op": "submit", "payload": payload, "wait": True},
                     response))
            self._check(op_id, key, payload, response)
        after = client.metrics()["metrics"]
        for name, counter in SERVER_COUNTERS.items():
            self.counts[name] = after.get(counter, 0) - before.get(counter, 0)
        if (self.counts["service.cache_hits"],
                self.counts["service.cache_misses"]) != (HITS_PER_PASS,
                                                         MISSES_PER_PASS):
            self.fail("script", f"cache hits/misses "
                      f"{self.counts['service.cache_hits']}/"
                      f"{self.counts['service.cache_misses']}, expected "
                      f"{HITS_PER_PASS}/{MISSES_PER_PASS}")

    def _check(self, op_id: str, key: str, payload: Dict[str, Any],
               response: Dict[str, Any]) -> None:
        result = response.get("result")
        if response.get("state") != "done":
            self.fail(op_id, f"finished as {response.get('state')!r}")
        elif response.get("cached") != op_id.startswith("hit"):
            self.fail(op_id, f"cached={response.get('cached')!r}")
        elif not key:
            self.expect(op_id, result, {"echo": payload["value"]})
        elif comparable(result) != self.local[key]:
            self.fail(op_id, "differs from the local execute_payload")
        else:
            self.expect(op_id, summarize(result), self.expected[key])

    def pass_metrics(self, timing: PassTiming) -> Dict[str, float]:
        out = super().pass_metrics(timing)
        out.update(rtt_p50s("service", timing))
        rtt_s = [raw for _op, raw, _norm in timing.ops]
        out["service.server_ms_p50"] = \
            median(self._server_s) * timing.scale * 1e3
        out["service.wire_ms_p50"] = median(
            rtt - server for rtt, server in zip(rtt_s, self._server_s)
        ) * timing.scale * 1e3
        return out

    def extras(self) -> Dict[str, float]:
        """The same script, three passes, against a single-process
        cluster gateway (the other implementation of the same ops)."""
        gateway = Server(["cluster", "gateway", "--local-workers", "1",
                          "--inline"], self.out_dir, "gateway")
        client = ServiceClient(gateway.host, gateway.port)
        per_pass: List[Dict[str, float]] = []
        try:
            for index in range(3):
                clock = Clock()
                clock.begin_pass()
                self._pass(client, 2000 + index, clock)
                per_pass.append(rtt_p50s("cluster", clock.end_pass()))
        finally:
            gateway.stop(client.shutdown)
        out = {name: median(p[name] for p in per_pass)
               for name in per_pass[0]}
        out["cluster.start_s"] = gateway.start_s
        out["service.start_s"] = self.server.start_s
        return out


def rtt_p50s(prefix: str, timing: PassTiming) -> Dict[str, float]:
    """Median normalised round trip per op class, in milliseconds."""
    classes: Dict[str, List[float]] = {"probe": [], "hit": [], "miss": []}
    for op_id, _raw, norm in timing.ops:
        classes[op_id.split("/", 1)[0].rstrip("12")].append(norm)
    return {f"{prefix}.rtt_{cls}_ms_p50": median(values) * 1e3
            for cls, values in classes.items() if values}


def reference(table2_ref: Dict[str, Any], parallelize_ref: Dict[str, Any]
              ) -> Dict[str, Any]:
    """The references of the executing jobs, taken from the cross-checked
    ``table2`` and ``parallelize`` references — never from the daemon."""
    jobs = {}
    for key, payload in executing_payloads().items():
        kind, rest = key.split("/", 1)
        if kind == "benchmark":
            name, config = rest.split("/")
            entry = table2_ref["inputs"][name]["configs"][config]
            summary = {"parallel_count": len(entry["parallel_origins"]),
                       "code_lines": entry["code_lines"],
                       "output_sha256": entry["output_sha256"]}
        else:
            entry = parallelize_ref["inputs"][f"corpus/{rest}"]["summary"]
            summary = {k: entry[k] for k in ("parallel_count", "code_lines",
                                             "output_sha256")}
        jobs[key] = {"input_sha256": payload_digest(payload),
                     "summary": summary}
    return {"workload": "service", "jobs": jobs}
