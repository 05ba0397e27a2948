"""Experiment execution backed by the service/cluster tier.

:func:`table2_rows_via_service` assembles Table II from *service
submissions* instead of an in-process executor pool: every
``(benchmark, configuration)`` pipeline run becomes one ``submit``
against a daemon or cluster gateway, results stream back as jobs
finish, and the rows are assembled with the exact same
:func:`~repro.experiments.table2._assemble_row` logic — so the rendered
table is byte-identical to a local run while the work fans out across
however many worker nodes the cluster has (and repeat runs are answered
straight from the shard cache).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.pipeline import CONFIGS
from repro.experiments.table2 import (ConfigOutcome, Table2Row,
                                      _assemble_row)
from repro.obs import logging as obs_logging
from repro.perfect import all_benchmarks
from repro.perfect.suite import Benchmark
from repro.service.client import DEFAULT_PORT, ServiceClient, ServiceError

_log = obs_logging.get_logger("repro.cluster.backend")


def _outcome_from_summary(kind: str, summary: Dict) -> ConfigOutcome:
    """A worker's JSON result summary, reshaped into the picklable
    per-config outcome row assembly expects."""
    return ConfigOutcome(
        kind=kind,
        origins=frozenset(summary.get("parallel_origins", ())),
        code_lines=int(summary.get("code_lines", 0)),
        timings=dict(summary.get("timings", {})),
    )


def table2_rows_via_service(host: str = "127.0.0.1",
                            port: int = DEFAULT_PORT,
                            benchmarks: Optional[List[Benchmark]] = None,
                            wait_timeout: Optional[float] = 600.0,
                            annotations: str = "hand") -> List[Table2Row]:
    """Table II rows computed by the service (see module docstring).

    Submits every ``(benchmark, config)`` job up front (the service
    dedups and fans them across its workers), then collects results in
    deterministic benchmark-major/config-minor order.  Raises
    :class:`ServiceError` when the service is unreachable or a job ends
    in a non-``done`` state.
    """
    benchmarks = benchmarks if benchmarks is not None else all_benchmarks()
    with ServiceClient(host, port) as client:
        submitted = []  # (benchmark name, config kind, job id)
        for benchmark in benchmarks:
            for kind in CONFIGS:
                payload = {"kind": "benchmark", "benchmark": benchmark.name,
                           "config": kind}
                if annotations != "hand":
                    payload["annotations_mode"] = annotations
                response = client.submit(payload, wait=False)
                submitted.append((benchmark.name, kind, response["job_id"]))
        _log.info("table2-submitted", jobs=len(submitted),
                  service=f"{host}:{port}")

        outcomes: Dict[str, List[ConfigOutcome]] = {b.name: []
                                                    for b in benchmarks}
        for name, kind, job_id in submitted:
            response = client.result(job_id, wait=True,
                                     wait_timeout=wait_timeout)
            state = response.get("state")
            if state != "done" or "result" not in response:
                raise ServiceError(
                    f"table2 job {job_id} ({name}/{kind}) ended as "
                    f"{state}: {response.get('error', '')}",
                    code=str(state))
            outcomes[name].append(
                _outcome_from_summary(kind, response["result"]))
    return [_assemble_row(b.name, outcomes[b.name]) for b in benchmarks]
