"""Command-line interface.

::

    python -m repro parallelize in.f [in2.f ...] [--annotations a.ann]
                                [--config annotation] [--output out.f]
    python -m repro report      in.f ... [--annotations a.ann]
    python -m repro run         in.f ... [--machine intel-mac] [--inputs 1 2]
    python -m repro verify      in.f ... --annotations a.ann
    python -m repro generate    in.f ...           # derive annotations
    python -m repro check       in.f ... --annotations a.ann  # soundness
    python -m repro table1 | table2 | figure20     # paper artifacts
    python -m repro ablation                       # hand/inferred/demand
    python -m repro bench NAME                     # one PERFECT substitute
    python -m repro serve [--port N] [-j N]        # parallelization daemon
    python -m repro submit NAME|file.f ...         # run a job on the daemon
    python -m repro svc-status [--metrics]         # daemon health/metrics
    python -m repro cluster gateway|shard|worker   # distributed tier
    python -m repro loadtest [--sessions N]        # concurrent-session replay

``parallelize`` runs the paper's full Figure-15 pipeline and writes (or
prints) the optimized source: the original program plus OpenMP
directives.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Dict, Optional, Sequence

if TYPE_CHECKING:
    from repro.program import Program

_MACHINES = {"intel-mac": None, "amd-opteron": None, "serial": None}


def _print_profile(runs, cprofile_text: str = "") -> None:
    """The ``--profile`` report summed over ``runs``: reports, Table II
    rows, Figure 20 cells — anything with per-phase ``timings`` (and
    perhaps ``test_stats``)."""
    from repro.obs.profile import merge_test_stats, render_profile_report
    from repro.polaris.report import merge_timings
    timings: Dict[str, float] = {}
    test_stats: Dict[str, int] = {}
    for run in runs:
        merge_timings(timings, run.timings)
        merge_test_stats(test_stats, getattr(run, "test_stats", {}))
    print(render_profile_report(timings, test_stats, cprofile_text),
          file=sys.stderr)


def _maybe_cprofile(args, fn, *fn_args, **fn_kwargs):
    """Run ``fn`` under cProfile when ``--profile-top N`` was given;
    returns ``(result, top-N text or "")``."""
    top = getattr(args, "profile_top", None)
    if top:
        from repro.obs.profile import profile_call
        return profile_call(fn, *fn_args, top=top, **fn_kwargs)
    return fn(*fn_args, **fn_kwargs), ""


def _read_sources(paths: Sequence[str]) -> Dict[str, str]:
    sources: Dict[str, str] = {}
    for path in paths:
        with open(path) as fh:
            sources[path] = fh.read()
    return sources


def _load_program(paths: Sequence[str]) -> Program:
    from repro.program import Program
    return Program.from_sources(_read_sources(paths))


def _read_annotations(path: Optional[str]) -> str:
    if not path:
        return ""
    with open(path) as fh:
        return fh.read()


def _load_registry(path: Optional[str]):
    from repro.annotations import AnnotationRegistry
    return AnnotationRegistry.from_text(_read_annotations(path))


def _machine(name: str):
    from repro.runtime.machine import AMD_OPTERON, INTEL_MAC
    return {"intel-mac": INTEL_MAC, "amd-opteron": AMD_OPTERON,
            "serial": None}[name]


def _make_tracer(args):
    """A live tracer when ``--trace FILE`` was given, else None."""
    if not getattr(args, "trace", None):
        return None
    from repro.trace import Tracer
    return Tracer(label=f"repro {args.command}")


def _write_trace(tracer, path: str) -> None:
    """Write the Chrome trace-event JSON plus the sibling JSONL decision
    log (``out.json`` -> ``out.decisions.jsonl``)."""
    import os
    from repro.trace import write_chrome, write_decisions_jsonl
    write_chrome(tracer, path)
    decisions_path = os.path.splitext(path)[0] + ".decisions.jsonl"
    write_decisions_jsonl(tracer.decisions, decisions_path)
    print(f"trace: {path} ({len(tracer.spans())} events); "
          f"decisions: {decisions_path} ({len(tracer.decisions)} loops)",
          file=sys.stderr)


def _select_benchmarks(args):
    """Benchmark objects for ``--benchmarks``, or None (= the full suite)."""
    names = getattr(args, "benchmarks", None)
    if not names:
        return None
    from repro.perfect import get_benchmark
    return [get_benchmark(name) for name in names]


def _parallelize_files(args, tolerant: bool = False,
                       infer_by_default: bool = False):
    """The Figure-15 pipeline over ``args.files`` (under cProfile when
    ``--profile-top`` asks): ``(result, diagnostics, cProfile text)``."""
    from repro.fortran.fixedform.pipeline import parallelize_files
    annotations = _read_annotations(args.annotations)
    mode = args.annotations_mode
    if infer_by_default and mode == "hand" and not annotations:
        # nothing hand-written to apply: infer annotations from callee
        # bodies, the right default for arbitrary ingested programs
        mode = "inferred"
    (result, diagnostics), cprofile_text = _maybe_cprofile(
        args, parallelize_files, _read_sources(args.files), args.config,
        mode, annotations, tolerant)
    return result, diagnostics, cprofile_text


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_parallelize(args) -> int:
    """``repro parallelize``: strict by default; ``--tolerant`` ingests
    real-world ``.f`` files via the tolerant fixed-form frontend
    (:mod:`repro.fortran.fixedform`)."""
    result, diagnostics, cprofile_text = _parallelize_files(
        args, args.tolerant, args.tolerant or args.json)
    report = result.report
    if args.json:
        import json
        from repro.fortran.fixedform.pipeline import render_result
        print(json.dumps(render_result(result, diagnostics),
                         indent=2, sort_keys=True))
    else:
        from repro.fortran.fixedform import Diagnostic
        for d in diagnostics:
            print(Diagnostic.from_dict(d).describe(), file=sys.stderr)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(result.output)
            recovered = (f", {len(diagnostics)} diagnostics"
                         if args.tolerant else "")
            print(f"wrote {args.output} "
                  f"({report.parallel_count()} loops parallelized"
                  f"{recovered})")
        else:
            print(result.output, end="")
        if args.explain:
            for d in report.verdicts:
                print(d.describe(), file=sys.stderr)
    if args.profile or cprofile_text:
        _print_profile([report], cprofile_text)
    return 0


def cmd_report(args) -> int:
    if args.out:
        return _cmd_report_dashboard(args)
    if not args.files:
        print("repro report: needs source files (or --out FILE for the "
              "HTML dashboard)", file=sys.stderr)
        return 2
    result, _, cprofile_text = _parallelize_files(args)
    report = result.report
    if args.profile or cprofile_text:
        _print_profile([report], cprofile_text)
    print(report.describe())
    print(f"\n{report.parallel_count()} loops parallelized")
    reasons = report.reasons_histogram()
    if reasons:
        print("serial loops by reason:",
              ", ".join(f"{k}={v}" for k, v in sorted(reasons.items())))
    return 0


def _cmd_report_dashboard(args) -> int:
    from repro.obs.dashboard import (CountMismatchError, collect,
                                     write_dashboard)
    try:
        data = collect(benchmarks=args.benchmarks, jobs=args.jobs,
                       include_figure20=args.figure20,
                       history_path=args.history)
    except CountMismatchError as exc:
        print(f"repro report: count verification failed: {exc}",
              file=sys.stderr)
        return 1
    write_dashboard(args.out, data)
    print(f"wrote {args.out} ({len(data.rows)} benchmarks, "
          f"{len(data.decisions)} loop decisions)")
    return 0


def cmd_run(args) -> int:
    from repro.runtime.backend import make_interpreter
    from repro.runtime.machine import price
    program = _load_program(args.files)
    machine = _machine(args.machine)
    interp = make_interpreter(program, honor_directives=machine is not None,
                              inputs=[float(x) for x in args.inputs])
    result = interp.run()
    for line in result.output:
        print(line)
    if result.stop_message:
        print(f"STOP '{result.stop_message}'", file=sys.stderr)
    cost = result.cost if machine is None \
        else price(result.regions, machine)[0]
    print(f"[simulated cost: {cost:.0f} work units"
          + (f" on {args.machine}" if machine else " (serial)") + "]",
          file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    from repro.runtime.difftest import diff_test
    run, _, _ = _parallelize_files(args)
    result = diff_test(run.program, inputs=[float(x) for x in args.inputs])
    print(f"{run.report.parallel_count()} loops parallelized; "
          f"verification: {result.explain()}")
    return 0 if result.passed else 1


def cmd_generate(args) -> int:
    from repro.annotations.generate import generate_all, render_annotation
    program = _load_program(args.files)
    results = generate_all(program)
    failures = 0
    for name, res in results.items():
        if res.ok:
            print(f"# {name}: derived automatically"
                  + (f" ({res.omitted_error_checks} error-handling "
                     f"conditionals omitted)" if res.omitted_error_checks
                     else ""))
            print(render_annotation(res.annotation))
            print()
        else:
            failures += 1
            print(f"# {name}: NOT derivable — {res.reason}")
    return 0 if failures == 0 else 2


def cmd_check(args) -> int:
    from repro.annotations.soundness import check_registry
    program = _load_program(args.files)
    registry = _load_registry(args.annotations)
    reports = check_registry(program, registry)
    bad = 0
    for name, rep in sorted(reports.items()):
        status = "SOUND" if rep.sound else "UNSOUND"
        print(f"{name}: {status}")
        for v in rep.violations:
            bad += 1
            print(f"  violation: {v}")
        for w in rep.warnings:
            print(f"  warning:   {w}")
    return 0 if bad == 0 else 1


def cmd_diagnose(args) -> int:
    from repro.pipeline import Config, parallelize_program
    from repro.polaris.explain import describe, rank
    report = parallelize_program(_load_program(args.files),
                                 Config("none")).report
    for decision in rank(report.verdicts):
        if args.all or not decision.parallelized:
            print(describe(decision))
    return 0


def cmd_table1(args) -> int:
    from repro.experiments.table1 import render_table1
    tracer = _make_tracer(args)
    print(render_table1(jobs=args.jobs, tracer=tracer))
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 0


def cmd_table2(args) -> int:
    from repro.experiments.table2 import render_table2, table2_rows
    if getattr(args, "service", None):
        from repro.cluster.backend import table2_rows_via_service
        from repro.cluster.shardcache import parse_shard_spec
        from repro.service.client import ServiceError
        try:
            host, port = parse_shard_spec(args.service)
            rows = table2_rows_via_service(
                host, port, benchmarks=_select_benchmarks(args),
                annotations=getattr(args, "annotations_mode", "hand"))
        except (ValueError, ServiceError) as exc:
            print(f"repro table2: service error: {exc}", file=sys.stderr)
            return 2
        print(render_table2(rows))
        return 0
    tracer = _make_tracer(args)
    rows, cprofile_text = _maybe_cprofile(
        args, table2_rows, jobs=args.jobs,
        benchmarks=_select_benchmarks(args), tracer=tracer,
        annotations=getattr(args, "annotations_mode", "hand"))
    print(render_table2(rows))
    if args.profile or cprofile_text:
        _print_profile(rows, cprofile_text)
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 0


def cmd_ablation(args) -> int:
    from repro.experiments.ablation import ablation_rows, render_ablation
    tracer = _make_tracer(args)
    rows = ablation_rows(jobs=args.jobs,
                         benchmarks=_select_benchmarks(args),
                         tracer=tracer)
    print(render_ablation(rows))
    if tracer is not None:
        _write_trace(tracer, args.trace)
    flips = sum(r.flips() for r in rows)
    if flips:
        print(f"repro ablation: UNSOUND — inference flipped {flips} "
              f"loop verdict{'s' if flips != 1 else ''}",
              file=sys.stderr)
        return 1
    return 0


def cmd_figure20(args) -> int:
    from repro.experiments.figure20 import figure20_all, render_figure20
    tracer = _make_tracer(args)
    cells, cprofile_text = _maybe_cprofile(
        args, figure20_all, jobs=args.jobs,
        benchmarks=_select_benchmarks(args), tracer=tracer)
    print(render_figure20(cells))
    if args.profile or cprofile_text:
        _print_profile(cells, cprofile_text)
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 0


def cmd_bench(args) -> int:
    from repro.experiments.figure20 import figure20_cells, render_figure20
    from repro.experiments.table2 import render_table2, table2_row
    from repro.perfect import get_benchmark
    bench = get_benchmark(args.name)
    tracer = _make_tracer(args)
    row, cprofile_text = _maybe_cprofile(
        args, table2_row, bench, tracer=tracer,
        annotations=getattr(args, "annotations_mode", "hand"))
    print(render_table2([row]))
    print()
    cells = figure20_cells(bench, jobs=args.jobs, tracer=tracer)
    print(render_figure20(cells))
    if args.profile or cprofile_text:
        _print_profile([row, *cells], cprofile_text)
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 0


def _drain_on_sigterm(stop_fn, what: str) -> None:
    """SIGTERM = finish in-flight jobs, then exit (graceful drain).

    The handler hands the (possibly slow) drain to a thread so the
    signal context returns immediately; SIGINT keeps its fast-stop
    KeyboardInterrupt behavior.
    """
    import signal
    import threading

    def handler(signum, frame):
        print(f"{what}: SIGTERM received, draining", file=sys.stderr)
        threading.Thread(target=stop_fn, daemon=True).start()

    signal.signal(signal.SIGTERM, handler)


def _serve_until_stopped(server, what: str) -> int:
    """The CLI foreground of a started server: SIGTERM drains, Ctrl-C
    stops at once."""
    _drain_on_sigterm(lambda: server.stop(drain=True), what)
    try:
        server.wait()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
        server.stop()
    return 0


def cmd_serve(args) -> int:
    from repro.experiments.executor import resolve_jobs
    from repro.service.server import ParallelizationServer
    server = ParallelizationServer(
        host=args.host, port=args.port, jobs=resolve_jobs(args.jobs),
        queue_capacity=args.queue_capacity, cache_dir=args.cache_dir,
        default_deadline=args.default_deadline,
        max_retries=args.max_retries,
        drain_timeout=args.drain_timeout,
        telemetry_dir=args.telemetry_dir,
        run_id=args.run_id)
    host, port = server.start()
    print(f"repro service listening on {host}:{port} "
          f"({server.workers} worker{'s' if server.workers != 1 else ''}, "
          f"queue capacity {server.ledger.capacity})", flush=True)
    return _serve_until_stopped(server, "repro serve")


def cmd_cluster_gateway(args) -> int:
    from repro.cluster.shardcache import ShardedCache
    from repro.service.server import ParallelizationServer
    gateway = ParallelizationServer(
        host=args.host, port=args.port, tier="cluster",
        jobs=args.local_workers,
        shards=ShardedCache.from_specs(args.shard) if args.shard else None,
        queue_capacity=args.queue_capacity,
        cache_capacity=args.cache_capacity, cache_dir=args.cache_dir,
        default_deadline=args.default_deadline,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
        drain_timeout=args.drain_timeout,
        heartbeat_timeout=args.heartbeat_timeout,
        inline=True if args.inline else None,
        telemetry_dir=args.telemetry_dir,
        telemetry_interval=args.telemetry_interval,
        run_id=args.run_id)
    host, port = gateway.start()
    shards = len(gateway.cache.shard_names)
    print(f"repro cluster gateway listening on {host}:{port} "
          f"({shards} cache shard{'s' if shards != 1 else ''}, "
          f"{args.local_workers} local worker"
          f"{'s' if args.local_workers != 1 else ''})", flush=True)
    return _serve_until_stopped(gateway, "repro cluster gateway")


def cmd_cluster_shard(args) -> int:
    from repro.cluster.shardcache import CacheShardServer
    shard = CacheShardServer(host=args.host, port=args.port,
                             capacity=args.capacity,
                             directory=args.cache_dir,
                             max_bytes=args.max_bytes)
    host, port = shard.start()
    print(f"repro cache shard listening on {host}:{port} "
          f"(capacity {args.capacity})", flush=True)
    return _serve_until_stopped(shard, "repro cluster shard")


def cmd_cluster_worker(args) -> int:
    from repro.cluster.shardcache import parse_shard_spec
    from repro.cluster.workers import WorkerNode
    try:
        host, port = parse_shard_spec(args.gateway)
    except ValueError as exc:
        print(f"repro cluster worker: {exc}", file=sys.stderr)
        return 2
    node = WorkerNode(host, port, name=args.name,
                      threads=args.threads, jobs=args.jobs,
                      pull_wait=args.pull_wait,
                      heartbeat_interval=args.heartbeat_interval,
                      inline=True if args.inline else None)
    print(f"repro worker {node.name}: {args.threads} thread"
          f"{'s' if args.threads != 1 else ''} pulling from "
          f"{host}:{port}", flush=True)
    _drain_on_sigterm(node.stop, "repro cluster worker")
    try:
        node.run()
    except KeyboardInterrupt:
        node.stop()
        node.wait(timeout=10.0)
    return 0


def cmd_loadtest(args) -> int:
    import json
    from repro.cluster.loadtest import append_history, run_loadtest
    slo_spec = None
    if args.slo:
        from repro.obs.slo import load_slo_spec
        try:
            slo_spec = load_slo_spec(args.slo)
        except (OSError, ValueError) as exc:
            print(f"repro loadtest: bad SLO spec: {exc}", file=sys.stderr)
            return 2
    cluster = None
    host, port = args.host, args.port
    if args.spawn:
        import tempfile
        from repro.cluster.topology import LocalCluster
        cluster = LocalCluster(shards=args.spawn_shards,
                               workers=args.spawn_workers,
                               worker_threads=args.spawn_threads,
                               cache_dir=tempfile.mkdtemp(
                                   prefix="repro-loadtest-"))
        host, port = cluster.start()
        print(f"spawned localhost cluster: gateway {host}:{port}, "
              f"{args.spawn_shards} shards, {args.spawn_workers} workers",
              file=sys.stderr)
    try:
        report = run_loadtest(
            host, port, sessions=args.sessions,
            jobs_per_session=args.jobs_per_session,
            distinct=args.distinct, kind=args.kind,
            benchmark=args.benchmark,
            wait_timeout=args.wait_timeout,
            verify=not args.no_verify,
            trace=args.trace)
    finally:
        if cluster is not None:
            cluster.stop()
    evaluation = None
    if slo_spec is not None:
        from repro.obs.slo import evaluate_slo, measurements_from_loadtest
        evaluation = evaluate_slo(slo_spec,
                                  measurements_from_loadtest(report),
                                  source="loadtest")
        report["slo"] = evaluation
    if args.gate:
        append_history(report, path=args.history)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        lat = report["latency"]
        print(f"loadtest: {report['jobs']} jobs over "
              f"{report['sessions']} concurrent sessions in "
              f"{report['duration_seconds']}s "
              f"({report['throughput_jobs_per_sec']} jobs/s)")
        print(f"  latency: p50={lat['p50']}s p90={lat['p90']}s "
              f"p99={lat['p99']}s max={lat['max']}s")
        print(f"  outcomes: {report['outcomes']}  "
              f"deduped={report['deduped']} cached={report['cached']}")
        print(f"  lost={report['lost']} mismatches={report['mismatches']}"
              f" verified={report['verified']}")
        service = report.get("service", {})
        retried = service.get("repro_jobs_retried_total")
        steals = service.get("repro_cluster_steals_total")
        if retried is not None or steals is not None:
            print(f"  service: retries={retried} steals={steals}")
        if report.get("trace_id"):
            print(f"  trace: {report['trace_id']} "
                  f"(collect with `repro trace-collect`)")
        if evaluation is not None:
            from repro.obs.slo import render_slo
            print(render_slo(evaluation))
    if not report["ok"]:
        print("loadtest FAILED: jobs were lost or returned wrong "
              "results", file=sys.stderr)
        return 1
    if evaluation is not None and not evaluation["ok"]:
        print("loadtest SLO VIOLATED: "
              + ", ".join(evaluation["violations"]), file=sys.stderr)
        return 3
    return 0


def _submit_payload(args) -> dict:
    from repro.perfect.suite import benchmark_names
    names = {n.lower() for n in benchmark_names()}
    parallelize = getattr(args, "parallelize", False)
    if not parallelize and len(args.targets) == 1 \
            and args.targets[0].lower() in names:
        payload = {"kind": "benchmark",
                   "benchmark": args.targets[0].lower(),
                   "config": args.config}
    else:
        payload = {"kind": "parallelize" if parallelize else "sources",
                   "sources": _read_sources(args.targets),
                   "annotations": _read_annotations(args.annotations),
                   "config": args.config}
        if parallelize:
            payload["tolerant"] = True
    mode = getattr(args, "annotations_mode", "hand")
    if mode != "hand":
        payload["annotations_mode"] = mode
    return payload


def cmd_submit(args) -> int:
    import json
    from repro.service.client import ServiceClient, ServiceError
    try:
        payload = _submit_payload(args)
    except OSError as exc:
        print(f"repro submit: cannot read input: {exc}", file=sys.stderr)
        return 2
    try:
        with ServiceClient(host=args.host, port=args.port) as client:
            response = client.submit(payload,
                                     wait=not args.no_wait,
                                     deadline=args.timeout,
                                     wait_timeout=args.timeout)
    except ServiceError as exc:
        print(f"repro submit: error ({exc.code}): {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0 if response.get("state") in (None, "done", "queued",
                                              "running") else 1
    state = response.get("state")
    origin = "cache" if response.get("cached") else \
        "deduplicated" if response.get("deduped") else "fresh run"
    print(f"job {response.get('job_id')}: {state} ({origin})")
    result = response.get("result")
    if result:
        print(f"  config={result['config']} "
              f"parallel={result['parallel_count']} "
              f"lines={result['code_lines']}")
        if result.get("diagnostics"):
            print(f"  diagnostics={len(result['diagnostics'])}")
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(result["output"])
            print(f"  wrote {args.output}")
    elif state not in ("done", "queued", "running"):
        print(f"  error: {response.get('error')}", file=sys.stderr)
        return 1
    return 0


def cmd_fuzz(args) -> int:
    from repro.fuzz import run_campaign
    from repro.fuzz.generator import GeneratorOptions
    tracer = _make_tracer(args)
    result = run_campaign(seed=args.seed, count=args.count,
                          time_budget=args.time_budget, jobs=args.jobs,
                          tracer=tracer, corpus_dir=args.corpus_dir,
                          options=GeneratorOptions(dialect=args.dialect),
                          do_shrink=not args.no_shrink,
                          progress=(print if args.verbose else None))
    stats = result.stats
    print(f"fuzz campaign (seed {args.seed}): {stats.summary()}")
    if stats.parallel_loops:
        loops = ", ".join(f"{k}={v}" for k, v in
                          sorted(stats.parallel_loops.items()))
        print(f"  parallel loops: {loops}")
    if stats.features:
        top = ", ".join(f"{name} x{n}" for name, n in
                        stats.features.most_common(8))
        print(f"  features: {top}")
    for failure in result.failures:
        print(f"  FAIL {failure.describe()}", file=sys.stderr)
        if failure.corpus_path:
            print(f"       repro saved: {failure.corpus_path}",
                  file=sys.stderr)
        if args.verbose and failure.shrunk is not None:
            print(failure.shrunk.source_text(), file=sys.stderr)
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 0 if result.ok else 1


def cmd_svc_status(args) -> int:
    import json
    from repro.service.client import ServiceClient, ServiceError
    try:
        with ServiceClient(host=args.host, port=args.port) as client:
            if args.prometheus:
                print(client.metrics(format="prometheus")["text"], end="")
                return 0
            health = client.health()
            if args.metrics:
                health = dict(health)
                health["metrics"] = client.metrics()["metrics"]
        print(json.dumps(health, indent=2, sort_keys=True))
        return 0
    except ServiceError as exc:
        print(f"repro svc-status: error ({exc.code}): {exc}",
              file=sys.stderr)
        return 2


def cmd_top(args) -> int:
    from repro.obs.top import run_top
    slo_spec = None
    if args.slo:
        from repro.obs.slo import load_slo_spec
        try:
            slo_spec = load_slo_spec(args.slo)
        except (OSError, ValueError) as exc:
            print(f"repro top: bad SLO spec: {exc}", file=sys.stderr)
            return 2
    return run_top(args.host, args.port, interval=args.interval,
                   iterations=1 if args.once else None, slo_spec=slo_spec)


def cmd_trace_collect(args) -> int:
    import json
    from repro.obs.distributed import ClockModel
    from repro.trace.chrome import stitch_spans, validate_chrome_trace

    if args.telemetry_dir:
        # offline: read the spans/snapshots the gateway persisted
        from repro.obs.telemetry import TelemetryStore
        run_id = args.run_id
        if not run_id:
            runs = TelemetryStore.runs(args.telemetry_dir)
            if len(runs) == 1:
                run_id = runs[0]
            else:
                print("repro trace-collect: --telemetry-dir holds "
                      f"{len(runs)} runs {runs}; name one RUN_ID",
                      file=sys.stderr)
                return 2
        store = TelemetryStore.load_run(args.telemetry_dir, run_id)
        spans = store.tracer.spans()
        snapshot = store.latest() or {}
        offsets = ((snapshot.get("health") or {}).get("cluster")
                   or {}).get("clock_offsets") or {}
        decisions, site_decisions = [], []
    else:
        # live: ask the gateway (or daemon) for everything
        from repro.service.client import ServiceClient, ServiceError
        try:
            with ServiceClient(host=args.host, port=args.port) as client:
                export = client.trace_export(trace_id=args.trace_id)
        except ServiceError as exc:
            print(f"repro trace-collect: error ({exc.code}): {exc}",
                  file=sys.stderr)
            return 2
        run_id = args.run_id or export.get("run_id") or "run"
        spans = export.get("spans") or []
        offsets = export.get("clock_offsets") or {}
        decisions = export.get("decisions") or []
        site_decisions = export.get("site_decisions") or []

    if not spans:
        print("repro trace-collect: no spans recorded "
              "(did the run carry trace contexts?)", file=sys.stderr)
        return 1
    chrome = stitch_spans(spans, ClockModel.from_offsets(offsets),
                          trace_id=args.trace_id, label=run_id,
                          decisions=decisions,
                          site_decisions=site_decisions)
    problems = validate_chrome_trace(chrome)
    if problems:
        print("repro trace-collect: stitched trace is not valid "
              "Chrome JSON: " + "; ".join(problems), file=sys.stderr)
        return 1
    out = args.out or f"trace-{run_id}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(chrome, fh, indent=1, sort_keys=True)
    other = chrome.get("otherData", {})
    print(f"wrote {out}: {len(chrome.get('traceEvents', []))} events, "
          f"nodes={other.get('nodes')}, "
          f"traces={len(other.get('trace_ids', []))}, "
          f"decisions={len(chrome.get('loopDecisions', []))}"
          f"+{len(chrome.get('siteDecisions', []))} "
          f"(open in Perfetto / chrome://tracing)")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Annotation-based inlining for interprocedural "
                    "parallelization (ICPP 2011 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_files(p, annotations=True):
        p.add_argument("files", nargs="+", help="Fortran 77 source files")
        if annotations:
            p.add_argument("--annotations", help="annotation file")
            p.add_argument("--config", default="annotation",
                           choices=("none", "conventional", "annotation"))
            add_annotations_mode(p)

    def add_annotations_mode(p, flag="--annotations-mode"):
        p.add_argument(flag, default="hand", dest="annotations_mode",
                       choices=("hand", "inferred", "demand"),
                       help="annotation source for the annotation config: "
                            "hand-written summaries, sound inference from "
                            "callee bodies, or demand-driven inlining at "
                            "opaque call sites (default hand)")

    def add_profile(p):
        p.add_argument("--profile", action="store_true",
                       help="print per-phase wall-clock timings and "
                            "dependence-test family stats to stderr")
        p.add_argument("--profile-top", type=int, default=None,
                       metavar="N",
                       help="also run under cProfile and print the N "
                            "most expensive functions (implies the "
                            "--profile report)")

    def add_jobs(p):
        p.add_argument("--jobs", "-j", type=int, default=None,
                       metavar="N",
                       help="worker processes (default: $REPRO_JOBS or 1 "
                            "= serial; 0 = one per CPU)")

    def add_trace(p):
        p.add_argument("--trace", metavar="FILE",
                       help="write a Chrome trace-event JSON (plus a "
                            "FILE-derived .decisions.jsonl per-loop "
                            "decision log); load FILE in Perfetto")

    p = sub.add_parser("parallelize", help="inline, parallelize, reverse")
    add_files(p)
    p.add_argument("--output", "-o", help="output file (default stdout)")
    p.add_argument("--tolerant", action="store_true",
                   help="ingest real-world fixed-form Fortran: dialect "
                        "constructs (EQUIVALENCE, computed GOTO, ENTRY, "
                        "CHARACTER ops, ...) lower to conservative IR and "
                        "malformed statements become recorded diagnostics "
                        "instead of hard errors")
    p.add_argument("--explain", action="store_true",
                   help="print a per-loop decision explanation to stderr")
    p.add_argument("--json", action="store_true",
                   help="print the full result object (annotated source, "
                        "diagnostics, per-loop decisions) as JSON on "
                        "stdout")
    add_profile(p)
    p.set_defaults(fn=cmd_parallelize)

    p = sub.add_parser("report",
                       help="per-loop parallelization report, or (with "
                            "--out) the self-contained HTML dashboard")
    p.add_argument("files", nargs="*", help="Fortran 77 source files")
    p.add_argument("--annotations", help="annotation file")
    p.add_argument("--config", default="annotation",
                   choices=("none", "conventional", "annotation"))
    add_annotations_mode(p)
    add_profile(p)
    p.add_argument("--out", metavar="FILE",
                   help="run the evaluation and write the HTML "
                        "dashboard here instead of a per-loop report")
    p.add_argument("--benchmarks", nargs="+", metavar="NAME",
                   help="dashboard mode: restrict to these benchmarks")
    add_jobs(p)
    p.add_argument("--figure20", action="store_true",
                   help="dashboard mode: include the (slow) Figure 20 "
                        "speedup sweep")
    p.add_argument("--history", metavar="FILE",
                   default="BENCH_history.jsonl",
                   help="dashboard mode: bench-gate trajectory JSONL "
                        "(default BENCH_history.jsonl)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("run", help="execute a program on the simulator")
    add_files(p, annotations=False)
    p.add_argument("--machine", default="serial",
                   choices=sorted(_MACHINES))
    p.add_argument("--inputs", nargs="*", default=[],
                   help="values consumed by READ statements")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("verify",
                       help="parallelize and differential-test the result")
    add_files(p)
    p.add_argument("--inputs", nargs="*", default=[])
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("generate",
                       help="derive annotations automatically")
    add_files(p, annotations=False)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("check",
                       help="statically check annotation soundness")
    add_files(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("diagnose",
                       help="explain every obstacle keeping loops serial")
    add_files(p, annotations=False)
    p.add_argument("--all", action="store_true",
                   help="include parallelizable loops in the listing")
    p.set_defaults(fn=cmd_diagnose)

    for name, fn in (("table1", cmd_table1), ("table2", cmd_table2),
                     ("figure20", cmd_figure20)):
        p = sub.add_parser(name, help=f"regenerate the paper's {name}")
        add_jobs(p)
        add_trace(p)
        if fn is not cmd_table1:
            add_profile(p)
            p.add_argument("--benchmarks", nargs="+", metavar="NAME",
                           help="restrict to these benchmarks "
                                "(default: the full suite)")
        if fn is cmd_table2:
            p.add_argument("--service", metavar="HOST:PORT",
                           help="assemble the table from submissions to "
                                "a running daemon or cluster gateway "
                                "instead of an in-process pool")
            add_annotations_mode(p, flag="--annotations")
        p.set_defaults(fn=fn)

    p = sub.add_parser("bench", help="full report for one benchmark")
    p.add_argument("name")
    add_jobs(p)
    add_trace(p)
    add_profile(p)
    add_annotations_mode(p, flag="--annotations")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("ablation",
                       help="compare hand vs inferred vs demand "
                            "annotations (#par-loops per benchmark)")
    add_jobs(p)
    add_trace(p)
    p.add_argument("--benchmarks", nargs="+", metavar="NAME",
                   help="restrict to these benchmarks "
                        "(default: the full suite)")
    p.set_defaults(fn=cmd_ablation)

    def add_endpoint(p):
        p.add_argument("--host", default="127.0.0.1",
                       help="service host (default 127.0.0.1)")
        p.add_argument("--port", type=int, default=7411,
                       help="service port (default 7411)")

    p = sub.add_parser("fuzz",
                       help="differential-fuzz the three configurations")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign base seed (default 0); per-program "
                        "seeds derive deterministically from it")
    p.add_argument("--count", type=int, default=None, metavar="N",
                   help="number of programs to generate (default 100 "
                        "when no --time-budget is given)")
    p.add_argument("--time-budget", type=float, default=None,
                   metavar="SECONDS",
                   help="stop starting new batches after this much "
                        "wall-clock time")
    add_jobs(p)
    add_trace(p)
    p.add_argument("--corpus-dir", default=None, metavar="DIR",
                   help="persist failing repros here (e.g. "
                        "tests/fuzz/corpus)")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip delta-debugging of failures")
    p.add_argument("--dialect", default="core",
                   choices=("core", "extended"),
                   help="generator dialect: core (default), or extended "
                        "with computed-GOTO and DATA productions")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="print per-batch progress and shrunk repros")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("serve", help="run the parallelization daemon")
    add_endpoint(p)
    add_jobs(p)
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="bounded job queue size (default 64)")
    p.add_argument("--cache-dir",
                   help="persist the result cache in this directory "
                        "(default: memory-only)")
    p.add_argument("--default-deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="per-job deadline when the client sets none")
    p.add_argument("--max-retries", type=int, default=1,
                   help="crash retries per job (default 1)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="on SIGTERM or `shutdown drain`, wait up to "
                        "this long for in-flight jobs (default 30)")
    p.add_argument("--telemetry-dir", default=None, metavar="DIR",
                   help="persist telemetry snapshots/events and spans "
                        "as JSONL under DIR (default: memory only)")
    p.add_argument("--run-id", default=None,
                   help="telemetry run id (default svc-<pid>)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("cluster",
                       help="distributed tier: gateway, cache shards, "
                            "worker nodes")
    csub = p.add_subparsers(dest="cluster_command", required=True)

    c = csub.add_parser("gateway",
                        help="the job server with a sharded cache and "
                             "a worker fleet")
    add_endpoint(c)
    c.add_argument("--shard", action="append", default=[],
                   metavar="HOST:PORT",
                   help="cache-shard address (repeat per shard; "
                        "default: one in-process shard)")
    c.add_argument("--queue-capacity", type=int, default=256,
                   help="bounded job queue size (default 256)")
    c.add_argument("--cache-capacity", type=int, default=512,
                   help="in-process shard LRU capacity when no --shard "
                        "is given (default 512)")
    c.add_argument("--cache-dir", default=None,
                   help="in-process shard disk tier when no --shard is "
                        "given (default: memory-only)")
    c.add_argument("--default-deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="per-job deadline when the client sets none")
    c.add_argument("--max-retries", type=int, default=1,
                   help="crash retries per job (default 1)")
    c.add_argument("--retry-backoff", type=float, default=0.5,
                   metavar="SECONDS",
                   help="base of the exponential crash-retry backoff "
                        "(default 0.5)")
    c.add_argument("--heartbeat-timeout", type=float, default=5.0,
                   metavar="SECONDS",
                   help="declare a worker node dead after this many "
                        "silent seconds (default 5)")
    c.add_argument("--drain-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="on SIGTERM or `shutdown drain`, wait up to "
                        "this long for in-flight jobs (default 30)")
    c.add_argument("--local-workers", type=int, default=0, metavar="N",
                   help="embed N worker loops in the gateway process "
                        "(default 0: execution comes from the fleet)")
    c.add_argument("--inline", action="store_true",
                   help="run embedded workers in-thread instead of a "
                        "process pool (tests/sandboxes)")
    c.add_argument("--telemetry-dir", default=None, metavar="DIR",
                   help="persist telemetry snapshots/events and spans "
                        "as JSONL under DIR (default: memory only)")
    c.add_argument("--telemetry-interval", type=float, default=2.0,
                   metavar="SECONDS",
                   help="seconds between background telemetry "
                        "snapshots (default 2)")
    c.add_argument("--run-id", default=None,
                   help="telemetry run id (default gw-<pid>)")
    c.set_defaults(fn=cmd_cluster_gateway)

    c = csub.add_parser("shard", help="one cache-shard node")
    add_endpoint(c)
    c.add_argument("--capacity", type=int, default=512,
                   help="memory LRU capacity (default 512)")
    c.add_argument("--cache-dir", default=None,
                   help="disk tier directory (default: memory-only)")
    c.add_argument("--max-bytes", type=int, default=None,
                   help="disk tier size bound in bytes (default: "
                        "$REPRO_CACHE_MAX_BYTES, else 256 MiB; "
                        "0 = unlimited)")
    c.set_defaults(fn=cmd_cluster_shard)

    c = csub.add_parser("worker", help="one worker node of the fleet")
    c.add_argument("--gateway", default="127.0.0.1:7411",
                   metavar="HOST:PORT",
                   help="gateway to pull work from "
                        "(default 127.0.0.1:7411)")
    c.add_argument("--name", default=None,
                   help="node name (default worker-<host>-<pid>)")
    c.add_argument("--threads", type=int, default=1,
                   help="concurrent jobs this node executes (default 1)")
    add_jobs(c)
    c.add_argument("--pull-wait", type=float, default=1.0,
                   metavar="SECONDS",
                   help="work-pull long-poll budget (default 1)")
    c.add_argument("--heartbeat-interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="seconds between heartbeats (default 1)")
    c.add_argument("--inline", action="store_true",
                   help="execute in-thread instead of a process pool "
                        "(tests/sandboxes)")
    c.set_defaults(fn=cmd_cluster_worker)

    p = sub.add_parser("loadtest",
                       help="replay concurrent client sessions against "
                            "a daemon or gateway and report latency, "
                            "throughput, and correctness")
    add_endpoint(p)
    p.add_argument("--sessions", type=int, default=1000,
                   help="concurrent client sessions (default 1000)")
    p.add_argument("--jobs-per-session", type=int, default=1,
                   help="submits each session performs (default 1)")
    p.add_argument("--distinct", type=int, default=64,
                   help="distinct payloads across the run — smaller "
                        "values exercise dedup harder (default 64)")
    p.add_argument("--kind", default="probe",
                   choices=("probe", "benchmark"),
                   help="payload kind: instant probes measure the "
                        "service, benchmark payloads soak the pipeline")
    p.add_argument("--benchmark", default="tref",
                   help="benchmark name for --kind benchmark "
                        "(default tref)")
    p.add_argument("--wait-timeout", type=float, default=120.0,
                   metavar="SECONDS",
                   help="per-job wait budget (default 120)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip comparing results against a locally "
                        "computed reference")
    p.add_argument("--spawn", action="store_true",
                   help="spawn a throwaway localhost cluster (gateway + "
                        "shards + workers) and loadtest that instead of "
                        "--host/--port")
    p.add_argument("--spawn-shards", type=int, default=2,
                   help="--spawn: cache shards (default 2)")
    p.add_argument("--spawn-workers", type=int, default=2,
                   help="--spawn: worker nodes (default 2)")
    p.add_argument("--spawn-threads", type=int, default=2,
                   help="--spawn: threads per worker (default 2)")
    p.add_argument("--gate", action="store_true",
                   help="append a 'loadtest' suite record to the bench "
                        "history for the dashboard trajectory chart")
    p.add_argument("--history", default="BENCH_history.jsonl",
                   help="history JSONL for --gate "
                        "(default BENCH_history.jsonl)")
    p.add_argument("--json", action="store_true",
                   help="print the full JSON report")
    p.add_argument("--trace", action="store_true",
                   help="open one distributed trace for the run (every "
                        "submit carries the root context; stitch with "
                        "`repro trace-collect` afterwards)")
    p.add_argument("--slo", default=None, metavar="SPEC.json",
                   help="evaluate the report against a declarative SLO "
                        "spec; violations exit 3 (the CI gate)")
    p.set_defaults(fn=cmd_loadtest)

    p = sub.add_parser("submit",
                       help="submit a benchmark name or source files "
                            "to a running daemon")
    p.add_argument("targets", nargs="+",
                   help="a benchmark name (e.g. adm) or Fortran files")
    p.add_argument("--annotations", help="annotation file")
    p.add_argument("--config", default="annotation",
                   choices=("none", "conventional", "annotation"))
    p.add_argument("--parallelize", action="store_true",
                   help="submit the files as a tolerant-frontend "
                        "parallelize job: real-world dialect accepted, "
                        "response carries diagnostics and per-loop "
                        "explanations")
    add_annotations_mode(p)
    add_endpoint(p)
    p.add_argument("--timeout", type=float, default=None,
                   metavar="SECONDS", help="job deadline / wait limit")
    p.add_argument("--no-wait", action="store_true",
                   help="return the job id immediately instead of "
                        "waiting for the result")
    p.add_argument("--output", "-o",
                   help="write the optimized source to a file")
    p.add_argument("--json", action="store_true",
                   help="print the raw JSON response")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("svc-status", help="daemon health and metrics")
    add_endpoint(p)
    p.add_argument("--metrics", action="store_true",
                   help="include the JSON metrics dump")
    p.add_argument("--prometheus", action="store_true",
                   help="print Prometheus text-format metrics only")
    p.set_defaults(fn=cmd_svc_status)

    p = sub.add_parser("top",
                       help="live terminal status board: queue, "
                            "workers, shards, events, SLO burn rates")
    add_endpoint(p)
    p.add_argument("--interval", type=float, default=2.0,
                   metavar="SECONDS",
                   help="seconds between frames (default 2)")
    p.add_argument("--once", action="store_true",
                   help="print a single frame and exit")
    p.add_argument("--slo", default=None, metavar="SPEC.json",
                   help="render live SLO burn rates from this spec")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("trace-collect",
                       help="stitch one run's distributed spans into a "
                            "Perfetto-loadable Chrome trace")
    p.add_argument("run_id", nargs="?", default=None,
                   help="run id (required with --telemetry-dir when "
                        "several runs are stored; otherwise defaults "
                        "to the gateway's)")
    add_endpoint(p)
    p.add_argument("--telemetry-dir", default=None, metavar="DIR",
                   help="stitch offline from persisted JSONL instead "
                        "of asking a live gateway")
    p.add_argument("--trace-id", default=None,
                   help="keep only this trace's spans")
    p.add_argument("--out", "-o", default=None,
                   help="output file (default trace-<run_id>.json)")
    p.set_defaults(fn=cmd_trace_collect)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.errors import ReproError
    from repro.obs import logging as obs_logging
    args = build_parser().parse_args(argv)
    obs_logging.configure()
    with obs_logging.log_context(run_id=obs_logging.new_run_id()):
        try:
            return args.fn(args)
        except (ReproError, OSError) as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
