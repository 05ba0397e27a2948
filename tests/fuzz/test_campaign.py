"""Campaign driver: determinism, stats accounting, trace export."""

from repro.fuzz.campaign import FuzzTask, run_campaign, run_fuzz_task
from repro.fuzz.generator import derive_seed
from repro.trace import Tracer


def _stats_key(stats):
    return (stats.programs, stats.configs_run, stats.failing_programs,
            stats.mismatches, dict(stats.parallel_loops),
            dict(stats.features), stats.source_lines)


def test_campaign_is_deterministic_across_runs_and_job_counts():
    first = run_campaign(seed=42, count=6, jobs=1)
    second = run_campaign(seed=42, count=6, jobs=2)
    assert _stats_key(first.stats) == _stats_key(second.stats)
    assert first.ok and second.ok


def test_campaign_counts_add_up():
    result = run_campaign(seed=42, count=5, jobs=1)
    stats = result.stats
    assert stats.programs == 5
    # three configurations + the inferred/demand re-runs per program
    assert stats.configs_run == 25
    assert stats.elapsed_seconds > 0
    assert stats.source_lines > 0


def test_campaign_exports_trace_instants():
    tracer = Tracer(label="test")
    run_campaign(seed=42, count=3, jobs=1, tracer=tracer)
    instants = [e for e in tracer.to_chrome()["traceEvents"]
                if e.get("ph") == "i"]
    campaign = [e for e in instants if e["name"] == "fuzz-campaign"]
    assert campaign, "no fuzz-campaign instant event"
    args = campaign[0]["args"]
    assert args["programs"] == 3
    assert args["mismatches"] == 0
    assert args["seed"] == 42


def test_worker_task_is_selfcontained_and_picklable():
    import pickle
    task = FuzzTask(0, derive_seed(42, 0))
    outcome = run_fuzz_task(pickle.loads(pickle.dumps(task)))
    assert outcome["passed"] is True
    assert outcome["seed"] == task.seed
    pickle.dumps(outcome)


def test_time_budget_stops_the_campaign():
    result = run_campaign(seed=42, time_budget=0.0, jobs=1)
    assert result.stats.programs == 0


def test_progress_callback_is_invoked():
    lines = []
    run_campaign(seed=42, count=2, jobs=1, progress=lines.append)
    assert lines
