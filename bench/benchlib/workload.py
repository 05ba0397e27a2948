"""What the runner needs from a workload."""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional

from .timing import Clock, PassTiming

#: the seed the committed references of generated inputs were made with
DEFAULT_SEED = 2011


class Workload:
    """One named set of inputs, its references, and how to run a pass.

    A pass runs every op of the workload once, in an order drawn from
    the seed and the pass index.  ``run_pass`` drives each op through
    the program's un-staged entry point; ``run_pass_staged`` re-drives
    it stage by stage through the layers' public functions under bench
    spans and checks that both give the same output.
    """

    name = ""
    ops_per_pass = 0

    def __init__(self, seed: int, out_dir: str, expected_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.expected_dir = expected_dir
        self.attempted = 0
        self.failures: List[str] = []
        #: seconds of set-up spent computing references (not set-up cost
        #: of the program, so kept out of ``setup_s``)
        self.verify_s = 0.0
        #: counts of the pass in progress (reset by the runner); they
        #: must come out the same in every pass
        self.counts: Dict[str, float] = {}
        #: raw seconds the program itself reported during the pass, by
        #: per-layer metric name (reset by the runner)
        self.reported_s: Dict[str, float] = {}

    # -- lifecycle ----------------------------------------------------
    def prepare(self) -> None:
        """Make the inputs from the seed, load the references, start
        whatever processes the workload needs."""
        raise NotImplementedError

    def warm_up(self, clock: Clock) -> None:
        """The cold pass that ends set-up (lets caches fill, lazy
        imports finish) and checks every op once before timing."""
        self.run_pass(-1, clock)

    def run_pass(self, index: int, clock: Clock) -> None:
        raise NotImplementedError

    def run_pass_staged(self, index: int, clock: Clock) -> None:
        raise NotImplementedError

    def pass_metrics(self, timing: PassTiming) -> Dict[str, float]:
        """Per-layer metrics of the staged pass just timed, other than
        span self times: normalised like the pass they were taken in."""
        return {name: seconds * timing.scale
                for name, seconds in self.reported_s.items()}

    def extras(self) -> Dict[str, float]:
        """Per-layer measurements made outside the passes (traced run);
        the runner normalises the ones named ``*_s``."""
        return {}

    def derived(self, layer_s: Dict[str, float],
                counts: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics computed from busy seconds and counts."""
        return {}

    def close(self) -> None:
        """Stop and reap every process ``prepare`` started."""

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process doing the work."""
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- helpers ------------------------------------------------------
    def rng(self, index: int) -> random.Random:
        """The order generator of pass ``index`` (same seed, same order)."""
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def report_s(self, name: str, seconds: float) -> None:
        self.reported_s[name] = self.reported_s.get(name, 0.0) + seconds

    def fail(self, op_id: str, why: str) -> None:
        self.failures.append(f"{self.name}/{op_id}: {why}")

    def attempt(self, clock: Clock, op_id: str,
                fn: Callable[[], Any]) -> Optional[Any]:
        """Run one op under the clock; an op that raises is a failed op
        and the pass goes on."""
        self.attempted += 1
        try:
            with clock.op(op_id):
                return fn()
        except Exception as exc:  # boundary: count the failure, go on
            self.fail(op_id, f"raised {type(exc).__name__}: {exc}")
            return None

    def expect(self, op_id: str, observed: Any, expected: Any) -> bool:
        """Compare an op's output summary with its reference."""
        if observed == expected:
            return True
        if isinstance(observed, dict) and isinstance(expected, dict):
            keys = sorted(k for k in set(observed) | set(expected)
                          if observed.get(k) != expected.get(k))
            self.fail(op_id, f"differs from the reference in {keys}")
        else:
            self.fail(op_id, "differs from the reference")
        return False
