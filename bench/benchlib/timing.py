"""Clocks of the benchmark: calibration slices, the pass clock, percentiles.

This box's speed drifts by tens of percent within minutes (``README.md``
records the measurement), so every reported time is *calibration
normalised*: a fixed pure-Python slice is timed right before and after
the timed work, at least every :data:`SLICE_EVERY_S` seconds of it, and
the work's wall time is scaled by ``CALIB_REF_S / mean(the two slices
around it)``.  The unit is therefore "seconds on a machine that runs the
slice in ``CALIB_REF_S``"; raw wall times are kept beside the normalised
ones as diagnostics.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

#: what one calibration slice takes on the reference machine.  A constant
#: of the benchmark: changing it rescales every time metric.
CALIB_REF_S = 0.025
#: a new slice is taken once this much timed work followed the last one
SLICE_EVERY_S = 0.5
#: the rule for reporting a percentile: this many samples lie beyond it
MIN_SAMPLES_BEYOND = 10


def calibration_slice(iterations: int = 200_000) -> float:
    """Seconds one fixed pure-Python slice takes right now (the kernel
    of ``scripts/bench_gate.py::calibrate``, one repetition)."""
    t0 = perf_counter()
    acc = 0
    table = {}
    for i in range(iterations):
        table[i & 1023] = i
        acc += table[i & 1023] * 3 // 7
    if acc <= 0:
        raise AssertionError("calibration slice computed nothing")
    return perf_counter() - t0


def scale_for(slices: Sequence[float]) -> float:
    """Factor turning wall seconds measured next to ``slices`` into
    reference-machine seconds."""
    return CALIB_REF_S / (sum(slices) / len(slices))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) with linear interpolation between the
    closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = min(1.0, max(0.0, q)) * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-quantile."""
    return int(math.floor(count * (1.0 - q) + 1e-9))


def percentile_supported(count: int, q: float) -> bool:
    """May the ``q``-quantile of ``count`` samples be reported?"""
    return samples_beyond(count, q) >= MIN_SAMPLES_BEYOND


def passes_needed(ops_per_pass: int, q: float = 0.90) -> int:
    """Fewest passes after which the ``q``-quantile of the per-op
    latencies may be reported."""
    passes = 1
    while not percentile_supported(passes * ops_per_pass, q):
        passes += 1
    return passes


@dataclass
class PassTiming:
    """One timed pass: wall and normalised seconds, and its ops."""

    raw_s: float
    norm_s: float
    #: (op id, raw seconds, normalised seconds) in execution order
    ops: List[Tuple[str, float, float]] = field(default_factory=list)
    slices: List[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        return self.norm_s / self.raw_s if self.raw_s else 1.0


class Clock:
    """Times the regions of a pass and slices calibration between them.

    Only code inside :meth:`op` or :meth:`work` counts towards the pass:
    verification of an op's output and the calibration slices themselves
    sit between regions and are not timed.  With a recorder (the traced
    run) every region is also a span, and :meth:`span` opens child spans
    inside it.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self._regions: List[Tuple[Optional[str], int, float]] = []
        self._slices: List[float] = []
        self._since_slice = 0.0
        self._index = -1

    def begin_pass(self) -> None:
        gc.collect()
        self._index += 1
        self._regions = []
        self._slices = [calibration_slice()]
        self._since_slice = 0.0
        if self.recorder is not None:
            self.recorder.pass_index = self._index

    @contextmanager
    def _region(self, name: str, op_id: Optional[str]):
        if self._since_slice >= SLICE_EVERY_S:
            self._slices.append(calibration_slice())
            self._since_slice = 0.0
        segment = len(self._slices) - 1
        span = (self.recorder.span(name, op=op_id)
                if self.recorder is not None else nullcontext())
        with span:
            t0 = perf_counter()
            try:
                yield
            finally:
                elapsed = perf_counter() - t0
                self._since_slice += elapsed
                self._regions.append((op_id, segment, elapsed))

    def op(self, op_id: str):
        """Time one operation of the workload."""
        return self._region("bench.op", op_id)

    def work(self, name: str):
        """Time pass work that is not an operation (cache clearing,
        parsing shared by several ops, rendering the artefact)."""
        return self._region(name, None)

    def span(self, name: str, **args):
        """A child span inside the current region (traced runs only)."""
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name, **args)

    def end_pass(self) -> PassTiming:
        self._slices.append(calibration_slice())
        scales = [scale_for(self._slices[k:k + 2])
                  for k in range(len(self._slices) - 1)]
        timing = PassTiming(0.0, 0.0, slices=list(self._slices))
        for op_id, segment, elapsed in self._regions:
            normalised = elapsed * scales[segment]
            timing.raw_s += elapsed
            timing.norm_s += normalised
            if op_id is not None:
                timing.ops.append((op_id, elapsed, normalised))
        return timing
