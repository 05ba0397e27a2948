"""Percentiles, the samples-beyond rule, calibration scaling."""

import pytest

from benchlib import timing
from benchlib.timing import (CALIB_REF_S, Clock, passes_needed, percentile,
                             percentile_supported, samples_beyond, scale_for)


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == 2.5
    assert percentile(list(range(101)), 0.9) == pytest.approx(90.0)
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 0.90) == 10
    assert percentile_supported(100, 0.90)
    assert not percentile_supported(99, 0.90)
    assert not percentile_supported(144, 0.99)
    assert percentile_supported(1000, 0.99)


def test_passes_needed_for_a_p90():
    # the four workloads: 36, 115, 72 and 377 ops per pass
    assert passes_needed(36) == 3
    assert passes_needed(115) == 1
    assert passes_needed(72) == 2
    assert passes_needed(377) == 1


def test_scale_is_reference_over_mean_slice():
    assert scale_for([CALIB_REF_S, CALIB_REF_S]) == pytest.approx(1.0)
    # a machine half as fast: slices take twice as long, times halve
    assert scale_for([2 * CALIB_REF_S, 2 * CALIB_REF_S]) == pytest.approx(0.5)
    assert scale_for([CALIB_REF_S, 3 * CALIB_REF_S]) == pytest.approx(0.5)


def test_clock_normalises_each_segment_by_its_own_slices(monkeypatch):
    now = [0.0]
    slices = iter([CALIB_REF_S, 2 * CALIB_REF_S, 2 * CALIB_REF_S])
    monkeypatch.setattr(timing, "perf_counter", lambda: now[0])
    monkeypatch.setattr(timing, "calibration_slice", lambda: next(slices))
    clock = Clock()
    clock.begin_pass()                     # slice 1: reference speed
    with clock.op("first"):
        now[0] += 0.6                      # more than SLICE_EVERY_S
    now[0] += 5.0                          # verification: not timed
    with clock.op("second"):               # slice 2 taken before it
        now[0] += 0.3
    with clock.work("render"):
        now[0] += 0.1
    timed = clock.end_pass()               # slice 3
    assert timed.raw_s == pytest.approx(1.0)
    first, second = timed.ops
    # first segment: mean slice 1.5x the reference; second: 2x
    assert first == ("first", pytest.approx(0.6), pytest.approx(0.6 / 1.5))
    assert second == ("second", pytest.approx(0.3), pytest.approx(0.15))
    assert timed.norm_s == pytest.approx(0.6 / 1.5 + 0.15 + 0.05)
    assert timed.scale == pytest.approx(timed.norm_s / 1.0)
