"""The batched bootstrap against the per-resample loop it replaced.

``_reference_bootstrap_ci`` is that loop, kept verbatim: one fresh
``substream(seed, "bootstrap", i)`` generator per resample and one
``integers`` call per pool. One fix is applied to both: a bound whose
interpolation meets an infinite statistic is its upper neighbour, not nan. The fast path must agree with it exactly, not
within a tolerance, because it draws the same indices and feeds the same
statistic in the same order. ``vaf`` computes its interval from per-pool
level counts instead of calling ``bootstrap_ci``; ``bootstrap_ci`` over
``_variance_ratio`` is its oracle, again exactly.
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import make_task
from reliakit import DegenerateStatisticError, MetricError, bootstrap_ci, vaf
from reliakit import rng
from reliakit.metrics import _variance_ratio
from reliakit.rng import resample_indices, substream


def _reference_bootstrap_ci(statistic, units, b=10000, level=0.95, seed=0):
    if b < 1000:
        raise MetricError(f"bootstrap_ci: b={b} is below the 1000-resample floor")
    if not 0.0 < level < 1.0:
        raise MetricError(f"bootstrap_ci: level {level} outside (0, 1)")
    if isinstance(units, tuple) and units and all(isinstance(u, (list, tuple)) for u in units):
        pools = units
        single = False
    else:
        pools = (units,)
        single = True
    if any(len(pool) == 0 for pool in pools):
        raise MetricError("bootstrap_ci: empty resampling pool")

    values: list[float] = []
    degenerate = 0
    for i in range(b):
        gen = substream(seed, "bootstrap", i)
        samples = []
        for pool in pools:
            n = len(pool)
            idx = gen.integers(0, n, size=n)
            samples.append([pool[j] for j in idx])
        try:
            stat = statistic(samples[0]) if single else statistic(*samples)
        except DegenerateStatisticError:
            degenerate += 1
            continue
        values.append(float(stat))
    if degenerate > 0.2 * b:
        raise MetricError(
            f"bootstrap_ci: statistic degenerate on {degenerate / b:.1%} of {b} resamples"
            " (more than the 20% tolerance)")
    tail = 100.0 * (1.0 - level) / 2.0
    with np.errstate(invalid="ignore"):
        low, high = np.percentile(values, [tail, 100.0 - tail])
    if math.isnan(low):
        low = np.percentile(values, tail, method="higher")
    if math.isnan(high):
        high = np.percentile(values, 100.0 - tail, method="higher")
    return float(low), float(high)


def _outcome(fn, *args, **kwargs):
    """The interval, or the MetricError message when the call refuses."""
    try:
        return fn(*args, **kwargs)
    except MetricError as exc:
        return str(exc)


def _mean(sample):
    return math.fsum(sample) / len(sample)


def _reference_rows(seed, b, sizes):
    for i in range(b):
        gen = substream(seed, "bootstrap", i)
        yield np.concatenate([gen.integers(0, n, size=n) for n in sizes])


# Pass fractions of 3-repeat tasks, so flat (degenerate) resamples occur.
_values = st.lists(st.sampled_from([0.0, 1 / 3, 2 / 3, 1.0]) | st.floats(0.0, 1.0),
                   min_size=1, max_size=60)


@given(pools=st.lists(_values, min_size=1, max_size=2),
       b=st.sampled_from([1000, 1001, 2500]),
       seed=st.integers(0, 2 ** 32 - 1),
       level=st.sampled_from([0.9, 0.95]))
@settings(max_examples=25, deadline=None)
def test_bootstrap_ci_equals_reference_exactly(pools, b, seed, level):
    if len(pools) == 1:
        statistic, units = _mean, pools[0]
    else:
        statistic, units = _variance_ratio, tuple(pools)
    fast = _outcome(bootstrap_ci, statistic, units, b=b, level=level, seed=seed)
    slow = _outcome(_reference_bootstrap_ci, statistic, units, b=b, level=level, seed=seed)
    assert fast == slow


@pytest.mark.parametrize("sizes", [(1,), (2,), (7,), (60,), (1, 5), (5, 1),
                                   (24, 24), (60, 1, 13), (3, 59)])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 31 + 5])
def test_resample_rows_match_substream_draws(sizes, seed):
    b = 1001  # not a multiple of the chunk, so the last chunk is partial
    fast = list(resample_indices(seed, "bootstrap", b, sizes))
    assert len(fast) == b
    for i, (row, expected) in enumerate(zip(fast, _reference_rows(seed, b, sizes))):
        assert row.dtype == expected.dtype
        assert np.array_equal(row, expected), i


def test_rejected_row_is_recomputed_from_its_substream(monkeypatch):
    # Row 601 of seed 23 over two 1000-task pools holds a draw that NumPy's
    # bounded-integer mapping rejects; no other row of the first 1000 does.
    calls = []
    original = rng.substream

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rng, "substream", counting)
    sizes = (1000, 1000)
    rows = list(resample_indices(23, "bootstrap", 1000, sizes))
    assert calls == [(23, "bootstrap", 601)]
    monkeypatch.undo()
    for i, (row, expected) in enumerate(zip(rows, _reference_rows(23, 1000, sizes))):
        assert np.array_equal(row, expected), i


def test_excessive_degeneracy_still_an_error():
    units = ([0.0, 1.0], [1.0, 1.0, 1.0, 0.0])
    with pytest.raises(MetricError, match="degenerate") as fast:
        bootstrap_ci(_variance_ratio, units, b=1000, seed=0)
    with pytest.raises(MetricError, match="degenerate") as slow:
        _reference_bootstrap_ci(_variance_ratio, units, b=1000, seed=0)
    assert str(fast.value) == str(slow.value)


def test_pool_sizes_below_one_are_rejected():
    with pytest.raises(ValueError, match="sizes"):
        next(resample_indices(0, "bootstrap", 1000, (3, 0)))


def _peak_bytes(b, sizes):
    tracemalloc.start()
    try:
        for _ in resample_indices(0, "bootstrap", b, sizes):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_temporaries_do_not_grow_with_b():
    sizes = (400, 400)
    chunk = rng._CHUNK
    small = _peak_bytes(2 * chunk, sizes)
    large = _peak_bytes(8 * chunk, sizes)
    assert large < 1.25 * small
    # One chunk of uint64/int64 rows is chunk * 800 * 8 bytes; an index
    # matrix over all 8 chunks would be 8 times that.
    assert large < 8 * chunk * sum(sizes) * 8


def _vaf_outcome(num, den, **kwargs):
    """vaf's interval over the two pools in order, or its MetricError message."""
    per_task = {f"n{i:02d}": v for i, v in enumerate(num)}
    per_task.update({f"d{i:02d}": v for i, v in enumerate(den)})
    meta = {task_id: make_task(task_id, bucket="long" if task_id[0] == "n" else "short")
            for task_id in per_task}
    try:
        result = vaf(per_task, meta, **kwargs)
    except MetricError as exc:
        return str(exc)
    return result.ci_low, result.ci_high


def _assert_vaf_matches_bootstrap_ci(num, den, b, level, seed):
    expected = _outcome(bootstrap_ci, _variance_ratio, (num, den), b=b, level=level, seed=seed)
    assert _vaf_outcome(num, den, b=b, ci_level=level, seed=seed) == expected


_pool = st.lists(st.sampled_from([0.0, 1 / 3, 2 / 3, 1.0]) | st.floats(0.0, 1.0),
                 min_size=2, max_size=60)


@given(num=_pool, den=_pool, b=st.sampled_from([1000, 1001, 2500]),
       seed=st.integers(0, 2 ** 32 - 1), level=st.sampled_from([0.9, 0.95]))
@settings(max_examples=40, deadline=None)
def test_vaf_interval_equals_bootstrap_ci_exactly(num, den, b, level, seed):
    # vaf refuses a degenerate point estimate before drawing any resample.
    assume(not isinstance(_outcome(_variance_ratio, num, den), str))
    _assert_vaf_matches_bootstrap_ci(num, den, b, level, seed)


def test_vaf_signed_zeros_are_one_level():
    num = [0.0, -0.0, 1 / 3, 1.0, 2 / 3, -0.0]
    den = [-0.0, 0.0, 1 / 3, 1 / 3, 1.0, 0.0, -0.0]
    _assert_vaf_matches_bootstrap_ci(num, den, 1000, 0.95, 3)
    _assert_vaf_matches_bootstrap_ci(den, num, 1000, 0.95, 3)


def test_vaf_excessive_degeneracy_is_the_same_error():
    num, den = [0.0, 1.0], [1.0, 1.0, 1.0, 0.0]
    assert "degenerate on" in _vaf_outcome(num, den, b=1000, seed=0)
    _assert_vaf_matches_bootstrap_ci(num, den, 1000, 0.95, 0)


def test_vaf_interval_reaches_an_infinite_ratio():
    # A denominator pool with one subnormal-squared spread: some resamples'
    # variance ratios overflow to inf, and the upper bound is inf, not nan.
    num, den = [0.0, 1 / 3], [0.0, 1 / 3, 7.524220015125501e-162]
    assert _vaf_outcome(num, den, b=1000, ci_level=0.9, seed=0) == (0.0, math.inf)
    _assert_vaf_matches_bootstrap_ci(num, den, 1000, 0.9, 0)
    assert _reference_bootstrap_ci(_variance_ratio, (num, den), b=1000, level=0.9) == (0.0, math.inf)


@pytest.mark.parametrize("b, level, n_inf, expected", [
    # 1001 resamples at level 0.5: both bounds sit exactly on a sorted
    # value (weight 0), whose upper neighbour is inf or which is inf itself.
    (1001, 0.5, 250, (250.0, 750.0)),
    (1001, 0.5, 251, (250.0, math.inf)),
    # 1000 resamples: the lower bound lies 75% of the way to an inf.
    (1000, 0.5, 750, (math.inf, math.inf)),
])
def test_interval_bounds_next_to_infinite_statistics(b, level, n_inf, expected):
    values = iter([float(v) for v in range(b - n_inf)] + [math.inf] * n_inf)
    assert bootstrap_ci(lambda _: next(values), [0.0, 1.0], b=b, level=level) == expected


def test_vaf_never_holds_every_index_row():
    fractions = [0.0, 1 / 3, 2 / 3, 1.0]
    num = [fractions[i % 4] for i in range(24)]
    den = [fractions[(i * 7) % 4] for i in range(23)] + [1.0]
    b = 10000
    _vaf_outcome(num, den, b=1000, seed=1)  # lazy imports and caches, not per-call memory
    tracemalloc.start()
    try:
        interval = _vaf_outcome(num, den, b=b, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(interval, tuple)
    # One (b, 48) int64 index matrix.
    assert peak < b * (len(num) + len(den)) * 8
