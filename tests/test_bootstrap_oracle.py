"""The batched bootstrap against the per-resample loop it replaced.

``_reference_bootstrap_ci`` is that loop, kept verbatim: one fresh
``substream(seed, "bootstrap", i)`` generator per resample and one
``integers`` call per pool. One fix is applied to both: a bound whose
interpolation meets an infinite statistic is its upper neighbour, not nan.
The fast path must agree with it exactly, not within a tolerance, because
it draws the same indices and feeds the same statistic in the same order.
``vaf`` computes its interval from per-pool level counts instead of calling
``bootstrap_ci``; ``bootstrap_ci`` over ``_variance_ratio`` is its oracle,
again exactly. ``_vafs``, which feeds many selections one pass over shared
index rows, must give each selection exactly what that selection gets
alone. Each fast path inside keeps its scalar original here too:
``np.random.Philox`` for ``rng._philox_words``, ``np.percentile`` for
``metrics._percentiles`` (the bootstrap interval's two tails and the MOP
baseline's one percentile) and the per-pool, per-row loop for
``metrics._pool_variances``.
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, strategies as st

from conftest import make_task
from oracles import Oracles
from reliakit import DegenerateStatisticError, MetricError, bootstrap_ci, vaf
from reliakit import metrics, rng
from reliakit.metrics import (DEFAULT_VAF_DENOMINATOR, DEFAULT_VAF_NUMERATOR, _level_pvar,
                              _percentile_interval, _percentiles, _pool_variances, _vafs,
                              _variance_ratio)
from reliakit.rng import _philox_words, _resample_chunks, substream


def resample_indices(seed, tag, b, sizes):
    """The index rows of ``_resample_chunks`` one at a time."""
    for chunk in _resample_chunks(seed, tag, b, sizes):
        yield from chunk


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


# ``python tests/test_bootstrap_oracle.py N`` runs each oracle on N fresh examples.
_oracle = Oracles()


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


@_oracle(25, pools=st.lists(_values, min_size=1, max_size=2),
         b=st.sampled_from([1000, 1001, 2500]),
         seed=st.integers(0, 2 ** 32 - 1),
         level=st.sampled_from([0.9, 0.95]))
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


@pytest.mark.parametrize("n_words", [1, 5, 24, 99, 198])
def test_philox_words_equal_numpy_philox(n_words):
    """For 1,024 random keys, and the extreme ones, keyed through ``.state``
    as the per-row loop did: a fresh counter and an empty buffer."""
    keys = np.random.default_rng(n_words).integers(0, 2 ** 64, size=(1026, 2), dtype=np.uint64)
    keys[-2:] = [[0, 0], [2 ** 64 - 1, 2 ** 64 - 1]]
    fast = _philox_words(keys, n_words)
    assert fast.shape == (len(keys), n_words) and fast.dtype == np.uint64
    bitgen = np.random.Philox(key=0)
    state = bitgen.state
    for row, (low, high) in zip(fast, keys.tolist()):
        state["state"]["key"] = (low, high)
        bitgen.state = state
        assert np.array_equal(row, bitgen.random_raw(n_words))


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


# Numerator tasks n00.. are long, denominator tasks d00.. short.
_REGISTRY = {f"{side}{i:02d}": make_task(f"{side}{i:02d}", bucket=bucket)
             for side, bucket in (("n", "long"), ("d", "short")) for i in range(60)}


def _per_task(num, den):
    """Per-task fractions whose numerator and denominator pools, in sorted
    task order, are ``num`` and ``den``."""
    per_task = {f"n{i:02d}": v for i, v in enumerate(num)}
    per_task.update({f"d{i:02d}": v for i, v in enumerate(den)})
    return per_task


def _vaf_outcome(num, den, **kwargs):
    """vaf's interval over the two pools in order, or its MetricError message."""
    try:
        result = vaf(_per_task(num, den), _REGISTRY, **kwargs)
    except MetricError as exc:
        return str(exc)
    return result.ci_low, result.ci_high


def _assert_vaf_matches_bootstrap_ci(num, den, b, level, seed):
    expected = _outcome(bootstrap_ci, _variance_ratio, (num, den), b=b, level=level, seed=seed)
    assert _vaf_outcome(num, den, b=b, ci_level=level, seed=seed) == expected


_level = st.sampled_from([0.0, 1 / 3, 2 / 3, 1.0]) | st.floats(0.0, 1.0)
_pool = st.lists(_level, min_size=2, max_size=60)


@_oracle(40, num=_pool, den=_pool, b=st.sampled_from([1000, 1001, 2500]),
         seed=st.integers(0, 2 ** 32 - 1), level=st.sampled_from([0.9, 0.95]))
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


def _reference_interval(values, level):
    """The percentiles ``_percentile_bootstrap`` took before, kept verbatim."""
    tail = 100.0 * (1.0 - level) / 2.0
    with np.errstate(invalid="ignore"):
        bounds = np.percentile(values, [tail, 100.0 - tail])
    if np.isnan(bounds).any():
        bounds = np.where(np.isnan(bounds),
                          np.percentile(values, [tail, 100.0 - tail], method="higher"),
                          bounds)
    low, high = bounds
    return float(low), float(high)


def _same_float(a, b):
    """Equal bit for bit up to the nan payload: signed zeros differ."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


_special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 2.5])


@st.composite
def _percentile_values(draw, elements=_special | st.floats()):
    """Values with ties: a few distinct ones, each repeated, in draw order."""
    distinct = draw(st.lists(elements, min_size=1, max_size=6))
    n = draw(st.sampled_from([1, 2, 3, 4, 7, 1000, 1001]) | st.integers(1, 40))
    picks = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(
        0, len(distinct), size=n)
    return np.array(distinct)[picks]


@_oracle(300, values=_percentile_values(), level=st.sampled_from([0.5, 0.9, 0.95, 0.99]))
def test_percentile_interval_equals_np_percentile(values, level):
    untouched = values.copy()
    fast = _percentile_interval(values, level)
    slow = _reference_interval(values, level)
    assert all(map(_same_float, fast, slow)), (fast, slow)
    assert values.tobytes() == untouched.tobytes()


def _reference_percentile(values, q):
    """``np.percentile(values, q)``; where its lerp is nan, which finite
    values reach only when their difference overflows, the "higher" method's
    value, as ``_reference_interval`` takes it."""
    with np.errstate(invalid="ignore", over="ignore"):
        linear = float(np.percentile(values, q))
    return float(np.percentile(values, q, method="higher")) if math.isnan(linear) else linear


_finite = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])
           | st.floats(allow_nan=False, allow_infinity=False))
# Percentiles as the MOP baseline passes them: 100 times a fraction in [0, 1].
_q = st.sampled_from([0.0, 100.0]) | st.floats(0.0, 1.0).map(lambda p: p * 100.0)


@_oracle(300, values=_percentile_values(_finite), q=_q)
def test_percentile_equals_np_percentile(values, q):
    untouched = values.copy()
    (fast,) = _percentiles(values, [q])
    slow = _reference_percentile(values, q)
    assert _same_float(fast, slow), (fast, slow)
    assert values.tobytes() == untouched.tobytes()
    # The MOP baseline passes a list of Python floats.
    (from_list,) = _percentiles(values.tolist(), [q])
    assert _same_float(from_list, fast)


@pytest.mark.parametrize("values, q", [
    ([3.0], 0.0), ([3.0], 100.0), ([3.0], 37.5),
    ([2.0, 1.0, 2.0, 1.0, 2.0], 0.0), ([2.0, 1.0, 2.0, 1.0, 2.0], 100.0),
    ([0.0, -0.0, 0.0, -0.0], 0.0), ([0.0, -0.0, 0.0, -0.0], 100.0), ([-0.0, 0.0], 50.0),
    # Window entropies of w=5: few levels, many ties.
    ([0.0, 0.7219280948873623, 1.5219280948873621, 1.5219280948873621, 2.321928094887362], 95.0),
    # The neighbours' difference overflows: numpy's lerp is nan at weight 0.
    ([-1e308, -1e308, 1e308], 50.0), ([-1e308, 1e308], 25.0),
])
def test_percentile_edge_cases(values, q):
    (fast,) = _percentiles(values, [q])
    assert _same_float(fast, _reference_percentile(np.array(values), q))


@pytest.mark.parametrize("values, level", [
    ([0.0, -0.0], 0.5), ([-0.0, 0.0, 0.0, -0.0, 1.0], 0.9),
    ([1.0, math.inf, 0.0, -0.0, math.inf], 0.5), ([-math.inf, 0.0, math.inf], 0.5),
    ([math.nan], 0.95), ([3.0], 0.95), ([2.0, math.nan, 1.0], 0.9),
    ([-0.0] * 500 + [0.0] * 500 + [math.inf], 0.99),
    # The upper bound is nan (0 * inf) and falls back on "higher", whose own
    # partition puts 0.0 where the "linear" one puts -0.0.
    ([-0.0, 0.0, 0.0, -0.0, 0.0, 0.0, -0.0, math.inf, math.inf], 0.5),
    # Without kth 0 in the "linear" partition the upper bound reads -0.0.
    ([0.0, -0.0, -0.0, 1.0, -1.0, 0.0, -0.0, 0.0, -0.0, -0.0, 1.0, 1.0, -0.0, -0.0], 0.5),
])
def test_percentile_interval_edge_cases(values, level):
    values = np.array(values)
    fast = _percentile_interval(values, level)
    slow = _reference_interval(values, level)
    assert all(map(_same_float, fast, slow)), (fast, slow)


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


def _pair_outcomes(pairs, b, level, seed):
    """Each pair's ``bootstrap_ci(_variance_ratio, ...)`` outcome, one call per pair."""
    return [_outcome(bootstrap_ci, _variance_ratio, (num, den), b=b, level=level, seed=seed)
            for num, den in pairs]


def _batch(per_tasks, b, level, seed):
    """``_vafs`` over one selection per per-task mapping."""
    return _vafs([(f"m{s}", per_task) for s, per_task in enumerate(per_tasks)], _REGISTRY,
                 DEFAULT_VAF_NUMERATOR, DEFAULT_VAF_DENOMINATOR, b, level, seed)


def _batch_outcomes(per_tasks, b, level, seed):
    """``_batch``'s intervals, with each MetricError as its message."""
    return [str(r) if isinstance(r, MetricError) else (r.ci_low, r.ci_high)
            for r in _batch(per_tasks, b, level, seed)]


@st.composite
def _pairs(draw):
    # Few distinct sizes, so most batches hold pairs that share index rows.
    sizes = st.sampled_from([2, 3, 5, 8])
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        pairs.append(tuple(draw(st.lists(_level, min_size=n, max_size=n))
                           for n in (draw(sizes), draw(sizes))))
    return pairs


@_oracle(30, pairs=_pairs(), b=st.sampled_from([1000, 1001]),
         seed=st.integers(0, 2 ** 32 - 1), level=st.sampled_from([0.9, 0.95]))
def test_batched_intervals_equal_each_pair_alone(pairs, b, level, seed):
    batch = _batch_outcomes([_per_task(num, den) for num, den in pairs], b, level, seed)
    for (num, den), outcome in zip(pairs, batch):
        assert _vaf_outcome(num, den, b=b, ci_level=level, seed=seed) == outcome
        # vaf refuses a degenerate point estimate before drawing any resample.
        point = _outcome(_variance_ratio, num, den)
        if isinstance(point, str):
            assert outcome == point
        else:
            assert outcome == _pair_outcomes([(num, den)], b, level, seed)[0]


def test_batch_mixes_refused_signed_zero_and_infinite_members():
    pairs = [
        ([0.0, 1.0], [1.0, 1.0, 1.0, 0.0]),  # degenerate on more than 20% of resamples
        ([1.0, 0.0], [0.0, 1 / 3, 1.0, 2 / 3]),
        ([0.0, 1 / 3], [0.0, 1 / 3, 7.524220015125501e-162]),  # some ratios overflow to inf
        ([1 / 3, 0.0], [1.0, 0.0, 2 / 3]),
        ([0.0, -0.0, 1 / 3, 1.0, 2 / 3, -0.0], [-0.0, 0.0, 1 / 3, 1 / 3, 1.0, 0.0, -0.0]),
        ([-0.0, 1 / 3, 0.0, 2 / 3, 1.0, 0.0], [1 / 3, -0.0, 0.0, 1.0, 2 / 3, 0.0, -0.0]),
        # A level that the other pools of its pass never draw, and whose
        # square distance from their means overflows.
        ([1e200, 1e200], [0.0, 1 / 3, 1.0, 2 / 3]),
    ]
    batch = _batch_outcomes([_per_task(num, den) for num, den in pairs], 1000, 0.9, 0)
    assert "degenerate on" in batch[0]
    assert batch[2] == (0.0, math.inf)
    assert batch == _pair_outcomes(pairs, 1000, 0.9, 0)
    for (num, den), outcome in zip(pairs, batch):
        assert _vaf_outcome(num, den, b=1000, ci_level=0.9, seed=0) == outcome


def test_one_draw_pass_per_distinct_size_pair(monkeypatch):
    calls = []
    original = metrics._resample_chunks

    def counting(seed, tag, b, sizes):
        calls.append(tuple(sizes))
        return original(seed, tag, b, sizes)

    monkeypatch.setattr(metrics, "_resample_chunks", counting)
    fractions = [0.0, 1 / 3, 2 / 3, 1.0]
    sizes = [(3, 4), (3, 4), (5, 4), (3, 4), (4, 3), (5, 4)]
    pairs = [([fractions[(i + j) % 4] for j in range(n_num)],
              [fractions[(i + 2 * j) % 4] for j in range(n_den)])
             for i, (n_num, n_den) in enumerate(sizes)]
    _batch([_per_task(num, den) for num, den in pairs], 1000, 0.95, 0)
    assert sorted(calls) == [(3, 4), (4, 3), (5, 4)]


def test_batch_never_holds_every_index_row():
    fractions = [0.0, 1 / 3, 2 / 3, 1.0]
    n_selections, n_tasks, b = 32, 24, 10000
    per_tasks = []
    for s in range(n_selections):
        draws = np.random.default_rng(s).integers(0, 4, size=2 * n_tasks)
        per_tasks.append(_per_task([fractions[d] for d in draws[:n_tasks]],
                                   [fractions[d] for d in draws[n_tasks:]]))
    _batch(per_tasks[:1], 1000, 0.95, 1)  # lazy imports and caches, not per-call memory
    tracemalloc.start()
    try:
        results = _batch(per_tasks, b, 0.95, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(isinstance(result, MetricError) for result in results)
    # One (b, 48) int64 index matrix, plus the b float64 statistics per
    # selection that its percentiles are taken over.
    assert peak < b * 2 * n_tasks * 8 + n_selections * b * 8


def test_unknown_task_fails_only_its_own_selection():
    fractions = [0.0, 1 / 3, 2 / 3, 1.0]
    pairs = [([fractions[(i + j) % 4] for j in range(5)],
              [fractions[(i + 2 * j) % 4] for j in range(4)]) for i in range(3)]
    per_tasks = [_per_task(num, den) for num, den in pairs]
    # Both ids are unknown; the first in sorted order is the one named.
    per_tasks[1].update({"x-late": 0.5, "u-early": 0.5})
    message = "vaf: task 'u-early' not in registry"
    batch = _batch_outcomes(per_tasks, 1000, 0.95, 4)
    assert batch[1] == message
    with pytest.raises(MetricError) as alone:
        vaf(per_tasks[1], _REGISTRY)
    assert str(alone.value) == message
    # The neighbours share one draw pass; each gets what it gets alone.
    for s in (0, 2):
        assert batch[s] == _batch_outcomes(per_tasks[s:s + 1], 1000, 0.95, 4)[0]
        assert isinstance(batch[s], tuple) and batch[s][0] < batch[s][1]


def _reference_pool_variances(pool, memo):
    """``_pool_variances`` as it was before count rows were keyed by their
    bytes, kept verbatim: one tuple and one memo lookup per count row, and
    no bound on the memo."""
    levels = sorted(dict.fromkeys(pool))
    rank = {v: j for j, v in enumerate(levels)}
    level_of = np.array([rank[v] for v in pool], dtype=np.int64)
    level_memo = memo.setdefault(tuple(levels), {})

    def variances(rows):
        n_rows, n_levels = len(rows), len(levels)
        codes = level_of[rows] + n_levels * np.arange(n_rows)[:, None]
        counts = np.bincount(codes.ravel(), minlength=n_rows * n_levels).reshape(n_rows, n_levels)
        out = np.empty(n_rows)
        for r, row in enumerate(map(tuple, counts.tolist())):
            var = level_memo.get(row)
            if var is None:
                var = level_memo[row] = _level_pvar(levels, row)
            out[r] = var
        return out, np.count_nonzero(counts, axis=1)

    return variances


@pytest.mark.parametrize("count_columns", [None, 8], ids=["union", "groups"])
@pytest.mark.parametrize("memo_entries", [metrics._MEMO_ENTRIES, 5], ids=["memo", "tiny_memo"])
@pytest.mark.parametrize("n_levels, size", [(1, 9), (2, 9), (4, 9), (9, 20), (4, 300)])
def test_pool_variances_equal_the_per_row_loop(n_levels, size, memo_entries, count_columns,
                                               monkeypatch):
    """Every pool of a pass, bit for bit, on every chunk, also once the memo
    is full and when the pools are counted in groups; a full memo takes no
    more rows, so it never holds more than its bound and one chunk's count
    rows. The pools hold different level sets, so the union has levels that
    some pool never draws; in a pool of 300 one level is drawn past 255
    times."""
    monkeypatch.setattr(metrics, "_MEMO_ENTRIES", memo_entries)
    if count_columns is not None:
        monkeypatch.setattr(metrics, "_COUNT_COLUMNS", count_columns)
    levels = [0.0, -0.0, 1 / 3, 2 / 3, 1.0, 1 / 7, 0.5, 0.25, 0.75, 0.125][:n_levels + (n_levels > 1)]
    pools = [
        [levels[(i * 7) % len(levels)] for i in range(size)],
        [[*levels, 0.9][(i * 5) % (len(levels) + 1)] for i in range(size)],
        [levels[-1] if i % 3 else 0.6 for i in range(size)],
        [-0.0 if i % 10 else 0.3 for i in range(size)],
    ]
    memo = {}
    fast = _pool_variances(pools, memo)
    references = [_reference_pool_variances(pool, {}) for pool in pools]
    for chunk in _resample_chunks(3, "bootstrap", 1001, [size]):
        got, got_levels = fast(chunk)
        assert got.shape == got_levels.shape == (len(pools), len(chunk))
        for p, reference in enumerate(references):
            want, want_levels = reference(chunk)
            assert got[p].dtype == want.dtype and got[p].tobytes() == want.tobytes(), p
            assert np.array_equal(got_levels[p], want_levels), p
        for level_memo in memo.values():
            assert len(level_memo) < memo_entries + rng._CHUNK * len(pools)
    union = {v for pool in pools for v in pool}
    if count_columns is None:
        assert [len(key) for key in memo] == [len(union)]
    else:
        assert len(memo) > 1
        assert set().union(*memo) == union


if __name__ == "__main__":
    _oracle.campaign(200)
