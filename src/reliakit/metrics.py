"""Population-level reliability statistics over episode collections.

Inputs are the immutable episodes and tasks from :mod:`reliakit.trajectory`.
Everything here is a pure function; episodes whose termination is
``infra_error`` are excluded from every denominator before any statistic
is formed. Rates are kept as fractions throughout; formatting to percent
happens only at the report boundary.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .rng import _resample_chunks
from .trajectory import BUCKETS, Episode, TaskSpec, episode_gds

__all__ = [
    "CurvePoint",
    "DegenerateStatisticError",
    "MetricCurve",
    "MetricError",
    "MetricWarning",
    "ScaffoldComparison",
    "DomainTable",
    "VafResult",
    "bootstrap_ci",
    "decomposition_gain",
    "domain_stratify",
    "early_failure_rate",
    "geometric_baseline",
    "ols_slope",
    "outcome_groups",
    "pass_at_1",
    "pass_pow_k",
    "per_task_pass1",
    "rdc",
    "rds",
    "scaffold_delta",
    "superlinearity_ratio",
    "vaf",
    "wald_interval",
    "wilson_interval",
]


class MetricError(ValueError):
    """Raised when a statistic's preconditions are not met."""


class DegenerateStatisticError(MetricError):
    """A statistic is undefined on this input (for example a zero-variance
    denominator); this signals a saturated or floored population, not a bug."""


class MetricWarning(UserWarning):
    """Soft statistical issues: ragged repeat counts, skipped groups."""


# Midpoint of each duration bucket's human-minutes band, used as the
# physical-time regressor for decay slopes.
BUCKET_MINUTES_MIDPOINT = {"short": 2.5, "medium": 17.5, "long": 75.0, "very_long": 150.0}

REGRESSORS = ("bucket_index_1to4", "bucket_index_0to3", "human_minutes_midpoint")

# The most resamples whose float64 buffer numpy can allocate: its bytes
# must not exceed sys.maxsize.
_MAX_BOOTSTRAP_B = sys.maxsize // 8

DEFAULT_VAF_NUMERATOR = ("long", "very_long")
DEFAULT_VAF_DENOMINATOR = ("short", "medium")

# short/medium/long exponents follow the worked early-decay examples; the
# very_long value extrapolates the doubling pattern and reports label it so.
DEFAULT_GEOMETRIC_EXPONENTS = {"short": 1, "medium": 2, "long": 4, "very_long": 8}

SCAFFOLD_NEUTRAL_BAND = 0.03
_SCAFFOLD_BUCKETS = ("long", "very_long")
# Absolute grace applied to the neutrality band so a delta that is 0.03 in
# exact arithmetic is not pushed over the boundary by float residue.
_NEUTRAL_GRACE = 1e-9


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _pvar(values: Sequence[float]) -> float:
    """Population variance with order-independent summation."""
    m = _mean(values)
    return math.fsum((v - m) ** 2 for v in values) / len(values)


def _task(registry: Mapping[str, TaskSpec], task_id: str, owner: str,
          error: type[Exception] = MetricError) -> TaskSpec:
    task = registry.get(task_id)
    if task is None:
        raise error(f"{owner}: task {task_id!r} not in registry")
    return task


def _joined(episodes: Iterable[Episode], registry: Mapping[str, TaskSpec],
            error: type[Exception] = MetricError) -> Iterator[tuple[Episode, TaskSpec]]:
    """Each non-infra episode paired with its registry task, in input order;
    an unknown task raises ``error``."""
    for ep in episodes:
        if not ep.is_infra_failure:
            yield ep, _task(registry, ep.task_id, f"episode {ep.episode_id!r}", error)


# --- outcome grouping -----------------------------------------------------

@dataclass(frozen=True)
class TaskOutcomeGroup:
    """All repeats of one (task, model, scaffold) triple.

    ``repeats`` holds (passed, gds) per episode in input order.
    """

    task_id: str
    model_id: str
    scaffold: str
    repeats: tuple[tuple[bool, float], ...]

    @property
    def k(self) -> int:
        return len(self.repeats)


def outcome_groups(
    episodes: Iterable[Episode],
    registry: Mapping[str, TaskSpec],
    *,
    model_id: str | None = None,
    scaffold: str | None = None,
) -> list[TaskOutcomeGroup]:
    """Group non-infra episodes by (task, model, scaffold), in input order."""
    selected = (ep for ep in episodes
                if (model_id is None or ep.model_id == model_id)
                and (scaffold is None or ep.scaffold == scaffold))
    return _outcome_groups((ep, task, episode_gds(ep, task))
                           for ep, task in _joined(selected, registry))


# A non-infra episode, its registry task and its GDS: the row that the
# pipeline keeps per analyzed episode and the table helpers group over.
_GdsRow = tuple[Episode, TaskSpec, float]


def _outcome_groups(rows: Iterable[_GdsRow]) -> list[TaskOutcomeGroup]:
    """outcome_groups over joined rows."""
    collected: dict[tuple[str, str, str], list[tuple[bool, float]]] = {}
    for ep, _, gds in rows:
        key = (ep.task_id, ep.model_id, ep.scaffold)
        collected.setdefault(key, []).append((ep.passed, gds))
    return [
        TaskOutcomeGroup(task_id=t, model_id=m, scaffold=s, repeats=tuple(reps))
        for (t, m, s), reps in collected.items()
    ]


def pass_at_1(groups: Sequence[TaskOutcomeGroup]) -> float:
    """Fraction of all episodes (every repeat counted) that passed."""
    total = sum(g.k for g in groups)
    if total == 0:
        raise MetricError("pass_at_1: empty input")
    passed = sum(1 for g in groups for ok, _ in g.repeats if ok)
    return passed / total


def pass_pow_k(groups: Sequence[TaskOutcomeGroup]) -> float:
    """Fraction of tasks whose every repeat passed, each group judged at
    its own k. Ragged ks are legal but flagged, since a group that lost a
    repeat faces an easier all-pass bar."""
    if not groups:
        raise MetricError("pass_pow_k: empty input")
    ks = sorted({g.k for g in groups})
    if len(ks) > 1:
        warnings.warn(f"pass_pow_k: mixed repeat counts {ks}; using each group's own k",
                      MetricWarning, stacklevel=2)
    elif ks[0] < 2:
        warnings.warn("pass_pow_k: k=1 groups reduce this to pass_at_1",
                      MetricWarning, stacklevel=2)
    all_pass = sum(1 for g in groups if all(ok for ok, _ in g.repeats))
    return all_pass / len(groups)


def per_task_pass1(groups: Sequence[TaskOutcomeGroup]) -> dict[str, float]:
    """Per-task pass fraction over that task's own repeats.

    Groups must come from a single (model, scaffold) selection; a repeated
    task_id would silently conflate models, so it is an error here.
    """
    out: dict[str, float] = {}
    for g in groups:
        if g.task_id in out:
            raise MetricError(
                f"per_task_pass1: task {g.task_id!r} appears in more than one group;"
                " filter to a single model and scaffold first")
        out[g.task_id] = sum(1 for ok, _ in g.repeats if ok) / g.k
    return out


# --- confidence intervals -------------------------------------------------

def _z(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise MetricError(f"confidence level {level} outside (0, 1)")
    return NormalDist().inv_cdf((1.0 + level) / 2.0)


def wald_halfwidth(p_hat: float, n: int, level: float = 0.95) -> float:
    """Unclamped normal-approximation half-width z * sqrt(p(1-p)/n)."""
    if n < 1:
        raise MetricError("wald_halfwidth: n must be >= 1")
    return _z(level) * math.sqrt(p_hat * (1.0 - p_hat) / n)


def wald_interval(p_hat: float, n: int, level: float = 0.95) -> tuple[float, float]:
    """Wald interval around an already-computed proportion, clamped to [0, 1].

    Degenerate at p_hat 0 or 1 by construction: the half-width collapses
    before clamping ever applies.
    """
    if not 0.0 <= p_hat <= 1.0:
        raise MetricError(f"wald_interval: p_hat {p_hat} outside [0, 1]")
    half = wald_halfwidth(p_hat, n, level)
    return max(0.0, p_hat - half), min(1.0, p_hat + half)


def wilson_interval(p_hat: float, n: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval; better behaved near 0/1 than Wald."""
    if not 0.0 <= p_hat <= 1.0:
        raise MetricError(f"wilson_interval: p_hat {p_hat} outside [0, 1]")
    if n < 1:
        raise MetricError("wilson_interval: n must be >= 1")
    z = _z(level)
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4 * n * n))
    low = max(0.0, center - half)
    high = min(1.0, center + half)
    # At the boundaries the score equation has an exact root at p_hat itself;
    # evaluating it in floats leaves dust that would exclude the estimate.
    if p_hat == 0.0:
        low = 0.0
    if p_hat == 1.0:
        high = 1.0
    return low, high


_CI_METHODS: dict[str, Callable[[float, int, float], tuple[float, float]]] = {
    "wald": wald_interval,
    "wilson": wilson_interval,
}


# --- decay curves ---------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    value: float
    n_tasks: int
    ci_low: float
    ci_high: float
    n_episodes: int


@dataclass(frozen=True)
class MetricCurve:
    """Bucket-indexed reliability curve for one (model, scaffold) selection.

    ``points`` is keyed by bucket name in duration order. The interval is a
    task-count Wald/Wilson interval for pass1; for passk and gds no interval
    method is defined and the interval collapses to the point value.
    """

    metric_name: str
    points: Mapping[str, CurvePoint]


_CURVE_METRICS = ("pass1", "passk", "gds")


def rdc(
    episodes: Iterable[Episode],
    registry: Mapping[str, TaskSpec],
    metric: str = "pass1",
    *,
    model_id: str | None = None,
    scaffold: str | None = None,
    ci_level: float = 0.95,
    ci_method: str = "wald",
) -> MetricCurve:
    """Reliability decay curve: duration bucket to metric value.

    The confidence interval for pass1 is computed at the bucket's task
    count, not its episode count: repeats of one task share the task and
    are not independent draws, and the task count is what reproduces the
    published interval widths.
    """
    if metric not in _CURVE_METRICS:
        raise MetricError(f"rdc: unknown metric {metric!r} (expected one of {_CURVE_METRICS})")
    if ci_method not in _CI_METHODS:
        raise MetricError(f"rdc: unknown ci_method {ci_method!r}")
    groups = outcome_groups(episodes, registry, model_id=model_id, scaffold=scaffold)
    if not groups:
        raise MetricError(f"rdc: no episodes for model={model_id!r} scaffold={scaffold!r}")
    return _curve(groups, registry, metric, ci_level, ci_method)


def _curve(groups: Sequence[TaskOutcomeGroup], registry: Mapping[str, TaskSpec],
           metric: str, ci_level: float = 0.95, ci_method: str = "wald") -> MetricCurve:
    """The curve of one selection's outcome groups, bucketed by task."""
    by_bucket: dict[str, list[TaskOutcomeGroup]] = {}
    for g in groups:
        by_bucket.setdefault(registry[g.task_id].bucket, []).append(g)
    points: dict[str, CurvePoint] = {}
    for bucket in BUCKETS:
        cell = by_bucket.get(bucket)
        if not cell:
            continue
        n_tasks = len(cell)
        n_episodes = sum(g.k for g in cell)
        if metric == "pass1":
            value = pass_at_1(cell)
            low, high = _CI_METHODS[ci_method](value, n_tasks, ci_level)
        elif metric == "passk":
            value = pass_pow_k(cell)
            low = high = value
        else:
            value = _mean([gds for g in cell for _, gds in g.repeats])
            low = high = value
        points[bucket] = CurvePoint(value=value, n_tasks=n_tasks,
                                    ci_low=low, ci_high=high, n_episodes=n_episodes)
    return MetricCurve(metric_name=metric, points=points)


def ols_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ys against xs."""
    if len(xs) != len(ys):
        raise MetricError("ols_slope: length mismatch")
    n = len(xs)
    if n < 2:
        raise MetricError("ols_slope: need at least 2 points")
    x_bar = _mean(xs)
    y_bar = _mean(ys)
    sxx = math.fsum((x - x_bar) ** 2 for x in xs)
    if sxx == 0.0:
        raise MetricError("ols_slope: zero regressor variance")
    sxy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    return sxy / sxx


def rds(curve: MetricCurve, regressor: str = "bucket_index_1to4") -> float:
    """Decay slope of a curve against the chosen duration regressor."""
    if regressor not in REGRESSORS:
        raise MetricError(f"rds: unknown regressor {regressor!r} (expected one of {REGRESSORS})")
    xs: list[float] = []
    ys: list[float] = []
    for i, bucket in enumerate(BUCKETS):
        point = curve.points.get(bucket)
        if point is None:
            continue
        if regressor == "bucket_index_1to4":
            xs.append(float(i + 1))
        elif regressor == "bucket_index_0to3":
            xs.append(float(i))
        else:
            xs.append(BUCKET_MINUTES_MIDPOINT[bucket])
        ys.append(point.value)
    return ols_slope(xs, ys)


# --- variance amplification -----------------------------------------------

@dataclass(frozen=True)
class VafResult:
    model_id: str
    vaf: float
    ci_low: float
    ci_high: float
    numerator_buckets: tuple[str, ...]
    denominator_buckets: tuple[str, ...]
    n_num_tasks: int
    n_den_tasks: int


def _variance_ratio(num_values: Sequence[float], den_values: Sequence[float]) -> float:
    den_var = _pvar(den_values)
    # min == max catches identical values whose fsum mean leaves float dust;
    # den_var == 0.0 catches differences so small that the variance underflows
    if min(den_values) == max(den_values) or den_var == 0.0:
        raise DegenerateStatisticError(
            "vaf: denominator task-level variance is zero"
            " (all denominator tasks have identical pass fractions;"
            " the model is saturated or floored on those buckets)")
    return _pvar(num_values) / den_var


def vaf(
    per_task: Mapping[str, float],
    task_meta: Mapping[str, TaskSpec],
    numerator_buckets: Sequence[str] = DEFAULT_VAF_NUMERATOR,
    denominator_buckets: Sequence[str] = DEFAULT_VAF_DENOMINATOR,
    *,
    model_id: str = "",
    b: int = 0,
    ci_level: float = 0.95,
    seed: int = 0,
) -> VafResult:
    """Ratio of task-level pass-fraction population variances.

    With ``b`` > 0 a percentile bootstrap interval is attached, resampling
    the numerator and denominator task sets independently; it equals
    ``bootstrap_ci(_variance_ratio, (numerator, denominator), ...)`` bit for
    bit. With ``b`` = 0 the interval collapses to the point estimate.
    """
    (result,) = _vafs([(model_id, per_task)], task_meta, numerator_buckets,
                      denominator_buckets, b, ci_level, seed)
    if isinstance(result, MetricError):
        raise result
    return result


def _vafs(
    selections: Sequence[tuple[str, Mapping[str, float]]],
    task_meta: Mapping[str, TaskSpec],
    numerator_buckets: Sequence[str],
    denominator_buckets: Sequence[str],
    b: int,
    ci_level: float,
    seed: int,
) -> list[VafResult | MetricError]:
    """``vaf`` of each ``(model_id, per_task)`` selection, or the
    MetricError it raises.

    Index rows depend only on the seed and the pool sizes, so selections
    with equal pool sizes are fed one pass over the same rows, in which
    every selection's variances are computed at once (``_variance_ratios``).
    """
    for name, buckets in (("numerator", numerator_buckets), ("denominator", denominator_buckets)):
        unknown = [bk for bk in buckets if bk not in BUCKETS]
        if unknown or not buckets:
            raise MetricError(f"vaf: bad {name} bucket set {tuple(buckets)!r}")
    results: list[VafResult | MetricError] = []
    # (numerator size, denominator size) -> (result index, numerator, denominator)
    by_sizes: dict[tuple[int, int], list[tuple[int, list[float], list[float]]]] = {}
    for model_id, per_task in selections:
        num_values: list[float] = []
        den_values: list[float] = []
        try:
            for task_id in sorted(per_task):
                bucket = _task(task_meta, task_id, "vaf").bucket
                if bucket in numerator_buckets:
                    num_values.append(per_task[task_id])
                if bucket in denominator_buckets:
                    den_values.append(per_task[task_id])
            if len(num_values) < 2 or len(den_values) < 2:
                raise MetricError(
                    f"vaf: need at least 2 tasks per side, got {len(num_values)} numerator"
                    f" and {len(den_values)} denominator")
            point = _variance_ratio(num_values, den_values)
        except MetricError as exc:
            results.append(exc)
            continue
        by_sizes.setdefault((len(num_values), len(den_values)), []).append(
            (len(results), num_values, den_values))
        results.append(VafResult(
            model_id=model_id, vaf=point, ci_low=point, ci_high=point,
            numerator_buckets=tuple(numerator_buckets),
            denominator_buckets=tuple(denominator_buckets),
            n_num_tasks=len(num_values), n_den_tasks=len(den_values),
        ))
    for sizes, members in by_sizes.items() if b else ():
        statistic = _variance_ratios([num for _, num, _ in members],
                                     [den for _, _, den in members])
        intervals = _percentile_bootstrap(sizes, b, ci_level, seed, len(members), statistic)
        for (i, _, _), interval in zip(members, intervals):
            if isinstance(interval, MetricError):
                results[i] = interval
            else:
                low, high = interval
                results[i] = dataclasses.replace(results[i], ci_low=low, ci_high=high)
    return results


def bootstrap_ci(
    statistic: Callable[..., float],
    units: Sequence,
    b: int = 10000,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval from B task-level resamples.

    ``units`` is either one sequence of records (resampled as a single
    pool, passed to ``statistic`` as one argument) or a tuple of sequences
    (each pool resampled independently, passed as separate arguments); the
    independent form is what ratio statistics need. Resample ``i`` draws
    exactly what ``substream(seed, "bootstrap", i)`` would (see
    ``rng._resample_chunks``), so the interval is reproducible and
    independent of evaluation order. Resamples on which the statistic
    is degenerate are dropped; more than 20% of them is an error.
    """
    if isinstance(units, tuple) and units and all(isinstance(u, (list, tuple)) for u in units):
        pools: tuple[Sequence, ...] = units
        single = False
    else:
        pools = (units,)
        single = True
    ends = list(itertools.accumulate(len(pool) for pool in pools))
    spans = list(zip(pools, [0, *ends], ends))

    def chunk_statistic(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = np.zeros((1, len(chunk)))
        defined = np.zeros((1, len(chunk)), dtype=bool)
        for r, idx in enumerate(chunk.tolist()):
            samples = [[pool[j] for j in idx[lo:hi]] for pool, lo, hi in spans]
            try:
                stat = statistic(samples[0]) if single else statistic(*samples)
            except DegenerateStatisticError:
                continue
            values[0, r] = float(stat)
            defined[0, r] = True
        return values, defined

    (interval,) = _percentile_bootstrap([len(pool) for pool in pools], b, level, seed, 1,
                                        chunk_statistic)
    if isinstance(interval, MetricError):
        raise interval
    return interval


# Maps a chunk of index rows (``rng._resample_chunks``) to each statistic's
# value on each row and whether it is defined there (false on a degenerate
# resample), as two (statistics, rows) arrays.
_ChunkStatistic = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _percentile_bootstrap(
    sizes: Sequence[int],
    b: int,
    level: float,
    seed: int,
    n_statistics: int,
    chunk_statistic: _ChunkStatistic,
) -> list[tuple[float, float] | MetricError]:
    """The interval of ``bootstrap_ci`` over pools of ``sizes`` for each of
    the ``n_statistics`` that ``chunk_statistic`` computes, from one pass
    over the index rows: every statistic sees the same rows. A statistic
    degenerate on more than 20% of the resamples gets the MetricError that
    ``bootstrap_ci`` raises in place of its interval."""
    if b < 1000:
        raise MetricError(f"bootstrap_ci: b={b} is below the 1000-resample floor")
    if b > _MAX_BOOTSTRAP_B:
        raise MetricError(f"bootstrap_ci: b={b} is above {_MAX_BOOTSTRAP_B}, the most"
                          " resamples numpy can hold")
    if not 0.0 < level < 1.0:
        raise MetricError(f"bootstrap_ci: level {level} outside (0, 1)")
    if any(n == 0 for n in sizes):
        raise MetricError("bootstrap_ci: empty resampling pool")
    try:
        kept = [np.empty(b) for _ in range(n_statistics)]
    except MemoryError as exc:
        raise MetricError(f"bootstrap_ci: b={b} resamples need {8 * b} bytes per statistic,"
                          " more than this machine can allocate") from exc
    filled = [0] * n_statistics
    for chunk in _resample_chunks(seed, "bootstrap", b, sizes):
        values, defined = chunk_statistic(chunk)
        for s, (row_values, row_defined) in enumerate(zip(values, defined)):
            row_kept = row_values[row_defined]
            kept[s][filled[s]:filled[s] + len(row_kept)] = row_kept
            filled[s] += len(row_kept)
    out: list[tuple[float, float] | MetricError] = []
    for values, n_kept in zip(kept, filled):
        degenerate = b - n_kept
        if degenerate > 0.2 * b:
            out.append(MetricError(
                f"bootstrap_ci: statistic degenerate on {degenerate / b:.1%} of {b} resamples"
                " (more than the 20% tolerance)"))
            continue
        out.append(_percentile_interval(values[:n_kept], level))
    return out


def _percentile_interval(values: np.ndarray, level: float) -> tuple[float, float]:
    """``_percentiles`` at the two tails of ``level``."""
    tail = 100.0 * (1.0 - level) / 2.0
    low, high = _percentiles(values, [tail, 100.0 - tail])
    return low, high


def _percentiles(values: Sequence[float] | np.ndarray, qs: Sequence[float]) -> list[float]:
    """``np.percentile(values, qs)`` for percentiles ``qs`` in [0, 100], by
    numpy's default "linear" method (definition 7 of Hyndman & Fan 1996),
    each result nan there taken by its "higher" method instead.

    The same arithmetic as numpy's, without ``np.percentile``, which loads
    ``numpy.ma``: the same ``partition`` calls, so that equal values of
    opposite sign land where numpy puts them; the same ``(n - 1) * (q / 100)``
    virtual index; and the same two-sided lerp, ``a + d * t`` or, when
    t >= 0.5, ``b - d * (1 - t)``. Interpolating next to an infinite value
    (a ratio whose denominator underflowed), or across a difference that
    overflows, computes inf - inf or inf * 0, which is nan; the "higher"
    result is then the infinite neighbour, or the value itself when its
    weight is 0. A nan among the values makes every result nan.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    virtual = [(n - 1) * (q / 100) for q in qs]
    # Each result's neighbours; the last value's are itself.
    below = [-1 if v >= n - 1 else math.floor(v) for v in virtual]
    above = [-1 if v >= n - 1 else i + 1 for v, i in zip(virtual, below)]
    ordered = values.copy()
    ordered.partition(np.array(sorted({0, -1, *below, *above})))
    if math.isnan(ordered[-1]):
        return [float(ordered[-1])] * len(qs)
    results = []
    for v, i, j in zip(virtual, below, above):
        lower, upper = float(ordered[i]), float(ordered[j])
        t = v - i
        d = upper - lower
        results.append(lower + d * t if t < 0.5 else upper - d * (1 - t))
    if any(math.isnan(result) for result in results):
        higher = [math.ceil(v) for v in virtual]
        ordered = values.copy()
        ordered.partition(np.array([*higher, -1]))
        results = [float(ordered[h]) if math.isnan(result) else result
                   for result, h in zip(results, higher)]
    return results


def _repeated(values: Sequence[float], counts: Sequence[int]) -> Iterator[float]:
    return itertools.chain.from_iterable(map(itertools.repeat, values, counts))


def _level_pvar(levels: Sequence[float], counts: Sequence[int]) -> float:
    """``_pvar`` of the multiset holding ``levels[j]`` ``counts[j]`` times.
    It sums the same terms as ``_pvar`` and ``fsum`` is exactly rounded, so
    the order of the terms cannot change the result; a level counted 0
    times adds no term and is not squared."""
    n = sum(counts)
    m = math.fsum(_repeated(levels, counts)) / n
    return math.fsum(_repeated([(v - m) ** 2 if c else 0.0 for v, c in zip(levels, counts)],
                               counts)) / n


# Each level set's count rows, as raw bytes, mapped to their ``_level_pvar``.
_VarianceMemo = dict[tuple[float, ...], dict[bytes, float]]
# A level set's memo takes no new rows once it holds this many (about 13 MB
# with five levels and one-byte counts).
# A 198-task pool with five levels draws few rows twice, and the rows drawn
# first are the likeliest to recur: dropping a full memo instead missed more.
_MEMO_ENTRIES = 1 << 17
# The most count columns (pools times levels) one product computes, so the
# 0/1 matrix is no larger than a chunk of index rows into the pools. Pools
# past it are counted in further groups, and a pool with more levels than
# this is counted alone by its level codes.
_COUNT_COLUMNS = 1 << 8


def _pool_variances(
    pools: Sequence[Sequence[float]], memo: _VarianceMemo,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """For pools of one size, a function from a block of index rows into
    them to each pool's ``_pvar`` on each row and its number of distinct
    values there, as two (pools, rows) arrays.

    Values are one level when ``==`` (a dict's key test, so 0.0 and -0.0
    are one level, as they are to ``min`` and ``max``). A row's ``_pvar``
    depends only on how often it drew each level. So the block's draw counts
    (rows by pool size, one ``bincount``) times a 0/1 matrix (pool size by
    pools times levels) give every pool's level counts at once, exactly:
    each is an integer no larger than the pool size. Levels are the sorted
    union over the pools, or over each group of pools when that union is
    wide (see ``_COUNT_COLUMNS``); a level a row did not draw adds no term
    to ``_level_pvar``. Each distinct count row is found by sorting,
    computed once and remembered in ``memo`` under its level set, until
    that holds ``_MEMO_ENTRIES`` rows.
    """
    n = len(pools[0])
    # (first pool, one past the last, their union of levels) per group.
    spans: list[tuple[int, int, dict[float, None]]] = []
    start, union = 0, {}
    for p, pool in enumerate(pools):
        wider = union | dict.fromkeys(pool)
        if p > start and len(wider) * (p + 1 - start) > _COUNT_COLUMNS:
            spans.append((start, p, union))
            start, wider = p, dict.fromkeys(pool)
        union = wider
    spans.append((start, len(pools), union))
    groups = []
    for first, last, union in spans:
        levels = tuple(sorted(union))
        rank = {v: j for j, v in enumerate(levels)}
        codes = np.array([[rank[v] for v in pool] for pool in pools[first:last]])
        onehot = None
        if (last - first) * len(levels) <= _COUNT_COLUMNS:
            onehot = np.zeros((n, last - first, len(levels)))
            onehot[np.arange(n), np.arange(last - first)[:, None], codes] = 1.0
            onehot = onehot.reshape(n, -1)
        groups.append((first, last, levels, onehot, codes[0]))

    def variances(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_rows = len(rows)
        draws = np.bincount((rows + n * np.arange(n_rows)[:, None]).ravel(),
                            minlength=n_rows * n).reshape(n_rows, n)
        out = np.empty((len(pools), n_rows))
        n_drawn = np.empty((len(pools), n_rows), dtype=np.int64)
        for first, last, levels, onehot, codes in groups:
            width = len(levels)
            if onehot is None:  # one pool: count its level codes, as the product would
                counts = np.bincount((codes[rows] + width * np.arange(n_rows)[:, None]).ravel(),
                                     minlength=n_rows * width)
            else:
                counts = draws @ onehot
            # Level by level, column r * pools + g holds pool g's count on
            # index row r. A count is at most n, so n's dtype holds it, and
            # np.lexsort radix-sorts columns that narrow.
            counts = counts.astype(np.min_scalar_type(n)).reshape(-1, width).T.copy()
            order = np.lexsort(counts)
            ordered = np.take(counts, order, axis=1)
            new = np.ones(len(order), dtype=bool)
            new[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
            inverse = np.empty(len(order), dtype=np.intp)
            inverse[order] = np.cumsum(new) - 1
            distinct = np.compress(new, ordered, axis=1).T.copy()
            out[first:last] = _distinct_variances(levels, distinct, memo)[inverse].reshape(
                n_rows, -1).T
            n_drawn[first:last] = np.count_nonzero(distinct, axis=1)[inverse].reshape(
                n_rows, -1).T
        return out, n_drawn

    return variances


def _distinct_variances(levels: tuple[float, ...], counts: np.ndarray,
                        memo: _VarianceMemo) -> np.ndarray:
    """``_level_pvar`` of each count row over ``levels``, from ``memo``
    where it holds the row; a level memo takes new rows until it holds
    ``_MEMO_ENTRIES``."""
    level_memo = memo.setdefault(levels, {})
    # Each row's raw bytes are its key: no radix, so no overflow.
    keys = counts.view(f"V{counts.itemsize * len(levels)}").ravel().tolist()
    out = list(map(level_memo.get, keys))
    if None in out:
        missed: dict[bytes, float] = {}
        rows = counts.tolist()
        for r, var in enumerate(out):
            if var is None:
                out[r] = missed[keys[r]] = _level_pvar(levels, rows[r])
        if len(level_memo) < _MEMO_ENTRIES:
            level_memo.update(missed)
    return np.array(out)


def _variance_ratios(nums: Sequence[Sequence[float]],
                     dens: Sequence[Sequence[float]]) -> _ChunkStatistic:
    """``_variance_ratio`` of each (nums[s], dens[s]) pair on each index row
    over the two pools, as a chunk statistic. Every numerator has one size
    and every denominator another; both sides share one variance memo."""
    memo: _VarianceMemo = {}
    num_variances = _pool_variances(nums, memo)
    den_variances = _pool_variances(dens, memo)
    split = len(nums[0])

    def chunk_statistic(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        num_var, _ = num_variances(chunk[:, :split])
        den_var, den_levels = den_variances(chunk[:, split:])
        # _variance_ratio's own conditions: min == max, or a zero variance.
        defined = (den_levels > 1) & (den_var != 0.0)
        # Python's float division overflows to inf silently; so does this.
        # Where the ratio is undefined its value is never read.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return num_var / den_var, defined

    return chunk_statistic


# --- stratification and deltas ---------------------------------------------

@dataclass(frozen=True)
class DomainCell:
    value: float
    n_episodes: int


@dataclass(frozen=True)
class DomainTable:
    """Domain-by-bucket cell means plus each domain's very_long minus short
    drop (negative when reliability decays with horizon)."""

    metric_name: str
    cells: Mapping[tuple[str, str], DomainCell]
    drops: Mapping[str, float]


def domain_stratify(
    episodes: Iterable[Episode],
    registry: Mapping[str, TaskSpec],
    metric: str = "gds",
) -> DomainTable:
    if metric not in ("gds", "pass1"):
        raise MetricError(f"domain_stratify: unknown metric {metric!r}")
    return _domain_table(
        ((task, episode_gds(ep, task) if metric == "gds" else float(ep.passed))
         for ep, task in _joined(episodes, registry)), metric)


def _domain_table(task_values: Iterable[tuple[TaskSpec, float]], metric: str) -> DomainTable:
    """domain_stratify over each joined episode's task and metric value."""
    values: dict[tuple[str, str], list[float]] = {}
    for task, v in task_values:
        values.setdefault((task.domain, task.bucket), []).append(v)

    domains = sorted({d for d, _ in values})
    cells: dict[tuple[str, str], DomainCell] = {}
    drops: dict[str, float] = {}
    for domain in domains:
        for bucket in BUCKETS:
            cell = values.get((domain, bucket))
            if cell:
                cells[(domain, bucket)] = DomainCell(value=_mean(cell), n_episodes=len(cell))
        short = cells.get((domain, "short"))
        very_long = cells.get((domain, "very_long"))
        if short is not None and very_long is not None:
            drops[domain] = very_long.value - short.value
    return DomainTable(metric_name=metric, cells=cells, drops=drops)


@dataclass(frozen=True)
class ScaffoldComparison:
    model_id: str
    react_value: float
    memory_value: float
    delta: float
    label: str
    n_react: int
    n_memory: int


def scaffold_delta(
    episodes: Iterable[Episode],
    registry: Mapping[str, TaskSpec],
    buckets: Sequence[str] = _SCAFFOLD_BUCKETS,
) -> list[ScaffoldComparison]:
    """Memory-minus-react mean GDS per model on the selected buckets.

    |delta| <= 0.03 is labeled neutral (inclusive, with float grace);
    otherwise the sign decides hurts/helps. Models missing either scaffold
    are skipped with a warning rather than guessed at.
    """
    unknown = [bk for bk in buckets if bk not in BUCKETS]
    if unknown or not buckets:
        raise MetricError(f"scaffold_delta: bad bucket set {tuple(buckets)!r}")
    return _scaffold_comparisons(((ep, task, episode_gds(ep, task))
                                  for ep, task in _joined(episodes, registry)
                                  if task.bucket in buckets), buckets)


def _scaffold_comparisons(rows: Iterable[_GdsRow],
                          buckets: Sequence[str] = _SCAFFOLD_BUCKETS) -> list[ScaffoldComparison]:
    """scaffold_delta over joined rows, keeping those of ``buckets``; a
    skipped model's warning names the caller of its caller."""
    gds_values: dict[str, dict[str, list[float]]] = {}
    for ep, task, gds in rows:
        if task.bucket in buckets:
            gds_values.setdefault(ep.model_id, {}).setdefault(ep.scaffold, []).append(gds)

    comparisons: list[ScaffoldComparison] = []
    for model_id in sorted(gds_values):
        per_scaffold = gds_values[model_id]
        if "react" not in per_scaffold or "memory" not in per_scaffold:
            present = sorted(per_scaffold)
            warnings.warn(
                f"scaffold_delta: model {model_id!r} has only {present}; skipped",
                MetricWarning, stacklevel=3)
            continue
        react = _mean(per_scaffold["react"])
        memory = _mean(per_scaffold["memory"])
        delta = memory - react
        if abs(delta) <= SCAFFOLD_NEUTRAL_BAND + _NEUTRAL_GRACE:
            label = "neutral"
        elif delta < 0:
            label = "hurts"
        else:
            label = "helps"
        comparisons.append(ScaffoldComparison(
            model_id=model_id, react_value=react, memory_value=memory, delta=delta,
            label=label, n_react=len(per_scaffold["react"]), n_memory=len(per_scaffold["memory"]),
        ))
    return comparisons


def early_failure_rate(
    episodes: Iterable[Episode],
    registry: Mapping[str, TaskSpec],
) -> dict[str, float]:
    """Per-bucket fraction of episodes whose first subtask outcome is false."""
    counts: dict[str, list[int]] = {}
    for ep, task in _joined(episodes, registry):
        if not ep.subtask_outcomes:
            raise MetricError(f"episode {ep.episode_id!r}: no subtask outcomes recorded")
        total_early = counts.setdefault(task.bucket, [0, 0])
        total_early[0] += 1
        total_early[1] += 0 if ep.subtask_outcomes[0] else 1
    return {bucket: counts[bucket][1] / counts[bucket][0]
            for bucket in BUCKETS if bucket in counts}


# --- baselines and endpoints ------------------------------------------------

def geometric_baseline(
    p_short: float,
    exponent_map: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """Predicted per-bucket pass rate if decay were geometric in p_short."""
    if not 0.0 <= p_short <= 1.0:
        raise MetricError(f"geometric_baseline: p_short {p_short} outside [0, 1]")
    exponents = DEFAULT_GEOMETRIC_EXPONENTS if exponent_map is None else exponent_map
    for bucket, exp in exponents.items():
        if bucket not in BUCKETS:
            raise MetricError(f"geometric_baseline: unknown bucket {bucket!r}")
        if exp <= 0:
            raise MetricError(f"geometric_baseline: exponent for {bucket!r} must be positive")
    return {bucket: p_short ** exponents[bucket] for bucket in BUCKETS if bucket in exponents}


def superlinearity_ratio(
    predicted: Mapping[str, float],
    observed: Mapping[str, float],
) -> dict[str, float]:
    """predicted / observed per bucket; > 1 means decay beat the geometric
    baseline. A zero observed rate yields inf, which reports must flag."""
    out: dict[str, float] = {}
    for bucket in BUCKETS:
        if bucket not in predicted or bucket not in observed:
            continue
        obs = observed[bucket]
        out[bucket] = math.inf if obs == 0 else predicted[bucket] / obs
    return out


def decomposition_gain(curve: MetricCurve) -> float:
    """Signed short-bucket minus very_long-bucket value of a curve."""
    short = curve.points.get("short")
    very_long = curve.points.get("very_long")
    if short is None or very_long is None:
        missing = [b for b in ("short", "very_long") if curve.points.get(b) is None]
        raise MetricError(f"decomposition_gain: curve missing {missing} endpoints")
    return short.value - very_long.value
