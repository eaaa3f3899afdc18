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
    collected: dict[tuple[str, str, str], list[tuple[bool, float]]] = {}
    for ep, task in _joined(selected, registry):
        key = (ep.task_id, ep.model_id, ep.scaffold)
        collected.setdefault(key, []).append((ep.passed, episode_gds(ep, task)))
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
    with equal pool sizes are fed one pass over the same rows, and the
    pools of a pass share one variance memo. A count row sums to its
    pool's size, so pools of other sizes seldom share one; each memo is
    dropped with its pass, which bounds what it holds to one pass's count
    rows.
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
        memo: _VarianceMemo = {}
        statistics = [_variance_ratios(num, den, memo) for _, num, den in members]
        intervals = _percentile_bootstrap(sizes, b, ci_level, seed, statistics)
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

    def chunk_statistic(chunk: np.ndarray) -> list[float]:
        values: list[float] = []
        for idx in chunk.tolist():
            samples = [[pool[j] for j in idx[lo:hi]] for pool, lo, hi in spans]
            try:
                stat = statistic(samples[0]) if single else statistic(*samples)
            except DegenerateStatisticError:
                continue
            values.append(float(stat))
        return values

    (interval,) = _percentile_bootstrap([len(pool) for pool in pools], b, level, seed,
                                        [chunk_statistic])
    if isinstance(interval, MetricError):
        raise interval
    return interval


# Maps a chunk of index rows (``rng._resample_chunks``) to the statistic on
# its non-degenerate resamples, in row order.
_ChunkStatistic = Callable[[np.ndarray], Sequence[float]]


def _percentile_bootstrap(
    sizes: Sequence[int],
    b: int,
    level: float,
    seed: int,
    chunk_statistics: Sequence[_ChunkStatistic],
) -> list[tuple[float, float] | MetricError]:
    """The interval of ``bootstrap_ci`` over pools of ``sizes`` for each
    statistic, from one pass over the index rows: every statistic sees the
    same rows. A statistic degenerate on more than 20% of the resamples
    gets the MetricError that ``bootstrap_ci`` raises in place of its
    interval."""
    if b < 1000:
        raise MetricError(f"bootstrap_ci: b={b} is below the 1000-resample floor")
    if b > _MAX_BOOTSTRAP_B:
        raise MetricError(f"bootstrap_ci: b={b} is above {_MAX_BOOTSTRAP_B}, the most"
                          " resamples numpy can hold")
    if not 0.0 < level < 1.0:
        raise MetricError(f"bootstrap_ci: level {level} outside (0, 1)")
    if any(n == 0 for n in sizes):
        raise MetricError("bootstrap_ci: empty resampling pool")
    kept = [np.empty(b) for _ in chunk_statistics]
    filled = [0] * len(chunk_statistics)
    for chunk in _resample_chunks(seed, "bootstrap", b, sizes):
        for s, chunk_statistic in enumerate(chunk_statistics):
            values = chunk_statistic(chunk)
            kept[s][filled[s]:filled[s] + len(values)] = values
            filled[s] += len(values)
    tail = 100.0 * (1.0 - level) / 2.0
    out: list[tuple[float, float] | MetricError] = []
    for values, n_kept in zip(kept, filled):
        degenerate = b - n_kept
        if degenerate > 0.2 * b:
            out.append(MetricError(
                f"bootstrap_ci: statistic degenerate on {degenerate / b:.1%} of {b} resamples"
                " (more than the 20% tolerance)"))
            continue
        values = values[:n_kept]
        with np.errstate(invalid="ignore"):
            bounds = np.percentile(values, [tail, 100.0 - tail])
        # Interpolating next to an infinite statistic (a ratio whose denominator
        # underflowed) computes inf - inf or inf * 0, which is nan. The bound is
        # then the upper neighbour: the infinite one, or the value itself when
        # its interpolation weight is 0.
        if np.isnan(bounds).any():
            bounds = np.where(np.isnan(bounds),
                              np.percentile(values, [tail, 100.0 - tail], method="higher"),
                              bounds)
        low, high = bounds
        out.append((float(low), float(high)))
    return out


def _repeated(values: Sequence[float], counts: Sequence[int]) -> Iterator[float]:
    return itertools.chain.from_iterable(map(itertools.repeat, values, counts))


def _level_pvar(levels: Sequence[float], counts: Sequence[int]) -> float:
    """``_pvar`` of the multiset holding ``levels[j]`` ``counts[j]`` times.
    It sums the same terms as ``_pvar`` and ``fsum`` is exactly rounded, so
    the order of the terms cannot change the result."""
    n = sum(counts)
    m = math.fsum(_repeated(levels, counts)) / n
    return math.fsum(_repeated([(v - m) ** 2 for v in levels], counts)) / n


# Each level set's count rows mapped to their ``_level_pvar``.
_VarianceMemo = dict[tuple[float, ...], dict[tuple[int, ...], float]]


def _pool_variances(
    pool: Sequence[float], memo: _VarianceMemo,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """For one pool, a function from a block of index rows into it to each
    row's ``_pvar`` and its number of distinct values.

    Values are one level when ``==`` (a dict's key test, so 0.0 and -0.0
    are one level, as they are to ``min`` and ``max``). A row's ``_pvar``
    depends only on how often it drew each level, so each distinct count
    row is computed once and remembered in ``memo`` under the pool's level
    set. Levels are counted in sorted order, so every pool with the same
    levels shares those entries.
    """
    levels = sorted(dict.fromkeys(pool))
    rank = {v: j for j, v in enumerate(levels)}
    level_of = np.array([rank[v] for v in pool], dtype=np.int64)
    level_memo = memo.setdefault(tuple(levels), {})

    def variances(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def _variance_ratios(num_values: Sequence[float], den_values: Sequence[float],
                     memo: _VarianceMemo) -> _ChunkStatistic:
    """``_variance_ratio`` on each index row over (num_values, den_values),
    from per-pool level counts, as a chunk statistic."""
    num_variances = _pool_variances(num_values, memo)
    den_variances = _pool_variances(den_values, memo)
    split = len(num_values)

    def chunk_statistic(chunk: np.ndarray) -> np.ndarray:
        num_var, _ = num_variances(chunk[:, :split])
        den_var, den_levels = den_variances(chunk[:, split:])
        # _variance_ratio's own conditions: min == max, or a zero variance.
        ok = (den_levels > 1) & (den_var != 0.0)
        # Python's float division overflows to inf silently; so does this.
        with np.errstate(over="ignore"):
            return num_var[ok] / den_var[ok]

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
    values: dict[tuple[str, str], list[float]] = {}
    for ep, task in _joined(episodes, registry):
        v = episode_gds(ep, task) if metric == "gds" else float(ep.passed)
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
    buckets: Sequence[str] = ("long", "very_long"),
) -> list[ScaffoldComparison]:
    """Memory-minus-react mean GDS per model on the selected buckets.

    |delta| <= 0.03 is labeled neutral (inclusive, with float grace);
    otherwise the sign decides hurts/helps. Models missing either scaffold
    are skipped with a warning rather than guessed at.
    """
    unknown = [bk for bk in buckets if bk not in BUCKETS]
    if unknown or not buckets:
        raise MetricError(f"scaffold_delta: bad bucket set {tuple(buckets)!r}")
    gds_values: dict[str, dict[str, list[float]]] = {}
    for ep, task in _joined(episodes, registry):
        if task.bucket not in buckets:
            continue
        gds_values.setdefault(ep.model_id, {}).setdefault(ep.scaffold, []).append(
            episode_gds(ep, task))

    rows: list[ScaffoldComparison] = []
    for model_id in sorted(gds_values):
        per_scaffold = gds_values[model_id]
        if "react" not in per_scaffold or "memory" not in per_scaffold:
            present = sorted(per_scaffold)
            warnings.warn(
                f"scaffold_delta: model {model_id!r} has only {present}; skipped",
                MetricWarning, stacklevel=2)
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
        rows.append(ScaffoldComparison(
            model_id=model_id, react_value=react, memory_value=memory, delta=delta,
            label=label, n_react=len(per_scaffold["react"]), n_memory=len(per_scaffold["memory"]),
        ))
    return rows


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
