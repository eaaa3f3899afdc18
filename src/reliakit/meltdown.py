"""Sliding-window tool-call entropy, meltdown onset detection, calibration,
and replayable harness guards.

Window convention: a window of size w ending at step t covers the w tool
calls at steps [t - w + 1, t], so the first computable entropy is at t = w.
Onset detection needs the comparison window ending at t - w as well, which
makes t = 2w the first eligible step; shorter trajectories are flagged as
too short rather than reported as onset-free, so suppression statistics can
tell "could not melt" from "did not melt".

Entropy is Shannon entropy in bits (base 2) throughout.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .metrics import _joined, _percentiles, ols_slope
from .trajectory import BUCKETS, NUDGE_LIMIT, Episode, TaskSpec, ToolStep

__all__ = [
    "CalibrationResult",
    "GuardReplay",
    "MeltdownCell",
    "MeltdownError",
    "MopConfig",
    "MopResult",
    "calibrate_mop_baseline",
    "calibrate_mop_f1",
    "detect_mop",
    "entropy_precursor",
    "entropy_series",
    "meltdown_table",
    "replay_guards",
    "window_distribution",
    "window_entropy",
]

DEFAULT_BUDGET_TOKENS = 120_000
DEFAULT_LOOP_COUNT = 3
DEFAULT_LOOP_WINDOW = 6

DEFAULT_F1_GRID_THETA = (0.5, 1.0, 1.5, 2.0)
DEFAULT_F1_GRID_DELTA = (0.2, 0.5, 1.0)

# A cell's median onset is reported only at this many events or more.
MIN_EVENTS_FOR_MEDIAN = 5


class MeltdownError(ValueError):
    """Raised when a detection or calibration precondition is not met."""


def _check_window(w: int, owner: str) -> None:
    # a one-call window always has zero entropy, so nothing could melt
    if w < 2:
        raise MeltdownError(f"{owner}: window_w must be >= 2, got {w}")


@dataclass(frozen=True)
class MopConfig:
    """Detection thresholds: entropy level theta_h and one-window rise delta,
    both in bits, both compared strictly."""

    window_w: int = 5
    theta_h: float = 1.711
    delta: float = 0.0

    def __post_init__(self) -> None:
        _check_window(self.window_w, "MopConfig")
        if not self.theta_h >= 0:
            raise MeltdownError(f"theta_h must be >= 0, got {self.theta_h}")
        if math.isnan(self.delta):
            raise MeltdownError("delta must be a number, got nan")


@dataclass(frozen=True)
class MopResult:
    episode_id: str
    onset_step: int | None
    max_entropy: float
    entropy_series: tuple[tuple[int, float], ...]
    too_short: bool

    @property
    def melted(self) -> bool:
        return self.onset_step is not None


@dataclass(frozen=True)
class GuardReplay:
    episode_id: str
    loop_trigger_step: int | None
    budget_trigger_step: int | None
    nudge_exhausted: bool


def _steps_of(source: Episode | Sequence[ToolStep]) -> tuple[str, Sequence[ToolStep]]:
    if isinstance(source, Episode):
        return source.episode_id, source.steps
    return "", source


def _tools_of(source: Episode | Sequence[ToolStep]) -> list[str]:
    """The tool name of each step: all that detection and calibration read."""
    return [step.tool for step in _steps_of(source)[1]]


def window_distribution(
    trajectory: Sequence[ToolStep], t: int, w: int
) -> dict[str, float]:
    """Relative tool frequencies over the w calls ending at step t (1-based)."""
    if w < 1:
        raise MeltdownError(f"window size must be >= 1, got {w}")
    if t < w:
        raise MeltdownError(f"window ending at step {t} is not full for w={w}")
    if t > len(trajectory):
        raise MeltdownError(f"step {t} beyond trajectory length {len(trajectory)}")
    counts = Counter(step.tool for step in trajectory[t - w : t])
    return {tool: count / w for tool, count in counts.items()}


def window_entropy(dist: Mapping[str, float]) -> float:
    """Shannon entropy in bits; empty terms (p = 0) contribute nothing.

    fsum keeps the result independent of the mapping's iteration order, so
    incrementally and freshly counted windows agree bit for bit.
    """
    total = math.fsum(p * math.log2(p) for p in dist.values() if p > 0.0)
    # a point mass sums to -0.0; entropy must come out as plain zero
    return -total if total != 0.0 else 0.0


def entropy_series(
    trajectory: Sequence[ToolStep], w: int
) -> tuple[tuple[int, float], ...]:
    """(step, entropy) for every full window; see ``_entropy_levels``."""
    return tuple(enumerate(_entropy_levels([step.tool for step in trajectory], w), w))


def _entropy_levels(tools: Sequence[str], w: int) -> list[float]:
    """The entropy of every full window of the steps' tool names, the
    window ending at step w + i at index i: the one scan behind every MOP
    path. An incremental sliding count lets one tool enter and one leave
    per step.

    A window's entropy depends only on the multiset of its counts (fsum is
    exactly rounded, so the order of the terms does not matter), so each
    distinct sorted count tuple is computed once per call."""
    if w < 1:
        raise MeltdownError(f"window size must be >= 1, got {w}")
    if len(tools) < w:
        return []
    counts: dict[str, int] = {}
    for tool in tools[:w]:
        counts[tool] = counts.get(tool, 0) + 1
    by_counts: dict[tuple[int, ...], float] = {}

    def entropy() -> float:
        key = tuple(sorted(counts.values()))
        h = by_counts.get(key)
        if h is None:
            h = by_counts[key] = window_entropy({i: c / w for i, c in enumerate(key)})
        return h

    h = entropy()
    levels = [h]
    for entering, leaving in zip(tools[w:], tools):
        if entering != leaving:
            counts[entering] = counts.get(entering, 0) + 1
            left = counts[leaving] - 1
            if left:
                counts[leaving] = left
            else:
                del counts[leaving]
            h = entropy()
        levels.append(h)
    return levels


def _onset(levels: Sequence[float], config: MopConfig) -> tuple[int | None, bool]:
    """The onset step and the too-short flag of an episode's window
    entropies. levels[i] is step w + i, so levels[i - w] is one window span
    earlier and i >= w is step 2w or later. An episode shorter than 2w
    steps has at most w levels, so it is too short and has no onset."""
    w, theta_h, delta = config.window_w, config.theta_h, config.delta
    for i in range(w, len(levels)):
        h = levels[i]
        if h > theta_h and h - levels[i - w] > delta:
            return w + i, False
    return None, len(levels) <= w


def detect_mop(
    source: Episode | Sequence[ToolStep],
    config: MopConfig | None = None,
) -> MopResult:
    """Earliest step whose window entropy strictly exceeds theta_h while
    strictly exceeding the entropy one window span earlier by delta."""
    episode_id, steps = _steps_of(source)
    config = config or MopConfig()
    levels = _entropy_levels([step.tool for step in steps], config.window_w)
    onset, too_short = _onset(levels, config)
    return MopResult(
        episode_id=episode_id, onset_step=onset, max_entropy=max(levels, default=0.0),
        entropy_series=tuple(enumerate(levels, config.window_w)), too_short=too_short,
    )


# --- calibration ------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationResult:
    theta_h: float
    delta: float
    f1: float
    precision: float
    recall: float


def calibrate_mop_f1(
    labeled: Sequence[tuple[Episode | Sequence[ToolStep], bool]],
    grid_theta: Sequence[float] = DEFAULT_F1_GRID_THETA,
    grid_delta: Sequence[float] = DEFAULT_F1_GRID_DELTA,
    w: int = 5,
) -> CalibrationResult:
    """Grid-search (theta_h, delta) maximizing detection F1 on a labeled set.

    Ties prefer the lower theta_h, then the lower delta. Window entropies
    are computed once per episode and scanned once per theta; every delta then
    costs one comparison per episode. Defined over ``_largest_rises`` per
    episode and ``_best_f1`` over them, which ``mop --calibrate f1`` calls
    as it reads each episode.
    """
    _check_window(w, "calibrate_mop_f1")
    if not labeled:
        raise MeltdownError("calibrate_mop_f1: empty labeled set")
    if not grid_theta or not grid_delta:
        raise MeltdownError("calibrate_mop_f1: empty grid")
    return _best_f1([(_largest_rises(_tools_of(source), grid_theta, w), bool(label))
                     for source, label in labeled], grid_theta, grid_delta)


def _largest_rises(tools: Sequence[str], grid_theta: Sequence[float],
                   w: int) -> tuple[float, ...]:
    """Per theta of the grid, the largest one-window entropy rise of an
    episode's tool names over eligible steps whose entropy exceeds theta.

    An episode is detected at (theta, delta) exactly when that rise exceeds
    delta, so one scan per theta serves every delta. Too-short episodes
    have no eligible step and a largest rise of -inf."""
    levels = _entropy_levels(tools, w)
    eligible = [(h, h - earlier) for h, earlier in zip(levels[w:], levels)]
    return tuple(max((rise for h, rise in eligible if h > theta), default=-math.inf)
                 for theta in grid_theta)


def _best_f1(prepared: Sequence[tuple[tuple[float, ...], bool]], grid_theta: Sequence[float],
             grid_delta: Sequence[float]) -> CalibrationResult:
    """calibrate_mop_f1's search over (largest rises per theta, label) pairs,
    which must hold both labels."""
    labels = [label for _, label in prepared]
    if not any(labels):
        raise MeltdownError("calibrate_mop_f1: no positive labels")
    if all(labels):
        raise MeltdownError("calibrate_mop_f1: no negative labels")
    best: CalibrationResult | None = None
    for i, theta in enumerate(grid_theta):
        for delta in grid_delta:
            tp = fp = fn = 0
            for rises, label in prepared:
                detected = rises[i] > delta
                if detected and label:
                    tp += 1
                elif detected:
                    fp += 1
                elif label:
                    fn += 1
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            candidate = CalibrationResult(theta_h=theta, delta=delta, f1=f1,
                                          precision=precision, recall=recall)
            if best is None or (f1, -theta, -delta) > (best.f1, -best.theta_h, -best.delta):
                best = candidate
    assert best is not None
    return best


def calibrate_mop_baseline(
    baseline: Sequence[Episode | Sequence[ToolStep]],
    percentile: float = 0.95,
    w: int = 5,
) -> tuple[float, float]:
    """Level threshold from healthy traffic: the chosen percentile of the
    per-episode maximum window entropy, with delta pinned at 0. The
    percentile is numpy's "linear" one (definition 7 of Hyndman & Fan 1996).

    Episodes too short for even one window contribute nothing; if no
    episode reaches detection eligibility (2w steps) the baseline cannot
    calibrate a detector and that is an error. Defined over
    ``_baseline_terms`` per episode and ``_baseline_theta`` over them,
    which ``mop --calibrate baseline`` calls as it reads each episode.
    """
    _check_window(w, "calibrate_mop_baseline")
    if not baseline:
        raise MeltdownError("calibrate_mop_baseline: empty baseline")
    if not 0.0 <= percentile <= 1.0:
        raise MeltdownError(f"calibrate_mop_baseline: percentile {percentile} outside [0, 1]")
    return _baseline_theta([_baseline_terms(_tools_of(source), w) for source in baseline],
                           percentile, w)


def _baseline_terms(tools: Sequence[str], w: int) -> tuple[bool, float | None]:
    """Whether an episode of these tool names reaches detection eligibility
    (2w steps), and its maximum window entropy (None without a full window)."""
    return len(tools) >= 2 * w, max(_entropy_levels(tools, w), default=None)


def _baseline_theta(terms: Sequence[tuple[bool, float | None]], percentile: float,
                    w: int) -> tuple[float, float]:
    """calibrate_mop_baseline's threshold over per-episode _baseline_terms."""
    if not any(eligible for eligible, _ in terms):
        raise MeltdownError(
            f"calibrate_mop_baseline: every baseline episode is shorter than 2w={2 * w} steps")
    maxima = [h for _, h in terms if h is not None]
    (theta,) = _percentiles(maxima, [percentile * 100.0])
    return theta, 0.0


# --- aggregation ------------------------------------------------------------

@dataclass(frozen=True)
class MeltdownCell:
    rate: float
    median_onset: int | None
    n_events: int
    n_episodes: int
    n_too_short: int


def meltdown_table(
    episodes: Iterable[Episode],
    registry: Mapping[str, TaskSpec],
    config: MopConfig | None = None,
) -> dict[tuple[str, str], MeltdownCell]:
    """Meltdown rate and median onset per (model, bucket).

    The rate denominator is every non-infra episode in the cell, including
    too-short ones (tracked separately). Medians use the lower median and
    are suppressed below MIN_EVENTS_FOR_MEDIAN events. Defined over
    ``_onset`` of each episode's ``_entropy_levels`` and ``_meltdown_cells``
    over them, as the pipeline computes them while it reads each episode.
    """
    config = config or MopConfig()
    return _meltdown_cells(
        (ep.model_id, task.bucket, *_onset(_entropy_levels(_tools_of(ep), config.window_w), config))
        for ep, task in _joined(episodes, registry, MeltdownError))


def _meltdown_cells(
    outcomes: Iterable[tuple[str, str, int | None, bool]],
) -> dict[tuple[str, str], MeltdownCell]:
    """meltdown_table's cells over (model_id, bucket, onset step, too short)
    per joined, non-infra episode."""
    cells: dict[tuple[str, str], list[tuple[int | None, bool]]] = {}
    for model_id, bucket, onset, too_short in outcomes:
        cells.setdefault((model_id, bucket), []).append((onset, too_short))

    table: dict[tuple[str, str], MeltdownCell] = {}
    for model_id in sorted({m for m, _ in cells}):
        for bucket in BUCKETS:
            cell = cells.get((model_id, bucket))
            if cell is None:
                continue
            events = sorted(onset for onset, _ in cell if onset is not None)
            median = events[(len(events) - 1) // 2] if len(events) >= MIN_EVENTS_FOR_MEDIAN else None
            table[(model_id, bucket)] = MeltdownCell(
                rate=len(events) / len(cell),
                median_onset=median,
                n_events=len(events),
                n_episodes=len(cell),
                n_too_short=sum(too_short for _, too_short in cell),
            )
    return table


def entropy_precursor(
    series: Sequence[tuple[int, float]], onset: int, lookback: int
) -> float:
    """Slope of the entropy series over the lookback steps before onset,
    i.e. steps [onset - lookback, onset - 1]."""
    if lookback < 2:
        raise MeltdownError("entropy_precursor: lookback must be >= 2 for a slope")
    by_step = dict(series)
    steps = range(onset - lookback, onset)
    missing = [t for t in steps if t not in by_step]
    if missing:
        raise MeltdownError(
            f"entropy_precursor: lookback reaches steps {missing} with no entropy value")
    xs = [float(t) for t in steps]
    ys = [by_step[t] for t in steps]
    return ols_slope(xs, ys)


# --- harness guards ---------------------------------------------------------

def replay_guards(
    source: Episode | Sequence[ToolStep],
    budget_tokens: int = DEFAULT_BUDGET_TOKENS,
    loop_count: int = DEFAULT_LOOP_COUNT,
    loop_window: int = DEFAULT_LOOP_WINDOW,
) -> GuardReplay:
    """Replay the harness circuit breakers over a recorded trajectory.

    Loop guard: earliest step at which the same (tool, canonical args)
    pair has occurred loop_count or more times within the trailing
    loop_window steps. Budget guard: earliest step at which cumulative
    input tokens strictly exceed budget_tokens. Neither guard truncates
    anything here; this reports where the harness would have fired.
    """
    if loop_count < 1 or loop_window < 1:
        raise MeltdownError("replay_guards: loop_count and loop_window must be >= 1")
    episode_id, steps = _steps_of(source)
    loop_step: int | None = None
    budget_step: int | None = None
    window: deque[tuple[str, str]] = deque(maxlen=loop_window)
    counts: Counter[tuple[str, str]] = Counter()
    cumulative_in = 0
    for step in steps:
        pair = (step.tool, step.args_canonical)
        if len(window) == loop_window:
            oldest = window[0]
            counts[oldest] -= 1
            if counts[oldest] == 0:
                del counts[oldest]
        window.append(pair)
        counts[pair] += 1
        if loop_step is None and counts[pair] >= loop_count:
            loop_step = step.index
        cumulative_in += step.tokens_in
        if budget_step is None and cumulative_in > budget_tokens:
            budget_step = step.index
        if loop_step is not None and budget_step is not None:
            break
    nudge_exhausted = isinstance(source, Episode) and source.nudges_used >= NUDGE_LIMIT
    return GuardReplay(
        episode_id=episode_id,
        loop_trigger_step=loop_step,
        budget_trigger_step=budget_step,
        nudge_exhausted=nudge_exhausted,
    )
