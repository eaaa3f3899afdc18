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

import numpy as np

from .metrics import _joined, ols_slope
from .trajectory import BUCKETS, NUDGE_LIMIT, Episode, TaskSpec, ToolStep

__all__ = [
    "DEFAULT_BUDGET_TOKENS",
    "DEFAULT_F1_GRID_DELTA",
    "DEFAULT_F1_GRID_THETA",
    "DEFAULT_LOOP_COUNT",
    "DEFAULT_LOOP_WINDOW",
    "MIN_EVENTS_FOR_MEDIAN",
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
        if self.theta_h < 0:
            raise MeltdownError(f"theta_h must be >= 0, got {self.theta_h}")


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
    """(step, entropy) for every full window, computed with an incremental
    sliding count: one tool enters and one leaves per step."""
    if w < 1:
        raise MeltdownError(f"window size must be >= 1, got {w}")
    n = len(trajectory)
    if n < w:
        return ()
    counts: Counter[str] = Counter(step.tool for step in trajectory[:w])
    series = [(w, window_entropy({tool: c / w for tool, c in counts.items()}))]
    for t in range(w + 1, n + 1):
        entering = trajectory[t - 1].tool
        leaving = trajectory[t - w - 1].tool
        counts[entering] += 1
        counts[leaving] -= 1
        if counts[leaving] == 0:
            del counts[leaving]
        series.append((t, window_entropy({tool: c / w for tool, c in counts.items()})))
    return tuple(series)


def _onset_from_series(
    series: Sequence[tuple[int, float]], w: int, theta_h: float, delta: float
) -> int | None:
    by_step = dict(series)
    for t, h in series:
        if t < 2 * w:
            continue
        if h > theta_h and h - by_step[t - w] > delta:
            return t
    return None


def detect_mop(
    source: Episode | Sequence[ToolStep],
    config: MopConfig | None = None,
) -> MopResult:
    """Earliest step whose window entropy strictly exceeds theta_h while
    strictly exceeding the entropy one window span earlier by delta."""
    config = config or MopConfig()
    episode_id, steps = _steps_of(source)
    series = entropy_series(steps, config.window_w)
    max_entropy = max((h for _, h in series), default=0.0)
    too_short = len(steps) < 2 * config.window_w
    onset = None
    if not too_short:
        onset = _onset_from_series(series, config.window_w, config.theta_h, config.delta)
    return MopResult(
        episode_id=episode_id, onset_step=onset, max_entropy=max_entropy,
        entropy_series=series, too_short=too_short,
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

    Ties prefer the lower theta_h, then the lower delta. Entropy series are
    computed once per episode; only the thresholds move across the grid.
    """
    _check_window(w, "calibrate_mop_f1")
    if not labeled:
        raise MeltdownError("calibrate_mop_f1: empty labeled set")
    if not grid_theta or not grid_delta:
        raise MeltdownError("calibrate_mop_f1: empty grid")
    labels = [bool(label) for _, label in labeled]
    if not any(labels):
        raise MeltdownError("calibrate_mop_f1: no positive labels")
    if all(labels):
        raise MeltdownError("calibrate_mop_f1: no negative labels")

    prepared = []
    for source, label in labeled:
        _, steps = _steps_of(source)
        too_short = len(steps) < 2 * w
        prepared.append((entropy_series(steps, w), too_short, bool(label)))

    best: CalibrationResult | None = None
    for theta in grid_theta:
        for delta in grid_delta:
            tp = fp = fn = 0
            for series, too_short, label in prepared:
                detected = (not too_short) and _onset_from_series(series, w, theta, delta) is not None
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
    per-episode maximum window entropy, with delta pinned at 0.

    Episodes too short for even one window contribute nothing; if no
    episode reaches detection eligibility (2w steps) the baseline cannot
    calibrate a detector and that is an error.
    """
    _check_window(w, "calibrate_mop_baseline")
    if not baseline:
        raise MeltdownError("calibrate_mop_baseline: empty baseline")
    if not 0.0 <= percentile <= 1.0:
        raise MeltdownError(f"calibrate_mop_baseline: percentile {percentile} outside [0, 1]")
    maxima = []
    any_eligible = False
    for source in baseline:
        _, steps = _steps_of(source)
        if len(steps) >= 2 * w:
            any_eligible = True
        series = entropy_series(steps, w)
        if series:
            maxima.append(max(h for _, h in series))
    if not any_eligible:
        raise MeltdownError(
            f"calibrate_mop_baseline: every baseline episode is shorter than 2w={2 * w} steps")
    theta = float(np.percentile(maxima, percentile * 100.0))
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
    are suppressed below MIN_EVENTS_FOR_MEDIAN events.
    """
    return _meltdown_cells(episodes, registry, config, keep_series=False)[0]


def _meltdown_cells(
    episodes: Iterable[Episode],
    registry: Mapping[str, TaskSpec],
    config: MopConfig | None,
    keep_series: bool,
) -> tuple[dict[tuple[str, str], MeltdownCell], dict[str, tuple[tuple[int, float], ...]]]:
    """meltdown_table's cells, and each episode's entropy series by
    episode_id when ``keep_series`` (else an empty dict)."""
    config = config or MopConfig()
    onsets: dict[tuple[str, str], list[int]] = {}
    totals: dict[tuple[str, str], int] = {}
    too_short: dict[tuple[str, str], int] = {}
    series: dict[str, tuple[tuple[int, float], ...]] = {}
    for ep, task in _joined(episodes, registry, MeltdownError):
        key = (ep.model_id, task.bucket)
        totals[key] = totals.get(key, 0) + 1
        result = detect_mop(ep, config)
        if keep_series:
            series[ep.episode_id] = result.entropy_series
        if result.too_short:
            too_short[key] = too_short.get(key, 0) + 1
        if result.onset_step is not None:
            onsets.setdefault(key, []).append(result.onset_step)

    table: dict[tuple[str, str], MeltdownCell] = {}
    for model_id in sorted({m for m, _ in totals}):
        for bucket in BUCKETS:
            key = (model_id, bucket)
            if key not in totals:
                continue
            events = sorted(onsets.get(key, []))
            median = events[(len(events) - 1) // 2] if len(events) >= MIN_EVENTS_FOR_MEDIAN else None
            table[key] = MeltdownCell(
                rate=len(events) / totals[key],
                median_onset=median,
                n_events=len(events),
                n_episodes=totals[key],
                n_too_short=too_short.get(key, 0),
            )
    return table, series


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
