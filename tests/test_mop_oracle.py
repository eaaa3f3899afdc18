"""The MOP fast paths against the per-window and per-cell code they replaced.

``_reference_*`` below are that code's ``entropy_series``,
``_onset_from_series``, ``detect_mop`` and ``calibrate_mop_f1``, kept
verbatim. The fast ones must return results equal by ``==``: the same
entropy series bit for bit, the same ``MopResult``, the same
``CalibrationResult`` (or the same error), and the same ``meltdown_table``
cells. The reference table is built here from the reference ``detect_mop``
of each episode, sharing no code with ``meltdown_table``'s cells.
"""
from __future__ import annotations

import json
import math
import statistics
import sys
from collections import Counter
from typing import Sequence

import pytest
from hypothesis import strategies as st

from conftest import make_episode, make_task, steps_from_tools
from oracles import Oracles
from reliakit import meltdown
from reliakit.cli import main
from reliakit.meltdown import (
    DEFAULT_F1_GRID_DELTA,
    DEFAULT_F1_GRID_THETA,
    MIN_EVENTS_FOR_MEDIAN,
    CalibrationResult,
    MeltdownCell,
    MeltdownError,
    MopConfig,
    MopResult,
    _check_window,
    _steps_of,
    calibrate_mop_baseline,
    calibrate_mop_f1,
    detect_mop,
    entropy_series,
    meltdown_table,
    window_entropy,
)
from reliakit.report import PipelineOptions, run_pipeline
from reliakit.trajectory import (BUCKETS, Episode, ToolStep, write_episode_log,
                                 write_task_registry)


def _reference_entropy_series(
    trajectory: Sequence[ToolStep], w: int
) -> tuple[tuple[int, float], ...]:
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


def _reference_onset_from_series(
    series: Sequence[tuple[int, float]], w: int, theta_h: float, delta: float
) -> int | None:
    by_step = dict(series)
    for t, h in series:
        if t < 2 * w:
            continue
        if h > theta_h and h - by_step[t - w] > delta:
            return t
    return None


def _reference_detect_mop(
    source: Episode | Sequence[ToolStep],
    config: MopConfig | None = None,
) -> MopResult:
    config = config or MopConfig()
    episode_id, steps = _steps_of(source)
    series = _reference_entropy_series(steps, config.window_w)
    max_entropy = max((h for _, h in series), default=0.0)
    too_short = len(steps) < 2 * config.window_w
    onset = None
    if not too_short:
        onset = _reference_onset_from_series(series, config.window_w, config.theta_h, config.delta)
    return MopResult(
        episode_id=episode_id, onset_step=onset, max_entropy=max_entropy,
        entropy_series=series, too_short=too_short,
    )


def _reference_calibrate_mop_f1(
    labeled: Sequence[tuple[Episode | Sequence[ToolStep], bool]],
    grid_theta: Sequence[float] = DEFAULT_F1_GRID_THETA,
    grid_delta: Sequence[float] = DEFAULT_F1_GRID_DELTA,
    w: int = 5,
) -> CalibrationResult:
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
        prepared.append((_reference_entropy_series(steps, w), too_short, bool(label)))

    best: CalibrationResult | None = None
    for theta in grid_theta:
        for delta in grid_delta:
            tp = fp = fn = 0
            for series, too_short, label in prepared:
                detected = (not too_short) and _reference_onset_from_series(series, w, theta, delta) is not None
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


def _reference_meltdown_table(episodes, registry, config):
    """meltdown_table's cells from the reference detect_mop of each non-infra
    episode, per (model, bucket) in model then bucket order: the rate of
    episodes with an onset among them all, the lower median of the sorted
    onsets from MIN_EVENTS_FOR_MEDIAN on, and the count of too-short ones."""
    cells = {}
    for ep in episodes:
        if not ep.is_infra_failure:
            key = (ep.model_id, BUCKETS.index(registry[ep.task_id].bucket))
            cells.setdefault(key, []).append(_reference_detect_mop(ep, config))
    table = {}
    for (model_id, bucket), results in sorted(cells.items()):
        onsets = sorted(r.onset_step for r in results if r.onset_step is not None)
        table[(model_id, BUCKETS[bucket])] = MeltdownCell(
            rate=len(onsets) / len(results),
            median_onset=(statistics.median_low(onsets)
                          if len(onsets) >= MIN_EVENTS_FOR_MEDIAN else None),
            n_events=len(onsets),
            n_episodes=len(results),
            n_too_short=sum(r.too_short for r in results),
        )
    return table


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MeltdownError as exc:
        return MeltdownError, str(exc)


# ``python tests/test_mop_oracle.py N`` runs each oracle on N fresh examples.
_oracle = Oracles()


# --- strategies ---------------------------------------------------------------

_TOOLS = ["read", "edit", "test", "grep", "plan", "shell"]


@st.composite
def _trajectory(draw, w: int) -> tuple[ToolStep, ...]:
    tools = _TOOLS[:draw(st.integers(1, 6))]
    # Runs of one tool make the entering tool equal the leaving one.
    n = draw(st.integers(0, 3 * w + 5))
    sequence = draw(st.lists(st.sampled_from(tools), min_size=n, max_size=n))
    if draw(st.booleans()) and sequence:
        cut = draw(st.integers(0, len(sequence)))
        sequence[cut:] = [sequence[0]] * (len(sequence) - cut)
    return steps_from_tools(sequence)


def _grid_values(series: Sequence[tuple[int, float]], w: int) -> tuple[list[float], list[float]]:
    """Entropy levels and one-window rises of a series, so strict ``>``
    comparisons meet their ties."""
    levels = [h for _, h in series]
    rises = [h - earlier for h, earlier in zip(levels[w:], levels)]
    return levels, rises


def _grid(draw, own: list[float], fixed: list[float]) -> list[float]:
    """1 to 5 values, unsorted and possibly repeated, partly from ``own``."""
    pool = st.sampled_from(own + fixed) if own else st.sampled_from(fixed)
    return draw(st.lists(st.one_of(pool, st.sampled_from(fixed)), min_size=1, max_size=5))


_THETAS = [0.0, 0.5, 1.0, 1.5, 1.711, 2.0, 2.5]
_DELTAS = [-1.0, -0.5, -1e-12, 0.0, 0.2, 0.5, 1.0]


@_oracle(300, st.data())
def test_entropy_series_and_detection_equal_reference(data):
    w = data.draw(st.integers(2, 8))
    steps = data.draw(_trajectory(w))
    series = entropy_series(steps, w)
    assert series == _reference_entropy_series(steps, w)
    levels, rises = _grid_values(series, w)
    theta = data.draw(st.sampled_from(levels + _THETAS))
    delta = data.draw(st.sampled_from(rises + _DELTAS))
    config = MopConfig(window_w=w, theta_h=theta, delta=delta)
    assert detect_mop(steps, config) == _reference_detect_mop(steps, config)


@_oracle(300, st.data())
def test_calibration_equals_reference(data):
    w = data.draw(st.integers(2, 8))
    labeled = [(data.draw(_trajectory(w)), data.draw(st.booleans()))
               for _ in range(data.draw(st.integers(1, 6)))]
    levels, rises = [], []
    for steps, _ in labeled:
        own_levels, own_rises = _grid_values(_reference_entropy_series(steps, w), w)
        levels += own_levels
        rises += own_rises
    grid_theta = _grid(data.draw, levels, _THETAS)
    grid_delta = _grid(data.draw, rises, _DELTAS)
    got = _outcome(calibrate_mop_f1, labeled, grid_theta, grid_delta, w)
    assert got == _outcome(_reference_calibrate_mop_f1, labeled, grid_theta, grid_delta, w)


@_oracle(150, st.data())
def test_meltdown_table_equals_reference(data):
    w = data.draw(st.integers(2, 8))
    tasks = {b: make_task(f"t-{b}", bucket=b) for b in BUCKETS}
    episodes = []
    for i in range(data.draw(st.integers(1, 12))):
        task = tasks[data.draw(st.sampled_from(BUCKETS))]
        episodes.append(make_episode(f"e{i}", task, model_id=data.draw(st.sampled_from(["m1", "m2"])),
                                     steps=data.draw(_trajectory(w))))
    levels, rises = _grid_values(entropy_series(episodes[0].steps, w), w)
    config = MopConfig(window_w=w, theta_h=data.draw(st.sampled_from(levels + _THETAS)),
                       delta=data.draw(st.sampled_from(rises + _DELTAS)))
    registry = {task.task_id: task for task in tasks.values()}
    assert list(meltdown_table(episodes, registry, config).items()) == list(
        _reference_meltdown_table(episodes, registry, config).items())


def test_meltdown_table_of_six_onsets_equals_reference():
    """Six distinct onsets in one cell, whose lower and upper medians
    differ, as few generated tables are; beside them an episode without an
    onset, a too-short one and an infra failure. Window 2: a run of k >= 3
    "a" then a "b" melts at step k + 1."""
    task = make_task("t-short", bucket="short")
    episodes = [make_episode(f"e{k}", task, steps=steps_from_tools(["a"] * k + ["b", "a"]))
                for k in range(3, 9)]
    episodes += [make_episode("calm", task, steps=steps_from_tools(["a"] * 8)),
                 make_episode("short", task, steps=steps_from_tools(["a", "b"])),
                 make_episode("infra", task, termination="infra_error",
                              steps=steps_from_tools(["a", "a", "a", "b"]))]
    registry = {task.task_id: task}
    config = MopConfig(window_w=2, theta_h=0.5, delta=0.5)
    want = _reference_meltdown_table(episodes, registry, config)
    assert want == {("m1", "short"): MeltdownCell(rate=6 / 8, median_onset=6, n_events=6,
                                                  n_episodes=8, n_too_short=1)}
    assert meltdown_table(episodes, registry, config) == want


def test_calibration_ties_at_a_grid_value_are_strict():
    # Window 2: entropies 0, 1, 1, 0 ... with a one-window rise of exactly 1.
    hot = steps_from_tools(["a", "a", "a", "b", "a", "b"])
    cold = steps_from_tools(["a"] * 6)
    levels, rises = _grid_values(entropy_series(hot, 2), 2)
    assert max(levels) == 1.0 and max(rises) == 1.0
    labeled = [(hot, True), (cold, False)]
    for grid_theta, grid_delta in [([1.0], [0.0]), ([0.0, 0.0], [1.0, 0.0]),
                                   ([0.5, 0.0], [0.5, -1.0, 0.5])]:
        got = calibrate_mop_f1(labeled, grid_theta, grid_delta, w=2)
        assert got == _reference_calibrate_mop_f1(labeled, grid_theta, grid_delta, w=2)
    # theta = 1.0 is not strictly exceeded, so nothing is detected there.
    assert calibrate_mop_f1(labeled, [1.0], [0.0], w=2).f1 == 0.0


def test_every_mop_path_scans_each_analyzed_episode_once(tmp_path, monkeypatch):
    """A wrapper bound to ``meltdown._entropy_levels``, the one scan behind
    every MOP path, in every reliakit module that looks the name up, sees
    one call per analyzed episode on each path: the public functions, the
    three ``mop`` modes and ``run_pipeline``, with and without the series.
    An episode that the join excludes, or an infra failure, is never
    scanned. Every episode has its own length, so the sorted lengths
    scanned name the episodes."""
    scanned = []
    scan = meltdown._entropy_levels

    def counted(tools, w):
        scanned.append(len(tools))
        return scan(tools, w)

    def scans(call):
        """``call()`` and the sorted lengths of the episodes it scanned."""
        scanned.clear()
        return call(), sorted(scanned)

    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("reliakit") and getattr(m, "_entropy_levels", None) is scan]
    assert meltdown in modules
    for module in modules:
        monkeypatch.setattr(module, "_entropy_levels", counted)
    task, ghost = make_task("t-0001"), make_task("ghost-task")

    def steps(n):
        return steps_from_tools([f"tool-{i % 3}" for i in range(n)])

    lengths = [20, 12, 4, 0]
    analyzed = [make_episode(f"ep-{e}", task, passed=e % 2 == 0, repeat_index=e + 1,
                             steps=steps(n)) for e, n in enumerate(lengths)]
    infra = make_episode("x-infra", task, passed=False, termination="infra_error",
                         steps=steps(11))
    labeled = [(ep, e % 2 == 0) for e, ep in enumerate(analyzed)]
    want = sorted(lengths)

    assert scans(lambda: [detect_mop(ep) for ep in analyzed])[1] == want
    assert scans(lambda: [entropy_series(ep.steps, 5) for ep in analyzed])[1] == want
    assert scans(lambda: meltdown_table(analyzed + [infra], {task.task_id: task}))[1] == want
    assert scans(lambda: calibrate_mop_f1(labeled, w=3))[1] == want
    assert scans(lambda: calibrate_mop_baseline(analyzed, w=3))[1] == want

    # mop analyzes every parsed episode; analyze only those that join and
    # are not infra failures.
    log, registry = tmp_path / "episodes.jsonl", tmp_path / "tasks.jsonl"
    labels = tmp_path / "labels.jsonl"
    write_episode_log(analyzed, log)
    write_task_registry([task], registry)
    labels.write_text("".join(json.dumps({"episode_id": ep.episode_id, "meltdown": label}) + "\n"
                              for ep, label in labeled), encoding="utf-8")
    for mode in ([], ["--calibrate", "f1", "--labels", str(labels)], ["--calibrate", "baseline"]):
        assert scans(lambda: main(["mop", "--logs", str(log), *mode])) == (0, want)
    excluded = [make_episode("x-ghost", ghost, steps=steps(7)),
                make_episode("x-mismatch", task, outcomes=(True,), steps=steps(9)), infra]
    write_episode_log(analyzed + excluded, log)
    for emit_series in (False, True):
        options = PipelineOptions(bootstrap_b=0, emit_series=emit_series)
        bundle, got = scans(lambda: run_pipeline([log], registry, options=options))
        assert got == want
        counts = bundle.run_metadata["episodes"]
        assert (counts["join_excluded"], counts["infra_excluded"], counts["analyzed"]) == (2, 1, 4)
        assert bundle.run_metadata["validation_issues"]["subtask_mismatch"] == 1


@pytest.mark.parametrize("n", [0, 1, 4, 5, 9, 10, 11])
def test_series_of_every_short_length_equals_reference(n):
    steps = steps_from_tools(["a", "b", "c"] * 4)[:n]
    assert entropy_series(steps, 5) == _reference_entropy_series(steps, 5)
    assert detect_mop(steps, MopConfig(window_w=5, theta_h=0.0, delta=-math.inf)) == \
        _reference_detect_mop(steps, MopConfig(window_w=5, theta_h=0.0, delta=-math.inf))


if __name__ == "__main__":
    _oracle.campaign(1000)
