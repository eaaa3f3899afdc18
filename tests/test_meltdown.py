"""Entropy windows, onset detection, calibration, and guard replay."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings, strategies as st

from conftest import make_episode, make_step, make_task, steps_from_tools
from reliakit import (
    MeltdownError,
    MopConfig,
    calibrate_mop_baseline,
    calibrate_mop_f1,
    detect_mop,
    entropy_precursor,
    entropy_series,
    generate_trajectory,
    meltdown_table,
    replay_guards,
    window_distribution,
    window_entropy,
)
from reliakit.cli import main
from reliakit.simulate import TrajectoryProfile
from reliakit.trajectory import write_episode_log


def burst_tools(onset: int) -> list[str]:
    """Repetitive prefix, then three new tools; first hot window ends at onset."""
    return ["probe"] * (onset - 3) + ["alpha", "beta", "gamma"]


class TestWindowDistribution:
    def test_counts_trailing_window(self):
        steps = steps_from_tools(["a", "a", "b", "c", "a"])
        assert window_distribution(steps, 5, 5) == {"a": 0.6, "b": 0.2, "c": 0.2}

    def test_window_shorter_than_trajectory(self):
        steps = steps_from_tools(["a", "b", "b", "c"])
        assert window_distribution(steps, 3, 2) == {"b": 1.0}

    def test_validation(self):
        steps = steps_from_tools(["a", "b", "c"])
        with pytest.raises(MeltdownError, match="not full"):
            window_distribution(steps, 2, 3)
        with pytest.raises(MeltdownError, match="beyond trajectory"):
            window_distribution(steps, 4, 2)
        with pytest.raises(MeltdownError, match=">= 1"):
            window_distribution(steps, 3, 0)


class TestWindowEntropy:
    def test_point_mass_is_exactly_zero(self):
        value = window_entropy({"a": 1.0})
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0  # plain zero, not -0.0

    def test_uniform_over_five(self):
        dist = {f"t{i}": 0.2 for i in range(5)}
        assert abs(window_entropy(dist) - math.log2(5)) <= 1e-12

    def test_two_three_split_matches_scipy(self):
        ours = window_entropy({"a": 0.4, "b": 0.6})
        assert abs(ours - scipy.stats.entropy([2, 3], base=2)) <= 1e-12
        assert abs(ours - 0.9710) <= 5e-5

    def test_zero_probability_terms_ignored(self):
        assert window_entropy({"a": 0.5, "b": 0.5, "c": 0.0}) == 1.0


class TestEntropySeries:
    def test_starts_at_first_full_window(self):
        steps = steps_from_tools(["a"] * 7)
        series = entropy_series(steps, 5)
        assert [t for t, _ in series] == [5, 6, 7]
        assert all(h == 0.0 for _, h in series)

    def test_shorter_than_window_is_empty(self):
        assert entropy_series(steps_from_tools(["a", "b"]), 5) == ()

    @given(st.lists(st.sampled_from("abcd"), min_size=0, max_size=60),
           st.integers(1, 8))
    def test_incremental_matches_recount_exactly(self, tools, w):
        steps = steps_from_tools(tools)
        series = entropy_series(steps, w)
        recounted = tuple(
            (t, window_entropy(window_distribution(steps, t, w)))
            for t in range(w, len(steps) + 1))
        assert series == recounted


class TestDetectMop:
    def test_rote_trajectory_never_melts(self):
        result = detect_mop(steps_from_tools(["probe"] * 12))
        assert result.onset_step is None
        assert result.max_entropy == 0.0
        assert not result.too_short
        assert not result.melted

    def test_too_short_is_flagged_not_negative(self):
        result = detect_mop(steps_from_tools(list("abcdefghi")))
        assert result.too_short
        assert result.onset_step is None
        assert result.max_entropy > 0.0

    def test_burst_onset_at_first_hot_window(self):
        result = detect_mop(steps_from_tools(burst_tools(20)))
        assert result.onset_step == 20
        assert abs(result.max_entropy - 1.9219) <= 5e-5

    def test_threshold_equal_to_peak_does_not_fire(self):
        steps = steps_from_tools(burst_tools(20))
        peak = detect_mop(steps).max_entropy
        result = detect_mop(steps, MopConfig(theta_h=peak, delta=0.0))
        assert result.onset_step is None

    def test_rise_equal_to_delta_does_not_fire(self):
        steps = steps_from_tools(burst_tools(20))
        series = dict(detect_mop(steps).entropy_series)
        rise = series[20] - series[15]
        assert detect_mop(steps, MopConfig(delta=rise)).onset_step is None
        assert detect_mop(steps, MopConfig(delta=rise - 1e-12)).onset_step == 20

    def test_episode_id_passthrough(self):
        task = make_task("t-0001")
        ep = make_episode("e-77", task, passed=False,
                          steps=steps_from_tools(["probe"] * 12))
        assert detect_mop(ep).episode_id == "e-77"
        assert detect_mop(steps_from_tools(["probe"] * 12)).episode_id == ""

    def test_config_validation(self):
        with pytest.raises(MeltdownError, match="window_w"):
            MopConfig(window_w=1)
        with pytest.raises(MeltdownError, match="theta_h"):
            MopConfig(theta_h=-0.1)
        with pytest.raises(MeltdownError, match="theta_h"):
            MopConfig(theta_h=math.nan)
        with pytest.raises(MeltdownError, match="delta"):
            MopConfig(delta=math.nan)

    @given(st.lists(st.sampled_from("abcde"), min_size=10, max_size=40))
    def test_onset_matches_brute_force(self, tools):
        steps = steps_from_tools(tools)
        w, theta, delta = 5, 0.3, 0.1
        expected = None
        for t in range(2 * w, len(steps) + 1):
            h = window_entropy(window_distribution(steps, t, w))
            h_prev = window_entropy(window_distribution(steps, t - w, w))
            if h > theta and h - h_prev > delta:
                expected = t
                break
        result = detect_mop(steps, MopConfig(window_w=w, theta_h=theta, delta=delta))
        assert result.onset_step == expected

    @given(st.lists(st.sampled_from("abcde"), min_size=10, max_size=40))
    def test_raising_threshold_never_hastens_onset(self, tools):
        steps = steps_from_tools(tools)
        low = detect_mop(steps, MopConfig(theta_h=0.5)).onset_step
        high = detect_mop(steps, MopConfig(theta_h=1.5)).onset_step
        if high is not None:
            assert low is not None and low <= high


class TestCalibrateF1:
    def _labeled(self, n_per_side: int = 10):
        spiral = TrajectoryProfile("spiral", spiral_start=15)
        coherent = TrajectoryProfile("coherent")
        labeled = []
        for seed in range(n_per_side):
            labeled.append((generate_trajectory(spiral, 30, seed), True))
            labeled.append((generate_trajectory(coherent, 30, seed), False))
        return labeled

    def test_separable_set_reaches_perfect_f1(self):
        result = calibrate_mop_f1(self._labeled(25))
        assert result.f1 >= 0.95
        assert result.precision >= 0.95 and result.recall >= 0.95

    def test_tie_break_prefers_low_theta_then_low_delta(self):
        labeled = [(steps_from_tools(burst_tools(20)), True),
                   (steps_from_tools(["probe"] * 20), False)]
        result = calibrate_mop_f1(labeled)
        # every theta below the burst peak separates perfectly; the tie
        # must resolve to the smallest grid point on both axes
        assert result.f1 == 1.0
        assert result.theta_h == 0.5
        assert result.delta == 0.2

    def test_singleton_grid(self):
        labeled = [(steps_from_tools(burst_tools(20)), True),
                   (steps_from_tools(["probe"] * 20), False)]
        result = calibrate_mop_f1(labeled, grid_theta=(1.711,), grid_delta=(0.0,))
        assert (result.theta_h, result.delta) == (1.711, 0.0)
        assert result.f1 == 1.0

    def test_label_validation(self):
        steps = steps_from_tools(["probe"] * 20)
        with pytest.raises(MeltdownError, match="empty labeled"):
            calibrate_mop_f1([])
        with pytest.raises(MeltdownError, match="no positive"):
            calibrate_mop_f1([(steps, False)])
        with pytest.raises(MeltdownError, match="no negative"):
            calibrate_mop_f1([(steps, True)])
        with pytest.raises(MeltdownError, match="empty grid"):
            calibrate_mop_f1([(steps, True), (steps, False)], grid_theta=())
        with pytest.raises(MeltdownError, match="window_w must be >= 2"):
            calibrate_mop_f1([(steps, True), (steps, False)], w=1)


class TestCalibrateBaseline:
    def test_rote_baseline_floors_at_zero(self):
        baseline = [steps_from_tools(["probe"] * 12) for _ in range(5)]
        assert calibrate_mop_baseline(baseline) == (0.0, 0.0)

    def test_percentile_one_returns_max(self):
        quiet = steps_from_tools(["probe"] * 12)
        hot = steps_from_tools(burst_tools(12))
        theta, delta = calibrate_mop_baseline([quiet, hot], percentile=1.0)
        assert theta == detect_mop(hot).max_entropy
        assert delta == 0.0

    @settings(max_examples=200, deadline=None)
    @given(tools=st.lists(st.lists(st.sampled_from("abcdefg"), max_size=24), min_size=1,
                          max_size=8),
           p=st.sampled_from([0.0, 0.95, 1.0]) | st.floats(0.0, 1.0), w=st.integers(2, 5))
    def test_matches_percentile_of_episode_maxima(self, tools, p, w):
        assume(any(len(t) >= 2 * w for t in tools))
        episodes = [steps_from_tools(t) for t in tools]
        # Episodes too short for one window contribute nothing.
        maxima = [detect_mop(e, MopConfig(window_w=w)).max_entropy
                  for e in episodes if len(e) >= w]
        theta, delta = calibrate_mop_baseline(episodes, percentile=p, w=w)
        expected = float(np.percentile(maxima, p * 100.0))
        assert (theta, math.copysign(1.0, theta)) == (expected, math.copysign(1.0, expected))
        assert delta == 0.0

    def test_coherent_traffic_calibrates_below_one_bit(self):
        profile = TrajectoryProfile("coherent")
        baseline = [generate_trajectory(profile, 30, seed) for seed in range(20)]
        theta, delta = calibrate_mop_baseline(baseline)
        assert 0.0 < theta < 1.0
        assert delta == 0.0

    def test_all_short_is_an_error(self):
        with pytest.raises(MeltdownError, match="shorter than 2w"):
            calibrate_mop_baseline([steps_from_tools(list("abcdefghi"))])

    def test_percentile_validation(self):
        with pytest.raises(MeltdownError, match="percentile"):
            calibrate_mop_baseline([steps_from_tools(["a"] * 12)], percentile=1.5)
        with pytest.raises(MeltdownError, match="empty baseline"):
            calibrate_mop_baseline([])
        with pytest.raises(MeltdownError, match="window_w must be >= 2"):
            calibrate_mop_baseline([steps_from_tools(["a"] * 12)], w=1)


@pytest.mark.parametrize("w, n", [(w, n) for w in (2, 3, 5) for n in range(2 * w)])
def test_a_short_episode_is_too_short_on_every_path(w, n, tmp_path, capsys):
    """Up to 2w - 1 tools, where the scan has at most w levels, detect_mop,
    meltdown_table and the mop CSV each call the episode too short, with no
    onset, even at thresholds that any rise would exceed."""
    config = MopConfig(window_w=w, theta_h=0.0, delta=-math.inf)
    task = make_task()
    episode = make_episode("e1", task, steps=steps_from_tools([f"t{i % 3}" for i in range(n)]))
    result = detect_mop(episode, config)
    assert (result.onset_step, result.too_short) == (None, True)
    assert result.entropy_series == entropy_series(episode.steps, w)
    cell = meltdown_table([episode], {task.task_id: task}, config)[("m1", task.bucket)]
    assert (cell.n_events, cell.n_episodes, cell.n_too_short) == (0, 1, 1)
    log = tmp_path / "episodes.jsonl"
    write_episode_log([episode], log)
    assert main(["mop", "--logs", str(log), "--mop-window", str(w), "--mop-theta", "0",
                 "--mop-delta=-1e300"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[1:] == [
        "", repr(result.max_entropy), "True", "False"]


class TestMeltdownTable:
    def _cell_corpus(self, onsets: list[int], n_quiet: int, task, model_id="m1"):
        episodes = []
        for i, onset in enumerate(onsets):
            episodes.append(make_episode(
                f"{model_id}-hot-{i}", task, passed=False, model_id=model_id,
                steps=steps_from_tools(burst_tools(onset)), repeat_index=i + 1))
        for i in range(n_quiet):
            episodes.append(make_episode(
                f"{model_id}-quiet-{i}", task, passed=False, model_id=model_id,
                steps=steps_from_tools(["probe"] * 12), repeat_index=i + 1))
        return episodes

    def test_median_suppressed_below_five_events(self):
        task = make_task("mt-long", bucket="long")
        eps = self._cell_corpus([20, 22, 24, 26], 6, task)
        cell = meltdown_table(eps, {task.task_id: task})[("m1", "long")]
        assert cell.rate == 0.4
        assert cell.n_events == 4
        assert cell.median_onset is None
        assert cell.n_episodes == 10

    @pytest.mark.parametrize("onsets", [[20, 12, 16, 18, 14], [20, 12, 16, 18, 14, 22]])
    def test_lower_median_from_five_events(self, onsets):
        task = make_task("mt-long", bucket="long")
        eps = self._cell_corpus(onsets, 5, task)
        cell = meltdown_table(eps, {task.task_id: task})[("m1", "long")]
        assert cell.n_events == len(onsets)
        assert cell.median_onset == 16
        assert cell.rate == len(onsets) / (len(onsets) + 5)

    def test_quiet_cell(self):
        task = make_task("mt-short", bucket="short")
        eps = self._cell_corpus([], 8, task)
        cell = meltdown_table(eps, {task.task_id: task})[("m1", "short")]
        assert cell == type(cell)(rate=0.0, median_onset=None, n_events=0,
                                  n_episodes=8, n_too_short=0)

    def test_too_short_counts_in_denominator(self):
        task = make_task("mt-short", bucket="short")
        eps = self._cell_corpus([20], 3, task)
        eps.append(make_episode("stub", task, passed=False,
                                steps=steps_from_tools(list("abcdefghi"))))
        cell = meltdown_table(eps, {task.task_id: task})[("m1", "short")]
        assert cell.n_episodes == 5
        assert cell.n_too_short == 1
        assert cell.rate == 0.2

    def test_infra_episodes_excluded(self):
        task = make_task("mt-short", bucket="short")
        eps = self._cell_corpus([20], 2, task)
        eps.append(make_episode("infra", task, passed=False,
                                termination="infra_error",
                                steps=steps_from_tools(burst_tools(20))))
        cell = meltdown_table(eps, {task.task_id: task})[("m1", "short")]
        assert cell.n_episodes == 3
        assert cell.n_events == 1

    def test_order_invariance(self):
        task = make_task("mt-long", bucket="long")
        eps = self._cell_corpus([20, 12, 16, 18, 14], 5, task)
        shuffled = list(eps)
        random.Random(4).shuffle(shuffled)
        registry = {task.task_id: task}
        assert meltdown_table(eps, registry) == meltdown_table(shuffled, registry)

    def test_unknown_task_raises(self):
        ep = make_episode("e1", make_task("ghost"), passed=False)
        with pytest.raises(MeltdownError, match="not in registry"):
            meltdown_table([ep], {})


class TestEntropyPrecursor:
    def test_linear_rise_recovered_exactly(self):
        series = tuple((t, t / 8) for t in range(5, 25))
        assert entropy_precursor(series, onset=20, lookback=5) == 0.125

    def test_flat_prefix_is_zero(self):
        series = tuple((t, 0.0) for t in range(5, 21))
        assert entropy_precursor(series, onset=20, lookback=6) == 0.0

    def test_validation(self):
        series = tuple((t, 0.0) for t in range(10, 21))
        with pytest.raises(MeltdownError, match=">= 2"):
            entropy_precursor(series, onset=20, lookback=1)
        with pytest.raises(MeltdownError, match="no entropy value"):
            entropy_precursor(series, onset=12, lookback=5)


class TestReplayGuards:
    def test_repeated_call_trips_loop_guard(self):
        steps = [
            make_step(1, "read", {"f": "a.py"}),
            make_step(2, "fetch", {"url": "http://x"}),
            make_step(3, "read", {"f": "b.py"}),
            make_step(4, "fetch", {"url": "http://x"}),
            make_step(5, "read", {"f": "c.py"}),
            make_step(6, "fetch", {"url": "http://x"}),
        ]
        replay = replay_guards(steps)
        assert replay.loop_trigger_step == 6
        assert replay.budget_trigger_step is None
        assert not replay.nudge_exhausted

    def test_differing_args_never_loop(self):
        steps = [make_step(i, "fetch", {"page": i}) for i in range(1, 9)]
        assert replay_guards(steps).loop_trigger_step is None

    def test_budget_guard_fires_on_strict_excess(self):
        steps = [make_step(i, "read", {"f": i}, tokens_in=50_000) for i in (1, 2, 3)]
        assert replay_guards(steps).budget_trigger_step == 3
        assert replay_guards(steps, budget_tokens=150_000).budget_trigger_step is None
        assert replay_guards(steps, budget_tokens=149_999).budget_trigger_step == 3

    def test_window_eviction_forgets_old_repeats(self):
        # three identical calls overall, but never three within six steps
        tools = ["fetch", "fetch", "r1", "r2", "r3", "r4", "r5", "fetch"]
        steps = [make_step(i + 1, t, {"q": 0}) for i, t in enumerate(tools)]
        assert replay_guards(steps).loop_trigger_step is None

    def test_both_guards_reported_together(self):
        steps = [make_step(i, "fetch", {"q": 0}, tokens_in=50_000) for i in (1, 2, 3)]
        replay = replay_guards(steps)
        assert replay.loop_trigger_step == 3
        assert replay.budget_trigger_step == 3

    def test_custom_loop_count(self):
        steps = [make_step(i, "fetch", {"q": 0}) for i in (1, 2)]
        assert replay_guards(steps, loop_count=2).loop_trigger_step == 2

    def test_nudge_exhaustion_needs_episode_context(self):
        task = make_task("t-0001")
        steps = steps_from_tools(["read"] * 3)
        worn = make_episode("e1", task, steps=steps, nudges_used=3)
        fresh = make_episode("e2", task, steps=steps, nudges_used=2)
        assert replay_guards(worn).nudge_exhausted
        assert not replay_guards(fresh).nudge_exhausted
        assert not replay_guards(steps).nudge_exhausted

    def test_episode_id_passthrough(self):
        task = make_task("t-0001")
        ep = make_episode("e-9", task, steps=steps_from_tools(["read"] * 2))
        assert replay_guards(ep).episode_id == "e-9"

    def test_parameter_validation(self):
        with pytest.raises(MeltdownError, match=">= 1"):
            replay_guards([], loop_count=0)
        with pytest.raises(MeltdownError, match=">= 1"):
            replay_guards([], loop_window=0)

    @given(st.lists(
        st.tuples(st.sampled_from("fgh"), st.integers(0, 2),
                  st.integers(0, 2), st.booleans()),
        min_size=0, max_size=20))
    def test_arg_key_order_never_changes_the_replay(self, rows):
        def build(reorder: bool):
            steps = []
            for i, (tool, a, b, _) in enumerate(rows):
                pairs = [("alpha", a), ("beta", b), ("gamma", [a, b])]
                if reorder and rows[i][3]:
                    pairs = list(reversed(pairs))
                steps.append(make_step(i + 1, tool, dict(pairs), tokens_in=40_000))
            return steps
        forward = replay_guards(build(False), loop_count=2, loop_window=4)
        permuted = replay_guards(build(True), loop_count=2, loop_window=4)
        assert forward == permuted
