"""Error-model simulators: distributional checks against closed forms."""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats

from reliakit import (
    BUCKETS,
    MopConfig,
    SimConfig,
    SimulationError,
    detect_mop,
    generate_trajectory,
    markov_variance_curve,
    outcome_groups,
    pass_at_1,
    pass_pow_k,
    predicted_failcount_variance,
    predicted_success_bound,
    simulate_agent_study,
    simulate_steps,
    substream,
    trajectory_episode,
)
from reliakit.simulate import DEFAULT_TOOL_POOL, TrajectoryProfile

from conftest import make_task


def variance_3sigma(fails: np.ndarray) -> tuple[float, float]:
    """Sample variance and 3x its standard error from empirical moments."""
    n = fails.size
    var = fails.var()
    m4 = ((fails - fails.mean()) ** 4).mean()
    se = math.sqrt(max(m4 - var ** 2, 0.0) / n)
    return float(var), 3.0 * se


class TestSimConfig:
    def test_field_validation(self):
        good = dict(model="iid", epsilon=0.1, horizon_t=10, episodes=100, seed=0)
        SimConfig(**good)
        for patch in (
            {"model": "weibull"},
            {"epsilon": 1.5},
            {"horizon_t": 0},
            {"episodes": 0},
            {"rho": -0.1},
            {"rho": 1.1},
            {"hazard_gamma": -1.0},
            {"hazard_gamma": math.nan},
            {"hazard_gamma": math.inf},
        ):
            with pytest.raises(SimulationError):
                SimConfig(**{**good, **patch})

    def test_infeasible_covariance(self):
        with pytest.raises(SimulationError, match="infeasible covariance"):
            SimConfig(model="exchangeable", epsilon=0.9, rho=1.0,
                      horizon_t=10, episodes=10, seed=0)

    def test_hazard_rate_cap(self):
        with pytest.raises(SimulationError, match="> 1"):
            SimConfig(model="hazard", epsilon=0.1, hazard_gamma=1.0,
                      horizon_t=10, episodes=10, seed=0)


class TestSimulateSteps:
    def test_shape_and_degenerate_rates(self):
        out = simulate_steps(SimConfig("iid", 0.0, 7, 40, seed=1))
        assert out.shape == (40, 7)
        assert not out.any()
        assert simulate_steps(SimConfig("iid", 1.0, 7, 40, seed=1)).all()

    def test_reproducible(self):
        cfg = SimConfig("exchangeable", 0.1, 10, 500, seed=5, rho=0.3)
        assert np.array_equal(simulate_steps(cfg), simulate_steps(cfg))
        other = SimConfig("exchangeable", 0.1, 10, 500, seed=6, rho=0.3)
        assert not np.array_equal(simulate_steps(cfg), simulate_steps(other))

    def test_iid_rate_recovered(self):
        out = simulate_steps(SimConfig("iid", 0.1, 10, 100_000, seed=2))
        se = math.sqrt(0.1 * 0.9 / out.size)
        assert abs(out.mean() - 0.1) <= 3 * se

    def test_exchangeable_variance_matches_closed_form(self):
        cfg = SimConfig("exchangeable", 0.1, 10, 100_000, seed=3, rho=0.5)
        fails = simulate_steps(cfg).sum(axis=1)
        var, tol = variance_3sigma(fails)
        assert abs(var - predicted_failcount_variance(0.1, 0.5, 10)) <= tol

    def test_exchangeable_rho_zero_reduces_to_iid_variance(self):
        cfg = SimConfig("exchangeable", 0.1, 10, 100_000, seed=4, rho=0.0)
        fails = simulate_steps(cfg).sum(axis=1)
        var, tol = variance_3sigma(fails)
        assert abs(var - 0.9) <= tol

    def test_maximal_variance_boundary_is_two_point(self):
        # rho*eps^2 == eps*(1-eps) forces q in {0, 1}: episodes all-fail
        # or all-succeed, nothing in between.
        cfg = SimConfig("exchangeable", 0.5, 8, 20_000, seed=5, rho=1.0)
        fails = simulate_steps(cfg).sum(axis=1)
        assert set(np.unique(fails)) <= {0, 8}
        assert abs((fails == 8).mean() - 0.5) <= 3 * math.sqrt(0.25 / 20_000)

    def test_hazard_rates_climb_with_step_index(self):
        cfg = SimConfig("hazard", 0.05, 5, 50_000, seed=6, hazard_gamma=2.0)
        out = simulate_steps(cfg)
        for col, t in enumerate(range(1, 6)):
            rate = 0.05 * (1 + 2.0 * t)
            se = math.sqrt(rate * (1 - rate) / 50_000)
            assert abs(out[:, col].mean() - rate) <= 3 * se

    def test_hazard_gamma_zero_indistinguishable_from_iid(self):
        n = 20_000
        iid = simulate_steps(SimConfig("iid", 0.1, 10, n, seed=7)).sum(axis=1)
        hz = simulate_steps(
            SimConfig("hazard", 0.1, 10, n, seed=7, hazard_gamma=0.0)).sum(axis=1)
        stat = scipy.stats.mannwhitneyu(iid, hz)
        assert stat.pvalue > 0.01

    def test_jensen_directions(self):
        n, t, eps = 100_000, 10, 0.1
        iid_success = (1 - eps) ** t
        exch = simulate_steps(SimConfig("exchangeable", eps, t, n, seed=8, rho=0.5))
        exch_success = (exch.sum(axis=1) == 0).mean()
        se = math.sqrt(exch_success * (1 - exch_success) / n)
        assert exch_success - iid_success > 3 * se

        hz = simulate_steps(SimConfig("hazard", eps, t, n, seed=9, hazard_gamma=0.5))
        hz_success = (hz.sum(axis=1) == 0).mean()
        se = math.sqrt(hz_success * (1 - hz_success) / n)
        assert iid_success - hz_success > 3 * se


class TestClosedForms:
    def test_failcount_variance_examples(self):
        assert abs(predicted_failcount_variance(0.1, 0.0, 10) - 0.9) <= 1e-12
        assert abs(predicted_failcount_variance(0.1, 0.5, 10) - 1.35) <= 1e-12

    def test_failcount_variance_single_step_ignores_rho(self):
        for rho in (0.0, 0.3, 1.0):
            assert predicted_failcount_variance(0.2, rho, 1) == 0.2 * 0.8

    def test_success_bound_examples(self):
        assert predicted_success_bound(0.1, 0.0, 10) == math.exp(-1.0)
        assert round(predicted_success_bound(0.1, 0.5, 10), 3) == 0.294
        assert predicted_success_bound(0.3, 0.9, 1) == math.exp(-0.3)

    def test_markov_curve_peaks_at_inverse_epsilon(self):
        curve = markov_variance_curve(0.1, range(1, 51))
        assert curve.argmax_t == 10
        values = [v for _, v in curve.points]
        peak = values.index(max(values))
        assert all(values[i] <= values[i + 1] + 1e-15 for i in range(peak))
        assert all(values[i] >= values[i + 1] - 1e-15 for i in range(peak, 49))

    def test_markov_single_point(self):
        curve = markov_variance_curve(0.5, [1])
        assert curve.points == ((1, 0.5),)
        assert curve.argmax_t == 1

    def test_markov_validation(self):
        with pytest.raises(SimulationError, match="outside"):
            markov_variance_curve(0.0, range(1, 5))
        with pytest.raises(SimulationError, match="empty"):
            markov_variance_curve(0.1, [])
        with pytest.raises(SimulationError, match=">= 1"):
            markov_variance_curve(0.1, [0, 1])


class TestAgentStudy:
    def test_degenerate_rates(self):
        corpus = simulate_agent_study({b: 1.0 for b in BUCKETS}, 5, 3, seed=0)
        registry = {t.task_id: t for t in corpus.tasks}
        groups = outcome_groups(corpus.episodes, registry)
        assert pass_at_1(groups) == 1.0
        assert pass_pow_k(groups) == 1.0

        corpus = simulate_agent_study({"short": 0.0}, 5, 2, seed=0)
        assert not any(ep.passed for ep in corpus.episodes)

    def test_reproducible_and_seed_sensitive(self):
        a = simulate_agent_study({"short": 0.5}, 20, 3, seed=1)
        b = simulate_agent_study({"short": 0.5}, 20, 3, seed=1)
        c = simulate_agent_study({"short": 0.5}, 20, 3, seed=2)
        assert a == b
        assert a.episodes != c.episodes

    def test_counts_and_identity(self):
        corpus = simulate_agent_study({"short": 0.5, "long": 0.5}, 7, 3, seed=4)
        assert len(corpus.tasks) == 14
        assert len(corpus.episodes) == 42
        ids = [ep.episode_id for ep in corpus.episodes]
        assert len(set(ids)) == len(ids)
        assert {ep.repeat_index for ep in corpus.episodes} == {1, 2, 3}
        assert {t.bucket for t in corpus.tasks} == {"short", "long"}

    def test_failed_episodes_are_prefix_true_below_full_score(self):
        corpus = simulate_agent_study({"short": 0.3}, 40, 3, seed=5)
        saw_failure = False
        for ep in corpus.episodes:
            if ep.passed:
                assert ep.subtask_outcomes == (True,) * 4
                assert ep.evaluator_score == 1.0
                continue
            saw_failure = True
            outcomes = ep.subtask_outcomes
            # monotone: no recovery after the first failed stage
            assert all(outcomes[i] or not outcomes[i + 1] for i in range(3))
            assert ep.evaluator_score < 1.0
        assert saw_failure

    def test_rate_recovered_per_bucket(self):
        corpus = simulate_agent_study({"medium": 0.93}, 2000, 1, seed=6)
        registry = {t.task_id: t for t in corpus.tasks}
        value = pass_at_1(outcome_groups(corpus.episodes, registry))
        assert abs(value - 0.93) <= 3 * math.sqrt(0.93 * 0.07 / 2000)

    def test_validation(self):
        with pytest.raises(SimulationError, match="tasks_per_bucket"):
            simulate_agent_study({"short": 0.5}, 0, 3, seed=0)
        with pytest.raises(SimulationError, match="k must"):
            simulate_agent_study({"short": 0.5}, 5, 0, seed=0)
        with pytest.raises(SimulationError, match="unknown bucket"):
            simulate_agent_study({"hourly": 0.5}, 5, 3, seed=0)
        with pytest.raises(SimulationError, match="outside"):
            simulate_agent_study({"short": 1.5}, 5, 3, seed=0)
        # Labels the log parser rejects (bad_model_id, bad_scaffold).
        with pytest.raises(SimulationError, match="model_id must be non-empty"):
            simulate_agent_study({"short": 0.5}, 5, 3, seed=0, model_id="")
        with pytest.raises(SimulationError, match="scaffold 'foo' not one of"):
            simulate_agent_study({"short": 0.5}, 5, 3, seed=0, scaffold="foo")


class TestTrajectories:
    def test_rote_is_flat(self):
        steps = generate_trajectory(TrajectoryProfile("rote"), 30, seed=0)
        assert len(steps) == 30
        assert {s.tool for s in steps} == {DEFAULT_TOOL_POOL[0]}
        assert detect_mop(steps).max_entropy == 0.0
        assert [s.index for s in steps] == list(range(1, 31))

    def test_coherent_stays_below_detection_threshold(self):
        steps = generate_trajectory(TrajectoryProfile("coherent"), 60, seed=0)
        result = detect_mop(steps)
        assert result.onset_step is None
        assert result.max_entropy < 1.5

    def test_spiral_onset_lands_shortly_after_start(self):
        profile = TrajectoryProfile("spiral", spiral_start=15)
        hits = 0
        for seed in range(50):
            steps = generate_trajectory(profile, 30, seed)
            onset = detect_mop(steps, MopConfig(theta_h=1.711, delta=0.0)).onset_step
            hits += onset is not None and 16 <= onset <= 24
        assert hits >= 45

    def test_spiral_prefix_matches_coherent(self):
        spiral = generate_trajectory(TrajectoryProfile("spiral", spiral_start=15), 30, 3)
        coherent = generate_trajectory(TrajectoryProfile("coherent"), 30, 3)
        assert [s.tool for s in spiral[:15]] == [s.tool for s in coherent[:15]]

    def test_trajectory_determinism(self):
        profile = TrajectoryProfile("spiral", spiral_start=12)
        assert generate_trajectory(profile, 40, 9) == generate_trajectory(profile, 40, 9)
        assert generate_trajectory(profile, 40, 9) != generate_trajectory(profile, 40, 8)

    def test_profile_validation(self):
        with pytest.raises(SimulationError, match="unknown profile"):
            TrajectoryProfile("chaotic")
        with pytest.raises(SimulationError, match="non-empty"):
            TrajectoryProfile("rote", tool_pool=())
        with pytest.raises(SimulationError, match="distinct"):
            TrajectoryProfile("rote", tool_pool=("a", "a"))
        with pytest.raises(SimulationError, match=">= 2 tools"):
            TrajectoryProfile("coherent", tool_pool=("only",))
        with pytest.raises(SimulationError, match="phase_lengths"):
            TrajectoryProfile("coherent", phase_lengths=(4, 8))
        with pytest.raises(SimulationError, match="spiral_start"):
            TrajectoryProfile("spiral")

    def test_length_validation(self):
        with pytest.raises(SimulationError, match="length"):
            generate_trajectory(TrajectoryProfile("rote"), 9, seed=0)
        # One step past the harness limit the parser enforces (MAX_STEPS).
        with pytest.raises(SimulationError, match="length must be in 10..70, got 71"):
            generate_trajectory(TrajectoryProfile("rote"), 71, seed=0)
        assert len(generate_trajectory(TrajectoryProfile("rote"), 70, seed=0)) == 70
        with pytest.raises(SimulationError, match="below length"):
            generate_trajectory(TrajectoryProfile("spiral", spiral_start=30), 30, 0)

    def test_trajectory_episode_wrapper(self):
        task = make_task("t-0001")
        steps = generate_trajectory(TrajectoryProfile("rote"), 12, seed=0)
        ep = trajectory_episode("e1", task, steps)
        assert ep.passed is False
        assert ep.evaluator_score == 0.0
        assert ep.subtask_outcomes == (False,) * 4
        assert ep.steps == tuple(steps)
        with pytest.raises(SimulationError, match="model_id must be non-empty"):
            trajectory_episode("e1", task, steps, model_id="")
        with pytest.raises(SimulationError, match="scaffold 'foo' not one of"):
            trajectory_episode("e1", task, steps, scaffold="foo")


class TestSubstream:
    def test_path_addressing(self):
        a = substream(0, "steps", "iid").random(4)
        b = substream(0, "steps", "iid").random(4)
        c = substream(0, "iid", "steps").random(4)
        d = substream(1, "steps", "iid").random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
