"""Synthetic episode and trajectory generation from parametric error models.

Three step-failure models are provided:

- ``iid``: every step fails independently with probability epsilon.
- ``exchangeable``: each episode draws a latent failure rate q from a Beta
  distribution with mean epsilon and variance rho * epsilon**2, then fails
  steps independently at rate q. This realizes a pairwise failure
  covariance of exactly rho * epsilon**2 between steps of one episode.
  Positive correlation clusters failures into few episodes, which raises
  the all-success probability relative to iid.
- ``hazard``: step t fails independently with probability
  epsilon * (1 + gamma * t), so reliability decays faster than geometric
  with horizon. This is the mechanism that produces super-geometric decay;
  the exchangeable model cannot.

Everything is reproducible: identical (config, seed) gives byte-identical
output. Bulk step simulation draws from a single named substream and is
fully vectorized; per-episode substreams are reserved for the study and
trajectory generators where episode-level addressing matters.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .metrics import BUCKET_MINUTES_MIDPOINT
from .rng import substream
from .trajectory import (
    BUCKETS,
    DOMAINS,
    MAX_STEPS,
    SCAFFOLDS,
    Episode,
    Subtask,
    TaskSpec,
    ToolStep,
    canonical_args,
)

__all__ = [
    "MarkovCurve",
    "SimConfig",
    "SimulationError",
    "StudyCorpus",
    "TrajectoryProfile",
    "generate_trajectory",
    "markov_variance_curve",
    "predicted_failcount_variance",
    "predicted_success_bound",
    "simulate_agent_study",
    "simulate_steps",
    "trajectory_episode",
]

SIM_MODELS = ("iid", "exchangeable", "hazard")

DEFAULT_TOOL_POOL = (
    "read_file",
    "write_file",
    "list_files",
    "search_text",
    "run_command",
    "fetch_url",
    "submit_answer",
)

_STUDY_WEIGHTS = (0.25, 0.35, 0.20, 0.20)


class SimulationError(ValueError):
    """Raised for infeasible or malformed simulation parameters."""


def _check_size(name: str, value: int, elements: int = 0) -> None:
    """Refuse a size below 1, or above sys.maxsize, which numpy cannot index;
    and ``elements`` float64 draws that it shapes, more than numpy can
    allocate (their bytes must not exceed sys.maxsize)."""
    if not 1 <= value <= sys.maxsize:
        raise SimulationError(f"{name} must be in 1..{sys.maxsize}, got {value}")
    if elements * 8 > sys.maxsize:
        raise SimulationError(f"{name} {value} needs {elements} float64 draws, more than"
                              f" numpy can allocate ({sys.maxsize // 8})")


def _check_labels(model_id: str, scaffold: str) -> None:
    """Refuse episode labels that the log parser would reject."""
    if not model_id:
        raise SimulationError("model_id must be non-empty")
    if scaffold not in SCAFFOLDS:
        raise SimulationError(f"scaffold {scaffold!r} not one of {SCAFFOLDS}")


@dataclass(frozen=True)
class SimConfig:
    model: str
    epsilon: float
    horizon_t: int
    episodes: int
    seed: int
    rho: float = 0.0
    hazard_gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.model not in SIM_MODELS:
            raise SimulationError(f"model {self.model!r} not one of {SIM_MODELS}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise SimulationError(f"epsilon {self.epsilon} outside [0, 1]")
        _check_size("horizon_t", self.horizon_t)
        _check_size("episodes", self.episodes, self.episodes * self.horizon_t)
        if not 0.0 <= self.rho <= 1.0:
            raise SimulationError(f"rho {self.rho} outside [0, 1]")
        if not 0.0 <= self.hazard_gamma < math.inf:
            raise SimulationError(f"hazard_gamma {self.hazard_gamma} must be finite and >= 0")
        if self.model == "exchangeable":
            target = self.rho * self.epsilon ** 2
            ceiling = self.epsilon * (1.0 - self.epsilon)
            if target > ceiling:
                raise SimulationError(
                    f"infeasible covariance: rho*eps^2 = {target:.6g} exceeds"
                    f" eps*(1-eps) = {ceiling:.6g}")
        if self.model == "hazard":
            peak = self.epsilon * (1.0 + self.hazard_gamma * self.horizon_t)
            if peak > 1.0:
                raise SimulationError(
                    f"hazard rate reaches {peak:.6g} > 1 at t = {self.horizon_t}")


def simulate_steps(config: SimConfig) -> np.ndarray:
    """Per-episode step failure indicators, shape (episodes, horizon_t).

    All episodes are drawn vectorized from one substream of the seed, so a
    run is a single deterministic function of the config.
    """
    gen = substream(config.seed, "steps", config.model)
    n, t = config.episodes, config.horizon_t
    eps = config.epsilon
    if config.model == "iid":
        return gen.random((n, t)) < eps
    if config.model == "hazard":
        steps = np.arange(1, t + 1, dtype=float)
        eps_t = eps * (1.0 + config.hazard_gamma * steps)
        return gen.random((n, t)) < eps_t[np.newaxis, :]
    # exchangeable: latent per-episode rate q with mean eps, variance rho*eps^2
    variance = config.rho * eps ** 2
    ceiling = eps * (1.0 - eps)
    if variance == 0.0:
        q = np.full(n, eps)
    elif math.isclose(variance, ceiling, rel_tol=1e-12, abs_tol=0.0):
        # Maximal-variance boundary: the Beta degenerates to a two-point
        # law q in {0, 1} with P(q = 1) = eps.
        q = (gen.random(n) < eps).astype(float)
    else:
        phi = ceiling / variance - 1.0
        q = gen.beta(eps * phi, (1.0 - eps) * phi, size=n)
    return gen.random((n, t)) < q[:, np.newaxis]


def predicted_failcount_variance(epsilon: float, rho: float, t: int) -> float:
    """Variance of the per-episode failed-step count under pairwise failure
    covariance rho * epsilon**2: T*eps*(1-eps) + T*(T-1)*rho*eps^2."""
    return t * epsilon * (1.0 - epsilon) + t * (t - 1) * rho * epsilon ** 2


def predicted_success_bound(epsilon: float, rho: float, t: int) -> float:
    """exp(-eps*T - rho*eps^2*T*(T-1)/2).

    Reported for comparison only, never asserted: under exchangeable
    positive correlation the empirical all-success probability can exceed
    this value (clustering helps all-success), while the hazard model
    falls below its rho = 0 form.
    """
    return math.exp(-epsilon * t - rho * epsilon ** 2 * t * (t - 1) / 2.0)


class MarkovCurve(NamedTuple):
    points: tuple[tuple[int, float], ...]
    argmax_t: int


def markov_variance_curve(epsilon: float, t_range: Iterable[int]) -> MarkovCurve:
    """eps*T*(1-eps)^(T-1) over the horizons given; peaks near T = 1/eps.

    Adjacent horizons can tie to within float noise exactly at the peak
    (they tie exactly when 1/eps is an integer), so the argmax prefers the
    largest T among values within 1e-12 relative of the maximum.
    """
    if not 0.0 < epsilon < 1.0:
        raise SimulationError(f"epsilon {epsilon} outside (0, 1)")
    horizons = [int(t) for t in t_range]
    if not horizons:
        raise SimulationError("empty horizon range")
    if any(t < 1 for t in horizons):
        raise SimulationError("horizons must be >= 1")
    points = tuple((t, epsilon * t * (1.0 - epsilon) ** (t - 1)) for t in horizons)
    best = max(v for _, v in points)
    argmax_t = max(t for t, v in points if v >= best * (1.0 - 1e-12))
    return MarkovCurve(points=points, argmax_t=argmax_t)


# --- synthetic study corpora -------------------------------------------------

class StudyCorpus(NamedTuple):
    tasks: list[TaskSpec]
    episodes: list[Episode]


def _study_task(bucket: str, index: int) -> TaskSpec:
    return TaskSpec(
        task_id=f"{bucket}-{index:05d}",
        domain=DOMAINS[index % len(DOMAINS)],
        bucket=bucket,
        human_minutes_estimate=BUCKET_MINUTES_MIDPOINT[bucket],
        agent_steps_estimate=8,
        subtasks=tuple(
            Subtask(subtask_id=f"s{j + 1}", weight=w, description=f"stage {j + 1}")
            for j, w in enumerate(_STUDY_WEIGHTS)
        ),
    )


def simulate_agent_study(
    per_bucket_p: Mapping[str, float],
    tasks_per_bucket: int,
    k: int,
    seed: int,
    *,
    model_id: str = "sim-agent",
    scaffold: str = "react",
) -> StudyCorpus:
    """Synthetic study: i.i.d. pass outcomes per (task, repeat) at each
    bucket's rate, in the exact episode-log data model.

    Failed episodes get prefix-true subtask outcomes (stages complete in
    order until the failure point) and an evaluator score equal to the
    completed weight, which is always below 1. Passed episodes are all-true
    at score 1.
    """
    _check_size("tasks_per_bucket", tasks_per_bucket)
    _check_size("k", k, k)
    _check_labels(model_id, scaffold)
    for bucket, p in per_bucket_p.items():
        if bucket not in BUCKETS:
            raise SimulationError(f"unknown bucket {bucket!r}")
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"pass rate {p} for {bucket!r} outside [0, 1]")

    tasks: list[TaskSpec] = []
    episodes: list[Episode] = []
    n_sub = len(_STUDY_WEIGHTS)
    for bucket in BUCKETS:
        if bucket not in per_bucket_p:
            continue
        p = per_bucket_p[bucket]
        for i in range(tasks_per_bucket):
            task = _study_task(bucket, i)
            tasks.append(task)
            gen = substream(seed, "study", bucket, i)
            draws = gen.random(k)
            for r in range(k):
                passed = bool(draws[r] < p)
                if passed:
                    outcomes = (True,) * n_sub
                    score = 1.0
                else:
                    done = int(gen.integers(0, n_sub))
                    outcomes = (True,) * done + (False,) * (n_sub - done)
                    score = math.fsum(_STUDY_WEIGHTS[:done])
                episodes.append(Episode(
                    episode_id=f"{task.task_id}-r{r + 1}",
                    task_id=task.task_id,
                    model_id=model_id,
                    scaffold=scaffold,
                    repeat_index=r + 1,
                    steps=(),
                    nudges_used=0,
                    termination="finished",
                    subtask_outcomes=outcomes,
                    evaluator_score=score,
                    passed=passed,
                ))
    return StudyCorpus(tasks=tasks, episodes=episodes)


# --- synthetic trajectories ---------------------------------------------------

@dataclass(frozen=True)
class TrajectoryProfile:
    """Shape of a synthetic tool-call sequence.

    rote: one tool, fixed arguments, entropy identically zero.
    coherent: single-tool phases of at least window length, so any window
        spans at most two tools and entropy stays below 1 bit by
        construction (well under detection thresholds).
    spiral: coherent prefix through spiral_start, then uniform random tool
        draws over the whole pool.
    """

    profile: str
    tool_pool: tuple[str, ...] = DEFAULT_TOOL_POOL
    phase_lengths: tuple[int, ...] = (8, 7, 8, 7)
    spiral_start: int | None = None

    def __post_init__(self) -> None:
        if self.profile not in ("rote", "coherent", "spiral"):
            raise SimulationError(f"unknown profile {self.profile!r}")
        if not self.tool_pool:
            raise SimulationError("tool_pool must be non-empty")
        if len(set(self.tool_pool)) != len(self.tool_pool):
            raise SimulationError("tool_pool entries must be distinct")
        if self.profile in ("coherent", "spiral"):
            if len(self.tool_pool) < 2:
                raise SimulationError(f"{self.profile} profile needs >= 2 tools")
            if any(length < 5 for length in self.phase_lengths) or not self.phase_lengths:
                raise SimulationError(
                    "phase_lengths must all be >= 5 (the window size) so no"
                    " window can span three phases")
        if self.profile == "spiral":
            if self.spiral_start is None or self.spiral_start < 1:
                raise SimulationError("spiral profile needs spiral_start >= 1")


_MIN_TRAJECTORY = 10  # twice the default detection window


def _coherent_tools(profile: TrajectoryProfile, length: int) -> list[str]:
    tools: list[str] = []
    phase = 0
    while len(tools) < length:
        tool = profile.tool_pool[phase % len(profile.tool_pool)]
        span = profile.phase_lengths[phase % len(profile.phase_lengths)]
        tools.extend([tool] * min(span, length - len(tools)))
        phase += 1
    return tools


def _step(index: int, tool: str, args: object) -> ToolStep:
    return ToolStep(
        index=index,
        tool=tool,
        args_canonical=canonical_args(args),
        result_chars=120,
        tokens_in=400,
        tokens_out=80,
        timestamp=f"2026-01-01T00:{index // 60:02d}:{index % 60:02d}Z",
    )


def generate_trajectory(
    profile: TrajectoryProfile, length: int, seed: int
) -> list[ToolStep]:
    """Deterministic synthetic trajectory of the given profile and length."""
    if not _MIN_TRAJECTORY <= length <= MAX_STEPS:
        raise SimulationError(
            f"length must be in {_MIN_TRAJECTORY}..{MAX_STEPS}, got {length}")
    if profile.profile == "rote":
        tool = profile.tool_pool[0]
        return [_step(t, tool, {}) for t in range(1, length + 1)]
    if profile.profile == "coherent":
        tools = _coherent_tools(profile, length)
        return [_step(t, tools[t - 1], {"step": t}) for t in range(1, length + 1)]
    assert profile.spiral_start is not None
    if profile.spiral_start >= length:
        raise SimulationError(
            f"spiral_start {profile.spiral_start} must be below length {length}")
    tools = _coherent_tools(profile, profile.spiral_start)
    gen = substream(seed, "trajectory", profile.profile, length)
    n_random = length - profile.spiral_start
    draws = gen.integers(0, len(profile.tool_pool), size=n_random)
    tools.extend(profile.tool_pool[j] for j in draws)
    return [_step(t, tools[t - 1], {"step": t}) for t in range(1, length + 1)]


def trajectory_episode(
    episode_id: str,
    task: TaskSpec,
    steps: Sequence[ToolStep],
    *,
    model_id: str = "sim-agent",
    scaffold: str = "react",
    repeat_index: int = 1,
) -> Episode:
    """Wrap a synthetic trajectory as a failed finished episode against a
    task, so trajectory corpora flow through the standard log format."""
    _check_labels(model_id, scaffold)
    return Episode(
        episode_id=episode_id,
        task_id=task.task_id,
        model_id=model_id,
        scaffold=scaffold,
        repeat_index=repeat_index,
        steps=tuple(steps),
        nudges_used=0,
        termination="finished",
        subtask_outcomes=(False,) * len(task.subtasks),
        evaluator_score=0.0,
        passed=False,
    )
