"""Shared factories for synthetic tasks, episodes, and log files."""

from __future__ import annotations

import math
from typing import Sequence

from reliakit.trajectory import (
    Episode,
    Subtask,
    TaskSpec,
    ToolStep,
    _Record,
    canonical_args,
)

FOUR_WEIGHTS = (0.25, 0.35, 0.20, 0.20)
BUCKET_MINUTES = {"short": 2.5, "medium": 17.5, "long": 75.0, "very_long": 150.0}


def make_task(
    task_id: str = "t-0001",
    bucket: str = "short",
    domain: str = "SE",
    weights: Sequence[float] = FOUR_WEIGHTS,
    minutes: float | None = None,
) -> TaskSpec:
    subtasks = tuple(Subtask(f"s{i + 1}", w, "") for i, w in enumerate(weights))
    return TaskSpec(
        task_id=task_id,
        domain=domain,
        bucket=bucket,
        human_minutes_estimate=BUCKET_MINUTES[bucket] if minutes is None else minutes,
        agent_steps_estimate=8,
        subtasks=subtasks,
    )


def make_step(
    index: int,
    tool: str = "read_file",
    args: object = None,
    tokens_in: int = 100,
    tokens_out: int = 20,
) -> ToolStep:
    return ToolStep(
        index=index,
        tool=tool,
        args_canonical=canonical_args({} if args is None else args),
        result_chars=50,
        tokens_in=tokens_in,
        tokens_out=tokens_out,
        timestamp=f"2026-01-01T{index // 3600:02d}:{index // 60 % 60:02d}:{index % 60:02d}Z",
    )


def record_of(episode: Episode) -> _Record:
    """What the read path hands over of ``episode``: its fields but steps,
    taken by name."""
    return _Record(*(getattr(episode, name) for name in _Record._fields))


def steps_from_tools(tools: Sequence[str]) -> tuple[ToolStep, ...]:
    return tuple(make_step(i + 1, tool=t, args={"step": i + 1}) for i, t in enumerate(tools))


def make_episode(
    episode_id: str,
    task: TaskSpec,
    *,
    passed: bool = True,
    outcomes: Sequence[bool] | None = None,
    model_id: str = "m1",
    scaffold: str = "react",
    repeat_index: int = 1,
    steps: Sequence[ToolStep] = (),
    termination: str = "finished",
    nudges_used: int = 0,
) -> Episode:
    n = len(task.subtasks)
    if outcomes is None:
        outcomes = (True,) * n if passed else (False,) * n
    outcomes = tuple(outcomes)
    if all(outcomes):
        score = 1.0
    elif not any(outcomes):
        score = 0.0
    else:
        score = math.fsum(s.weight for s, done in zip(task.subtasks, outcomes) if done)
    return Episode(
        episode_id=episode_id,
        task_id=task.task_id,
        model_id=model_id,
        scaffold=scaffold,
        repeat_index=repeat_index,
        steps=tuple(steps),
        nudges_used=nudges_used,
        termination=termination,
        subtask_outcomes=outcomes,
        evaluator_score=score,
        passed=passed,
    )
