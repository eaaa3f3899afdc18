"""Input-fuzz contract: hostile field values never make the CLI fail
internally.

Each example takes a small study corpus (episodes without steps) or a small
trajectory corpus (episodes with tool steps), sets one to four fields of its
episode log, registry, pricing or labels file to a hostile value, and runs
one log-reading subcommand on it twice. Every run must exit 0, 1 or 2 (3
is an internal error). An ``analyze`` that exits 0 must keep the line
accounting's ``conservation_holds`` and write only strict JSON (no NaN or
Infinity). The second run must print and write the same bytes.

The same contract holds for the CLI knobs: every option of ``analyze``,
``mop``, ``simulate`` and ``cost`` other than a path or a flag, set to a
boundary value. Each run must exit 0, 1 or 2, and a run that exits 1 or 2
must leave no ``--out`` behind.

Tier-1 runs a few hundred derandomized examples. A longer run with fresh
draws: ``PYTHONPATH=src:tests python tests/test_fuzz_inputs.py 10000``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from reliakit import (
    BUCKETS,
    SCAFFOLDS,
    Subtask,
    TaskSpec,
    serialize_episode,
    serialize_task,
    simulate_agent_study,
)
from reliakit.cli import build_parser, main
from reliakit.simulate import TrajectoryProfile, generate_trajectory, trajectory_episode

HOSTILE = (None, True, False, 0, -1, 2 ** 70, 10 ** 400, math.nan, math.inf, -math.inf,
           -0.0, [], {}, "", [1], {"a": None})

PRICING = {"model_id": "sim-agent", "input_per_million": 0.14, "output_per_million": 0.28}


def _records(lines):
    return [json.loads(line) for line in lines]


def _study():
    study = simulate_agent_study(dict(zip(BUCKETS, (0.9, 0.7, 0.6, 0.5))), 2, 2, 0)
    episodes = _records(map(serialize_episode, study.episodes))
    return {
        "episodes": episodes,
        "tasks": _records(map(serialize_task, study.tasks)),
        "pricing": [dict(PRICING)],
        "labels": [{"episode_id": e["episode_id"], "meltdown": not e["passed"]}
                   for e in episodes],
    }


def _trajectories():
    task = TaskSpec("traj-task-00000", "SE", "long", 75.0, 12,
                    tuple(Subtask(f"s{i}", 0.25, "") for i in range(1, 5)))
    episodes = []
    for i, profile in enumerate(("spiral", "coherent", "spiral", "rote", "coherent", "spiral")):
        steps = generate_trajectory(TrajectoryProfile(
            profile, spiral_start=6 if profile == "spiral" else None), 12 + i, i)
        episodes.append(trajectory_episode(f"traj-{i}", task, steps, repeat_index=i + 1))
    return {
        "episodes": _records(map(serialize_episode, episodes)),
        "tasks": _records([serialize_task(task)]),
        "pricing": [dict(PRICING)],
        "labels": [{"episode_id": ep.episode_id, "meltdown": i % 2 == 0}
                   for i, ep in enumerate(episodes)],
    }


CORPORA = {"study": _study(), "trajectories": _trajectories()}

COMMANDS = {
    "analyze_b0": ["analyze", "--registry", "tasks.jsonl", "--pricing", "pricing.jsonl",
                   "--out", "out", "--bootstrap-b", "0", "--emit-series"],
    "analyze_b1000": ["analyze", "--registry", "tasks.jsonl", "--out", "out",
                      "--bootstrap-b", "1000"],
    "validate": ["validate", "--registry", "tasks.jsonl"],
    "mop": ["mop"],
    "mop_f1": ["mop", "--calibrate", "f1", "--labels", "labels.jsonl"],
    "mop_baseline": ["mop", "--calibrate", "baseline"],
    "cost": ["cost", "--pricing", "pricing.jsonl"],
}


def _paths(value, prefix=()):
    """Every key path into a record, nested lists of objects included."""
    for key, inner in value.items():
        yield (*prefix, key)
        if isinstance(inner, list):
            for i, item in enumerate(inner):
                if isinstance(item, dict):
                    yield from _paths(item, (*prefix, key, i))


def _set(record, path, value):
    for key in path[:-1]:
        record = record[key]
    record[path[-1]] = value


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(sorted(CORPORA)))
    files = json.loads(json.dumps(CORPORA[kind]))
    edits = []
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(sorted(files)))
        index = draw(st.integers(0, len(files[name]) - 1))
        path = draw(st.sampled_from(list(_paths(files[name][index]))))
        value = draw(st.sampled_from(HOSTILE))
        _set(files[name][index], path, value)
        edits.append((name, index, path, value))
    command = draw(st.sampled_from(sorted(COMMANDS)))
    return kind, edits, command, files


def _write_files(work: Path, files) -> None:
    for name, records in files.items():
        (work / f"{name}.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def _run(work: Path, argv):
    """Exit code, stdout and every output file of one in-process CLI run."""
    shutil.rmtree(work / "out", ignore_errors=True)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    written = {p.relative_to(work / "out").as_posix(): p.read_bytes()
               for p in sorted((work / "out").rglob("*")) if p.is_file()}
    return code, out.getvalue(), written


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


def check_case(case) -> None:
    kind, edits, command, files = case
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_files(work, files)
        argv = [COMMANDS[command][0], "--logs", "episodes.jsonl", *COMMANDS[command][1:]]
        first = _run(work, argv)
        code, _, written = first
        assert code in (0, 1, 2), (kind, edits, command, first[:2])
        if code == 0 and command.startswith("analyze"):
            meta = json.loads(written["run_metadata.json"])
            assert meta["conservation_holds"] is True, (kind, edits, command)
            for name, data in written.items():
                if name.endswith(".json"):
                    json.loads(data, parse_constant=_reject)  # ValueError if not strict
        assert _run(work, argv) == first, (kind, edits, command)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(cases())
def test_hostile_fields_never_fail_internally(case):
    check_case(case)


# Defects the fuzz found, each pinned: (corpus, edits, command). Each
# exited 3 with an OverflowError, or wrote NaN or Infinity into cost.json.
FOUND = {
    "price_too_large_for_a_float": (
        "trajectories", [("pricing", 0, ("input_per_million",), 10 ** 400)], "cost"),
    "nan_price": (
        "trajectories", [("pricing", 0, ("output_per_million",), math.nan)], "analyze_b0"),
    "infinite_price": (
        "trajectories", [("pricing", 0, ("input_per_million",), math.inf)], "analyze_b0"),
    "token_count_too_large_for_a_float": (
        "trajectories", [("episodes", 0, ("steps", 0, "tokens_in"), 10 ** 400)], "cost"),
}


@pytest.mark.parametrize("kind, edits, command", FOUND.values(), ids=FOUND.keys())
def test_found_cases(kind, edits, command):
    files = json.loads(json.dumps(CORPORA[kind]))
    for name, index, path, value in edits:
        _set(files[name][index], path, value)
    check_case((kind, edits, command, files))


# --- CLI knobs -------------------------------------------------------------

KNOB_VALUES = ("0", "-1", "1", "2", "999", "1000", "nan", "inf", "-inf", "-0.0", "1e308",
               str(2 ** 62), str(2 ** 63), "", "0x10", "1_000")

# A size is fed only small values, or values refused before anything is
# allocated: an accepted large size would allocate or loop as far as it goes.
# 2^62 is refused where it shapes a float64 array (--episodes, --horizon and
# --k), but a loop count below sys.maxsize is accepted.
SIZES = ("--tasks-per-bucket", "--count", "--episodes", "--horizon", "--k")
NEVER = {flag: {"999", "1000", "1_000"} for flag in SIZES}
for flag in ("--tasks-per-bucket", "--count"):
    NEVER[flag].add(str(2 ** 62))

# Values a knob's own parser accepts, besides its argparse choices.
ACCEPTED = {"--vaf-num": BUCKETS, "--vaf-den": BUCKETS, "--scaffold": SCAFFOLDS}

# Each command's corpus and arguments before its knobs are set; every run
# also gets ``--out out``.
KNOB_BASES = {
    "analyze": ("study", ["--logs", "episodes.jsonl", "--registry", "tasks.jsonl",
                          "--pricing", "pricing.jsonl", "--bootstrap-b", "0", "--emit-series"]),
    "mop": ("trajectories", ["--logs", "episodes.jsonl", "--labels", "labels.jsonl"]),
    "simulate": ("study", ["--mode", "study", "--tasks-per-bucket", "2", "--k", "2",
                           "--episodes", "10", "--horizon", "10", "--count", "2"]),
    "cost": ("trajectories", ["--logs", "episodes.jsonl", "--pricing", "pricing.jsonl"]),
}


def _knobs():
    """Each command's knobs, read from the parser (every option but a path
    or a flag), with the values each is fed."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    knobs = {}
    for command in KNOB_BASES:
        knobs[command] = []
        for action in sub.choices[command]._actions:
            flag = max(action.option_strings, key=len, default="")
            if not flag or action.nargs == 0 or action.metavar in ("PATH", "DIR"):
                continue
            values = [v for v in KNOB_VALUES if v not in NEVER.get(flag, ())]
            values += [*(action.choices or ()), *ACCEPTED.get(flag, ())]
            if flag == "--p":  # one rate per bucket
                values = [",".join([v] * len(BUCKETS)) for v in values]
            knobs[command].append((flag, values))
    return knobs


KNOBS = _knobs()


@st.composite
def knob_cases(draw):
    command = draw(st.sampled_from(sorted(KNOBS)))
    knobs = KNOBS[command]
    argv = []
    for _ in range(draw(st.integers(1, 3)) if knobs else 0):
        flag, values = draw(st.sampled_from(knobs))
        argv.append(f"{flag}={draw(st.sampled_from(values))}")
    return command, argv


def check_knob_case(case) -> None:
    command, knobs = case
    kind, base = KNOB_BASES[command]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_files(work, CORPORA[kind])
        code, stdout, _ = _run(work, [command, *base, "--out", "out", *knobs])
        assert code in (0, 1, 2), (command, knobs, stdout)
        assert code == 0 or not (work / "out").exists(), (command, knobs, code)


def test_knob_cases_cover_every_knob():
    assert {flag for flag, _ in KNOBS["analyze"]} >= {
        "--seed", "--bootstrap-b", "--ci-level", "--ci-method", "--mop-theta",
        "--mop-delta", "--mop-window", "--vaf-num", "--vaf-den", "--regressor", "--format"}
    assert {flag for flag, _ in KNOBS["simulate"]} >= {"--mode", "--p", *SIZES}
    assert KNOBS["cost"] == []


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(knob_cases())
def test_knobs_at_their_boundaries_never_fail_internally(case):
    check_knob_case(case)


@pytest.mark.parametrize("flag", SIZES)
def test_a_size_numpy_cannot_index_is_refused(flag):
    mode = {"--count": "trajectories", "--episodes": "steps", "--horizon": "steps"}
    check_knob_case(("simulate", [f"--mode={mode.get(flag, 'study')}", f"{flag}={2 ** 63}"]))


@pytest.mark.parametrize("argv", [
    ["simulate", "--mode", "steps", "--episodes", str(2 ** 62), "--horizon", "1"],
    ["simulate", "--mode", "steps", "--episodes", "2", "--horizon", str(2 ** 62)],
    ["simulate", "--mode", "study", "--tasks-per-bucket", "1", "--k", str(2 ** 62)],
], ids=["episodes", "horizon", "k"])
def test_a_size_numpy_can_index_but_not_allocate_is_refused(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert "more than numpy can allocate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


if __name__ == "__main__":
    examples = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
    settings(max_examples=examples, deadline=None, database=None)(given(cases())(check_case))()
    settings(max_examples=examples, deadline=None, database=None)(
        given(knob_cases())(check_knob_case))()
    print(f"{examples} examples of fields and of knobs: no internal error")
