"""Golden sha256 hashes of every file the report emitter writes for two
fixed runs, and of the stdout of the other log-reading subcommands, so a
change that shifts any reported value, even uniformly across reruns, fails
here rather than passing the determinism tests.

- ``fixture_study_b1000``: the acceptance pass-rate study corpus, analyzed
  with a 1000-resample VAF bootstrap.
- ``spiral_corpus_b0``: a simulated study whose failed episodes carry
  40-step spiral trajectories, analyzed with pricing, entropy-series
  sidecars and the bootstrap off.
- ``spiral_corpus_stdout``: ``mop`` (detection, ``--calibrate f1`` and
  ``--calibrate baseline``), ``cost`` and ``validate`` (with and without
  ``--registry``) over that corpus plus a second log holding a cross-file
  duplicate, an episode of an unknown task and a malformed line.

A change meant to move report bytes regenerates the hashes with
``PYTHONPATH=src python tests/test_golden_reports.py`` and names the
change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from study_fixtures import build_pass_rate_corpus
from reliakit import (
    BUCKETS,
    PipelineOptions,
    emit_report,
    run_pipeline,
    write_episode_log,
    write_task_registry,
)
from reliakit.cli import main
from reliakit.simulate import (
    TrajectoryProfile,
    generate_trajectory,
    simulate_agent_study,
)

GOLDEN = Path(__file__).parent / "golden" / "report_hashes.json"
FORMATS = ("csv", "json", "markdown")
SPIRAL_STEPS = 40


def _fixture_study(data: Path):
    tasks, episodes = build_pass_rate_corpus()
    write_task_registry(tasks, data / "tasks.jsonl")
    write_episode_log(episodes, data / "episodes.jsonl")
    return None, PipelineOptions(bootstrap_b=1000)


def _spiral_corpus(data: Path):
    study = simulate_agent_study(dict(zip(BUCKETS, (0.8, 0.7, 0.6, 0.5))), 8, 3, 5)
    coherent = tuple(generate_trajectory(TrajectoryProfile("coherent"), SPIRAL_STEPS, 5))
    spiral = TrajectoryProfile("spiral", spiral_start=SPIRAL_STEPS // 2)
    episodes = [
        replace(ep, steps=coherent if ep.passed
                else tuple(generate_trajectory(spiral, SPIRAL_STEPS, i)))
        for i, ep in enumerate(study.episodes)
    ]
    write_task_registry(study.tasks, data / "tasks.jsonl")
    write_episode_log(episodes, data / "episodes.jsonl")
    pricing = data / "pricing.jsonl"
    pricing.write_text(json.dumps({"model_id": "sim-agent", "input_per_million": 0.14,
                                   "output_per_million": 0.28}) + "\n", encoding="utf-8")
    return pricing, PipelineOptions(seed=3, bootstrap_b=0, emit_series=True)


RUNS = {"fixture_study_b1000": _fixture_study, "spiral_corpus_b0": _spiral_corpus}


def report_hashes(name: str) -> dict[str, str]:
    """Build run ``name`` under the current directory, emit every format into
    one directory as ``analyze`` does, and hash each written file. Input
    paths are relative because run_metadata.json records them."""
    data = Path(name)
    data.mkdir()
    pricing, options = RUNS[name](data)
    bundle = run_pipeline([data / "episodes.jsonl"], data / "tasks.jsonl", pricing, options)
    out = data / "report"
    for fmt in FORMATS:
        emit_report(bundle, fmt, out)
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


STDOUT_RUN = "spiral_corpus_stdout"
# Subcommand arguments after ``--logs``, and the exit code each must return
# (the malformed line is a validation error).
COMMANDS = {
    "mop": (["mop"], 0),
    "mop_f1": (["mop", "--calibrate", "f1", "--labels", "labels.jsonl"], 0),
    "mop_baseline": (["mop", "--calibrate", "baseline"], 0),
    "cost": (["cost", "--pricing", "pricing.jsonl"], 0),
    "validate": (["validate"], 2),
    "validate_registry": (["validate", "--registry", "tasks.jsonl"], 2),
}


def stdout_hashes() -> dict[str, str]:
    """Build the spiral corpus under the current directory, add a second log
    with a cross-file duplicate, an episode of a task the registry lacks and
    a malformed line, plus a label per episode (failed ones melted). Then run
    every subcommand of COMMANDS in process from inside the corpus directory
    and hash its stdout. Paths are relative because validate prints them."""
    data = Path(STDOUT_RUN)
    data.mkdir()
    _spiral_corpus(data)
    records = [json.loads(line) for line in
               (data / "episodes.jsonl").read_text(encoding="utf-8").splitlines()]
    records.append(dict(records[5], episode_id="orphan-0001", task_id="no-such-task"))
    (data / "second.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in (records[3], records[-1])) + "{broken\n",
        encoding="utf-8")
    (data / "labels.jsonl").write_text("".join(
        json.dumps({"episode_id": r["episode_id"], "meltdown": not r["passed"]}) + "\n"
        for r in records), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(data)
    try:
        hashes = {}
        for name, (argv, code) in COMMANDS.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                exit_code = main([argv[0], "--logs", "episodes.jsonl", "second.jsonl",
                                  *argv[1:]])
            assert exit_code == code, (name, exit_code)
            hashes[name] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    finally:
        os.chdir(cwd)
    return hashes


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_match_golden(name, tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    assert report_hashes(name) == golden[name]


def test_subcommand_stdout_matches_golden(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    assert stdout_hashes() == golden[STDOUT_RUN]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            hashes = {name: report_hashes(name) for name in sorted(RUNS)}
            hashes[STDOUT_RUN] = stdout_hashes()
        finally:
            os.chdir(cwd)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: {sum(map(len, hashes.values()))} hashes over {len(hashes)} runs")
