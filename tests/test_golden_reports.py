"""Golden sha256 hashes of every file the report emitter writes for two
fixed runs, so a change that shifts any reported value, even uniformly
across reruns, fails here rather than passing the determinism tests.

- ``fixture_study_b1000``: the acceptance pass-rate study corpus, analyzed
  with a 1000-resample VAF bootstrap.
- ``spiral_corpus_b0``: a simulated study whose failed episodes carry
  40-step spiral trajectories, analyzed with pricing, entropy-series
  sidecars and the bootstrap off.

A change meant to move report bytes regenerates the hashes with
``PYTHONPATH=src python tests/test_golden_reports.py`` and names the
change in CHANGES.md.
"""

from __future__ import annotations

import hashlib
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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_match_golden(name, tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    assert report_hashes(name) == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            hashes = {name: report_hashes(name) for name in sorted(RUNS)}
        finally:
            os.chdir(cwd)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: {sum(map(len, hashes.values()))} hashes over {len(hashes)} runs")
