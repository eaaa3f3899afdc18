"""Seeded benchmark corpora and the checks on what the CLI writes for them.

Each corpus is a pure function of (workload, seed, scale). It is built from
the in-repo ``simulate`` and ``trajectory`` functions plus stdlib ``random``,
written to files, and the CLI under test sees only those files. The generator
also keeps the ground truth it injected (line accounting, per-bucket pass
counts), which the output checks compare against.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from reliakit.simulate import (
    TrajectoryProfile,
    generate_trajectory,
    simulate_agent_study,
    trajectory_episode,
)
from reliakit.trajectory import (
    BUCKETS,
    Subtask,
    TaskSpec,
    canonical_args,
    serialize_episode,
    write_task_registry,
)

# Pass rates per bucket, the CLI's `simulate --mode study` default.
STUDY_P = (0.93, 0.94, 0.84, 0.82)
K = 3
MOP_WINDOW = 5  # the CLI default; episodes of 2w steps or more can melt
F1_GRID_THETA = (0.5, 1.0, 1.5, 2.0)
F1_GRID_DELTA = (0.2, 0.5, 1.0)

# Full-size parameters; --scale multiplies the task, model and trajectory counts.
TRACES_TASKS_PER_BUCKET = 90
TRACES_STEPS = 40
TRACES_DIRTY_SHARE = 0.01
TRACES_INFRA_SHARE = 0.02
SELECTION_MODELS = 16
SELECTION_TASKS_PER_BUCKET = 12
# Lower than STUDY_P so that no selection's denominator buckets are all-pass
# (a degenerate VAF skips its bootstrap and would change the work per seed).
SELECTION_P = (0.80, 0.78, 0.70, 0.65)
SELECTION_BOOTSTRAP_B = 1000  # the documented floor; 10000 is too slow to repeat
MOP_TRAJECTORIES = 900
MOP_FLIP_SHARE = 0.05


@dataclass
class Corpus:
    workload: str
    command: list[str]  # CLI arguments; analyze workloads add --out
    records: int  # non-blank lines over all episode logs
    properties: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)

    def argv(self, out_dir: str) -> list[str]:
        if self.command[0] == "analyze":
            return [*self.command, "--out", out_dir]
        return list(self.command)


def build(workload: str, seed: int, work: Path, scale: float = 1.0) -> Corpus:
    """Write the inputs of one workload under ``work`` (a path relative to
    the directory the CLI runs in) and return what the checks need."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(_BUILDERS)}")
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](seed, work, scale)


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _write_pricing(path: Path, model_ids: list[str]) -> None:
    _write_lines(path, [
        json.dumps({"model_id": m, "input_per_million": 0.14, "output_per_million": 0.28})
        for m in model_ids])


def _step_properties(episodes) -> dict:
    steps = [s for ep in episodes for s in ep.steps]
    eligible = sum(1 for ep in episodes if len(ep.steps) >= 2 * MOP_WINDOW)
    return {
        "steps": len(steps),
        "args_distinct_ratio": (len({s.args_canonical for s in steps}) / len(steps)
                                if steps else 0.0),
        "eligible_ratio": eligible / len(episodes),
    }


def _expected_rdc(episodes, bucket_of: dict[str, str]) -> dict[str, list]:
    """[pass1, n_tasks, n_episodes] per model|scaffold|bucket, counted the
    way rdc counts: non-infra episodes, tasks as distinct task ids."""
    cells: dict[tuple[str, str, str], list] = {}
    for ep in episodes:
        if ep.termination == "infra_error":
            continue
        cell = cells.setdefault((ep.model_id, ep.scaffold, bucket_of[ep.task_id]),
                                [0, set(), 0])
        cell[0] += ep.passed
        cell[1].add(ep.task_id)
        cell[2] += 1
    return {"|".join(key): [passed / n, len(tasks), n]
            for key, (passed, tasks, n) in sorted(cells.items())}


def _dirty_files(lines: list[str], rng: random.Random, share: float):
    """Split episode lines over two files and inject cross-file duplicates,
    in-file duplicates and malformed (truncated) lines. Returns the files as
    lists of (kind, episode index) entries with kind ok, dup or bad."""
    half = len(lines) // 2
    files = [[("ok", i) for i in range(half)], [("ok", i) for i in range(half, len(lines))]]
    k = max(1, round(share * len(lines)))
    injected = {"cross_file_duplicates": k, "in_file_duplicates": k, "malformed": k}
    for i in rng.sample(range(half), k):
        files[1].insert(rng.randint(0, len(files[1])), ("dup", i))
    for i in rng.sample(range(len(lines)), k):
        target = files[0] if i < half else files[1]
        after = target.index(("ok", i)) + 1
        target.insert(rng.randint(after, len(target)), ("dup", i))
    for i in rng.sample(range(len(lines)), k):
        target = files[rng.randrange(2)]
        target.insert(rng.randint(0, len(target)), ("bad", i))
    return files, injected


def _accounting(files, infra: list[bool]) -> dict[str, int]:
    """The run_metadata episode counts the CLI must report for these files."""
    counts = dict.fromkeys(("log_lines", "parse_errors", "duplicates", "parsed",
                            "join_excluded", "infra_excluded", "analyzed"), 0)
    seen: set[int] = set()
    for entries in files:
        for kind, i in entries:
            counts["log_lines"] += 1
            if kind == "bad":
                counts["parse_errors"] += 1
            elif i in seen:
                counts["duplicates"] += 1
            else:
                seen.add(i)
                counts["parsed"] += 1
                counts["infra_excluded"] += infra[i]
    counts["analyzed"] = counts["parsed"] - counts["infra_excluded"]
    return counts


def _build_traces(seed: int, work: Path, scale: float) -> Corpus:
    rng = random.Random(seed)
    study = simulate_agent_study(dict(zip(BUCKETS, STUDY_P)),
                                 _scaled(TRACES_TASKS_PER_BUCKET, scale, 2), K, seed)
    coherent = tuple(generate_trajectory(TrajectoryProfile("coherent"), TRACES_STEPS, seed))
    spiral = TrajectoryProfile("spiral", spiral_start=TRACES_STEPS // 2)
    episodes = []
    for i, ep in enumerate(study.episodes):
        steps = coherent if ep.passed else tuple(
            generate_trajectory(spiral, TRACES_STEPS, seed * 1_000_000 + i))
        infra = rng.random() < TRACES_INFRA_SHARE
        episodes.append(replace(ep, steps=steps,
                                termination="infra_error" if infra else ep.termination))
    lines = [serialize_episode(ep) for ep in episodes]
    files, injected = _dirty_files(lines, rng, TRACES_DIRTY_SHARE)
    infra = [ep.termination == "infra_error" for ep in episodes]
    injected["infra_error"] = sum(infra)

    logs = [work / "episodes-a.jsonl", work / "episodes-b.jsonl"]
    for path, entries in zip(logs, files):
        _write_lines(path, [lines[i] if kind != "bad" else lines[i][: len(lines[i]) // 2]
                            for kind, i in entries])
    write_task_registry(study.tasks, work / "tasks.jsonl")
    _write_pricing(work / "pricing.jsonl", ["sim-agent"])

    analyzed = [ep for ep in episodes if ep.termination != "infra_error"]
    accounting = _accounting(files, infra)
    return Corpus(
        workload="analyze_traces",
        command=["analyze", "--logs", *map(str, logs), "--registry", str(work / "tasks.jsonl"),
                 "--pricing", str(work / "pricing.jsonl"), "--bootstrap-b", "0"],
        records=accounting["log_lines"],
        properties={"selections": 1, "episodes": len(episodes), **_step_properties(analyzed),
                    "injected": injected, "bootstrap_resamples": 0},
        expected={"accounting": accounting,
                  "rdc": _expected_rdc(episodes, {t.task_id: t.bucket for t in study.tasks})},
    )


def _build_selections(seed: int, work: Path, scale: float) -> Corpus:
    tasks_per_bucket = _scaled(SELECTION_TASKS_PER_BUCKET, scale, 4)
    models = [f"sim-model-{m:02d}" for m in range(_scaled(SELECTION_MODELS, scale, 1))]
    episodes = []
    tasks = []
    for m, model_id in enumerate(models):
        for s, scaffold in enumerate(("react", "memory")):
            # Each model and scaffold decays a little differently, so the
            # tables have distinct rows; the study seed keeps them independent.
            p = {b: p0 - 0.01 * m - 0.02 * s for b, p0 in zip(BUCKETS, SELECTION_P)}
            study = simulate_agent_study(p, tasks_per_bucket, K, seed * 64 + 2 * m + s,
                                         model_id=model_id, scaffold=scaffold)
            tasks = study.tasks
            episodes.extend(replace(ep, episode_id=f"{model_id}-{scaffold}-{ep.episode_id}")
                            for ep in study.episodes)
    log = work / "episodes.jsonl"
    _write_lines(log, [serialize_episode(ep) for ep in episodes])
    write_task_registry(tasks, work / "tasks.jsonl")
    _write_pricing(work / "pricing.jsonl", models)

    n = len(episodes)
    selections = 2 * len(models)
    return Corpus(
        workload="analyze_selections",
        command=["analyze", "--logs", str(log), "--registry", str(work / "tasks.jsonl"),
                 "--pricing", str(work / "pricing.jsonl"),
                 "--bootstrap-b", str(SELECTION_BOOTSTRAP_B)],
        records=n,
        properties={"selections": selections, "episodes": n, **_step_properties(episodes),
                    "injected": {}, "bootstrap_resamples": SELECTION_BOOTSTRAP_B * selections},
        expected={"accounting": {"log_lines": n, "parse_errors": 0, "duplicates": 0,
                                 "parsed": n, "join_excluded": 0, "infra_excluded": 0,
                                 "analyzed": n},
                  "rdc": _expected_rdc(episodes, {t.task_id: t.bucket for t in tasks})},
    )


_PROFILES = ("spiral", "coherent", "rote")


def _build_mop(seed: int, work: Path, scale: float) -> Corpus:
    rng = random.Random(seed)
    task = TaskSpec(task_id="traj-task-00000", domain="SE", bucket="long",
                    human_minutes_estimate=75.0, agent_steps_estimate=55,
                    subtasks=tuple(Subtask(f"s{j}", w, "") for j, w in
                                   enumerate((0.25, 0.35, 0.20, 0.20), start=1)))
    lines = []
    labels = []
    lengths = []
    flipped = 0
    for i in range(_scaled(MOP_TRAJECTORIES, scale, 20)):
        # The first two cover both labels whatever the draws.
        kind = _PROFILES[i] if i < 2 else rng.choices(_PROFILES, (0.4, 0.4, 0.2))[0]
        length = rng.randint(40, 70)
        profile = TrajectoryProfile(
            kind, spiral_start=rng.randint(10, length - 10) if kind == "spiral" else None)
        episode_id = f"traj-{i:05d}"
        # Arguments unique per episode and step: no argument string repeats.
        steps = [replace(step, args_canonical=canonical_args({"episode": i, "step": step.index}))
                 for step in generate_trajectory(profile, length, seed * 1_000_000 + i)]
        lines.append(serialize_episode(trajectory_episode(episode_id, task, steps,
                                                          repeat_index=i + 1)))
        lengths.append(length)
        label = kind == "spiral"
        if i >= 2 and rng.random() < MOP_FLIP_SHARE:
            label = not label
            flipped += 1
        labels.append(json.dumps({"episode_id": episode_id, "meltdown": label}))
    log = work / "trajectories.jsonl"
    _write_lines(log, lines)
    _write_lines(work / "labels.jsonl", labels)
    return Corpus(
        workload="mop_calibrate",
        command=["mop", "--logs", str(log), "--calibrate", "f1",
                 "--labels", str(work / "labels.jsonl")],
        records=len(lines),
        properties={"selections": 1, "episodes": len(lines), "steps": sum(lengths),
                    "args_distinct_ratio": 1.0,
                    "eligible_ratio": sum(n >= 2 * MOP_WINDOW for n in lengths) / len(lines),
                    "injected": {"flipped_labels": flipped}, "bootstrap_resamples": 0},
        expected={"flipped_labels": flipped},
    )


_BUILDERS = {
    "analyze_traces": _build_traces,
    "analyze_selections": _build_selections,
    "mop_calibrate": _build_mop,
}

WORKLOADS = tuple(_BUILDERS)


# --- output checks --------------------------------------------------------------

def output_digest(out_dir: Path, stdout: bytes) -> str:
    """sha256 over stdout and every file under out_dir, by relative path."""
    h = hashlib.sha256(stdout)
    if out_dir.is_dir():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(out_dir)).encode("utf-8") + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def check_output(corpus: Corpus, out_dir: Path, stdout: str) -> list[str]:
    """Problems with one invocation's outputs; empty when they are right."""
    if corpus.command[0] == "analyze":
        return _check_analyze(corpus, out_dir)
    return _check_calibration(stdout)


def _check_analyze(corpus: Corpus, out_dir: Path) -> list[str]:
    try:
        meta = json.loads((out_dir / "run_metadata.json").read_text(encoding="utf-8"))
        rdc_rows = json.loads((out_dir / "rdc.json").read_text(encoding="utf-8"))["rows"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    if meta.get("episodes") != corpus.expected["accounting"]:
        problems.append(f"accounting {meta.get('episodes')} != injected"
                        f" {corpus.expected['accounting']}")
    if meta.get("conservation_holds") is not True:
        problems.append("conservation_holds is not true")
    got = {f"{r['model_id']}|{r['scaffold']}|{r['bucket']}": [r["pass1"], r["n_tasks"],
                                                              r["n_episodes"]]
           for r in rdc_rows}
    if got != corpus.expected["rdc"]:
        wrong = sorted(k for k in set(got) | set(corpus.expected["rdc"])
                       if got.get(k) != corpus.expected["rdc"].get(k))
        problems.append(f"rdc cells differ from the corpus: {wrong[:4]}")
    return problems


def _check_calibration(stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    try:
        fields = dict(part.split("=", 1) for part in lines[-1].split())
        theta, delta, f1, precision, recall = (
            float(fields[k]) for k in ("theta_h", "delta", "f1", "precision", "recall"))
    except (IndexError, ValueError, KeyError) as exc:
        return [f"unparseable calibration line {stdout[-200:]!r}: {exc!r}"]
    problems = []
    if theta not in F1_GRID_THETA or delta not in F1_GRID_DELTA:
        problems.append(f"(theta_h, delta) = ({theta}, {delta}) is not a default grid cell")
    harmonic = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    # The CLI prints four decimals; rounding moves the harmonic mean by < 2e-4.
    if abs(f1 - harmonic) > 2e-4:
        problems.append(f"f1={f1} disagrees with precision={precision} recall={recall}")
    if not 0.0 < f1 <= 1.0 or (f1 == 1.0 and corpus.expected["flipped_labels"]):
        problems.append(f"f1={f1} impossible with {corpus.expected['flipped_labels']}"
                        " flipped labels")
    return problems
