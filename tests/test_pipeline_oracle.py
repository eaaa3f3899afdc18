"""Every log-reading subcommand against the public whole-episode functions.

``run_pipeline`` and the ``mop``, ``cost`` and ``validate`` subcommands read
each episode once, reduce it as it is read (in whichever process reads its
byte range) and fold the results in line order. The oracle here takes the
long way instead: it parses each log whole with ``parse_episode_log``, drops
the episode ids an earlier log already holds, joins with ``cross_validate``
and builds every table with the public functions over whole episodes
(``rdc``, ``vaf``, ``domain_stratify``, ``scaffold_delta``,
``meltdown_table``, ``compute_cost``, ``decomposition_gain``, ``rds``,
``detect_mop``, ``calibrate_mop_f1`` and ``calibrate_mop_baseline``).

Each example is a small generated study: one to three logs with in-file and
cross-file duplicates, malformed and rejected lines, ragged repeats, an
unknown task, cut-short subtask outcomes, infra failures, several models,
scaffolds and prices, and step counts around twice the MOP window. The
pipeline's tables must equal the oracle's cell for cell, floats bit for bit,
with the same counts and issue counts; each subcommand must print the same
bytes and exit with the same code. Every comparison runs with each log read
in one, two, three and seven byte ranges.

Tier-1 runs a few derandomized examples. A longer run with fresh draws,
which reports the first failing study without shrinking it:
``PYTHONPATH=src:tests python tests/test_pipeline_oracle.py 2000``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import struct
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_episode, make_step
from oracles import CAMPAIGN_PHASES
from reliakit import (
    BUCKETS,
    DOMAINS,
    SCAFFOLDS,
    DegenerateStatisticError,
    InputError,
    MeltdownError,
    MetricError,
    MopConfig,
    PipelineOptions,
    PricingEntry,
    Subtask,
    TaskSpec,
    calibrate_mop_baseline,
    calibrate_mop_f1,
    compute_cost,
    cross_validate,
    decomposition_gain,
    detect_mop,
    domain_stratify,
    meltdown_table,
    outcome_groups,
    parse_episode_log,
    pass_at_1,
    per_task_pass1,
    rdc,
    rds,
    run_pipeline,
    scaffold_delta,
    serialize_episode,
    serialize_task,
    vaf,
)
from reliakit import report
from reliakit.cli import main

RANGE_COUNTS = (1, 2, 3, 7)
MODELS = ("m1", "m2", "m3")
TOOLS = ("read", "edit", "run", "grep", "plan")
WEIGHTS = {3: (0.5, 0.3, 0.2), 4: (0.25, 0.35, 0.2, 0.2)}


@contextlib.contextmanager
def ranges(count: int):
    """Every log of at least ``count`` bytes read in ``count`` byte ranges."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(report, "_MIN_RANGE_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        yield


# --- generated studies --------------------------------------------------------

@st.composite
def studies(draw):
    """(registry, logs as lists of lines, pricing, labels, options, percentile)."""
    tasks = [TaskSpec(f"t{i}", DOMAINS[i % 3], BUCKETS[i % 4],
                      {"short": 2.5, "medium": 17.5, "long": 75.0, "very_long": 150.0}[BUCKETS[i % 4]],
                      8, tuple(Subtask(f"s{j}", w, "") for j, w in enumerate(WEIGHTS[n])))
             for i, n in enumerate(draw(st.lists(st.sampled_from([3, 4]), min_size=4,
                                                 max_size=9)))]
    w = draw(st.sampled_from([2, 3, 5]))
    lengths = [0, 1, 2 * w - 1, 2 * w, 2 * w, 2 * w + 1, 3 * w + 2, 4 * w]
    episodes = []
    for _ in range(draw(st.integers(1, 40))):
        task = draw(st.sampled_from(tasks))
        n = len(task.subtasks)
        kind = draw(st.sampled_from(["ok"] * 8 + ["ghost", "short_outcomes", "infra"]))
        passed = draw(st.booleans())
        outcomes = [True] * n if passed else [*draw(st.lists(st.booleans(), min_size=n - 1,
                                                             max_size=n - 1)), False]
        if kind == "short_outcomes":
            outcomes = outcomes[:-1]
        length = draw(st.sampled_from(lengths))
        churn = draw(st.sampled_from([1, 2, 5]))  # distinct tools in play: the entropy level
        steps = [make_step(i, draw(st.sampled_from(TOOLS[:churn])),
                           args=draw(st.sampled_from([{"n": i % 3}, {"b": 1, "a": 2}, [2, 1]])),
                           tokens_in=draw(st.integers(0, 2000)),
                           tokens_out=draw(st.integers(0, 500)))
                 for i in range(1, length + 1)]
        episode = make_episode(
            f"e{draw(st.integers(0, 29))}",
            TaskSpec("ghost", "SE", "short", 2.5, 8, task.subtasks) if kind == "ghost" else task,
            passed=all(outcomes), outcomes=outcomes,
            model_id=draw(st.sampled_from(MODELS[:1] * 3 + MODELS)), scaffold=draw(st.sampled_from(SCAFFOLDS)),
            repeat_index=draw(st.integers(1, 3)), steps=steps,
            termination="infra_error" if kind == "infra" else "finished")
        episodes.append(serialize_episode(episode))
    bad = ['{"broken', "[1, 2]", "", "   ",
           json.dumps({**json.loads(episodes[0]), "nudges_used": -1}),
           json.dumps({**json.loads(episodes[0]), "schema_version": "9"})]
    lines = [*episodes, *draw(st.lists(st.sampled_from(bad), max_size=3))]
    lines = draw(st.permutations(lines))
    cuts = sorted(draw(st.lists(st.integers(0, len(lines)), max_size=2)))
    logs = [lines[a:b] for a, b in zip([0, *cuts], [*cuts, len(lines)])]
    priced = draw(st.sampled_from([MODELS, MODELS, MODELS[:2]]))
    pricing = [PricingEntry(m, draw(st.sampled_from([0.0, 0.14, 3.0, 15.0])),
                            draw(st.sampled_from([0.0, 0.28, 12.5]))) for m in priced]
    ids = sorted({json.loads(line)["episode_id"] for line in episodes})
    flips = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    labels = {e: (i % 2 == 0) != flip for i, (e, flip) in enumerate(zip(ids, flips))}
    if draw(st.integers(0, 7)) == 3:
        del labels[draw(st.sampled_from(ids))]
    options = PipelineOptions(
        bootstrap_b=0, ci_method=draw(st.sampled_from(["wald", "wilson"])), emit_series=True,
        mop=MopConfig(window_w=w, theta_h=draw(st.sampled_from([0.0, 0.5, 1.0, 1.711])),
                      delta=draw(st.sampled_from([0.0, 0.2, -0.5]))),
        vaf_numerator=draw(st.sampled_from([("long", "very_long"), ("very_long",)])))
    return tasks, logs, pricing, labels, options, draw(st.sampled_from([0.0, 0.5, 0.95]))


def write_study(root: Path, study) -> tuple[list[Path], Path, Path, Path]:
    tasks, logs, pricing, labels, _, _ = study
    paths = []
    for i, lines in enumerate(logs):
        paths.append(root / f"log-{i}.jsonl")
        paths[-1].write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    registry = root / "tasks.jsonl"
    registry.write_text("".join(serialize_task(t) + "\n" for t in tasks), encoding="utf-8")
    prices = root / "pricing.jsonl"
    prices.write_text("".join(json.dumps(p.__dict__) + "\n" for p in pricing), encoding="utf-8")
    label_path = root / "labels.jsonl"
    label_path.write_text("".join(json.dumps({"episode_id": e, "meltdown": m}) + "\n"
                                  for e, m in labels.items()), encoding="utf-8")
    return paths, registry, prices, label_path


# --- the oracle ------------------------------------------------------------------

def read_logs(paths: list[Path]):
    """parse_episode_log over each log, keeping an episode id's first record
    across logs; reports per log, each log's cross-file duplicates last. A
    cross-file duplicate is only a duplicate: its infra_excluded warning
    goes."""
    episodes, reports, seen = [], [], set()
    for path in paths:
        parsed, parse_reports = parse_episode_log(path)
        dropped = {episode.episode_id for episode in parsed} & seen
        reports += [r for r in parse_reports if r.episode_id not in dropped
                    or all(issue.code != "infra_excluded" for issue in r.warnings)]
        for episode in parsed:
            if episode.episode_id in seen:
                reports.append(("duplicate", path, episode.episode_id))
            else:
                seen.add(episode.episode_id)
                episodes.append(episode)
    return episodes, reports


def issues(reports) -> list[tuple[str, str, str, str]]:
    """(ERROR or WARNING, episode id, code, message) per issue, as validate prints them."""
    out = []
    for r in reports:
        if isinstance(r, tuple):
            _, path, episode_id = r
            out.append(("WARNING", episode_id, "duplicate_episode_id",
                        f"{path}: duplicate of {episode_id!r} from an earlier log;"
                        " keeping the first"))
            continue
        out += [("ERROR", r.episode_id, i.code, i.message) for i in r.errors]
        out += [("WARNING", r.episode_id, i.code, i.message) for i in r.warnings]
    return out


def expected_bundle(paths, tasks, pricing, opts):
    """The tables, episode counts, issue counts and series, or the InputError
    message run_pipeline must raise."""
    registry = {t.task_id: t for t in tasks}
    episodes, reports = read_logs(paths)
    if not episodes:
        return "parse: no valid episodes"
    joined, join_reports = cross_validate(episodes, registry)
    analysis = [ep for ep in joined if not ep.is_infra_failure]
    if not analysis:
        return "join: no valid episodes remain after registry join and infra exclusion"
    priced = {p.model_id for p in pricing}
    missing = sorted({ep.model_id for ep in episodes} - priced)
    if missing:
        return f"cost: no pricing entry for models: {', '.join(missing)}"

    tables: dict[str, list[tuple]] = {name: [] for name in (
        "rdc", "gds_pass", "vaf", "decomposition")}
    for model_id, scaffold in sorted({(ep.model_id, ep.scaffold) for ep in analysis}):
        select = dict(model_id=model_id, scaffold=scaffold)
        pass_curve = rdc(analysis, registry, "pass1", **select, ci_level=opts.ci_level,
                         ci_method=opts.ci_method)
        gds_curve = rdc(analysis, registry, "gds", **select)
        for bucket, point in pass_curve.points.items():
            tables["rdc"].append((model_id, scaffold, bucket, point.value, point.ci_low,
                                  point.ci_high, point.n_tasks, point.n_episodes))
            g = gds_curve.points[bucket]
            tables["gds_pass"].append((model_id, scaffold, bucket, g.value, point.value,
                                       g.n_tasks, g.n_episodes))
        groups = outcome_groups(analysis, registry, **select)
        den = [g for g in groups if registry[g.task_id].bucket in opts.vaf_denominator]
        num = [g for g in groups if registry[g.task_id].bucket in opts.vaf_numerator]
        try:
            v = vaf(per_task_pass1(groups), registry, opts.vaf_numerator, opts.vaf_denominator,
                    model_id=model_id)
            cells, status = (v.vaf, v.ci_low, v.ci_high, v.n_num_tasks, v.n_den_tasks), "ok"
        except DegenerateStatisticError:
            cells, status = (None,) * 5, "degenerate_denominator"
        except MetricError:
            cells, status = (None,) * 5, "unavailable"
        tables["vaf"].append((model_id, scaffold, *cells, "+".join(opts.vaf_numerator),
                              "+".join(opts.vaf_denominator),
                              pass_at_1(den) if den else None,
                              pass_at_1(num) if num else None, status))
        short, very_long = pass_curve.points.get("short"), pass_curve.points.get("very_long")
        try:
            slope = rds(pass_curve, opts.regressor)
        except MetricError:
            slope = None
        tables["decomposition"].append((
            model_id, scaffold, short.value if short else None,
            very_long.value if very_long else None,
            decomposition_gain(pass_curve) if short and very_long else None, slope,
            opts.regressor))

    domain = domain_stratify(analysis, registry, "gds")
    tables["domain"] = [
        (d, *(domain.cells[(d, b)].value if (d, b) in domain.cells else None for b in BUCKETS),
         domain.drops.get(d),
         *(domain.cells[(d, b)].n_episodes if (d, b) in domain.cells else 0 for b in BUCKETS))
        for d in sorted({d for d, _ in domain.cells})]
    tables["scaffold_delta"] = [
        (r.model_id, r.react_value, r.memory_value, r.delta, r.label, r.n_react, r.n_memory)
        for r in scaffold_delta(analysis, registry)]
    tables["meltdown"] = [
        (m, b, c.rate, c.median_onset, c.n_events, c.n_episodes, c.n_too_short)
        for (m, b), c in meltdown_table(analysis, registry, opts.mop).items()]
    cost = compute_cost(episodes, pricing)
    rows = [(m, c.n_episodes, c.tokens_in, c.tokens_out, c.total_cost)
            for m, c in cost.per_model.items()]
    rows.append(("(all)", len(cost.per_episode), sum(r[2] for r in rows),
                 sum(r[3] for r in rows), cost.total_cost))
    tables["cost"] = [(*r, r[4] / r[1]) for r in rows]

    all_issues = issues(reports) + issues(join_reports)
    counts = {
        "log_lines": sum(1 for p in paths for line in p.read_text(encoding="utf-8").splitlines()
                         if line.strip()),
        "parse_errors": sum(1 for r in reports if not isinstance(r, tuple) and r.fatal),
        "duplicates": sum(1 for i in all_issues if i[2] == "duplicate_episode_id"),
        "parsed": len(episodes),
        "join_excluded": len(join_reports),
        "infra_excluded": sum(ep.is_infra_failure for ep in joined),
        "analyzed": len(analysis),
    }
    issue_counts: dict[str, int] = {}
    for _, _, code, _ in all_issues:
        issue_counts[code] = issue_counts.get(code, 0) + 1
    series = {ep.episode_id: detect_mop(ep, opts.mop).entropy_series for ep in analysis}
    return tables, counts, dict(sorted(issue_counts.items())), series


def bits(value: Any) -> Any:
    """``value`` with every float replaced by its bytes, so that equal
    means equal bit for bit (and -0.0 differs from 0.0)."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    return value


def pipeline_result(paths, registry, prices, opts):
    try:
        bundle = run_pipeline(paths, registry, prices, opts)
    except InputError as exc:
        return str(exc)
    meta = bundle.run_metadata
    assert meta["conservation_holds"] is True
    tables = {name: list(table.rows) for name, table in bundle.tables.items()}
    return tables, meta["episodes"], meta["validation_issues"], dict(bundle.series)


def check_pipeline(study) -> None:
    tasks, _, pricing, _, opts, _ = study
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        paths, registry, prices, _ = write_study(Path(tmp), study)
        want = bits(expected_bundle(paths, tasks, pricing, opts))
        for count in RANGE_COUNTS:
            with ranges(count):
                got = bits(pipeline_result(paths, registry, prices, opts))
            assert got == want, f"{count} ranges"


# --- the subcommands ---------------------------------------------------------------

def csv_cell(value: Any) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def csv_text(header, rows) -> str:
    return "".join(",".join(map(csv_cell, row)) + "\n" for row in [header, *rows])


def expected_output(command: str, paths, study) -> tuple[int, str, str]:
    """(exit code, stdout, stderr's last line) of one subcommand, from the
    public functions over whole episodes."""
    tasks, _, pricing, labels, opts, percentile = study
    episodes, reports = read_logs(paths)
    w = opts.mop.window_w
    if command == "validate":
        found = issues(reports) + issues(cross_validate(episodes, {t.task_id: t for t in tasks})[1])
        errors = sum(kind == "ERROR" for kind, *_ in found)
        out = "".join(f"{kind} {e} {code}: {message}\n" for kind, e, code, message in found)
        out += f"{len(episodes)} episodes parsed, {errors} errors, {len(found) - errors} warnings\n"
        return 2 if errors else 0, out, ""
    if not episodes:
        return 2, "", "input error: parse: no valid episodes"
    try:
        if command == "mop":
            rows = []
            for ep in episodes:
                r = detect_mop(ep, opts.mop)
                rows.append((r.episode_id, r.onset_step, r.max_entropy, r.too_short, r.melted))
            return 0, csv_text(("episode_id", "onset_step", "max_entropy", "too_short",
                                "melted"), rows), ""
        if command == "mop_f1":
            missing = sorted(ep.episode_id for ep in episodes if ep.episode_id not in labels)
            if missing:
                return 2, "", ("input error: labels: no label for episodes: "
                               + ", ".join(missing[:5]) + (" ..." if len(missing) > 5 else ""))
            r = calibrate_mop_f1([(ep, labels[ep.episode_id]) for ep in episodes], w=w)
            return 0, (f"theta_h={r.theta_h} delta={r.delta} f1={r.f1:.4f}"
                       f" precision={r.precision:.4f} recall={r.recall:.4f}\n"), ""
        if command == "mop_baseline":
            theta, delta = calibrate_mop_baseline(episodes, percentile, w)
            return 0, f"theta_h={theta} delta={delta}\n", ""
        cost = compute_cost(episodes, pricing)
    except (InputError, MeltdownError) as exc:
        return 2, "", f"input error: {exc}"
    rows = [(m, c.n_episodes, c.tokens_in, c.tokens_out, c.total_cost)
            for m, c in cost.per_model.items()]
    rows.append(("(all)", len(cost.per_episode), sum(r[2] for r in rows),
                 sum(r[3] for r in rows), cost.total_cost))
    return 0, csv_text(("model_id", "n_episodes", "tokens_in", "tokens_out", "total_cost"),
                       rows), ""


def argv(command: str, paths, registry, prices, labels, study) -> list[str]:
    _, _, _, _, opts, percentile = study
    logs = ["--logs", *map(str, paths)]
    mop = ["--mop-window", str(opts.mop.window_w)]
    return {
        "validate": ["validate", *logs, "--registry", str(registry)],
        "mop": ["mop", *logs, *mop, "--mop-theta", repr(opts.mop.theta_h),
                "--mop-delta", repr(opts.mop.delta)],
        "mop_f1": ["mop", *logs, *mop, "--calibrate", "f1", "--labels", str(labels)],
        "mop_baseline": ["mop", *logs, *mop, "--calibrate", "baseline",
                         "--percentile", repr(percentile)],
        "cost": ["cost", *logs, "--pricing", str(prices)],
    }[command]


COMMANDS = ("validate", "mop", "mop_f1", "mop_baseline", "cost")


def run(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    lines = err.getvalue().splitlines()
    return code, out.getvalue(), lines[-1] if lines and lines[-1].startswith("input error") else ""


def check_commands(study) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths, registry, prices, labels = write_study(Path(tmp), study)
        for command in COMMANDS:
            want = expected_output(command, paths, study)
            for count in RANGE_COUNTS:
                with ranges(count):
                    got = run(argv(command, paths, registry, prices, labels, study))
                assert got == want, f"{command} in {count} ranges"


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(studies())
def test_pipeline_equals_the_whole_episode_functions(study):
    check_pipeline(study)


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(studies())
def test_subcommands_equal_the_whole_episode_functions(study):
    check_commands(study)


if __name__ == "__main__":
    examples = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    for check in (check_pipeline, check_commands):
        settings(max_examples=examples, deadline=None, database=None,
                 phases=CAMPAIGN_PHASES)(given(studies())(check))()
    print(f"{examples} studies: every table and subcommand equals the oracle")
