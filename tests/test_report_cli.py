"""Pipeline, emission, pricing, and command-line behavior."""
from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import reliakit

from conftest import make_episode, make_step, make_task
from reliakit import (
    BUCKETS,
    Episode,
    InputError,
    MopConfig,
    PipelineOptions,
    ReportBundle,
    compute_cost,
    emit_report,
    load_pricing,
    run_pipeline,
    simulate_agent_study,
    write_episode_log,
    write_task_registry,
)
from reliakit import report
from reliakit.cli import main
from reliakit.report import Column, PricingEntry, Table
from reliakit.trajectory import RegistryError


def write_corpus(tmp_path: Path, corpus, name="corpus") -> tuple[Path, Path]:
    log = tmp_path / f"{name}-episodes.jsonl"
    registry = tmp_path / f"{name}-tasks.jsonl"
    write_episode_log(corpus.episodes, log)
    write_task_registry(corpus.tasks, registry)
    return log, registry


def small_corpus(seed=0, tasks=4, k=2):
    return simulate_agent_study(
        {b: p for b, p in zip(BUCKETS, (0.9, 0.8, 0.6, 0.5))}, tasks, k, seed)


PRICING_LINES = [
    '{"model_id": "sim-agent", "input_per_million": 0.14, "output_per_million": 0.28}',
    '{"model_id": "m1", "input_per_million": 1.0, "output_per_million": 2.0}',
]


class TestLoadPricing:
    def test_happy_path(self):
        entries = load_pricing(PRICING_LINES)
        assert entries[0] == PricingEntry("sim-agent", 0.14, 0.28)
        assert len(entries) == 2

    def test_blank_lines_skipped(self):
        assert len(load_pricing(["", PRICING_LINES[0], "  "])) == 1

    def test_malformed_line_numbered(self):
        with pytest.raises(RegistryError, match="line 2"):
            load_pricing([PRICING_LINES[0], "{nope"])

    def test_field_validation(self):
        with pytest.raises(RegistryError, match="not an object"):
            load_pricing(["[1, 2]"])
        with pytest.raises(RegistryError, match="model_id"):
            load_pricing(['{"input_per_million": 1, "output_per_million": 1}'])
        with pytest.raises(RegistryError, match="non-negative"):
            load_pricing(['{"model_id": "m", "input_per_million": -1, "output_per_million": 1}'])
        with pytest.raises(RegistryError, match="non-negative"):
            load_pricing(['{"model_id": "m", "input_per_million": true, "output_per_million": 1}'])

    def test_duplicate_model(self):
        with pytest.raises(RegistryError, match="first seen on line 1"):
            load_pricing([PRICING_LINES[0], PRICING_LINES[0]])

    def test_reads_from_file(self, tmp_path):
        path = tmp_path / "pricing.jsonl"
        path.write_text("\n".join(PRICING_LINES) + "\n", encoding="utf-8")
        assert len(load_pricing(path)) == 2

    def test_non_utf8_file_names_the_line(self, tmp_path):
        path = tmp_path / "pricing.jsonl"
        path.write_bytes(PRICING_LINES[0].encode("utf-8") + b"\n\xff\xfe\n")
        with pytest.raises(RegistryError, match="pricing line 2: not UTF-8"):
            load_pricing(path)


class TestComputeCost:
    def test_million_token_episode(self):
        task = make_task("t-0001")
        steps = [make_step(1, tokens_in=600_000, tokens_out=400_000),
                 make_step(2, tokens_in=400_000, tokens_out=600_000)]
        ep = make_episode("e1", task, model_id="sim-agent", steps=steps)
        report = compute_cost([ep], load_pricing(PRICING_LINES))
        assert abs(report.total_cost - 0.42) <= 1e-9
        assert report.per_episode[0].tokens_in == 1_000_000
        assert report.per_model["sim-agent"].n_episodes == 1

    def test_stepless_episode_costs_nothing(self):
        ep = make_episode("e1", make_task("t-0001"), model_id="m1")
        report = compute_cost([ep], load_pricing(PRICING_LINES))
        assert report.total_cost == 0.0

    def test_total_is_exact_sum(self):
        task = make_task("t-0001")
        eps = [make_episode(f"e{i}", task, model_id="m1",
                            steps=[make_step(1, tokens_in=i * 7, tokens_out=i * 3)],
                            repeat_index=i + 1)
               for i in range(20)]
        report = compute_cost(eps, load_pricing(PRICING_LINES))
        assert report.total_cost == math.fsum(c.cost for c in report.per_episode)

    def test_missing_models_listed_sorted(self):
        task = make_task("t-0001")
        eps = [make_episode("e1", task, model_id="zeta"),
               make_episode("e2", task, model_id="alpha")]
        with pytest.raises(InputError, match="alpha, zeta"):
            compute_cost(eps, load_pricing(PRICING_LINES))


class TestPipelineOptions:
    def test_validation(self):
        with pytest.raises(InputError, match="regressor"):
            PipelineOptions(regressor="log_minutes")
        with pytest.raises(InputError, match="ci_method"):
            PipelineOptions(ci_method="bayes")
        with pytest.raises(InputError, match="vaf_numerator"):
            PipelineOptions(vaf_numerator=("weekly",))
        with pytest.raises(InputError, match="vaf_denominator"):
            PipelineOptions(vaf_denominator=())

    @pytest.mark.parametrize("b", [1, 500, 999, -5, 2 ** 62, 2 ** 63])
    def test_bootstrap_b_is_zero_or_at_least_1000(self, b):
        with pytest.raises(InputError, match="bootstrap_b"):
            PipelineOptions(bootstrap_b=b)
        assert PipelineOptions(bootstrap_b=0).bootstrap_b == 0
        assert PipelineOptions(bootstrap_b=1000).bootstrap_b == 1000

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_ci_level_inside_unit_interval(self, level):
        with pytest.raises(InputError, match="ci_level"):
            PipelineOptions(ci_level=level)

    @pytest.mark.parametrize("mop", [MopConfig(delta=math.inf), MopConfig(delta=-math.inf),
                                     MopConfig(theta_h=math.inf)])
    def test_mop_thresholds_must_be_finite(self, mop):
        # MopConfig allows them, but run_metadata.json could not record them.
        with pytest.raises(InputError, match="must be finite"):
            PipelineOptions(mop=mop)

    def test_to_dict_is_json_ready(self):
        opts = PipelineOptions(seed=3, bootstrap_b=0)
        payload = json.loads(json.dumps(opts.to_dict()))
        assert payload["seed"] == 3
        assert payload["mop"]["theta_h"] == 1.711


class TestRunPipeline:
    def test_full_bundle_on_synthetic_corpus(self, tmp_path):
        log, registry = write_corpus(tmp_path, small_corpus())
        opts = PipelineOptions(bootstrap_b=0)
        bundle = run_pipeline([log], registry, options=opts)
        expected_tables = {"rdc", "gds_pass", "vaf", "domain", "scaffold_delta",
                           "meltdown", "decomposition"}
        assert set(bundle.tables) == expected_tables  # no pricing, no cost table
        assert len(bundle.tables["rdc"].rows) == 4
        counts = bundle.run_metadata["episodes"]
        assert counts["analyzed"] == counts["parsed"] == 32
        assert bundle.run_metadata["conservation_holds"]
        assert len(bundle.run_metadata["config_hash"]) == 64

    def test_pricing_enables_cost_table(self, tmp_path):
        log, registry = write_corpus(tmp_path, small_corpus())
        pricing = tmp_path / "pricing.jsonl"
        pricing.write_text(PRICING_LINES[0] + "\n", encoding="utf-8")
        bundle = run_pipeline([log], registry, pricing,
                              PipelineOptions(bootstrap_b=0))
        rows = bundle.tables["cost"].rows
        assert rows[-1][0] == "(all)"
        assert rows[-1][1] == 32

    def test_cross_file_dedup_keeps_conservation(self, tmp_path):
        log, registry = write_corpus(tmp_path, small_corpus())
        bundle = run_pipeline([log, log], registry, options=PipelineOptions(bootstrap_b=0))
        counts = bundle.run_metadata["episodes"]
        assert counts["duplicates"] == 32
        assert counts["parsed"] == 32
        assert counts["log_lines"] == 64
        assert bundle.run_metadata["conservation_holds"]

    def test_infra_and_join_exclusions_counted(self, tmp_path):
        corpus = small_corpus()
        ghost = make_task("ghost-task", bucket="short")
        extra = [
            make_episode("x-infra", corpus.tasks[0], passed=False,
                         termination="infra_error", model_id="sim-agent"),
            make_episode("x-ghost", ghost, model_id="sim-agent"),
        ]
        log = tmp_path / "episodes.jsonl"
        registry = tmp_path / "tasks.jsonl"
        write_episode_log(list(corpus.episodes) + extra, log)
        write_task_registry(corpus.tasks, registry)  # ghost-task left out
        bundle = run_pipeline([log], registry, options=PipelineOptions(bootstrap_b=0))
        counts = bundle.run_metadata["episodes"]
        assert counts["infra_excluded"] == 1
        assert counts["join_excluded"] == 1
        assert counts["analyzed"] == 32
        assert bundle.run_metadata["conservation_holds"]
        assert bundle.run_metadata["validation_issues"]["unknown_task"] == 1

    def test_only_analyzed_episodes_get_a_mop_scan(self, tmp_path, monkeypatch):
        from reliakit import meltdown

        task, ghost = make_task("t-0001"), make_task("ghost-task")
        steps = [make_step(i, f"tool-{i % 3}") for i in range(1, 21)]
        episodes = [make_episode(f"ep-{e}", task, passed=e % 2 == 0, repeat_index=e + 1,
                                 steps=steps) for e in range(4)]
        episodes += [
            make_episode("x-ghost", ghost, steps=steps),
            make_episode("x-mismatch", task, outcomes=(True,), steps=steps),
            make_episode("x-infra", task, passed=False, termination="infra_error", steps=steps),
        ]
        log, registry = tmp_path / "episodes.jsonl", tmp_path / "tasks.jsonl"
        write_episode_log(episodes, log)
        write_task_registry([task], registry)
        detect, scanned = meltdown.detect_mop, []

        def counted(*args, **kwargs):
            scanned.append(args[0].episode_id)
            return detect(*args, **kwargs)

        monkeypatch.setattr(meltdown, "detect_mop", counted)
        bundle = run_pipeline([log], registry, options=PipelineOptions(bootstrap_b=0))
        counts = bundle.run_metadata["episodes"]
        assert (counts["join_excluded"], counts["infra_excluded"]) == (2, 1)
        assert len(scanned) == counts["analyzed"] == 4
        assert bundle.run_metadata["validation_issues"]["subtask_mismatch"] == 1

    @pytest.mark.parametrize("blank_like",["\u00a0", " \u00a0\t"])
    def test_line_of_unicode_whitespace_is_not_counted(self, tmp_path, blank_like):
        log, registry = write_corpus(tmp_path, small_corpus())
        lines = log.read_text(encoding="utf-8").splitlines()
        lines.insert(3, blank_like)
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        bundle = run_pipeline([log], registry, options=PipelineOptions(bootstrap_b=0))
        counts = bundle.run_metadata["episodes"]
        assert counts["log_lines"] == counts["parsed"] == 32
        assert bundle.run_metadata["conservation_holds"]

    def test_carriage_return_inside_a_record_is_one_line(self, tmp_path):
        log, registry = write_corpus(tmp_path, small_corpus())
        lines = log.read_text(encoding="utf-8").splitlines()
        lines[5] = lines[5].replace(",", ",\r", 1)  # JSON whitespace, not a line break
        log.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        bundle = run_pipeline([log], registry, options=PipelineOptions(bootstrap_b=0))
        counts = bundle.run_metadata["episodes"]
        assert counts["log_lines"] == counts["parsed"] == 32
        assert bundle.run_metadata["conservation_holds"]

    def test_input_errors(self, tmp_path):
        log, registry = write_corpus(tmp_path, small_corpus())
        with pytest.raises(InputError, match="no log paths"):
            run_pipeline([], registry)
        with pytest.raises(InputError, match="cannot read"):
            run_pipeline([tmp_path / "absent.jsonl"], registry)
        with pytest.raises(InputError, match="cannot read"):
            run_pipeline([log], tmp_path / "absent-registry.jsonl")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(InputError, match="no valid episodes"):
            run_pipeline([empty], registry)
        binary = tmp_path / "binary.jsonl"
        binary.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(InputError, match="not UTF-8"):
            run_pipeline([binary], registry)

    def test_registry_defect_is_input_error(self, tmp_path):
        log, _ = write_corpus(tmp_path, small_corpus())
        bad = tmp_path / "bad-tasks.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(InputError, match="registry"):
            run_pipeline([log], bad)

    def test_repeat_runs_identical(self, tmp_path):
        log, registry = write_corpus(tmp_path, small_corpus())
        opts = PipelineOptions(bootstrap_b=1000)
        first = run_pipeline([log], registry, options=opts)
        second = run_pipeline([log], registry, options=opts)
        assert first == second

    def test_vaf_rows_do_not_depend_on_other_selections(self, tmp_path):
        # Selections with equal pool sizes share one bootstrap pass; each row
        # must still be the one its selection gets when analyzed alone.
        rates = (0.8, 0.7, 0.6, 0.5)
        studies = {
            ("m-a", "react"): (6, rates, 1),
            ("m-a", "memory"): (6, rates, 2),  # the pool sizes of m-a/react
            ("m-b", "react"): (8, rates, 3),
            ("m-b", "memory"): (6, (1.0, 1.0, 0.6, 0.5), 4),  # degenerate denominator
        }
        selections = {}
        for (model_id, scaffold), (n, p, seed) in studies.items():
            study = simulate_agent_study(dict(zip(BUCKETS, p)), n, 3, seed,
                                         model_id=model_id, scaffold=scaffold)
            selections[model_id, scaffold] = [
                replace(ep, episode_id=f"{model_id}-{scaffold}-{ep.episode_id}")
                for ep in study.episodes]
        tasks = simulate_agent_study(dict(zip(BUCKETS, rates)), 8, 1, 0).tasks
        two_per_bucket = [t for t in tasks if t.task_id[-5:] in ("00000", "00001")]
        # Two 4+4-task selections: three of four denominator tasks pass in
        # the first, so over 20% of its resamples are flat; two in the second.
        outcomes = {("m-c", "react"): (1, 1, 1, 0, 1, 0, 0, 1),
                    ("m-c", "memory"): (1, 0, 1, 0, 1, 0, 0, 1)}
        for (model_id, scaffold), passed in outcomes.items():
            selections[model_id, scaffold] = [
                make_episode(f"{model_id}-{scaffold}-{task.task_id}", task, passed=bool(ok),
                             model_id=model_id, scaffold=scaffold)
                for task, ok in zip(two_per_bucket, passed)]
        registry = tmp_path / "tasks.jsonl"
        write_task_registry(tasks, registry)
        opts = PipelineOptions(bootstrap_b=1000, seed=5)

        def vaf_rows(episodes, name):
            log = tmp_path / f"{name}.jsonl"
            write_episode_log(episodes, log)
            bundle = run_pipeline([log], registry, options=opts)
            return {row[:2]: row for row in bundle.tables["vaf"].rows}

        union = vaf_rows([ep for eps in selections.values() for ep in eps], "union")
        assert sorted(row[-1] for row in union.values()) == [
            "degenerate_denominator", "ok", "ok", "ok", "ok", "unavailable"]
        assert union["m-c", "react"][-1] == "unavailable"
        for (model_id, scaffold), episodes in selections.items():
            alone = vaf_rows(episodes, f"{model_id}-{scaffold}")
            assert alone == {(model_id, scaffold): union[model_id, scaffold]}

    def test_bootstrap_disabled_collapses_vaf_interval(self, tmp_path):
        log, registry = write_corpus(tmp_path, small_corpus(tasks=8))
        bundle = run_pipeline([log], registry, options=PipelineOptions(bootstrap_b=0))
        for row in bundle.tables["vaf"].rows:
            if row[11] == "ok":
                assert row[3] == row[2] == row[4]

    def test_emit_series_covers_every_analyzed_episode(self, tmp_path):
        corpus = small_corpus(tasks=2, k=1)
        log, registry = write_corpus(tmp_path, corpus)
        bundle = run_pipeline([log], registry,
                              options=PipelineOptions(bootstrap_b=0, emit_series=True))
        assert set(bundle.series) == {ep.episode_id for ep in corpus.episodes}
        # study episodes have no steps, so every series is empty but present
        assert all(series == () for series in bundle.series.values())


def tiny_bundle() -> ReportBundle:
    table = Table("rdc", (
        Column("model_id", "str"), Column("pass1", "fraction"),
        Column("vaf", "number"), Column("median_onset", "int"),
        Column("total_cost", "currency"),
    ), (
        ("m1", 0.5, 1 / 3, None, 1.25),
    ))
    return ReportBundle(run_metadata={"schema_version": "1"},
                        tables={"rdc": table}, series={})


class TestEmitReport:
    def test_markdown_formatting(self, tmp_path):
        emit_report(tiny_bundle(), "markdown", tmp_path)
        text = (tmp_path / "rdc.md").read_text(encoding="utf-8")
        assert "| 50.0% |" in text
        assert "| --- |" in text  # suppressed cell
        assert "| 0.333333 |" in text
        assert "| 1.2500 |" in text

    def test_csv_full_precision_and_empty_suppressed(self, tmp_path):
        emit_report(tiny_bundle(), "csv", tmp_path)
        lines = (tmp_path / "rdc.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model_id,pass1,vaf,median_onset,total_cost"
        assert lines[1] == f"m1,0.5,{1 / 3!r},,1.25"

    def test_json_nulls_and_schema(self, tmp_path):
        emit_report(tiny_bundle(), "json", tmp_path)
        payload = json.loads((tmp_path / "rdc.json").read_text(encoding="utf-8"))
        assert payload["columns"][1] == {"name": "pass1", "kind": "fraction"}
        assert payload["rows"][0]["median_onset"] is None
        assert payload["rows"][0]["vaf"] == 1 / 3

    def test_metadata_always_written(self, tmp_path):
        paths = emit_report(tiny_bundle(), "json", tmp_path)
        assert tmp_path / "run_metadata.json" in paths

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InputError, match="unknown format"):
            emit_report(tiny_bundle(), "xml", tmp_path)

    def test_emission_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit_report(tiny_bundle(), "markdown", a)
        emit_report(tiny_bundle(), "markdown", b)
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()

    def test_out_dir_that_is_a_file_is_input_error(self, tmp_path):
        blocker = tmp_path / "afile"
        blocker.write_text("", encoding="utf-8")
        with pytest.raises(InputError, match="emit: cannot write"):
            emit_report(tiny_bundle(), "csv", blocker)
        assert blocker.read_text(encoding="utf-8") == ""

    def test_several_formats_write_shared_files_once(self, tmp_path):
        bundle = replace(tiny_bundle(), series={"plain": ((5, 0.2),)})
        apart, together = tmp_path / "apart", tmp_path / "together"
        for fmt in ("csv", "json", "markdown"):
            emit_report(bundle, fmt, apart)
        paths = emit_report(bundle, ["csv", "json", "markdown", "csv"], together)
        assert len(paths) == len(set(paths)) == 5
        assert sorted(p.relative_to(together) for p in paths) == \
               sorted(p.relative_to(apart) for p in apart.rglob("*") if p.is_file())
        for path in paths:
            assert path.read_bytes() == (apart / path.relative_to(together)).read_bytes()

    def test_series_sidecars_with_safe_names(self, tmp_path):
        bundle = ReportBundle(
            run_metadata={}, tables={},
            series={"ep/odd:id": ((5, 0.0), (6, 1.5)), "plain": ((5, 0.2),)})
        paths = emit_report(bundle, "json", tmp_path)
        names = {p.name for p in paths if p.parent.name == "series"}
        assert "plain.json" in names
        assert len(names) == 2
        munged = next(n for n in names if n != "plain.json")
        assert "/" not in munged and ":" not in munged
        payload = json.loads((tmp_path / "series" / "plain.json").read_text())
        assert payload["series"] == [[5, 0.2]]


class TestCli:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert main(["analyze", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        code = main(["analyze", "--logs", str(tmp_path / "nope.jsonl"),
                     "--registry", str(tmp_path / "nope-tasks.jsonl"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("knob", [("--bootstrap-b", "500"), ("--bootstrap-b", "-5"),
                                      ("--bootstrap-b", str(2 ** 62)),
                                      ("--bootstrap-b", str(2 ** 63)),
                                      ("--ci-level", "1.5"), ("--mop-window", "1"),
                                      ("--mop-theta", "-0.5"), ("--mop-theta", "inf"),
                                      ("--mop-delta", "nan"), ("--mop-delta", "inf"),
                                      ("mop", "--calibrate", "baseline", "--mop-window", "1"),
                                      ("mop", "--mop-theta", "nan"),
                                      ("mop", "--mop-theta", "inf"),
                                      ("mop", "--mop-delta", "nan"),
                                      ("mop", "--percentile", "1.5"),
                                      ("mop", "--percentile", "-0.1")])
    def test_bad_knob_is_exit_1_before_reading_input(self, tmp_path, capsys, knob):
        # The inputs do not exist, so reading them would exit 2.
        if knob[0] == "mop":
            argv = ["mop", "--logs", str(tmp_path / "nope.jsonl"), "--out",
                    str(tmp_path / "out"), *knob[1:]]
        else:
            argv = ["analyze", "--logs", str(tmp_path / "nope.jsonl"),
                    "--registry", str(tmp_path / "nope-tasks.jsonl"),
                    "--out", str(tmp_path / "out"), *knob]
        assert main(argv) == 1
        assert f"usage error: argument {knob[-2]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_simulate_study_then_analyze(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["simulate", "--mode", "study", "--out", str(data),
                     "--tasks-per-bucket", "4", "--k", "2", "--seed", "7"]) == 0
        out = tmp_path / "report"
        code = main(["analyze", "--logs", str(data / "episodes.jsonl"),
                     "--registry", str(data / "tasks.jsonl"),
                     "--out", str(out), "--bootstrap-b", "0",
                     "--format", "markdown"])
        assert code == 0
        captured = capsys.readouterr()
        assert "analyzed 32 episodes" in captured.out
        # A one-scaffold corpus skips the scaffold comparison: one plain line,
        # not Python's "file:line: MetricWarning" format.
        assert captured.err.splitlines() == [
            "warning: scaffold_delta: model 'sim-agent' has only ['react']; skipped",
            "read logs: log_lines=32 parse_errors=0 duplicates=0 parsed=32"]
        assert (out / "rdc.md").exists()
        assert (out / "run_metadata.json").exists()
        assert not (out / "rdc.csv").exists()  # only the requested format

    def test_simulate_steps_summary(self, tmp_path):
        out = tmp_path / "steps"
        assert main(["simulate", "--mode", "steps", "--sim-model", "exchangeable",
                     "--epsilon", "0.1", "--rho", "0.5", "--horizon", "10",
                     "--episodes", "2000", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert abs(summary["predicted_failcount_variance"] - 1.35) <= 1e-12
        assert (out / "steps.csv").read_text().count("\n") == 2000

    def test_simulate_study_bad_p_arity(self, capsys):
        assert main(["simulate", "--mode", "study", "--out", "ignored",
                     "--p", "0.5,0.5"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        (["--mode", "steps", "--gamma", "nan"], 2),
        (["--mode", "study", "--p", "0.5"], 1),
        # Corpora the log parser would reject: step_limit, bad_scaffold, bad_model_id.
        (["--mode", "trajectories", "--length", "71"], 2),
        (["--mode", "study", "--scaffold", "foo"], 2),
        (["--mode", "trajectories", "--scaffold", "foo"], 2),
        (["--mode", "study", "--model-id", ""], 2),
        (["--mode", "trajectories", "--model-id", ""], 2),
        # A corpus without episodes, which analyze rejects.
        (["--mode", "trajectories", "--count", "0"], 2),
        (["--mode", "trajectories", "--count", "-1"], 2),
    ])
    def test_refused_simulate_creates_no_out_dir(self, tmp_path, capsys, argv, code):
        out = tmp_path / "never"
        assert main(["simulate", *argv, "--out", str(out)]) == code
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    # A JSON integer too large for a float, and a float literal that
    # overflows to infinity.
    @pytest.mark.parametrize("minutes", ["1" + "0" * 400, "1e400"],
                             ids=["400_digits", "1e400"])
    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_minutes_not_finite_as_float_is_exit_2(self, tmp_path, capsys, minutes, command):
        log, registry = write_corpus(tmp_path, small_corpus())
        lines = registry.read_text(encoding="utf-8").splitlines()
        lines[1] = re.sub(r'"human_minutes_estimate":[^,]*',
                          f'"human_minutes_estimate":{minutes}', lines[1])
        registry.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--logs", str(log), "--registry", str(registry)]
        if command == "analyze":
            argv += ["--bootstrap-b", "0", "--out", str(out)]
        assert main(argv) == 2
        assert ("registry line 2: human_minutes_estimate must be finite"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_analyze_writes_each_file_once(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "traj"
        assert main(["simulate", "--mode", "trajectories", "--count", "3",
                     "--out", str(data)]) == 0
        written = []
        real_write = report._write

        def counting_write(path, text):
            written.append(path)
            return real_write(path, text)

        monkeypatch.setattr(report, "_write", counting_write)
        out = tmp_path / "out"
        assert main(["analyze", "--logs", str(data / "episodes.jsonl"),
                     "--registry", str(data / "tasks.jsonl"), "--bootstrap-b", "0",
                     "--emit-series", "--out", str(out)]) == 0
        assert len(written) == len(set(written))
        assert sorted(written) == sorted(p for p in out.rglob("*") if p.is_file())
        assert (out / "series").is_dir() and (out / "rdc.md").exists()
        assert f"wrote {len(written)} files" in capsys.readouterr().out

    def test_validate_reports_errors_with_exit_2(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_text("{broken\n", encoding="utf-8")
        assert main(["validate", "--logs", str(log)]) == 2
        out = capsys.readouterr().out
        assert "ERROR" in out
        assert "malformed_line" in out

    def test_validate_clean_log_passes(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["simulate", "--mode", "study", "--out", str(data),
              "--tasks-per-bucket", "2", "--k", "1"])
        capsys.readouterr()
        code = main(["validate", "--logs", str(data / "episodes.jsonl"),
                     "--registry", str(data / "tasks.jsonl")])
        assert code == 0
        assert "0 errors" in capsys.readouterr().out

    def test_mop_detection_csv_on_stdout(self, tmp_path, capsys):
        data = tmp_path / "traj"
        main(["simulate", "--mode", "trajectories", "--profile", "spiral",
              "--length", "30", "--spiral-start", "15", "--count", "3",
              "--out", str(data)])
        capsys.readouterr()
        assert main(["mop", "--logs", str(data / "episodes.jsonl")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "episode_id,onset_step,max_entropy,too_short,melted"
        assert len(lines) == 4

    def test_mop_f1_requires_labels(self, tmp_path, capsys):
        data = tmp_path / "traj"
        main(["simulate", "--mode", "trajectories", "--count", "2",
              "--out", str(data)])
        capsys.readouterr()
        assert main(["mop", "--logs", str(data / "episodes.jsonl"),
                     "--calibrate", "f1"]) == 1
        assert "requires --labels" in capsys.readouterr().err

    def test_mop_f1_round_trip(self, tmp_path, capsys):
        spiral = tmp_path / "spiral"
        rote = tmp_path / "rote"
        main(["simulate", "--mode", "trajectories", "--profile", "spiral",
              "--length", "30", "--spiral-start", "15", "--count", "5",
              "--out", str(spiral)])
        main(["simulate", "--mode", "trajectories", "--profile", "rote",
              "--length", "30", "--count", "5", "--out", str(rote)])
        labels = tmp_path / "labels.jsonl"
        rows = [{"episode_id": f"traj-spiral-{i:05d}", "meltdown": True} for i in range(5)]
        rows += [{"episode_id": f"traj-rote-{i:05d}", "meltdown": False} for i in range(5)]
        labels.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["mop", "--logs", str(spiral / "episodes.jsonl"),
                     str(rote / "episodes.jsonl"),
                     "--calibrate", "f1", "--labels", str(labels)])
        assert code == 0
        out = capsys.readouterr().out
        assert "f1=1.0000" in out

    def test_mop_f1_missing_label_is_exit_2(self, tmp_path, capsys):
        data = tmp_path / "traj"
        main(["simulate", "--mode", "trajectories", "--count", "2",
              "--out", str(data)])
        labels = tmp_path / "labels.jsonl"
        labels.write_text(json.dumps(
            {"episode_id": "traj-spiral-00000", "meltdown": True}) + "\n",
            encoding="utf-8")
        capsys.readouterr()
        assert main(["mop", "--logs", str(data / "episodes.jsonl"),
                     "--calibrate", "f1", "--labels", str(labels)]) == 2
        assert "no label" in capsys.readouterr().err

    def test_mop_baseline(self, tmp_path, capsys):
        data = tmp_path / "rote"
        main(["simulate", "--mode", "trajectories", "--profile", "rote",
              "--length", "30", "--count", "4", "--out", str(data)])
        capsys.readouterr()
        assert main(["mop", "--logs", str(data / "episodes.jsonl"),
                     "--calibrate", "baseline"]) == 0
        assert "theta_h=0.0" in capsys.readouterr().out

    def test_cost_missing_model_is_exit_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["simulate", "--mode", "study", "--out", str(data),
              "--tasks-per-bucket", "2", "--k", "1"])
        pricing = tmp_path / "pricing.jsonl"
        pricing.write_text(PRICING_LINES[1] + "\n", encoding="utf-8")  # only m1
        capsys.readouterr()
        assert main(["cost", "--logs", str(data / "episodes.jsonl"),
                     "--pricing", str(pricing)]) == 2
        assert "sim-agent" in capsys.readouterr().err

    def test_cost_writes_csv(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["simulate", "--mode", "study", "--out", str(data),
              "--tasks-per-bucket", "2", "--k", "1"])
        pricing = tmp_path / "pricing.jsonl"
        pricing.write_text(PRICING_LINES[0] + "\n", encoding="utf-8")
        out = tmp_path / "costs"
        capsys.readouterr()
        assert main(["cost", "--logs", str(data / "episodes.jsonl"),
                     "--pricing", str(pricing), "--out", str(out)]) == 0
        lines = (out / "cost.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model_id,n_episodes,tokens_in,tokens_out,total_cost"
        assert lines[-1].startswith("(all),8,0,0,")

    @pytest.mark.parametrize("command", ["cost", "mop"])
    def test_out_creates_nested_parents(self, tmp_path, capsys, command):
        out = tmp_path / "nested" / "deeper"
        assert main([*self._csv_command(tmp_path, command), "--out", str(out)]) == 0
        assert (out / f"{command}.csv").read_text(encoding="utf-8").count("\n") > 1

    @pytest.mark.parametrize("command", ["cost", "mop"])
    def test_out_below_a_file_is_exit_2(self, tmp_path, capsys, command):
        argv = self._csv_command(tmp_path, command)
        blocker = tmp_path / "afile"
        blocker.write_text("", encoding="utf-8")
        capsys.readouterr()
        assert main([*argv, "--out", str(blocker / "x")]) == 2
        assert f"input error: emit: cannot write {blocker / 'x' / command}.csv" \
            in capsys.readouterr().err
        assert blocker.read_text(encoding="utf-8") == ""

    @staticmethod
    def _csv_command(tmp_path, command):
        """``cost`` or ``mop`` over a two-trajectory log, without ``--out``."""
        data = tmp_path / "data"
        main(["simulate", "--mode", "trajectories", "--count", "2", "--out", str(data)])
        argv = [command, "--logs", str(data / "episodes.jsonl")]
        if command == "cost":
            pricing = tmp_path / "pricing.jsonl"
            pricing.write_text(PRICING_LINES[0] + "\n", encoding="utf-8")
            argv += ["--pricing", str(pricing)]
        return argv

    def test_analyze_runs_are_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        main(["simulate", "--mode", "study", "--out", str(data),
              "--tasks-per-bucket", "3", "--k", "2"])
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = main(["analyze", "--logs", str(data / "episodes.jsonl"),
                         "--registry", str(data / "tasks.jsonl"),
                         "--out", str(out), "--bootstrap-b", "1000"])
            assert code == 0
            outs.append(out)
        first = sorted(p for p in outs[0].rglob("*") if p.is_file())
        second = sorted(p for p in outs[1].rglob("*") if p.is_file())
        assert [p.relative_to(outs[0]) for p in first] == \
               [p.relative_to(outs[1]) for p in second]
        for p1, p2 in zip(first, second):
            assert p1.read_bytes() == p2.read_bytes(), p1.name


class TestEverySubcommandReadsLogsAlike:
    """validate, mop and cost read logs through the pipeline's loader."""

    @staticmethod
    def run(command, log, tmp_path):
        pricing = tmp_path / "pricing.jsonl"
        pricing.write_text(PRICING_LINES[0] + "\n", encoding="utf-8")
        extra = {"validate": [], "mop": [], "cost": ["--pricing", str(pricing)],
                 "analyze": ["--registry", str(tmp_path / "corpus-tasks.jsonl"),
                             "--out", str(tmp_path / "report"), "--bootstrap-b", "0"]}
        return main([command, "--logs", *map(str, log), *extra[command]])

    @pytest.mark.parametrize("command", ["validate", "mop", "cost"])
    def test_carriage_return_inside_a_record_is_one_line(self, tmp_path, capsys, command):
        log, _ = write_corpus(tmp_path, small_corpus())
        lines = log.read_text(encoding="utf-8").splitlines()
        lines[5] = lines[5].replace(",", ",\r", 1)  # JSON whitespace, not a line break
        log.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        assert self.run(command, [log], tmp_path) == 0
        out = capsys.readouterr().out
        if command == "validate":
            assert out.splitlines()[-1] == "32 episodes parsed, 0 errors, 0 warnings"
        elif command == "mop":
            assert len(out.splitlines()) == 1 + 32
        else:
            assert out.splitlines()[-1].startswith("(all),32,")

    @pytest.mark.parametrize("command", ["validate", "mop", "cost"])
    def test_non_utf8_log_is_exit_2(self, tmp_path, capsys, command):
        log, _ = write_corpus(tmp_path, small_corpus())
        log.write_bytes(log.read_bytes() + b"\xff\xfe\n")
        assert self.run(command, [log], tmp_path) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "not UTF-8" in err

    def test_validate_dedups_across_files_as_analyze_does(self, tmp_path, capsys):
        corpus = small_corpus()
        log, registry = write_corpus(tmp_path, corpus)
        second = tmp_path / "second.jsonl"
        write_episode_log(corpus.episodes[:5], second)
        assert main(["validate", "--logs", str(log), str(second),
                     "--registry", str(registry)]) == 0
        out = capsys.readouterr().out
        assert out.count("duplicate_episode_id") == 5
        bundle = run_pipeline([log, second], registry, options=PipelineOptions(bootstrap_b=0))
        parsed = bundle.run_metadata["episodes"]["parsed"]
        assert out.splitlines()[-1].startswith(f"{parsed} episodes parsed, 0 errors")

    @pytest.mark.parametrize("command", ["validate", "analyze", "mop", "cost"])
    def test_accounting_line_on_stderr(self, tmp_path, capsys, command):
        corpus = small_corpus()
        log, registry = write_corpus(tmp_path, corpus)
        second = tmp_path / "second.jsonl"
        write_episode_log(corpus.episodes[:3], second)
        second.write_text("{broken\n" + second.read_text(encoding="utf-8"), encoding="utf-8")
        # validate reports the broken line as an error
        assert self.run(command, [log, second], tmp_path) == (2 if command == "validate" else 0)
        captured = capsys.readouterr()
        bundle = run_pipeline([log, second], registry, options=PipelineOptions(bootstrap_b=0))
        counts = bundle.run_metadata["episodes"]
        assert (counts["log_lines"], counts["parse_errors"], counts["duplicates"]) == (36, 1, 3)
        # analyze also warns, while it builds the tables, that the
        # one-scaffold corpus skips scaffold_delta
        warning = ("warning: scaffold_delta: model 'sim-agent' has only ['react']; skipped\n"
                   if command == "analyze" else "")
        assert captured.err == warning + ("read logs: log_lines=36 parse_errors=1 duplicates=3"
                                          f" parsed={counts['parsed']}\n")
        assert "read logs" not in captured.out

    def test_loading_streams_the_log(self, tmp_path):
        from reliakit.report import _load_logs

        corpus = small_corpus(tasks=1, k=1)
        steps = tuple(make_step(i, f"tool-{i % 7}") for i in range(1, 71))
        records = [make_episode(f"e-{i}", corpus.tasks[i % 4], steps=steps) for i in range(4)]
        log = tmp_path / "big.jsonl"
        write_episode_log(records * 100, log)  # 400 lines, 4 distinct episodes
        size = log.stat().st_size
        assert size > 3_000_000
        tracemalloc.start()
        try:
            logs = _load_logs([log], lambda episode: episode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert logs.counts() == {"log_lines": 400, "parse_errors": 0,
                                 "duplicates": 396, "parsed": 4}
        assert peak < size / 4

    def test_loading_streams_the_log_in_three_ranges(self, tmp_path, monkeypatch):
        load = report._load_logs
        monkeypatch.setattr(report, "_load_logs",
                            lambda paths, summarize: load(paths, summarize, _ranges=3))
        self.test_loading_streams_the_log(tmp_path)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_loading_leaves_the_gc_as_it_found_it(self, tmp_path, enabled):
        import gc

        from reliakit.report import _load_logs

        log, _ = write_corpus(tmp_path, small_corpus(tasks=1, k=1))
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert _load_logs([log], lambda episode: episode.episode_id).counts()["parsed"] > 0
            assert gc.isenabled() is enabled
            with pytest.raises(InputError):
                _load_logs([log, tmp_path / "missing.jsonl"],
                           lambda episode: episode.episode_id)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_bad_pricing_is_reported_before_a_bad_log(self, tmp_path, capsys):
        """analyze and cost read pricing before the logs, because they price
        each episode as it is read. A missing price is still reported after
        the parse and the join."""
        log, registry = write_corpus(tmp_path, small_corpus())
        bad_pricing = tmp_path / "bad-pricing.jsonl"
        bad_pricing.write_text("{broken\n", encoding="utf-8")
        other_pricing = tmp_path / "other-pricing.jsonl"
        other_pricing.write_text(PRICING_LINES[1] + "\n", encoding="utf-8")
        empty_log = tmp_path / "empty.jsonl"
        empty_log.write_text("{broken\n", encoding="utf-8")
        for command in ("analyze", "cost"):
            argv = [command, "--logs", str(tmp_path / "missing.jsonl")]
            if command == "analyze":
                argv += ["--registry", str(registry), "--out", str(tmp_path / "out")]
            capsys.readouterr()
            assert main([*argv, "--pricing", str(bad_pricing)]) == 2
            assert capsys.readouterr().err.startswith("input error: cost: pricing line 1:")
            argv[2] = str(empty_log)
            assert main([*argv, "--pricing", str(other_pricing)]) == 2
            assert capsys.readouterr().err.endswith("input error: parse: no valid episodes\n")
            argv[2] = str(log)
            assert main([*argv, "--pricing", str(other_pricing)]) == 2
            assert capsys.readouterr().err.endswith(
                "input error: cost: no pricing entry for models: sim-agent\n")
        assert not (tmp_path / "out").exists()

    def test_duplicate_label_is_exit_2(self, tmp_path, capsys):
        data = tmp_path / "traj"
        main(["simulate", "--mode", "trajectories", "--count", "2", "--out", str(data)])
        labels = tmp_path / "labels.jsonl"
        rows = [("traj-spiral-00000", True), ("traj-spiral-00001", False),
                ("traj-spiral-00000", False)]
        labels.write_text("".join(json.dumps({"episode_id": e, "meltdown": m}) + "\n"
                                  for e, m in rows), encoding="utf-8")
        capsys.readouterr()
        assert main(["mop", "--logs", str(data / "episodes.jsonl"),
                     "--calibrate", "f1", "--labels", str(labels)]) == 2
        assert ("labels line 3: duplicate episode_id 'traj-spiral-00000'"
                " (first seen on line 1)") in capsys.readouterr().err

    def test_python_m_runs_the_cli(self, tmp_path):
        src = Path(reliakit.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run(
            [sys.executable, "-m", "reliakit.cli", "simulate", "--mode", "study",
             "--tasks-per-bucket", "1", "--k", "1", "--out", str(tmp_path / "data")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "wrote 4 tasks and 4 episodes" in proc.stdout
        assert (tmp_path / "data" / "episodes.jsonl").exists()


class TestEachEpisodeIsReducedAsItIsRead:
    """Every log-reading subcommand keeps a summary of each episode, not its
    steps: while the logs load, memory stays far below what the same
    episodes take with their steps."""

    EPISODES = 400
    STEPS = 70

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("reduced")
        tasks = [make_task(f"t-{bucket}", bucket=bucket) for bucket in BUCKETS]
        episodes = [
            make_episode(f"ep-{e:04d}", tasks[e % 4], passed=e % 3 == 0, model_id="sim-agent",
                         steps=[make_step(i, f"tool-{(i * (e % 5 + 1)) % 7}",
                                          args={"path": f"f{i % 5}"})
                                for i in range(1, self.STEPS + 1)])
            for e in range(self.EPISODES)]
        write_episode_log(episodes, root / "episodes.jsonl")
        write_task_registry(tasks, root / "tasks.jsonl")
        (root / "pricing.jsonl").write_text(PRICING_LINES[0] + "\n", encoding="utf-8")
        (root / "labels.jsonl").write_text("".join(
            json.dumps({"episode_id": ep.episode_id, "meltdown": not ep.passed}) + "\n"
            for ep in episodes), encoding="utf-8")
        return root

    @pytest.fixture(scope="class")
    def with_steps(self, corpus):
        """Traced bytes the corpus's episodes hold with their steps."""
        logs, held, _ = self.traced_load(report._load_logs, [corpus / "episodes.jsonl"],
                                         lambda episode: episode)
        assert logs.counts()["parsed"] == self.EPISODES
        assert held > self.EPISODES * self.STEPS * 150
        return held

    @staticmethod
    def traced_load(load, paths, summarize):
        """``load(paths, summarize)``, the traced bytes its result holds and
        the traced peak while it runs, both above what was allocated before."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            logs = load(paths, summarize)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return logs, held - before, peak - before

    COMMANDS = {
        "analyze": ["analyze", "--registry", "tasks.jsonl", "--pricing", "pricing.jsonl",
                    "--out", "out", "--bootstrap-b", "0"],
        "validate": ["validate", "--registry", "tasks.jsonl"],
        "mop": ["mop"],
        "mop_f1": ["mop", "--calibrate", "f1", "--labels", "labels.jsonl"],
        "mop_baseline": ["mop", "--calibrate", "baseline"],
        "cost": ["cost", "--pricing", "pricing.jsonl"],
    }

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    def test_peak_is_below_a_quarter_of_the_steps(self, corpus, with_steps, argv, monkeypatch):
        from reliakit import cli

        load = report._load_logs
        peaks = []

        def traced(paths, summarize, keep=None):
            logs, _, peak = self.traced_load(
                lambda paths, summarize: load(paths, summarize, keep), paths, summarize)
            peaks.append(peak)
            return logs

        monkeypatch.setattr(cli, "_load_logs", traced)
        monkeypatch.setattr(report, "_load_logs", traced)
        monkeypatch.chdir(corpus)
        assert main([argv[0], "--logs", "episodes.jsonl", *argv[1:]]) == 0
        assert len(peaks) == 1
        assert peaks[0] < with_steps / 4

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    def test_peak_is_below_a_quarter_of_the_steps_in_three_ranges(self, corpus, with_steps,
                                                                   argv, monkeypatch):
        load = report._load_logs
        monkeypatch.setattr(report, "_load_logs", lambda paths, summarize, keep=None: load(
            paths, summarize, keep, _ranges=3))
        self.test_peak_is_below_a_quarter_of_the_steps(corpus, with_steps, argv, monkeypatch)

    def test_analyze_drops_steps_and_costs_before_the_bootstrap(self, corpus, monkeypatch):
        import gc

        vafs = report._vafs
        alive = []

        def checked(*args, **kwargs):
            objects = gc.get_objects()
            alive.append((sum(isinstance(o, report.EpisodeCost) for o in objects),
                          sum(isinstance(o, Episode) and bool(o.steps) for o in objects)))
            return vafs(*args, **kwargs)

        monkeypatch.setattr(report, "_vafs", checked)
        bundle = run_pipeline([corpus / "episodes.jsonl"], corpus / "tasks.jsonl",
                              corpus / "pricing.jsonl", PipelineOptions(bootstrap_b=0))
        assert bundle.run_metadata["episodes"]["analyzed"] == self.EPISODES
        assert bundle.tables["cost"].rows[-1][1] == self.EPISODES
        assert alive == [(0, 0)]
