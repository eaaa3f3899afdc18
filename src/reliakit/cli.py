"""Command-line interface.

Subcommands:
  analyze   run the full pipeline over logs + registry and emit report files
  mop       per-episode entropy-onset detection, or threshold calibration
  simulate  generate synthetic corpora (study logs, step matrices, trajectories)
  validate  schema and consistency checks only, no analysis
  cost      token-cost accounting from a pricing stream

Exit codes: 0 success, 1 usage error, 2 input validation failure,
3 pipeline or internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .meltdown import (
    DEFAULT_F1_GRID_DELTA,
    DEFAULT_F1_GRID_THETA,
    MeltdownError,
    MopConfig,
    _baseline_terms,
    _baseline_theta,
    _best_f1,
    _entropy_levels,
    _largest_rises,
    _onset,
    window_entropy,
)
from .metrics import _CI_METHODS, _MAX_BOOTSTRAP_B, MetricError, REGRESSORS
from .report import (
    InputError,
    PipelineError,
    PipelineOptions,
    _FORMATS,
    _cost_report,
    _cost_rows,
    _csv_text,
    _episode_cost,
    _load_logs,
    _load_reference,
    _write,
    emit_report,
    load_pricing,
    run_pipeline,
)
from .simulate import (
    DEFAULT_TOOL_POOL,
    SIM_MODELS,
    SimConfig,
    SimulationError,
    TrajectoryProfile,
    _check_size,
    generate_trajectory,
    predicted_failcount_variance,
    predicted_success_bound,
    simulate_agent_study,
    simulate_steps,
    trajectory_episode,
)
from .trajectory import (
    BUCKETS,
    RegistryError,
    Subtask,
    TaskSpec,
    _read_records,
    _Record,
    cross_validate,
    load_task_registry,
    write_episode_log,
    write_task_registry,
)

__all__ = ["build_parser", "entrypoint", "main"]


class _UsageError(Exception):
    """Bad command line; exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _bucket_list(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [n for n in names if n not in BUCKETS]
    if not names or unknown:
        raise ValueError(f"bucket list {text!r} must name buckets from {BUCKETS}")
    return names


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{text!r} is not a comma-separated float list") from None


def _bounded(kind: type, ok: Callable[[Any], bool], rule: str) -> Callable[[str], Any]:
    """An argparse type: ``kind`` of the text, rejected unless ``ok``."""
    def parse(text: str) -> Any:
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} must be {rule}")
        return value
    parse.__name__ = kind.__name__
    return parse


_bootstrap_b = _bounded(int, lambda b: b == 0 or 1000 <= b <= _MAX_BOOTSTRAP_B,
                        f"0 (off) or in 1000..{_MAX_BOOTSTRAP_B}")
_ci_level = _bounded(float, lambda x: 0.0 < x < 1.0, "in (0, 1)")
_mop_window = _bounded(int, lambda w: w >= 2, "at least 2")
_mop_theta = _bounded(float, lambda x: 0.0 <= x < math.inf, "finite and at least 0")
_mop_delta = _bounded(float, math.isfinite, "finite")
_percentile = _bounded(float, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")


# The library's defaults, read here so each is declared once.
_DEFAULTS = PipelineOptions()


def build_parser() -> _Parser:
    parser = _Parser(prog="reliakit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    analyze = sub.add_parser("analyze", help="full metric pipeline over episode logs")
    analyze.add_argument("--logs", nargs="+", required=True, metavar="PATH",
                         help="episode log files (newline-delimited records)")
    analyze.add_argument("--registry", required=True, metavar="PATH",
                         help="task registry file")
    analyze.add_argument("--pricing", metavar="PATH",
                         help="pricing stream; enables the cost table")
    analyze.add_argument("--out", required=True, metavar="DIR",
                         help="output directory for report files")
    analyze.add_argument("--format", action="append", choices=_FORMATS,
                         help="output format; repeatable (default: all)")
    analyze.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    analyze.add_argument("--bootstrap-b", type=_bootstrap_b, default=_DEFAULTS.bootstrap_b,
                         help="bootstrap resamples for VAF intervals"
                              " (0 disables, otherwise at least 1000)")
    analyze.add_argument("--ci-level", type=_ci_level, default=_DEFAULTS.ci_level,
                         help="interval confidence level, in (0, 1)")
    analyze.add_argument("--ci-method", choices=tuple(_CI_METHODS),
                         default=_DEFAULTS.ci_method)
    analyze.add_argument("--mop-theta", type=_mop_theta, default=_DEFAULTS.mop.theta_h,
                         help="entropy level threshold in bits")
    analyze.add_argument("--mop-delta", type=_mop_delta, default=_DEFAULTS.mop.delta,
                         help="required entropy rise over one window span")
    analyze.add_argument("--mop-window", type=_mop_window, default=_DEFAULTS.mop.window_w)
    analyze.add_argument("--vaf-num", type=_bucket_list, default=_DEFAULTS.vaf_numerator,
                         metavar="BUCKETS", help="comma-separated numerator buckets")
    analyze.add_argument("--vaf-den", type=_bucket_list, default=_DEFAULTS.vaf_denominator,
                         metavar="BUCKETS", help="comma-separated denominator buckets")
    analyze.add_argument("--regressor", choices=tuple(REGRESSORS),
                         default=_DEFAULTS.regressor)
    analyze.add_argument("--emit-series", action="store_true",
                         help="write per-episode entropy series sidecars")
    analyze.set_defaults(handler=_cmd_analyze)

    mop = sub.add_parser("mop", help="entropy-onset detection or calibration")
    mop.add_argument("--logs", nargs="+", required=True, metavar="PATH")
    mop.add_argument("--out", metavar="DIR",
                     help="write mop.csv there instead of stdout")
    mop.add_argument("--mop-theta", type=_mop_theta, default=_DEFAULTS.mop.theta_h)
    mop.add_argument("--mop-delta", type=_mop_delta, default=_DEFAULTS.mop.delta)
    mop.add_argument("--mop-window", type=_mop_window, default=_DEFAULTS.mop.window_w)
    mop.add_argument("--calibrate", choices=("f1", "baseline"),
                     help="calibrate thresholds instead of detecting")
    mop.add_argument("--labels", metavar="PATH",
                     help="newline-delimited {episode_id, meltdown} records (f1 mode)")
    mop.add_argument("--percentile", type=_percentile, default=0.95,
                     help="baseline percentile (baseline mode)")
    mop.set_defaults(handler=_cmd_mop)

    simulate = sub.add_parser("simulate", help="generate synthetic corpora")
    simulate.add_argument("--mode", choices=("study", "steps", "trajectories"),
                          required=True)
    simulate.add_argument("--out", required=True, metavar="DIR")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--tasks-per-bucket", type=int, default=33)
    simulate.add_argument("--k", type=int, default=3, help="repeats per task")
    simulate.add_argument("--p", type=_float_list, default=(0.93, 0.94, 0.84, 0.82),
                          metavar="P4", help="pass rates: short,medium,long,very_long")
    simulate.add_argument("--model-id", default="sim-agent")
    simulate.add_argument("--scaffold", default="react")
    simulate.add_argument("--sim-model", choices=SIM_MODELS, default="iid")
    simulate.add_argument("--epsilon", type=float, default=0.05,
                          help="per-step failure rate")
    simulate.add_argument("--rho", type=float, default=0.0)
    simulate.add_argument("--gamma", type=float, default=0.0,
                          help="hazard growth rate")
    simulate.add_argument("--horizon", type=int, default=30)
    simulate.add_argument("--episodes", type=int, default=1000)
    simulate.add_argument("--profile", choices=("rote", "coherent", "spiral"),
                          default="spiral")
    simulate.add_argument("--length", type=int, default=40)
    simulate.add_argument("--spiral-start", type=int, default=20)
    simulate.add_argument("--count", type=int, default=10,
                          help="trajectories to generate")
    simulate.set_defaults(handler=_cmd_simulate)

    validate = sub.add_parser("validate", help="schema checks only")
    validate.add_argument("--logs", nargs="+", required=True, metavar="PATH")
    validate.add_argument("--registry", metavar="PATH",
                          help="also cross-check episodes against this registry")
    validate.set_defaults(handler=_cmd_validate)

    cost = sub.add_parser("cost", help="token-cost accounting only")
    cost.add_argument("--logs", nargs="+", required=True, metavar="PATH")
    cost.add_argument("--pricing", required=True, metavar="PATH")
    cost.add_argument("--out", metavar="DIR",
                      help="write cost.csv there instead of stdout")
    cost.set_defaults(handler=_cmd_cost)

    return parser


def _cmd_analyze(args: argparse.Namespace) -> int:
    options = PipelineOptions(
        seed=args.seed,
        bootstrap_b=args.bootstrap_b,
        ci_level=args.ci_level,
        ci_method=args.ci_method,
        mop=MopConfig(window_w=args.mop_window, theta_h=args.mop_theta,
                      delta=args.mop_delta),
        vaf_numerator=args.vaf_num,
        vaf_denominator=args.vaf_den,
        regressor=args.regressor,
        emit_series=args.emit_series,
    )
    _warn_if_unreachable(args.mop_theta, args.mop_window)
    bundle = run_pipeline(args.logs, args.registry, args.pricing, options)
    counts = bundle.run_metadata["episodes"]
    _print_counts(counts)
    written = emit_report(bundle, args.format or _FORMATS, args.out)
    print(f"analyzed {counts['analyzed']} episodes"
          f" ({counts['infra_excluded']} infra-excluded,"
          f" {counts['join_excluded']} join-excluded);"
          f" wrote {len(written)} files to {args.out}")
    return 0


def _warn_if_unreachable(theta: float, w: int) -> None:
    """A warning on stderr when no window of w steps can exceed theta:
    detection is strict, and the highest entropy such a window reaches, w
    distinct tools, is computed here as ``_entropy_levels`` computes it."""
    top = window_entropy({i: 1 / w for i in range(w)})
    if theta >= top:
        print(f"warning: theta_h={theta} is at least {top}, the highest entropy a window"
              f" of {w} steps can reach, so no episode can be detected", file=sys.stderr)


def _print_counts(counts: dict[str, int]) -> None:
    """The line accounting of the logs read, on stderr."""
    print("read logs: " + " ".join(
        f"{k}={counts[k]}" for k in ("log_lines", "parse_errors", "duplicates", "parsed")),
        file=sys.stderr)


def _read_logs(paths: Sequence[str], summarize: Callable[..., Any]) -> list:
    """The pipeline's log loader, with its line accounting on stderr: the
    summary of each kept episode, refusing logs without one. ``summarize``
    takes the episode's record and its step columns (see _load_logs)."""
    logs = _load_logs(paths, summarize)
    _print_counts(logs.counts())
    if not logs.summaries:
        raise InputError("parse: no valid episodes")
    return logs.summaries


def _label(record: dict) -> tuple[str, bool]:
    if (not isinstance(record.get("episode_id"), str)
            or not isinstance(record.get("meltdown"), bool)):
        raise ValueError("need episode_id (string) and meltdown (bool)")
    return record["episode_id"], record["meltdown"]


def _load_labels(source: Iterable[str]) -> dict[str, bool]:
    return dict(_read_records(source, "labels", "episode_id", _label))


def _write_csv(out_dir: str | None, name: str, header: Sequence[str],
               rows: Sequence[Sequence]) -> Path | None:
    """Rows as CSV in ``out_dir/name``, returning that path, or on stdout
    without ``out_dir``."""
    text = _csv_text(header, rows)
    if out_dir is None:
        sys.stdout.write(text)
        return None
    return _write(Path(out_dir) / name, text)


def _cmd_mop(args: argparse.Namespace) -> int:
    if args.calibrate == "f1" and not args.labels:
        raise _UsageError("--calibrate f1 requires --labels")
    w = args.mop_window
    if args.calibrate == "f1":
        rises = _read_logs(args.logs, lambda ep, tools, *tokens: (
            ep.episode_id, _largest_rises(tools, DEFAULT_F1_GRID_THETA, w)))
        labels, _ = _load_reference(_load_labels, args.labels, "labels")
        missing = sorted(episode_id for episode_id, _ in rises if episode_id not in labels)
        if missing:
            raise InputError(f"labels: no label for episodes: {', '.join(missing[:5])}"
                             + (" ..." if len(missing) > 5 else ""))
        result = _best_f1([(r, labels[episode_id]) for episode_id, r in rises],
                          DEFAULT_F1_GRID_THETA, DEFAULT_F1_GRID_DELTA)
        print(f"theta_h={result.theta_h} delta={result.delta}"
              f" f1={result.f1:.4f} precision={result.precision:.4f}"
              f" recall={result.recall:.4f}")
        return 0
    if args.calibrate == "baseline":
        terms = _read_logs(args.logs, lambda ep, tools, *tokens: _baseline_terms(tools, w))
        theta, delta = _baseline_theta(terms, args.percentile, w)
        _warn_if_unreachable(theta, w)
        print(f"theta_h={theta} delta={delta}")
        return 0

    config = MopConfig(window_w=w, theta_h=args.mop_theta, delta=args.mop_delta)
    _warn_if_unreachable(config.theta_h, w)

    def row(episode: _Record, tools: list[str], *tokens: list[int]) -> tuple:
        levels = _entropy_levels(tools, w)
        onset, too_short = _onset(levels, config)
        return episode.episode_id, onset, max(levels, default=0.0), too_short, onset is not None

    rows = _read_logs(args.logs, row)
    path = _write_csv(args.out, "mop.csv",
                      ("episode_id", "onset_step", "max_entropy", "too_short", "melted"), rows)
    if path:
        print(f"wrote {path} ({len(rows)} episodes)")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    # Each mode builds its output in memory and creates --out only to write
    # it, so a refused config leaves no directory behind.
    out = Path(args.out)
    if args.mode == "study":
        if len(args.p) != len(BUCKETS):
            raise _UsageError(f"--p needs {len(BUCKETS)} rates, got {len(args.p)}")
        per_bucket = dict(zip(BUCKETS, args.p))
        corpus = simulate_agent_study(per_bucket, args.tasks_per_bucket, args.k,
                                      args.seed, model_id=args.model_id,
                                      scaffold=args.scaffold)
        out.mkdir(parents=True, exist_ok=True)
        write_task_registry(corpus.tasks, out / "tasks.jsonl")
        write_episode_log(corpus.episodes, out / "episodes.jsonl")
        print(f"wrote {len(corpus.tasks)} tasks and {len(corpus.episodes)} episodes"
              f" to {out}")
        return 0
    if args.mode == "steps":
        config = SimConfig(model=args.sim_model, epsilon=args.epsilon,
                           horizon_t=args.horizon, episodes=args.episodes,
                           seed=args.seed, rho=args.rho, hazard_gamma=args.gamma)
        failures = simulate_steps(config)
        fail_counts = failures.sum(axis=1)
        summary = {
            **dataclasses.asdict(config),
            "observed_all_success_rate": float((fail_counts == 0).mean()),
            "observed_failcount_variance": float(fail_counts.var()),
            "predicted_failcount_variance": predicted_failcount_variance(
                config.epsilon, config.rho, config.horizon_t),
            "predicted_success_lower_bound": predicted_success_bound(
                config.epsilon, config.rho, config.horizon_t),
        }
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "steps.csv", "w", encoding="utf-8") as steps_csv:
            steps_csv.writelines(",".join(map(str, row.tolist())) + "\n"
                                 for row in failures.astype(int))
        (out / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out / 'steps.csv'} and {out / 'summary.json'}")
        return 0

    spiral_start = args.spiral_start if args.profile == "spiral" else None
    profile = TrajectoryProfile(profile=args.profile, tool_pool=DEFAULT_TOOL_POOL,
                                spiral_start=spiral_start)
    task = TaskSpec(
        task_id="traj-task-00000", domain="SE", bucket="long",
        human_minutes_estimate=75.0, agent_steps_estimate=args.length,
        subtasks=(Subtask("s1", 0.25, ""), Subtask("s2", 0.35, ""),
                  Subtask("s3", 0.20, ""), Subtask("s4", 0.20, "")),
    )
    _check_size("count", args.count)
    episodes = []
    for i in range(args.count):
        steps = generate_trajectory(profile, args.length, args.seed + i)
        episodes.append(trajectory_episode(
            f"traj-{args.profile}-{i:05d}", task, steps,
            model_id=args.model_id, scaffold=args.scaffold, repeat_index=i + 1))
    out.mkdir(parents=True, exist_ok=True)
    write_task_registry([task], out / "tasks.jsonl")
    write_episode_log(episodes, out / "episodes.jsonl")
    print(f"wrote {len(episodes)} {args.profile} trajectories to {out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    logs = _load_logs(args.logs, lambda episode, *columns: episode)
    _print_counts(logs.counts())
    reports = logs.reports
    if args.registry:
        tasks, _ = _load_reference(load_task_registry, args.registry, "registry")
        reports = reports + cross_validate(logs.summaries, {t.task_id: t for t in tasks})[1]
    n_errors = 0
    n_warnings = 0
    for report in reports:
        for issue in report.errors:
            n_errors += 1
            print(f"ERROR {report.episode_id} {issue.code}: {issue.message}")
        for issue in report.warnings:
            n_warnings += 1
            print(f"WARNING {report.episode_id} {issue.code}: {issue.message}")
    print(f"{len(logs.summaries)} episodes parsed, {n_errors} errors, {n_warnings} warnings")
    return 2 if n_errors else 0


def _cmd_cost(args: argparse.Namespace) -> int:
    # Pricing is read first, because each episode is priced as it is read.
    pricing, _ = _load_reference(load_pricing, args.pricing, "cost")
    prices = {p.model_id: p for p in pricing}
    rows = _cost_rows(_cost_report(_read_logs(
        args.logs, lambda ep, tools, *tokens: _episode_cost(ep, *tokens, prices))))
    path = _write_csv(args.out, "cost.csv",
                      ("model_id", "n_episodes", "tokens_in", "tokens_out", "total_cost"), rows)
    if path:
        print(f"wrote {path}")
    return 0


def _print_warning(message: Warning | str, category: type[Warning], filename: str,
                   lineno: int, file: Any = None, line: str | None = None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "handler", None):
            parser.print_help(sys.stderr)
            return 1
        with warnings.catch_warnings():
            # One line per warning, without Python's source location format.
            warnings.showwarning = _print_warning
            return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (RegistryError, InputError, MeltdownError, SimulationError,
            MetricError, OSError) as exc:
        if isinstance(exc, InputError) and exc.counts is not None:
            _print_counts(exc.counts)  # the logs were read before the error was found
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - catch-all for exit-code contract
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
