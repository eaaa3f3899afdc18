"""Full analysis pipeline and file emission.

run_pipeline ingests episode logs, the task registry, and optionally a
pricing stream, and produces a ReportBundle: run metadata plus the named
tables (rdc, gds_pass, vaf, domain, scaffold_delta, meltdown, cost,
decomposition). emit_report renders a bundle to files in one format.

Determinism contract: the bundle and every emitted byte are a pure
function of (input file contents, options). Nothing here reads clocks,
hostnames, or environment.

Error taxonomy: InputError marks problems with what the user supplied
(unreadable paths, malformed registry, no valid episodes, missing pricing)
and maps to exit code 2 in the CLI; PipelineError marks internal failures
(exit code 3). Both carry the owning stage name in their message. A bundle
is only returned, and files only written, after every stage has finished,
so partial table sets are never written on stage failure.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .meltdown import MopConfig, _meltdown_cells, meltdown_table
from .metrics import (
    DEFAULT_VAF_DENOMINATOR,
    DEFAULT_VAF_NUMERATOR,
    DegenerateStatisticError,
    MetricError,
    REGRESSORS,
    TaskOutcomeGroup,
    _CI_METHODS,
    _curve,
    _vafs,
    decomposition_gain,
    domain_stratify,
    outcome_groups,
    pass_at_1,
    per_task_pass1,
    rds,
    scaffold_delta,
)
from .trajectory import (
    BUCKETS,
    Episode,
    RegistryError,
    TaskSpec,
    ValidationIssue,
    ValidationReport,
    _read_records,
    cross_validate,
    load_task_registry,
    parse_episode_log,
)

__all__ = [
    "CostReport",
    "EpisodeCost",
    "InputError",
    "ModelCost",
    "PipelineError",
    "PipelineOptions",
    "PricingEntry",
    "ReportBundle",
    "Table",
    "TABLE_ORDER",
    "compute_cost",
    "emit_report",
    "load_pricing",
    "run_pipeline",
]


class InputError(Exception):
    """A problem with user-supplied inputs; CLI exit code 2."""


class PipelineError(Exception):
    """An internal pipeline failure; CLI exit code 3."""


# --- pricing ---------------------------------------------------------------

@dataclass(frozen=True)
class PricingEntry:
    model_id: str
    input_per_million: float
    output_per_million: float


def load_pricing(source: str | Path | Iterable[str]) -> list[PricingEntry]:
    """Load a pricing stream: one record per line with model_id and
    per-million token prices. Defects raise RegistryError with the line."""
    return _read_records(source, "pricing", "model_id", _pricing_entry)


def _pricing_entry(record: Mapping[str, Any]) -> PricingEntry:
    model_id = record.get("model_id")
    if not isinstance(model_id, str) or not model_id:
        raise ValueError("model_id must be a non-empty string")
    prices = {}
    for key in ("input_per_million", "output_per_million"):
        value = record.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
            raise ValueError(f"{key} must be a non-negative number")
        prices[key] = float(value)
    return PricingEntry(model_id=model_id, **prices)


@dataclass(frozen=True)
class EpisodeCost:
    episode_id: str
    model_id: str
    tokens_in: int
    tokens_out: int
    cost: float


@dataclass(frozen=True)
class ModelCost:
    n_episodes: int
    tokens_in: int
    tokens_out: int
    total_cost: float


@dataclass(frozen=True)
class CostReport:
    per_episode: tuple[EpisodeCost, ...]
    per_model: Mapping[str, ModelCost]
    total_cost: float


def compute_cost(episodes: Iterable[Episode], pricing: Sequence[PricingEntry]) -> CostReport:
    """Token cost per episode and aggregates, at per-million prices.

    Every model present in the episodes must have a pricing entry; the
    error lists all that are missing. Aggregation uses exact summation so
    the grand total equals the sum of per-episode costs.
    """
    prices = {p.model_id: p for p in pricing}
    episode_list = list(episodes)
    missing = sorted({ep.model_id for ep in episode_list} - set(prices))
    if missing:
        raise InputError(f"cost: no pricing entry for models: {', '.join(missing)}")
    per_episode: list[EpisodeCost] = []
    by_model: dict[str, list[EpisodeCost]] = {}
    for ep in episode_list:
        entry = prices[ep.model_id]
        step_costs = [
            (s.tokens_in * entry.input_per_million + s.tokens_out * entry.output_per_million) / 1e6
            for s in ep.steps
        ]
        per_episode.append(EpisodeCost(
            episode_id=ep.episode_id,
            model_id=ep.model_id,
            tokens_in=sum(s.tokens_in for s in ep.steps),
            tokens_out=sum(s.tokens_out for s in ep.steps),
            cost=math.fsum(step_costs),
        ))
        by_model.setdefault(ep.model_id, []).append(per_episode[-1])
    per_model = {
        model_id: ModelCost(
            n_episodes=len(rows),
            tokens_in=sum(c.tokens_in for c in rows),
            tokens_out=sum(c.tokens_out for c in rows),
            total_cost=math.fsum(c.cost for c in rows),
        )
        for model_id, rows in sorted(by_model.items())
    }
    return CostReport(
        per_episode=tuple(per_episode),
        per_model=per_model,
        total_cost=math.fsum(c.cost for c in per_episode),
    )


def _cost_rows(report: CostReport) -> list[tuple]:
    """(model_id, n_episodes, tokens_in, tokens_out, total_cost) per model, then "(all)"."""
    rows = [(model_id, mc.n_episodes, mc.tokens_in, mc.tokens_out, mc.total_cost)
            for model_id, mc in report.per_model.items()]
    rows.append(("(all)", len(report.per_episode), sum(row[2] for row in rows),
                 sum(row[3] for row in rows), report.total_cost))
    return rows


# --- options and bundle -----------------------------------------------------

@dataclass(frozen=True)
class PipelineOptions:
    seed: int = 0
    bootstrap_b: int = 10000
    ci_level: float = 0.95
    ci_method: str = "wald"
    mop: MopConfig = field(default_factory=MopConfig)
    vaf_numerator: tuple[str, ...] = DEFAULT_VAF_NUMERATOR
    vaf_denominator: tuple[str, ...] = DEFAULT_VAF_DENOMINATOR
    regressor: str = "bucket_index_1to4"
    emit_series: bool = False

    def __post_init__(self) -> None:
        if self.bootstrap_b != 0 and self.bootstrap_b < 1000:
            raise InputError(
                f"options: bootstrap_b must be 0 (off) or at least 1000, got {self.bootstrap_b}")
        if not 0.0 < self.ci_level < 1.0:
            raise InputError(f"options: ci_level must be in (0, 1), got {self.ci_level}")
        if self.regressor not in REGRESSORS:
            raise InputError(f"options: unknown regressor {self.regressor!r}")
        if self.ci_method not in _CI_METHODS:
            raise InputError(f"options: unknown ci_method {self.ci_method!r}")
        # MopConfig allows infinite thresholds; a report records its options
        # in run_metadata.json, which holds finite numbers only.
        for name, value in (("theta_h", self.mop.theta_h), ("delta", self.mop.delta)):
            if not math.isfinite(value):
                raise InputError(f"options: mop.{name} must be finite, got {value}")
        for name, buckets in (("vaf_numerator", self.vaf_numerator),
                              ("vaf_denominator", self.vaf_denominator)):
            if not buckets or any(b not in BUCKETS for b in buckets):
                raise InputError(f"options: bad {name} bucket set {buckets!r}")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # one of: str, int, fraction, number, currency


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[Column, ...]
    rows: tuple[tuple, ...]  # None cells are suppressed values


TABLE_ORDER = ("rdc", "gds_pass", "vaf", "domain", "scaffold_delta",
               "meltdown", "cost", "decomposition")


@dataclass(frozen=True)
class ReportBundle:
    run_metadata: dict[str, Any]
    tables: Mapping[str, Table]
    series: Mapping[str, tuple[tuple[int, float], ...]]


# --- pipeline ---------------------------------------------------------------

def _read_lines(path: str | Path, stage: str, meta: dict[str, Any]) -> Iterator[str]:
    """Stream one input file's lines, each stripped ("" when blank). Lines
    end only at line feeds and each is decoded on its own, so the file is
    never held whole. At the end ``meta`` holds the path, the sha256 of
    the raw bytes and the count of non-blank lines."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"{stage}: cannot read {path}: {exc}") from exc
    sha, lines = hashlib.sha256(), 0
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            sha.update(raw)
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise InputError(f"{stage}: {path} is not UTF-8: line {lineno}: {exc}") from exc
            lines += bool(line)
            yield line
    meta.update(path=str(path), sha256=sha.hexdigest(), lines=lines)


def _load_reference(loader: Callable[[Iterable[str]], Any], path: str | Path,
                    stage: str) -> tuple[Any, dict[str, Any]]:
    """``loader`` over a reference file (registry, pricing, labels) and the
    file's metadata; its defects become InputError."""
    meta: dict[str, Any] = {}
    try:
        return loader(_read_lines(path, stage, meta)), meta
    except RegistryError as exc:
        raise InputError(f"{stage}: {exc}") from exc


@dataclass(frozen=True)
class _Logs:
    episodes: list[Episode]
    reports: list[ValidationReport]
    inputs: list[dict[str, Any]]

    def counts(self) -> dict[str, int]:
        """Line accounting: each non-blank line is a parse error, a duplicate
        or a parsed episode."""
        return {
            "log_lines": sum(m["lines"] for m in self.inputs),
            "parse_errors": sum(1 for r in self.reports if r.fatal),
            "duplicates": sum(1 for r in self.reports
                              if any(i.code == "duplicate_episode_id" for i in r.warnings)),
            "parsed": len(self.episodes),
        }


def _load_logs(paths: Sequence[str | Path]) -> _Logs:
    """Parse every log through the streaming reader, keeping the first
    record of an episode_id across files as within one.

    The cyclic garbage collector is paused meanwhile: parsed records form
    no reference cycles, and every pass it would make scans a heap that
    only grows, which costs more the larger the logs."""
    episodes: list[Episode] = []
    reports: list[ValidationReport] = []
    inputs = []
    seen_ids: set[str] = set()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for path in paths:
            meta: dict[str, Any] = {}
            file_eps, file_reports = parse_episode_log(_read_lines(path, "parse", meta))
            reports.extend(file_reports)
            for ep in file_eps:
                if ep.episode_id in seen_ids:
                    reports.append(ValidationReport(
                        episode_id=ep.episode_id,
                        warnings=(ValidationIssue(
                            "duplicate_episode_id",
                            f"{path}: duplicate of {ep.episode_id!r} from an earlier log;"
                            " keeping the first"),),
                    ))
                    continue
                seen_ids.add(ep.episode_id)
                episodes.append(ep)
            inputs.append(meta)
    finally:
        if gc_was_enabled:
            gc.enable()
    return _Logs(episodes, reports, inputs)


def run_pipeline(
    log_paths: Sequence[str | Path],
    registry_path: str | Path,
    pricing_path: str | Path | None = None,
    options: PipelineOptions | None = None,
) -> ReportBundle:
    """Run every analysis stage over the given inputs. See module docstring
    for the error taxonomy; the bundle is complete or absent, never partial.
    """
    opts = options or PipelineOptions()
    if not log_paths:
        raise InputError("parse: no log paths given")

    tasks, registry_meta = _load_reference(load_task_registry, registry_path, "registry")
    registry = {t.task_id: t for t in tasks}
    logs = _load_logs(log_paths)
    episodes = logs.episodes
    if not episodes:
        raise InputError("parse: no valid episodes")

    joined, join_reports = cross_validate(episodes, registry)
    analysis = [ep for ep in joined if not ep.is_infra_failure]
    if not analysis:
        raise InputError("join: no valid episodes remain after registry join"
                         " and infra exclusion")

    pricing = pricing_meta = None
    if pricing_path is not None:
        pricing, pricing_meta = _load_reference(load_pricing, pricing_path, "cost")

    try:
        tables, series = _build_tables(analysis, episodes, registry, pricing, opts)
    except (InputError, PipelineError):
        raise
    except Exception as exc:  # pragma: no cover - defensive stage wrapper
        raise PipelineError(f"metrics: {exc!r}") from exc

    counts = logs.counts()
    counts.update(join_excluded=len(join_reports),
                  infra_excluded=len(joined) - len(analysis), analyzed=len(analysis))
    conservation = (
        counts["log_lines"] == counts["parse_errors"] + counts["duplicates"] + counts["parsed"]
        and counts["parsed"] == (counts["join_excluded"] + counts["infra_excluded"]
                                 + counts["analyzed"])
    )

    options_dict = opts.to_dict()
    config_hash = hashlib.sha256(
        json.dumps(options_dict, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    issue_counts: dict[str, int] = {}
    for report in logs.reports + join_reports:
        for issue in report.errors + report.warnings:
            issue_counts[issue.code] = issue_counts.get(issue.code, 0) + 1

    metadata = {
        "schema_version": "1",
        "generator": {"name": "reliakit", "version": _package_version()},
        "inputs": {
            "logs": logs.inputs,
            "registry": registry_meta,
            "pricing": pricing_meta,
        },
        "options": options_dict,
        "config_hash": config_hash,
        "episodes": counts,
        "conservation_holds": conservation,
        "validation_issues": {code: issue_counts[code] for code in sorted(issue_counts)},
    }
    return ReportBundle(run_metadata=metadata, tables=tables, series=series)


def _package_version() -> str:
    from . import __version__
    return __version__


def _build_tables(
    analysis: Sequence[Episode],
    all_parsed: Sequence[Episode],
    registry: Mapping[str, TaskSpec],
    pricing: Sequence[PricingEntry] | None,
    opts: PipelineOptions,
) -> tuple[dict[str, Table], dict[str, tuple[tuple[int, float], ...]]]:
    by_selection: dict[tuple[str, str], list[TaskOutcomeGroup]] = {}
    for group in outcome_groups(analysis, registry):
        by_selection.setdefault((group.model_id, group.scaffold), []).append(group)

    rdc_rows: list[tuple] = []
    gds_rows: list[tuple] = []
    vaf_rows: list[tuple] = []
    decomp_rows: list[tuple] = []
    selections = sorted(by_selection.items())
    # One call for every selection, so the bootstrap draws each run's
    # resample rows once (see metrics._vafs).
    vaf_results = _vafs([(model_id, per_task_pass1(groups)) for (model_id, _), groups in selections],
                        registry, opts.vaf_numerator, opts.vaf_denominator,
                        opts.bootstrap_b, opts.ci_level, opts.seed)
    for ((model_id, scaffold), groups), result in zip(selections, vaf_results):
        pass_curve = _curve(groups, registry, "pass1", opts.ci_level, opts.ci_method)
        gds_curve = _curve(groups, registry, "gds")
        for bucket, point in pass_curve.points.items():
            rdc_rows.append((model_id, scaffold, bucket, point.value,
                             point.ci_low, point.ci_high, point.n_tasks, point.n_episodes))
            gds_point = gds_curve.points[bucket]
            gds_rows.append((model_id, scaffold, bucket, gds_point.value, point.value,
                             gds_point.n_tasks, gds_point.n_episodes))

        den = [g for g in groups if registry[g.task_id].bucket in opts.vaf_denominator]
        num = [g for g in groups if registry[g.task_id].bucket in opts.vaf_numerator]
        den_pass = pass_at_1(den) if den else None
        num_pass = pass_at_1(num) if num else None
        if isinstance(result, DegenerateStatisticError):
            cells, status = (None,) * 5, "degenerate_denominator"
        elif isinstance(result, MetricError):
            cells, status = (None,) * 5, "unavailable"
        else:
            cells = (result.vaf, result.ci_low, result.ci_high,
                     result.n_num_tasks, result.n_den_tasks)
            status = "ok"
        vaf_rows.append((model_id, scaffold, *cells, "+".join(opts.vaf_numerator),
                         "+".join(opts.vaf_denominator), den_pass, num_pass, status))

        short = pass_curve.points.get("short")
        very_long = pass_curve.points.get("very_long")
        gain = decomposition_gain(pass_curve) if short and very_long else None
        try:
            slope = rds(pass_curve, opts.regressor)
        except MetricError:
            slope = None
        decomp_rows.append((model_id, scaffold,
                            short.value if short else None,
                            very_long.value if very_long else None,
                            gain, slope, opts.regressor))

    domain = domain_stratify(analysis, registry, "gds")
    domain_rows: list[tuple] = []
    for dom in sorted({d for d, _ in domain.cells}):
        values = []
        counts = []
        for bucket in BUCKETS:
            cell = domain.cells.get((dom, bucket))
            values.append(cell.value if cell else None)
            counts.append(cell.n_episodes if cell else 0)
        domain_rows.append((dom, *values, domain.drops.get(dom), *counts))

    scaffold_rows = [
        (row.model_id, row.react_value, row.memory_value, row.delta, row.label,
         row.n_react, row.n_memory)
        for row in scaffold_delta(analysis, registry)
    ]

    # Without series the table comes from the public meltdown_table, so
    # spans wrapped around that name (the benchmark's layer timings) still
    # time it. With series, one detect_mop pass yields both.
    if opts.emit_series:
        melt, series = _meltdown_cells(analysis, registry, opts.mop, keep_series=True)
    else:
        melt, series = meltdown_table(analysis, registry, opts.mop), {}
    melt_rows = [
        (model_id, bucket, cell.rate, cell.median_onset, cell.n_events,
         cell.n_episodes, cell.n_too_short)
        for (model_id, bucket), cell in melt.items()
    ]

    tables: dict[str, Table] = {}
    tables["rdc"] = Table("rdc", (
        Column("model_id", "str"), Column("scaffold", "str"), Column("bucket", "str"),
        Column("pass1", "fraction"), Column("ci_low", "fraction"), Column("ci_high", "fraction"),
        Column("n_tasks", "int"), Column("n_episodes", "int"),
    ), tuple(rdc_rows))
    tables["gds_pass"] = Table("gds_pass", (
        Column("model_id", "str"), Column("scaffold", "str"), Column("bucket", "str"),
        Column("gds", "fraction"), Column("pass1", "fraction"),
        Column("n_tasks", "int"), Column("n_episodes", "int"),
    ), tuple(gds_rows))
    tables["vaf"] = Table("vaf", (
        Column("model_id", "str"), Column("scaffold", "str"),
        Column("vaf", "number"), Column("ci_low", "number"), Column("ci_high", "number"),
        Column("n_num_tasks", "int"), Column("n_den_tasks", "int"),
        Column("numerator_buckets", "str"), Column("denominator_buckets", "str"),
        Column("denominator_pass1", "fraction"), Column("numerator_pass1", "fraction"),
        Column("status", "str"),
    ), tuple(vaf_rows))
    tables["domain"] = Table("domain", (
        Column("domain", "str"),
        Column("short", "fraction"), Column("medium", "fraction"),
        Column("long", "fraction"), Column("very_long", "fraction"),
        Column("drop", "fraction"),
        Column("n_short", "int"), Column("n_medium", "int"),
        Column("n_long", "int"), Column("n_very_long", "int"),
    ), tuple(domain_rows))
    tables["scaffold_delta"] = Table("scaffold_delta", (
        Column("model_id", "str"),
        Column("react_gds", "fraction"), Column("memory_gds", "fraction"),
        Column("delta", "fraction"), Column("label", "str"),
        Column("n_react", "int"), Column("n_memory", "int"),
    ), tuple(scaffold_rows))
    tables["meltdown"] = Table("meltdown", (
        Column("model_id", "str"), Column("bucket", "str"),
        Column("rate", "fraction"), Column("median_onset", "int"),
        Column("n_events", "int"), Column("n_episodes", "int"), Column("n_too_short", "int"),
    ), tuple(melt_rows))
    if pricing is not None:
        cost_rows = [(*row, row[4] / row[1])
                     for row in _cost_rows(compute_cost(all_parsed, pricing))]
        tables["cost"] = Table("cost", (
            Column("model_id", "str"), Column("n_episodes", "int"),
            Column("tokens_in", "int"), Column("tokens_out", "int"),
            Column("total_cost", "currency"), Column("mean_cost_per_episode", "currency"),
        ), tuple(cost_rows))
    tables["decomposition"] = Table("decomposition", (
        Column("model_id", "str"), Column("scaffold", "str"),
        Column("pass1_short", "fraction"), Column("pass1_very_long", "fraction"),
        Column("gain", "fraction"), Column("rds_slope", "number"),
        Column("regressor", "str"),
    ), tuple(decomp_rows))

    return tables, series


# --- emission ----------------------------------------------------------------

def _format_markdown(value: Any, kind: str) -> str:
    if value is None:
        return "---"
    if kind == "fraction":
        return f"{100.0 * value:.1f}%"
    if kind == "number":
        return f"{value:.6g}"
    if kind == "currency":
        return f"{value:.4f}"
    return str(value)


def _format_csv(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_format_csv(v) for v in row] for row in rows)
    return buffer.getvalue()


def _safe_filename(episode_id: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9._-]", "_", episode_id)
    if cleaned != episode_id:
        digest = hashlib.sha256(episode_id.encode("utf-8")).hexdigest()[:12]
        cleaned = f"{cleaned}-{digest}"
    return cleaned


_FORMATS = ("csv", "json", "markdown")


def _write(path: Path, text: str) -> Path:
    """Write ``text`` to ``path``, creating its parent directories."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"emit: cannot write {path}: {exc}") from exc
    return path


def emit_report(bundle: ReportBundle, fmt: str | Sequence[str],
                out_dir: str | Path) -> list[Path]:
    """Render every table of the bundle in one format, or in each of a
    sequence of formats, plus run metadata and any entropy-series sidecars,
    each written once. Returns the written paths.

    Markdown renders fractions as one-decimal percentages and suppressed
    cells as "---"; csv leaves suppressed cells empty and json renders
    them as null, with full float precision in both.
    """
    formats = (fmt,) if isinstance(fmt, str) else tuple(dict.fromkeys(fmt))
    for name in formats:
        if name not in _FORMATS:
            raise InputError(f"emit: unknown format {name!r}")
    out = Path(out_dir)
    written: list[Path] = []
    written.append(_write(
        out / "run_metadata.json",
        json.dumps(bundle.run_metadata, indent=2, sort_keys=True) + "\n"))

    for fmt in formats:
        for name in TABLE_ORDER:
            table = bundle.tables.get(name)
            if table is None:
                continue
            if fmt == "csv":
                text = _csv_text([c.name for c in table.columns], table.rows)
                written.append(_write(out / f"{name}.csv", text))
            elif fmt == "json":
                payload = {
                    "name": table.name,
                    "columns": [{"name": c.name, "kind": c.kind} for c in table.columns],
                    "rows": [
                        {c.name: v for c, v in zip(table.columns, row)}
                        for row in table.rows
                    ],
                }
                written.append(_write(out / f"{name}.json",
                                      json.dumps(payload, indent=2) + "\n"))
            else:
                lines = [
                    "| " + " | ".join(c.name for c in table.columns) + " |",
                    "| " + " | ".join("---" for _ in table.columns) + " |",
                ]
                for row in table.rows:
                    cells = [_format_markdown(v, c.kind) for c, v in zip(table.columns, row)]
                    lines.append("| " + " | ".join(cells) + " |")
                written.append(_write(out / f"{name}.md", "\n".join(lines) + "\n"))

    for episode_id in sorted(bundle.series):
        payload = {
            "episode_id": episode_id,
            "series": [[t, h] for t, h in bundle.series[episode_id]],
        }
        written.append(_write(out / "series" / f"{_safe_filename(episode_id)}.json",
                              json.dumps(payload, indent=2) + "\n"))
    return written
