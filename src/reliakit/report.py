"""Full analysis pipeline and file emission.

run_pipeline ingests episode logs, the task registry, and optionally a
pricing stream, and produces a ReportBundle: run metadata plus the named
tables (rdc, gds_pass, vaf, domain, scaffold_delta, meltdown, cost,
decomposition). emit_report renders a bundle to files in one format.

Determinism contract: the bundle and every emitted byte are a pure
function of (input file contents, options). Nothing here reads clocks,
hostnames, or environment variables. The log loader reads the CPU affinity
and the count of live Python threads, but only to choose how many byte
ranges, each in its own process, to read a log in; the ranges are folded
in line order, so no byte depends on that choice.

Error taxonomy: InputError marks problems with what the user supplied
(unreadable paths, malformed registry, no valid episodes, missing pricing)
and maps to exit code 2 in the CLI; PipelineError marks internal failures
(exit code 3). Both carry the owning stage name in their message. A bundle
is only returned, and files only written, after every stage has finished,
so partial table sets are never written on stage failure.

Stages fail in this order: the registry, the pricing file, the logs, the
registry join, then the tables, where a model without a price is reported.
The logs are read one episode at a time, and each episode is joined, scanned
for MOP and priced as it is read, in whichever process reads its range; a
join with nothing left is still reported only after every log is read.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import pickle
import re
import sys
import tempfile
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, BinaryIO, Callable, Generator, Generic, Iterable, Iterator, Mapping,
                    Sequence, TypeVar)

from .meltdown import MeltdownCell, MopConfig, _meltdown_cells, _mop_outcome
from .metrics import (
    DEFAULT_VAF_DENOMINATOR,
    DEFAULT_VAF_NUMERATOR,
    DegenerateStatisticError,
    MetricError,
    REGRESSORS,
    TaskOutcomeGroup,
    _CI_METHODS,
    _MAX_BOOTSTRAP_B,
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
    _dedup,
    _iter_lines,
    _parse_lines,
    _read_records,
    cross_validate,
    load_task_registry,
)

__all__ = [
    "CostReport",
    "InputError",
    "PipelineError",
    "PipelineOptions",
    "PricingEntry",
    "ReportBundle",
    "compute_cost",
    "emit_report",
    "load_pricing",
    "run_pipeline",
]


_S = TypeVar("_S")


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
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite as a float")
        prices[key] = value
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
    the grand total equals the sum of per-episode costs; a total too large
    for a float is an InputError. Defined over ``_episode_cost`` per episode
    and ``_cost_report`` over them, which the pipeline and ``cost`` call as
    they read each episode.
    """
    prices = {p.model_id: p for p in pricing}
    return _cost_report(_episode_cost(ep, prices) for ep in episodes)


def _episode_cost(episode: Episode, prices: Mapping[str, PricingEntry]) -> EpisodeCost:
    """One episode's token sums and the exact sum of its per-step costs.
    Its cost is None when its model has no price, and inf when it is too
    large for a float; _cost_report refuses both."""
    steps = episode.steps
    entry = prices.get(episode.model_id)
    cost = None if entry is None else _exact_sum(
        (s.tokens_in * entry.input_per_million + s.tokens_out * entry.output_per_million) / 1e6
        for s in steps)
    return EpisodeCost(episode.episode_id, episode.model_id, sum(s.tokens_in for s in steps),
                       sum(s.tokens_out for s in steps), cost)


def _exact_sum(values: Iterable[float]) -> float:
    """math.fsum, with inf in place of an OverflowError (a count too large
    for a float, or an intermediate sum beyond the float range)."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _finite(total: float, what: str) -> float:
    """``total``, refused with InputError unless finite."""
    if not math.isfinite(total):
        raise InputError(f"cost: {what} is not finite as a float")
    return total


def _cost_report(costs: Iterable[EpisodeCost]) -> CostReport:
    """compute_cost's report over _episode_cost's per-episode costs, in
    episode order."""
    per_episode = tuple(costs)
    missing = sorted({c.model_id for c in per_episode if c.cost is None})
    if missing:
        raise InputError(f"cost: no pricing entry for models: {', '.join(missing)}")
    by_model: dict[str, list[EpisodeCost]] = {}
    for row in per_episode:
        by_model.setdefault(row.model_id, []).append(row)
    per_model = {
        model_id: ModelCost(
            n_episodes=len(rows),
            tokens_in=sum(c.tokens_in for c in rows),
            tokens_out=sum(c.tokens_out for c in rows),
            total_cost=_finite(_exact_sum(c.cost for c in rows),
                               f"the total cost of model {model_id!r}"),
        )
        for model_id, rows in sorted(by_model.items())
    }
    return CostReport(
        per_episode=per_episode,
        per_model=per_model,
        total_cost=_finite(_exact_sum(c.cost for c in per_episode), "the total cost"),
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
        if self.bootstrap_b != 0 and not 1000 <= self.bootstrap_b <= _MAX_BOOTSTRAP_B:
            raise InputError("options: bootstrap_b must be 0 (off) or in"
                             f" 1000..{_MAX_BOOTSTRAP_B}, got {self.bootstrap_b}")
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

def _read_lines(path: str | Path, stage: str, meta: dict[str, Any], start: int = 0,
                stop: int | None = None, lineno: int = 1) -> Iterator[str]:
    """Stream one input file's lines, each stripped ("" when blank), or the
    lines of its bytes [start, stop), which begin line ``lineno``. Lines end
    only at line feeds and each is decoded on its own, so the file is never
    held whole. At the end ``meta`` holds the count of non-blank lines read
    and, for a whole file, its path and the sha256 of its bytes."""
    whole = start == 0 and stop is None
    sha, lines, left = hashlib.sha256(), 0, math.inf if stop is None else stop - start
    with _open(path, stage) as fh:
        fh.seek(start)
        for lineno, raw in enumerate(fh, start=lineno):
            if left <= 0:
                break
            left -= len(raw)
            if whole:
                sha.update(raw)
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise InputError(f"{stage}: {path} is not UTF-8: line {lineno}: {exc}") from exc
            lines += bool(line)
            yield line
    if whole:
        meta.update(path=str(path), sha256=sha.hexdigest())
    meta["lines"] = lines


def _open(path: str | Path, stage: str) -> BinaryIO:
    try:
        return open(path, "rb")
    except OSError as exc:
        raise InputError(f"{stage}: cannot read {path}: {exc}") from exc


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
class _Logs(Generic[_S]):
    summaries: list[_S]
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
            "parsed": len(self.summaries),
        }


def _load_logs(paths: Sequence[str | Path], summarize: Callable[[Episode], Any],
               keep: Callable[[Any], _S] | None = None, *,
               _ranges: int | None = None) -> _Logs[_S]:
    """Parse every log, keeping the first record of an episode_id across
    files as within one, and keep only ``summarize(episode)`` of each kept
    episode, in order, or what ``keep`` returns of it. Each episode, steps
    and all, can be freed as soon as it is summarized, so memory grows with
    the summaries, not with the steps. ``summarize`` must be pure: it may
    run in a worker process, and on episodes that are then dropped as
    duplicates. ``keep`` runs here, on each kept episode's summary in line
    order.

    Each log is read in byte ranges (see ``_read_log``; ``_ranges`` forces
    their number, for tests), and the ranges' results are folded here in
    line order, so nothing returned depends on how many there were.
    Reports come in parse_episode_log's order per file, each file's
    cross-file duplicate warnings after its parse reports."""
    summaries: list[_S] = []
    reports: list[ValidationReport] = []
    inputs = []
    seen_ids: set[str] = set()
    for path in paths:
        meta: dict[str, Any] = {}
        duplicates: list[ValidationReport] = []
        items = _read_log(path, summarize, meta, _ranges)
        try:
            for item in _dedup(items):
                if isinstance(item, ValidationReport):
                    reports.append(item)
                    continue
                _, episode_id, _, summary = item
                if episode_id in seen_ids:
                    duplicates.append(ValidationReport(
                        episode_id=episode_id,
                        warnings=(ValidationIssue(
                            "duplicate_episode_id",
                            f"{path}: duplicate of {episode_id!r} from an earlier log;"
                            " keeping the first"),),
                    ))
                    continue
                seen_ids.add(episode_id)
                if type(summary) is _Raised:
                    raise summary.exc
                summaries.append(summary if keep is None else keep(summary))
        finally:
            items.close()
        reports.extend(duplicates)
        inputs.append(meta)
    return _Logs(summaries, reports, inputs)


# The smallest byte range worth a worker process. On a 1.3 MB log of
# episodes without steps, two ranges saved no wall time and raised peak RSS.
_MIN_RANGE_BYTES = 1 << 20
# The hash pass reads at most this much at a time; 1 MiB blocks raised the
# traced peak of reading a 3 MB log past a quarter of the file's size.
_HASH_BLOCK = 1 << 16


class _Raised:
    """An exception caught where a log range is read, re-raised by the fold
    in the parent when it reaches that point in line order."""
    __slots__ = ("exc",)

    def __init__(self, exc: Exception) -> None:
        self.exc = exc


def _range_items(path: str | Path, summarize: Callable[[Episode], _S], meta: dict[str, Any],
                 start: int = 0, stop: int | None = None,
                 lineno: int = 1) -> Iterator[ValidationReport | tuple[int, str, bool, Any]]:
    """``_parse_lines`` over one byte range of a log, each episode's payload
    its summary, or the ``_Raised`` exception that ``summarize`` raised: it
    is raised only if the episode is kept."""
    def payload(episode: Episode) -> Any:
        try:
            return summarize(episode)
        except Exception as exc:
            return _Raised(exc)

    return _parse_lines(_iter_lines(_read_lines(path, "parse", meta, start, stop, lineno),
                                    lineno), payload)


def _range_count(path: str | Path, forced: int | None) -> int:
    """How many byte ranges to read a log in: one per usable CPU, each at
    least _MIN_RANGE_BYTES, or ``forced``. One wherever a worker cannot be
    forked safely: without os.fork, or while another Python thread runs."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if forced is not None:
        return forced
    try:
        size = os.path.getsize(path)
    except OSError:
        return 1  # _read_lines reports it
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, size // _MIN_RANGE_BYTES))


def _plan_ranges(path: str | Path, n: int, meta: dict[str, Any]) -> list[tuple[int, int, int]]:
    """(start, stop, first line number) of up to ``n`` byte ranges that
    split the file at line starts near even offsets. Reads the file once,
    in blocks of _HASH_BLOCK, and puts its path and sha256 in ``meta``."""
    sha = hashlib.sha256()
    starts = [(0, 1)]
    with _open(path, "parse") as fh:
        size = os.fstat(fh.fileno()).st_size
        targets = [size * i // n for i in range(n - 1, 0, -1)]  # popped in ascending order
        pos = newlines = 0
        while block := fh.read(_HASH_BLOCK):
            sha.update(block)
            while targets:
                # The first line start at or after the target: just past the
                # first line feed at or after the byte before it.
                if targets[-1] <= starts[-1][0]:
                    targets.pop()
                    continue
                feed = block.find(b"\n", max(targets[-1] - 1 - pos, 0))
                if feed < 0:
                    break
                starts.append((pos + feed + 1, newlines + block.count(b"\n", 0, feed + 1) + 1))
                targets.pop()
            newlines += block.count(b"\n")
            pos += len(block)
    meta.update(path=str(path), sha256=sha.hexdigest())
    if len(starts) > 1 and starts[-1][0] >= pos:  # a range would start at the end
        starts.pop()
    stops = [start for start, _ in starts[1:]] + [pos]
    return [(start, stop, lineno) for (start, lineno), stop in zip(starts, stops)]


def _read_log(path: str | Path, summarize: Callable[[Episode], _S], meta: dict[str, Any],
              forced: int | None) -> Iterator[ValidationReport | tuple[int, str, bool, Any]]:
    """``_range_items`` over each byte range of one log, in line order; at
    the end ``meta`` holds the file's path, sha256 and non-blank lines.

    The parent reads the first range itself while a forked worker reads
    each other one, summarizing as it goes and pickling its items to an
    anonymous temporary file (a pipe would fill and stall the worker until
    the parent got to it). The parent then reads each worker's file back,
    one item at a time. A worker is forked, not spawned, so that it shares
    the caller's ``summarize`` closure without pickling it. Closing this
    generator early kills and reaps every worker it started; none outlives
    it. A one-range read forks nothing."""
    n = _range_count(path, forced)
    if n == 1:
        yield from _range_items(path, summarize, meta)
        return
    ranges = _plan_ranges(path, n, meta)
    workers: list[_Worker | None] = []
    try:
        for start, stop, lineno in ranges[1:]:
            workers.append(_fork_range(path, summarize, start, stop, lineno))
        lines = 0
        for (start, stop, lineno), worker in zip(ranges, [None, *workers]):
            part: dict[str, Any] = {}
            if worker is None:  # the first range, or one whose fork failed
                yield from _range_items(path, summarize, part, start, stop, lineno)
                lines += part["lines"]
            else:
                lines += yield from _worker_items(path, worker)
    finally:
        _reap(workers)
    meta["lines"] = lines


class _Worker:
    """A forked worker process and the temporary file it writes; ``pid`` is
    None once the worker is reaped."""
    __slots__ = ("pid", "out")

    def __init__(self, pid: int, out: BinaryIO) -> None:
        self.pid: int | None = pid
        self.out = out


def _fork_range(path: str | Path, summarize: Callable[[Episode], Any], start: int, stop: int,
                lineno: int) -> _Worker | None:
    """A forked worker reading one byte range into a temporary file; None
    when the file or the fork fails, so that the parent reads the range."""
    out = None
    try:
        out = tempfile.TemporaryFile()
        with warnings.catch_warnings():
            # Python 3.12 and later warn on a fork while another OS thread
            # runs, which numpy's BLAS threads do. The worker touches no BLAS.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        if out is not None:
            out.close()
        return None
    if pid == 0:
        # The worker writes one pickle per item, then the count of non-blank
        # lines read, or the _Raised exception that stopped the read. Each
        # item is pickled whole before it is written, so a failure leaves no
        # partial item in the file.
        status = 1
        try:
            meta: dict[str, Any] = {}
            try:
                for item in _range_items(path, summarize, meta, start, stop, lineno):
                    out.write(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
                end: Any = meta["lines"]
            except Exception as exc:
                end = _Raised(exc)
            out.write(pickle.dumps(end, pickle.HIGHEST_PROTOCOL))
            out.flush()
            status = 0
        finally:
            os._exit(status)
    return _Worker(pid, out)


def _worker_items(path: str | Path, worker: _Worker) -> Generator[Any, None, int]:
    """A worker's items, read back once it has exited; returns its count of
    non-blank lines, or raises the exception that stopped it."""
    _, status = os.waitpid(worker.pid, 0)
    worker.pid = None
    worker.out.seek(0)
    while True:
        try:
            item = pickle.load(worker.out)
        except (EOFError, pickle.UnpicklingError) as exc:
            raise PipelineError(f"parse: the worker reading {path} exited with status"
                                f" {os.waitstatus_to_exitcode(status)} ({exc!r})") from exc
        if type(item) is int:
            return item
        if type(item) is _Raised:
            raise item.exc
        yield item


def _reap(workers: Sequence[_Worker | None]) -> None:
    """Kill and reap every worker not yet reaped, and close every file."""
    for worker in workers:
        if worker is None:
            continue
        worker.out.close()
        if worker.pid is not None:
            import signal
            os.kill(worker.pid, signal.SIGKILL)
            os.waitpid(worker.pid, 0)
            worker.pid = None


def _without_steps(episode: Episode) -> Episode:
    """The episode with its steps dropped; a stepless one is returned as is."""
    return dataclasses.replace(episode, steps=()) if episode.steps else episode


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
    # Pricing is read before the logs, because each episode is priced as it
    # is read; a missing price is still reported after the parse and join.
    prices = pricing_meta = None
    if pricing_path is not None:
        pricing, pricing_meta = _load_reference(load_pricing, pricing_path, "cost")
        prices = {p.model_id: p for p in pricing}

    # Each episode is joined, scanned and priced as it is read, in whichever
    # process reads it: summarize returns (join reports, is a joined infra
    # failure, the episode without its steps, its (model_id, bucket, onset,
    # too short) meltdown row, its entropy series, its cost). The episode and
    # its row are None unless it joined and is not an infra failure; the
    # series is None without emit_series, and the cost without pricing.
    # keep then folds each kept episode's tuple here, in line order, and
    # _load_logs keeps its cost.
    analysis: list[Episode] = []
    outcomes: list[tuple[str, str, int | None, bool]] = []
    series: dict[str, tuple[tuple[int, float], ...]] = {}
    join_reports: list[ValidationReport] = []
    infra_excluded = 0

    def summarize(episode: Episode) -> tuple:
        joined, reports = cross_validate((episode,), registry)
        cost = None if prices is None else _episode_cost(episode, prices)
        if not joined or episode.is_infra_failure:
            return reports, bool(joined), None, None, None, cost
        onset, too_short, entropy = _mop_outcome(episode, opts.mop, opts.emit_series)
        return ((), False, _without_steps(episode),
                (episode.model_id, registry[episode.task_id].bucket, onset, too_short),
                entropy, cost)

    def keep(read: tuple) -> EpisodeCost | None:
        nonlocal infra_excluded
        reports, infra, episode, outcome, entropy, cost = read
        join_reports.extend(reports)
        infra_excluded += infra
        if episode is not None:
            analysis.append(episode)
            outcomes.append(outcome)
            if opts.emit_series:
                series[episode.episode_id] = entropy
        return cost

    logs = _load_logs(log_paths, summarize, keep)
    if not logs.summaries:
        raise InputError("parse: no valid episodes")
    if not analysis:
        raise InputError("join: no valid episodes remain after registry join"
                         " and infra exclusion")

    counts = logs.counts()
    counts.update(join_excluded=len(join_reports), infra_excluded=infra_excluded,
                  analyzed=len(analysis))
    try:
        melt = _meltdown_cells(outcomes)
        cost_rows = None if prices is None else _cost_rows(_cost_report(logs.summaries))
        # Every MOP outcome and cost is now in its cell or row: drop them
        # before the bootstrap, so the tables hold no more per episode than
        # the episode without its steps.
        outcomes.clear()
        logs.summaries.clear()
        tables = _build_tables(analysis, melt, cost_rows, registry, opts)
    except (InputError, PipelineError):
        raise
    except Exception as exc:  # pragma: no cover - defensive stage wrapper
        raise PipelineError(f"metrics: {exc!r}") from exc
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
    melt: Mapping[tuple[str, str], MeltdownCell],
    cost_rows: Sequence[tuple] | None,
    registry: Mapping[str, TaskSpec],
    opts: PipelineOptions,
) -> dict[str, Table]:
    """Every table over the analyzed episodes, with the meltdown cells
    and, when priced, the cost rows."""
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
    if cost_rows is not None:
        tables["cost"] = Table("cost", (
            Column("model_id", "str"), Column("n_episodes", "int"),
            Column("tokens_in", "int"), Column("tokens_out", "int"),
            Column("total_cost", "currency"), Column("mean_cost_per_episode", "currency"),
        ), tuple((*row, row[4] / row[1]) for row in cost_rows))
    tables["decomposition"] = Table("decomposition", (
        Column("model_id", "str"), Column("scaffold", "str"),
        Column("pass1_short", "fraction"), Column("pass1_very_long", "fraction"),
        Column("gain", "fraction"), Column("rds_slope", "number"),
        Column("regressor", "str"),
    ), tuple(decomp_rows))

    return tables


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
