"""Episode trajectory data model: task registry, tool steps, episodes.

Both input formats are newline-delimited JSON (one record per line,
snake_case field names). Records may carry a top-level ``schema_version``
field; absence implies version "1". Unknown fields are preserved through
parse/serialize round-trips and ignored by all analysis code.

Validation philosophy: the task registry is reference data, so any defect
there raises immediately. Episode logs are bulk telemetry, so parsing never
raises per-line; every problem is collected into a ValidationReport, errors
exclude the episode from the returned list, warnings do not.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from datetime import date
from decimal import Decimal, InvalidOperation
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, TypeVar
import warnings

__all__ = [
    "BUCKETS",
    "DOMAINS",
    "SCAFFOLDS",
    "Episode",
    "RegistryError",
    "RegistryWarning",
    "Subtask",
    "TaskSpec",
    "ToolStep",
    "ValidationIssue",
    "ValidationReport",
    "bucket_for_minutes",
    "canonical_args",
    "cross_validate",
    "episode_gds",
    "load_task_registry",
    "parse_episode_log",
    "serialize_episode",
    "serialize_task",
    "write_episode_log",
    "write_task_registry",
]

SCHEMA_VERSION = "1"

_T = TypeVar("_T")

DOMAINS = ("SE", "WR", "DP")
BUCKETS = ("short", "medium", "long", "very_long")
SCAFFOLDS = ("react", "memory")
TERMINATIONS = ("finished", "step_limit", "budget_exceeded", "loop_detected", "infra_error")

# Upper bound of each bucket's human-minutes band; lower bound is the
# previous bucket's upper bound (exclusive). very_long is open-ended.
BUCKET_MINUTES_UPPER = {"short": 5.0, "medium": 30.0, "long": 120.0, "very_long": math.inf}

MAX_STEPS = 70
NUDGE_LIMIT = 3

_WEIGHT_TOLERANCE = Decimal("1e-9")
_SCORE_TOLERANCE = 1e-9


class RegistryError(ValueError):
    """Raised for any defect in a task registry or pricing stream."""


class RegistryWarning(UserWarning):
    """Soft registry issues: odd subtask counts, bucket/minutes mismatch."""


def bucket_for_minutes(minutes: float) -> str:
    """Duration bucket for a human-minutes estimate (short <= 5 < medium <= 30 ...)."""
    for bucket in BUCKETS:
        if minutes <= BUCKET_MINUTES_UPPER[bucket]:
            return bucket
    raise ValueError(f"no bucket for {minutes} minutes")


_decode_json = json.JSONDecoder().decode
_encode_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# The C encoder behind _encode_canonical, built once instead of per call.
# Without cycle markers: freshly decoded JSON cannot be cyclic.
_encode_decoded = None if c_make_encoder is None else c_make_encoder(
    None, None, encode_basestring_ascii, None, ":", ",", True, False, True)


def canonical_args(args: Any) -> str:
    """Canonical string rendering of tool-call arguments.

    Mappings are rendered as JSON with lexicographically sorted keys and no
    insignificant whitespace, so two argument sets that differ only in key
    order compare equal. Strings that parse as JSON containers are
    re-rendered the same way; any other string is already opaque and is
    returned unchanged.
    """
    if isinstance(args, str):
        try:
            parsed = _decode_json(args)
        except json.JSONDecodeError:
            return args
        if isinstance(parsed, (dict, list)):
            if _encode_decoded is None:
                return _encode_canonical(parsed)
            return "".join(_encode_decoded(parsed, 0))
        return args
    return _encode_canonical(args)


@dataclass(frozen=True)
class Subtask:
    subtask_id: str
    weight: float
    description: str = ""


@dataclass(frozen=True)
class TaskSpec:
    """One task in the registry. Subtask weights sum to 1 within 1e-9."""

    task_id: str
    domain: str
    bucket: str
    human_minutes_estimate: float
    agent_steps_estimate: int
    subtasks: tuple[Subtask, ...]
    extras: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ToolStep:
    """A single tool invocation. Step indices are 1-based and contiguous.
    Within one parse, equal tool names are one shared string, and steps
    without unknown fields share one read-only empty ``extras``."""

    index: int
    tool: str
    args_canonical: str
    result_chars: int
    tokens_in: int
    tokens_out: int
    timestamp: str
    extras: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Episode:
    """One complete agent run on a task.

    ``passed`` holds if and only if ``evaluator_score`` equals 1.0 within
    1e-9; the parser rejects records violating that. ``subtask_outcomes``
    is positional against the task's subtasks and is validated against the
    registry at join time, not at parse time.

    Within one parse, equal ``task_id``, ``model_id``, ``scaffold``,
    ``termination`` and ``subtask_outcomes`` values are one shared object,
    and episodes without unknown fields share one read-only empty ``extras``.
    """

    episode_id: str
    task_id: str
    model_id: str
    scaffold: str
    repeat_index: int
    steps: tuple[ToolStep, ...]
    nudges_used: int
    termination: str
    subtask_outcomes: tuple[bool, ...]
    evaluator_score: float
    passed: bool
    extras: Mapping[str, Any] = field(default_factory=dict)

    @property
    def is_infra_failure(self) -> bool:
        return self.termination == "infra_error"


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Problems found for one episode (or one unparseable line)."""

    episode_id: str
    errors: tuple[ValidationIssue, ...] = ()
    warnings: tuple[ValidationIssue, ...] = ()

    @property
    def fatal(self) -> bool:
        return bool(self.errors)


def _iter_lines(
    source: str | Path | IO[str] | Iterable[str], first: int = 1,
) -> Iterator[tuple[int, str | UnicodeDecodeError]]:
    """Yield (line number, stripped line), skipping blank lines; the first
    line is number ``first``. A path is read with lines ending only at line
    feeds, each decoded on its own; a line that is not UTF-8 is yielded as
    its UnicodeDecodeError."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _iter_lines(fh, first)
        return
    for lineno, raw in enumerate(source, start=first):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                yield lineno, exc
                continue
        line = raw.strip()
        if line:
            yield lineno, line


def _check_schema_version(record: Mapping[str, Any]) -> str | None:
    version = record.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        return f"unsupported schema_version {version!r} (supported: {SCHEMA_VERSION!r})"
    return None


def _read_records(source: str | Path | IO[str] | Iterable[str], kind: str, key: str,
                  build: Callable[[dict[str, Any]], _T],
                  parse_float: Callable[[str], Any] = float) -> list[_T]:
    """``build`` applied to each JSON object line of a reference stream
    (task registry, pricing, labels). Any defect raises RegistryError naming
    the line: malformed JSON, a non-object, a ValueError/KeyError/TypeError
    from ``build``, or a ``key`` value already seen (naming both lines)."""
    values: list[_T] = []
    seen: dict[Any, int] = {}
    for lineno, line in _iter_lines(source):
        if isinstance(line, UnicodeDecodeError):
            raise RegistryError(f"{kind} line {lineno}: not UTF-8: {line}") from line
        try:
            record = json.loads(line, parse_float=parse_float)
        except json.JSONDecodeError as exc:
            raise RegistryError(f"{kind} line {lineno}: malformed JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise RegistryError(f"{kind} line {lineno}: record is not an object")
        try:
            value = build(record)
        except (KeyError, TypeError, ValueError, InvalidOperation) as exc:
            raise RegistryError(f"{kind} line {lineno}: {exc}") from exc
        if record[key] in seen:
            raise RegistryError(
                f"{kind} line {lineno}: duplicate {key} {record[key]!r}"
                f" (first seen on line {seen[record[key]]})")
        seen[record[key]] = lineno
        values.append(value)
    return values


def load_task_registry(source: str | Path | IO[str] | Iterable[str]) -> list[TaskSpec]:
    """Load a task registry stream, raising RegistryError on any defect.

    Weights are read as decimal strings and summed exactly before the one
    conversion to float, so the sum-to-1 check is immune to accumulation
    drift. Subtask counts outside 3..6 and bucket/minutes band mismatches
    are warnings (RegistryWarning), not errors.
    """
    return _read_records(source, "registry", "task_id", _task_from_record, Decimal)


_TASK_FIELDS = {
    "schema_version", "task_id", "domain", "bucket", "human_minutes_estimate",
    "agent_steps_estimate", "subtasks",
}


def _task_from_record(record: Mapping[str, Any]) -> TaskSpec:
    problem = _check_schema_version(record)
    if problem:
        raise ValueError(problem)
    task_id = record["task_id"]
    if not isinstance(task_id, str) or not task_id:
        raise ValueError("task_id must be a non-empty string")
    domain = record["domain"]
    if domain not in DOMAINS:
        raise ValueError(f"domain {domain!r} not one of {DOMAINS}")
    bucket = record["bucket"]
    if bucket not in BUCKETS:
        raise ValueError(f"bucket {bucket!r} not one of {BUCKETS}")
    minutes = record["human_minutes_estimate"]
    if isinstance(minutes, bool) or not isinstance(minutes, (int, Decimal)):
        raise ValueError("human_minutes_estimate must be numeric")
    try:
        minutes = float(minutes)
    except OverflowError:
        minutes = math.inf
    if not math.isfinite(minutes):
        raise ValueError("human_minutes_estimate must be finite as a float")
    if minutes <= 0:
        raise ValueError("human_minutes_estimate must be positive")
    steps_estimate = record["agent_steps_estimate"]
    if isinstance(steps_estimate, bool) or not isinstance(steps_estimate, int) or steps_estimate <= 0:
        raise ValueError("agent_steps_estimate must be a positive integer")

    raw_subtasks = record["subtasks"]
    if not isinstance(raw_subtasks, list) or not raw_subtasks:
        raise ValueError("subtasks must be a non-empty array")
    subtasks = []
    weight_sum = Decimal(0)
    for i, sub in enumerate(raw_subtasks):
        if not isinstance(sub, dict):
            raise ValueError(f"subtask {i} is not an object")
        sid = sub.get("subtask_id")
        if not isinstance(sid, str) or not sid:
            raise ValueError(f"subtask {i}: subtask_id must be a non-empty string")
        weight = sub.get("weight")
        if isinstance(weight, bool) or not isinstance(weight, (int, Decimal)):
            raise ValueError(f"subtask {sid!r}: weight must be numeric")
        weight = Decimal(weight)
        if weight < 0:
            raise ValueError(f"subtask {sid!r}: weight must be non-negative")
        weight_sum += weight
        subtasks.append(Subtask(sid, float(weight), str(sub.get("description", ""))))
    if abs(weight_sum - 1) > _WEIGHT_TOLERANCE:
        raise ValueError(f"subtask weights sum to {weight_sum}, expected 1 within {_WEIGHT_TOLERANCE}")

    if not 3 <= len(subtasks) <= 6:
        warnings.warn(
            f"task {task_id!r}: {len(subtasks)} subtasks (expected 3..6)",
            RegistryWarning, stacklevel=4,
        )
    if bucket_for_minutes(minutes) != bucket:
        warnings.warn(
            f"task {task_id!r}: bucket {bucket!r} inconsistent with"
            f" human_minutes_estimate {minutes} ({bucket_for_minutes(minutes)!r} band)",
            RegistryWarning, stacklevel=4,
        )

    extras = {k: _plain(v) for k, v in record.items() if k not in _TASK_FIELDS}
    return TaskSpec(
        task_id=task_id,
        domain=domain,
        bucket=bucket,
        human_minutes_estimate=minutes,
        agent_steps_estimate=steps_estimate,
        subtasks=tuple(subtasks),
        extras=extras,
    )


def _plain(value: Any) -> Any:
    """Convert Decimal leftovers from parse_float back to plain floats."""
    if isinstance(value, Decimal):
        return float(value)
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


# --- episode log parsing -------------------------------------------------

_EPISODE_FIELDS = {
    "schema_version", "episode_id", "task_id", "model_id", "scaffold",
    "repeat_index", "steps", "nudges_used", "termination",
    "subtask_outcomes", "evaluator_score", "passed",
}

_STEP_FIELDS = {
    "index", "tool", "args", "args_canonical", "result_chars",
    "tokens_in", "tokens_out", "timestamp",
}


class _NoExtras(Mapping[str, Any]):
    """The read-only empty ``extras`` shared by parsed steps and episodes
    without unknown fields. Unlike ``types.MappingProxyType({})`` it can be
    pickled and deep-copied, as the one shared instance, so parsed episodes
    still can."""

    __slots__ = ()

    def __getitem__(self, key: str) -> Any:
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"

    def __reduce__(self) -> str:
        return "_NO_EXTRAS"


_NO_EXTRAS = _NoExtras()


# Exactly what datetime.fromisoformat accepts on Python 3.10 once "Z" reads
# as "+00:00", so one log parses alike on every version (3.11 and later also
# accept basic and week dates, fractions of any length and offsets without a
# colon). That is YYYY-MM-DD, optionally followed by any one separator
# character and a time:
#   HH[:MM[:SS[(.|:)fff[fff]]]] or HH[:MM].fff[fff], then an optional offset;
#   or HH[:MM[:SS]] plus one trailing character, which is NUL, or any other
#   ASCII character but "+" and "-" when an offset follows.
# An offset is (+|-)HH:MM[:SS[(.|:)ffffff]] strictly inside +-24 h; its
# minutes and seconds may each run to 99. The day of the month is left to
# date.fromisoformat; every other field is checked here.
_FRACTION = r"(?:[0-9]{3}|[0-9]{6})"
_OFFSET = (r"[+-](?:(?:[01][0-9]|2[0-2]):[0-9]{2}|23:(?:[0-4][0-9]|5[0-8]))"
           r"(?::[0-9]{2}(?:[.:][0-9]{6})?)?"
           r"|[+-]23:59(?::[0-5][0-9](?:[.:][0-9]{6})?)?")
_TIMESTAMP = re.compile(
    rf"[0-9]{{4}}-[0-9]{{2}}-[0-9]{{2}}(?:."
    rf"(?:(?:[01][0-9]|2[0-3])"
    rf"(?:\.{_FRACTION}|:[0-5][0-9](?:\.{_FRACTION}|:[0-5][0-9][.:]{_FRACTION}))"
    rf"(?:{_OFFSET})?"
    rf"|(?:[01][0-9]|2[0-3])(?::[0-5][0-9](?::[0-5][0-9])?)?"
    rf"(?:\x00?|[\x00-\x2a\x2c\x2e-\x7f]?(?:{_OFFSET}))))?",
    re.DOTALL)


def _valid_timestamp(value: Any) -> bool:
    if not isinstance(value, str):
        return False
    value = value.replace("Z", "+00:00")
    if _TIMESTAMP.fullmatch(value) is None:
        return False
    try:
        date.fromisoformat(value[:10])
    except ValueError:
        return False
    return True


def _parse_steps(raw: Any, errors: list[ValidationIssue], args_seen: dict[str, str],
                 shared: dict[Any, Any]) -> tuple[ToolStep, ...]:
    """The steps of one record, or () after appending its first error.

    ``args_seen`` maps each raw argument string to its canonical_args result
    (the raw string itself when already canonical), so a parse does the JSON
    work once per distinct argument string. ``shared`` maps each value to
    the first equal object the parse kept, so equal tool names are one
    string. The two stay apart: a tool name equal to a non-canonical raw
    argument string must not become that string's canonical form.
    Timestamps and counts are not shared, since real logs rarely repeat them."""
    if not isinstance(raw, list):
        errors.append(ValidationIssue("bad_steps", "steps must be an array"))
        return ()
    if len(raw) > MAX_STEPS:
        errors.append(ValidationIssue(
            "step_limit", f"{len(raw)} steps exceeds the {MAX_STEPS}-step harness limit"))
        return ()
    steps = []
    for pos, rec in enumerate(raw, start=1):
        if not isinstance(rec, dict):
            errors.append(ValidationIssue("bad_step", f"step {pos} is not an object"))
            return ()
        index = rec.get("index")
        if type(index) is not int or index != pos:
            errors.append(ValidationIssue(
                "bad_step_index",
                f"step at position {pos} has index {index!r}; indices must be 1-based and contiguous"))
            return ()
        tool = rec.get("tool")
        if not isinstance(tool, str) or not tool:
            errors.append(ValidationIssue("bad_step", f"step {pos}: tool must be a non-empty string"))
            return ()
        counts = []
        for key in ("result_chars", "tokens_in", "tokens_out"):
            v = rec.get(key)
            # type() rather than isinstance(), so a bool is not a count.
            if type(v) is not int or v < 0:
                errors.append(ValidationIssue(
                    "bad_step", f"step {pos}: {key} must be a non-negative integer"))
                return ()
            counts.append(v)
        timestamp = rec.get("timestamp")
        if not _valid_timestamp(timestamp):
            errors.append(ValidationIssue("bad_timestamp", f"step {pos}: timestamp {timestamp!r}"))
            return ()
        if "args_canonical" in rec:
            args = rec["args_canonical"]
        elif "args" in rec:
            args = rec["args"]
        else:
            errors.append(ValidationIssue("bad_step", f"step {pos}: missing args_canonical"))
            return ()
        if isinstance(args, str):
            canonical = args_seen.get(args)
            if canonical is None:
                canonical = canonical_args(args)
                canonical = args_seen[args] = args if canonical == args else canonical
        else:
            canonical = canonical_args(args)
        extras = (_NO_EXTRAS if rec.keys() <= _STEP_FIELDS
                  else {k: v for k, v in rec.items() if k not in _STEP_FIELDS})
        steps.append(ToolStep(pos, shared.setdefault(tool, tool), canonical, *counts,
                              timestamp, extras))
    return tuple(steps)


def _episode_from_record(record: Mapping[str, Any], errors: list[ValidationIssue],
                         args_seen: dict[str, str],
                         shared: dict[Any, Any]) -> Episode | None:
    def need(key: str, kind: type, predicate=None, describe: str = "") -> Any:
        value = record.get(key)
        if isinstance(value, bool) and kind is not bool:
            errors.append(ValidationIssue(f"bad_{key}", f"{key} must be {kind.__name__}"))
            return None
        if not isinstance(value, kind) or (predicate and not predicate(value)):
            errors.append(ValidationIssue(f"bad_{key}", f"{key}={value!r} invalid{describe}"))
            return None
        return value

    episode_id = need("episode_id", str, lambda s: bool(s))
    task_id = need("task_id", str, lambda s: bool(s))
    model_id = need("model_id", str, lambda s: bool(s))
    scaffold = need("scaffold", str, lambda s: s in SCAFFOLDS, f" (expected one of {SCAFFOLDS})")
    repeat_index = need("repeat_index", int, lambda v: v >= 1, " (must be >= 1)")
    nudges = need("nudges_used", int, lambda v: 0 <= v <= NUDGE_LIMIT, f" (range 0..{NUDGE_LIMIT})")
    termination = need("termination", str, lambda s: s in TERMINATIONS, f" (expected one of {TERMINATIONS})")
    score = record.get("evaluator_score")
    if isinstance(score, bool) or not isinstance(score, (int, float)) or not 0.0 <= score <= 1.0:
        errors.append(ValidationIssue("bad_evaluator_score", f"evaluator_score={score!r} outside [0, 1]"))
        score = None
    passed = record.get("passed")
    if not isinstance(passed, bool):
        errors.append(ValidationIssue("bad_passed", f"passed={passed!r} must be boolean"))
        passed = None

    outcomes_raw = record.get("subtask_outcomes")
    if not isinstance(outcomes_raw, list) or not all(isinstance(v, bool) for v in outcomes_raw):
        errors.append(ValidationIssue("bad_subtask_outcomes", "subtask_outcomes must be an array of booleans"))
        outcomes: tuple[bool, ...] = ()
    else:
        outcomes = tuple(outcomes_raw)

    steps = _parse_steps(record.get("steps", []), errors, args_seen, shared)

    if passed is not None and score is not None:
        at_full_score = abs(score - 1.0) <= _SCORE_TOLERANCE
        if passed != at_full_score:
            errors.append(ValidationIssue(
                "pass_score_inconsistency",
                f"passed={passed} but evaluator_score={score}; passed must hold"
                f" exactly when the score is 1.0 (within {_SCORE_TOLERANCE})"))

    if errors:
        return None
    share = shared.setdefault
    extras = (_NO_EXTRAS if record.keys() <= _EPISODE_FIELDS
              else {k: v for k, v in record.items() if k not in _EPISODE_FIELDS})
    return Episode(
        episode_id=episode_id, task_id=share(task_id, task_id),
        model_id=share(model_id, model_id), scaffold=share(scaffold, scaffold),
        repeat_index=repeat_index, steps=steps, nudges_used=nudges,
        termination=share(termination, termination),
        subtask_outcomes=share(outcomes, outcomes), evaluator_score=float(score),
        passed=passed, extras=extras,
    )


def parse_episode_log(
    source: str | Path | IO[str] | Iterable[str],
) -> tuple[list[Episode], list[ValidationReport]]:
    """Parse an episode log stream. Never raises on record content.

    Returns the episodes that validated plus a ValidationReport for every
    problematic line. Exact duplicate episode_ids keep the first record and
    report a warning. Episodes with ``termination == "infra_error"`` are
    returned (they are data) but carry an advisory warning; downstream
    metric code excludes them from every denominator.

    The lists collect what ``_dedup`` passes on of ``_parse_lines``,
    which is also how the pipeline reads each byte range of a log.
    """
    episodes: list[Episode] = []
    reports: list[ValidationReport] = []
    for item in _dedup(_parse_lines(_iter_lines(source), lambda episode: episode)):
        if isinstance(item, ValidationReport):
            reports.append(item)
        else:
            episodes.append(item[3])
    return episodes, reports


def _parse_lines(
    lines: Iterable[tuple[int, str | UnicodeDecodeError]], payload: Callable[[Episode], _T],
) -> Iterator[ValidationReport | tuple[int, str, bool, _T]]:
    """Each (line number, non-blank line) parsed, in line order: the
    ValidationReport that rejects the line, or (line number, episode_id, is
    infra failure, ``payload(episode)``). One call keeps one argument memo
    and one sharing memo (see ``_parse_steps``), so the caller may drop each
    episode once ``payload`` has what it needs."""
    args_seen: dict[str, str] = {}
    shared: dict[Any, Any] = {}
    for lineno, line in lines:
        if isinstance(line, UnicodeDecodeError):
            problem = f"not UTF-8: {line}"
        else:
            try:
                record = json.loads(line)
                problem = None if isinstance(record, dict) else "record is not an object"
            except json.JSONDecodeError as exc:
                problem = str(exc)
        if problem:
            yield ValidationReport(
                episode_id=f"<line {lineno}>",
                errors=(ValidationIssue("malformed_line", f"line {lineno}: {problem}"),),
            )
            continue
        label = record.get("episode_id")
        label = label if isinstance(label, str) and label else f"<line {lineno}>"
        problem = _check_schema_version(record)
        if problem:
            yield ValidationReport(
                episode_id=label, errors=(ValidationIssue("schema_version", problem),))
            continue

        errors: list[ValidationIssue] = []
        episode = _episode_from_record(record, errors, args_seen, shared)
        if episode is None:
            yield ValidationReport(episode_id=label, errors=tuple(errors))
            continue
        yield lineno, episode.episode_id, episode.is_infra_failure, payload(episode)


def _dedup(
    items: Iterable[ValidationReport | tuple[int, str, bool, _T]],
) -> Iterator[ValidationReport | tuple[int, str, bool, _T]]:
    """The within-file dedup of one log's per-line results, in line order.

    Each episode comes as (line number, episode_id, is infra failure, any
    payload). The first of an episode_id is kept and passed on, just after
    an advisory warning when it is an infra failure; each later one becomes
    a duplicate warning. Reports pass through as they are."""
    seen: set[str] = set()
    for item in items:
        if isinstance(item, ValidationReport):
            yield item
            continue
        lineno, episode_id, infra, _ = item
        if episode_id in seen:
            yield ValidationReport(
                episode_id=episode_id,
                warnings=(ValidationIssue(
                    "duplicate_episode_id",
                    f"line {lineno}: duplicate of {episode_id!r}; keeping the first"),),
            )
            continue
        seen.add(episode_id)
        if infra:
            yield ValidationReport(episode_id=episode_id, warnings=(ValidationIssue(
                "infra_excluded",
                "infrastructure failure: retained in storage, excluded from metric denominators"),))
        yield item


def cross_validate(
    episodes: Iterable[Episode],
    registry: Mapping[str, TaskSpec],
) -> tuple[list[Episode], list[ValidationReport]]:
    """Join-time validation of episodes against the task registry.

    Episodes referencing unknown tasks, or whose subtask_outcomes length
    disagrees with the task's subtask count, are excluded with an error
    report. Everything else passes through unchanged.
    """
    kept: list[Episode] = []
    reports: list[ValidationReport] = []
    for ep in episodes:
        task = registry.get(ep.task_id)
        if task is None:
            reports.append(ValidationReport(
                episode_id=ep.episode_id,
                errors=(ValidationIssue("unknown_task", f"task_id {ep.task_id!r} not in registry"),)))
            continue
        if len(ep.subtask_outcomes) != len(task.subtasks):
            reports.append(ValidationReport(
                episode_id=ep.episode_id,
                errors=(ValidationIssue(
                    "subtask_mismatch",
                    f"{len(ep.subtask_outcomes)} outcomes vs {len(task.subtasks)} subtasks"),)))
            continue
        kept.append(ep)
    return kept, reports


def episode_gds(episode: Episode, task: TaskSpec) -> float:
    """Criticality-weighted fraction of completed subtasks, in [0, 1].

    All-true outcomes return exactly 1.0 and all-false exactly 0.0; the
    fast paths make the boundary identities hold without float residue
    (weights sum to 1 by registry contract).
    """
    if len(episode.subtask_outcomes) != len(task.subtasks):
        raise ValueError(
            f"episode {episode.episode_id!r}: {len(episode.subtask_outcomes)} outcomes"
            f" vs {len(task.subtasks)} subtasks for task {task.task_id!r}")
    if all(episode.subtask_outcomes):
        return 1.0
    if not any(episode.subtask_outcomes):
        return 0.0
    return math.fsum(
        sub.weight for sub, done in zip(task.subtasks, episode.subtask_outcomes) if done)


# --- serialization -------------------------------------------------------

def _step_record(step: ToolStep) -> dict[str, Any]:
    rec: dict[str, Any] = {
        "index": step.index,
        "tool": step.tool,
        "args_canonical": step.args_canonical,
        "result_chars": step.result_chars,
        "tokens_in": step.tokens_in,
        "tokens_out": step.tokens_out,
        "timestamp": step.timestamp,
    }
    for key in sorted(step.extras):
        rec[key] = step.extras[key]
    return rec


def serialize_episode(episode: Episode) -> str:
    """One JSONL line, stable key order, unknown fields appended sorted."""
    rec: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "episode_id": episode.episode_id,
        "task_id": episode.task_id,
        "model_id": episode.model_id,
        "scaffold": episode.scaffold,
        "repeat_index": episode.repeat_index,
        "steps": [_step_record(s) for s in episode.steps],
        "nudges_used": episode.nudges_used,
        "termination": episode.termination,
        "subtask_outcomes": list(episode.subtask_outcomes),
        "evaluator_score": episode.evaluator_score,
        "passed": episode.passed,
    }
    for key in sorted(episode.extras):
        rec[key] = episode.extras[key]
    return json.dumps(rec, separators=(",", ":"))


def serialize_task(task: TaskSpec) -> str:
    rec: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "task_id": task.task_id,
        "domain": task.domain,
        "bucket": task.bucket,
        "human_minutes_estimate": task.human_minutes_estimate,
        "agent_steps_estimate": task.agent_steps_estimate,
        "subtasks": [
            {"subtask_id": s.subtask_id, "weight": s.weight, "description": s.description}
            for s in task.subtasks
        ],
    }
    for key in sorted(task.extras):
        rec[key] = task.extras[key]
    return json.dumps(rec, separators=(",", ":"))


def write_episode_log(episodes: Iterable[Episode], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ep in episodes:
            fh.write(serialize_episode(ep))
            fh.write("\n")


def write_task_registry(tasks: Iterable[TaskSpec], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for task in tasks:
            fh.write(serialize_task(task))
            fh.write("\n")
