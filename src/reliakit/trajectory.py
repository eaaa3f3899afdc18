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
from pathlib import Path
from typing import IO, Any, Callable, Generator, Iterable, Iterator, Mapping, NamedTuple, TypeVar
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


def canonical_args(args: Any) -> str:
    """Canonical string rendering of tool-call arguments.

    Mappings are rendered as JSON with lexicographically sorted keys and no
    insignificant whitespace, so two argument sets that differ only in key
    order compare equal. Strings that parse as JSON containers are
    re-rendered the same way; any other string is already opaque and is
    returned unchanged, and so is one that the decoder refuses for nesting
    too deep or an integer too long.
    """
    if isinstance(args, str):
        try:
            parsed = _decode_json(args)
        except (ValueError, RecursionError):
            return args
        if isinstance(parsed, (dict, list)):
            return _encode_canonical(parsed)
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


class _Record(NamedTuple):
    """What the read path hands over of one parsed episode: ``Episode``'s
    fields but ``steps``, in its order, so that ``Episode(*record[:5],
    steps, *record[5:])`` is the episode with those steps."""

    episode_id: str
    task_id: str
    model_id: str
    scaffold: str
    repeat_index: int
    nudges_used: int
    termination: str
    subtask_outcomes: tuple[bool, ...]
    evaluator_score: float
    passed: bool
    extras: Mapping[str, Any]

    is_infra_failure = Episode.is_infra_failure


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
    source: str | Path | IO[str] | Iterable[str],
) -> Iterator[tuple[int, str | UnicodeDecodeError]]:
    """Yield (line number, stripped line), skipping blank lines; the first
    line is number 1. A path is read with lines ending only at line feeds,
    each decoded on its own; a line that is not UTF-8 is yielded as its
    UnicodeDecodeError."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _iter_lines(fh)
        return
    for lineno, raw in enumerate(source, start=1):
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
        except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
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
    minutes = _finite_float(minutes, "human_minutes_estimate")
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


def _finite_float(value: Any, key: str) -> float:
    """``value`` as a float, or a ValueError naming ``key`` unless finite."""
    try:
        if math.isfinite(number := float(value)):
            return number
    except OverflowError:
        pass
    raise ValueError(f"{key} must be finite as a float")


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

_EPISODE_FIELDS = {"schema_version", "steps", *_Record._fields} - {"extras"}

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
# Both time forms share their HH[:MM[:SS]] prefix, so it is matched once:
# after each of HH, :MM and :SS comes either a fraction and an optional
# offset, or the next field, or _TRAILER.
_FRACTION = r"(?:[0-9]{3}|[0-9]{6})"
_OFFSET = (r"[+-](?:(?:[01][0-9]|2[0-2]):[0-9]{2}|23:(?:[0-4][0-9]|5[0-8]))"
           r"(?::[0-9]{2}(?:[.:][0-9]{6})?)?"
           r"|[+-]23:59(?::[0-5][0-9](?:[.:][0-9]{6})?)?")
_FRACTION_TAIL = rf"{_FRACTION}(?:{_OFFSET})?"
_TRAILER = rf"(?:[\x00-\x2a\x2c\x2e-\x7f]?(?:{_OFFSET})|\x00?)"
_TIMESTAMP = re.compile(
    rf"[0-9]{{4}}-[0-9]{{2}}-[0-9]{{2}}(?:.(?:[01][0-9]|2[0-3])"
    rf"(?:\.{_FRACTION_TAIL}"
    rf"|:[0-5][0-9](?:\.{_FRACTION_TAIL}|:[0-5][0-9](?:[.:]{_FRACTION_TAIL}|{_TRAILER})|{_TRAILER})"
    rf"|{_TRAILER}))?",
    re.DOTALL)


def _valid_timestamps(values: Iterable[Any]) -> bool:
    """Whether every value is a timestamp string: "Z" read as "+00:00", it
    matches _TIMESTAMP, and each distinct day is a date."""
    try:
        stamps = [value.replace("Z", "+00:00") for value in values]
        if all(map(_TIMESTAMP.fullmatch, stamps)):
            for day in {stamp[:10] for stamp in stamps}:
                date.fromisoformat(day)
            return True
    except (AttributeError, TypeError, ValueError):  # not a string, or not a date
        pass
    return False


# Step indices are 1-based and contiguous: a record's indices must equal the
# start of this list.
_POSITIONS = list(range(1, MAX_STEPS + 1))
_INT = {int}
_STR = {str}
_BOOL = {bool}


def _checked_columns(raw: Any) -> tuple[list[str], list[int], list[int], list[int]] | None:
    """The tool, result_chars, tokens_in and tokens_out columns of a
    record's steps, which are not ``[]``, or None when ``_first_step_error``
    finds an error. Each check runs once per column rather than once per
    step, and accepts exactly the steps that the per-step loop accepts."""
    if not isinstance(raw, list) or len(raw) > MAX_STEPS:
        return None
    try:
        index = [rec["index"] for rec in raw]
        tools = [rec["tool"] for rec in raw]
        chars = [rec["result_chars"] for rec in raw]
        tokens_in = [rec["tokens_in"] for rec in raw]
        tokens_out = [rec["tokens_out"] for rec in raw]
        stamps = [rec["timestamp"] for rec in raw]
    except (KeyError, TypeError):  # a step that is not an object, or a missing key
        return None
    # type() rather than isinstance(), so a bool is not an index or a count.
    if (index != _POSITIONS[:len(raw)] or set(map(type, index)) != _INT
            or set(map(type, tools)) != _STR or not all(tools)
            or set(map(type, chars)) | set(map(type, tokens_in)) | set(map(type, tokens_out)) != _INT
            or min(chars) < 0 or min(tokens_in) < 0 or min(tokens_out) < 0
            or not all("args_canonical" in rec or "args" in rec for rec in raw)
            or not _valid_timestamps(stamps)):
        return None
    return tools, chars, tokens_in, tokens_out


def _first_step_error(raw: Any) -> ValidationIssue | None:
    """The first failed check of a record's steps, in the order below: an
    array of at most MAX_STEPS, then step by step; None when every check
    passes, which never happens where ``_checked_columns`` rejected them."""
    if not isinstance(raw, list):
        return ValidationIssue("bad_steps", "steps must be an array")
    if len(raw) > MAX_STEPS:
        return ValidationIssue(
            "step_limit", f"{len(raw)} steps exceeds the {MAX_STEPS}-step harness limit")
    for pos, rec in enumerate(raw, start=1):
        if not isinstance(rec, dict):
            return ValidationIssue("bad_step", f"step {pos} is not an object")
        index = rec.get("index")
        if type(index) is not int or index != pos:
            return ValidationIssue(
                "bad_step_index",
                f"step at position {pos} has index {index!r}; indices must be 1-based and contiguous")
        tool = rec.get("tool")
        if not isinstance(tool, str) or not tool:
            return ValidationIssue("bad_step", f"step {pos}: tool must be a non-empty string")
        for key in ("result_chars", "tokens_in", "tokens_out"):
            v = rec.get(key)
            if type(v) is not int or v < 0:
                return ValidationIssue("bad_step", f"step {pos}: {key} must be a non-negative integer")
        timestamp = rec.get("timestamp")
        if not _valid_timestamps((timestamp,)):
            return ValidationIssue("bad_timestamp", f"step {pos}: timestamp {timestamp!r}")
        if "args_canonical" not in rec and "args" not in rec:
            return ValidationIssue("bad_step", f"step {pos}: missing args_canonical")
    return None


def _tool_steps(raw: list[Any], columns: tuple[list[str], list[int], list[int], list[int]],
                tools_seen: dict[str, str], args_seen: dict[str, str]) -> tuple[ToolStep, ...]:
    """parse_episode_log's steps of one record's raw steps and their
    checked columns (see ``_checked_columns``).

    ``tools_seen`` maps each tool name to the first equal string the parse
    kept, so equal tool names are one string. ``args_seen`` maps each raw
    argument string to its canonical_args result (the raw string itself
    when already canonical), so a parse does the JSON work once per
    distinct argument string. The two stay apart: a tool name equal to a
    non-canonical raw argument string must not become that string's
    canonical form. Timestamps and counts are not shared, since real logs
    rarely repeat them."""
    steps = []
    for pos, rec, tool, chars, tokens_in, tokens_out in zip(_POSITIONS, raw, *columns):
        args = rec["args_canonical"] if "args_canonical" in rec else rec["args"]
        if isinstance(args, str):
            canonical = args_seen.get(args)
            if canonical is None:
                canonical = canonical_args(args)
                canonical = args_seen[args] = args if canonical == args else canonical
        else:
            canonical = canonical_args(args)
        extras = (_NO_EXTRAS if rec.keys() <= _STEP_FIELDS
                  else {k: v for k, v in rec.items() if k not in _STEP_FIELDS})
        steps.append(ToolStep(pos, tools_seen.setdefault(tool, tool), canonical, chars,
                              tokens_in, tokens_out, rec["timestamp"], extras))
    return tuple(steps)


def _field_issue(key: str, value: Any, kind: str, describe: str = "") -> ValidationIssue:
    """The error of a ``kind`` field whose value failed its check."""
    if isinstance(value, bool):
        return ValidationIssue(f"bad_{key}", f"{key} must be {kind}")
    return ValidationIssue(f"bad_{key}", f"{key}={value!r} invalid{describe}")


def _episode_from_record(record: Mapping[str, Any], errors: list[ValidationIssue],
                         shared: dict[Any, Any]) -> tuple[_Record, list[Any], tuple] | None:
    """The ``_Record`` of one JSON record, its raw step list and that list's
    checked columns (see ``_checked_columns``), or None after appending every
    error found.

    ``shared`` maps each bounded-vocabulary value to the first equal object
    the parse kept. A message is built only for a check that fails, and a
    record without steps skips the step checks."""
    get = record.get
    episode_id = get("episode_id")
    if not isinstance(episode_id, str) or not episode_id:
        errors.append(_field_issue("episode_id", episode_id, "str"))
    task_id = get("task_id")
    if not isinstance(task_id, str) or not task_id:
        errors.append(_field_issue("task_id", task_id, "str"))
    model_id = get("model_id")
    if not isinstance(model_id, str) or not model_id:
        errors.append(_field_issue("model_id", model_id, "str"))
    scaffold = get("scaffold")
    if not isinstance(scaffold, str) or scaffold not in SCAFFOLDS:
        errors.append(_field_issue("scaffold", scaffold, "str", f" (expected one of {SCAFFOLDS})"))
    repeat_index = get("repeat_index")
    if isinstance(repeat_index, bool) or not isinstance(repeat_index, int) or repeat_index < 1:
        errors.append(_field_issue("repeat_index", repeat_index, "int", " (must be >= 1)"))
    nudges = get("nudges_used")
    if isinstance(nudges, bool) or not isinstance(nudges, int) or not 0 <= nudges <= NUDGE_LIMIT:
        errors.append(_field_issue("nudges_used", nudges, "int", f" (range 0..{NUDGE_LIMIT})"))
    termination = get("termination")
    if not isinstance(termination, str) or termination not in TERMINATIONS:
        errors.append(_field_issue("termination", termination, "str",
                                   f" (expected one of {TERMINATIONS})"))
    score = get("evaluator_score")
    if isinstance(score, bool) or not isinstance(score, (int, float)) or not 0.0 <= score <= 1.0:
        errors.append(ValidationIssue("bad_evaluator_score", f"evaluator_score={score!r} outside [0, 1]"))
        score = None
    passed = get("passed")
    if not isinstance(passed, bool):
        errors.append(ValidationIssue("bad_passed", f"passed={passed!r} must be boolean"))
        passed = None

    outcomes_raw = get("subtask_outcomes")
    # A bool cannot be subclassed, so its type is its isinstance check.
    if not isinstance(outcomes_raw, list) or not _BOOL.issuperset(map(type, outcomes_raw)):
        errors.append(ValidationIssue("bad_subtask_outcomes", "subtask_outcomes must be an array of booleans"))
        outcomes: tuple[bool, ...] = ()
    else:
        outcomes = tuple(outcomes_raw)

    raw = get("steps", [])
    columns = ([], [], [], []) if raw == [] else _checked_columns(raw)
    if columns is None:
        errors.append(_first_step_error(raw))

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
    return _Record(
        episode_id=episode_id, task_id=share(task_id, task_id),
        model_id=share(model_id, model_id), scaffold=share(scaffold, scaffold),
        repeat_index=repeat_index, nudges_used=nudges,
        termination=share(termination, termination),
        subtask_outcomes=share(outcomes, outcomes), evaluator_score=float(score),
        passed=passed, extras=extras,
    ), raw, columns


def parse_episode_log(
    source: str | Path | IO[str] | Iterable[str],
) -> tuple[list[Episode], list[ValidationReport]]:
    """Parse an episode log stream. Never raises on record content.

    Returns the episodes that validated plus a ValidationReport for every
    problematic line. Exact duplicate episode_ids keep the first record and
    report a warning. Episodes with ``termination == "infra_error"`` are
    returned (they are data) but carry an advisory warning; downstream
    metric code excludes them from every denominator.

    It is ``_dedup`` of ``_parse_lines``, which is also how the pipeline
    reads each byte range of a log. Only here are steps built, by
    ``_tool_steps``, and an ``Episode``, once per kept record.
    """
    tools_seen: dict[str, str] = {}
    args_seen: dict[str, str] = {}
    kept, reports = _dedup(_parse_lines(_iter_lines(source), lambda record, raw, columns: (
        record, _tool_steps(raw, columns, tools_seen, args_seen))))
    return [Episode(*record[:5], steps, *record[5:]) for record, steps in kept], reports


def _parse_lines(
    lines: Iterable[tuple[int, str | UnicodeDecodeError]],
    payload: Callable[[_Record, list[Any], tuple], _T],
) -> Generator[ValidationReport | tuple, None, int]:
    """Each (line number, line) parsed, in line order, blank lines skipped:
    the ValidationReport that rejects the line, or (line number, episode_id,
    is infra failure, ``payload(record, raw steps, checked columns)``) of
    ``_episode_from_record``. A line rejected without a usable episode_id
    comes as (line number, None, its errors or its problem: the message of
    malformed JSON, or the UnicodeDecodeError of a line not UTF-8), for the
    caller to name by its number. One call keeps one sharing memo, so the
    caller may drop each record once ``payload`` has what it needs.
    Returns the last line number, 0 without lines."""
    shared: dict[Any, Any] = {}
    lineno = 0
    for lineno, line in lines:
        if not line:
            continue
        if isinstance(line, UnicodeDecodeError):
            problem: str | UnicodeDecodeError | None = line
        else:
            try:
                record = json.loads(line)
                problem = None if isinstance(record, dict) else "record is not an object"
            except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
                problem = str(exc)
        if problem:
            yield lineno, None, problem
            continue
        problem = _check_schema_version(record)
        errors = [ValidationIssue("schema_version", problem)] if problem else []
        parsed = None if problem else _episode_from_record(record, errors, shared)
        if parsed is None:
            label = record.get("episode_id")
            if isinstance(label, str) and label:
                yield ValidationReport(episode_id=label, errors=tuple(errors))
            else:
                yield lineno, None, tuple(errors)
            continue
        yield lineno, parsed[0].episode_id, parsed[0].is_infra_failure, payload(*parsed)
    return lineno


def _dedup(
    items: Iterable[ValidationReport | tuple],
    kept: set[str] | None = None,
    path: str | Path = "",
) -> tuple[list[_T], list[ValidationReport]]:
    """The dedup of one log's per-line results (see ``_parse_lines``), in
    line order, after the logs that kept the episode_ids in ``kept``: the
    payloads kept, in line order, and the reports.

    Each episode comes as (line number, episode_id, is infra failure, any
    payload). The first of an episode_id is kept and added to ``kept``,
    its payload kept, and it gets an advisory warning when it is an infra
    failure; each later one becomes a duplicate warning, and so does one an
    earlier log kept, named by ``path`` and after the log's other reports.
    Reports are kept as they are, and a line without a usable episode_id
    (or not UTF-8) gets its report here, named by its number. An exception
    of ``items`` surfaces in line order."""
    kept = set() if kept is None else kept
    seen: set[str] = set()
    payloads: list[_T] = []
    reports: list[ValidationReport] = []
    earlier: list[ValidationReport] = []
    for item in items:
        if isinstance(item, ValidationReport):
            reports.append(item)
            continue
        if item[1] is None:
            lineno, _, errors = item
            if isinstance(errors, UnicodeDecodeError):
                errors = f"not UTF-8: {errors}"
            if isinstance(errors, str):  # the problem of a malformed line
                errors = (ValidationIssue("malformed_line", f"line {lineno}: {errors}"),)
            reports.append(ValidationReport(episode_id=f"<line {lineno}>", errors=errors))
            continue
        lineno, episode_id, infra, payload = item
        if episode_id in seen:
            reports.append(ValidationReport(
                episode_id=episode_id,
                warnings=(ValidationIssue(
                    "duplicate_episode_id",
                    f"line {lineno}: duplicate of {episode_id!r}; keeping the first"),),
            ))
            continue
        seen.add(episode_id)
        if episode_id in kept:
            earlier.append(ValidationReport(episode_id=episode_id, warnings=(ValidationIssue(
                "duplicate_episode_id",
                f"{path}: duplicate of {episode_id!r} from an earlier log; keeping the first"),)))
            continue
        kept.add(episode_id)
        if infra:
            reports.append(ValidationReport(episode_id=episode_id, warnings=(ValidationIssue(
                "infra_excluded",
                "infrastructure failure: retained in storage, excluded from metric denominators"),)))
        payloads.append(payload)
    return payloads, reports + earlier


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

# Strict JSON: a value that is inf or nan raises ValueError.
_encode_line = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _step_record(step: ToolStep) -> dict[str, Any]:
    return {
        "index": step.index,
        "tool": step.tool,
        "args_canonical": step.args_canonical,
        "result_chars": step.result_chars,
        "tokens_in": step.tokens_in,
        "tokens_out": step.tokens_out,
        "timestamp": step.timestamp,
        **dict(sorted(step.extras.items())),
    }


def serialize_episode(episode: Episode) -> str:
    """One JSONL line, stable key order, unknown fields appended sorted."""
    return _encode_line({
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
        **dict(sorted(episode.extras.items())),
    })


def serialize_task(task: TaskSpec) -> str:
    """One JSONL line, stable key order, unknown fields appended sorted."""
    return _encode_line({
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
        **dict(sorted(task.extras.items())),
    })


def write_episode_log(episodes: Iterable[Episode], path: str | Path) -> None:
    _write_lines(map(serialize_episode, episodes), path)


def write_task_registry(tasks: Iterable[TaskSpec], path: str | Path) -> None:
    _write_lines(map(serialize_task, tasks), path)


def _write_lines(lines: Iterable[str], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
