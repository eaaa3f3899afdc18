"""The memoized episode-log parser against the per-step parser it replaced.

``_reference_*`` below are that parser's ``canonical_args``, ``_parse_steps``,
``_episode_from_record`` and ``parse_episode_log``, kept verbatim except for
one fix applied to both: a step ``index`` must be an ``int``, so ``true`` and
``1.0`` (which compare equal to 1) are a ``bad_step_index``. The fast parser
must return lists equal by ``==``: the same episodes, steps and extras, and
the same validation reports in the same order with the same messages.
"""
from __future__ import annotations

import copy
import io
import json
import pickle
from typing import Any, Iterable, Mapping

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_episode, make_task, steps_from_tools
from reliakit import parse_episode_log, serialize_episode
from reliakit.trajectory import (
    _EPISODE_FIELDS,
    _SCORE_TOLERANCE,
    _STEP_FIELDS,
    MAX_STEPS,
    NUDGE_LIMIT,
    SCAFFOLDS,
    TERMINATIONS,
    Episode,
    ToolStep,
    ValidationIssue,
    ValidationReport,
    _check_schema_version,
    _iter_lines,
    _valid_timestamp,
)


def _reference_canonical_args(args: Any) -> str:
    if isinstance(args, str):
        try:
            parsed = json.loads(args)
        except json.JSONDecodeError:
            return args
        if isinstance(parsed, (dict, list)):
            return json.dumps(parsed, sort_keys=True, separators=(",", ":"))
        return args
    return json.dumps(args, sort_keys=True, separators=(",", ":"))


def _reference_parse_steps(raw: Any, errors: list[ValidationIssue]) -> tuple[ToolStep, ...]:
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
        counts = {}
        for key in ("result_chars", "tokens_in", "tokens_out"):
            v = rec.get(key)
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                errors.append(ValidationIssue(
                    "bad_step", f"step {pos}: {key} must be a non-negative integer"))
                return ()
            counts[key] = v
        timestamp = rec.get("timestamp")
        if not _valid_timestamp(timestamp):
            errors.append(ValidationIssue("bad_timestamp", f"step {pos}: timestamp {timestamp!r}"))
            return ()
        if "args_canonical" in rec:
            args = _reference_canonical_args(rec["args_canonical"])
        elif "args" in rec:
            args = _reference_canonical_args(rec["args"])
        else:
            errors.append(ValidationIssue("bad_step", f"step {pos}: missing args_canonical"))
            return ()
        extras = {k: v for k, v in rec.items() if k not in _STEP_FIELDS}
        steps.append(ToolStep(
            index=pos, tool=tool, args_canonical=args,
            result_chars=counts["result_chars"], tokens_in=counts["tokens_in"],
            tokens_out=counts["tokens_out"], timestamp=timestamp, extras=extras,
        ))
    return tuple(steps)


def _reference_episode_from_record(record: Mapping[str, Any],
                                   errors: list[ValidationIssue]) -> Episode | None:
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

    steps = _reference_parse_steps(record.get("steps", []), errors)

    if passed is not None and score is not None:
        at_full_score = abs(score - 1.0) <= _SCORE_TOLERANCE
        if passed != at_full_score:
            errors.append(ValidationIssue(
                "pass_score_inconsistency",
                f"passed={passed} but evaluator_score={score}; passed must hold"
                f" exactly when the score is 1.0 (within {_SCORE_TOLERANCE})"))

    if errors:
        return None
    extras = {k: v for k, v in record.items() if k not in _EPISODE_FIELDS}
    return Episode(
        episode_id=episode_id, task_id=task_id, model_id=model_id,
        scaffold=scaffold, repeat_index=repeat_index, steps=steps,
        nudges_used=nudges, termination=termination,
        subtask_outcomes=outcomes, evaluator_score=float(score), passed=passed,
        extras=extras,
    )


def _reference_parse_episode_log(
    source: Iterable[str],
) -> tuple[list[Episode], list[ValidationReport]]:
    episodes: list[Episode] = []
    reports: list[ValidationReport] = []
    seen: set[str] = set()
    for lineno, line in _iter_lines(source):
        if isinstance(line, UnicodeDecodeError):
            problem = f"not UTF-8: {line}"
        else:
            try:
                record = json.loads(line)
                problem = None if isinstance(record, dict) else "record is not an object"
            except json.JSONDecodeError as exc:
                problem = str(exc)
        if problem:
            reports.append(ValidationReport(
                episode_id=f"<line {lineno}>",
                errors=(ValidationIssue("malformed_line", f"line {lineno}: {problem}"),),
            ))
            continue
        label = record.get("episode_id")
        label = label if isinstance(label, str) and label else f"<line {lineno}>"
        problem = _check_schema_version(record)
        if problem:
            reports.append(ValidationReport(
                episode_id=label, errors=(ValidationIssue("schema_version", problem),)))
            continue

        errors: list[ValidationIssue] = []
        episode = _reference_episode_from_record(record, errors)
        if episode is None:
            reports.append(ValidationReport(episode_id=label, errors=tuple(errors)))
            continue
        if episode.episode_id in seen:
            reports.append(ValidationReport(
                episode_id=episode.episode_id,
                warnings=(ValidationIssue(
                    "duplicate_episode_id",
                    f"line {lineno}: duplicate of {episode.episode_id!r}; keeping the first"),),
            ))
            continue
        seen.add(episode.episode_id)
        warns: list[ValidationIssue] = []
        if episode.is_infra_failure:
            warns.append(ValidationIssue(
                "infra_excluded",
                "infrastructure failure: retained in storage, excluded from metric denominators"))
        if warns:
            reports.append(ValidationReport(episode_id=episode.episode_id, warnings=tuple(warns)))
        episodes.append(episode)
    return episodes, reports


# --- generated logs ---------------------------------------------------------

# Small pools, so the same valid and invalid strings recur across steps and
# episodes and every argument-memo entry is hit again. _SHARED strings are both
# arguments and timestamps: one is a valid timestamp, the other is not.
_SHARED = ["2026-01-01T00:00:01Z", "not-a-time"]
_ARG_STRINGS = [
    '{"b": 1, "a": [2, {"d": 0, "c": null}]}', '{"a":[2,{"c":null,"d":0}],"b":1}',
    "[3, 1, 2]", "[]", "{}", '  {"k": "v"}\t', "ls -la", '"quoted"', "42", "null", "true",
    "{bad json", "", "\ufeff{\"a\": 1}", '{"a": 1} trailing', "[1, 2", '{"\u00e9": "\u00fc"}', *_SHARED,
]
_ARG_VALUES = st.one_of(
    st.sampled_from(_ARG_STRINGS),
    st.sampled_from([{"b": [1, 2], "a": "x"}, {"a": "x", "b": [1, 2]}, [2, 1], [], {}, 3, 1.5,
                     None, True]),
    st.dictionaries(st.sampled_from("abc"), st.integers(-2, 2), max_size=3),
)
_GOOD_STAMPS = ["2026-01-01T00:00:02+00:00", "2026-01-01", "2026-01-01T00:00:03.250000",
                _SHARED[0]]
_BAD_STAMPS = ["2026-13-01T00:00:00Z", "", "yesterday", 5, None, ["2026-01-01"], _SHARED[1]]
_BAD_COUNTS = [-1, True, False, 1.5, 2.0, "3", None, [1]]
_MISSING = object()  # a perturbation that deletes the key

# (key, values) pairs: a perturbed step or record sets one key to one value.
_STEP_FAULTS = [
    ("index", [0, 2, True, 1.0, 2.0, "1", None, _MISSING]),
    ("tool", ["", 5, None, _MISSING]),
    ("result_chars", [*_BAD_COUNTS, _MISSING]),
    ("tokens_in", _BAD_COUNTS),
    ("tokens_out", _BAD_COUNTS),
    ("timestamp", [*_BAD_STAMPS, _MISSING]),
]
_RECORD_FAULTS = [
    ("schema_version", ["2", 1]),
    ("episode_id", ["", 5, _MISSING]),
    ("task_id", ["", None, _MISSING]),
    ("model_id", ["", 3]),
    ("scaffold", ["plain", _MISSING]),
    ("repeat_index", [0, True, 1.0, "1"]),
    ("nudges_used", [NUDGE_LIMIT + 1, -1, False, 0.0]),
    ("termination", ["crashed", None]),
    ("subtask_outcomes", [[1, 0], "all", None, _MISSING]),
    ("evaluator_score", [0.5, True, 1.5, "1", None]),
    ("passed", [False, 1, None, _MISSING]),
    ("steps", ["steps", 5, {"index": 1}, None]),
]


def _perturbed(draw, rec: dict, faults: list) -> dict:
    """``rec`` with up to two faults, keys in a drawn order."""
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 0, 1, 1, 2]))):
        key, values = draw(st.sampled_from(faults))
        value = draw(st.sampled_from(values))
        if value is _MISSING:
            rec.pop(key, None)
        else:
            rec[key] = value
    order = draw(st.permutations(list(rec)))
    return {k: rec[k] for k in order}


@st.composite
def _step(draw, pos: int) -> dict:
    rec: dict[str, Any] = {
        "index": pos,
        "tool": draw(st.sampled_from(["read_file", "edit", "run_tests"])),
        "result_chars": draw(st.integers(0, 500)),
        "tokens_in": draw(st.integers(0, 500)),
        "tokens_out": draw(st.integers(0, 500)),
        "timestamp": draw(st.sampled_from(_GOOD_STAMPS)),
    }
    which = draw(st.sampled_from(["args", "args_canonical", "both", "neither"]))
    if which in ("args", "both"):
        rec["args"] = draw(_ARG_VALUES)
    if which in ("args_canonical", "both"):
        rec["args_canonical"] = draw(_ARG_VALUES)
    if draw(st.integers(0, 3)) == 0:
        rec.update(draw(st.dictionaries(st.sampled_from(["latency_ms", "note", "retries"]),
                                        st.one_of(st.integers(0, 9), st.text(max_size=3)),
                                        min_size=1, max_size=2)))
    return _perturbed(draw, rec, _STEP_FAULTS)


@st.composite
def _steps(draw) -> list:
    shape = draw(st.sampled_from(["list"] * 8 + ["not_an_object", "too_many"]))
    if shape == "too_many":
        step = {"index": 1, "tool": "t", "args": "x", "result_chars": 0, "tokens_in": 0,
                "tokens_out": 0, "timestamp": _SHARED[0]}
        return [dict(step, index=i) for i in range(1, MAX_STEPS + 2)]
    steps = [draw(_step(pos)) for pos in range(1, draw(st.integers(0, 5)) + 1)]
    if shape == "not_an_object":
        steps.insert(draw(st.integers(0, len(steps))), draw(st.sampled_from([[], "step", 7])))
    return steps


@st.composite
def _record(draw) -> dict:
    passed = draw(st.booleans())
    rec: dict[str, Any] = {
        "schema_version": "1",
        "episode_id": draw(st.sampled_from(["e1", "e2", "e3", "e4"])),
        "task_id": draw(st.sampled_from(["t1", "t2"])),
        "model_id": draw(st.sampled_from(["m1", "m2"])),
        "scaffold": draw(st.sampled_from(SCAFFOLDS)),
        "repeat_index": draw(st.integers(1, 3)),
        "steps": draw(_steps()),
        "nudges_used": draw(st.integers(0, NUDGE_LIMIT)),
        "termination": draw(st.sampled_from(TERMINATIONS)),
        "subtask_outcomes": draw(st.lists(st.booleans(), max_size=4)),
        "evaluator_score": draw(st.sampled_from([1.0, 1, 1 - 1e-12] if passed else [0.0, 0, 0.5])),
        "passed": passed,
    }
    if draw(st.booleans()):
        del rec["schema_version"]
    if draw(st.integers(0, 3)) == 0:
        rec["provider"] = draw(st.sampled_from(["mirror-a", "mirror-b"]))
    return _perturbed(draw, rec, _RECORD_FAULTS)


@st.composite
def _line(draw) -> str:
    kind = draw(st.sampled_from(["record"] * 12 + ["malformed", "array", "blank"]))
    if kind == "malformed":
        return draw(st.sampled_from(["{oops", '{"episode_id": "e1"', "nan-line"]))
    if kind == "array":
        return "[1, 2]"
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    compact = draw(st.booleans())
    text = json.dumps(draw(_record()), separators=(",", ":") if compact else (", ", ": "),
                      ensure_ascii=draw(st.booleans()))
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", "  ", "\r"]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_line(), min_size=1, max_size=8))
def test_parse_equals_reference(lines):
    got = parse_episode_log(io.StringIO("\n".join(lines)))
    want = _reference_parse_episode_log(io.StringIO("\n".join(lines)))
    assert got == want


def test_generated_logs_reach_every_outcome():
    """The oracle comparison is only as strong as the logs it sees: pin
    that the strategy yields accepted steps and each step error code."""
    codes: set[str] = set()
    accepted_steps = 0

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.lists(_line(), min_size=1, max_size=8))
    def collect(lines):
        nonlocal accepted_steps
        episodes, reports = _reference_parse_episode_log(lines)
        accepted_steps += sum(len(ep.steps) for ep in episodes)
        codes.update(i.code for r in reports for i in r.errors + r.warnings)

    collect()
    assert accepted_steps > 0
    assert {"bad_steps", "step_limit", "bad_step", "bad_step_index", "bad_timestamp",
            "malformed_line", "schema_version", "duplicate_episode_id",
            "infra_excluded"} <= codes


def test_argument_memo_hits_across_episodes_and_keeps_its_verdicts():
    task = make_task()
    good = json.loads(serialize_episode(make_episode("e1", task, steps=steps_from_tools(["a"]))))
    step = good["steps"][0]
    lines = []
    for n, (stamp, args) in enumerate([("2026-01-01T00:00:01Z", "not-a-time"),
                                       ("not-a-time", "2026-01-01T00:00:01Z"),
                                       ("2026-01-01T00:00:01Z", '{"b": 1, "a": 2}'),
                                       ("not-a-time", '{"b": 1, "a": 2}'),
                                       ("2026-01-01T00:00:01Z", '{"b": 1, "a": 2}')]):
        rec = dict(good, episode_id=f"e{n}", steps=[dict(step, timestamp=stamp, args_canonical=args)])
        lines.append(json.dumps(rec))
    episodes, reports = parse_episode_log(lines)
    assert (episodes, reports) == _reference_parse_episode_log(lines)
    assert [ep.episode_id for ep in episodes] == ["e0", "e2", "e4"]
    assert [ep.steps[0].args_canonical for ep in episodes] == ["not-a-time", '{"a":2,"b":1}',
                                                              '{"a":2,"b":1}']
    # A repeated bad timestamp is reported on every episode that has it.
    assert [(r.episode_id, r.errors[0].code) for r in reports] == [
        ("e1", "bad_timestamp"), ("e3", "bad_timestamp")]
    # Each distinct argument string is held once: equal ones come back as one object.
    assert episodes[1].steps[0].args_canonical is episodes[2].steps[0].args_canonical


def test_first_bad_count_is_the_one_reported():
    rec = json.loads(serialize_episode(make_episode("e1", make_task(), steps=steps_from_tools(["a"]))))
    rec["steps"][0].update(tokens_out=-1, tokens_in=True, result_chars=2.0)
    lines = [json.dumps(rec)]
    episodes, reports = parse_episode_log(lines)
    assert (episodes, reports) == _reference_parse_episode_log(lines)
    assert reports[0].errors[0].message == "step 1: result_chars must be a non-negative integer"


def test_accepted_step_without_extras_has_empty_extras():
    task = make_task()
    rec = json.loads(serialize_episode(make_episode("e1", task, steps=steps_from_tools(["a", "b"]))))
    rec["steps"][1]["latency_ms"] = 12
    (ep,), _ = parse_episode_log([json.dumps(rec)])
    assert ep.steps[0].extras == {}
    assert ep.steps[1].extras == {"latency_ms": 12}
    assert serialize_episode(ep) == json.dumps(rec, separators=(",", ":"))
    with pytest.raises(TypeError):
        ep.steps[0].extras["latency_ms"] = 1  # type: ignore[index]
    # Parsed episodes pickle and deep-copy as they did with a dict per step.
    assert pickle.loads(pickle.dumps(ep)) == ep
    assert copy.deepcopy(ep) == ep
