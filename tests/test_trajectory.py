"""Data-model tests: registry loading, episode parsing, GDS, round-trips."""
from __future__ import annotations

import copy
import io
import json
import pickle
import re
import sys
from datetime import datetime

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FOUR_WEIGHTS, make_episode, make_step, make_task, steps_from_tools
from reliakit.trajectory import _FRACTION, _OFFSET, _TIMESTAMP, MAX_STEPS, _valid_timestamp
from reliakit import (
    RegistryError,
    RegistryWarning,
    bucket_for_minutes,
    canonical_args,
    cross_validate,
    episode_gds,
    load_task_registry,
    parse_episode_log,
    serialize_episode,
    serialize_task,
    write_episode_log,
    write_task_registry,
)


def registry_line(**overrides) -> str:
    rec = {
        "schema_version": "1",
        "task_id": "t-0001",
        "domain": "SE",
        "bucket": "short",
        "human_minutes_estimate": 2.5,
        "agent_steps_estimate": 8,
        "subtasks": [
            {"subtask_id": "s1", "weight": 0.25, "description": ""},
            {"subtask_id": "s2", "weight": 0.35, "description": ""},
            {"subtask_id": "s3", "weight": 0.20, "description": ""},
            {"subtask_id": "s4", "weight": 0.20, "description": ""},
        ],
    }
    rec.update(overrides)
    return json.dumps(rec)


class TestRegistry:
    def test_happy_path(self):
        tasks = load_task_registry(io.StringIO(registry_line()))
        assert len(tasks) == 1
        task = tasks[0]
        assert task.task_id == "t-0001"
        assert task.bucket == "short"
        assert [s.weight for s in task.subtasks] == [0.25, 0.35, 0.20, 0.20]

    def test_duplicate_task_id_raises(self):
        stream = io.StringIO(registry_line() + "\n" + registry_line())
        with pytest.raises(RegistryError, match="duplicate task_id"):
            load_task_registry(stream)

    def test_malformed_json_raises_with_line_number(self):
        stream = io.StringIO(registry_line() + "\n{not json\n")
        with pytest.raises(RegistryError, match="registry line 2"):
            load_task_registry(stream)

    def test_non_utf8_file_names_the_line(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_bytes(registry_line().encode("utf-8") + b"\n\xff\xfe\n")
        with pytest.raises(RegistryError, match="registry line 2: not UTF-8"):
            load_task_registry(path)

    def test_weight_sum_enforced_exactly(self):
        bad = registry_line(subtasks=[
            {"subtask_id": "s1", "weight": 0.5, "description": ""},
            {"subtask_id": "s2", "weight": 0.3, "description": ""},
            {"subtask_id": "s3", "weight": 0.3, "description": ""},
        ])
        with pytest.raises(RegistryError, match="sum"):
            load_task_registry(io.StringIO(bad))

    def test_three_tenths_weights_accepted(self):
        # 0.1+0.2+0.3+0.4 sums to 1 in decimal but not in binary floats;
        # the loader must accept it because it sums digits, not doubles.
        line = registry_line(subtasks=[
            {"subtask_id": "s1", "weight": 0.1, "description": ""},
            {"subtask_id": "s2", "weight": 0.2, "description": ""},
            {"subtask_id": "s3", "weight": 0.3, "description": ""},
            {"subtask_id": "s4", "weight": 0.4, "description": ""},
        ])
        (task,) = load_task_registry(io.StringIO(line))
        assert task.subtasks[2].weight == 0.3

    def test_subtask_count_warning(self):
        line = registry_line(subtasks=[
            {"subtask_id": "s1", "weight": 0.5, "description": ""},
            {"subtask_id": "s2", "weight": 0.5, "description": ""},
        ])
        with pytest.warns(RegistryWarning, match="2 subtasks"):
            load_task_registry(io.StringIO(line))

    def test_bucket_minutes_mismatch_warning(self):
        line = registry_line(bucket="long", human_minutes_estimate=2.5)
        with pytest.warns(RegistryWarning, match="inconsistent"):
            load_task_registry(io.StringIO(line))

    # A JSON integer too large for a float, and a float literal that
    # overflows to infinity.
    @pytest.mark.parametrize("minutes", ["1" + "0" * 400, "1e400"],
                             ids=["400_digits", "1e400"])
    def test_minutes_not_finite_as_float_rejected(self, minutes):
        line = registry_line(human_minutes_estimate=0).replace(
            '"human_minutes_estimate": 0', f'"human_minutes_estimate": {minutes}')
        stream = io.StringIO(registry_line(task_id="t-0000") + "\n" + line)
        with pytest.raises(RegistryError,
                           match="registry line 2: human_minutes_estimate must be finite"):
            load_task_registry(stream)

    def test_unknown_domain_rejected(self):
        with pytest.raises(RegistryError, match="domain"):
            load_task_registry(io.StringIO(registry_line(domain="QA")))


class TestBucketForMinutes:
    @pytest.mark.parametrize("minutes,bucket", [
        (0.5, "short"), (5.0, "short"), (5.01, "medium"), (30.0, "medium"),
        (30.5, "long"), (120.0, "long"), (121.0, "very_long"), (9000.0, "very_long"),
    ])
    def test_band_edges(self, minutes, bucket):
        assert bucket_for_minutes(minutes) == bucket


class TestCanonicalArgs:
    def test_key_order_is_insignificant(self):
        assert canonical_args({"b": 1, "a": 2}) == canonical_args({"a": 2, "b": 1})

    def test_nested_structures_are_sorted_too(self):
        a = canonical_args({"x": {"m": 1, "k": [1, 2]}})
        b = canonical_args({"x": {"k": [1, 2], "m": 1}})
        assert a == b == '{"x":{"k":[1,2],"m":1}}'

    def test_json_string_is_normalized(self):
        assert canonical_args('{"b": 1, "a": 2}') == '{"a":2,"b":1}'

    def test_opaque_string_passes_through(self):
        assert canonical_args("SELECT * FROM t") == "SELECT * FROM t"


class TestParseEpisodeLog:
    def test_three_good_lines(self):
        task = make_task()
        lines = "\n".join(
            serialize_episode(make_episode(f"e{i}", task, passed=i % 2 == 0))
            for i in range(3)
        )
        episodes, reports = parse_episode_log(io.StringIO(lines))
        assert len(episodes) == 3
        assert reports == []

    def test_schema_version_defaults_when_absent(self):
        rec = json.loads(serialize_episode(make_episode("e1", make_task())))
        del rec["schema_version"]
        episodes, reports = parse_episode_log(io.StringIO(json.dumps(rec)))
        assert len(episodes) == 1 and reports == []

    def test_pass_score_inconsistency_rejected(self):
        rec = json.loads(serialize_episode(make_episode("e1", make_task(), passed=True)))
        rec["evaluator_score"] = 0.75
        episodes, reports = parse_episode_log(io.StringIO(json.dumps(rec)))
        assert episodes == []
        assert reports[0].fatal
        assert any(i.code == "pass_score_inconsistency" for i in reports[0].errors)

    def test_duplicate_keeps_first(self):
        task = make_task()
        first = serialize_episode(make_episode("e1", task, passed=True))
        second = serialize_episode(make_episode("e1", task, passed=False))
        episodes, reports = parse_episode_log(io.StringIO(first + "\n" + second))
        assert len(episodes) == 1
        assert episodes[0].passed is True
        assert [i.code for r in reports for i in r.warnings] == ["duplicate_episode_id"]

    def test_malformed_line_isolated(self):
        good = serialize_episode(make_episode("e1", make_task()))
        episodes, reports = parse_episode_log(io.StringIO("{oops\n" + good))
        assert len(episodes) == 1
        assert reports[0].episode_id == "<line 1>"
        assert reports[0].errors[0].code == "malformed_line"

    def test_non_utf8_line_in_file_is_malformed(self, tmp_path):
        good = serialize_episode(make_episode("e1", make_task())).encode("utf-8")
        path = tmp_path / "episodes.jsonl"
        path.write_bytes(b"\xff\xfe\n" + good + b"\n")
        episodes, reports = parse_episode_log(path)
        assert [ep.episode_id for ep in episodes] == ["e1"]
        assert reports[0].episode_id == "<line 1>"
        assert reports[0].errors[0].code == "malformed_line"
        assert reports[0].errors[0].message.startswith("line 1: not UTF-8")

    def test_step_limit_enforced(self):
        task = make_task()
        steps = steps_from_tools(["read_file"] * (MAX_STEPS + 1))
        rec = json.loads(serialize_episode(make_episode("e1", task, steps=steps)))
        episodes, reports = parse_episode_log(io.StringIO(json.dumps(rec)))
        assert episodes == []
        assert any(i.code == "step_limit" for i in reports[0].errors)

    def test_step_index_gap_rejected(self):
        task = make_task()
        rec = json.loads(serialize_episode(
            make_episode("e1", task, steps=steps_from_tools(["a", "b", "c"]))))
        rec["steps"][2]["index"] = 5
        episodes, reports = parse_episode_log(io.StringIO(json.dumps(rec)))
        assert episodes == []
        assert any(i.code == "bad_step_index" for i in reports[0].errors)

    @pytest.mark.parametrize("index", [True, 1.0])
    def test_step_index_must_be_an_integer(self, index):
        # Both compare equal to 1; the repeat_index check rejects both.
        rec = json.loads(serialize_episode(
            make_episode("e1", make_task(), steps=steps_from_tools(["a"]))))
        rec["steps"][0]["index"] = index
        episodes, reports = parse_episode_log(io.StringIO(json.dumps(rec)))
        assert episodes == []
        assert [i.code for i in reports[0].errors] == ["bad_step_index"]

    def test_bad_timestamp_rejected(self):
        rec = json.loads(serialize_episode(
            make_episode("e1", make_task(), steps=steps_from_tools(["a"]))))
        rec["steps"][0]["timestamp"] = "yesterday"
        episodes, reports = parse_episode_log(io.StringIO(json.dumps(rec)))
        assert episodes == []
        assert any(i.code == "bad_timestamp" for i in reports[0].errors)

    def test_infra_failure_retained_with_warning(self):
        ep = make_episode("e1", make_task(), passed=False, termination="infra_error")
        episodes, reports = parse_episode_log(io.StringIO(serialize_episode(ep)))
        assert len(episodes) == 1
        assert episodes[0].is_infra_failure
        assert [i.code for r in reports for i in r.warnings] == ["infra_excluded"]

    def test_unknown_fields_preserved_in_extras(self):
        rec = json.loads(serialize_episode(make_episode("e1", make_task())))
        rec["provider"] = "mirror-a"
        (ep,), _ = parse_episode_log(io.StringIO(json.dumps(rec)))
        assert ep.extras["provider"] == "mirror-a"


class TestParseSharesValues:
    """Within one parse, equal bounded-vocabulary values are one object."""

    def test_equal_values_are_one_object(self):
        task = make_task()
        lines = [serialize_episode(make_episode(
            f"e{i}", task, steps=steps_from_tools(["read_file", "edit", "read_file"])))
            for i in range(2)]
        first, second = parse_episode_log(lines)[0]
        assert first.steps[0].tool is first.steps[2].tool is second.steps[0].tool
        assert first.steps[1].tool is second.steps[1].tool
        for name in ("task_id", "model_id", "scaffold", "termination", "subtask_outcomes"):
            assert getattr(first, name) is getattr(second, name), name

    @pytest.mark.parametrize("tool_first", [True, False])
    def test_tool_equal_to_non_canonical_args_keeps_its_value(self, tool_first):
        raw = '{"b": 1, "a": 2}'
        rec = json.loads(serialize_episode(make_episode(
            "e1", make_task(), steps=steps_from_tools(["a", "b"]))))
        named, called = rec["steps"] if tool_first else rec["steps"][::-1]
        named["tool"] = raw
        called["args_canonical"] = raw
        (ep,), _ = parse_episode_log([json.dumps(rec)])
        assert ep.steps[named["index"] - 1].tool == raw
        assert ep.steps[called["index"] - 1].args_canonical == '{"a":2,"b":1}'

    def test_episode_without_unknown_keys_has_read_only_empty_extras(self):
        task = make_task()
        lines = [serialize_episode(make_episode(f"e{i}", task, steps=steps_from_tools(["a"])))
                 for i in range(2)]
        first, second = parse_episode_log(lines)[0]
        assert first.extras == {}
        assert first.extras is second.extras
        with pytest.raises(TypeError):
            first.extras["provider"] = "mirror-a"  # type: ignore[index]
        assert pickle.loads(pickle.dumps(first)) == first
        assert copy.deepcopy(first) == first


# (timestamp, accepted): the verdicts of datetime.fromisoformat on Python
# 3.10.13 after "Z" is read as "+00:00", which every version must reproduce.
TIMESTAMPS_AS_ON_310 = [
    ("2026-01-01T00:00:01Z", True),
    ("2026-01-01T00:00:01+00:00", True),
    ("2026-01-01", True),
    ("2026-01-01 12:30", True),
    ("2026-01-01t12:30", True),
    ("2026-01-01T12", True),
    ("2026-01-01T12:30:45.123", True),
    ("2026-01-01T12:30:45.123456-05:00", True),
    ("2026-01-01T12.123456", True),
    ("2026-01-01T12:30.123", True),
    ("2026-01-01T12:30:45:100", True),
    ("2026-01-01T12x+05:00", True),
    ("2026-01-01T12:+05:00", True),
    ("2026-01-01T12:30\x00", True),
    ("2026-01-01\ud80012:30", True),
    ("2026-01-01\u00e912:30", True),
    ("2024-02-29T00:00", True),
    ("2026-01-01T00:00+22:99:99", True),
    ("2026-01-01T00:00-23:59:59.999999", True),
    ("2026-01-01T00:00+05:00:00:123456", True),
    ("2026-01-01Z", True),
    ("2024-02-29T00:00:00", True),
    ("2026-01-28 23:59:59.999-23:59", True),
    ("2026-12-31T00:00:00Z", True),
    # accepted by 3.11 and later only
    ("20260101T000001", False),
    ("2026-01-01T00:00:01.5", False),
    ("2026-01-01T00:00:01,5", False),
    ("2026-W01-1", False),
    ("2026-01-01T12:30:45.1234", False),
    ("2026-01-01T12:30:45.123456789", False),
    ("2026-01-01T12:30:45+05", False),
    ("2026-01-01T12:30:45+0500", False),
    ("2026-01-01T12:30:45+05:00:00.123", False),
    ("2026-01-01T1230", False),
    # rejected everywhere
    ("2026-01-01T12x", False),
    ("2026-01-01T12:", False),
    ("2026-01-01T", False),
    ("2026-01-01T24:00", False),
    ("2026-01-01T12:60", False),
    ("2026-02-29", False),
    ("2026-02-29T00:00:00", False),
    ("2026-04-31 12:00:00Z", False),
    ("0000-01-01T00:00:00", False),
    ("2026-01-01T00:00:00+24:00", False),
    ("0000-01-01", False),
    ("2026-01-01T00:00+24:00", False),
    ("2026-01-01T00:00-23:59:60", False),
    ("2026-01-01T00:00+23:60", False),
    ("2026-01-01T12:30+05:00Z", False),
    ("2026-01-01T\ud80012:00", False),
    ("\u0662\u0660\u0662\u0666-01-01", False),
    (" 2026-01-01", False),
    ("2026-01-01 ", False),
    ("yesterday", False),
    ("", False),
]


# _TIMESTAMP before its shared HH[:MM[:SS]] prefix was factored out: the two
# time forms as two branches. The factored pattern must match exactly the
# same strings.
_TIMESTAMP_UNFACTORED = re.compile(
    rf"[0-9]{{4}}-[0-9]{{2}}-[0-9]{{2}}(?:."
    rf"(?:(?:[01][0-9]|2[0-3])"
    rf"(?:\.{_FRACTION}|:[0-5][0-9](?:\.{_FRACTION}|:[0-5][0-9][.:]{_FRACTION}))"
    rf"(?:{_OFFSET})?"
    rf"|(?:[01][0-9]|2[0-3])(?::[0-5][0-9](?::[0-5][0-9])?)?"
    rf"(?:\x00?|[\x00-\x2a\x2c\x2e-\x7f]?(?:{_OFFSET}))))?",
    re.DOTALL)
# The alphabet and heads of test_matches_fromisoformat_on_python_3_10.
_STAMP_ALPHABET = ["0", "1", "2", "5", "9", "-", ":", ".", "+", "T", "Z", " ", "x", ",", "W",
                   "\x00", "\u00e9", "\ud800"]
_STAMP_HEADS = ["", "2026-01-01", "2024-02-29T23:59", "2026-01-01T12:30:45"]


def _same_match(stamp: str) -> bool:
    stamp = stamp.replace("Z", "+00:00")
    return (_TIMESTAMP.fullmatch(stamp) is None) == (_TIMESTAMP_UNFACTORED.fullmatch(stamp) is None)


class TestTimestamps:
    @pytest.mark.parametrize("stamp,accepted", TIMESTAMPS_AS_ON_310)
    def test_verdict_is_the_one_python_3_10_gives(self, stamp, accepted):
        assert _valid_timestamp(stamp) is accepted
        assert _same_match(stamp)

    @settings(max_examples=1000, deadline=None)
    @given(st.text(st.sampled_from(_STAMP_ALPHABET), max_size=16), st.sampled_from(_STAMP_HEADS))
    def test_factored_pattern_matches_the_unfactored_one(self, tail, head):
        assert _same_match(head + tail)

    @pytest.mark.parametrize("value", [None, 5, 1.5, ["2026-01-01"], b"2026-01-01"])
    def test_non_strings_are_rejected(self, value):
        assert _valid_timestamp(value) is False

    @pytest.mark.skipif(sys.version_info[:2] != (3, 10),
                        reason="compares with Python 3.10's own fromisoformat")
    @given(st.text(st.sampled_from(_STAMP_ALPHABET), max_size=16), st.sampled_from(_STAMP_HEADS))
    def test_matches_fromisoformat_on_python_3_10(self, tail, head):
        stamp = head + tail
        try:
            datetime.fromisoformat(stamp.replace("Z", "+00:00"))
            accepted = True
        except ValueError:
            accepted = False
        assert _valid_timestamp(stamp) is accepted


class TestRoundTrip:
    def test_episode_serialize_parse_identity(self):
        task = make_task()
        original = make_episode(
            "e-rt", task, passed=False,
            outcomes=(True, False, True, False),
            steps=steps_from_tools(["read_file", "run_command"]),
            nudges_used=2, termination="step_limit",
        )
        (parsed,), reports = parse_episode_log(io.StringIO(serialize_episode(original)))
        assert reports == []
        assert parsed == original

    def test_task_serialize_load_identity(self):
        task = make_task(weights=(0.1, 0.2, 0.3, 0.4))
        (loaded,) = load_task_registry(io.StringIO(serialize_task(task)))
        assert loaded == task

    def test_file_round_trip(self, tmp_path):
        task = make_task()
        episodes = [make_episode(f"e{i}", task, passed=bool(i % 2)) for i in range(4)]
        write_task_registry([task], tmp_path / "tasks.jsonl")
        write_episode_log(episodes, tmp_path / "eps.jsonl")
        loaded_tasks = load_task_registry(tmp_path / "tasks.jsonl")
        loaded_eps, reports = parse_episode_log(tmp_path / "eps.jsonl")
        assert loaded_tasks == [task]
        assert loaded_eps == episodes and reports == []

    def test_dedup_is_idempotent(self):
        # Parsing a stream concatenated with itself yields the same episodes.
        task = make_task()
        lines = "\n".join(serialize_episode(make_episode(f"e{i}", task)) for i in range(3))
        once, _ = parse_episode_log(io.StringIO(lines))
        twice, reports = parse_episode_log(io.StringIO(lines + "\n" + lines))
        assert twice == once
        assert sum(1 for r in reports for i in r.warnings
                   if i.code == "duplicate_episode_id") == 3


class TestCrossValidate:
    def test_unknown_task_excluded(self):
        task = make_task("t-0001")
        stray = make_episode("e1", make_task("t-9999"))
        kept, reports = cross_validate([stray], {task.task_id: task})
        assert kept == []
        assert reports[0].errors[0].code == "unknown_task"

    def test_subtask_count_mismatch_excluded(self):
        task = make_task("t-0001")
        ep = make_episode("e1", task, outcomes=(True, False))
        kept, reports = cross_validate([ep], {task.task_id: task})
        assert kept == []
        assert reports[0].errors[0].code == "subtask_mismatch"

    def test_consistent_episode_passes_through(self):
        task = make_task("t-0001")
        ep = make_episode("e1", task)
        kept, reports = cross_validate([ep], {task.task_id: task})
        assert kept == [ep] and reports == []


class TestEpisodeGds:
    def test_weighted_partial(self):
        task = make_task(weights=FOUR_WEIGHTS)
        ep = make_episode("e1", task, outcomes=(True, True, False, True))
        assert episode_gds(ep, task) == 0.80

    def test_all_true_is_exactly_one(self):
        task = make_task(weights=(0.1, 0.2, 0.3, 0.4))
        ep = make_episode("e1", task, outcomes=(True,) * 4)
        assert episode_gds(ep, task) == 1.0

    def test_all_false_is_exactly_zero(self):
        task = make_task()
        ep = make_episode("e1", task, outcomes=(False,) * 4)
        assert episode_gds(ep, task) == 0.0

    def test_length_mismatch_raises(self):
        task = make_task()
        ep = make_episode("e1", task, outcomes=(True, False))
        with pytest.raises(ValueError, match="outcomes"):
            episode_gds(ep, task)

    @given(st.data())
    def test_bounds_and_full_pass_identity(self, data):
        n = data.draw(st.integers(3, 6))
        cuts = sorted(data.draw(st.sets(st.integers(1, 99), min_size=n - 1, max_size=n - 1)))
        cents = [b - a for a, b in zip([0] + cuts, cuts + [100])]
        weights = tuple(c / 100 for c in cents)
        outcomes = tuple(data.draw(st.booleans()) for _ in range(n))
        task = make_task(weights=weights)
        ep = make_episode("e1", task, outcomes=outcomes)
        gds = episode_gds(ep, task)
        assert 0.0 <= gds <= 1.0
        assert (gds == 1.0) == all(outcomes)
        assert (gds == 0.0) == (not any(outcomes))
