"""Reading each episode log in byte ranges, one per worker process.

``report._load_logs`` reads a log's first range in the calling process and
each other range in a forked worker, then folds every range's items in line
order. ``report._range_count`` picks the number of ranges from the log's
size, ``report._MIN_RANGE_BYTES`` and ``os.sched_getaffinity``; these tests
set the number by patching the last two, check that the result and every
error never depend on it, and that no worker is left running or unreaped
after a success or an error. Each range finds its own first line, so
further tests place a range's offset on chosen bytes, count the bytes the
calling process reads, and grow a log while it is read.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_episode, make_step, make_task
from reliakit import report
from reliakit.cli import main
from reliakit.report import InputError, PipelineError, _load_logs
from reliakit.trajectory import serialize_episode, serialize_task

RANGE_COUNTS = (1, 2, 3, 7)
TASK = make_task("t-1")
PRICING = '{"model_id": "m1", "input_per_million": 1.0, "output_per_million": 2.0}\n'


def use_ranges(monkeypatch, ranges: int) -> None:
    """Read every log of at least ``ranges`` bytes in ``ranges`` ranges: a
    one-byte minimum range and that many usable CPUs."""
    monkeypatch.setattr(report, "_MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(ranges)))


def load(paths, summarize, ranges: int):
    """``_load_logs`` with every log read in ``ranges`` ranges."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_ranges(monkeypatch, ranges)
        return _load_logs(paths, summarize)


def assert_no_children() -> None:
    """No worker is left to run or to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def episode_line(episode_id: str, steps: int = 3, **kwargs) -> str:
    return serialize_episode(make_episode(
        episode_id, TASK, steps=[make_step(i, f"tool-{i % 3}", args={"n": i})
                                 for i in range(1, steps + 1)], **kwargs))


def unlabeled_line(n: int) -> str:
    """An episode line whose episode_id is missing (even ``n``) or empty (odd
    ``n``): it fails validation and is reported by its line, ``<line N>``."""
    record = json.loads(episode_line(f"e-{n}"))
    del record["episode_id"]
    if n % 2:
        record["episode_id"] = ""
    return json.dumps(record)


# One line of each kind a log can hold.
LINE_KINDS = {
    "episode": lambda n: episode_line(f"e-{n}"),
    "infra": lambda n: episode_line(f"e-{n}", termination="infra_error"),
    "blank": lambda n: "",
    "spaces": lambda n: "   \t",
    "malformed": lambda n: '{"episode_id": "broken',
    "not_object": lambda n: "[1, 2]",
    "bad_field": lambda n: json.dumps({**json.loads(episode_line(f"e-{n}")),
                                       "nudges_used": -1}),
    "schema": lambda n: json.dumps({**json.loads(episode_line(f"e-{n}")),
                                    "schema_version": "9"}),
    "unlabeled": unlabeled_line,
}


def write_log(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def summary(episode, *columns):
    """All that the loader hands over of an episode: the episode without its
    steps, a digest of any steps it has, and any step columns beside it."""
    return (dataclasses.replace(episode, steps=()),
            tuple((s.tool, s.args_canonical, s.tokens_in) for s in episode.steps), columns)


def load_all(paths, summarize=summary):
    """The loader's result at every range count, checking that each is the
    one-range result and that no worker outlives the call."""
    results = []
    for ranges in RANGE_COUNTS:
        logs = load(paths, summarize, ranges)
        assert_no_children()
        results.append((logs.summaries, logs.reports, logs.inputs))
    for ranges, result in zip(RANGE_COUNTS[1:], results[1:]):
        assert result == results[0], f"{ranges} ranges differ from one"
    return load(paths, summarize, 1)


@st.composite
def logs(draw):
    """Two logs of lines of every kind. Episode ids come from a small pool,
    so that a log repeats its own ids and the second repeats the first's."""
    files = []
    for _ in range(2):
        kinds = draw(st.lists(st.sampled_from(sorted(LINE_KINDS)), min_size=1, max_size=30))
        files.append([LINE_KINDS[kind](draw(st.integers(0, 12))) for kind in kinds])
    return files


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(logs())
def test_every_range_count_returns_the_same_logs(tmp_path_factory, files):
    root = tmp_path_factory.mktemp("ranges")
    paths = [write_log(root / f"log-{i}.jsonl", lines) for i, lines in enumerate(files)]
    load_all(paths)


def test_a_duplicate_of_an_earlier_range_keeps_the_in_file_wording(tmp_path):
    lines = [episode_line("first"), *(episode_line(f"e-{i}", steps=20) for i in range(30)),
             episode_line("first")]
    other = write_log(tmp_path / "other.jsonl", [episode_line("e-3"), episode_line("last")])
    logs = load_all([write_log(tmp_path / "log.jsonl", lines), other])
    messages = [issue.message for r in logs.reports for issue in r.warnings]
    assert messages == [
        "line 32: duplicate of 'first'; keeping the first",
        f"{other}: duplicate of 'e-3' from an earlier log; keeping the first",
    ]
    assert logs.counts() == {"log_lines": 34, "parse_errors": 0, "duplicates": 2, "parsed": 32}


def test_a_logs_cross_log_duplicates_come_after_its_own_reports(tmp_path):
    """A log's reports come in line order, and its duplicates of episodes an
    earlier log kept come after them, whatever lines they are on."""
    first = write_log(tmp_path / "a.jsonl", [episode_line("a"), episode_line("b")])
    second = write_log(tmp_path / "b.jsonl", [
        episode_line("a"), '{"episode_id": "broken', episode_line("c"), episode_line("c"),
        episode_line("b"), episode_line("d", termination="infra_error")])
    logs = load_all([first, second])
    assert [(r.episode_id, [i.code for i in r.errors + r.warnings]) for r in logs.reports] == [
        ("<line 2>", ["malformed_line"]),
        ("c", ["duplicate_episode_id"]),
        ("d", ["infra_excluded"]),
        ("a", ["duplicate_episode_id"]),
        ("b", ["duplicate_episode_id"]),
    ]
    assert [i.message for r in logs.reports[-2:] for i in r.warnings] == [
        f"{second}: duplicate of {episode_id!r} from an earlier log; keeping the first"
        for episode_id in "ab"]


def test_a_cross_log_duplicate_of_an_infra_failure_is_only_a_duplicate(
        tmp_path, monkeypatch, capsys):
    """The kept record's infra_excluded warning is the only one: the copy in
    a later log, here in its last range, is reported once, as a duplicate.
    So validate prints each warning once, and analyze counts the infra
    failure once both in its episodes and in its validation issues."""
    infra = episode_line("infra", termination="infra_error")
    first = write_log(tmp_path / "a.jsonl",
                      [infra, *(episode_line(f"a-{i}", steps=10) for i in range(20))])
    second = write_log(tmp_path / "b.jsonl",
                       [*(episode_line(f"b-{i}", steps=10) for i in range(20)), infra])
    registry = write_log(tmp_path / "tasks.jsonl", [serialize_task(TASK)])
    logs = ["--logs", str(first), str(second)]
    for ranges in RANGE_COUNTS:
        use_ranges(monkeypatch, ranges)
        capsys.readouterr()
        assert main(["validate", *logs]) == 0
        assert [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("WARNING infra ")] == [
            "WARNING infra infra_excluded: infrastructure failure: retained in storage,"
            " excluded from metric denominators",
            f"WARNING infra duplicate_episode_id: {second}: duplicate of 'infra' from an"
            " earlier log; keeping the first",
        ]
        out = tmp_path / f"out-{ranges}"
        assert main(["analyze", *logs, "--registry", str(registry), "--bootstrap-b", "0",
                     "--out", str(out)]) == 0
        assert_no_children()
        meta = json.loads((out / "run_metadata.json").read_text(encoding="utf-8"))
        assert meta["episodes"]["infra_excluded"] == 1
        assert meta["validation_issues"]["infra_excluded"] == 1
        assert meta["validation_issues"]["duplicate_episode_id"] == 1


def test_blank_and_bad_lines_keep_their_numbers_in_every_range(tmp_path):
    """Every range holds malformed and unlabeled lines, each reported by its
    number in the log, and duplicates, warned of by theirs."""
    lines = []
    for i in range(40):
        lines += [episode_line(f"e-{i}", steps=10), "", '{"broken', unlabeled_line(i),
                  episode_line(f"i-{i}", termination="infra_error"), episode_line(f"e-{i}")]
    logs = load_all([write_log(tmp_path / "log.jsonl", lines)])
    fatal = [r for r in logs.reports if r.fatal]
    assert [r.episode_id for r in fatal] == [
        f"<line {6 * i + j}>" for i in range(40) for j in (3, 4)]
    assert [r.errors[0].message.partition(": ")[0] for r in fatal[::2]] == [
        f"line {6 * i + 3}" for i in range(40)]
    assert [r.errors[0].code for r in fatal[1::2]] == ["bad_episode_id"] * 40
    assert [issue.message for r in logs.reports for issue in r.warnings
            if issue.code == "duplicate_episode_id"] == [
        f"line {6 * i + 6}: duplicate of 'e-{i}'; keeping the first" for i in range(40)]
    assert sum(1 for r in logs.reports if r.warnings) == 80
    assert logs.counts()["log_lines"] == 200


def test_a_line_that_is_not_utf8_in_a_later_range_is_the_same_error(tmp_path):
    log = tmp_path / "log.jsonl"
    lines = [episode_line(f"e-{i}", steps=10).encode() for i in range(30)]
    lines[25] = b'{"episode_id": "\xff"}'
    log.write_bytes(b"\n".join(lines) + b"\n")
    messages = set()
    for ranges in RANGE_COUNTS:
        with pytest.raises(InputError) as caught:
            load([log], summary, ranges)
        assert_no_children()
        messages.add(str(caught.value))
    assert len(messages) == 1
    assert messages.pop().startswith(f"parse: {log} is not UTF-8: line 26:")


def padded_log(path: Path, before: bytes, after: bytes) -> Path:
    """A log of ``before`` then ``after``, padded so that its size is twice
    the length of what precedes ``after``: read in two ranges, the second
    range's offset is the first byte of ``after``. Short ``after`` gets
    trailing spaces; a short ``before`` gets a whitespace-only first line."""
    pad = len(before) - len(after)
    if pad >= 0:
        after += b" " * pad
    else:
        before = b" " * (-pad - 1) + b"\n" + before
    path.write_bytes(before + after)
    assert path.stat().st_size == 2 * len(before)
    return path


def raw_line(n: int, steps: int = 3) -> bytes:
    return episode_line(f"e-{n}", steps=steps).encode()


def crlf_inside(n: int) -> bytes:
    """An episode line with a carriage return between two JSON tokens."""
    return raw_line(n).replace(b'","', b'",\r"', 1)


# Each case: the bytes before the second range's offset, and those from it on.
OFFSETS = {
    "on_a_line_start": (
        raw_line(1) + b"\n" + raw_line(2) + b"\n", raw_line(3) + b"\n" + raw_line(4) + b"\n"),
    "on_a_line_feed": (raw_line(1) + b"\n" + raw_line(2), b"\n" + raw_line(3) + b"\n"),
    "one_byte_into_a_line": (
        raw_line(1) + b"\n" + raw_line(2)[:1], raw_line(2)[1:] + b"\n" + raw_line(3) + b"\n"),
    "inside_a_line_longer_than_the_range": (
        raw_line(1) + b"\n" + raw_line(2, steps=60)[:50], raw_line(2, steps=60)[50:] + b"\n"),
    "inside_a_long_middle_line": (
        raw_line(1) + b"\n" + raw_line(2, steps=60)[:-2000],
        raw_line(2, steps=60)[-2000:] + b"\n" + raw_line(3) + b"\n"),
    "in_the_last_line_without_a_line_feed": (
        raw_line(1) + b"\n" + raw_line(2)[:40], raw_line(2)[40:]),
    "among_blank_and_whitespace_lines": (
        raw_line(1) + b"\n\n \t\n\n",
        b"\n   \n\n" + raw_line(2) + b"\n\n\t \n" + raw_line(3) + b"\n"),
    "after_blank_lines_before_lines_named_by_number": (
        raw_line(1) + b"\n\n \t\n\n",
        b'{"broken\n' + unlabeled_line(2).encode() + b"\n" + raw_line(1) + b"\n"),
    "just_after_a_crlf": (raw_line(1) + b"\r\n", raw_line(2) + b"\r\n" + raw_line(3) + b"\r\n"),
    "between_a_carriage_return_and_its_line_feed": (
        raw_line(1) + b"\r", b"\n" + raw_line(2) + b"\r\n" + raw_line(3) + b"\r\n"),
    "just_after_a_carriage_return_inside_a_line": (
        raw_line(1) + b"\n" + crlf_inside(2).partition(b"\r")[0] + b"\r",
        crlf_inside(2).partition(b"\r")[2] + b"\n" + raw_line(3) + b"\n"),
}


@pytest.mark.parametrize("case", sorted(OFFSETS))
def test_a_range_offset_anywhere_reads_the_same_log(tmp_path, case):
    """Wherever a range's offset lands, each line is read once, by the range
    its first byte is in, with its own line number; and the first range's
    sha256 and line count describe the whole log."""
    log = padded_log(tmp_path / "log.jsonl", *OFFSETS[case])
    logs = load_all([log])
    data = log.read_bytes()
    assert logs.inputs == [{
        "path": str(log), "sha256": hashlib.sha256(data).hexdigest(),
        "lines": sum(1 for raw in data.split(b"\n") if raw.strip()),
    }]
    assert logs.summaries or logs.reports


def rchar() -> int:
    """Bytes this thread has read through read system calls so far. Not the
    process's count (/proc/self/io): Linux adds a reaped child's reads to
    that, so it would count what the workers read too."""
    with open("/proc/thread-self/io", encoding="ascii") as fh:
        return next(int(row.split()[1]) for row in fh if row.startswith("rchar:"))


@pytest.mark.skipif(not os.path.exists("/proc/thread-self/io"),
                    reason="needs /proc/thread-self/io")
def test_the_calling_process_reads_each_log_byte_once(tmp_path, monkeypatch):
    """It forks every worker before it reads a byte of the log, and then
    reads the log once: its own range, then the rest for the hash. The
    workers' items here are a few bytes each, so reading them back stays
    well inside one block."""
    log = write_log(tmp_path / "log.jsonl",
                    [episode_line(f"e-{i}", steps=40) for i in range(100)])
    size = log.stat().st_size
    assert size > 4 * report._HASH_BLOCK
    fork, at_fork = os.fork, []

    def first_fork():
        if not at_fork:
            at_fork.append(rchar())
        return fork()

    monkeypatch.setattr(os, "fork", first_fork)
    use_ranges(monkeypatch, 2)
    start = rchar()
    logs = _load_logs([log], lambda episode, *columns: None)
    end = rchar()
    assert_no_children()
    assert logs.counts()["parsed"] == 100
    assert at_fork[0] - start < 1024
    assert end - start <= size + report._HASH_BLOCK


def process_rchar() -> int:
    """Bytes this process has read through read system calls so far,
    including those of the children it has reaped: Linux adds a reaped
    child's counts to its parent's."""
    with open("/proc/self/io", encoding="ascii") as fh:
        return next(int(row.split()[1]) for row in fh if row.startswith("rchar:"))


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs /proc/self/io")
@pytest.mark.parametrize("ranges, not_utf8", [(2, False), (3, False), (7, False),
                                              (2, True), (3, True), (7, True)],
                         ids=["2", "3", "7", "not_utf8-2", "not_utf8-3", "not_utf8-7"])
def test_each_range_reads_only_its_own_bytes(tmp_path, monkeypatch, ranges, not_utf8):
    """The calling process reads the log once (its range, then the rest for
    the hash) and each worker its own range, plus at most a block around
    each range's start and end; no range reads the bytes before its offset
    to number its lines, not even to refuse a line that is not UTF-8 in the
    last range. Then the calling process reads back the workers' pickles.
    So n ranges read at most (2 - 1/n) times the log's size, n blocks and
    the pickles' bytes."""
    lines = [episode_line(f"e-{i}", steps=40) for i in range(400)]
    if not_utf8:
        lines[-1] = lines[-1].replace("e-399", "e-\udcff")
    log = tmp_path / "log.jsonl"
    log.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))
    size = log.stat().st_size
    assert ranges * report._HASH_BLOCK < size / 4
    pickled, reap = [], report._reap

    def measured_reap(workers):
        pickled.extend(os.fstat(w.out.fileno()).st_size for w in workers if w is not None)
        reap(workers)

    monkeypatch.setattr(report, "_reap", measured_reap)
    if not_utf8:
        with pytest.raises(InputError) as one_range:
            load([log], summary, 1)
    use_ranges(monkeypatch, ranges)
    start = process_rchar()
    if not_utf8:
        with pytest.raises(InputError) as caught:
            _load_logs([log], lambda episode, *columns: None)
        assert str(caught.value) == str(one_range.value)
        assert str(caught.value).startswith(f"parse: {log} is not UTF-8: line 400:")
    else:
        assert _load_logs([log], lambda episode, *columns: None).counts()["parsed"] == 400
    read = process_rchar() - start
    assert_no_children()
    assert len(pickled) == ranges - 1
    assert read <= (2 - 1 / ranges) * size + ranges * report._HASH_BLOCK + sum(pickled)


@pytest.mark.parametrize("ranges", RANGE_COUNTS)
def test_a_log_that_grows_during_the_read_is_read_as_it_was(tmp_path, ranges):
    """A line appended once the read has begun is not read, and the log's
    sha256 and line count describe the bytes that were."""
    log = write_log(tmp_path / "log.jsonl",
                    [episode_line(f"e-{i}", steps=10) for i in range(30)])
    original = log.read_bytes()
    expected = load([log], summary, 1)
    parent, grown = os.getpid(), []

    def summarize(episode, *columns):
        if os.getpid() == parent and not grown:
            grown.append(episode.episode_id)
            with open(log, "ab") as fh:
                fh.write(episode_line("late").encode() + b"\n")
        return summary(episode, *columns)

    logs = load([log], summarize, ranges)
    assert_no_children()
    assert grown == ["e-0"]
    assert log.read_bytes() != original
    assert logs == expected
    assert logs.inputs == [{"path": str(log), "sha256": hashlib.sha256(original).hexdigest(),
                            "lines": 30}]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_log_that_is_a_pipe_is_refused_not_read_as_empty():
    """A pipe's size reads 0 whatever it holds, so ranges bounded by it
    would read nothing; the reader refuses it, as it always has."""
    read, write = os.pipe()
    try:
        os.write(write, (episode_line("e-1") + "\n").encode())
        os.close(write)
        with pytest.raises(OSError, match="not seekable"):
            _load_logs([f"/dev/fd/{read}"], summary)
    finally:
        os.close(read)

class Boom(Exception):
    pass


@pytest.mark.parametrize("batch", [1, 2, report._PICKLE_BATCH])
@pytest.mark.parametrize("error", [InputError, PipelineError, Boom, MemoryError])
def test_an_exception_in_a_worker_is_raised_in_the_parent(tmp_path, monkeypatch, error, batch):
    """Also when the worker's last list of items is cut short by it."""
    monkeypatch.setattr(report, "_PICKLE_BATCH", batch)
    lines = [episode_line(f"e-{i}", steps=10) for i in range(30)]
    log = write_log(tmp_path / "log.jsonl", lines)

    def summarize(episode, *columns):
        if episode.episode_id in ("e-20", "e-27"):
            raise error(f"cannot summarize {episode.episode_id}")
        return episode.episode_id

    for ranges in RANGE_COUNTS:
        with pytest.raises(error, match="^cannot summarize e-20$"):
            load([log], summarize, ranges)
        assert_no_children()


@pytest.mark.parametrize("batch", [1, 2, 7])
def test_any_pickle_batch_folds_to_the_same_logs(tmp_path, monkeypatch, batch):
    """A worker pickles its items in lists of ``_PICKLE_BATCH``; lists of any
    size, the last one cut short by the range's end, give the same logs."""
    monkeypatch.setattr(report, "_PICKLE_BATCH", batch)
    lines = [LINE_KINDS[kind](n) for n, kind in enumerate(sorted(LINE_KINDS) * 5)]
    load_all([write_log(tmp_path / "kinds.jsonl", lines)])


def test_a_worker_s_episodes_share_their_repeated_values(tmp_path):
    """Within one range, equal task, model, scaffold, termination and outcome
    values are one object, and those a worker read stay so when read back:
    at most one object per value and range, not one per episode."""
    lines = [episode_line(f"e-{i}", steps=0, model_id=f"m{i % 2}",
                          scaffold=("react", "memory")[i % 2],
                          termination=("finished", "step_limit")[i % 2], passed=bool(i % 2))
             for i in range(60)]
    log = write_log(tmp_path / "log.jsonl", lines)
    episodes = load([log], lambda episode, *columns: episode, 3).summaries
    assert len(episodes) == 60
    for name in ("task_id", "model_id", "scaffold", "termination", "subtask_outcomes"):
        values = [getattr(ep, name) for ep in episodes]
        assert len({id(v) for v in values}) <= 3 * len(set(values)), name


def test_an_exception_on_a_duplicate_is_raised(tmp_path):
    """Every parsed episode is summarized, duplicates too, so what
    ``summarize`` raises on a duplicate stops the read at every range count."""
    lines = [episode_line(f"e-{i}", steps=10) for i in range(30)]
    lines.append(episode_line("e-0", model_id="copy"))
    log = write_log(tmp_path / "log.jsonl", lines)

    def summarize(episode, *columns):
        if episode.model_id == "copy":
            raise Boom("duplicate summarized")
        return episode.episode_id

    for ranges in RANGE_COUNTS:
        with pytest.raises(Boom, match="^duplicate summarized$"):
            load([log], summarize, ranges)
        assert_no_children()


def test_a_worker_that_dies_is_a_pipeline_error(tmp_path):
    lines = [episode_line(f"e-{i}", steps=10) for i in range(30)]
    log = write_log(tmp_path / "log.jsonl", lines)
    parent = os.getpid()

    def summarize(episode, *columns):
        if episode.episode_id == "e-29" and os.getpid() != parent:
            os._exit(7)
        return episode.episode_id

    with pytest.raises(PipelineError, match="exited with status 7"):
        load([log], summarize, 3)
    assert_no_children()


def test_an_error_in_the_first_range_stops_every_worker(tmp_path):
    lines = [episode_line(f"e-{i}", steps=10) for i in range(30)]
    log = write_log(tmp_path / "log.jsonl", lines)

    def summarize(episode, *columns):
        if episode.episode_id == "e-0":
            raise Boom("first")
        return episode.episode_id

    with pytest.raises(Boom):
        load([log], summarize, 7)
    assert_no_children()


MIN_RANGE = 100


@pytest.mark.parametrize("size, cpus, case, expected", [
    (0, 8, None, 1),
    (MIN_RANGE - 1, 8, None, 1),
    (MIN_RANGE, 8, None, 1),
    (4 * MIN_RANGE - 1, 8, None, 3),
    (10 * MIN_RANGE, 2, None, 2),
    (10 * MIN_RANGE, 8, None, 8),
    (10 * MIN_RANGE, 1, None, 1),
    (10 * MIN_RANGE, 2, "no_affinity", 2),
    (10 * MIN_RANGE, 8, "no_fork", 1),
    (10 * MIN_RANGE, 8, "thread", 1),
], ids=["empty", "below_one_range", "one_range", "capped_by_size", "capped_by_cpus",
        "one_per_cpu", "one_cpu", "cpu_count", "no_fork", "thread"])
def test_the_range_count(monkeypatch, size, cpus, case, expected):
    """One range per usable CPU, each at least ``_MIN_RANGE_BYTES``, and one
    wherever a worker cannot be forked."""
    monkeypatch.setattr(report, "_MIN_RANGE_BYTES", MIN_RANGE)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    if case == "no_affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if case == "no_fork":
        monkeypatch.delattr(os, "fork")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "thread":
        thread.start()
    try:
        assert report._range_count(size) == expected
    finally:
        stop.set()
        if case == "thread":
            thread.join(timeout=10)
    assert not thread.is_alive()


def test_one_range_forks_nothing(tmp_path, monkeypatch):
    lines = [episode_line(f"e-{i}", steps=10) for i in range(30)]
    log = write_log(tmp_path / "log.jsonl", lines)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    expected = load([log], summary, 1)
    # A log below the minimum range size, on any number of CPUs.
    with pytest.MonkeyPatch.context() as cpus:
        cpus.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert _load_logs([log], summary) == expected
    # While another Python thread runs, at any size and number of CPUs.
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert load([log], summary, 3) == expected
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_failed_fork_reads_the_range_in_the_parent(tmp_path, monkeypatch):
    lines = [episode_line(f"e-{i}", steps=10) for i in range(30)]
    log = write_log(tmp_path / "log.jsonl", lines)
    expected = load([log], summary, 1)

    def no_fork():
        raise BlockingIOError("no process left")

    monkeypatch.setattr(os, "fork", no_fork)
    assert load([log], summary, 3) == expected


def test_the_fork_warning_is_never_shown(tmp_path, monkeypatch):
    """Python 3.12 and later warn on a fork while another OS thread runs
    (numpy's BLAS threads do); the warning must not reach the CLI."""
    fork = os.fork

    def warning_fork():
        warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks",
                      DeprecationWarning, stacklevel=2)
        return fork()

    lines = [episode_line(f"e-{i}", steps=10) for i in range(30)]
    log = write_log(tmp_path / "log.jsonl", lines)
    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load([log], summary, 3) == load([log], summary, 1)
    assert_no_children()


@pytest.fixture
def corpus(tmp_path):
    """A log large enough for several ranges, its registry, pricing and labels."""
    tasks = [make_task(f"t-{b}", bucket=b) for b in ("short", "medium", "long", "very_long")]
    episodes = [make_episode(f"ep-{e:03d}", tasks[e % 4], passed=e % 3 == 0,
                             steps=[make_step(i, f"tool-{(i * (e % 5 + 1)) % 7}", args={"i": i})
                                    for i in range(1, 31)])
                for e in range(60)]
    lines = [serialize_episode(ep) for ep in episodes]
    lines[7] = '{"broken'
    lines[40] = lines[3]
    write_log(tmp_path / "episodes.jsonl", lines)
    write_log(tmp_path / "tasks.jsonl", [serialize_task(t) for t in tasks])
    (tmp_path / "pricing.jsonl").write_text(PRICING, encoding="utf-8")
    write_log(tmp_path / "labels.jsonl", [
        json.dumps({"episode_id": ep.episode_id, "meltdown": not ep.passed})
        for ep in episodes])
    return tmp_path


COMMANDS = {
    "analyze": ["analyze", "--registry", "tasks.jsonl", "--pricing", "pricing.jsonl",
                "--bootstrap-b", "0", "--emit-series"],
    "mop": ["mop"],
    "mop_f1": ["mop", "--calibrate", "f1", "--labels", "labels.jsonl"],
    "cost": ["cost", "--pricing", "pricing.jsonl"],
    "validate": ["validate", "--registry", "tasks.jsonl"],
}


def run_cli(corpus: Path, argv: list[str], out: str, monkeypatch, capsys, ranges: int):
    """Exit code, stdout, stderr and output files of one CLI run with every
    log read in ``ranges`` ranges."""
    use_ranges(monkeypatch, ranges)
    monkeypatch.chdir(corpus)
    capsys.readouterr()
    code = main([argv[0], "--logs", "episodes.jsonl", *argv[1:],
                 *(["--out", out] if argv[0] in ("analyze",) else [])])
    captured = capsys.readouterr()
    assert_no_children()
    files = {p.relative_to(corpus / out).as_posix(): p.read_bytes()
             for p in sorted((corpus / out).rglob("*")) if p.is_file()}
    return code, captured.out.replace(out, "OUT"), captured.err, files


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_writes_the_same_bytes_at_every_range_count(
        corpus, command, monkeypatch, capsys):
    runs = [run_cli(corpus, COMMANDS[command], f"out-{ranges}", monkeypatch, capsys, ranges)
            for ranges in RANGE_COUNTS]
    assert runs[0][0] == (2 if command == "validate" else 0)
    for run in runs[1:]:
        assert run == runs[0]


@pytest.mark.parametrize("error, code", [(InputError, 2), (PipelineError, 3), (Boom, 3)])
def test_a_worker_exception_keeps_its_exit_code(corpus, error, code, monkeypatch, capsys):
    price = report._episode_cost

    def failing(episode, *args):
        if episode.episode_id == "ep-050":
            raise error("no price today")
        return price(episode, *args)

    monkeypatch.setattr(report, "_episode_cost", failing)
    runs = [run_cli(corpus, COMMANDS["analyze"], f"out-{ranges}", monkeypatch, capsys, ranges)
            for ranges in RANGE_COUNTS]
    assert {run[0] for run in runs} == {code}
    assert len({run[2] for run in runs}) == 1
    assert "no price today" in runs[0][2]
