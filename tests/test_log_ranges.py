"""Reading each episode log in byte ranges, one per worker process.

``report._load_logs`` reads a log's first range in the calling process and
each other range in a forked worker, then folds every range's items in line
order. Its private ``_ranges`` argument forces the number of ranges; these
tests check that the result never depends on it, and that no worker is left
running or unreaped after a success or an error.
"""
from __future__ import annotations

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


def assert_no_children() -> None:
    """No worker is left to run or to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def episode_line(episode_id: str, steps: int = 3, **kwargs) -> str:
    return serialize_episode(make_episode(
        episode_id, TASK, steps=[make_step(i, f"tool-{i % 3}", args={"n": i})
                                 for i in range(1, steps + 1)], **kwargs))


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
}


def write_log(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def summary(episode):
    """Everything of an episode but its steps, and a digest of them."""
    return (report._without_steps(episode),
            tuple((s.tool, s.args_canonical, s.tokens_in) for s in episode.steps))


def load_all(paths, summarize=summary):
    """The loader's result at every range count, checking that each is the
    one-range result and that no worker outlives the call."""
    results = []
    for ranges in RANGE_COUNTS:
        logs = _load_logs(paths, summarize, _ranges=ranges)
        assert_no_children()
        results.append((logs.summaries, logs.reports, logs.inputs))
    for ranges, result in zip(RANGE_COUNTS[1:], results[1:]):
        assert result == results[0], f"{ranges} ranges differ from one"
    return _load_logs(paths, summarize, _ranges=1)


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


def test_blank_and_bad_lines_keep_their_numbers_in_every_range(tmp_path):
    lines = []
    for i in range(40):
        lines += [episode_line(f"e-{i}", steps=10), "", '{"broken',
                  episode_line(f"i-{i}", termination="infra_error")]
    logs = load_all([write_log(tmp_path / "log.jsonl", lines)])
    assert [r.episode_id for r in logs.reports if r.fatal] == [
        f"<line {4 * i + 3}>" for i in range(40)]
    assert sum(1 for r in logs.reports if r.warnings) == 40
    assert logs.counts()["log_lines"] == 120


def test_a_line_that_is_not_utf8_in_a_later_range_is_the_same_error(tmp_path):
    log = tmp_path / "log.jsonl"
    lines = [episode_line(f"e-{i}", steps=10).encode() for i in range(30)]
    lines[25] = b'{"episode_id": "\xff"}'
    log.write_bytes(b"\n".join(lines) + b"\n")
    messages = set()
    for ranges in RANGE_COUNTS:
        with pytest.raises(InputError) as caught:
            _load_logs([log], summary, _ranges=ranges)
        assert_no_children()
        messages.add(str(caught.value))
    assert len(messages) == 1
    assert messages.pop().startswith(f"parse: {log} is not UTF-8: line 26:")


class Boom(Exception):
    pass


@pytest.mark.parametrize("error", [InputError, PipelineError, Boom, MemoryError])
def test_an_exception_in_a_worker_is_raised_in_the_parent(tmp_path, error):
    lines = [episode_line(f"e-{i}", steps=10) for i in range(30)]
    log = write_log(tmp_path / "log.jsonl", lines)

    def summarize(episode):
        if episode.episode_id in ("e-20", "e-27"):
            raise error(f"cannot summarize {episode.episode_id}")
        return episode.episode_id

    for ranges in RANGE_COUNTS:
        with pytest.raises(error, match="^cannot summarize e-20$"):
            _load_logs([log], summarize, _ranges=ranges)
        assert_no_children()


def test_an_exception_on_a_dropped_duplicate_is_not_raised(tmp_path):
    """Every parsed episode is summarized, but what ``summarize`` raised on
    a duplicate is dropped with it: only a kept episode's exception counts."""
    lines = [episode_line(f"e-{i}", steps=10) for i in range(30)]
    lines.append(episode_line("e-0", model_id="copy"))
    log = write_log(tmp_path / "log.jsonl", lines)

    def summarize(episode):
        if episode.model_id == "copy":
            raise Boom("duplicate summarized")
        return episode.episode_id

    for ranges in RANGE_COUNTS:
        assert _load_logs([log], summarize, _ranges=ranges).counts()["duplicates"] == 1
        assert_no_children()


def test_a_worker_that_dies_is_a_pipeline_error(tmp_path):
    lines = [episode_line(f"e-{i}", steps=10) for i in range(30)]
    log = write_log(tmp_path / "log.jsonl", lines)
    parent = os.getpid()

    def summarize(episode):
        if episode.episode_id == "e-29" and os.getpid() != parent:
            os._exit(7)
        return episode.episode_id

    with pytest.raises(PipelineError, match="exited with status 7"):
        _load_logs([log], summarize, _ranges=3)
    assert_no_children()


def test_an_error_in_the_first_range_stops_every_worker(tmp_path):
    lines = [episode_line(f"e-{i}", steps=10) for i in range(30)]
    log = write_log(tmp_path / "log.jsonl", lines)

    def summarize(episode):
        if episode.episode_id == "e-0":
            raise Boom("first")
        return episode.episode_id

    with pytest.raises(Boom):
        _load_logs([log], summarize, _ranges=7)
    assert_no_children()


def test_one_range_forks_nothing(tmp_path, monkeypatch):
    lines = [episode_line(f"e-{i}", steps=10) for i in range(30)]
    log = write_log(tmp_path / "log.jsonl", lines)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    expected = _load_logs([log], summary, _ranges=1)
    # A log below the minimum range size, on any number of CPUs.
    assert _load_logs([log], summary) == expected
    # While another Python thread runs, even a forced range count.
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _load_logs([log], summary, _ranges=3) == expected
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_failed_fork_reads_the_range_in_the_parent(tmp_path, monkeypatch):
    lines = [episode_line(f"e-{i}", steps=10) for i in range(30)]
    log = write_log(tmp_path / "log.jsonl", lines)
    expected = _load_logs([log], summary, _ranges=1)

    def no_fork():
        raise BlockingIOError("no process left")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _load_logs([log], summary, _ranges=3) == expected


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
        assert _load_logs([log], summary, _ranges=3) == _load_logs([log], summary, _ranges=1)
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
    monkeypatch.setattr(report, "_range_count", lambda path, forced: ranges)
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

    def failing(episode, prices):
        if episode.episode_id == "ep-050":
            raise error("no price today")
        return price(episode, prices)

    monkeypatch.setattr(report, "_episode_cost", failing)
    runs = [run_cli(corpus, COMMANDS["analyze"], f"out-{ranges}", monkeypatch, capsys, ranges)
            for ranges in RANGE_COUNTS]
    assert {run[0] for run in runs} == {code}
    assert len({run[2] for run in runs}) == 1
    assert "no price today" in runs[0][2]
