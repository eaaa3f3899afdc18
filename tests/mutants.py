"""A catalogue of deliberate bugs (mutants), each of which the tests must catch.

Each mutant replaces one exact snippet of one module of ``src/reliakit`` and
names the tests that must fail on it. For each mutant, the runner copies
``src/`` to a temporary directory, applies the mutant there, and runs its
tests with ``PYTHONPATH`` at the copy. The mutant is killed when pytest
exits 1 (tests failed). Every other outcome fails the run:

- a snippet that does not occur exactly once, so a refactor ports its
  mutants instead of dropping them silently;
- a mutated module that does not compile;
- a copy that is not the ``reliakit`` the tests import;
- pytest exit 0, a surviving mutant;
- any other pytest exit: interrupted, internal, usage or collection error,
  or no tests collected.

Run it from anywhere, on every mutant or on those named::

    python tests/mutants.py [NAME ...]

It exits 0 when every mutant run is killed, 1 otherwise, and 2 on an
unknown name. The standard library is all it needs, besides pytest itself.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# A mutant whose tests run longer than this is a runner error, not a kill.
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/reliakit
    snippet: str  # must occur exactly once in the module
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("onset_too_short_below_w", "meltdown.py",
           "    return None, len(levels) <= w\n",
           "    return None, len(levels) < w\n",
           ("tests/test_meltdown.py::test_a_short_episode_is_too_short_on_every_path",
            "tests/test_mop_oracle.py")),
    Mutant("onset_level_not_strict", "meltdown.py",
           "        if h > theta_h and h - levels[i - w] > delta:\n",
           "        if h >= theta_h and h - levels[i - w] > delta:\n",
           ("tests/test_mop_oracle.py",)),
    Mutant("window_drops_the_wrong_tool", "meltdown.py",
           "    for entering, leaving in zip(tools[w:], tools):\n",
           "    for entering, leaving in zip(tools[w:], tools[1:]):\n",
           ("tests/test_mop_oracle.py",)),
    Mutant("median_onset_upper", "meltdown.py",
           "events[(len(events) - 1) // 2]",
           "events[len(events) // 2]",
           ("tests/test_meltdown.py::TestMeltdownTable", "tests/test_mop_oracle.py")),
    Mutant("f1_tie_prefers_the_higher_theta", "meltdown.py",
           "(f1, -theta, -delta) > (best.f1, -best.theta_h, -best.delta)",
           "(f1, theta, -delta) > (best.f1, best.theta_h, -best.delta)",
           ("tests/test_mop_oracle.py",)),
    Mutant("fold_without_line_offset", "report.py",
           "(item[0] + before, *item[1:])",
           "(item[0], *item[1:])",
           ("tests/test_log_ranges.py",)),
    Mutant("not_utf8_numbered_within_its_range", "report.py",
           " line {item[0]}: {item[2]}",
           " line {item[0] - before}: {item[2]}",
           ("tests/test_log_ranges.py::test_a_line_that_is_not_utf8_in_a_later_range_is_the_same_error",)),
    Mutant("args_memo_keeps_the_raw_string", "trajectory.py",
           "                canonical = args_seen[args] = args if canonical == args else canonical\n",
           "                args_seen[args] = args\n",
           ("tests/test_parse_oracle.py",)),
    Mutant("tool_names_not_shared", "trajectory.py",
           "ToolStep(pos, tools_seen.setdefault(tool, tool), canonical,",
           "ToolStep(pos, tool, canonical,",
           ("tests/test_parse_oracle.py::test_equal_tool_names_are_one_object_across_episodes",)),
    Mutant("bool_step_index_accepted", "trajectory.py",
           "if (index != _POSITIONS[:len(raw)] or set(map(type, index)) != _INT\n",
           "if (index != _POSITIONS[:len(raw)]\n",
           ("tests/test_parse_oracle.py",)),
    Mutant("no_within_file_dedup", "trajectory.py",
           "        seen.add(episode_id)\n",
           "",
           ("tests/test_parse_oracle.py",)),
    Mutant("no_cross_log_dedup", "trajectory.py",
           "        if episode_id in kept:\n",
           "        if False:\n",
           ("tests/test_log_ranges.py::test_a_duplicate_of_an_earlier_range_keeps_the_in_file_wording",
            "tests/test_pipeline_oracle.py")),
    Mutant("infra_warning_before_the_cross_log_decision", "trajectory.py",
           "        if episode_id in kept:\n",
           "        if infra:\n"
           "            reports.append(ValidationReport(episode_id=episode_id, warnings=(ValidationIssue(\n"
           "                \"infra_excluded\",\n"
           "                \"infrastructure failure: retained in storage, excluded from metric\"\n"
           "                \" denominators\"),)))\n"
           "            infra = False\n"
           "        if episode_id in kept:\n",
           ("tests/test_log_ranges.py::test_a_cross_log_duplicate_of_an_infra_failure_is_only_a_duplicate",
            "tests/test_pipeline_oracle.py")),
    Mutant("cross_log_duplicates_ahead_of_the_logs_reports", "trajectory.py",
           "    return payloads, reports + earlier\n",
           "    return payloads, earlier + reports\n",
           ("tests/test_log_ranges.py::test_a_logs_cross_log_duplicates_come_after_its_own_reports",)),
    Mutant("record_fields_out_of_episode_order", "trajectory.py",
           "    repeat_index: int\n    nudges_used: int\n",
           "    nudges_used: int\n    repeat_index: int\n",
           ("tests/test_parse_oracle.py::test_parse_equals_reference",
            "tests/test_log_ranges.py::test_every_range_count_returns_the_same_logs")),
    Mutant("record_never_an_infra_failure", "trajectory.py",
           "    is_infra_failure = Episode.is_infra_failure\n",
           "    is_infra_failure = False\n",
           ("tests/test_log_ranges.py::test_a_logs_cross_log_duplicates_come_after_its_own_reports",
            "tests/test_parse_oracle.py::test_parse_equals_reference")),
    Mutant("count_rows_distinct_only_in_every_level", "metrics.py",
           "(ordered[:, 1:] != ordered[:, :-1]).any(axis=0)",
           "(ordered[:, 1:] != ordered[:, :-1]).all(axis=0)",
           ("tests/test_bootstrap_oracle.py::test_pool_variances_equal_the_per_row_loop",)),
    Mutant("missed_rows_all_take_the_first_rows_variance", "metrics.py",
           "_level_pvar(levels, rows[r])",
           "_level_pvar(levels, rows[0])",
           ("tests/test_bootstrap_oracle.py::test_pool_variances_equal_the_per_row_loop",)),
    Mutant("percentile_upper_neighbour_is_the_lower", "metrics.py",
           "else i + 1 for v, i in zip(virtual, below)]",
           "else i for v, i in zip(virtual, below)]",
           ("tests/test_bootstrap_oracle.py::test_percentile_equals_np_percentile",)),
    Mutant("resample_key_big_endian", "rng.py",
           '_key(seed, tag, r).to_bytes(16, "little")',
           '_key(seed, tag, r).to_bytes(16, "big")',
           ("tests/test_bootstrap_oracle.py::test_resample_rows_match_substream_draws",)),
)


def run(mutant: Mutant) -> tuple[bool, str]:
    """Whether ``mutant`` is killed, and what happened."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "reliakit" / mutant.module
        text = path.read_text(encoding="utf-8")
        count = text.count(mutant.snippet)
        if count != 1:
            return False, f"runner error: the snippet occurs {count} times in {mutant.module}"
        text = text.replace(mutant.snippet, mutant.replacement)
        try:
            compile(text, str(path), "exec")
        except SyntaxError as exc:
            return False, f"runner error: the mutated module does not compile: {exc}"
        path.write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import reliakit; print(reliakit.__file__)"],
            cwd=ROOT, env=env, capture_output=True, text=True)
        if Path(where.stdout.strip()).parent != src / "reliakit":
            return False, f"runner error: the tests import reliakit from {where.stdout.strip()!r}"
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 *mutant.tests],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"runner error: the tests ran past {TIMEOUT_S} s"
        if result.returncode == 1:
            return True, "killed"
        if result.returncode == 0:
            return False, "survived"
        tail = "\n".join(result.stdout.splitlines()[-5:])
        return False, f"runner error: pytest exited {result.returncode}\n{tail}"


def main(names: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(by_name)}",
              file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in names] or list(MUTANTS)
    killed = 0
    for mutant in chosen:
        start = time.perf_counter()
        was_killed, outcome = run(mutant)
        killed += was_killed
        print(f"{mutant.name}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{killed} of {len(chosen)} mutants killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
