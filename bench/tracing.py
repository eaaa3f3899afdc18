"""Spans around the public calls into each reliakit layer, recorded from
outside the package by rebinding module attributes.

A span is (rep, id, parent id, name, start ns, end ns); spans of one CLI
invocation share ``rep``. Counts (episodes, steps, resamples, bytes) are
taken at the same boundaries after the span closes, and the time spent
taking them is itself a ``trace.count`` span, so it never inflates the
self time of the caller. Nothing is written until the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from reliakit.meltdown import MopConfig


def _steps(source) -> int:
    return len(getattr(source, "steps", source))


def _parse_counts(a, result):
    episodes = result[0]
    return {"accepted": len(episodes),
            "steps": sum(len(ep.steps) for ep in episodes),
            "args": {s.args_canonical for ep in episodes for s in ep.steps}}


def _detect_counts(a, result):
    steps = _steps(a["source"])
    w = (a["config"] or MopConfig()).window_w
    return {"steps": steps, "examined": 1, "eligible": int(steps >= 2 * w)}


def _calibrate_counts(a, result):
    eligible = sum(1 for source, _ in a["labeled"] if _steps(source) >= 2 * a["w"])
    return {"examined": len(a["labeled"]), "eligible": eligible,
            "onset_scans": len(a["grid_theta"]) * len(a["grid_delta"]) * eligible}


def _emit_counts(a, result):
    return {"bytes": sum(Path(p).stat().st_size for p in set(result))}


# (module, function, counts from (bound arguments, result) or None). These
# are the public calls the CLI makes into each layer, directly or through
# another layer.
LAYERS = (
    ("trajectory", "parse_episode_log", _parse_counts),
    ("trajectory", "load_task_registry", None),
    ("trajectory", "cross_validate", None),
    ("metrics", "rdc", None),
    ("metrics", "outcome_groups", None),
    ("metrics", "vaf", None),
    ("metrics", "bootstrap_ci", lambda a, r: {"resamples": a["b"]}),
    ("metrics", "domain_stratify", None),
    ("metrics", "scaffold_delta", None),
    ("rng", "substream", None),
    ("meltdown", "meltdown_table", None),
    ("meltdown", "detect_mop", _detect_counts),
    ("meltdown", "entropy_series", lambda a, r: {"steps": _steps(a["trajectory"])}),
    ("meltdown", "calibrate_mop_f1", _calibrate_counts),
    ("report", "run_pipeline", None),
    ("report", "compute_cost", None),
    ("report", "emit_report", _emit_counts),
    ("cli", "main", None),
)

SPAN_FIELDS = ("rep", "id", "parent", "name", "start_ns", "end_ns")


@contextmanager
def _rebound(replacements: dict) -> Iterator[None]:
    """Rebind every reliakit module attribute that is a key of
    ``replacements`` (modules import each other's functions by name, so one
    function can be bound in several modules), and restore them on exit."""
    undo = []
    for name, module in list(sys.modules.items()):
        if name != "reliakit" and not name.startswith("reliakit."):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value) and value in replacements:
                undo.append((module, attr, value))
                setattr(module, attr, replacements[value])
    try:
        yield
    finally:
        for module, attr, value in undo:
            setattr(module, attr, value)


def _original(module: str, function: str) -> Callable:
    return getattr(sys.modules[f"reliakit.{module}"], function)


class Tracer:
    """Spans and counts of the LAYERS calls made while ``installed``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: list[tuple[int, str, dict]] = []  # (rep, span name, counts)
        self.rep = 0
        self._ids = itertools.count()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, counts, stack, ids = self.spans, self.counts, self._stack, self._ids
        clock = time.perf_counter_ns
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.rep, span_id, parent, name, start, end))
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.append((self.rep, name, count(bound.arguments, result)))
                spans.append((self.rep, next(ids), parent, "trace.count", end, clock()))
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        wrappers = {}
        for module, function, count in LAYERS:
            fn = _original(module, function)
            wrappers[fn] = self._wrap(f"{module}.{function}", fn, count)
        with _rebound(wrappers):
            yield


@contextmanager
def parse_alloc_peaks(peaks: list[int]) -> Iterator[None]:
    """Append the tracemalloc peak (bytes) of every parse_episode_log call.
    Tracing starts and stops around each call, so nothing else is slowed."""
    fn = _original("trajectory", "parse_episode_log")

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    with _rebound({fn: traced}):
        yield


def layer_metrics(spans: list[tuple], counts: list[tuple[str, dict]],
                  log_records: int) -> dict[str, float]:
    """Per-layer metrics of one traced CLI invocation.

    ``X.s`` is the total time inside calls to X, children included, except
    ``metrics.vaf.s``, which leaves out the bootstrap it calls. An
    ``unattributed_s`` is self time: the span minus its traced children.
    Time spent taking counts is left out of both.
    Rates and ratios read 0 where the layer does no such work.
    """
    parent_of = {span_id: parent for _, span_id, parent, _, _, _ in spans}
    child_ns: dict[int, int] = {}
    count_ns: dict[int, int] = {}  # trace.count time nested anywhere inside a span
    for _, span_id, parent, name, start, end in spans:
        child_ns[parent] = child_ns.get(parent, 0) + end - start
        if name == "trace.count":
            while parent != -1:
                count_ns[parent] = count_ns.get(parent, 0) + end - start
                parent = parent_of[parent]
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    n_calls: dict[str, int] = {}
    for _, span_id, _, name, start, end in spans:
        total[name] = total.get(name, 0) + end - start - count_ns.get(span_id, 0)
        self_ns[name] = self_ns.get(name, 0) + end - start - child_ns.get(span_id, 0)
        n_calls[name] = n_calls.get(name, 0) + 1

    def s(name: str) -> float:
        return total.get(name, 0) / 1e9

    def self_s(name: str) -> float:
        return self_ns.get(name, 0) / 1e9

    def summed(name: str, key: str) -> int:
        return sum(c[key] for n, c in counts if n == name)

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    parse_steps = summed("trajectory.parse_episode_log", "steps")
    distinct_args = set().union(*(c["args"] for n, c in counts
                                  if n == "trajectory.parse_episode_log"))
    resamples = summed("metrics.bootstrap_ci", "resamples")
    melt = ("meltdown.detect_mop", "meltdown.calibrate_mop_f1")
    examined = sum(summed(n, "examined") for n in melt)
    eligible = sum(summed(n, "eligible") for n in melt)
    return {
        "trajectory.parse_episode_log.s": s("trajectory.parse_episode_log"),
        "trajectory.parse_episode_log.us_per_step":
            per(s("trajectory.parse_episode_log") * 1e6, parse_steps),
        "trajectory.parse_episode_log.accept_ratio":
            per(summed("trajectory.parse_episode_log", "accepted"), log_records),
        "trajectory.args_distinct_ratio": per(len(distinct_args), parse_steps),
        "trajectory.load_task_registry.s": s("trajectory.load_task_registry"),
        "trajectory.cross_validate.s": s("trajectory.cross_validate"),
        "metrics.vaf_bootstrap.s": s("metrics.bootstrap_ci"),
        "metrics.vaf_bootstrap.resamples": resamples,
        "metrics.vaf_bootstrap.us_per_resample": per(s("metrics.bootstrap_ci") * 1e6, resamples),
        "rng.substream.calls": n_calls.get("rng.substream", 0),
        "rng.substream.us_per_call":
            per(s("rng.substream") * 1e6, n_calls.get("rng.substream", 0)),
        "metrics.rdc.s": s("metrics.rdc"),
        "metrics.outcome_groups.s": s("metrics.outcome_groups"),
        "metrics.vaf.s": self_s("metrics.vaf"),
        "metrics.domain_stratify.s": s("metrics.domain_stratify"),
        "metrics.scaffold_delta.s": s("metrics.scaffold_delta"),
        "meltdown.meltdown_table.s": s("meltdown.meltdown_table"),
        "meltdown.calibrate_mop_f1.s": s("meltdown.calibrate_mop_f1"),
        "meltdown.calibrate_mop_f1.onset_scans":
            summed("meltdown.calibrate_mop_f1", "onset_scans"),
        "meltdown.detect_mop.us_per_step":
            per(s("meltdown.detect_mop") * 1e6, summed("meltdown.detect_mop", "steps")),
        "meltdown.entropy_series.us_per_step":
            per(s("meltdown.entropy_series") * 1e6, summed("meltdown.entropy_series", "steps")),
        "meltdown.eligible_ratio": per(eligible, examined),
        "report.run_pipeline.s": s("report.run_pipeline"),
        "report.run_pipeline.unattributed_s": self_s("report.run_pipeline"),
        "report.compute_cost.s": s("report.compute_cost"),
        "report.emit_report.s": s("report.emit_report"),
        "report.emit_report.bytes": summed("report.emit_report", "bytes"),
        "cli.main.s": s("cli.main"),
        "cli.unattributed_s": self_s("cli.main"),
    }
