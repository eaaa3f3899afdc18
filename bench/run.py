"""Benchmark of the reliakit CLI on seeded synthetic corpora.

    python3 bench/run.py --workload analyze_traces --seed 1 --seconds 30 --trace 0

Run from anywhere inside a reliakit checkout; the package is imported from
the checkout's ``src/``. Each run generates its workload's inputs from the
seed (set-up, not measured), then measures for ``--seconds``:

--trace 0  end to end. Fresh ``reliakit`` CLI children run one at a time;
           each is timed from spawn to exit, with its own peak RSS from
           ``os.wait4``. ``setup_s`` is a fresh interpreter that only imports
           the CLI and builds its parser, spawned between the invocations.
--trace 1  per layer. The same invocations run in-process, alternating
           untraced and traced (spans around each layer's public calls), plus
           one tracemalloc pass over parsing. The spans are written at the end
           to ``.bench_work/trace/<workload>.json``, replacing the last run's.

Every invocation's outputs are checked against what the generator injected,
and every invocation must write the same bytes as the first. The last stdout
line is one JSON object: correct, attempted, failed and the metrics.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, where everything runs
CHILD_TIMEOUT_S = 120
MIN_INVOCATIONS = 3
MIN_SETUP_SAMPLES = 5

CLI_CHILD = "import sys; from reliakit.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_CHILD = "from reliakit.cli import build_parser; build_parser()"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _spawn(code: str, args: list[str], stdout_path: Path) -> tuple[float, float, int, str]:
    """Run one Python child to completion. Returns (wall s, peak RSS MB,
    exit code, stderr tail); RSS comes from this child's own rusage."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *args], stdout=out, stderr=err,
                                env=_child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-400:].decode("utf-8", "replace")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, tail


class Invocations:
    """Checks and counts every CLI invocation of a run."""

    def __init__(self, corpus, work: Path) -> None:
        self.corpus = corpus
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None
        # One path for every invocation, so stdout naming it is comparable too.
        self.out_dir = work / "out"

    def record(self, exit_code: int, stdout: str, detail: str = "") -> None:
        from workloads import check_output, output_digest

        self.attempted += 1
        problems = [f"exit code {exit_code}: {detail.strip()}"] if exit_code else []
        if not problems:
            problems = check_output(self.corpus, self.out_dir, stdout)
        digest = output_digest(self.out_dir, stdout.encode("utf-8"))
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference and not problems:
            problems.append("outputs differ from the first invocation on the same inputs")
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"check failed ({self.corpus.workload}): {'; '.join(problems)}",
                  file=sys.stderr)


def _window(seconds: float, minimum: int):
    """Yield iteration numbers until ``minimum`` are done and the next one,
    as long as the last, would end past ``seconds``."""
    start = last = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if i >= minimum and now + (now - last) - start > seconds:
            return
        last = now
        yield i
        i += 1


def measure_end_to_end(corpus, work: Path, seconds: float) -> tuple[dict, Invocations]:
    runs = Invocations(corpus, work)
    walls, rss, setups = [], [], []

    def invoke() -> tuple[float, float]:
        stdout_path = work / "stdout.txt"
        wall, peak, code, err = _spawn(CLI_CHILD, corpus.argv(str(runs.out_dir)), stdout_path)
        runs.record(code, stdout_path.read_text(encoding="utf-8", errors="replace"), err)
        return wall, peak

    def setup() -> None:
        wall, _, code, err = _spawn(SETUP_CHILD, [], work / "setup.txt")
        if code:
            raise RuntimeError(f"set-up child failed: {err}")
        setups.append(wall)

    invoke()  # warm-up: byte-compiles the package; also the reference output
    for _ in _window(seconds, MIN_INVOCATIONS):
        wall, peak = invoke()
        walls.append(wall)
        rss.append(peak)
        setup()
    while len(setups) < MIN_SETUP_SAMPLES:
        setup()
    for name, samples in (("wall_s", walls), ("setup_s", setups)):
        print(f"  {name} samples (n={len(samples)}): "
              + " ".join(f"{v:.4f}" for v in sorted(samples)))
    wall_s = statistics.median(walls)
    setup_s = statistics.median(setups)
    metrics = {
        "wall_s": wall_s,
        "episodes_per_s": corpus.records / (wall_s - setup_s),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": setup_s,
    }
    return metrics, runs


def _in_process(argv: list[str]) -> tuple[float, int, str]:
    import reliakit.cli

    buffer = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(buffer), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        start = time.perf_counter()
        code = reliakit.cli.main(argv)  # the traced wrapper when tracing is on
        wall = time.perf_counter() - start
    return wall, code, buffer.getvalue()


def measure_layers(corpus, work: Path, seconds: float, seed: int) -> tuple[dict, Invocations]:
    from tracing import SPAN_FIELDS, Tracer, layer_metrics, parse_alloc_peaks

    runs = Invocations(corpus, work)
    tracer = Tracer()

    def invoke(traced: bool) -> float:
        with tracer.installed() if traced else contextlib.nullcontext():
            wall, code, stdout = _in_process(corpus.argv(str(runs.out_dir)))
        runs.record(code, stdout)
        return wall

    invoke(False)  # warm-up and reference output
    untraced, traced = [], []
    for pair in _window(seconds, 2):
        # Alternate which side of a pair runs first, so order effects cancel.
        for traced_side in (False, True) if pair % 2 == 0 else (True, False):
            if traced_side:
                tracer.rep += 1
                traced.append(invoke(True))
            else:
                untraced.append(invoke(False))
    peaks: list[int] = []
    with parse_alloc_peaks(peaks):
        _, code, stdout = _in_process(corpus.argv(str(runs.out_dir)))
    runs.record(code, stdout)

    per_rep = []
    for rep in range(1, tracer.rep + 1):
        spans = [s for s in tracer.spans if s[0] == rep]
        counts = [(name, c) for r, name, c in tracer.counts if r == rep]
        per_rep.append(layer_metrics(spans, counts, corpus.records))
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    metrics["trajectory.parse_episode_log.alloc_peak_mb"] = max(peaks, default=0) / 2 ** 20
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    trace_dir = WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / f"{corpus.workload}.json").write_text(json.dumps(
        {"workload": corpus.workload, "seed": seed, "fields": SPAN_FIELDS,
         "spans": tracer.spans}), encoding="utf-8")
    return metrics, runs


def run_workload(workload: str, why: str, units: dict[str, str], seed: int, seconds: float,
                 trace: bool, scale: float) -> tuple[dict, Invocations]:
    import workloads

    work = WORK / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        corpus = workloads.build(workload, seed, work / "in", scale)
        print(f"workload: {workload} -- {why}")
        print(f"inputs: {corpus.records} log records, "
              + json.dumps(corpus.properties, sort_keys=True))
        if trace:
            metrics, runs = measure_layers(corpus, work, seconds, seed)
        else:
            metrics, runs = measure_end_to_end(corpus, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match"
                           " the names BENCHMARK.json declares")
    for name in units:
        print(f"  {name} = {metrics[name]!r} {units[name]}")
    print(f"  error_rate = {runs.failed / runs.attempted!r} fraction"
          f" ({runs.failed} of {runs.attempted} invocations)")
    return metrics, runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="analyze_traces, analyze_selections, mop_calibrate or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies corpus sizes; below 1 only for smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "reliakit" / "__init__.py").is_file():
        print(f"error: no reliakit package under {SRC}; run inside a reliakit checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import numpy
    import reliakit
    import workloads

    if Path(reliakit.__file__).resolve().parent != (SRC / "reliakit").resolve():
        print(f"error: imported reliakit from {reliakit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")

    # Metric names and units of this mode, and the workloads, as declared.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()}"
          f" numpy={numpy.__version__} platform={platform.platform()}")
    print(f"command: {' '.join([Path(sys.executable).name, *sys.argv])}")
    print(f"seed: {args.seed}  seconds: {args.seconds}  trace: {args.trace}"
          f"  load: one process, one CLI invocation at a time")
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        values, runs = run_workload(name, whys[name], units, args.seed, args.seconds,
                                    bool(args.trace), args.scale)
        attempted += runs.attempted
        failed += runs.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": values[k], "unit": unit}
                        for k, unit in units.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
