"""The public surface, pinned: a name joins or leaves it only by editing
the lists below."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import reliakit
from reliakit import rng

PUBLIC_NAMES = [
    "BUCKETS", "CalibrationResult", "CostReport", "CurvePoint", "DOMAINS",
    "DegenerateStatisticError", "DomainTable", "Episode", "GuardReplay", "InputError",
    "MarkovCurve", "MeltdownCell", "MeltdownError", "MetricCurve", "MetricError",
    "MetricWarning", "MopConfig", "MopResult", "PipelineError", "PipelineOptions",
    "PricingEntry", "RegistryError", "RegistryWarning", "ReportBundle", "SCAFFOLDS",
    "ScaffoldComparison", "SimConfig", "SimulationError", "StudyCorpus", "Subtask",
    "TaskSpec", "ToolStep", "TrajectoryProfile", "VafResult", "ValidationIssue",
    "ValidationReport", "bootstrap_ci", "bucket_for_minutes", "calibrate_mop_baseline",
    "calibrate_mop_f1", "canonical_args", "compute_cost", "cross_validate",
    "decomposition_gain", "detect_mop", "domain_stratify", "early_failure_rate",
    "emit_report", "entropy_precursor", "entropy_series", "episode_gds",
    "generate_trajectory", "geometric_baseline", "load_pricing", "load_task_registry",
    "markov_variance_curve", "meltdown_table", "ols_slope", "outcome_groups",
    "parse_episode_log", "pass_at_1", "pass_pow_k", "per_task_pass1",
    "predicted_failcount_variance", "predicted_success_bound", "rdc", "rds",
    "replay_guards", "run_pipeline", "scaffold_delta", "serialize_episode",
    "serialize_task", "simulate_agent_study", "simulate_steps", "substream",
    "superlinearity_ratio", "trajectory_episode", "vaf", "wald_interval",
    "wilson_interval", "window_distribution", "window_entropy", "write_episode_log",
    "write_task_registry",
]


def test_top_level_names_are_pinned():
    assert len(PUBLIC_NAMES) == 84
    assert sorted(reliakit.__all__) == PUBLIC_NAMES


def test_rng_exports_only_substream():
    assert rng.__all__ == ["substream"]


MODULES = ["meltdown", "metrics", "report", "rng", "simulate", "trajectory"]


@pytest.mark.parametrize("module", ["reliakit", *(f"reliakit.{m}" for m in MODULES)])
def test_every_listed_name_imports(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    bound: dict = {}
    exec(f"from {module} import *", bound)
    bound.pop("__builtins__")
    assert sorted(bound) == sorted(mod.__all__)


def test_each_name_is_listed_by_one_module():
    lists = [importlib.import_module(f"reliakit.{m}").__all__ for m in MODULES]
    names = [name for names in lists for name in names]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(reliakit.__all__) == PUBLIC_NAMES


# The modules that compute with numpy arrays. Elsewhere a single call such as
# np.percentile or np.mean would tie the whole module's import to numpy.
NUMPY_MODULES = ["metrics", "rng", "simulate"]


@pytest.mark.parametrize("path", sorted(Path(reliakit.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_only_the_numeric_modules_import_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    numpy = sorted(name for name in imported if name.partition(".")[0] == "numpy")
    assert path.stem in NUMPY_MODULES or numpy == []
