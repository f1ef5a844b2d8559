"""Smoke test of the benchmark itself: ``python3 -m pytest perfbench``.

Runs one short traced run of each workload (a warm-up pass, a traced pass and
an untraced pass) and one short untraced run, and checks the printed metrics
against ``BENCHMARK.json`` and against the layers each workload must reach.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counters that must be non-zero on a workload, per the layers it exercises.
NONZERO = {
    "paper-1d": ["cli.commands", "reporting.calls", "reporting.bytes", "sweeps.checks",
                 "pulse.runs", "pulse.iterations", "pulse.objective_evals",
                 "optimizers.runs", "optimizers.iterations", "operators.grad_calls",
                 "operators.hess_calls", "quadrature.grids", "quadrature.nodes",
                 "kernels.density_calls", "fields.calls", "fields.points", "fields.value_calls"],
    "operators-nd": ["cli.commands", "reporting.calls", "reporting.bytes", "optimizers.runs",
                     "optimizers.iterations", "operators.grad_calls", "operators.hess_calls",
                     "quadrature.grids", "quadrature.nodes", "kernels.density_calls",
                     "fields.calls", "fields.points", "fields.value_calls"],
    "stochastic": ["cli.commands", "reporting.calls", "reporting.bytes", "sweeps.checks",
                   "optimizers.runs", "optimizers.iterations", "optimizers.sgd_steps",
                   "optimizers.draws_per_sgd_step", "kernels.samples", "fields.value_calls"],
}
ZERO = {"stochastic": ["quadrature.grids", "quadrature.nodes", "operators.grad_calls",
                       "operators.hess_calls", "pulse.runs"]}


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reaches_every_layer(workload):
    result = _result(_run(ROOT, workload, 1))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(v is not None for v in metrics.values())
    for name in NONZERO[workload]:
        assert metrics[name] > 0, name
    for name in ZERO.get(workload, []):
        assert metrics[name] == 0, name
    if workload == "paper-1d":
        assert metrics["pulse.objective_evals_per_iter"] == 3.0


def test_untraced_run_prints_the_end_to_end_metrics():
    result = _result(_run(ROOT, "paper-1d", 0))
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "paper-1d", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_sin_closed_form_matches_the_polar_rule():
    sigma = 0.1 / 8
    for x in ([0.3, 0.62], [0.71, 0.44]):
        closed = reference.sin_gradient(np.array(x), sigma)
        ruled = reference.polar_gradient_2d(reference.sin_value, np.array(x), sigma)
        assert np.max(np.abs(closed - ruled)) < 1e-12


def test_stored_ridge_reference_is_current():
    stored, fresh = reference.load_ridge_reference(), reference.ridge_descent()
    assert np.max(np.abs(stored - fresh)) < 1e-12


def test_missing_names_are_reported_absent():
    """A package without ``nonlocal_gradient`` or the grid constructors still traces."""
    pkg = "fakepkg"
    modules = {pkg: types.ModuleType(pkg)}
    for layer in tracing.LAYERS:
        modules[f"{pkg}.{layer}"] = types.ModuleType(f"{pkg}.{layer}")

    def run_cli(argv):
        return 0

    run_cli.__module__ = f"{pkg}.cli"
    modules[f"{pkg}.cli"].run_cli = run_cli
    sys.modules.update(modules)
    try:
        tracer = tracing.Tracer(pkg)
        tracer.install()
        modules[f"{pkg}.cli"].run_cli([])
        tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.take(), tracer.found)
    finally:
        for name in modules:
            del sys.modules[name]
    assert metrics["cli.commands"][0] == 1.0
    assert metrics["operators.grad_calls"][0] is None
    assert metrics["quadrature.grids"][0] is None
