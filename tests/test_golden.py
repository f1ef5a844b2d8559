"""Exact outcomes of one fixed run per optimizer and pulse configuration,
and of the SGD bound sweep the benchmark runs.

Every deterministic run goes through the one iteration driver in
``optimizers`` and SGD through its lockstep loop; these literals pin their
record / stop / step / exit order, so any drift shows up as a changed
termination, length, end point or step.  Steps
are stored as ``[value, repeat count]`` runs.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from nonlocalopt import (
    BoxDomain,
    OperatorConfig,
    PulseRunConfig,
    SgdConfig,
    StepSchedule,
    epsilon_sgd,
    gaussian_kernel,
    local_counterpart,
    nlgd_fixed,
    nlgd_linesearch,
    nonlocal_newton,
    run_pulse_experiment,
)
from nonlocalopt.catalog import quadratic_field, quartic_field
from nonlocalopt.cli import run_cli

UNIT = BoxDomain.unit(1)
SQUARE = BoxDomain.unit(2)


def cfg(n, dim=1, resolution=512):
    return OperatorConfig(gaussian_kernel(dim, n), resolution=resolution)


def runs(steps):
    out = []
    for v in steps.tolist():
        if out and out[-1][0] == v:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return out


RUNS = {
    "nlgd-fixed": lambda: nlgd_fixed(
        quadratic_field(UNIT), [0.2], cfg(16), StepSchedule.fixed(0.4),
        max_iters=200, grad_tol=1e-10),
    "nlgd-fixed-left-domain": lambda: nlgd_fixed(
        quadratic_field(UNIT), [0.1], cfg(16), StepSchedule.fixed(5.0),
        max_iters=20, grad_tol=0.0),
    "nlgd-linesearch-2d": lambda: nlgd_linesearch(
        quadratic_field(SQUARE, matrix=[[2.0, 0.0], [0.0, 0.5]]), [0.3, 0.8],
        cfg(16, 2, 128), cap=1.0, max_iters=8, grad_tol=1e-12),
    "nonlocal-newton": lambda: nonlocal_newton(
        quartic_field(UNIT, center=[0.55]), [0.4], cfg(16), max_iters=10, grad_tol=0.0),
    # The minimizer 1.3 lies outside (0, 1): full Newton steps would leave
    # the box, so they are halved until they stay inside.
    "nonlocal-newton-halved": lambda: nonlocal_newton(
        quadratic_field(UNIT, center=[1.3]), [0.5], cfg(16, 1, 256), max_iters=4, grad_tol=0.0),
    "local-gd": lambda: local_counterpart(
        quadratic_field(UNIT), [0.3], "gd", StepSchedule.fixed(0.1), max_iters=50,
        grad_tol=1e-10),
    "local-gd-diverged": lambda: local_counterpart(
        quadratic_field(UNIT), [0.3], "gd", StepSchedule.fixed(1.25), max_iters=60,
        grad_tol=0.0),
    "local-gd-ls": lambda: local_counterpart(
        quadratic_field(UNIT, matrix=[[1.5]]), [0.15], "gd-ls",
        StepSchedule("fixed", alpha=0.1, cap=1.0), max_iters=10, grad_tol=1e-13),
    "local-newton": lambda: local_counterpart(
        quartic_field(UNIT), [0.2], "newton", max_iters=25, grad_tol=1e-10),
}

EXPECTED = {
    "nlgd-fixed": {
        "termination": "grad-tol", "length": 15, "final_point": [0.499999999950848],
        "steps": [[0.4, 14]]},
    "nlgd-fixed-left-domain": {
        "termination": "left-domain", "length": 1, "final_point": [0.1], "steps": [],
        "offending_point": [4.099999992107268]},
    "nlgd-linesearch-2d": {
        "termination": "max-iters", "length": 9,
        "final_point": [0.49970710884747666, 0.500439336646265],
        "steps": [[0.2754716992581932, 1], [0.7299999954355291, 1],
                  [0.27547170034607266, 1], [0.7299999994636018, 1],
                  [0.27547169228992696, 1], [0.7300000782619954, 1],
                  [0.27547168174429526, 1], [0.7300001334796398, 1]]},
    "nonlocal-newton": {
        "termination": "max-iters", "length": 11, "final_point": [0.5499804712307645],
        "steps": [[1.0, 10]]},
    "nonlocal-newton-halved": {
        "termination": "max-iters", "length": 5, "final_point": [0.9924092924080276],
        "steps": [[0.5, 1], [0.125, 2], [1.0, 1]]},
    "local-gd": {
        "termination": "max-iters", "length": 51, "final_point": [0.4999971455046146],
        "steps": [[0.1, 50]]},
    "local-gd-diverged": {
        "termination": "diverged", "length": 10, "final_point": [8.188671875000004],
        "steps": [[1.25, 9]], "offending_point": [-11.033007812500006]},
    "local-gd-ls": {
        "termination": "grad-tol", "length": 3, "final_point": [0.5],
        "steps": [[0.3333333317252301, 1], [0.3333333288294777, 1]]},
    "local-newton": {
        "termination": "grad-tol", "length": 6, "final_point": [0.5], "steps": [[1.0, 5]]},
}

PULSE_RUNS = {
    "pulse-gaussian-n2": PulseRunConfig(family="gaussian", n=2),
    "pulse-bump-n3": PulseRunConfig(family="bump", n=3),
    # Started near the upper wall with a full step: iterates clamp at 1 - 1e-9.
    "pulse-clamped": PulseRunConfig(family="gaussian", n=1, theta0=0.9, alpha=1.0, max_iters=10),
    "pulse-halved": PulseRunConfig(family="gaussian", n=3, theta0=0.1, alpha=1.0, max_iters=20),
    # The second halving of the run above falls on its last iterate here:
    # it is counted although no step follows.
    "pulse-halved-at-last-iterate": PulseRunConfig(
        family="gaussian", n=3, theta0=0.1, alpha=1.0, max_iters=10),
    "pulse-at-template": PulseRunConfig(theta0=0.5),
}

PULSE_EXPECTED = {
    "pulse-gaussian-n2": {
        "termination": "cycle", "length": 47, "final_point": [0.5075649992152105],
        "steps": [[0.1, 46]], "offending_point": [0.4943284881174417], "halvings": 0,
        "clamped": 0},
    "pulse-bump-n3": {
        "termination": "cycle", "length": 31, "final_point": [0.48763253529934497],
        "steps": [[0.1, 30]], "offending_point": [0.5157046391453816], "halvings": 0,
        "clamped": 0},
    "pulse-clamped": {
        "termination": "max-iters", "length": 11, "final_point": [0.999999999],
        "steps": [[1.0, 10]], "halvings": 0, "clamped": 8},
    "pulse-halved": {
        "termination": "max-iters", "length": 21, "final_point": [0.5517396150464076],
        "steps": [[1.0, 10], [0.5, 5], [0.25, 5]], "halvings": 2, "clamped": 0},
    "pulse-halved-at-last-iterate": {
        "termination": "max-iters", "length": 11, "final_point": [0.4132744068556281],
        "steps": [[1.0, 10]], "halvings": 1, "clamped": 0},
    "pulse-at-template": {
        "termination": "grad-tol", "length": 1, "final_point": [0.5], "steps": [],
        "halvings": 0, "clamped": 0},
}


def outcome(trace):
    got = {
        "termination": trace.termination,
        "length": len(trace),
        "final_point": trace.final_point.tolist(),
        "steps": runs(trace.steps_taken),
    }
    if trace.offending_point is not None:
        got["offending_point"] = trace.offending_point.tolist()
    return got


@pytest.mark.parametrize("name", sorted(RUNS))
def test_optimizer_run(name):
    assert outcome(RUNS[name]()) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(PULSE_RUNS))
def test_pulse_run(name):
    trace, summary = run_pulse_experiment(PULSE_RUNS[name])
    got = {**outcome(trace), "halvings": summary.halvings, "clamped": summary.clamped}
    assert got == PULSE_EXPECTED[name]


def test_sgd_run():
    field = quadratic_field(UNIT, center=UNIT.center)
    x_bar, trace = epsilon_sgd(field, SgdConfig(1.0, 2.0, 100, 0.02), gaussian_kernel(1, 8), seed=3)
    assert outcome(trace) == {
        "termination": "max-iters", "length": 101, "final_point": [0.49987469295282905],
        "steps": [[0.05, 100]]}
    assert x_bar.tolist() == [0.49962646399108807]
    assert math.isnan(trace.gradient_norms[-1])  # no direction is drawn at the last iterate
    assert np.all(np.isfinite(trace.gradient_norms[:-1]))


def test_sgd_bound_sweep(tmp_path):
    """The benchmark's ``sweep --check sgd-bound``: mean gaps of 50 chains per index."""
    argv = ["sweep", "--check", "sgd-bound", "--out", str(tmp_path),
            "--set", "domain.dim=1", "--set", "domain.lower=[0.0]", "--set", "domain.upper=[1.0]",
            "--set", 'kernel.family="gaussian"', "--set", "kernel.base_scale=0.1",
            "--set", "kernel.n=8", "--set", "check.n_values=[4, 8, 16, 32]",
            "--set", "check.seeds=50"]
    assert run_cli(argv) == 0
    summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
    assert summary["errors"] == [1.3766202037162422e-06, 3.4415505092904773e-07,
                                 8.60387627322652e-08, 2.1509690683064808e-08]


PULSE_SHA256 = {
    "pulse_bump_n1.csv": "8c9942757ca3560dec7b1da243797a4c3425c177bec46bd55576cc5490d00c94",
    "pulse_bump_n2.csv": "ed20c4be3a96367fda472fb603341908d487c63b356406823bdf923bcf7c219e",
    "pulse_bump_n3.csv": "32a203398afb5ef81ce1fd7dd173c3fea3803c3049e0ff2edf05f6319b34459f",
    "pulse_gaussian_n1.csv": "69198c1238f610f5fbd23504593396e19d05022fe78289e5310a7bf3c7be15c0",
    "pulse_gaussian_n2.csv": "6bc46f2ac5e221881943d0a83ee5373f7c2f7fae29818ad412ff4d573bfa5776",
    "pulse_gaussian_n3.csv": "d6f4f433a067b6092294f9d37d009a7711dc999681941282fe6166219f348565",
    "pulse_convergence.svg": "d97f105c9c70fc94f3efa55790c234827b1e9cf92fa599bc6fff9ed546e2d175",
}


def test_pulse_experiment_bytes(tmp_path):
    """The paper's experiment, ``pulse --seed 1`` with every default: each trace's and the plot's bytes."""
    assert run_cli(["pulse", "--seed", "1", "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PULSE_SHA256}
    assert got == PULSE_SHA256


# The benchmark's ``operators-nd`` checks at seed 1 whose bytes only D >= 2 stencil blocks
# decide: the block sums, their order and their BLAS operands.  A change that moves these
# sums on purpose re-records the hashes.
KERNEL_SETS = ["--set", 'kernel.family="gaussian"', "--set", "kernel.base_scale=0.1",
               "--set", "kernel.n=8"]
BOX_2D = ["--set", "domain.dim=2", "--set", "domain.lower=[-0.102364, -0.190093]",
          "--set", "domain.upper=[1.028832, 1.18973]"]
BOX_3D = ["--set", "domain.dim=3", "--set", "domain.lower=[-0.062366, -0.084665, -0.165541]",
          "--set", "domain.upper=[1.08184, 1.109919, 1.005512]"]
OPERATOR_CHECKS = {
    "grad-check-quadratic-3d": (
        ["grad-check", *BOX_3D, "--set", "quadrature.resolution=64", "--set", "check.probes=5"],
        "grad_check.csv", "14fbecc55d98d2406afdac53571ddfba18ac4ff05f0f578fe980162bbae8d4c3"),
    "hess-check-quadratic-2d": (
        ["hess-check", *BOX_2D, "--set", "quadrature.resolution=256", "--set", "check.probes=20"],
        "hess_check.csv", "be0a37d2bf6f89060ae9aeab16f1fd72fb978b93d53cf8de691aedd71d77579e"),
    "grad-check-quadratic-3d-res128": (
        ["grad-check", *BOX_3D, "--set", "quadrature.resolution=128", "--set", "check.probes=1"],
        "grad_check.csv", "436ec421e639b83261fb78166f9eaea0ba424bbb0e57dd8abcb84bc4e84950c7"),
}


@pytest.mark.parametrize("name", sorted(OPERATOR_CHECKS))
def test_operator_check_bytes(tmp_path, name):
    argv, csv, sha256 = OPERATOR_CHECKS[name]
    command, *sets = argv
    assert run_cli([command, "--field", "quadratic", "--seed", "1", *KERNEL_SETS, *sets,
                    "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / csv).read_bytes()).hexdigest() == sha256


# The benchmark's two Newton commands at seed 1: every iterate's point, value and gradient
# norm, and each floor run's end point, as the bytes of the file the command writes.
UNIT_SETS = ["--set", "domain.dim=1", "--set", "domain.lower=[0.0]", "--set", "domain.upper=[1.0]"]
NEWTON_COMMANDS = {
    "newton-quartic": (
        ["newton", "--field", "quartic", "--set", "newton.x0=[0.3]"], "trace.csv",
        "f3c603426e60a278b76c25d5432ef3fb692989d2da17eed4f62d8001ca1e80bc"),
    "sweep-newton-floor": (
        ["sweep", "--check", "newton-floor", "--set", "check.n_values=[8, 16, 32]"],
        "sweep_newton-floor.csv",
        "bda09322d3805899b75d939139af63d6b34c39ac55b8a4c153e1b50ee6a02777"),
}


@pytest.mark.parametrize("name", sorted(NEWTON_COMMANDS))
def test_newton_command_bytes(tmp_path, name):
    argv, csv, sha256 = NEWTON_COMMANDS[name]
    assert run_cli([*argv, "--seed", "1", *UNIT_SETS, *KERNEL_SETS, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / csv).read_bytes()).hexdigest() == sha256
