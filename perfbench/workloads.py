"""The benchmark's three workloads: CLI argument lists plus output checks.

A workload is a list of operations.  One operation is one CLI command, given
with the flags a user would type (``--workers`` is left at its default on
purpose: that is what users get).  Each operation carries a check that reads
the files the command wrote and compares them with ``reference``; the check
raises ``CheckFailed`` for an output outside tolerance and otherwise returns
the relative errors that feed ``accuracy_digits``.

The seed draws the box each operator check runs on, which moves every probe
point (probes sit at fixed fractions of the box), and it is the ``--seed`` of
every command, which is what the SGD commands draw from.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# Largest relative error a checked output may have before its operation fails.
# The library's worst quadrature error on these inputs is near 1e-8.
TOLERANCE = 1e-6

KERNEL = {"family": "gaussian", "base_scale": 0.1, "n": 8}


class CheckFailed(Exception):
    """A command's output disagrees with the benchmark's reference."""


@dataclass(frozen=True)
class Operation:
    name: str
    argv: list[str]
    check: Callable[[Path], list[float]]


def _sets(**values) -> list[str]:
    out = []
    for key, value in values.items():
        out += ["--set", f"{key.replace('__', '.')}={json.dumps(value)}"]
    return out


def _domain(lower, upper) -> list[str]:
    return _sets(domain__dim=len(lower), domain__lower=list(lower), domain__upper=list(upper))


def _kernel(n: int = KERNEL["n"]) -> list[str]:
    return _sets(kernel__family=KERNEL["family"], kernel__base_scale=KERNEL["base_scale"],
                 kernel__n=n)


def _sigma(n: int) -> float:
    return KERNEL["base_scale"] / n


def seeded_box(rng: np.random.Generator, dim: int) -> tuple[list[float], list[float]]:
    """A box around the unit cube whose sides stretch by up to 0.2 each way."""
    lower = [-round(float(v), 6) for v in rng.uniform(0.0, 0.2, dim)]
    upper = [1.0 + round(float(v), 6) for v in rng.uniform(0.0, 0.2, dim)]
    return lower, upper


# -- reading what a command wrote ----------------------------------------------


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _location(row: dict) -> np.ndarray:
    return np.array([float(v) for v in row["location"].split(";")])


def _trace(out: Path) -> np.ndarray:
    rows = _rows(out / "trace.csv")
    coords = [k for k in rows[0] if k.startswith("x")]
    return np.array([[float(r[k]) for k in coords] for r in rows])


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _accept(errors: list[float], what: str) -> list[float]:
    worst = max(errors)
    _require(worst <= TOLERANCE, f"{what}: relative error {worst:.3e} above {TOLERANCE:.0e}")
    return errors


# -- checks ----------------------------------------------------------------------


def _check_probe_errors(csv_name: str, expected_rows: int, reference_gap, scale):
    """Checks a grad-check/hess-check/sweep CSV row by row.

    Each row holds the command's error against the classical derivative at a
    probe.  ``reference_gap(row)`` is that same error for the reference
    operator, so the difference is the command's own error, divided by
    ``scale(row) = max(|reference output|, 1)``.
    """

    def check(out: Path) -> list[float]:
        rows = _rows(out / csv_name)
        _require(len(rows) == expected_rows, f"{csv_name}: {len(rows)} rows, want {expected_rows}")
        errors = [abs(float(r["error"]) - reference_gap(r)) / scale(r) for r in rows]
        return _accept(errors, csv_name)

    return check


def _quadratic_grad_check(rows: int, lower, upper):
    c = 0.5 * (np.array(lower) + np.array(upper))
    return _check_probe_errors(
        "grad_check.csv", rows, lambda r: 0.0,
        lambda r: max(float(np.linalg.norm(2.0 * (_location(r) - c))), 1.0))


def _quadratic_hess_check(rows: int):
    return _check_probe_errors("hess_check.csv", rows, lambda r: 0.0, lambda r: 2.0)


def _sin_grad_check(rows: int, sigma: float):
    def gap(r):
        x = _location(r)
        return float(np.linalg.norm(ref.sin_gradient(x, sigma) - ref.sin_classical_gradient(x)))

    return _check_probe_errors(
        "grad_check.csv", rows, gap,
        lambda r: max(float(np.linalg.norm(ref.sin_gradient(_location(r), sigma))), 1.0))


def _localization_sweep(n_values):
    """1-D sin sweep: one row per scale index, the worst probe and its location."""

    def gap(r):
        x = _location(r)
        s = _sigma(int(r["param"]))
        return float(np.linalg.norm(ref.sin_gradient(x, s) - ref.sin_classical_gradient(x)))

    def scale(r):
        return max(float(np.linalg.norm(ref.sin_gradient(_location(r), _sigma(int(r["param"]))))), 1.0)

    return _check_probe_errors("sweep_gradient-localization.csv", len(n_values), gap, scale)


def _newton_floor_sweep(n_values, lower, upper):
    """Newton's distance from the quartic's minimizer after ten steps, per scale."""
    center = 0.5 * (lower[0] + upper[0]) + 0.05 * (upper[0] - lower[0])

    def check(out: Path) -> list[float]:
        rows = _rows(out / "sweep_newton-floor.csv")
        _require([int(r["param"]) for r in rows] == list(n_values), "newton-floor: wrong rows")
        errors = []
        for r in rows:
            d = ref.quartic_root_1d(_sigma(int(r["param"])))
            errors.append(abs(float(r["error"]) - abs(d)))
            errors.append(abs(float(_location(r)[0]) - (center + d)))
        return _accept(errors, "newton-floor")

    return check


def _newton_final_point(center: float, sigma: float):
    def check(out: Path) -> list[float]:
        final = _manifest(out)["summary"]["final_point"][0]
        return _accept([abs(final - (center + ref.quartic_root_1d(sigma)))], "newton")

    return check


def _quadratic_descent(x0: float, center: float, alpha: float):
    """Fixed-step descent on ``(x - c)^2``: the exact kernel gradient is ``2 (x - c)``."""

    def check(out: Path) -> list[float]:
        xs = _trace(out)[:, 0]
        expected = center + (x0 - center) * (1.0 - 2.0 * alpha) ** np.arange(len(xs))
        return _accept(list(np.abs(xs - expected)), "nlgd")

    return check


def _final_point_near(center: float, what: str):
    """Line-search and classical runs: the minimizer, to the stopping tolerance."""

    def check(out: Path) -> list[float]:
        final = _manifest(out)["summary"]["final_point"]
        return _accept([float(np.linalg.norm(np.array(final) - center))], what)

    return check


def _ridge_descent(out: Path) -> list[float]:
    expected = ref.load_ridge_reference()
    xs = _trace(out)
    _require(xs.shape == expected.shape, f"ridge trace shape {xs.shape}, want {expected.shape}")
    return _accept(list(np.max(np.abs(xs - expected), axis=1)), "ridge descent")


def _pulse(out: Path) -> list[float]:
    summary = _manifest(out)["summary"]
    _require(len(summary["runs"]) == 6 and not summary["failed"], "pulse: a run did not converge")
    for run in summary["runs"]:
        _require(run["abs_error"] <= 0.02, f"pulse {run['family']} n={run['n']} missed theta*")
    return []


def _sgd_bound(out: Path) -> list[float]:
    summary = _manifest(out)["summary"]
    _require(summary["within_bound"] is True and len(summary["errors"]) == 4,
             "sgd-bound: mean gap above the bound")
    _require(all(e >= 0.0 for e in summary["errors"]), "sgd-bound: negative optimality gap")
    return []


def _sgd_quadratic(out: Path) -> list[float]:
    summary = _manifest(out)["summary"]
    x_bar = summary["x_bar"][0]
    _require(-1.0 < x_bar < 1.0, f"sgd: averaged point {x_bar} left the domain")
    _require(summary["termination"] == "max-iters", "sgd: run stopped early")
    _require(abs(summary["value_at_x_bar"] - x_bar**2) <= TOLERANCE, "sgd: wrong objective value")
    return []


# -- workloads ---------------------------------------------------------------------


def paper_1d(seed: int) -> list[Operation]:
    """The paper's 1-D experiments: many small operator calls."""
    lo, hi = seeded_box(np.random.default_rng(seed), 1)
    box = _domain(lo, hi)
    unit = _domain([0.0], [1.0])
    common = ["--seed", str(seed)]
    sweep_n, floor_n = [4, 8, 16, 32], [8, 16, 32]
    return [
        Operation("pulse", ["pulse", *common], _pulse),
        Operation("sweep-gradient-localization",
                  ["sweep", "--check", "gradient-localization", *common, *box, *_kernel(),
                   *_sets(quadrature__resolution=512, check__n_values=sweep_n, check__probes=50)],
                  _localization_sweep(sweep_n)),
        Operation("sweep-newton-floor",
                  ["sweep", "--check", "newton-floor", *common, *unit, *_kernel(),
                   *_sets(check__n_values=floor_n)],
                  _newton_floor_sweep(floor_n, [0.0], [1.0])),
        Operation("newton-quartic",
                  ["newton", "--field", "quartic", *common, *unit, *_kernel(),
                   *_sets(newton__x0=[0.3])],
                  _newton_final_point(0.5, _sigma(KERNEL["n"]))),
        Operation("descend-nlgd",
                  ["descend", "--field", "quadratic", *common, *unit, *_kernel(),
                   *_sets(descend__method="nlgd", descend__x0=[0.2], descend__schedule__alpha=0.1)],
                  _quadratic_descent(0.2, 0.5, 0.1)),
        Operation("descend-nlgd-ls",
                  ["descend", "--field", "quadratic", *common, *unit, *_kernel(),
                   *_sets(descend__method="nlgd-ls", descend__x0=[0.2])],
                  _final_point_near(0.5, "nlgd-ls")),
        Operation("grad-check-quadratic",
                  ["grad-check", "--field", "quadratic", *common, *box, *_kernel(),
                   *_sets(check__probes=50)],
                  _quadratic_grad_check(50, lo, hi)),
        Operation("hess-check-quadratic",
                  ["hess-check", "--field", "quadratic", *common, *box, *_kernel(),
                   *_sets(check__probes=50)],
                  _quadratic_hess_check(10)),
    ]


def operators_nd(seed: int) -> list[Operation]:
    """Operator checks in 2-D and 3-D: few calls, each over a large grid."""
    rng = np.random.default_rng(seed)
    lo2, hi2 = seeded_box(rng, 2)
    lo3, hi3 = seeded_box(rng, 3)
    box2, box3 = _domain(lo2, hi2), _domain(lo3, hi3)
    common = ["--seed", str(seed), *_kernel()]
    res256, res64, res128 = (_sets(quadrature__resolution=r) for r in (256, 64, 128))
    sigma = _sigma(KERNEL["n"])
    ridge = ref.RIDGE
    return [
        # The CLI compares against the classical gradient, which differs from
        # the kernel gradient by the localization gap (about 2e-2 here); its
        # tolerance must sit above that.  The reference judges the operator.
        Operation("grad-check-sin-2d",
                  ["grad-check", "--field", "sin", *common, *box2, *res256,
                   *_sets(check__probes=20, check__tolerance=0.05)],
                  _sin_grad_check(20, sigma)),
        Operation("grad-check-quadratic-2d",
                  ["grad-check", "--field", "quadratic", *common, *box2, *res256,
                   *_sets(check__probes=20)],
                  _quadratic_grad_check(20, lo2, hi2)),
        Operation("hess-check-quadratic-2d",
                  ["hess-check", "--field", "quadratic", *common, *box2, *res256,
                   *_sets(check__probes=20)],
                  _quadratic_hess_check(10)),
        Operation("grad-check-quadratic-3d",
                  ["grad-check", "--field", "quadratic", *common, *box3, *res64,
                   *_sets(check__probes=5)],
                  _quadratic_grad_check(5, lo3, hi3)),
        Operation("hess-check-quadratic-3d",
                  ["hess-check", "--field", "quadratic", *common, *box3, *res64,
                   *_sets(check__probes=5)],
                  _quadratic_hess_check(5)),
        Operation("grad-check-quadratic-3d-res128",
                  ["grad-check", "--field", "quadratic", *common, *box3, *res128,
                   *_sets(check__probes=1)],
                  _quadratic_grad_check(1, lo3, hi3)),
        Operation("descend-ridge-2d",
                  ["descend", "--field", "ridge", "--seed", str(seed), *_domain([0.0, 0.0], [1.0, 1.0]),
                   *_kernel(ridge["n"]),
                   *_sets(descend__method="nlgd", descend__x0=ridge["x0"],
                          descend__max_iters=ridge["steps"],
                          descend__schedule__kind="fixed",
                          descend__schedule__alpha=ridge["alpha"], descend__grad_tol=0.0)],
                  _ridge_descent),
    ]


def stochastic(seed: int) -> list[Operation]:
    """SGD and the classical twins: no quadrature grid at all."""
    common = ["--seed", str(seed)]
    unit = _domain([0.0], [1.0])
    return [
        Operation("sweep-sgd-bound",
                  ["sweep", "--check", "sgd-bound", *common, *unit, *_kernel(),
                   *_sets(check__n_values=[4, 8, 16, 32], check__seeds=50)],
                  _sgd_bound),
        Operation("sgd-quadratic",
                  ["sgd", "--field", "quadratic", *common, *_domain([-1.0], [1.0]), *_kernel()],
                  _sgd_quadratic),
        Operation("descend-gd-ls",
                  ["descend", "--field", "quadratic", *common, *unit,
                   *_sets(descend__method="gd-ls", descend__x0=[0.2])],
                  _final_point_near(0.5, "gd-ls")),
        Operation("descend-newton",
                  ["descend", "--field", "quartic", *common, *unit,
                   *_sets(descend__method="newton", descend__x0=[0.2])],
                  _final_point_near(0.5, "classical newton")),
    ]


WORKLOADS: dict[str, Callable[[int], list[Operation]]] = {
    "paper-1d": paper_1d,
    "operators-nd": operators_nd,
    "stochastic": stochastic,
}


def accuracy_digits(errors: list[float]) -> float:
    """``-log10`` of the worst relative error, capped at 15 digits."""
    worst = max(errors)
    return 15.0 if worst <= 1e-15 else min(15.0, -math.log10(worst))
