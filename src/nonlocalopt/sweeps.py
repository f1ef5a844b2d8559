"""Convergence sweeps: run a named check across kernel scale indices.

Each check measures an error that a localization statement predicts should
shrink (or stay within a bound) as the kernel concentrates.  Sweeps record
the error per scale index plus a monotonicity verdict; one inversion below
the quadrature noise floor (1e-9) is tolerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .catalog import quadratic_field, sin_field
from .errors import UnknownCheckError
from .fields import BoxDomain, ScalarField
from .kernels import RadialKernel, directional_second_moment, gaussian_kernel
from .operators import (
    CENTRAL,
    HessianVariant,
    OperatorConfig,
    nonlocal_gradient,
    nonlocal_hessian,
)
from .optimizers import (
    SgdConfig,
    StepSchedule,
    epsilon_sgd_batch,
    local_counterpart,
    nlgd_fixed,
    nonlocal_newton,
)
from .quadrature import GAUSS

NOISE_FLOOR = 1e-9


def monotone_decreasing(errors: Sequence[float]) -> bool:
    """Strict decrease, tolerating a single inversion below the noise floor."""
    inversions = 0
    for prev, cur in zip(errors, errors[1:]):
        if cur >= prev:
            if cur - prev > NOISE_FLOOR:
                return False
            inversions += 1
    return inversions <= 1


@dataclass(frozen=True)
class SweepReport:
    """Errors of one named check across the swept parameter values."""

    check: str
    param_values: tuple[int, ...]
    errors: tuple[float, ...]
    locations: tuple[Optional[tuple[float, ...]], ...]
    monotone: bool
    bound: Optional[float] = None
    within_bound: Optional[bool] = None

    def rows(self):
        for p, e, loc in zip(self.param_values, self.errors, self.locations):
            yield p, e, loc


def sweep_report(check: str, params, errors, locations,
                 bound: Optional[float] = None) -> SweepReport:
    """``errors`` over ``params`` with the monotonicity verdict, judged against ``bound``."""
    errors = tuple(float(e) for e in errors)
    return SweepReport(check, tuple(int(p) for p in params), errors, tuple(locations),
                       monotone_decreasing(errors), bound,
                       None if bound is None else all(e <= bound for e in errors))


def diagonal_probes(domain: BoxDomain, count: int, lo: float, hi: float) -> np.ndarray:
    """``count`` points from fraction ``lo`` to ``hi`` of the way along the box diagonal."""
    t = np.linspace(lo, hi, count)
    return domain.lower_array + (domain.upper_array - domain.lower_array) * t[:, None]


def gradient_errors(field: ScalarField, probes: np.ndarray, config: OperatorConfig) -> np.ndarray:
    """Norm of kernel gradient minus analytic gradient at each probe."""
    return np.array([np.linalg.norm(nonlocal_gradient(field, p, config) - field.gradient_at(p))
                     for p in probes])


def hessian_errors(field: ScalarField, probes: np.ndarray, variant: HessianVariant,
                   config: OperatorConfig) -> np.ndarray:
    """Largest entry of ``|kernel Hessian - analytic Hessian|`` at each probe."""
    return np.array([np.max(np.abs(nonlocal_hessian(field, p, variant, config)
                                   - field.hessian_at(p))) for p in probes])


def _config_for(settings: dict, n: int) -> OperatorConfig:
    kernel: RadialKernel = settings["kernel"].with_scale_index(n)
    return OperatorConfig(kernel, int(settings.get("resolution", 512)),
                          settings.get("scheme", GAUSS))


def _probes(settings: dict, lo: float, hi: float) -> np.ndarray:
    return diagonal_probes(settings["field"].domain, int(settings.get("probes", 50)), lo, hi)


def _worst(errors: np.ndarray, probes: np.ndarray):
    i = int(np.argmax(errors))
    return float(errors[i]), tuple(probes[i])


def _check_gradient_localization(n: int, settings: dict):
    probes = _probes(settings, 0.2, 0.8)
    return _worst(gradient_errors(settings["field"], probes, _config_for(settings, n)), probes)


def _check_hessian_localization(n: int, settings: dict):
    probes = _probes(settings, 0.4, 0.6)
    variant = HessianVariant(CENTRAL)
    return _worst(hessian_errors(settings["field"], probes, variant, _config_for(settings, n)),
                  probes)


def _check_taylor_remainder(n: int, settings: dict):
    field: ScalarField = settings["field"]
    config = _config_for(settings, n)
    rng = np.random.default_rng(int(settings.get("seed", 0)))
    lo = field.domain.lower_array
    hi = field.domain.upper_array
    span = hi - lo
    base = lo + span * rng.uniform(0.25, 0.75, size=(200, field.dim))
    target = lo + span * rng.uniform(0.1, 0.9, size=(200, field.dim))
    worst, where = -1.0, None
    for x0, x in zip(base, target):
        g_err = field.gradient_at(x0) - nonlocal_gradient(field, x0, config)
        # r_n - r collapses to the gradient defect paired with the offset.
        val = abs(float(np.dot(x - x0, g_err)))
        if val > worst:
            worst, where = val, tuple(x0)
    return worst, where


def _check_iterate_tracking(n: int, settings: dict):
    field: ScalarField = settings["field"]
    config = _config_for(settings, n)
    schedule = StepSchedule.geometric(0.3, 0.5)
    x0 = np.asarray(settings.get("x0", field.domain.center), dtype=float)
    classical = local_counterpart(field, x0, "gd", schedule, max_iters=20, grad_tol=0.0)
    smoothed = nlgd_fixed(field, x0, config, schedule, max_iters=20, grad_tol=0.0)
    k = min(len(classical), len(smoothed))
    gaps = np.linalg.norm(classical.iterates[:k] - smoothed.iterates[:k], axis=1)
    worst = int(np.argmax(gaps))
    return float(gaps[worst]), tuple(classical.iterates[worst])


def _check_sgd_bound(n: int, settings: dict):
    field: ScalarField = settings["field"]
    kernel: RadialKernel = settings["kernel"].with_scale_index(n)
    cfg: SgdConfig = settings["sgd"]
    seeds = int(settings.get("seeds", 50))
    x_bars, _ = epsilon_sgd_batch(field, cfg, kernel, range(seeds))
    # the optimality gap against 0, the minimum value of the default field
    return float(np.mean(np.asarray(field(x_bars), dtype=float))), None


def _check_newton_floor(n: int, settings: dict):
    field: ScalarField = settings["field"]
    config = _config_for(settings, n)
    x0 = np.asarray(settings.get("x0", field.domain.center), dtype=float)
    x_star = np.asarray(settings["x_star"], dtype=float)
    trace = nonlocal_newton(field, x0, config, max_iters=10, grad_tol=0.0)
    return float(np.linalg.norm(trace.final_point - x_star)), tuple(trace.final_point)


def _check_moment(n: int, settings: dict):
    kernel: RadialKernel = settings["kernel"].with_scale_index(n)
    domain: BoxDomain = settings["domain"]
    x = domain.center
    worst = -1.0
    for axis in range(kernel.dim):
        c = directional_second_moment(kernel, domain, x, axis)
        worst = max(worst, abs(kernel.dim * c - 1.0))
    return worst, tuple(x)


REGISTRY: dict[str, Callable] = {
    "gradient-localization": _check_gradient_localization,
    "hessian-localization": _check_hessian_localization,
    "taylor-remainder": _check_taylor_remainder,
    "iterate-tracking": _check_iterate_tracking,
    "sgd-bound": _check_sgd_bound,
    "newton-floor": _check_newton_floor,
    "moment-c": _check_moment,
}


def default_settings(check: str, domain: Optional[BoxDomain] = None) -> dict:
    """Reasonable settings so every check can run out of the box."""
    domain = domain or BoxDomain.unit(1)
    kernel = gaussian_kernel(domain.dim, 1, 0.1)
    settings: dict = {"domain": domain, "kernel": kernel}
    if check in ("gradient-localization", "taylor-remainder"):
        settings["field"] = sin_field(domain)
    elif check == "hessian-localization":
        from .catalog import bump_field

        settings["field"] = bump_field(domain)
    elif check == "iterate-tracking":
        settings["field"] = quadratic_field(domain)
        settings["x0"] = domain.lower_array + 0.05 * (
            domain.upper_array - domain.lower_array
        )
    elif check == "sgd-bound":
        center = domain.center
        settings["field"] = quadratic_field(domain, center=center)
        settings["sgd"] = SgdConfig(B=1.0, M=2.0, K=100, epsilon=0.02)
        settings["seeds"] = 50
    elif check == "newton-floor":
        from .catalog import quartic_field

        center = domain.center + 0.05 * (domain.upper_array - domain.lower_array)
        settings["field"] = quartic_field(domain, center=center)
        settings["x0"] = domain.center - 0.15 * (domain.upper_array - domain.lower_array)
        settings["x_star"] = center
    return settings


def convergence_sweep(
    check: str,
    n_values: Sequence[int],
    settings: Optional[dict] = None,
) -> SweepReport:
    """Run a registered check across scale indices and report the errors."""
    if check not in REGISTRY:
        raise UnknownCheckError(
            f"unknown check {check!r}; registered: {sorted(REGISTRY)}"
        )
    settings = settings or {}
    settings = {**default_settings(check, settings.get("domain")), **settings}
    fn = REGISTRY[check]
    n_values = [int(n) for n in n_values]
    results = [fn(n, settings) for n in n_values]
    bound = None
    if check == "sgd-bound":
        bound = settings["sgd"].gap_bound
    if check == "moment-c":
        bound = float(settings.get("tolerance", 1e-6))
    return sweep_report(check, n_values, [r[0] for r in results], [r[1] for r in results], bound)
