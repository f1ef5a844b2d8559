"""Convergence sweeps: run a named check across kernel scale indices.

Each check measures an error that a localization statement predicts should
shrink (or stay within a bound) as the kernel concentrates.  Sweeps record
the error per scale index plus a monotonicity verdict; one inversion below
the quadrature noise floor (1e-9) is tolerated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .catalog import catalog_field, quartic_field
from .errors import UnknownCheckError
from .fields import BoxDomain, ScalarField
from .operators import (
    CENTRAL,
    HessianVariant,
    OperatorConfig,
    directional_second_moments,
    nonlocal_gradient,
    nonlocal_hessian,
)
from .optimizers import (
    StepSchedule,
    _chain_groups_per_batch,
    _row_dots,
    epsilon_sgd_batch,
    local_counterpart,
    nlgd_fixed,
    nonlocal_newton,
)

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
    within_bound: Optional[bool] = None

    def rows(self):
        for p, e, loc in zip(self.param_values, self.errors, self.locations):
            yield p, e, loc


def sweep_report(check: str, params, errors, locations,
                 bound: Optional[float] = None) -> SweepReport:
    """``errors`` over ``params`` with the monotonicity verdict, judged against ``bound``."""
    errors = tuple(float(e) for e in errors)
    return SweepReport(check, tuple(int(p) for p in params), errors, tuple(locations),
                       monotone_decreasing(errors),
                       None if bound is None else all(e <= bound for e in errors))


def diagonal_probes(domain: BoxDomain, count: int, lo: float, hi: float) -> np.ndarray:
    """``count`` points from fraction ``lo`` to ``hi`` of the way along the box diagonal."""
    t = np.linspace(lo, hi, count)
    return domain.lower_array + (domain.upper_array - domain.lower_array) * t[:, None]


def gradient_errors(field: ScalarField, probes: np.ndarray, config: OperatorConfig) -> np.ndarray:
    """Norm of kernel gradient minus analytic gradient at each probe ``(P, D)``."""
    diff = nonlocal_gradient(field, probes, config) - field.gradient_at(probes)
    return np.sqrt(_row_dots(diff))


def hessian_errors(field: ScalarField, probes: np.ndarray, variant: HessianVariant,
                   config: OperatorConfig) -> np.ndarray:
    """Largest entry of ``|kernel Hessian - analytic Hessian|`` at each probe ``(P, D)``."""
    diff = nonlocal_hessian(field, probes, variant, config) - field.hessian_at(probes)
    return np.max(np.abs(diff), axis=(1, 2))


def _config_for(settings: dict, n: int) -> OperatorConfig:
    config: OperatorConfig = settings["config"]
    return replace(config, kernel=config.kernel.with_scale_index(n))


def _probes(settings: dict, lo: float, hi: float) -> np.ndarray:
    return diagonal_probes(settings["field"].domain, settings["probes"], lo, hi)


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
    rng = np.random.default_rng(settings["seed"])
    lo = field.domain.lower_array
    hi = field.domain.upper_array
    span = hi - lo
    base = lo + span * rng.uniform(0.25, 0.75, size=(200, field.dim))
    target = lo + span * rng.uniform(0.1, 0.9, size=(200, field.dim))
    g_err = field.gradient_at(base) - nonlocal_gradient(field, base, config)
    # r_n - r collapses to the gradient defect paired with the offset.
    remainders = np.abs(_row_dots(target - base, g_err))
    i = int(np.argmax(remainders))
    return float(remainders[i]), tuple(base[i])


def _check_iterate_tracking(n: int, settings: dict):
    field: ScalarField = settings["field"]
    config = _config_for(settings, n)
    schedule = StepSchedule.geometric(0.3, 0.5)
    x0 = settings["x0"]
    classical = local_counterpart(field, x0, "gd", schedule, max_iters=20, grad_tol=0.0)
    smoothed = nlgd_fixed(field, x0, config, schedule, max_iters=20, grad_tol=0.0)
    k = min(len(classical), len(smoothed))
    gaps = np.linalg.norm(classical.iterates[:k] - smoothed.iterates[:k], axis=1)
    worst = int(np.argmax(gaps))
    return float(gaps[worst]), tuple(classical.iterates[worst])


def _check_sgd_bound(n_values: list[int], settings: dict):
    """Mean optimality gap of ``seeds`` chains at each index, all of them in one batch.

    Every index runs chains ``seed * seeds`` to ``seed * seeds + seeds - 1``, and
    its chains share its kernel object.  The batch is split, at whole indices,
    only where ``NODE_BUDGET`` requires it.
    """
    field: ScalarField = settings["field"]
    config, seeds = settings["sgd"], settings["seeds"]
    chains = list(range(settings["seed"] * seeds, (settings["seed"] + 1) * seeds))
    kernels = [settings["kernel"].with_scale_index(n) for n in n_values]
    per_batch = _chain_groups_per_batch(seeds, config.K, field.dim)
    x_bars = []
    for i in range(0, len(kernels), per_batch):
        group = kernels[i:i + per_batch]
        x_bars.append(epsilon_sgd_batch(field, config, [k for k in group for _ in range(seeds)],
                                        chains * len(group))[0])
    # the optimality gap against 0, the minimum value of the default field
    gaps = np.asarray(field(np.concatenate(x_bars)), dtype=float)
    return [(float(np.mean(gaps[i:i + seeds])), None) for i in range(0, gaps.size, seeds)]


def _check_newton_floor(n: int, settings: dict):
    field: ScalarField = settings["field"]
    config = _config_for(settings, n)
    trace = nonlocal_newton(field, settings["x0"], config, max_iters=10, grad_tol=0.0)
    return float(np.linalg.norm(trace.final_point - settings["x_star"])), tuple(trace.final_point)


def _check_moment(n: int, settings: dict):
    domain: BoxDomain = settings["domain"]
    x = domain.center
    c = directional_second_moments(domain, x, _config_for(settings, n))
    return float(np.max(np.abs(domain.dim * c - 1.0))), tuple(x)


def _each_index(check: Callable) -> Callable:
    """A check of one scale index, run at each index of the sweep in turn."""
    return lambda n_values, settings: [check(n, settings) for n in n_values]


# Each check takes every scale index of the sweep and returns one
# ``(error, location)`` per index.
REGISTRY: dict[str, Callable] = {
    "gradient-localization": _each_index(_check_gradient_localization),
    "hessian-localization": _each_index(_check_hessian_localization),
    "taylor-remainder": _each_index(_check_taylor_remainder),
    "iterate-tracking": _each_index(_check_iterate_tracking),
    "sgd-bound": _check_sgd_bound,
    "newton-floor": _each_index(_check_newton_floor),
    "moment-c": _each_index(_check_moment),
}


def default_settings(check: str, domain: BoxDomain) -> dict:
    """The problem each check poses on ``domain``: its field, and its start and target points.

    Every field but newton-floor's off-centre quartic is the catalog's of that name."""
    settings: dict = {}
    if check in ("gradient-localization", "taylor-remainder"):
        settings["field"] = catalog_field("sin", domain)
    elif check == "hessian-localization":
        settings["field"] = catalog_field("bump", domain)
    elif check == "iterate-tracking":
        settings["field"] = catalog_field("quadratic", domain)
        settings["x0"] = domain.lower_array + 0.05 * (domain.upper_array - domain.lower_array)
    elif check == "sgd-bound":
        settings["field"] = catalog_field("quadratic", domain)
    elif check == "newton-floor":
        center = domain.center + 0.05 * (domain.upper_array - domain.lower_array)
        settings["field"] = quartic_field(domain, center=center)
        settings["x0"] = domain.center - 0.15 * (domain.upper_array - domain.lower_array)
        settings["x_star"] = center
    return settings


def convergence_sweep(check: str, n_values: Sequence[int], settings: dict) -> SweepReport:
    """Run a registered check across scale indices and report the errors.

    ``settings`` holds what the check reads: the ``domain``; the operator
    ``config`` (its kernel is rescaled to each index), or for ``sgd-bound``
    the ``kernel``, the ``sgd`` config, its ``seeds`` count and the ``seed``
    that picks its chains; the localization ``probes`` count, the
    taylor-remainder ``seed`` and the moment ``tolerance``.  Each check's
    problem comes from ``default_settings`` unless ``settings`` names it.
    """
    if check not in REGISTRY:
        raise UnknownCheckError(
            f"unknown check {check!r}; registered: {sorted(REGISTRY)}"
        )
    settings = {**default_settings(check, settings["domain"]), **settings}
    n_values = [int(n) for n in n_values]
    results = REGISTRY[check](n_values, settings)
    bound = None
    if check == "sgd-bound":
        bound = settings["sgd"].gap_bound
    if check == "moment-c":
        bound = settings["tolerance"]
    return sweep_report(check, n_values, [r[0] for r in results], [r[1] for r in results], bound)
