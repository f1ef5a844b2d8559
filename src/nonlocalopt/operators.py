"""Kernel-based differential operators: gradients, Hessians, affine approximants.

The first-order operator averages difference quotients of the field against a
radial density; it exists for merely Lipschitz (and weaker) fields and
localizes to the classical gradient as the kernel concentrates.  Four
second-order constructions are provided, one of which (the symmetric
second-difference form) is the workhorse for Newton iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    CoincidentPointsError,
    MissingDerivativeError,
    NoBracketError,
    NodeBudgetError,
)
from .fields import ScalarField, SubsetIndicator, as_point, zero_extension
from .kernels import RadialKernel
from .quadrature import GAUSS, NODE_BUDGET, Stencil, reach_stencil

# Hessian construction tags.
NESTED = "nested"               # kernel partial of kernel partials (two scales)
GRAD_SMOOTHED = "grad-smoothed" # kernel partial of classical partials
FD_NONLOCAL = "fd-nonlocal"     # finite difference of kernel partials
CENTRAL = "central"             # symmetric second-difference kernel form

# Tensor-weight normalizations for the CENTRAL construction.  "moment" uses
# D(D+2)/2, which makes the operator exact on quadratics per the radial
# fourth-moment identity; "alternate" keeps the D(D+1)/2 normalization that
# also circulates in the literature (in 1-D it returns (4/3)a instead of 2a
# for u = a x^2).
MOMENT_CONSTANT = "moment"
ALTERNATE_CONSTANT = "alternate"

VANISHING_TOL = 1e-8  # a restricted gradient this small counts as vanished


@dataclass(frozen=True)
class OperatorConfig:
    """Kernel plus quadrature settings shared by every operator call."""

    kernel: RadialKernel
    resolution: int = 256
    scheme: str = GAUSS


def difference_quotient(field: ScalarField, x, y) -> np.ndarray:
    """Vector difference quotient ``(u(x)-u(y))/|x-y| * (x-y)/|x-y|``.

    Scaling by the dimension is applied by callers, not here.
    """
    x = as_point(x, field.dim)
    y = as_point(y, field.dim)
    d = x - y
    r2 = float(np.dot(d, d))
    if r2 == 0.0:
        raise CoincidentPointsError("difference quotient requires x != y")
    return (field.value(x) - field.value(y)) / r2 * d


def _interior_point(field: ScalarField, x) -> np.ndarray:
    x = as_point(x, field.dim)
    if not field.domain.contains(x):
        raise ValueError(f"operator evaluation requires an interior point, got {x}")
    return x


def _field_values(fn, points: np.ndarray) -> np.ndarray:
    """``fn`` at the given points: the one finiteness check every operator shares."""
    values = np.asarray(fn(points), dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        row = np.argmin(finite.reshape(len(points), -1).all(axis=1))
        raise ValueError(f"field value is not finite at quadrature node {points[row]}")
    return values


def _contract(stencil: Stencil, x: np.ndarray, value_x, fn) -> np.ndarray:
    """Kernel-weighted difference quotients of ``fn`` over the stencil around ``x``.

    Sums ``D * w * rho(|h|) * (value_x - fn(x + h)) / |h|^2 * (-h)`` over the
    offsets ``h``.  A vector-valued ``fn`` gives a matrix whose rows index its
    components.
    """
    total = 0.0
    for block in stencil.blocks():
        total = total + (value_x - _field_values(fn, x + block.h)).T @ block.grad
    return total


def _gradient_over(field: ScalarField, x: np.ndarray, stencils) -> np.ndarray:
    value_x = field.value(x)
    if not np.isfinite(value_x):
        raise ValueError(f"field value is not finite at {x}")
    total = np.zeros(field.dim)
    for stencil in stencils:
        total += _contract(stencil, x, value_x, field)
    return total


def nonlocal_gradient(field: ScalarField, x, config: OperatorConfig) -> np.ndarray:
    """Kernel-smoothed gradient of the field at an interior point.

    Integrates ``D * k_u(x, y) * rho(x - y)`` over the domain, restricted to
    the kernel's reach ball (identical value, large speedup).  Exact on
    linear fields whenever the reach ball lies inside the domain.
    """
    x = _interior_point(field, x)
    kernel = config.kernel
    if kernel.dim != field.dim:
        raise ValueError("kernel dimension does not match field dimension")
    stencil = reach_stencil(kernel, x, kernel.reach, field.domain, config.resolution,
                            config.scheme)
    return _gradient_over(field, x, [stencil])


def restricted_nonlocal_gradient(
    field: ScalarField, x, config: OperatorConfig, subset: SubsetIndicator
) -> np.ndarray:
    """Nonlocal gradient with the integral restricted to a box-union subset."""
    x = _interior_point(field, x)
    if subset.dim != field.dim:
        raise ValueError("subset dimension does not match field dimension")
    kernel = config.kernel
    stencils = []
    for lo, hi in subset.pieces():
        clipped = field.domain.clip_box(np.maximum(lo, x - kernel.reach),
                                        np.minimum(hi, x + kernel.reach))
        if clipped is not None:
            stencils.append(Stencil(kernel, clipped[0] - x, clipped[1] - x, config.resolution,
                                    config.scheme))
    if not stencils:
        return np.zeros(field.dim)
    return _gradient_over(field, x, stencils)


def find_vanishing_subset_1d(
    field: ScalarField, x_star, config: OperatorConfig
) -> SubsetIndicator:
    """Construct a union of at most two intervals on which the restricted
    gradient vanishes at a 1-D approximate local minimizer.

    The two sides of the minimizer carry opposite-signed difference-quotient
    mass; one side is kept whole and the other side's interval length is
    bisected until the signed masses cancel, to ``VANISHING_TOL``.
    """
    if field.dim != 1:
        raise ValueError("subset construction is implemented for 1-D fields only")
    x = _interior_point(field, x_star)
    reach = config.kernel.reach
    lo = max(field.domain.lower[0], float(x[0]) - reach)
    hi = min(field.domain.upper[0], float(x[0]) + reach)
    xs = float(x[0])

    # Minimizer precheck: the field must rise on both sides nearby.
    probe = min(reach, xs - lo, hi - xs) / 4.0
    u0 = field.value(x)
    if probe <= 0 or field.value([xs + probe]) < u0 or field.value([xs - probe]) < u0:
        raise NoBracketError(
            f"{xs} does not look like a local minimizer (no rise on both sides)"
        )

    def restricted(intervals) -> float:
        subset = SubsetIndicator.from_intervals(intervals)
        return float(restricted_nonlocal_gradient(field, x, config, subset)[0])

    pos_full = restricted([(xs, hi)])
    neg_full = restricted([(lo, xs)])
    if pos_full < -VANISHING_TOL or neg_full > VANISHING_TOL:
        raise NoBracketError("difference-quotient mass has the wrong sign pattern")

    def solve(fixed, moving_len, moving_side) -> SubsetIndicator:
        # moving_side = -1 grows [xs - t, xs], +1 grows [xs, xs + t]
        def total(t: float) -> float:
            moving = (xs - t, xs) if moving_side < 0 else (xs, xs + t)
            return restricted([fixed, moving])

        t_lo, t_hi = 0.0, moving_len
        f_lo, f_hi = total(t_lo), total(t_hi)
        if f_lo * f_hi > 0 and min(abs(f_lo), abs(f_hi)) > VANISHING_TOL:
            raise NoBracketError("cancellation mass cannot be bracketed")
        for _ in range(200):
            t_mid = 0.5 * (t_lo + t_hi)
            f_mid = total(t_mid)
            if abs(f_mid) <= VANISHING_TOL:
                moving = (xs - t_mid, xs) if moving_side < 0 else (xs, xs + t_mid)
                return SubsetIndicator.from_intervals([fixed, moving])
            if f_lo * f_mid <= 0:
                t_hi, f_hi = t_mid, f_mid
            else:
                t_lo, f_lo = t_mid, f_mid
        raise NoBracketError("bisection failed to reach the target residual")

    if pos_full <= -neg_full:
        # Right mass is the smaller one: keep it whole, shrink the left side.
        return solve((xs, hi), xs - lo, -1)
    return solve((lo, xs), hi - xs, +1)


# -- second-order constructions -----------------------------------------------


@dataclass(frozen=True)
class HessianVariant:
    """Selector among the four second-order kernel constructions.

    ``nested``        kernel partial (scale ``m``) of kernel partials (config scale)
    ``grad-smoothed`` kernel partial (config scale) of classical partials
    ``fd-nonlocal``   central finite difference of kernel partials
    ``central``       symmetric second-difference kernel form (Newton default)
    """

    kind: str
    m: Optional[int] = None
    fd_step: Optional[float] = 1e-5
    constant_mode: str = MOMENT_CONSTANT

    def __post_init__(self):
        if self.kind not in (NESTED, GRAD_SMOOTHED, FD_NONLOCAL, CENTRAL):
            raise ValueError(f"unknown hessian variant {self.kind!r}")
        if self.kind == NESTED and self.m is None:
            raise ValueError("nested hessian needs the outer scale index m")
        if self.constant_mode not in (MOMENT_CONSTANT, ALTERNATE_CONSTANT):
            raise ValueError(f"unknown constant mode {self.constant_mode!r}")
        if self.kind == FD_NONLOCAL and self.fd_step is None:
            raise MissingDerivativeError("fd-nonlocal hessian needs an fd_step")
        if self.fd_step is not None and not 0 < self.fd_step < math.inf:
            raise ValueError(f"fd_step must be positive and finite, got {self.fd_step}")


def _classical_gradient(field: ScalarField, pts: np.ndarray, step: float) -> np.ndarray:
    """Analytic gradient if declared, else central differences (batched)."""
    if field.gradient is not None:
        return np.asarray(field.gradient(pts), dtype=float)
    grads = np.empty_like(pts)
    for j in range(pts.shape[1]):
        e = np.zeros(pts.shape[1])
        e[j] = step
        grads[:, j] = (field(pts + e) - field(pts - e)) / (2.0 * step)
    return grads


def nonlocal_hessian(
    field: ScalarField, x, variant: HessianVariant, config: OperatorConfig
) -> np.ndarray:
    """Kernel-based second-derivative matrix at an interior point, at ``config.kernel``."""
    x = _interior_point(field, x)
    D = field.dim

    if variant.kind == CENTRAL:
        return _central_hessian(field, x, config, variant.constant_mode)

    if variant.kind == FD_NONLOCAL:
        h = variant.fd_step
        H = np.empty((D, D))
        for j in range(D):
            e = np.zeros(D)
            e[j] = h
            gp = nonlocal_gradient(field, x + e, config)
            gm = nonlocal_gradient(field, x - e, config)
            H[:, j] = (gp - gm) / (2.0 * h)
        return H

    if variant.kind == GRAD_SMOOTHED:
        if field.gradient is None and variant.fd_step is None:
            raise MissingDerivativeError(
                "grad-smoothed hessian needs an analytic gradient or a declared fd step"
            )
        outer_kernel = config.kernel

        def grad_at(pts: np.ndarray) -> np.ndarray:
            return _classical_gradient(field, pts, variant.fd_step)
    else:  # NESTED
        outer_kernel = config.kernel.with_scale_index(variant.m)

        def grad_at(pts: np.ndarray) -> np.ndarray:
            return np.stack([nonlocal_gradient(field, p, config) for p in pts])

    stencil = reach_stencil(outer_kernel, x, outer_kernel.reach, field.domain,
                            config.resolution, config.scheme)
    if variant.kind == NESTED:
        inner_nodes = config.resolution ** field.dim
        if len(stencil) * inner_nodes > NODE_BUDGET:
            raise NodeBudgetError(
                f"nested hessian needs ~{len(stencil) * inner_nodes} field nodes, "
                f"budget is {NODE_BUDGET}"
            )
    gx = _field_values(grad_at, x[None, :])[0]
    return _contract(stencil, x, gx, grad_at)


def _central_hessian(
    field: ScalarField,
    x: np.ndarray,
    config: OperatorConfig,
    constant_mode: str,
) -> np.ndarray:
    """Symmetric second-difference construction over the kernel's reach box.

    The field is extended by zero beyond its support (or beyond the domain)
    so the translated stencil is always defined.  The stencil is point
    symmetric (its second half is the negated first half), so only the first
    half is summed, each node standing for itself and its mirror.
    """
    D = field.dim
    ext = zero_extension(field)
    value_x = float(ext(x))
    if not np.isfinite(value_x):
        raise ValueError(f"field value is not finite at {x}")
    if constant_mode == MOMENT_CONSTANT:
        prefactor = D * (D + 2) / 2.0
    else:
        prefactor = D * (D + 1) / 2.0
    kernel = config.kernel
    stencil = reach_stencil(kernel, x, kernel.reach, None, config.resolution, config.scheme)
    H = np.zeros((D, D))
    trace = 0.0
    for b in stencil.blocks(len(stencil) // 2):
        second = _field_values(ext, x + b.h) - 2.0 * value_x + _field_values(ext, x - b.h)
        c = 2.0 * prefactor * b.wrho / (b.r2 * b.r2) * second
        H += (b.h * c[:, None]).T @ b.h
        trace += float(np.sum(c * b.r2))
    return H - trace / (D + 2) * np.eye(D)


# -- affine approximant ---------------------------------------------------------


@dataclass(frozen=True)
class TaylorData:
    """First-order kernel-based affine approximant and its remainder."""

    base: np.ndarray
    value: float
    slope: np.ndarray
    _field: ScalarField

    def affine(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.value + np.sum((x - self.base) * self.slope, axis=-1)

    def remainder(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self._field(x) - self.affine(x)


def taylor_affine(field: ScalarField, x0, config: OperatorConfig) -> TaylorData:
    """Affine approximant built from the kernel-smoothed gradient at ``x0``."""
    x0 = _interior_point(field, x0)
    slope = nonlocal_gradient(field, x0, config)
    return TaylorData(base=x0, value=field.value(x0), slope=slope, _field=field)
