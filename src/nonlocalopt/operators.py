"""Kernel-based differential operators: gradients and Hessians.

The first-order operator averages difference quotients of the field against a
radial density; it exists for merely Lipschitz (and weaker) fields and
localizes to the classical gradient as the kernel concentrates.  Four
second-order constructions are provided, one of which (the symmetric
second-difference form) is the workhorse for Newton iterations.  The
directional second moments of the kernel over the domain measure how much
of its mass a boundary truncates.

Every operator that calls the field on a stencil does so in ``_walk``, the one
loop over stencil blocks; each keeps only its per-block arithmetic.  The
exceptions: the one-point pass (``_point_gradient``) inlines that loop for
one row, whose bookkeeping would add about a third to a 1-D call, and
``directional_second_moments`` calls no field.  An interior Newton iterate asks
the one-point pass for the central Hessian too, and takes both from its one walk
of the stencil.  The central Hessian, that pass and the second moments share one
per-row sum on each block's tensor grid (``_grid_moments``), with no offset array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import (DimensionMismatchError, MissingDerivativeError, NoBracketError,
                     NodeBudgetError, NonFiniteFieldError)
from .fields import (
    BoxDomain,
    ScalarField,
    SubsetIndicator,
    as_point,
    as_points,
    extend_by_zero,
)
from .kernels import RadialKernel, require_dim
from . import quadrature
from .quadrature import BLOCK_NODES, NODE_BUDGET, Stencil, _shifted, reach_stencils

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

    def __post_init__(self):
        r = self.resolution
        if isinstance(r, bool) or not isinstance(r, int) or r < 2:
            raise ValueError(f"resolution must be an integer >= 2, got {r!r}")


def _interior_points(field: ScalarField, x, kernel: RadialKernel) -> tuple[np.ndarray, bool]:
    """``x`` as a ``(P, D)`` batch of interior points, and whether it was given as a batch.

    Every operator takes its points here, so here the kernel's dimension is checked too.
    """
    require_dim(kernel, field.dim)
    points, batch = as_points(x, field.dim)
    if not batch:
        points = points[None]
    domain = field.domain
    if not np.logical_and.reduce((points > domain.lower_array) & (points < domain.upper_array),
                                 axis=None):
        bad = points[np.argmin(domain.contains(points))]
        raise ValueError(f"operator evaluation requires an interior point, got {bad}")
    return points, batch


def _field_values(fn, points) -> np.ndarray:
    """``fn`` at the given points (an array or ``Columns``): the one finiteness check every
    operator shares."""
    values = np.asarray(fn(points), dtype=float)
    # a sum is finite when every value is; one that overflows gets the full check
    if not math.isfinite(np.add.reduce(values, axis=None)):
        finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
        if not finite.all():
            raise NonFiniteFieldError(f"field value is not finite at quadrature node "
                                      f"{points[np.argmin(finite)]}")
    return values


def _value_at(field: ScalarField, x: np.ndarray) -> float:
    """``u(x)`` from one ``field.value`` call; it must be finite."""
    value = field.value(x)
    if not math.isfinite(value):
        raise NonFiniteFieldError(f"field value is not finite at {x}")
    return value


def _values_at(field: ScalarField, points: np.ndarray) -> np.ndarray:
    """``u`` at each point, one ``field.value`` call each."""
    return np.array([_value_at(field, x) for x in points])


def _chunks(rows: np.ndarray, n: int):
    """``rows`` in runs whose ``n``-node stencil blocks fill at most ``BLOCK_NODES`` nodes."""
    per_call = max(1, BLOCK_NODES // n)
    return (rows[start:start + per_call] for start in range(0, len(rows), per_call))


def _walk(blocks, rows: np.ndarray, points: np.ndarray, fn, add) -> None:
    """The stencil-block loop of every operator: ``add(axes, weight, chunk, values)`` for each
    block ``(axes, weight)`` of ``blocks`` (a ``StencilBlock``, or a block of
    ``Stencil.moment_weights``) and each run ``chunk`` of ``rows`` that fits in ``BLOCK_NODES``
    nodes (``_chunks``).

    ``values(op=np.add)`` is one checked ``fn`` call at ``op(x, h)`` for the rows ``x`` of
    ``points[chunk]`` and the block's nodes ``h``, given as ``Columns`` (``_shifted``): a field
    reads them as its columns, a vector-valued ``fn`` (the smoothed Hessians' ``grad_at``) as
    an ``(N, D)`` array.  The values come as ``(len(chunk), n, ...)`` in C order whatever
    layout ``fn`` returns: BLAS rounding depends on the layout.  A streamed block is freed
    before the next one is expanded.
    """
    for axes, weight in blocks:
        n = math.prod([x.size for x, _ in axes])
        for chunk in _chunks(rows, n):
            x = points[chunk]

            def values(op=np.add):
                found = np.ascontiguousarray(_field_values(fn, _shifted(x, axes, op)))
                return found.reshape(len(chunk), n, *found.shape[1:])

            add(axes, weight, chunk, values)
        del weight


def _quotients(groups, points: np.ndarray, values_at, fn, out: np.ndarray) -> np.ndarray:
    """Adds to ``out[p]`` the quotient sums of ``fn`` over the stencil of each row ``x`` of
    ``points``, one ``(n,) @ (n, D)`` product with a block's gradient weights a block;
    ``groups`` pairs each stencil with its rows (``reach_stencils``).  Over a paired stencil's
    half (``Stencil.paired``) the product is with ``fn(x - h) - fn(x + h)``: each node stands
    for its mirror image too, whose weights are its own negated, so ``u(x)`` cancels.  Over
    another stencil it is with ``u(x) - fn(x + h)``, ``u`` from one ``values_at(points)`` call
    for all its rows.  A vector-valued ``fn`` gives matrices whose rows index its components."""
    own = [rows for stencil, rows in groups if not stencil.paired]
    values = np.zeros(out.shape[:-1])  # u at the rows of the stencils that are not paired
    if own:
        own = np.concatenate(own)
        values[own] = values_at(points[own])
    for stencil, rows in groups:
        def add(axes, grad, chunk, found, paired=stencil.paired):
            plus = found()
            for i, u, vals in zip(chunk, found(np.subtract) if paired else values[chunk], plus):
                out[i] += (u - vals).T @ grad

        _walk(stencil.blocks(), rows, points, fn, add)
    return out


def _point_gradient(field: ScalarField, point: np.ndarray, config: OperatorConfig,
                    hessian: bool = False):
    """The gradient at one point ``(D,)``, or ``None`` if it fails a batch row's checks.

    The checks and the reach box run in Python floats.  The point's own rule is
    the cached full-box stencil, or ``box_blocks`` over a clipped box; each
    block adds the row's ``(n,) @ (n, D)`` product to zeros, paired or not as
    ``_quotients``.  This is ``_walk`` for one row, without its per-block bookkeeping.

    With ``hessian`` it returns the gradient and the central Hessian (``nonlocal_hessian``
    with ``HessianVariant(CENTRAL)``), both bit for bit, or ``None`` unless the reach box lies
    strictly inside the domain and the field's support.  There both read the field itself over
    the full-box stencil: the gradient and the second differences come from the same ``u(x +
    h)`` and ``u(x - h)``, block by block: each block adds its product and the grid sums
    (``_grid_moments``) of its weights ``w * rho / |h|^4`` times the second differences, and
    ``u(x)`` is read once.
    """
    kernel, domain, reach = config.kernel, field.domain, config.kernel.reach
    v, lo, hi, clipped = point.tolist(), [], [], False
    for c, a, b in zip(v, domain.lower, domain.upper):
        low, high = c - reach, c + reach
        if not (a < c < b and low < c < high):
            return None
        clipped = clipped or low < a or high > b
        lo.append(max(low, a) - c)
        hi.append(min(high, b) - c)
    if hessian:
        boxes = [domain] if field.support is None else [domain, field.support]
        if not all(a < c - reach and c + reach < b
                   for box in boxes for a, b, c in zip(box.lower, box.upper, v)):
            return None
    if clipped:
        blocks, paired = quadrature.box_blocks(kernel, lo, hi, config.resolution)
    else:
        stencil = quadrature.STENCILS.get(kernel, reach, config.resolution)
        blocks, paired = stencil.blocks(), stencil.paired
    value = _value_at(field, point) if hessian or not paired else None
    total = np.zeros(point.shape)
    if hessian:  # a full box is paired, so ``u`` below is ``u(x - h)``
        S = np.zeros((1, len(v), len(v)))
    weights = stencil.moment_weights(2) if hessian else itertools.repeat((None, None))
    for block, (_, k) in zip(blocks, weights):
        plus = _field_values(field, _shifted(point[None], block.axes))
        u = _field_values(field, _shifted(point[None], block.axes, np.subtract)) if paired else value
        total += (u - plus) @ block.grad
        if hessian:
            S[0] += _grid_moments(block.axes, k * (plus - 2.0 * value + u))
        del block, k  # as in ``_walk``
    return (total, _traceless(S, MOMENT_CONSTANT)[0]) if hessian else total


def nonlocal_gradient(field: ScalarField, x, config: OperatorConfig) -> np.ndarray:
    """Kernel-smoothed gradient of the field at an interior point, or at each row of ``(P, D)``.

    Integrates ``D * k_u(x, y) * rho(x - y)`` over the domain, restricted to
    the kernel's reach box (``RadialKernel.reach``), which loses nothing of a
    compact kernel but about ``D * 2 Phi(-6)`` of a Gaussian's weight: only a
    compact kernel is exact on linear fields (to quadrature and rounding)
    where the box lies inside the domain.  A batch
    gives the rows that one-point calls give, bit for bit, when the field
    computes each row on its own (as the catalog fields do).  One point (not
    a ``(1, D)`` batch) sums its own rule directly; if it fails a check, the
    batch route raises the batch's error.
    """
    kernel = config.kernel
    require_dim(kernel, field.dim)
    point, batch = as_points(x, field.dim)
    if not batch and (total := _point_gradient(field, point, config)) is not None:
        return total
    points, batch = _interior_points(field, x, kernel)
    groups = reach_stencils(kernel, points, kernel.reach, field.domain, config.resolution)
    total = _quotients(groups, points, partial(_values_at, field), field, np.zeros(points.shape))
    return total if batch else total[0]


def restricted_nonlocal_gradient(
    field: ScalarField, x, config: OperatorConfig, subset: SubsetIndicator
) -> np.ndarray:
    """Nonlocal gradient with the integral restricted to a box-union subset."""
    x = _interior_points(field, as_point(x, field.dim), config.kernel)[0][0]
    if subset.dim != field.dim:
        raise DimensionMismatchError(
            f"subset dimension {subset.dim} does not match field dimension {field.dim}")
    kernel, groups = config.kernel, []
    for lo, hi in subset.pieces():
        clipped = field.domain.clip_box(np.maximum(lo, x - kernel.reach),
                                        np.minimum(hi, x + kernel.reach))
        if clipped is not None:
            stencil = Stencil(kernel, clipped[0] - x, clipped[1] - x, config.resolution)
            groups.append((stencil, np.arange(1)))
    total = np.zeros((1, field.dim))
    return _quotients(groups, x[None], partial(_values_at, field), field, total)[0]


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
    x = _interior_points(field, as_point(x_star, 1), config.kernel)[0][0]
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
        f_lo = total(t_lo)
        for _ in range(200):
            t_mid = 0.5 * (t_lo + t_hi)
            f_mid = total(t_mid)
            if abs(f_mid) <= VANISHING_TOL:
                moving = (xs - t_mid, xs) if moving_side < 0 else (xs, xs + t_mid)
                return SubsetIndicator.from_intervals([fixed, moving])
            if f_lo * f_mid <= 0:
                t_hi = t_mid
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
    """Kernel-based second-derivative matrix at an interior point, at ``config.kernel``.

    A ``(P, D)`` batch of points gives ``(P, D, D)``, row for row the
    one-point results.
    """
    points, batch = _interior_points(field, x, config.kernel)
    if variant.kind == CENTRAL:
        H = _central_hessians(field, points, config, variant.constant_mode)
    elif variant.kind == FD_NONLOCAL:
        # one gradient call over the shifted points, indexed (axis j, sign, point, D)
        h = variant.fd_step
        step = h * np.eye(field.dim)[:, None]
        shifted = points + np.stack([step, -step], axis=1)
        g = nonlocal_gradient(field, shifted.reshape(-1, field.dim), config).reshape(shifted.shape)
        H = np.moveaxis((g[:, 0] - g[:, 1]) / (2.0 * h), 0, -1)
    else:
        H = _smoothed_hessians(field, points, variant, config)
    return H if batch else H[0]


def _smoothed_hessians(field: ScalarField, points: np.ndarray, variant: HessianVariant,
                       config: OperatorConfig) -> np.ndarray:
    """Kernel partials of classical (grad-smoothed) or kernel (nested) partials.

    ``grad_at`` hands its points to vector-valued callbacks, so it builds the ``(N, D)``
    array of a block's ``Columns``."""
    if variant.kind == GRAD_SMOOTHED:
        if field.gradient is None and variant.fd_step is None:
            raise MissingDerivativeError(
                "grad-smoothed hessian needs an analytic gradient or a declared fd step"
            )
        outer_kernel = config.kernel

        def grad_at(pts) -> np.ndarray:
            return _classical_gradient(field, np.asarray(pts), variant.fd_step)
    else:  # NESTED
        outer_kernel = config.kernel.with_scale_index(variant.m)

        def grad_at(pts) -> np.ndarray:
            return nonlocal_gradient(field, np.asarray(pts), config)

    groups = reach_stencils(outer_kernel, points, outer_kernel.reach, field.domain,
                            config.resolution)
    if variant.kind == NESTED:
        inner_nodes = config.resolution ** field.dim
        for stencil, _ in groups:
            if len(stencil) * inner_nodes > NODE_BUDGET:
                raise NodeBudgetError(
                    f"nested hessian needs ~{len(stencil) * inner_nodes} field nodes, "
                    f"budget is {NODE_BUDGET}"
                )
    out = np.zeros((len(points), field.dim, field.dim))
    return _quotients(groups, points, partial(_field_values, grad_at), grad_at, out)


def _grid_moments(axes, t: np.ndarray) -> np.ndarray:
    """``sum t h_i h_j`` (D, D) over the nodes ``h`` of the sub-grid of the per-axis rules
    ``axes``, ``t`` given per node in C order, with no offset array: for each ``i <= j``, ``t``
    on the sub-grid summed over its other axes, contracted with the rules of axes ``i`` and
    ``j`` (``h_i^2`` when they are one axis)."""
    xs = [x for x, _ in axes]
    t, D = t.reshape([x.size for x in xs]), len(xs)
    S = np.empty((D, D))
    for i, j in itertools.combinations_with_replacement(range(D), 2):
        other = tuple(a for a in range(D) if a != i and a != j)
        s = t.sum(axis=other) if other else t
        S[i, j] = S[j, i] = s @ (xs[i] * xs[i]) if i == j else xs[i] @ s @ xs[j]
    return S


def _traceless(S: np.ndarray, constant_mode: str) -> np.ndarray:
    """The central Hessians ``2 * prefactor * S`` of the sums ``S`` (P, D, D), the prefactor
    normalized by ``constant_mode`` (see ``MOMENT_CONSTANT``), less a ``1 / (D + 2)`` share of
    their traces on the diagonal."""
    D = S.shape[-1]
    prefactor = D * (D + 2) / 2.0 if constant_mode == MOMENT_CONSTANT else D * (D + 1) / 2.0
    H = 2.0 * prefactor * S
    return H - (np.trace(H, axis1=1, axis2=2) / (D + 2))[:, None, None] * np.eye(D)


def _central_hessians(
    field: ScalarField,
    points: np.ndarray,
    config: OperatorConfig,
    constant_mode: str,
) -> np.ndarray:
    """Symmetric second-difference construction over the kernel's reach box, per point.

    The field is extended by zero beyond its support (or beyond the domain)
    so the translated stencil is always defined (it is the field itself when
    every reach box lies strictly inside).  The full-box stencil is paired,
    so only its lower half is walked, each node standing for itself and its
    mirror: one field call at ``x + h`` and one at ``x - h`` per block, for
    as many points as ``_walk`` packs.  Each row sums its second differences
    times the block's weights ``w * rho / |h|^4`` by ``_grid_moments``.
    """
    P, D = points.shape
    kernel = config.kernel
    box = field.domain if field.support is None else field.support
    # every offset has |h_i| <= reach, so then each x + h and x - h is inside the box
    inside = np.all(box.contains(points - kernel.reach) & box.contains(points + kernel.reach))
    ext = field if inside else extend_by_zero(field)
    values = _values_at(ext, points)
    [(stencil, rows)] = reach_stencils(kernel, points, kernel.reach, None, config.resolution)
    S = np.zeros((P, D, D))

    def add(axes, k, chunk, found):
        second = found() - 2.0 * values[chunk, None] + found(np.subtract)
        for p, s in zip(chunk, second):
            S[p] += _grid_moments(axes, k * s)

    _walk(stencil.moment_weights(2), rows, points, ext, add)
    return _traceless(S, constant_mode)


def directional_second_moments(domain: BoxDomain, x, config: OperatorConfig) -> np.ndarray:
    """Domain integrals of ``(x_i - y_i)^2 / |x - y|^2`` against the kernel, one per axis.

    Each converges to ``1/D`` at interior points as the kernel concentrates;
    the deficit of ``D * c_i`` below 1 measures boundary truncation.  Each block
    adds the diagonal of ``_grid_moments`` of its weights ``w * rho / |h|^2``.
    """
    kernel = config.kernel
    x = as_point(x, kernel.dim)
    if not domain.contains(x):
        raise ValueError("moment diagnostics require an interior point")
    [(stencil, _)] = reach_stencils(kernel, x[None], kernel.full_radius, domain,
                                    config.resolution)
    c = np.zeros(kernel.dim)
    for axes, k in stencil.moment_weights(1):  # k = w * rho / |h|^2
        c += np.diagonal(_grid_moments(axes, k))
    return 2.0 * c if stencil.paired else c  # a paired node stands for its mirror image too
