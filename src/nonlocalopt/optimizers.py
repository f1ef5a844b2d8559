"""Descent methods driven by kernel-based operators, plus classical twins.

Four algorithms: fixed-schedule descent on the kernel-smoothed gradient,
the same with exact line search, a stochastic scheme whose sampled directions
are relaxed subgradients in expectation, and a Newton iteration built on the
second-difference kernel Hessian.  ``local_counterpart`` runs the classical
analog with the same trace format for side-by-side comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (CoincidentPointsError, NodeBudgetError, RejectionOverflowError,
                     SingularHessianError)
from .fields import ScalarField, as_point
from .kernels import RadialKernel, require_dim
from .operators import (CENTRAL, HessianVariant, OperatorConfig, _point_gradient,
                        nonlocal_gradient, nonlocal_hessian)
from .oracles import central_gradient, central_hessian, golden_section
from .quadrature import NODE_BUDGET

MAX_ITERS = "max-iters"
GRAD_TOL = "grad-tol"
DIVERGED = "diverged"
LEFT_DOMAIN = "left-domain"

_RESAMPLE_CAP = 1_000_000

# Newton runs refuse a curvature matrix whose condition number exceeds this.
CONDITION_LIMIT = 1e12

# Offsets an SGD chain draws from its generator at a time.
_DRAW_BLOCK = 128


@dataclass(frozen=True)
class StepSchedule:
    """Positive step sizes: fixed or a geometric decay.

    ``cap`` bounds the line-search interval ``[0, cap]`` where relevant.
    A geometric schedule with total mass below 1 carries the boundedness
    guarantee for Lipschitz objectives.
    """

    kind: str
    alpha: float = 0.1
    q: float = 0.5
    cap: float = 1.0

    def __post_init__(self):
        if self.kind not in ("fixed", "geometric"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.alpha > 0:
            raise ValueError("step sizes must be positive")
        if self.kind == "geometric" and not 0 < self.q < 1:
            raise ValueError("geometric decay needs 0 < q < 1")
        if not self.cap > 0:
            raise ValueError("line-search cap must be positive")

    @classmethod
    def fixed(cls, alpha: float) -> "StepSchedule":
        return cls("fixed", alpha=alpha)

    @classmethod
    def geometric(cls, alpha0: float, q: float) -> "StepSchedule":
        return cls("geometric", alpha=alpha0, q=q)

    def step(self, k: int) -> float:
        """Step size for iteration ``k`` (0-based)."""
        if self.kind == "fixed":
            return self.alpha
        return self.alpha * self.q**k


@dataclass
class OptimizerTrace:
    """Full iterate history of a run, one row per visited point."""

    iterates: np.ndarray
    objective_values: np.ndarray
    gradient_norms: np.ndarray
    steps_taken: np.ndarray
    termination: str
    offending_point: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.iterates.shape[0]
        if not (self.objective_values.shape[0] == n == self.gradient_norms.shape[0]):
            raise ValueError("trace arrays must have one entry per iterate")
        if self.steps_taken.shape[0] != max(n - 1, 0):
            raise ValueError("steps must be one shorter than the iterate list")

    @property
    def final_point(self) -> np.ndarray:
        return self.iterates[-1]

    def __len__(self) -> int:
        return self.iterates.shape[0]


def _descend(field: ScalarField, x0, direction, step, escaped, max_iters: int,
             grad_tol: float, floor: float = -math.inf) -> OptimizerTrace:
    """The iteration ``x_{k+1} = x_k - alpha_k d_k`` of every deterministic run here.

    Each iterate records ``(x, u(x), |g|)`` with ``g = direction(k, x)``.  The
    run stops with ``grad-tol`` once ``|g| < grad_tol`` or ``u(x) <= floor``,
    and with ``max-iters`` at iterate ``max_iters``.  Otherwise
    ``step(k, x, g, u(x))`` returns ``(alpha_k, x_{k+1})``, and a label from
    ``escaped(x_{k+1})`` ends the run there with ``x_{k+1}`` as the offender.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    x = as_point(x0, field.dim)
    points, values, norms, steps = [], [], [], []

    def done(termination: str, offending=None) -> OptimizerTrace:
        return OptimizerTrace(
            iterates=np.array(points),
            objective_values=np.array(values),
            gradient_norms=np.array(norms),
            steps_taken=np.array(steps),
            termination=termination,
            offending_point=None if offending is None else np.array(offending, dtype=float),
        )

    for k in range(max_iters + 1):
        g = direction(k, x)
        value = field.value(x)
        gnorm = math.sqrt(g.dot(g))  # np.linalg.norm of a vector, without its checks
        points.append(x)
        values.append(value)
        norms.append(gnorm)
        if gnorm < grad_tol or value <= floor:
            return done(GRAD_TOL)
        if k == max_iters:
            return done(MAX_ITERS)
        alpha, x_next = step(k, x, g, value)
        label = escaped(x_next)
        if label is not None:
            return done(label, offending=x_next)
        steps.append(alpha)
        x = x_next


def _kernel_gradient(field: ScalarField, config: OperatorConfig):
    return lambda k, x: nonlocal_gradient(field, x, config)


def _confined(field: ScalarField):
    """Exit rule of box-confined runs: a step that leaves the domain ends the run."""
    return lambda x: None if field.domain.contains(x) else LEFT_DOMAIN


def _scheduled(schedule: StepSchedule):
    def step(k, x, g, value):
        alpha = schedule.step(k)
        return alpha, x - alpha * g

    return step


def _line_searched(field: ScalarField, cap: float):
    def step(k, x, g, value):
        alpha = _line_search(field, x, g, cap)
        return alpha, x - alpha * g

    return step


def nlgd_fixed(
    field: ScalarField,
    x0,
    config: OperatorConfig,
    schedule: StepSchedule,
    max_iters: int = 100,
    grad_tol: float = 1e-8,
) -> OptimizerTrace:
    """Descent on the kernel-smoothed gradient with a fixed step schedule.

    The kernel scale stays fixed for the whole run.
    """
    return _descend(field, x0, _kernel_gradient(field, config), _scheduled(schedule),
                    _confined(field), max_iters, grad_tol)


def _line_search(field: ScalarField, x: np.ndarray, g: np.ndarray, cap: float) -> float:
    """Grid-seeded golden-section argmin of ``u(x - alpha g)`` over ``[0, cap]``.

    The interval is clipped so candidates stay inside the domain; ties break
    toward the smaller step.
    """
    lo = field.domain.lower_array
    hi = field.domain.upper_array
    alpha_max = cap
    for i in range(field.dim):
        if g[i] > 0:
            alpha_max = min(alpha_max, (x[i] - lo[i]) / g[i])
        elif g[i] < 0:
            alpha_max = min(alpha_max, (x[i] - hi[i]) / g[i])
    alpha_max *= 1.0 - 1e-12
    if alpha_max <= 0:
        return 0.0

    grid = np.linspace(0.0, alpha_max, 64)
    candidates = x[None, :] - grid[:, None] * g[None, :]
    values = np.asarray(field(candidates), dtype=float)
    best = int(np.argmin(values))  # first minimum = smallest alpha on ties

    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    phi = lambda t: field.value(x - t * g)
    refined, refined_val = golden_section(phi, a, b, 1e-8)
    if refined_val < values[best] or (
        refined_val == values[best] and refined < grid[best]
    ):
        return float(refined)
    return float(grid[best])


def nlgd_linesearch(
    field: ScalarField,
    x0,
    config: OperatorConfig,
    cap: float,
    max_iters: int = 100,
    grad_tol: float = 1e-8,
) -> OptimizerTrace:
    """Kernel-gradient descent with per-step exact line search on ``[0, cap]``."""
    return _descend(field, x0, _kernel_gradient(field, config), _line_searched(field, cap),
                    _confined(field), max_iters, grad_tol)


@dataclass(frozen=True)
class SgdConfig:
    """Settings for the stochastic relaxed-subgradient scheme.

    The step size is pinned to ``sqrt(B^2 / (M^2 K))``; the expected
    suboptimality after ``K`` averaged iterations is ``B M / sqrt(K)`` plus
    the subgradient relaxation ``epsilon``.
    """

    B: float
    M: float
    K: int
    epsilon: float

    def __post_init__(self):
        if not (self.K > 0 and all(0 < v < math.inf for v in (self.B, self.M, self.epsilon))):
            raise ValueError("B, M, K, epsilon must all be positive and finite")
        try:
            alpha = self.alpha
        except ArithmeticError:  # B**2 overflows or M**2 * K underflows to 0
            alpha = math.nan
        if not 0 < alpha < math.inf:
            raise ValueError("the step sqrt(B^2 / (M^2 K)) is not a positive float")

    @property
    def alpha(self) -> float:
        return math.sqrt(self.B**2 / (self.M**2 * self.K))

    @property
    def gap_bound(self) -> float:
        return self.B * self.M / math.sqrt(self.K) + self.epsilon


def _row_dots(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """``a[i] @ b[i]`` (``b`` defaults to ``a``) for every row, through the routine
    ``np.dot`` uses on two vectors.

    That BLAS routine may fuse multiplies and adds, so an elementwise sum of
    products can round differently once a row has two or more entries.
    """
    b = a if b is None else b
    if a.shape[1] == 1:
        return a[:, 0] * b[:, 0]  # a one-entry dot is one rounded product
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _chain_groups_per_batch(chains: int, K: int, D: int) -> int:
    """How many groups of ``chains`` SGD chains of ``K`` steps in ``D``-D one batch holds.

    Each chain's trace stores ``(K + 1) D`` coordinates and a batch stores at
    most ``NODE_BUDGET``; ``NodeBudgetError`` when not even one group fits.
    """
    if chains < 1:
        raise ValueError("need at least one seed")
    groups = NODE_BUDGET // (chains * (K + 1) * D)
    if groups < 1:
        raise NodeBudgetError(f"{chains} chains of {K} steps in {D}-D would store "
                              f"{chains * (K + 1) * D} coordinates, budget is {NODE_BUDGET}")
    return groups


def epsilon_sgd_batch(
    field: ScalarField, config: SgdConfig, kernel: RadialKernel | Sequence[RadialKernel], seeds
) -> tuple[np.ndarray, list[OptimizerTrace]]:
    """Independent runs of :func:`epsilon_sgd`, one per seed, stepped in lockstep.

    ``kernel`` is one ``RadialKernel`` for every chain, or a sequence of them
    aligned with ``seeds``; chains may share a kernel object.  Chain ``s``
    draws only from its own kernel and ``np.random.default_rng(seeds[s])``, in
    blocks of up to ``_DRAW_BLOCK`` offsets (``RadialKernel.sample`` continues
    one stream across blocks).  A kernel whose reach is below the float
    spacing at the start raises ``CoincidentPointsError`` before any draw:
    every partner point would round onto the iterate.  Each step takes one
    offset per chain, redraws for the chains whose partner point falls outside
    the domain or onto the iterate (at most ``_RESAMPLE_CAP`` draws per chain
    and step, else ``RejectionOverflowError``), and evaluates the field once
    at all iterates and once at all partner points.  A chain that diverges or
    leaves the domain stops there while the others go on.  So chain ``s`` does
    not depend on the other chains or their kernels, as long as the field
    callback gives a point the same value in any batch (elementwise callbacks
    do; a matrix product such as ``x @ a`` may round differently).  Returns
    the ``(S, D)`` averages and one trace per seed, views into the batch's
    arrays.  ``seeds`` is a sized sequence; a batch whose traces would hold
    more than ``NODE_BUDGET`` coordinates raises ``NodeBudgetError`` before
    anything is allocated.
    """
    S, D, K, alpha = len(seeds), field.dim, config.K, config.alpha
    _chain_groups_per_batch(S, K, D)
    kernels = [kernel] * S if hasattr(kernel, "sample") else list(kernel)
    if len(kernels) != S:
        raise ValueError(f"{len(kernels)} kernels for {S} seeds")
    center = field.domain.center
    for k in {id(k): k for k in kernels}.values():  # a sweep's chains share kernel objects
        require_dim(k, D)
        if not np.all((center - k.reach < center) & (center < center + k.reach)):
            raise CoincidentPointsError(
                f"kernel reach {k.reach} is below the float spacing at {center}")
    seeds = [int(s) for s in seeds]
    lo, hi = field.domain.lower_array, field.domain.upper_array
    radius = 10.0 * config.B  # divergence guard around the start
    rngs = [np.random.default_rng(s) for s in seeds]
    # Allocated before the large arrays, so that a caller who keeps only the
    # averages frees those in one piece, with no live block above them.
    steps = np.full(K, alpha)
    x_bars = np.empty((S, D))
    # Chain i's undrawn offsets are rows pos[i]:end[i] of its block; the
    # arrays below run over the live chains and shrink when chains stop.
    width = min(_DRAW_BLOCK, K)
    offsets = np.empty((S * width, D))
    start = np.arange(S) * width
    pos, end = start.copy(), start.copy()

    def inside(p):
        return ((p > lo) & (p < hi)).all(axis=1)

    def refill(empty, k):
        for i in empty.tolist():
            n = min(_DRAW_BLOCK, K - k)  # every step left needs at least one draw
            s = live[i]
            offsets[start[i]:start[i] + n] = kernels[s].sample(rngs[s], n)
            pos[i], end[i] = start[i], start[i] + n

    iterates = np.empty((S, K + 1, D))
    values = np.empty((S, K + 1))
    norms = np.empty((S, K + 1))
    length = np.full(S, K + 1)
    termination = [MAX_ITERS] * S
    offending: list[Optional[np.ndarray]] = [None] * S
    live = np.arange(S)
    x = np.tile(center, (S, 1))
    room = 0  # every live chain has at least this many undrawn offsets
    for k in range(K):
        u = np.asarray(field(x), dtype=float)
        if room == 0:
            refill(np.flatnonzero(pos == end), k)
            room = int((end - pos).min())
        h = offsets[pos]
        pos += 1
        room -= 1
        y = x - h
        d = x - y
        r2 = _row_dots(d)
        bad = ~(inside(y) & (r2 > 0.0))
        if np.count_nonzero(bad):
            redo = np.flatnonzero(bad)
            for _ in range(_RESAMPLE_CAP - 1):
                refill(redo[pos[redo] == end[redo]], k)
                y[redo] = x[redo] - offsets[pos[redo]]
                pos[redo] += 1
                d[redo] = x[redo] - y[redo]
                r2[redo] = _row_dots(d[redo])
                redo = redo[~(inside(y[redo]) & (r2[redo] > 0.0))]
                if redo.size == 0:
                    break
            else:
                raise RejectionOverflowError(
                    "could not draw a partner point inside the domain; kernel too wide"
                )
            room = int((end - pos).min())
        g = D * (((u - np.asarray(field(y), dtype=float)) / r2)[:, None] * d)
        iterates[live, k] = x
        values[live, k] = u
        norms[live, k] = np.sqrt(_row_dots(g))
        x = x - alpha * g
        diverged = np.sqrt(_row_dots(x - center)) > radius
        stopped = diverged | ~inside(x)
        if np.count_nonzero(stopped):
            for i in np.flatnonzero(stopped).tolist():
                s = live[i]
                length[s] = k + 1
                termination[s] = DIVERGED if diverged[i] else LEFT_DOMAIN
                offending[s] = x[i].copy()
            kept = ~stopped
            live, x, start, pos, end = live[kept], x[kept], start[kept], pos[kept], end[kept]
            if live.size == 0:
                break
    if live.size:
        iterates[live, K] = x
        values[live, K] = np.asarray(field(x), dtype=float)
        norms[live, K] = np.nan  # final iterate: no direction drawn

    del offsets, rngs  # no draws are left: free them before the traces are built
    traces = []
    for s in range(S):
        n = length[s]
        traces.append(OptimizerTrace(
            iterates=iterates[s, :n],
            objective_values=values[s, :n],
            gradient_norms=norms[s, :n],
            steps_taken=steps[:n - 1],
            termination=termination[s],
            offending_point=offending[s],
        ))
        # the sum over the chain's own contiguous rows, as np.mean takes it in a single run
        x_bars[s] = np.add.reduce(iterates[s, :min(n, K)], axis=0)
    x_bars /= np.minimum(length, K)[:, None]
    return x_bars, traces


def epsilon_sgd(
    field: ScalarField, config: SgdConfig, kernel: RadialKernel, seed: int = 0
) -> tuple[np.ndarray, OptimizerTrace]:
    """Stochastic descent along sampled difference quotients.

    Starts at the domain center (the scheme's nominal origin mapped into the
    domain).  Each step draws an offset from the kernel, resamples until the
    partner point lands inside the domain and off the iterate, and moves
    along ``D`` times the difference quotient.  Returns the average of the
    first ``K`` iterates and the full trace.  This is
    :func:`epsilon_sgd_batch` over the one seed ``seed``.
    """
    x_bars, traces = epsilon_sgd_batch(field, config, kernel, [seed])
    return x_bars[0], traces[0]


def nonlocal_newton(
    field: ScalarField,
    x0,
    config: OperatorConfig,
    max_iters: int = 25,
    grad_tol: float = 1e-10,
    beta: float = 1.0,
) -> OptimizerTrace:
    """Newton iteration on the kernel gradient and second-difference Hessian.

    An iterate before ``max_iters`` whose reach box lies inside the domain and the field's
    support takes both from the one-point gradient's field pass, with the bits of the two
    separate calls (``operators._point_gradient``).  Any other iterate computes its Hessian
    only to step.

    The linear solve uses LAPACK partial pivoting and refuses matrices whose
    condition estimate exceeds ``CONDITION_LIMIT``, and steps ``H^-1 g`` longer
    than ``CONDITION_LIMIT`` domain diameters: a 1x1 matrix of rounding noise
    has condition number 1.  The step size ``beta``
    is applied as given, which lets the iterates settle onto the smoothed
    stationary point (the terminal plateau shrinks with the kernel scale);
    only steps that would exit the domain are halved.
    """
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    require_dim(config.kernel, field.dim)
    H = None

    def direction(k, x):
        nonlocal H
        # no step follows the last iterate
        both = None if k == max_iters else _point_gradient(field, x, config, hessian=True)
        g, H = (nonlocal_gradient(field, x, config), None) if both is None else both
        return g

    def step(k, x, g, value):
        nonlocal H
        H = nonlocal_hessian(field, x, HessianVariant(CENTRAL), config) if H is None else H
        if not np.all(np.isfinite(H)) or np.linalg.cond(H) > CONDITION_LIMIT:
            raise SingularHessianError(
                f"curvature matrix is singular at iteration {k}", iteration=k
            )
        p = np.linalg.solve(H, g)
        length = float(np.linalg.norm(p))
        if not length <= CONDITION_LIMIT * field.domain.diameter:
            raise SingularHessianError(
                f"curvature matrix is singular at iteration {k}: step length {length:.3g}",
                iteration=k,
            )
        b = beta
        x_next = x - b * p
        while b > 1e-8 and not field.domain.contains(x_next):
            b *= 0.5
            x_next = x - b * p
        return b, x_next

    return _descend(field, x0, direction, step, _confined(field), max_iters, grad_tol)


def local_counterpart(
    field: ScalarField,
    x0,
    method: str,
    schedule: Optional[StepSchedule] = None,
    max_iters: int = 100,
    grad_tol: float = 1e-10,
) -> OptimizerTrace:
    """Classical gradient-descent / line-search / Newton twin of the runs above.

    Uses analytic derivatives when the field declares them and central
    differences otherwise.  Classical methods are not confined to the box
    domain; runs terminate as diverged once the iterate strays ten domain
    diameters from the start.
    """
    if method not in ("gd", "gd-ls", "newton"):
        raise ValueError(f"unknown local method {method!r}")
    x_start = as_point(x0, field.dim)
    # central differences with steps relative to |x|, unconfined like the run
    grad = field.gradient_at if field.gradient is not None else (
        lambda p: central_gradient(field, p, 1e-5 * (1.0 + float(np.linalg.norm(p)))))
    hess = field.hessian_at if field.hessian is not None else (
        lambda p: central_hessian(field, p, 1e-4 * (1.0 + float(np.linalg.norm(p)))))

    def newton_step(k, x, g, value):
        H = np.asarray(hess(x), dtype=float)
        if np.linalg.cond(H) > CONDITION_LIMIT:
            raise SingularHessianError(
                f"classical curvature matrix is singular at iteration {k}", iteration=k
            )
        return 1.0, x - np.linalg.solve(H, g)

    if method == "gd":
        if schedule is None:
            raise ValueError("gd needs a step schedule")
        step = _scheduled(schedule)
    elif method == "gd-ls":
        step = _line_searched(field, schedule.cap if schedule is not None else 1.0)
    else:
        step = newton_step
    limit = 10.0 * field.domain.diameter
    return _descend(
        field, x_start, lambda k, x: np.asarray(grad(x), dtype=float), step,
        lambda x: DIVERGED if float(np.linalg.norm(x - x_start)) > limit else None,
        max_iters, grad_tol,
    )
