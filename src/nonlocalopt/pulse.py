"""Pulse-translation estimation: recover a shift from a non-differentiable objective.

A rectangular pulse of fixed width slides over [0, 1]; the objective is the
discrete L2 distance between the shifted pulse and a template at an unknown
shift.  The objective is flat away from the template, Holder-1/2 near it, and
nowhere differentiable in the classical sense, yet its kernel-smoothed
gradient exists everywhere, so the smoothed descent recovers the shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .fields import BoxDomain, ScalarField
from .kernels import GAUSSIAN, RadialKernel
from .operators import OperatorConfig, nonlocal_gradient
from .optimizers import LEFT_DOMAIN, OptimizerTrace, _descend

# Base kernel scales for the shift experiment, calibrated so that (a) even
# the narrowest kernel in the default scale list feels the objective's basin
# from the flat region at the default starting shift, and (b) the adaptive
# descent settles inside the 0.02 tolerance band within 200 iterations for
# every (family, scale-index) combination.
DEFAULT_GAUSSIAN_BASE = 1.8
DEFAULT_BUMP_BASE = 3.5

# Gauss nodes of the quadrature every pulse gradient uses.
RESOLUTION = 512


def _cells(count, N: int):
    """``count`` clipped to ``[0, N]``: ``np.clip``'s bits, a +0 for any zero included."""
    return np.minimum(np.maximum(0.0, count), N)


@dataclass(frozen=True)
class PulseManifold:
    """Family of unit-height rectangular pulses ``[theta, theta + width]`` in [0, 1]."""

    pulse_width: float = 0.125
    signal_grid: int = 4096
    template_theta: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.pulse_width < 1.0:
            raise ValueError("pulse width must lie in (0, 1)")
        if self.signal_grid < 2:
            raise ValueError("signal grid needs at least two cells")
        if not 0.0 <= self.template_theta <= 1.0:
            raise ValueError("template shift must lie in [0, 1]")

    def _edges(self, theta, ceil=np.ceil, minimum=np.minimum):
        """Edge cells ``(lo, hi)`` of the pulse at ``theta``: it covers cells lo .. hi-1.

        Each edge ``a`` is rounded once, to ``ceil(a N - 1/2)``.  That rounding
        is monotone, so an overlap's edges are the max and min of rounded
        edges and need no rounding of their own.
        """
        N = float(self.signal_grid)
        return ceil(theta * N - 0.5), ceil(minimum(theta + self.pulse_width, 1.0) * N - 0.5)

    @cached_property
    def _template(self):
        lo, hi = self._edges(np.asarray(self.template_theta, dtype=float))
        return lo, hi, hi - lo

    def _cells_apart(self, lo, hi, minimum=np.minimum, maximum=np.maximum):
        """Cells in one of the pulse ``[lo, hi)`` and the template but not in both.

        With both shifts in [0, 1] every edge lies in [0, N], so only the
        overlap needs its clip.  The counts are exact integers, so the result
        is never negative and its zero is +0.
        """
        lo_t, hi_t, count_t = self._template
        return hi - lo + count_t - 2.0 * maximum(0.0, minimum(hi, hi_t) - maximum(lo, lo_t))

    def squared_distance(self, theta1, theta2):
        """Rectangle-rule squared L2 distance between two shifted pulses."""
        lo1, hi1 = self._edges(np.asarray(theta1, dtype=float))
        lo2, hi2 = self._edges(np.asarray(theta2, dtype=float))
        N = self.signal_grid
        overlap = _cells(np.minimum(hi1, hi2) - np.maximum(lo1, lo2), N)
        return (_cells(hi1 - lo1, N) + _cells(hi2 - lo2, N) - 2.0 * overlap) / N

    def distance(self, theta1, theta2):
        return np.sqrt(np.maximum(self.squared_distance(theta1, theta2), 0.0))

    def objective(self, theta):
        """L2 distance to the template pulse; zero exactly at the template shift.

        Equal, bit for bit, to ``distance(theta, template_theta)``.  One
        non-NaN shift (a float or a 0-d array) takes the same integer
        arithmetic in Python numbers, at a fraction of numpy's overhead.
        """
        if not (isinstance(theta, float) and theta == theta):
            theta = np.asarray(theta, dtype=float)
            if theta.ndim or theta != theta:
                # fmin and fmax skip NaN, as the elementwise comparisons did
                if (np.fmin.reduce(theta, axis=None, initial=0.0) < 0.0
                        or np.fmax.reduce(theta, axis=None, initial=1.0) > 1.0):
                    raise ValueError("shift parameter must lie in [0, 1]")
                return np.sqrt(self._cells_apart(*self._edges(theta)) / self.signal_grid)
        t = float(theta)
        if not 0.0 <= t <= 1.0:
            raise ValueError("shift parameter must lie in [0, 1]")
        apart = self._cells_apart(*self._edges(t, math.ceil, min), min, max)
        return np.float64(math.sqrt(apart / self.signal_grid))

    def signal(self, theta: float) -> np.ndarray:
        """Midpoint samples of the pulse at one shift (for plots and tests)."""
        N = self.signal_grid
        t = (np.arange(N) + 0.5) / N
        return ((t >= theta) & (t < min(theta + self.pulse_width, 1.0))).astype(float)

    def objective_field(self) -> ScalarField:
        domain = BoxDomain.interval(0.0, 1.0)
        manifold = self

        def fn(x):
            return manifold.objective(x[0] if x.ndim == 1 else x[..., 0])  # (1,): a float

        return ScalarField(fn, domain, name="pulse-objective")


def default_holder_offsets(manifold: PulseManifold) -> np.ndarray:
    """Log-spaced probe offsets snapped to whole grid cells.

    Snapping makes the rectangle-rule distance exact for these offsets, so
    the fitted scaling exponent is not polluted by cell-quantization jitter.
    """
    N = manifold.signal_grid
    lo = max(4, int(round(N * 1e-3)))
    hi = max(lo + 4, int(round(N * 1e-2)))
    cells = np.unique(np.round(np.geomspace(lo, hi, 8)).astype(int))
    return cells / N


def holder_exponent_fit(
    manifold: PulseManifold, theta_center: float, offsets
) -> float:
    """Least-squares slope of ``log(distance/offset)`` against ``log(offset)``.

    The pulse family scales like the square root of the shift difference, so
    the expected exponent is -1/2.
    """
    offsets = np.asarray(offsets, dtype=float)
    if offsets.size < 2 or np.any(offsets <= 0):
        raise ValueError("need at least two positive offsets")
    if np.any(np.abs(np.diff(np.sort(offsets))) <= 0):
        raise ValueError("offsets must be distinct")
    if float(np.max(offsets)) >= manifold.pulse_width:
        raise ValueError("offsets must stay below the pulse width")
    if theta_center + float(np.max(offsets)) + manifold.pulse_width > 1.0:
        raise ValueError("offsets would push the pulse into the clipped region")
    d = manifold.distance(theta_center + offsets, theta_center)
    if np.any(d <= 0):
        raise ValueError("degenerate offsets: zero distance measured")
    slope = np.polyfit(np.log(offsets), np.log(d / offsets), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class PulseRunConfig:
    """Settings for one adaptive descent run on the pulse objective."""

    family: str = GAUSSIAN
    n: int = 1
    base_scale: Optional[float] = None
    alpha: float = 0.1
    halving_threshold: float = 2.5
    theta0: float = 0.1
    theta_star: float = 0.5
    max_iters: int = 200
    pulse_width: float = 0.125
    signal_grid: int = 4096
    tolerance: float = 0.02

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("learning rate must lie in (0, 1]")
        if not self.halving_threshold > 1.0:
            raise ValueError("halving threshold must exceed 1")
        if not self.tolerance >= 0.0:
            raise ValueError("tolerance must be nonnegative")
        if not 0.0 <= self.theta0 <= 1.0:
            raise ValueError("starting shift theta0 must lie in [0, 1]")
        self.kernel()  # a bad family, scale index or base scale raises here
        self.manifold()  # and so does a bad pulse geometry

    @property
    def effective_base_scale(self) -> float:
        if self.base_scale is not None:
            return self.base_scale
        return DEFAULT_GAUSSIAN_BASE if self.family == GAUSSIAN else DEFAULT_BUMP_BASE

    def kernel(self) -> RadialKernel:
        return RadialKernel(self.family, 1, self.n, self.effective_base_scale)

    def manifold(self) -> PulseManifold:
        return PulseManifold(self.pulse_width, self.signal_grid, self.theta_star)


@dataclass(frozen=True)
class PulseRunSummary:
    """Outcome of one run: final shift estimate and convergence bookkeeping."""

    family: str
    n: int
    theta_hat: float
    abs_error: float
    iterations: int
    iterations_to_tolerance: Optional[int]
    converged: bool
    objective_monotone: bool
    halvings: int
    clamped: int


def run_pulse_experiment(config: PulseRunConfig) -> tuple[OptimizerTrace, PulseRunSummary]:
    """Adaptive smoothed-gradient descent on the pulse objective.

    Vanilla descent with one safeguard: whenever the gradient magnitude jumps
    by more than the configured ratio between consecutive iterations, the
    learning rate is halved.  Iterates that would leave [0, 1] clamp to the
    boundary.
    """
    field = config.manifold().objective_field()
    op_config = OperatorConfig(config.kernel(), RESOLUTION)
    margin = 1e-9
    alpha = config.alpha
    prev_gnorm = None
    halvings = 0
    clamped = 0

    def direction(k, theta):
        nonlocal alpha, prev_gnorm, halvings
        g = nonlocal_gradient(field, theta, op_config)
        gnorm = abs(float(g[0]))
        if prev_gnorm is not None and gnorm > config.halving_threshold * prev_gnorm:
            alpha *= 0.5
            halvings += 1
        prev_gnorm = gnorm
        return g

    def step(k, theta, g, value):
        # in Python floats: the bits of the (1,)-array arithmetic, NaN included
        nonlocal clamped
        theta_next = float(theta[0]) - alpha * float(g[0])
        inside = min(max(theta_next, margin), 1.0 - margin)
        clamped += inside != theta_next
        return alpha, [inside]

    theta0 = min(max(config.theta0, margin), 1.0 - margin)
    # stop at a vanishing smoothed gradient or at the objective's minimum 0; exit (0, 1)
    trace = _descend(field, [theta0], direction, step, lambda t: None if 0.0 < t[0] < 1.0
                     else LEFT_DOMAIN, config.max_iters, 1e-12, floor=0.0)

    thetas = trace.iterates[:, 0]
    errors = np.abs(thetas - config.theta_star)
    hit = np.nonzero(errors <= config.tolerance)[0]
    diffs = np.diff(trace.objective_values)
    summary = PulseRunSummary(
        family=config.family,
        n=config.n,
        theta_hat=float(thetas[-1]),
        abs_error=float(errors[-1]),
        iterations=len(trace) - 1,
        iterations_to_tolerance=int(hit[0]) if hit.size else None,
        converged=bool(errors[-1] <= config.tolerance),
        objective_monotone=bool(np.all(diffs <= 1e-12)),
        halvings=halvings,
        clamped=clamped,
    )
    return trace, summary
