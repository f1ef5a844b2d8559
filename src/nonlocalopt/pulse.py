"""Pulse-translation estimation: recover a shift from a non-differentiable objective.

A rectangular pulse of fixed width slides over [0, 1]; the objective is the
discrete L2 distance between the shifted pulse and a template at an unknown
shift.  The objective is flat away from the template, Holder-1/2 near it, and
nowhere differentiable in the classical sense, yet its kernel-smoothed
gradient exists everywhere, so the smoothed descent recovers the shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import BoxDomain, ScalarField
from .kernels import BUMP, GAUSSIAN, RadialKernel
from .operators import OperatorConfig, nonlocal_gradient
from .optimizers import OptimizerTrace, _confined, _descend

# Base kernel scales for the shift experiment, calibrated so that (a) even
# the narrowest kernel in the default scale list feels the objective's basin
# from the flat region at the default starting shift, and (b) the adaptive
# descent settles inside the 0.02 tolerance band within 200 iterations for
# every (family, scale-index) combination.
DEFAULT_GAUSSIAN_BASE = 1.8
DEFAULT_BUMP_BASE = 3.5


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

    def _count(self, a, b):
        """Number of cell midpoints falling in [a, b)."""
        N = self.signal_grid
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        lo = np.ceil(a * N - 0.5)
        hi = np.ceil(b * N - 0.5)
        return np.clip(hi - lo, 0.0, N)

    def squared_distance(self, theta1, theta2):
        """Rectangle-rule squared L2 distance between two shifted pulses."""
        t1 = np.asarray(theta1, dtype=float)
        t2 = np.asarray(theta2, dtype=float)
        a1, b1 = t1, np.minimum(t1 + self.pulse_width, 1.0)
        a2, b2 = t2, np.minimum(t2 + self.pulse_width, 1.0)
        n1 = self._count(a1, b1)
        n2 = self._count(a2, b2)
        ov = self._count(np.maximum(a1, a2), np.minimum(b1, b2))
        return (n1 + n2 - 2.0 * ov) / self.signal_grid

    def distance(self, theta1, theta2):
        return np.sqrt(np.maximum(self.squared_distance(theta1, theta2), 0.0))

    def objective(self, theta):
        """L2 distance to the template pulse; zero exactly at the template shift."""
        theta = np.asarray(theta, dtype=float)
        if np.any(theta < 0.0) or np.any(theta > 1.0):
            raise ValueError("shift parameter must lie in [0, 1]")
        return self.distance(theta, self.template_theta)

    def signal(self, theta: float) -> np.ndarray:
        """Midpoint samples of the pulse at one shift (for plots and tests)."""
        N = self.signal_grid
        t = (np.arange(N) + 0.5) / N
        return ((t >= theta) & (t < min(theta + self.pulse_width, 1.0))).astype(float)

    def objective_field(self) -> ScalarField:
        domain = BoxDomain.interval(0.0, 1.0)
        manifold = self

        def fn(x):
            x = np.asarray(x, dtype=float)
            return manifold.objective(x[..., 0])

        return ScalarField(fn, domain, regularity="C0-holder", name="pulse-objective")


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
    resolution: int = 512
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
        if np.isnan(self.theta0):
            raise ValueError("theta0 must be a number")
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
    op_config = OperatorConfig(config.kernel(), resolution=config.resolution)
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
        nonlocal clamped
        theta_next = theta - alpha * g
        inside = np.clip(theta_next, margin, 1.0 - margin)
        clamped += int(inside[0] != theta_next[0])
        return alpha, inside

    theta0 = min(max(config.theta0, margin), 1.0 - margin)
    # stop at a vanishing smoothed gradient or at the objective's minimum 0
    trace = _descend(field, [theta0], direction, step, _confined(field), config.max_iters,
                     1e-12, floor=0.0)

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


def run_pulse_suite(
    families: Sequence[str] = (BUMP, GAUSSIAN),
    n_values: Sequence[int] = (1, 2, 3),
    **overrides,
) -> list[tuple[PulseRunConfig, OptimizerTrace, PulseRunSummary]]:
    """Run the (family, scale-index) grid of pulse experiments."""
    configs = [
        PulseRunConfig(family=f, n=int(n), **overrides) for f in families for n in n_values
    ]
    return [(cfg, *run_pulse_experiment(cfg)) for cfg in configs]
