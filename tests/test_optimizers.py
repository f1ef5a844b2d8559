import math
from dataclasses import replace

import numpy as np
import pytest

from nonlocalopt import (
    BoxDomain,
    HessianVariant,
    OperatorConfig,
    StepSchedule,
    gaussian_kernel,
    local_counterpart,
    nlgd_fixed,
    nlgd_linesearch,
    nonlocal_hessian,
    nonlocal_newton,
)
from nonlocalopt.catalog import bump_field, linear_field, quadratic_field, quartic_field, sin_field
from nonlocalopt.errors import SingularHessianError
from nonlocalopt.operators import CENTRAL, nonlocal_gradient
from nonlocalopt.optimizers import DIVERGED, GRAD_TOL, LEFT_DOMAIN, _line_search


def cfg(kernel, resolution=512):
    return OperatorConfig(kernel, resolution=resolution)


def counting(field):
    """``field`` with a callback that records the size of each batch it is given."""
    seen = []

    def fn(*x):
        if np.ndim(x[0]):
            seen.append(np.broadcast(*x).size)
        return field.fn(*x)

    return replace(field, fn=fn), seen


class TestSchedule:
    def test_fixed(self):
        s = StepSchedule.fixed(0.2)
        assert s.step(0) == s.step(9) == 0.2

    def test_geometric_total(self):
        s = StepSchedule.geometric(0.3, 0.5)
        assert s.alpha / (1.0 - s.q) == pytest.approx(0.6)
        assert s.step(2) == pytest.approx(0.3 * 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSchedule.fixed(-1.0)
        with pytest.raises(ValueError):
            StepSchedule.geometric(0.3, 1.5)
        with pytest.raises(ValueError):
            StepSchedule.fixed(math.nan)
        with pytest.raises(ValueError):
            StepSchedule("fixed", cap=math.nan)


class TestNlgdFixed:
    def test_converges_to_minimizer(self, unit_interval):
        # classical-descent oracle on the same problem reaches 0.5
        f = quadratic_field(unit_interval)
        trace = nlgd_fixed(
            f, [0.2], cfg(gaussian_kernel(1, 16)), StepSchedule.fixed(0.4),
            max_iters=200, grad_tol=1e-10,
        )
        local = local_counterpart(
            f, [0.2], "gd", StepSchedule.fixed(0.4), max_iters=200, grad_tol=1e-10
        )
        assert abs(local.final_point[0] - 0.5) <= 1e-8
        assert abs(trace.final_point[0] - 0.5) <= 5e-3

    def test_gradient_below_tol_at_start(self, unit_interval):
        f = quadratic_field(unit_interval)
        trace = nlgd_fixed(
            f, [0.5], cfg(gaussian_kernel(1, 16)), StepSchedule.fixed(0.1),
            max_iters=50, grad_tol=1e-6,
        )
        assert len(trace) == 1
        assert trace.termination == GRAD_TOL
        assert trace.steps_taken.shape == (0,)

    def test_boundedness_under_summable_schedule(self, unit_interval):
        # iterate norm never exceeds |x0| + dim * lipschitz when the step
        # sum stays below 1
        f = quadratic_field(unit_interval)
        lipschitz = 1.0  # max |2 (x - 1/2)| on [0, 1]
        schedule = StepSchedule.geometric(0.3, 0.5)
        assert schedule.alpha / (1.0 - schedule.q) < 1
        trace = nlgd_fixed(
            f, [0.2], cfg(gaussian_kernel(1, 8)), schedule, max_iters=30, grad_tol=0.0
        )
        bound = np.linalg.norm([0.2]) + 1 * lipschitz
        assert np.all(np.linalg.norm(trace.iterates, axis=1) <= bound + 1e-12)

    def test_boundedness_on_nonsmooth_lipschitz_field(self, unit_interval):
        # same bound on the cone field, where only the Lipschitz constant
        # (not smoothness) is available
        from nonlocalopt.catalog import ridge_field

        slope = 2.0  # the cone's Lipschitz constant
        f = ridge_field(unit_interval, center=[0.6], slope=slope)
        schedule = StepSchedule.geometric(0.4, 0.5)  # total 0.8 < 1
        trace = nlgd_fixed(
            f, [0.3], cfg(gaussian_kernel(1, 8)), schedule, max_iters=25, grad_tol=0.0
        )
        bound = np.linalg.norm([0.3]) + 1 * slope
        assert np.all(np.linalg.norm(trace.iterates, axis=1) <= bound + 1e-12)

    def test_trace_shape_invariants(self, unit_interval):
        f = quadratic_field(unit_interval)
        trace = nlgd_fixed(
            f, [0.2], cfg(gaussian_kernel(1, 8)), StepSchedule.fixed(0.1),
            max_iters=7, grad_tol=0.0,
        )
        n = len(trace)
        assert trace.objective_values.shape == (n,)
        assert trace.gradient_norms.shape == (n,)
        assert trace.steps_taken.shape == (n - 1,)
        assert all(unit_interval.contains(p) for p in trace.iterates)

    def test_negative_max_iters_rejected(self, unit_interval):
        with pytest.raises(ValueError):
            nlgd_fixed(
                quadratic_field(unit_interval), [0.2], cfg(gaussian_kernel(1, 8)),
                StepSchedule.fixed(0.1), max_iters=-1,
            )

    def test_left_domain_records_offender(self, unit_interval):
        f = quadratic_field(unit_interval)
        trace = nlgd_fixed(
            f, [0.1], cfg(gaussian_kernel(1, 16)), StepSchedule.fixed(5.0),
            max_iters=20, grad_tol=0.0,
        )
        assert trace.termination == LEFT_DOMAIN
        assert trace.offending_point is not None
        assert not unit_interval.contains(trace.offending_point)

    def test_deterministic(self, unit_interval):
        f = sin_field(unit_interval)
        runs = [
            nlgd_fixed(
                f, [0.3], cfg(gaussian_kernel(1, 8)), StepSchedule.fixed(0.05),
                max_iters=10, grad_tol=0.0,
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].iterates, runs[1].iterates)
        assert np.array_equal(runs[0].objective_values, runs[1].objective_values)

    def test_iterate_tracking_shrinks_with_scale(self, unit_interval):
        # same start, same summable schedule: gap to the classical run
        # decreases as the kernel concentrates (boundary truncation fades)
        f = quadratic_field(unit_interval)
        schedule = StepSchedule.geometric(0.3, 0.5)
        gaps = []
        for n in (4, 8, 16, 32):
            classical = local_counterpart(
                f, [0.05], "gd", schedule, max_iters=20, grad_tol=0.0
            )
            smoothed = nlgd_fixed(
                f, [0.05], cfg(gaussian_kernel(1, n)), schedule, max_iters=20, grad_tol=0.0
            )
            gaps.append(
                float(np.max(np.linalg.norm(classical.iterates - smoothed.iterates, axis=1)))
            )
        for a, b in zip(gaps, gaps[1:]):
            assert b < a + 1e-9
        assert gaps[-1] <= 1e-2


class TestLineSearch:
    def test_exact_minimizer_single_step(self):
        dom = BoxDomain.interval(-1.0, 1.0)
        f = quadratic_field(dom, matrix=[[0.5]], center=[0.0])  # u = x^2 / 2
        trace = nlgd_linesearch(
            f, [0.5], cfg(gaussian_kernel(1, 32)), cap=2.0, max_iters=3, grad_tol=1e-9
        )
        assert trace.steps_taken[0] == pytest.approx(1.0, abs=1e-4)
        assert abs(trace.iterates[1][0]) <= 1e-6

    def test_objective_strictly_decreasing_2d(self, unit_square):
        f = quadratic_field(unit_square, matrix=[[2.0, 0.0], [0.0, 0.5]])
        trace = nlgd_linesearch(
            f, [0.3, 0.8], cfg(gaussian_kernel(2, 16), 128), cap=1.0,
            max_iters=8, grad_tol=1e-12,
        )
        assert np.all(np.diff(trace.objective_values) < 0)

    def test_cap_binds(self, unit_interval):
        f = quadratic_field(unit_interval)
        trace = nlgd_linesearch(
            f, [0.1], cfg(gaussian_kernel(1, 16)), cap=0.01, max_iters=5, grad_tol=1e-12
        )
        assert np.all(trace.steps_taken <= 0.01 + 1e-15)

    def test_linesearch_steps_track_classical(self, unit_interval):
        # on a uniquely minimized quadratic, smoothed line-search steps stay
        # close to the classical ones for the first iterations
        f = quadratic_field(unit_interval, matrix=[[1.5]])
        classical = local_counterpart(
            f, [0.15], "gd-ls", StepSchedule("fixed", alpha=0.1, cap=1.0),
            max_iters=10, grad_tol=1e-13,
        )
        smoothed = nlgd_linesearch(
            f, [0.15], cfg(gaussian_kernel(1, 32)), cap=1.0, max_iters=10, grad_tol=1e-13
        )
        k = min(len(classical.steps_taken), len(smoothed.steps_taken), 10)
        assert k >= 1
        for a, b in zip(classical.steps_taken[:k], smoothed.steps_taken[:k]):
            assert abs(a - b) <= 5e-2


def test_line_search_without_room_takes_no_step(unit_interval):
    # one float spacing above the lower bound, a gradient pointing out of the domain leaves
    # a largest allowed step that rounds to 0
    f = quadratic_field(unit_interval)
    assert _line_search(f, np.array([5e-324]), np.array([4.0]), 1.0) == 0.0


class TestNewton:
    def test_quadratic_single_step_matches_local(self, unit_interval):
        f = quadratic_field(unit_interval, matrix=[[1.5]], center=[0.55])
        local = local_counterpart(f, [0.3], "newton", max_iters=5, grad_tol=1e-12)
        assert len(local) == 2  # one-step convergence
        smoothed = nonlocal_newton(
            f, [0.3], cfg(gaussian_kernel(1, 32)), max_iters=5, grad_tol=1e-8
        )
        assert abs(smoothed.final_point[0] - local.final_point[0]) <= 1e-4

    def test_immediate_termination_at_minimizer(self, unit_interval):
        f = quadratic_field(unit_interval)
        trace = nonlocal_newton(
            f, [0.5], cfg(gaussian_kernel(1, 32)), max_iters=5, grad_tol=1e-6
        )
        assert trace.termination == GRAD_TOL
        assert len(trace) == 1

    def test_plateau_shrinks_with_scale(self, unit_interval):
        # terminal gap to the true minimizer decreases as the kernel
        # concentrates; quartic field keeps the smoothed stationary point
        # honestly offset
        f = quartic_field(unit_interval, center=[0.55])
        plateaus = []
        for n in (8, 16, 32):
            trace = nonlocal_newton(
                f, [0.4], cfg(gaussian_kernel(1, n)), max_iters=10, grad_tol=0.0
            )
            plateaus.append(abs(trace.final_point[0] - 0.55))
        assert plateaus[2] < plateaus[1] < plateaus[0]

    def test_singular_hessian_error(self, unit_interval):
        # saddle-free flat field: curvature matrix ~ 0 -> condition blows up
        from nonlocalopt.catalog import constant_field

        f = constant_field(unit_interval)
        with pytest.raises(SingularHessianError) as err:
            nonlocal_newton(
                f, [0.4], cfg(gaussian_kernel(1, 8), 128), max_iters=3, grad_tol=0.0
            )
        assert err.value.iteration == 0

    def test_rounding_noise_hessian_in_1d_is_singular(self, unit_interval):
        # a linear field's 1x1 curvature is rounding noise (about -1e-20), whose condition
        # number is 1; the step it implies is about 8e19 long
        f = linear_field(unit_interval, [1.0])
        config = cfg(gaussian_kernel(1, 8), 256)
        H = nonlocal_hessian(f, [0.3], HessianVariant(CENTRAL), config)
        assert abs(H[0, 0]) < 1e-15 and np.linalg.cond(H) == 1.0
        with pytest.raises(SingularHessianError, match="step length") as err:
            nonlocal_newton(f, [0.3], config, max_iters=3, grad_tol=0.0)
        assert err.value.iteration == 0

    def test_interior_iterate_evaluates_its_stencil_once(self, unit_interval):
        # the gradient and the Hessian read one pass over the 256 stencil nodes, at x + h and
        # x - h for the 128 nodes of the half stencil; the last iterate takes no step and
        # evaluates the gradient alone, at the same points
        field, seen = counting(quartic_field(unit_interval, center=[0.55]))
        trace = nonlocal_newton(field, [0.4], cfg(gaussian_kernel(1, 16), 256), max_iters=3,
                                grad_tol=0.0)
        assert len(trace) == 4 and seen == [128, 128] * 4

    def test_clipped_iterate_makes_both_passes(self, unit_interval):
        # at 0.99 the reach box (0.0375 wide each way) leaves the domain: the gradient
        # contracts its clipped rule, then the Hessian reads the zero extension at x, x + h
        # and x - h, whose callback sees only the points inside the domain
        field, seen = counting(quadratic_field(unit_interval, center=[1.3]))
        trace = nonlocal_newton(field, [0.99], cfg(gaussian_kernel(1, 16), 256), max_iters=1,
                                grad_tol=0.0)
        assert len(trace) == 2 and seen == [256, 1, 128, 44, 256]

    def test_boundary_iterate_computes_its_hessian_only_to_step(self, unit_interval):
        # 0.1's reach box (0.075 each way) lies inside the domain: one pass of 2 x 128 points
        # and u(x) twice.  At 0.05 it leaves, so each later iterate reads u(x) twice and its
        # clipped 256-point gradient; the one that steps then reads the zero extension at x,
        # at the 78 half-stencil points inside the domain and at their 128 mirror images.
        # The last meets grad_tol and reads no Hessian (one at every iterate: 1,188 points)
        seen, base = [], quadratic_field(unit_interval, center=[0.05])
        field = replace(base, fn=lambda *x: seen.append(np.broadcast(*x).size) or base.fn(*x))
        trace = nonlocal_newton(field, [0.1], cfg(gaussian_kernel(1, 8), 256), grad_tol=1e-6)
        assert trace.termination == GRAD_TOL and len(trace) == 3
        assert trace.final_point[0] == 0.049999163573421095
        assert sum(seen) == 981 and seen.count(78) == 1

    def test_iterate_leaving_the_support_makes_both_passes(self, unit_interval):
        # at 0.27 the reach box (0.0375 each way) lies inside the domain but crosses the
        # bump's support edge at 0.25: the gradient reads the field at x + h and x - h for the
        # 128 nodes of the half stencil, then the Hessian reads the zero extension at x, at the
        # 67 points x + h inside the support and at the 128 points x - h; the step is the
        # one the two operator calls give
        base = bump_field(unit_interval)
        field, seen = counting(base)
        config = cfg(gaussian_kernel(1, 16), 256)
        trace = nonlocal_newton(field, [0.27], config, max_iters=1, grad_tol=0.0)
        assert seen == [128, 128, 1, 67, 128] + [128, 128]
        x = np.array([0.27])
        H = nonlocal_hessian(base, x, HessianVariant(CENTRAL), config)
        assert np.array_equal(trace.iterates[1], x - np.linalg.solve(H, nonlocal_gradient(
            base, x, config)))

    @pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0, -1.0])
    def test_step_factor_must_be_positive_and_finite(self, unit_interval, beta):
        # an infinite beta used to halve forever; the large grad_tol stops any
        # run before its first step, so only the check can raise here
        f = quadratic_field(unit_interval)
        with pytest.raises(ValueError, match="beta"):
            nonlocal_newton(f, [0.4], cfg(gaussian_kernel(1, 8), 128), beta=beta, grad_tol=1e9)


class TestLocalCounterpart:
    def test_newton_one_step_on_quadratic(self, unit_interval):
        f = quadratic_field(unit_interval, matrix=[[2.0]], center=[0.6])
        trace = local_counterpart(f, [0.2], "newton", max_iters=10, grad_tol=1e-12)
        assert trace.termination == GRAD_TOL
        assert len(trace) == 2
        assert trace.final_point[0] == pytest.approx(0.6, abs=1e-12)

    def test_gd_one_step_on_half_curvature(self):
        dom = BoxDomain.interval(-1.0, 1.0)
        f = quadratic_field(dom, matrix=[[0.5]], center=[0.0])  # curvature 1
        trace = local_counterpart(
            f, [0.5], "gd", StepSchedule.fixed(1.0), max_iters=5, grad_tol=1e-12
        )
        assert abs(trace.iterates[1][0]) <= 1e-12

    def test_gd_divergence_detected(self, unit_interval):
        # step beyond 2/curvature on a quadratic diverges geometrically
        f = quadratic_field(unit_interval)  # curvature 2
        trace = local_counterpart(
            f, [0.3], "gd", StepSchedule.fixed(2.5 / 2.0), max_iters=60, grad_tol=0.0
        )
        assert trace.termination == DIVERGED

    def test_fd_fallback_without_analytic_gradient(self, unit_interval):
        from nonlocalopt.fields import ScalarField

        plain = ScalarField(lambda x: (x - 0.5) ** 2, unit_interval)
        trace = local_counterpart(
            plain, [0.2], "gd", StepSchedule.fixed(0.4), max_iters=100, grad_tol=1e-9
        )
        assert abs(trace.final_point[0] - 0.5) <= 1e-6

    def test_missing_schedule_error(self, unit_interval):
        f = quadratic_field(unit_interval)
        with pytest.raises(ValueError):
            local_counterpart(f, [0.2], "gd")
