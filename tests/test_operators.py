import numpy as np
import pytest

from nonlocalopt import (
    CENTRAL,
    FD_NONLOCAL,
    GRAD_SMOOTHED,
    NESTED,
    BoxDomain,
    HessianVariant,
    OperatorConfig,
    ScalarField,
    SubsetIndicator,
    bump_kernel,
    find_vanishing_subset_1d,
    gaussian_kernel,
    nonlocal_gradient,
    nonlocal_hessian,
    nonlocal_newton,
    restricted_nonlocal_gradient,
)
from nonlocalopt.catalog import (
    asymmetric_min_field,
    constant_field,
    linear_field,
    quadratic_field,
    ridge_field,
    sin_field,
)
from nonlocalopt.errors import DimensionMismatchError, NoBracketError
from nonlocalopt.oracles import mc_nonlocal_gradient


def cfg(kernel, resolution=512):
    return OperatorConfig(kernel, resolution=resolution)


class TestOperatorConfig:
    @pytest.mark.parametrize("resolution", [0, 1, -4, 2.5, True, "64", None])
    def test_resolution_must_be_an_integer_of_at_least_2(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            OperatorConfig(gaussian_kernel(1, 8), resolution)


@pytest.mark.parametrize("field_dim,kernel_dim", [(2, 1), (1, 2)])
def test_kernel_of_another_dimension_rejected_by_every_operator(field_dim, kernel_dim):
    # a 1-D kernel on the unit square gave the central Hessian [[12, 16], [16, 12]]
    # at the center, where every variant should give 2I
    domain = BoxDomain.unit(field_dim)
    field = quadratic_field(domain)
    config = cfg(gaussian_kernel(kernel_dim, 8), 8)
    x = domain.center
    subset = SubsetIndicator.full(domain)
    calls = [lambda: nonlocal_gradient(field, x, config),
             lambda: nonlocal_gradient(field, x[None], config),
             lambda: restricted_nonlocal_gradient(field, x, config, subset)]
    calls += [lambda v=HessianVariant(kind, m=4): nonlocal_hessian(field, x, v, config)
              for kind in (CENTRAL, GRAD_SMOOTHED, FD_NONLOCAL, NESTED)]
    calls.append(lambda: nonlocal_newton(field, x, config))
    if field_dim == 1:
        calls.append(lambda: find_vanishing_subset_1d(field, x, config))
    for call in calls:
        with pytest.raises(DimensionMismatchError, match="kernel dimension"):
            call()


def test_subset_of_another_dimension_rejected():
    field = quadratic_field(BoxDomain.unit(1))
    subset = SubsetIndicator.full(BoxDomain.unit(2))
    with pytest.raises(DimensionMismatchError, match="subset dimension"):
        restricted_nonlocal_gradient(field, [0.5], cfg(gaussian_kernel(1, 8), 8), subset)


class TestNonlocalGradient:
    def test_constant_zero(self, unit_interval):
        f = constant_field(unit_interval)
        g = nonlocal_gradient(f, [0.4], cfg(gaussian_kernel(1, 8)))
        assert abs(g[0]) <= 1e-12

    def test_linear_exact_compact_kernel(self, unit_interval):
        # analytic reduction: integrand is the constant slope times unit mass
        f = linear_field(unit_interval, [2.5])
        g = nonlocal_gradient(f, [0.5], cfg(bump_kernel(1, 8)))
        assert g[0] == pytest.approx(2.5, abs=1e-8)

    def test_quadratic_exact_1d(self, unit_interval):
        f = quadratic_field(unit_interval)  # (x - 1/2)^2
        for x in (0.3, 0.5, 0.7):
            g = nonlocal_gradient(f, [x], cfg(gaussian_kernel(1, 8)))
            assert g[0] == pytest.approx(2 * (x - 0.5), abs=1e-6)

    def test_quadratic_exact_2d_with_mc_oracle(self, unit_square):
        # |x|^2-style quadratic: gradient 2(x-c); cross-check by Monte Carlo
        f = quadratic_field(unit_square, center=[0.5, 0.5])
        kernel = gaussian_kernel(2, 8)
        x = [0.4, 0.6]
        g = nonlocal_gradient(f, x, cfg(kernel, resolution=256))
        expected = f.gradient_at(x)
        assert np.linalg.norm(g - expected) <= 1e-6
        mc = mc_nonlocal_gradient(f, x, kernel, samples=1_000_000, seed=0)
        assert np.all(np.abs(mc.value - g) <= 3.0 * mc.stderr + 1e-12)

    def test_scalar_point_is_the_one_point_call(self, unit_interval):
        f = sin_field(unit_interval)
        config = cfg(gaussian_kernel(1, 8), 256)
        got = nonlocal_gradient(f, 0.5, config)
        assert got.shape == (1,)
        assert got.tobytes() == nonlocal_gradient(f, [0.5], config).tobytes()

    def test_pulse_style_nonsmooth_field_finite(self, unit_interval):
        f = ridge_field(unit_interval, center=[0.5])
        for n in (1, 2, 3):
            g = nonlocal_gradient(f, [0.45], cfg(gaussian_kernel(1, n, 0.15)))
            assert np.isfinite(g[0])

    def test_linearity(self, unit_interval):
        u = sin_field(unit_interval)
        v = quadratic_field(unit_interval)
        a, b = 2.0, -3.0
        combo = ScalarField(
            lambda x: a * u.fn(x) + b * v.fn(x), unit_interval
        )
        config = cfg(gaussian_kernel(1, 4))
        x = [0.45]
        lhs = nonlocal_gradient(combo, x, config)
        rhs = a * nonlocal_gradient(u, x, config) + b * nonlocal_gradient(v, x, config)
        assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_no_product_rule_witness(self, unit_interval):
        # kernel-smoothed differentiation has no product rule: exhibit fields
        # where the defect is macroscopic.
        u = linear_field(unit_interval, [1.0])
        v = sin_field(unit_interval)
        prod = ScalarField(lambda x: u.fn(x) * v.fn(x), unit_interval)
        config = cfg(gaussian_kernel(1, 2))
        x = [0.25]
        lhs = nonlocal_gradient(prod, x, config)
        rhs = u.value(x) * nonlocal_gradient(v, x, config) + v.value(x) * nonlocal_gradient(
            u, x, config
        )
        assert np.linalg.norm(lhs - rhs) > 0.01

    def test_lipschitz_bound(self, unit_interval):
        # |smoothed gradient| <= dim * M everywhere, including near the kink
        f = ridge_field(unit_interval, center=[0.5], slope=1.5)
        for n in (4, 32):
            config = cfg(gaussian_kernel(1, n))
            for x in np.linspace(0.05, 0.95, 100):
                g = nonlocal_gradient(f, [x], config)
                assert abs(g[0]) <= 1 * 1.5 + 1e-9

    def test_localization_on_sin(self, unit_interval):
        f = sin_field(unit_interval)
        sups = []
        for n in (4, 8, 16, 32):
            config = cfg(gaussian_kernel(1, n))
            sup = max(
                abs(nonlocal_gradient(f, [x], config)[0] - f.gradient_at([x])[0])
                for x in np.linspace(0.2, 0.8, 50)
            )
            sups.append(sup)
        assert all(b < a for a, b in zip(sups, sups[1:]))
        assert sups[-1] <= 1e-3

    def test_small_gradient_at_minimizer(self, unit_interval):
        # smooth field with interior minimizer: smoothed gradient there
        # shrinks monotonically with the scale index
        f = asymmetric_min_field(unit_interval)  # min at 0.5
        norms = [
            abs(nonlocal_gradient(f, [0.5], cfg(gaussian_kernel(1, n)))[0])
            for n in (4, 8, 16, 32)
        ]
        assert all(b < a + 1e-9 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= 1e-3


class TestRestrictedGradient:
    def test_full_subset_matches(self, unit_interval):
        f = asymmetric_min_field(unit_interval)
        config = cfg(bump_kernel(1, 4))
        full = nonlocal_gradient(f, [0.45], config)
        sub = restricted_nonlocal_gradient(
            f, [0.45], config, SubsetIndicator.full(unit_interval)
        )
        assert np.linalg.norm(full - sub) <= 1e-12

    def test_empty_subset_zero(self, unit_interval):
        f = asymmetric_min_field(unit_interval)
        g = restricted_nonlocal_gradient(
            f, [0.45], cfg(bump_kernel(1, 4)), SubsetIndicator.empty(1)
        )
        assert np.all(g == 0.0)

    def test_symmetric_interval_cancels(self, unit_interval):
        f = quadratic_field(unit_interval)  # symmetric about 0.5
        sub = SubsetIndicator.from_intervals([(0.4, 0.6)])
        g = restricted_nonlocal_gradient(f, [0.5], cfg(bump_kernel(1, 4)), sub)
        assert abs(g[0]) <= 1e-10

    def test_two_dimensional_box_union(self, unit_square):
        # the two half-boxes around the evaluation point must add up to the
        # unrestricted value, and a symmetric sub-box cancels at the center
        f = quadratic_field(unit_square, center=[0.5, 0.5])
        config = cfg(bump_kernel(2, 4), resolution=128)
        x = [0.5, 0.5]
        left = SubsetIndicator.from_boxes([((0.0, 0.0), (0.5, 1.0))], dim=2)
        right = SubsetIndicator.from_boxes([((0.5, 0.0), (1.0, 1.0))], dim=2)
        box = SubsetIndicator.from_boxes([((0.42, 0.42), (0.58, 0.58))], dim=2)
        g_left = restricted_nonlocal_gradient(f, x, config, left)
        g_right = restricted_nonlocal_gradient(f, x, config, right)
        g_full = nonlocal_gradient(f, x, config)
        assert np.linalg.norm(g_left + g_right - g_full) <= 1e-10
        assert np.linalg.norm(
            restricted_nonlocal_gradient(f, x, config, box)
        ) <= 1e-10


class TestVanishingSubset:
    def test_symmetric_min(self, unit_interval):
        f = quadratic_field(unit_interval)
        config = cfg(bump_kernel(1, 4))
        sub = find_vanishing_subset_1d(f, [0.5], config)
        residual = restricted_nonlocal_gradient(f, [0.5], config, sub)
        assert abs(residual[0]) <= 1e-10

    def test_asymmetric_min_two_intervals(self, unit_interval):
        f = asymmetric_min_field(unit_interval)
        config = cfg(bump_kernel(1, 4))
        sub = find_vanishing_subset_1d(f, [0.5], config)
        assert 1 <= len(sub.boxes) <= 2
        residual = restricted_nonlocal_gradient(f, [0.5], config, sub)
        assert abs(residual[0]) <= 1e-8

    def test_monotone_field_no_bracket(self, unit_interval):
        f = linear_field(unit_interval, [1.0])
        with pytest.raises(NoBracketError):
            find_vanishing_subset_1d(f, [0.5], cfg(bump_kernel(1, 4)))

    def test_rise_that_turns_to_a_fall_no_bracket(self, unit_interval):
        # the field rises at the precheck's probes on both sides of 0.5, but past half the
        # kernel's reach it falls on the right, so the right side's mass has the wrong sign
        kernel = bump_kernel(1, 4)
        turn = 0.5 + kernel.reach / 2

        def fn(x):
            return (x - 0.5) ** 2 - 100.0 * np.maximum(0.0, x - turn) ** 2

        with pytest.raises(NoBracketError, match="wrong sign pattern"):
            find_vanishing_subset_1d(ScalarField(fn, unit_interval), [0.5], cfg(kernel))


    def test_bisection_that_never_vanishes_no_bracket(self, unit_interval, monkeypatch):
        # only an exact zero counts as vanished, and the bisection stalls short of one
        import nonlocalopt.operators as ops_mod

        monkeypatch.setattr(ops_mod, "VANISHING_TOL", 0.0)
        f = asymmetric_min_field(unit_interval)
        with pytest.raises(NoBracketError, match="bisection failed"):
            find_vanishing_subset_1d(f, [0.5], cfg(bump_kernel(1, 4), 64))


class TestTaylor:
    def test_linear_field_exact(self, unit_interval):
        # the affine model u(x0) + (x - x0) g of a linear field leaves no remainder
        f = linear_field(unit_interval, [1.7])
        g = nonlocal_gradient(f, [0.5], cfg(bump_kernel(1, 8)))
        for x in np.linspace(0.05, 0.95, 20):
            assert abs(f.value([x]) - f.value([0.5]) - (x - 0.5) * g[0]) <= 1e-8

    def test_remainder_gap_shrinks_with_scale(self, unit_interval):
        # sup |r_n - r| over sampled pairs strictly decreasing in n
        f = sin_field(unit_interval)
        rng = np.random.default_rng(0)
        x0s = rng.uniform(0.25, 0.75, 200)
        xs = rng.uniform(0.1, 0.9, 200)
        sups = []
        for n in (4, 8, 16, 32):
            config = cfg(gaussian_kernel(1, n))
            sup = 0.0
            for x0, x in zip(x0s, xs):
                defect = f.gradient_at([x0])[0] - nonlocal_gradient(f, [x0], config)[0]
                sup = max(sup, abs((x - x0) * defect))
            sups.append(sup)
        assert all(b < a for a, b in zip(sups, sups[1:]))
