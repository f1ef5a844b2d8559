import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonlocalopt import (
    BoxDomain,
    OperatorConfig,
    ScalarField,
    SubsetIndicator,
    bump_kernel,
    difference_quotient,
    find_vanishing_subset_1d,
    gaussian_kernel,
    nonlocal_gradient,
    restricted_nonlocal_gradient,
    taylor_affine,
)
from nonlocalopt.catalog import (
    asymmetric_min_field,
    constant_field,
    linear_field,
    quadratic_field,
    ridge_field,
    sin_field,
)
from nonlocalopt.errors import CoincidentPointsError, NoBracketError
from nonlocalopt.oracles import mc_nonlocal_gradient


def cfg(kernel, resolution=512):
    return OperatorConfig(kernel, resolution=resolution)


class TestDifferenceQuotient:
    def test_identity_slope(self, unit_interval):
        f = linear_field(unit_interval, [1.0])
        for x, y in ((0.2, 0.9), (0.8, 0.1), (0.5, 0.500001)):
            assert difference_quotient(f, [x], [y])[0] == pytest.approx(1.0)

    def test_constant_zero(self, unit_interval):
        f = constant_field(unit_interval, 3.0)
        assert difference_quotient(f, [0.2], [0.7])[0] == 0.0

    def test_2d_hand_computed(self, unit_square):
        # u = |x|^2 at x=(1,0), y=(0,0): (u(x)-u(y))/|x-y|^2 * (x-y) = (1, 0)
        f = ScalarField(
            lambda p: np.sum(np.asarray(p) ** 2, axis=-1), BoxDomain((-2, -2), (2, 2))
        )
        k = difference_quotient(f, [1.0, 0.0], [0.0, 0.0])
        assert np.allclose(k, [1.0, 0.0], atol=1e-14)

    def test_coincident_points_error(self, unit_interval):
        f = linear_field(unit_interval, [1.0])
        with pytest.raises(CoincidentPointsError):
            difference_quotient(f, [0.3], [0.3])

    @given(a=st.floats(-5, 5), x=st.floats(0.05, 0.95), y=st.floats(0.05, 0.95))
    @settings(max_examples=50)
    def test_linear_slope_property(self, a, x, y):
        if abs(x - y) < 1e-9:
            return
        f = linear_field(BoxDomain.unit(1), [a])
        assert difference_quotient(f, [x], [y])[0] == pytest.approx(a, abs=1e-7)


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
            lambda p: a * u(p) + b * v(p), unit_interval
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
        prod = ScalarField(lambda p: u(p) * v(p), unit_interval)
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


class TestTaylor:
    def test_remainder_zero_at_base(self, unit_interval):
        f = sin_field(unit_interval)
        td = taylor_affine(f, [0.4], cfg(gaussian_kernel(1, 8)))
        assert float(td.remainder([0.4])) == 0.0

    def test_definitional_identity(self, unit_interval):
        f = sin_field(unit_interval)
        td = taylor_affine(f, [0.4], cfg(gaussian_kernel(1, 8)))
        xs = np.linspace(0.1, 0.9, 17)[:, None]
        recon = td.affine(xs) + td.remainder(xs)
        assert np.allclose(recon, f(xs), rtol=0, atol=1e-15)

    def test_linear_field_exact(self, unit_interval):
        f = linear_field(unit_interval, [1.7])
        td = taylor_affine(f, [0.5], cfg(bump_kernel(1, 8)))
        for x in np.linspace(0.05, 0.95, 20):
            assert abs(float(td.remainder([x]))) <= 1e-8

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


class TestDifferenceQuotientProperties:
    @given(
        x=st.floats(0.05, 0.95),
        y=st.floats(0.05, 0.95),
        freq=st.floats(0.5, 2.0),
    )
    @settings(max_examples=50)
    def test_swap_symmetry(self, x, y, freq):
        # k_u(x, y) = k_u(y, x): both the value difference and the direction
        # flip sign, so the product is unchanged
        if abs(x - y) < 1e-8:
            return
        f = sin_field(BoxDomain.unit(1), freq=freq)
        a = difference_quotient(f, [x], [y])
        b = difference_quotient(f, [y], [x])
        assert a[0] == pytest.approx(b[0], rel=1e-12)
