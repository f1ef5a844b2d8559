import numpy as np
import pytest

from nonlocalopt import (
    ALTERNATE_CONSTANT,
    CENTRAL,
    FD_NONLOCAL,
    GRAD_SMOOTHED,
    MOMENT_CONSTANT,
    NESTED,
    HessianVariant,
    OperatorConfig,
    gaussian_kernel,
    nonlocal_hessian,
)
from nonlocalopt.catalog import bump_field, constant_field, quadratic_field, sin_field
from nonlocalopt.errors import NodeBudgetError


def cfg(kernel, resolution=512):
    return OperatorConfig(kernel, resolution=resolution)


ALL_VARIANTS = [
    HessianVariant(NESTED, m=8),
    HessianVariant(GRAD_SMOOTHED),
    HessianVariant(FD_NONLOCAL),
    HessianVariant(CENTRAL),
]


class TestZeroAndSymmetry:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.kind)
    def test_constant_field_zero_matrix(self, unit_interval, variant):
        f = constant_field(unit_interval)
        H = nonlocal_hessian(f, [0.5], variant, cfg(gaussian_kernel(1, 8), 256))
        assert np.max(np.abs(H)) <= 1e-10

    def test_central_symmetric_by_construction(self, unit_square):
        f = sin_field(unit_square)
        H = nonlocal_hessian(
            f, [0.45, 0.55], HessianVariant(CENTRAL), cfg(gaussian_kernel(2, 8), 128)
        )
        assert np.max(np.abs(H - H.T)) <= 1e-10

    def test_smooth_variants_symmetric_within_tolerance(self, unit_square):
        f = quadratic_field(unit_square, matrix=[[1.0, 0.25], [0.25, 0.7]])
        config = cfg(gaussian_kernel(2, 8), 96)
        for variant in (HessianVariant(GRAD_SMOOTHED), HessianVariant(FD_NONLOCAL)):
            H = nonlocal_hessian(f, [0.5, 0.5], variant, config)
            assert np.max(np.abs(H - H.T)) <= 1e-6

    def test_nested_symmetric_within_quadrature_tolerance(self, unit_square):
        f = sin_field(unit_square)
        H = nonlocal_hessian(
            f, [0.4, 0.65], HessianVariant(NESTED, m=8),
            cfg(gaussian_kernel(2, 8), 48),
        )
        assert np.max(np.abs(H - H.T)) <= 1e-2

    def test_grad_smoothed_requires_gradient_access(self, unit_interval):
        from nonlocalopt.errors import MissingDerivativeError
        from nonlocalopt.fields import ScalarField

        plain = ScalarField(lambda x: (x - 0.5) ** 2, unit_interval)
        with pytest.raises(MissingDerivativeError):
            nonlocal_hessian(
                plain, [0.4], HessianVariant(GRAD_SMOOTHED, fd_step=None),
                cfg(gaussian_kernel(1, 8), 128),
            )
        with pytest.raises(MissingDerivativeError):
            nonlocal_hessian(
                plain, [0.4], HessianVariant(FD_NONLOCAL, fd_step=None),
                cfg(gaussian_kernel(1, 8), 128),
            )


    @pytest.mark.parametrize("kind", [FD_NONLOCAL, GRAD_SMOOTHED, CENTRAL])
    @pytest.mark.parametrize("step", [0.0, -1e-5, np.nan, np.inf])
    def test_fd_step_checked_on_construction(self, kind, step):
        with pytest.raises(ValueError, match="fd_step"):
            HessianVariant(kind, fd_step=step)


class TestQuadraticExactness:
    def test_central_moment_constant_1d(self, unit_interval):
        a = 0.7
        f = quadratic_field(unit_interval, matrix=[[a]])
        H = nonlocal_hessian(
            f, [0.5], HessianVariant(CENTRAL, constant_mode=MOMENT_CONSTANT),
            cfg(gaussian_kernel(1, 8)),
        )
        assert H[0, 0] == pytest.approx(2 * a, abs=1e-5)

    def test_central_alternate_constant_1d(self, unit_interval):
        # The alternate normalization returns (4/3) a on a 1-D quadratic:
        # closed-form reduction of the second-difference integrand.
        a = 0.7
        f = quadratic_field(unit_interval, matrix=[[a]])
        H = nonlocal_hessian(
            f, [0.5], HessianVariant(CENTRAL, constant_mode=ALTERNATE_CONSTANT),
            cfg(gaussian_kernel(1, 8)),
        )
        assert H[0, 0] == pytest.approx(4 * a / 3, abs=1e-5)

    def test_central_moment_constant_2d_with_mc_oracle(self, unit_square):
        A = np.array([[1.2, 0.3], [0.3, 0.8]])
        f = quadratic_field(unit_square, matrix=A, center=[0.5, 0.5])
        H = nonlocal_hessian(
            f, [0.45, 0.55], HessianVariant(CENTRAL), cfg(gaussian_kernel(2, 8), 256)
        )
        assert np.max(np.abs(H - 2 * A)) <= 1e-5

        # Monte-Carlo moment oracle: E[(h^T A h) h_i h_j / |h|^4] equals
        # (tr(A) delta_ij + 2 A_ij) / (D (D + 2)) for any radial density.
        rng = np.random.default_rng(0)
        h = rng.standard_normal((1_000_000, 2))
        r2 = np.sum(h * h, axis=1)
        quad_form = np.einsum("ki,ij,kj->k", h, A, h)
        D = 2
        for i in range(2):
            for j in range(2):
                emp = np.mean(quad_form * h[:, i] * h[:, j] / r2**2)
                expected = (np.trace(A) * (i == j) + 2 * A[i, j]) / (D * (D + 2))
                stderr = np.std(quad_form * h[:, i] * h[:, j] / r2**2) / 1000.0
                assert abs(emp - expected) <= 3 * stderr + 1e-12

    def test_grad_smoothed_exact_on_quadratic(self, unit_interval):
        f = quadratic_field(unit_interval, matrix=[[0.7]])
        H = nonlocal_hessian(
            f, [0.4], HessianVariant(GRAD_SMOOTHED), cfg(gaussian_kernel(1, 8))
        )
        assert H[0, 0] == pytest.approx(1.4, abs=1e-6)

    def test_fd_nonlocal_smoke_against_fd(self, unit_interval):
        # weak-convergence variant: smoke test only, one smooth field
        f = quadratic_field(unit_interval, matrix=[[0.7]])
        H = nonlocal_hessian(
            f, [0.4], HessianVariant(FD_NONLOCAL), cfg(gaussian_kernel(1, 8))
        )
        assert H[0, 0] == pytest.approx(1.4, abs=1e-5)


class TestNestedVariant:
    def test_nested_approaches_fd_nonlocal_in_outer_scale(self, unit_interval):
        # With the inner scale fixed, the nested construction approaches the
        # derivative-of-smoothed-partials construction as the outer kernel
        # concentrates.
        f = sin_field(unit_interval)
        config = cfg(gaussian_kernel(1, 8), 128)
        H3 = nonlocal_hessian(f, [0.4], HessianVariant(FD_NONLOCAL), config)
        gaps = []
        for m in (4, 8, 16):
            H1 = nonlocal_hessian(f, [0.4], HessianVariant(NESTED, m=m), config)
            gaps.append(abs(H1[0, 0] - H3[0, 0]))
        assert gaps[2] < gaps[1] < gaps[0]

    def test_budget_guard(self, unit_square):
        f = sin_field(unit_square)
        with pytest.raises(NodeBudgetError):
            nonlocal_hessian(
                f, [0.5, 0.5], HessianVariant(NESTED, m=4),
                cfg(gaussian_kernel(2, 4), 4000),
            )


class TestZeroExtension:
    def test_central_stencil_beyond_domain_uses_extension(self, unit_interval):
        # near the domain edge the second-difference stencil queries points
        # outside [0, 1]; the zero extension must answer without error, and
        # the field is identically zero on the whole stencil there
        f = bump_field(unit_interval, center=[0.5], radius=0.25)
        H = nonlocal_hessian(
            f, [0.95], HessianVariant(CENTRAL), cfg(gaussian_kernel(1, 4), 256)
        )
        assert abs(H[0, 0]) <= 1e-12

    def test_central_on_field_without_declared_support(self, unit_interval):
        # fields without compact support zero-extend beyond the domain; with
        # an interior stencil the extension never engages and quadratics stay
        # exact
        f = quadratic_field(unit_interval, matrix=[[0.9]])
        H = nonlocal_hessian(
            f, [0.5], HessianVariant(CENTRAL), cfg(gaussian_kernel(1, 8))
        )
        assert H[0, 0] == pytest.approx(1.8, abs=1e-5)


class TestMonteCarloCrossChecks:
    def test_central_matches_mc_on_nonquadratic(self, unit_interval):
        # dual route on a field where the moment identity alone is not the
        # oracle: sample the kernel and average the stencil integrand
        from nonlocalopt.fields import extend_by_zero

        f = sin_field(unit_interval)
        kernel = gaussian_kernel(1, 8, 0.1)
        x = np.array([0.48])
        H = nonlocal_hessian(
            f, x, HessianVariant(CENTRAL), cfg(kernel, 512)
        )
        rng = np.random.default_rng(1)
        h = kernel.sample(rng, 400_000)[:, 0]
        ext = extend_by_zero(f)
        sec = ext((x[0] + h)[:, None]) - 2 * f.value(x) + ext((x[0] - h)[:, None])
        pref = 1 * 3 / 2  # dim (dim + 2) / 2
        vals = np.where(h != 0, pref * sec / h**2 * (1 - 1 / 3), 0.0)
        mc = vals.mean()
        stderr = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(mc - H[0, 0]) <= 3 * stderr + 1e-6

    def test_nested_outer_integral_matches_mc(self, unit_interval):
        # outer smoothing sampled by Monte Carlo, inner partials evaluated
        # exactly as the operator does
        from nonlocalopt import nonlocal_gradient

        f = sin_field(unit_interval)
        config = cfg(gaussian_kernel(1, 8, 0.1), 128)
        x = np.array([0.4])
        H1 = nonlocal_hessian(f, x, HessianVariant(NESTED, m=8), config)
        outer = gaussian_kernel(1, 8, 0.1)
        rng = np.random.default_rng(0)
        h = outer.sample(rng, 8_000)[:, 0]
        y = x[0] - h
        ok = (y > 0) & (y < 1) & (h != 0)
        gx = nonlocal_gradient(f, x, config)[0]
        vals = np.zeros(h.size)
        vals[ok] = np.array(
            [(gx - nonlocal_gradient(f, [yy], config)[0]) / hh for yy, hh in zip(y[ok], h[ok])]
        )
        mc = vals.mean()
        stderr = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(mc - H1[0, 0]) <= 3 * stderr


class TestLocalization:
    def test_central_hessian_localizes_on_compact_field(self, unit_interval):
        f = bump_field(unit_interval, center=[0.5], radius=0.25)
        errs = []
        for n in (4, 8, 16, 32):
            config = cfg(gaussian_kernel(1, n))
            worst = 0.0
            for x in np.linspace(0.42, 0.58, 9):
                H = nonlocal_hessian(f, [x], HessianVariant(CENTRAL), config)
                # exact curvature of the bump profile via analytic gradient FD
                step = 1e-6
                exact = (f.gradient_at([x + step])[0] - f.gradient_at([x - step])[0]) / (
                    2 * step
                )
                worst = max(worst, abs(H[0, 0] - exact))
            errs.append(worst)
        assert all(b < a for a, b in zip(errs, errs[1:]))
