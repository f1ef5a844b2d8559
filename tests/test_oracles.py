import numpy as np
import pytest

from nonlocalopt import (
    BoxDomain,
    HessianVariant,
    OperatorConfig,
    SgdConfig,
    SweepReport,
    bump_kernel,
    convergence_sweep,
    gaussian_kernel,
    monotone_decreasing,
    nonlocal_gradient,
    nonlocal_hessian,
)
from nonlocalopt.catalog import linear_field, quadratic_field, sin_field
from nonlocalopt.errors import DimensionMismatchError, UnknownCheckError
from nonlocalopt.oracles import (
    central_gradient,
    central_hessian,
    golden_section,
    mc_nonlocal_gradient,
)
from nonlocalopt.operators import CENTRAL
from nonlocalopt.sweeps import diagonal_probes, gradient_errors, hessian_errors


class TestCentralDifferences:
    def test_linear_exact(self, unit_interval):
        f = linear_field(unit_interval, [2.2])
        assert central_gradient(f, np.array([0.5]), 1e-5)[0] == pytest.approx(2.2, abs=1e-10)

    def test_quadratic_exact(self, unit_square):
        f = quadratic_field(unit_square, center=[0.0, 0.0])  # |x|^2
        g = central_gradient(f, np.array([0.3, 0.4]), 1e-5)
        assert np.allclose(g, [0.6, 0.8], atol=1e-8)

    def test_second_order_step_halving(self, unit_interval):
        f = sin_field(unit_interval)
        x = np.array([0.37])
        exact = f.gradient_at(x)[0]
        e1 = abs(central_gradient(f, x, 2e-4)[0] - exact)
        e2 = abs(central_gradient(f, x, 1e-4)[0] - exact)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_hessian_quadratic(self, unit_interval):
        f = quadratic_field(unit_interval, matrix=[[1.3]])
        assert central_hessian(f, np.array([0.4]), 1e-4)[0, 0] == pytest.approx(2.6, abs=1e-6)

    def test_hessian_quadratic_2d_off_diagonal(self, unit_square):
        A = np.array([[1.3, -0.4], [-0.4, 0.7]])
        f = quadratic_field(unit_square, matrix=A)
        assert np.allclose(central_hessian(f, np.array([0.3, 0.6]), 1e-4), 2 * A, atol=1e-6)


class TestMcGradient:
    def test_constant_field(self, unit_interval):
        from nonlocalopt.catalog import constant_field

        f = constant_field(unit_interval)
        mc = mc_nonlocal_gradient(f, [0.5], gaussian_kernel(1, 8), samples=10_000)
        assert mc.value[0] == 0.0
        assert mc.stderr[0] == 0.0

    def test_seed_reproducibility(self, unit_interval):
        f = quadratic_field(unit_interval)
        a = mc_nonlocal_gradient(f, [0.3], gaussian_kernel(1, 8), samples=5_000, seed=7)
        b = mc_nonlocal_gradient(f, [0.3], gaussian_kernel(1, 8), samples=5_000, seed=7)
        assert np.array_equal(a.value, b.value)

    @pytest.mark.parametrize("field_dim,kernel_dim,x", [(2, 1, [0.3, 0.6]), (1, 2, [0.3])])
    def test_kernel_of_another_dimension_rejected(self, field_dim, kernel_dim, x):
        f = quadratic_field(BoxDomain.unit(field_dim))
        with pytest.raises(DimensionMismatchError):
            mc_nonlocal_gradient(f, x, gaussian_kernel(kernel_dim, 8), samples=100)

    @pytest.mark.parametrize("n", [4, 16])
    def test_oracle_agreement_across_catalog(self, unit_interval, fields_1d, n):
        # quadrature and Monte-Carlo estimators target the same integral
        rng = np.random.default_rng(42)
        probes = rng.uniform(0.2, 0.8, 10)
        for name, f in fields_1d.items():
            kernel = gaussian_kernel(1, n)
            config = OperatorConfig(kernel, resolution=512)
            for x in probes:
                quad = nonlocal_gradient(f, [x], config)
                mc = mc_nonlocal_gradient(f, [x], kernel, samples=100_000, seed=1)
                # Deterministic floor: on fields where the sampled quotient is
                # (almost) constant the stderr collapses to ~1e-15, while both
                # estimators carry real ~1e-7 floors (Gauss-Legendre error at
                # the ridge kink; unsampled far-tail mass on the MC side), so
                # pure 3*stderr would be unsatisfiable by construction.
                assert np.all(
                    np.abs(mc.value - quad) <= 3.0 * mc.stderr + 1e-6
                ), f"disagreement on {name} at {x:.3f} (n={n})"


class TestGoldenSection:
    def test_quadratic_minimum(self):
        t, value = golden_section(lambda t: (t - 0.3) ** 2, 0.0, 1.0, 1e-10)
        assert t == pytest.approx(0.3, abs=1e-9)
        assert value == (t - 0.3) ** 2

    def test_ties_keep_the_left_point(self):
        # on a flat function every comparison ties: the bracket closes on the
        # left end, and the last two points evaluated are the final pair
        seen = []

        def flat(t):
            seen.append(t)
            return 1.0

        t, value = golden_section(flat, 0.0, 1.0, 1e-6)
        assert value == 1.0
        assert t == min(seen[-2:]) < 1e-6

    # every catalog field with a known unique minimizer on (0, 1), where it is unimodal
    @pytest.mark.parametrize("name,target", [("quadratic", 0.5), ("quartic", 0.5), ("ridge", 0.5),
                                             ("sin", 0.75), ("asymmetric-min", 0.5)])
    def test_finds_the_catalog_minimizers(self, fields_1d, name, target):
        field = fields_1d[name]
        t, value = golden_section(lambda t: field.value([t]), 0.0, 1.0, 1e-8)
        assert abs(t - target) <= 1e-3
        assert value == field.value([t])


def sweep_settings(domain, kernel, resolution=256, **problem):
    """Complete sweep settings, at the CLI's default values for what the call does not name."""
    return {"domain": domain, "config": OperatorConfig(kernel, resolution), "probes": 50,
            "seed": 0, "sgd": SgdConfig(B=1.0, M=2.0, K=100, epsilon=0.02), "seeds": 50,
            "tolerance": 1e-6, **problem}


class TestConvergenceSweep:
    def test_unknown_check_rejected(self, unit_interval):
        with pytest.raises(UnknownCheckError):
            convergence_sweep("no-such-check", [4, 8],
                              sweep_settings(unit_interval, gaussian_kernel(1, 1)))

    def test_gradient_localization_monotone(self, unit_interval):
        report = convergence_sweep(
            "gradient-localization",
            [4, 8, 16, 32],
            sweep_settings(unit_interval, gaussian_kernel(1, 1, 0.1),
                           field=sin_field(unit_interval)),
        )
        assert report.monotone
        assert report.errors[-1] <= 1e-3
        assert len(report.param_values) == 4

    def test_moment_check_within_bound(self, unit_square):
        report = convergence_sweep(
            "moment-c",
            [4, 8, 16],
            sweep_settings(unit_square, bump_kernel(2, 1, 0.2)),
        )
        assert report.within_bound

    def test_monotone_verdict_tolerates_noise_floor(self):
        assert monotone_decreasing([1e-2, 1e-4, 1e-13, 1e-13 + 1e-14])
        assert not monotone_decreasing([1e-2, 2e-2, 1e-3])
        assert not monotone_decreasing([1e-2, 1e-3, 1e-3 + 5e-9, 1e-4])

    def test_taylor_remainder_sweep_monotone(self, unit_interval):
        report = convergence_sweep(
            "taylor-remainder",
            [4, 8, 16, 32],
            sweep_settings(unit_interval, gaussian_kernel(1, 1, 0.1),
                           field=sin_field(unit_interval)),
        )
        assert report.monotone

    def test_hessian_localization_sweep_quarters_per_doubling(self, unit_interval):
        # the default problem: the bump field, probes on the middle fifth of the diagonal
        report = convergence_sweep("hessian-localization", [4, 8, 16, 32],
                                   sweep_settings(unit_interval, gaussian_kernel(1, 1, 0.1)))
        assert report.monotone
        errors = report.errors
        assert all(3.5 < a / b < 4.5 for a, b in zip(errors, errors[1:])), errors
        assert errors[-1] <= 4e-3
        assert all(0.4 <= loc[0] <= 0.6 for loc in report.locations)

    def test_iterate_tracking_sweep_reaches_the_classical_run(self, unit_interval):
        # the default problem: gradient descent on the quadratic from 0.05, 20 steps
        report = convergence_sweep("iterate-tracking", [4, 8, 16, 32],
                                   sweep_settings(unit_interval, gaussian_kernel(1, 1, 0.1)))
        assert report.monotone
        assert report.errors[0] > 1e-3 and report.errors[-1] <= 1e-9

    def test_repeated_sweep_gives_same_numbers(self, unit_interval):
        settings = sweep_settings(unit_interval, gaussian_kernel(1, 1, 0.1),
                                  field=sin_field(unit_interval))
        first = convergence_sweep("gradient-localization", [4, 8], dict(settings))
        second = convergence_sweep("gradient-localization", [4, 8], dict(settings))
        assert first.errors == second.errors

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_probe_errors_equal_one_probe_at_a_time(self, dim):
        domain = BoxDomain.unit(dim)
        field = sin_field(domain)
        config = OperatorConfig(gaussian_kernel(dim, 8), {1: 64, 2: 32, 3: 12}[dim])
        probes = diagonal_probes(domain, 7, 0.2, 0.8)
        expected = [np.linalg.norm(nonlocal_gradient(field, p, config) - field.gradient_at(p))
                    for p in probes]
        assert gradient_errors(field, probes, config).tolist() == expected
        variant = HessianVariant(CENTRAL)
        expected = [np.max(np.abs(nonlocal_hessian(field, p, variant, config)
                                  - field.hessian_at(p))) for p in probes]
        assert hessian_errors(field, probes, variant, config).tolist() == expected

    def test_taylor_remainder_equals_one_point_loop(self, unit_square):
        field = sin_field(unit_square)
        config = OperatorConfig(gaussian_kernel(2, 8), 32)
        settings = sweep_settings(unit_square, gaussian_kernel(2, 1), 32, field=field)
        report = convergence_sweep("taylor-remainder", [8], settings)
        rng = np.random.default_rng(0)
        base = rng.uniform(0.25, 0.75, size=(200, 2))
        target = rng.uniform(0.1, 0.9, size=(200, 2))
        worst, where = -1.0, None
        for x0, x in zip(base, target):
            val = abs(float(np.dot(x - x0, field.gradient_at(x0)
                                   - nonlocal_gradient(field, x0, config))))
            if val > worst:
                worst, where = val, tuple(x0)
        assert report.errors == (worst,) and report.locations == (where,)

    def test_report_serialization_roundtrip(self, tmp_path):
        from nonlocalopt import emit_csv

        report = SweepReport(
            check="demo",
            param_values=(4, 8),
            errors=(0.5, 0.25),
            locations=((0.1,), None),
            monotone=True,
        )
        path = emit_csv(report, tmp_path / "sweep.csv")
        text = path.read_text()
        assert text.splitlines()[0] == "param,error,location"
        assert len(text.splitlines()) == 3
