import numpy as np
import pytest

from nonlocalopt import (
    OperatorConfig,
    SweepReport,
    bump_kernel,
    convergence_sweep,
    gaussian_kernel,
    monotone_decreasing,
    nonlocal_gradient,
)
from nonlocalopt.catalog import linear_field, quadratic_field, sin_field
from nonlocalopt.errors import UnknownCheckError
from nonlocalopt.oracles import (
    brute_force_min,
    fd_gradient,
    fd_hessian,
    golden_section,
    mc_nonlocal_gradient,
)
from nonlocalopt.pulse import PulseManifold


class TestFdGradient:
    def test_linear_exact(self, unit_interval):
        f = linear_field(unit_interval, [2.2])
        assert fd_gradient(f, [0.5])[0] == pytest.approx(2.2, abs=1e-10)

    def test_quadratic_exact(self, unit_square):
        f = quadratic_field(unit_square, center=[0.0, 0.0])  # |x|^2
        g = fd_gradient(f, [0.3, 0.4])
        assert np.allclose(g, [0.6, 0.8], atol=1e-8)

    def test_margin_violation(self, unit_interval):
        f = linear_field(unit_interval, [1.0])
        with pytest.raises(ValueError):
            fd_gradient(f, [1e-7], step=1e-5)

    def test_second_order_step_halving(self, unit_interval):
        f = sin_field(unit_interval)
        x = [0.37]
        exact = f.gradient_at(x)[0]
        e1 = abs(fd_gradient(f, x, step=2e-4)[0] - exact)
        e2 = abs(fd_gradient(f, x, step=1e-4)[0] - exact)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_fd_hessian_quadratic(self, unit_interval):
        f = quadratic_field(unit_interval, matrix=[[1.3]])
        assert fd_hessian(f, [0.4])[0, 0] == pytest.approx(2.6, abs=1e-6)


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


class TestBruteForce:
    def test_quadratic_grid_argmin(self, unit_interval):
        f = quadratic_field(unit_interval)
        x, val = brute_force_min(f, unit_interval, resolution=512)
        assert abs(x[0] - 0.5) <= 1.0 / 512
        assert val <= f.value([0.5]) + 1e-12

    def test_pulse_objective_argmin(self):
        man = PulseManifold(template_theta=0.5)
        field = man.objective_field()
        x, val = brute_force_min(field, field.domain, resolution=512)
        assert abs(x[0] - 0.5) <= 1.0 / 512

    def test_constant_first_index_tiebreak(self, unit_interval):
        from nonlocalopt.catalog import constant_field

        f = constant_field(unit_interval, 2.0)
        x, val = brute_force_min(f, unit_interval, resolution=64)
        axis = np.linspace(0, 1, 66)[1:-1]
        assert x[0] <= axis[0] + 1e-9  # stays in the first cell
        assert val == 2.0

    def test_agrees_with_analytic_minimizers_across_catalog(self, unit_interval, fields_1d):
        # every catalog field with a known unique interior minimizer
        expected = {
            "quadratic": 0.5,
            "quartic": 0.5,
            "ridge": 0.5,
            "sin": 0.75,            # sin(2 pi x) bottoms out at 3/4
            "asymmetric-min": 0.5,
        }
        resolution = 512
        for name, target in expected.items():
            x, _ = brute_force_min(fields_1d[name], unit_interval, resolution=resolution)
            assert abs(x[0] - target) <= 1.5 / resolution, name


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


class TestConvergenceSweep:
    def test_unknown_check_rejected(self):
        with pytest.raises(UnknownCheckError):
            convergence_sweep("no-such-check", [4, 8])

    def test_gradient_localization_monotone(self, unit_interval):
        report = convergence_sweep(
            "gradient-localization",
            [4, 8, 16, 32],
            {"field": sin_field(unit_interval), "kernel": gaussian_kernel(1, 1, 0.1)},
        )
        assert report.monotone
        assert report.errors[-1] <= 1e-3
        assert len(report.param_values) == 4

    def test_moment_check_within_bound(self, unit_square):
        report = convergence_sweep(
            "moment-c",
            [4, 8, 16],
            {"domain": unit_square, "kernel": bump_kernel(2, 1, 0.2)},
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
            {"field": sin_field(unit_interval), "kernel": gaussian_kernel(1, 1, 0.1)},
        )
        assert report.monotone

    def test_repeated_sweep_gives_same_numbers(self, unit_interval):
        settings = {"field": sin_field(unit_interval), "kernel": gaussian_kernel(1, 1, 0.1)}
        first = convergence_sweep("gradient-localization", [4, 8], dict(settings))
        second = convergence_sweep("gradient-localization", [4, 8], dict(settings))
        assert first.errors == second.errors

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
