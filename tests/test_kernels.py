import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonlocalopt import (
    OperatorConfig,
    RadialKernel,
    bump_kernel,
    directional_second_moments,
    gaussian_kernel,
)
from nonlocalopt import kernels
from nonlocalopt.kernels import bump_profile


def normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def density(kernel, h):
    """The kernel's density at the offsets ``h`` (..., D)."""
    return kernel.radial_density(np.linalg.norm(np.asarray(h, dtype=float), axis=-1))


class TestDensity:
    def test_standard_normal_peak(self):
        # sigma_n = 1 at n=1, base 1
        k = gaussian_kernel(1, 1, base_scale=1.0)
        assert density(k, [0.0]) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_bump_zero_at_support_edge(self):
        k = bump_kernel(2, 1, base_scale=0.2)
        h = np.array([0.2, 0.0])
        assert density(k, h) == 0.0

    def test_gaussian_scaled_value(self):
        # base 0.2, n=2 -> sigma 0.1; compare against the closed-form density
        k = gaussian_kernel(1, 2, base_scale=0.2)
        sigma = 0.1
        expected = math.exp(-0.5 * (0.1 / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        assert density(k, [0.1]) == pytest.approx(expected, rel=1e-12)

    @given(angle=st.floats(0, 2 * math.pi), r=st.floats(0.001, 0.3))
    @settings(max_examples=50)
    def test_radial_symmetry(self, angle, r):
        k = gaussian_kernel(2, 3, base_scale=0.3)
        h1 = np.array([r, 0.0])
        h2 = r * np.array([math.cos(angle), math.sin(angle)])
        assert density(k, h1) == pytest.approx(density(k, h2), rel=1e-12)


def gathered_bump(v):
    """The bump profile by boolean gather and scatter: ``exp(-1/(1-v^2))`` at the inside values."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    inside = np.abs(v) < 1.0
    vi = v[inside]
    out[inside] = np.exp(-1.0 / (1.0 - vi * vi))
    return out


# inside the support, on its edge, past it, and values whose square overflows or is not a number
EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-160, 0.5, -0.5, 0.999999, 1.0 - 2.0**-53, -(1.0 - 2.0**-53),
               1.0, -1.0, 1.0 + 2.0**-52, 2.0, 1e154, 1.1e154, -1e200, 1e308, math.inf, -math.inf,
               math.nan, -math.nan]


class TestBumpProfile:
    def test_masked_form_keeps_the_bits_of_the_gather(self):
        rng = np.random.default_rng(3)
        values = [np.array(EDGE_VALUES), np.array(EDGE_VALUES).reshape(3, 7)]
        values += [rng.uniform(-1.5, 1.5, size) for size in (1, 7, 512, 3001)]
        for v in values:
            got = bump_profile(v)  # a RuntimeWarning fails the test suite
            assert got.shape == v.shape and got.tobytes() == gathered_bump(v).tobytes()
            assert np.all(got[~(np.abs(v) < 1.0)] == 0.0)

    def test_one_value(self):
        for v in EDGE_VALUES:
            assert bump_profile(v).shape == ()
            assert bump_profile(v).tobytes() == gathered_bump(v).tobytes()


class TestMass:
    @pytest.mark.parametrize("family", ["gaussian", "bump"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_unit_mass_all_scales(self, family, dim):
        base = 0.1 if family == "gaussian" else 0.2
        for n in range(1, 65):
            k = RadialKernel(family, dim, n, base)
            assert abs(k.mass() - 1.0) <= 1e-8

    def test_tail_gaussian_against_cdf_oracle(self):
        # sigma_n = 1, delta = 1: complementary normal mass 2(1 - Phi(1))
        k = gaussian_kernel(1, 1, base_scale=1.0)
        expected = 2.0 * (1.0 - normal_cdf(1.0))
        assert k.tail_mass(1.0) == pytest.approx(expected, abs=1e-10)

    def test_tail_bump_compact(self):
        k = bump_kernel(1, 2, base_scale=0.2)  # support radius 0.1
        assert k.tail_mass(0.1) == 0.0
        assert k.tail_mass(0.5) == 0.0

    def test_tail_small_delta_full_mass(self):
        for k in (gaussian_kernel(1, 4), bump_kernel(2, 4)):
            assert k.tail_mass(1e-9) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("family,base", [("gaussian", 0.1), ("bump", 0.2)])
    def test_monotone_concentration(self, family, base):
        # Strictly decreasing in n until the value hits exact zero (compact
        # kernels give 0 the moment delta >= r_n; Gaussian tails underflow).
        for delta in (0.05, 0.1, 0.5):
            prev = None
            for n in range(1, 33):
                t = RadialKernel(family, 1, n, base).tail_mass(delta)
                if prev is not None:
                    if prev > 0.0:
                        assert t < prev
                    else:
                        assert t == 0.0
                prev = t


def array_bump_draws(kernel, rng, size):
    """Bump offsets by rejection with ``np.linalg.norm`` and ``bump_profile`` of a one-element
    array at each attempt: the loop ``RadialKernel.sample`` runs on scalars."""
    out = np.empty((size, kernel.dim))
    for i in range(size):
        while True:
            p = rng.uniform(-1.0, 1.0, size=kernel.dim)
            v = float(np.linalg.norm(p))
            if v < 1.0 and (rng.uniform() * kernels._BUMP_ENVELOPE
                            <= float(bump_profile(np.asarray([v]))[0])):
                out[i] = p
                break
    return kernel.scale * out


class TestSampling:
    def test_gaussian_mean_clt(self):
        k = gaussian_kernel(1, 1, base_scale=0.1)  # sigma 0.1
        rng = np.random.default_rng(0)
        samples = k.sample(rng, 100_000)
        assert abs(samples.mean()) <= 0.005  # 3 sigma / sqrt(N) ~ 9.5e-4

    def test_bump_support_constraint(self):
        k = bump_kernel(2, 2, base_scale=0.2)  # radius 0.1
        rng = np.random.default_rng(1)
        samples = k.sample(rng, 100_000)
        assert np.all(np.linalg.norm(samples, axis=1) < 0.1)

    @pytest.mark.parametrize("family", ["gaussian", "bump"])
    def test_deterministic_given_seed(self, family):
        k = RadialKernel(family, 2, 3, 0.2)
        a = k.sample(np.random.default_rng(42), 5)
        b = k.sample(np.random.default_rng(42), 5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("family,base", [("gaussian", 0.1), ("bump", 0.2)])
    def test_empirical_tail_matches_quadrature(self, family, base):
        k = RadialKernel(family, 1, 2, base)
        delta = k.scale * (1.0 if family == "gaussian" else 0.5)
        p = k.tail_mass(delta)
        rng = np.random.default_rng(3)
        samples = k.sample(rng, 100_000)
        emp = float(np.mean(np.linalg.norm(samples, axis=1) > delta))
        assert abs(emp - p) <= 3.0 * math.sqrt(p * (1 - p) / 100_000)

    @pytest.mark.parametrize("family,dim,base_scale", [
        ("gaussian", 1, math.nan), ("gaussian", 1, math.inf), ("gaussian", 1, 1e-300),
        ("bump", 2, 1e-300),
    ])
    def test_unrepresentable_base_scale_rejected(self, family, dim, base_scale):
        with pytest.raises(ValueError, match="base scale|too small"):
            RadialKernel(family, dim, 8, base_scale)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_bump_draws_keep_the_bits_of_the_array_loop(self, dim, seed):
        # the scalar norm and profile of each attempt pick the same offsets as the array ones,
        # and draws in two blocks continue one stream
        k = bump_kernel(dim, 2)
        expected = array_bump_draws(k, np.random.default_rng(seed), 1500)
        assert np.array_equal(k.sample(np.random.default_rng(seed), 1500), expected)
        rng = np.random.default_rng(seed)
        blocks = np.concatenate([k.sample(rng, 1), k.sample(rng, 0), k.sample(rng, 1499)])
        assert np.array_equal(blocks, expected)

    def test_rejection_overflow_signalled(self, monkeypatch):
        # no attempt budget at all: the bump sampler must give up, not loop
        from nonlocalopt.errors import RejectionOverflowError

        monkeypatch.setattr(kernels, "_MAX_SAMPLE_ATTEMPTS", 0)
        with pytest.raises(RejectionOverflowError):
            bump_kernel(1, 1).sample(np.random.default_rng(0), 1)


class TestMoments:
    def test_1d_degenerate(self, unit_interval):
        # integrand is identically the density in 1-D
        k = bump_kernel(1, 4, base_scale=0.2)
        c = directional_second_moments(unit_interval, [0.5], OperatorConfig(k))
        assert c[0] == pytest.approx(1.0, abs=1e-8)

    def test_2d_interior_split(self, unit_square):
        k = bump_kernel(2, 4, base_scale=0.2)  # radius 0.05, interior at center
        c = directional_second_moments(unit_square, [0.5, 0.5], OperatorConfig(k))
        assert np.all(np.abs(2.0 * c - 1.0) <= 1e-6)

    def test_2d_corner_deficit(self, unit_square):
        # quadrature oracle: near a corner with a wide kernel, D*c < 1 strictly
        k = gaussian_kernel(2, 1, base_scale=0.2)
        c = directional_second_moments(unit_square, [0.05, 0.05], OperatorConfig(k))
        assert np.all(2 * c < 1.0 - 1e-3)

    def test_interior_bounds(self, unit_square):
        k = gaussian_kernel(2, 2, base_scale=0.2)
        for x in ([0.3, 0.7], [0.5, 0.2], [0.9, 0.9]):
            c = directional_second_moments(unit_square, x, OperatorConfig(k))
            assert np.all(2 * c >= -1e-12)
            assert np.all(2 * c <= 1.0 + 1e-8)

    def test_moment_convergence_in_n(self, unit_square):
        k = gaussian_kernel(2, 1, base_scale=0.2)
        errs = []
        for n in (1, 2, 4, 8):
            c = directional_second_moments(unit_square, [0.3, 0.4],
                                           OperatorConfig(k.with_scale_index(n)))
            errs.append(abs(2 * c[0] - 1.0))
        assert errs[-1] <= 1e-6


class TestKernelProperties:
    @given(
        family=st.sampled_from(["gaussian", "bump"]),
        dim=st.integers(1, 3),
        n=st.integers(1, 48),
        base=st.floats(0.05, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_unit_mass_property(self, family, dim, n, base):
        k = RadialKernel(family, dim, n, base)
        assert abs(k.mass() - 1.0) <= 1e-8

    @given(delta1=st.floats(0.01, 0.3), delta2=st.floats(0.01, 0.3))
    @settings(max_examples=30)
    def test_tail_mass_monotone_in_delta(self, delta1, delta2):
        k = gaussian_kernel(1, 2, 0.1)
        lo, hi = sorted((delta1, delta2))
        assert k.tail_mass(hi) <= k.tail_mass(lo) + 1e-12
