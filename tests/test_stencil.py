"""Offset stencils, their cache, and the blocked contraction every operator shares."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from nonlocalopt import (
    BoxDomain,
    HessianVariant,
    OperatorConfig,
    RadialKernel,
    ScalarField,
    SubsetIndicator,
    build_panel_grid,
    bump_kernel,
    directional_second_moment,
    gaussian_kernel,
    nonlocal_gradient,
    nonlocal_hessian,
    restricted_nonlocal_gradient,
)
from nonlocalopt import quadrature
from nonlocalopt.catalog import linear_field, sin_field
from nonlocalopt.errors import CoincidentPointsError, NodeBudgetError
from nonlocalopt.fields import zero_extension
from nonlocalopt.operators import CENTRAL, FD_NONLOCAL, GRAD_SMOOTHED, NESTED
from nonlocalopt.quadrature import BLOCK_NODES, Stencil, StencilCache, reach_stencil, rule_1d

# One resolution per dimension, small enough for a fast reference sum.
RESOLUTION = {1: 64, 2: 32, 3: 12}


# -- references: the per-call grid sums the stencil contraction replaced ----------


def reference_gradient(field, x, boxes, config):
    kernel = config.kernel
    total = np.zeros(field.dim)
    for lo, hi in boxes:
        grid = build_panel_grid(lo, hi, x, config.resolution, config.scheme)
        d = x - grid.nodes
        r2 = np.sum(d * d, axis=1)
        keep = r2 > 0
        diff = field.value(x) - field(grid.nodes)[keep]
        coeff = grid.weights[keep] * diff / r2[keep] * kernel.density(d[keep])
        total += kernel.dim * np.sum(coeff[:, None] * d[keep], axis=0)
    return total


def reference_central_hessian(field, x, kernel, config):
    D = field.dim
    ext = zero_extension(field)
    # Offsets from a grid centred at 0, so both sides evaluate the same points:
    # the second difference amplifies node rounding by about 1/|h|^2.
    R = np.full(D, kernel.reach)
    grid = build_panel_grid(-R, R, np.zeros(D), config.resolution, config.scheme)
    h = grid.nodes
    r2 = np.sum(h * h, axis=1)
    second = ext(x + h) - 2.0 * float(ext(x)) + ext(x - h)
    coeff = D * (D + 2) / 2.0 * grid.weights * second * kernel.radial_density(np.sqrt(r2)) / r2**2
    H = np.einsum("k,ki,kj->ij", coeff, h, h)
    return H - np.sum(coeff * r2) / (D + 2) * np.eye(D)


def reference_grad_smoothed(field, x, kernel, config):
    clipped = field.domain.clip_box(x - kernel.reach, x + kernel.reach)
    grid = build_panel_grid(clipped[0], clipped[1], x, config.resolution, config.scheme)
    d = x - grid.nodes
    r2 = np.sum(d * d, axis=1)
    diff = field.gradient(x) - field.gradient(grid.nodes)
    coeff = grid.weights * kernel.density(d) / r2
    return kernel.dim * np.einsum("k,ki,kj->ij", coeff, diff, d)


def reference_moment(kernel, domain, x, axis, resolution):
    lo, hi = domain.clip_box(x - kernel.full_radius, x + kernel.full_radius)
    grid = build_panel_grid(lo, hi, x, resolution)
    d = x - grid.nodes
    r2 = np.sum(d * d, axis=1)
    return float(np.sum(grid.weights * d[:, axis] ** 2 / r2 * kernel.density(d)))


def assert_close(new, ref):
    assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))


def point(dim, where):
    # interior: reach box inside the unit cube; clipped: it crosses x_0 = 0
    x = np.array([0.41, 0.37, 0.61][:dim])
    if where == "clipped":
        x[0] = 0.06
    return x


# -- equivalence with the grid sums ----------------------------------------------------


class TestEquivalence:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["gauss", "midpoint"])
    @pytest.mark.parametrize("where", ["interior", "clipped"])
    def test_gradient(self, dim, scheme, where):
        field = sin_field(BoxDomain.unit(dim))
        kernel = gaussian_kernel(dim, 4)
        config = OperatorConfig(kernel, RESOLUTION[dim], scheme)
        x = point(dim, where)
        box = field.domain.clip_box(x - kernel.reach, x + kernel.reach)
        assert_close(nonlocal_gradient(field, x, config), reference_gradient(field, x, [box], config))

    def test_restricted_gradient(self):
        field = sin_field(BoxDomain.unit(1))
        kernel = gaussian_kernel(1, 4)
        config = OperatorConfig(kernel, 64)
        x = np.array([0.5])
        subset = SubsetIndicator.from_intervals([(0.3, 0.5), (0.52, 0.9)])
        boxes = [(np.maximum(lo, x - kernel.reach), np.minimum(hi, x + kernel.reach))
                 for lo, hi in subset.pieces()]
        assert_close(restricted_nonlocal_gradient(field, x, config, subset),
                     reference_gradient(field, x, boxes, config))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["gauss", "midpoint"])
    def test_central_hessian(self, dim, scheme):
        field = sin_field(BoxDomain.unit(dim))
        kernel = gaussian_kernel(dim, 4)
        config = OperatorConfig(kernel, RESOLUTION[dim], scheme)
        x = point(dim, "interior")
        H = nonlocal_hessian(field, x, HessianVariant(CENTRAL), config)
        assert_close(H, reference_central_hessian(field, x, kernel, config))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("where", ["interior", "clipped"])
    def test_grad_smoothed_hessian(self, dim, where):
        field = sin_field(BoxDomain.unit(dim))
        kernel = gaussian_kernel(dim, 4)
        config = OperatorConfig(kernel, RESOLUTION[dim])
        x = point(dim, where)
        H = nonlocal_hessian(field, x, HessianVariant(GRAD_SMOOTHED), config)
        assert_close(H, reference_grad_smoothed(field, x, kernel, config))

    @pytest.mark.parametrize("where", ["interior", "clipped"])
    def test_directional_second_moment(self, where):
        domain, kernel, x = BoxDomain.unit(2), gaussian_kernel(2, 4), point(2, where)
        for axis in (0, 1):
            new = directional_second_moment(kernel, domain, x, axis, 32)
            assert new == pytest.approx(reference_moment(kernel, domain, x, axis, 32), rel=1e-12)


# -- structure ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "dim,resolution,scheme", [(1, 64, "gauss"), (2, 30, "midpoint"), (3, 10, "gauss"), (2, 400, "gauss")]
)
def test_full_box_stencil_is_point_symmetric(dim, resolution, scheme):
    kernel = gaussian_kernel(dim, 4)
    reach = np.full(dim, kernel.reach)
    stencil = Stencil(kernel, -reach, reach, resolution, scheme)
    h = np.concatenate([b.h for b in stencil.blocks()])
    w = np.concatenate([b.wrho for b in stencil.blocks()])
    assert len(h) == len(stencil) == (2 * (resolution // 2)) ** dim
    assert np.array_equal(h[::-1], -h)
    assert np.array_equal(w[::-1], w)


def test_underflowing_offsets_carry_no_weight():
    # |h|^2 of the 32 offsets left of x = 1e-200 underflows to 0
    domain, kernel, x = BoxDomain.unit(1), RadialKernel("gaussian", 1, 1, 1e-150), [1e-200]
    blocks = list(reach_stencil(kernel, np.array(x), kernel.reach, domain, 64).blocks())
    h = np.concatenate([b.h for b in blocks])
    underflow = np.sum(h * h, axis=1) == 0
    assert np.count_nonzero(underflow) == 32
    assert np.all(np.concatenate([b.wrho for b in blocks])[underflow] == 0)
    assert np.all(np.isfinite(np.concatenate([b.grad for b in blocks])))
    g = nonlocal_gradient(linear_field(domain, [1.0]), x, OperatorConfig(kernel, 64))
    # the right half of the kernel's mass, less what lies past its 6-sigma reach
    assert np.all(np.isfinite(g)) and g == pytest.approx([0.5], abs=1e-8)


def test_central_hessian_evaluates_each_stencil_node_once():
    points = []
    base = sin_field(BoxDomain.unit(2))

    def counting(p):
        points.append(np.shape(p)[0] if np.ndim(p) > 1 else 1)
        return base.fn(p)

    field = replace(base, fn=counting)
    config = OperatorConfig(gaussian_kernel(2, 8), 64)
    nonlocal_hessian(field, [0.5, 0.5], HessianVariant(CENTRAL), config)
    assert sum(points) == 64 * 64 + 1  # the stencil, plus u(x)


@pytest.fixture
def stencil_cache(monkeypatch):
    """Operators see a fresh process-wide cache; the test sets its cap."""

    def use(cap):
        cache = StencilCache(cap)
        monkeypatch.setattr(quadrature, "STENCILS", cache)
        return cache

    return use


def test_streamed_path_equals_cached_path(stencil_cache):
    # 400**2 nodes span three blocks, and the half the central Hessian sums
    # ends inside the second one
    field = sin_field(BoxDomain.unit(2))
    config = OperatorConfig(gaussian_kernel(2, 4), 400)
    x = np.array([0.5, 0.37])
    variant = HessianVariant(CENTRAL)
    assert 400**2 > 2 * BLOCK_NODES and (400**2 // 2) % BLOCK_NODES

    cached = stencil_cache(quadrature.CACHE_BYTES)
    g_cached = nonlocal_gradient(field, x, config)
    H_cached = nonlocal_hessian(field, x, variant, config)
    assert len(cached) == 1

    streamed = stencil_cache(0)
    g_streamed = nonlocal_gradient(field, x, config)
    H_streamed = nonlocal_hessian(field, x, variant, config)
    assert len(streamed) == 0 and streamed.nbytes == 0
    assert np.array_equal(g_cached, g_streamed)
    assert np.array_equal(H_cached, H_streamed)


def test_clipped_points_are_not_cached(stencil_cache):
    cache = stencil_cache(quadrature.CACHE_BYTES)
    field = sin_field(BoxDomain.unit(1))
    nonlocal_gradient(field, [0.02], OperatorConfig(gaussian_kernel(1, 4), 64))
    assert len(cache) == 0


class TestCache:
    def test_hit_returns_the_same_stencil(self):
        cache = StencilCache()
        kernel = gaussian_kernel(2, 4)
        first = cache.get(kernel, kernel.reach, 32)
        assert cache.get(gaussian_kernel(2, 4), kernel.reach, 32) is first
        assert cache.get(kernel, kernel.reach, 32, "midpoint") is not first

    def test_stays_under_its_byte_cap_after_20_kernels(self):
        one = StencilCache().get(gaussian_kernel(2, 1), 0.1, 64).nbytes
        cache = StencilCache(cap=3 * one + one // 2)
        for n in range(1, 21):
            kernel = gaussian_kernel(2, n)
            cache.get(kernel, kernel.reach, 64)
            assert cache.nbytes <= cache.cap
        assert len(cache) == 3
        latest = gaussian_kernel(2, 20)
        assert cache.get(latest, latest.reach, 64) is cache.get(latest, latest.reach, 64)

    def test_least_recently_used_is_evicted(self):
        kernels = [gaussian_kernel(1, n) for n in (1, 2, 3)]
        one = StencilCache().get(kernels[0], kernels[0].reach, 64).nbytes
        cache = StencilCache(cap=2 * one)
        a = cache.get(kernels[0], kernels[0].reach, 64)
        cache.get(kernels[1], kernels[1].reach, 64)
        cache.get(kernels[0], kernels[0].reach, 64)  # refresh the first
        cache.get(kernels[2], kernels[2].reach, 64)  # evicts the second
        assert cache.get(kernels[0], kernels[0].reach, 64) is a
        assert len(cache) == 2

    def test_stencil_above_the_cap_is_not_kept(self):
        cache = StencilCache(cap=1024)
        kernel = gaussian_kernel(2, 4)
        stencil = cache.get(kernel, kernel.reach, 64)
        assert len(stencil) == 64 * 64
        assert len(cache) == 0 and cache.nbytes == 0

    def test_concurrent_gets_keep_the_byte_count(self):
        one = StencilCache().get(gaussian_kernel(1, 1), 0.1, 32).nbytes
        cache = StencilCache(cap=5 * one)
        kernels = [gaussian_kernel(1, n) for n in range(1, 13)]
        errors = []

        def work(offset):
            try:
                for i in range(200):
                    k = kernels[(i + offset) % len(kernels)]
                    cache.get(k, k.reach, 32)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert cache.nbytes == len(cache) * one <= cache.cap


def test_stencil_checks_node_budget_before_building_rules():
    kernel = gaussian_kernel(3, 4)
    reach = np.full(3, kernel.reach)
    with pytest.raises(NodeBudgetError):
        Stencil(kernel, -reach, reach, 4000)


def test_gauss_rule_checks_its_matrix_size():
    with pytest.raises(NodeBudgetError):
        rule_1d(0.0, 1.0, 50_000)
    x, w = rule_1d(0.0, 1.0, 3000)
    assert w.sum() == pytest.approx(1.0)


# -- non-finite field values ----------------------------------------------------------------


def _nan_beyond(threshold):
    def fn(p):
        p = np.asarray(p, dtype=float)
        return np.where(p[..., 0] > threshold, np.nan, p[..., 0] ** 2)

    return ScalarField(fn, BoxDomain.unit(1), name="nan-right")


@pytest.mark.parametrize("kind", [CENTRAL, GRAD_SMOOTHED, FD_NONLOCAL, NESTED])
def test_hessians_raise_on_non_finite_field(kind):
    field = _nan_beyond(0.55)
    config = OperatorConfig(gaussian_kernel(1, 8), 64)
    with pytest.raises(ValueError, match="not finite at quadrature node"):
        nonlocal_hessian(field, [0.5], HessianVariant(kind, m=8), config)


def test_reach_below_float_spacing_raises():
    # every node of a 1e-300 bump would round onto the evaluation point
    kernel = bump_kernel(1, 1, base_scale=1e-300)
    field = sin_field(BoxDomain.unit(1))
    config = OperatorConfig(kernel, 64)
    with pytest.raises(CoincidentPointsError):
        nonlocal_gradient(field, [0.5], config)
    with pytest.raises(CoincidentPointsError):
        nonlocal_hessian(field, [0.5], HessianVariant(CENTRAL), config)
    with pytest.raises(CoincidentPointsError):
        directional_second_moment(kernel, BoxDomain.unit(1), [0.5], 0)


def test_gradient_raises_on_non_finite_field():
    config = OperatorConfig(gaussian_kernel(1, 8), 64)
    with pytest.raises(ValueError, match="not finite at quadrature node"):
        nonlocal_gradient(_nan_beyond(0.55), [0.5], config)
