"""Offset stencils, their cache, and the blocked contraction every operator shares."""

import ctypes
import math
import platform
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from nonlocalopt import (
    BoxDomain,
    HessianVariant,
    OperatorConfig,
    PulseRunConfig,
    RadialKernel,
    ScalarField,
    SgdConfig,
    SubsetIndicator,
    build_panel_grid,
    bump_kernel,
    directional_second_moments,
    epsilon_sgd,
    extend_by_zero,
    gaussian_kernel,
    nonlocal_gradient,
    nonlocal_hessian,
    nonlocal_newton,
    restricted_nonlocal_gradient,
    run_pulse_experiment,
)
from nonlocalopt import operators, quadrature
from nonlocalopt.catalog import bump_field, catalog, linear_field, quadratic_field, sin_field
from nonlocalopt.cli import run_cli
from nonlocalopt.errors import (CoincidentPointsError, DimensionMismatchError, NodeBudgetError,
                                NonFiniteFieldError)
from nonlocalopt.fields import Columns
from nonlocalopt.operators import CENTRAL, FD_NONLOCAL, GRAD_SMOOTHED, NESTED
from nonlocalopt.quadrature import BLOCK_NODES, Stencil, StencilCache, reach_stencils, rule_1d
from nonlocalopt.sweeps import diagonal_probes

# One resolution per dimension, small enough for a fast reference sum.
RESOLUTION = {1: 64, 2: 32, 3: 12}


def family_kernel(dim, family):
    """A Gaussian kernel, or a bump kernel, whose compact support ends inside its reach box."""
    return gaussian_kernel(dim, 4) if family == "gaussian" else bump_kernel(dim, 2)


# -- references: the per-call grid sums the stencil contraction replaced ----------


def reference_gradient(field, x, boxes, config):
    kernel = config.kernel
    total = np.zeros(field.dim)
    for lo, hi in boxes:
        grid = build_panel_grid(lo, hi, x, config.resolution)
        d = x - grid.nodes
        r2 = np.sum(d * d, axis=1)
        keep = r2 > 0
        diff = field.value(x) - field(grid.nodes)[keep]
        coeff = grid.weights[keep] * diff / r2[keep] * kernel.density(d[keep])
        total += kernel.dim * np.sum(coeff[:, None] * d[keep], axis=0)
    return total


def reference_central_hessian(field, x, kernel, config):
    D = field.dim
    ext = extend_by_zero(field)
    # Offsets from a grid centred at 0, so both sides evaluate the same points:
    # the second difference amplifies node rounding by about 1/|h|^2.
    R = np.full(D, kernel.reach)
    grid = build_panel_grid(-R, R, np.zeros(D), config.resolution)
    h = grid.nodes
    r2 = np.sum(h * h, axis=1)
    second = ext(x + h) - 2.0 * float(ext(x)) + ext(x - h)
    coeff = D * (D + 2) / 2.0 * grid.weights * second * kernel.radial_density(np.sqrt(r2)) / r2**2
    H = np.einsum("k,ki,kj->ij", coeff, h, h)
    return H - np.sum(coeff * r2) / (D + 2) * np.eye(D)


def reference_grad_smoothed(field, x, kernel, config):
    clipped = field.domain.clip_box(x - kernel.reach, x + kernel.reach)
    grid = build_panel_grid(clipped[0], clipped[1], x, config.resolution)
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
    @pytest.mark.parametrize("family", ["gaussian", "bump"])
    @pytest.mark.parametrize("where", ["interior", "clipped"])
    def test_gradient(self, dim, family, where):
        field = sin_field(BoxDomain.unit(dim))
        kernel = family_kernel(dim, family)
        config = OperatorConfig(kernel, RESOLUTION[dim])
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
    @pytest.mark.parametrize("family", ["gaussian", "bump"])
    def test_central_hessian(self, dim, family):
        field = sin_field(BoxDomain.unit(dim))
        kernel = family_kernel(dim, family)
        config = OperatorConfig(kernel, RESOLUTION[dim])
        x = point(dim, "interior")
        H = nonlocal_hessian(field, x, HessianVariant(CENTRAL), config)
        assert_close(H, reference_central_hessian(field, x, kernel, config))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("family", ["gaussian", "bump"])
    @pytest.mark.parametrize("where", ["interior", "clipped"])
    def test_grad_smoothed_hessian(self, dim, family, where):
        field = sin_field(BoxDomain.unit(dim))
        kernel = family_kernel(dim, family)
        config = OperatorConfig(kernel, RESOLUTION[dim])
        x = point(dim, where)
        H = nonlocal_hessian(field, x, HessianVariant(GRAD_SMOOTHED), config)
        assert_close(H, reference_grad_smoothed(field, x, kernel, config))

    @pytest.mark.parametrize("family", ["gaussian", "bump"])
    @pytest.mark.parametrize("where", ["interior", "clipped"])
    def test_directional_second_moment(self, family, where):
        domain, kernel, x = BoxDomain.unit(2), family_kernel(2, family), point(2, where)
        new = directional_second_moments(domain, x, OperatorConfig(kernel, 32))
        for axis in (0, 1):
            assert new[axis] == pytest.approx(reference_moment(kernel, domain, x, axis, 32),
                                              rel=1e-12)


# -- the paired gradient ------------------------------------------------------------------


def one_sided_box_gradient(field, x, stencil):
    """``sum (u(x) - u(x + h)) D w rho(|h|) / |h|^2 (-h)`` over every node ``h`` of the stencil's
    whole box, from its rules, in one product."""
    h, _, _, grad = reference_expansion(stencil.kernel, stencil.axes, np.arange(len(stencil)))
    return (field.value(x) - field(x + h)) @ grad


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("cap", [quadrature.CACHE_BYTES, 0], ids=["cached", "streamed"])
def test_paired_gradient_equals_the_one_sided_box_sum(stencil_cache, dim, cap):
    # u(x) cancels between h and -h; what is left is the same sum, up to rounding
    cache, domain = stencil_cache(cap), BoxDomain.unit(dim)
    config = OperatorConfig(gaussian_kernel(dim, 4), RESOLUTION[dim])
    x = np.array([0.41, 0.37, 0.61][:dim])
    stencil = Stencil(config.kernel, -np.full(dim, config.kernel.reach),
                      np.full(dim, config.kernel.reach), config.resolution)
    fields = catalog(domain)
    assert len(fields) == 9 - (dim > 1)
    for name, field in fields.items():
        g, expected = nonlocal_gradient(field, x, config), one_sided_box_gradient(field, x, stencil)
        assert np.max(np.abs(g - expected)) <= 1e-13 * max(np.max(np.abs(expected)), 1.0), name
        assert same_bits(nonlocal_gradient(field, x[None], config)[0], g), name
    assert len(cache) == (cap > 0)


# (dimension, resolution, tolerance): the bump's tensor rule is exact to rounding in 1-D; in
# 2-D its quadrature error is about 2e-14 at resolution 256
@pytest.mark.parametrize("dim,resolution,tolerance", [(1, 256, 1e-14), (1, 512, 1e-14),
                                                      (2, 256, 5e-14)])
def test_bump_kernel_gradient_of_a_linear_field_is_exact(dim, resolution, tolerance):
    slope = np.array([1.0, -1.3][:dim])
    field = linear_field(BoxDomain.unit(dim), slope, offset=0.25)
    x = np.random.default_rng(dim).uniform(0.3, 0.7, size=(4, dim))
    g = nonlocal_gradient(field, x, OperatorConfig(bump_kernel(dim, 2), resolution))
    assert np.max(np.abs(g - slope)) <= tolerance


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_interior_gradient_reads_each_box_node_once_and_no_value(monkeypatch, dim):
    # u(x + h) and u(x - h) over the lower half are the whole box's nodes, each once, and
    # u(x) is never read: as many field points as the one-sided sum, and no value call
    field, config = sin_field(BoxDomain.unit(dim)), batch_config(dim, "gaussian")
    x = batch_points(dim)[[0, 2, 3, 5]]  # every reach box inside the unit cube
    reach = np.full(dim, config.kernel.reach)
    box = Stencil(config.kernel, -reach, reach, config.resolution)
    nodes = np.stack(np.meshgrid(*[r for r, _ in box.axes], indexing="ij"), -1).reshape(-1, dim)
    called, values = [], []
    call = ScalarField.__call__
    monkeypatch.setattr(ScalarField, "__call__",
                        lambda self, p: called.append(np.asarray(p)) or call(self, p))
    monkeypatch.setattr(ScalarField, "value", lambda self, p: values.append(p))
    for points in (x[:1], x[0], x):  # a one-point batch, one point, four points
        called.clear()
        nonlocal_gradient(field, points, config)
        read = np.concatenate(called)
        expected = (np.atleast_2d(points)[:, None] + nodes).reshape(-1, dim)
        assert len(read) == len(expected) == len(np.atleast_2d(points)) * len(box)
        assert same_bits(np.unique(read, axis=0), np.unique(expected, axis=0))
    assert values == []


# -- structure ---------------------------------------------------------------------------


# (1, 65): an odd resolution rounds down to an even node count per axis
@pytest.mark.parametrize("dim,resolution", [(1, 64), (1, 65), (2, 30), (3, 10), (2, 400)])
def test_full_box_stencil_is_point_symmetric(dim, resolution):
    # a full box walks the lower half of axis 0; the nodes after it in C order are its mirror
    # images in reverse order, with the same w * rho and the gradient weights negated
    kernel = gaussian_kernel(dim, 4)
    reach = np.full(dim, kernel.reach)
    stencil = Stencil(kernel, -reach, reach, resolution)
    h = np.concatenate([b.h for b in stencil.offsets()])
    w = np.concatenate([b.wrho for b in stencil.offsets()])
    grad = np.concatenate([b.grad for b in stencil.blocks()])
    assert stencil.paired and len(stencil) == (2 * (resolution // 2)) ** dim
    assert len(h) == len(grad) == len(stencil) // 2
    full_h, _, full_w, full_grad = reference_expansion(kernel, stencil.axes,
                                                       np.arange(len(stencil)))
    assert same_bits(full_h, np.concatenate([h, -h[::-1]]))
    assert same_bits(full_w, np.concatenate([w, w[::-1]]))
    assert same_bits(full_grad, np.concatenate([grad, -grad[::-1]]))


def mirrored(axes):
    """Per axis, whether its rule is its own mirror image at 0, from the arrays:
    ``x[::-1] == -x`` and ``w[::-1] == w`` on an even node count."""
    return tuple(x.size % 2 == 0 and np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)
                 for x, w in axes)


def reference_split(shape, block_nodes):
    """The flat node indices of each block of a grid of ``shape``: one index of each axis
    before the first axis ``k`` whose later axes hold at most ``block_nodes`` nodes, runs of
    ``block_nodes // stride`` indices of axis ``k``, and every later axis whole."""
    k = next(k for k in range(len(shape)) if math.prod(shape[k + 1:]) <= block_nodes)
    step, n = block_nodes // math.prod(shape[k + 1:]), shape[k]
    index = np.arange(math.prod(shape)).reshape(shape)
    for head in np.ndindex(*shape[:k]):
        for lo in range(0, n, step):
            yield index[head + (np.arange(lo, min(lo + step, n)),)].reshape(-1)


def paired(stencil):
    """Whether every rule of the stencil is its own mirror image at 0, by ``mirrored``."""
    return all(mirrored(stencil.axes))


def walked_axes(stencil):
    """The rules a stencil's blocks walk: its rules, with the rule of axis 0 cut to its lower
    half when the stencil is ``paired``."""
    axes = stencil.axes
    if paired(stencil):
        (x, w), *rest = axes
        axes = ((x[:x.size // 2], w[:w.size // 2]), *rest)
    return axes


def reference_expansion(kernel, axes, nodes):
    """``h``, ``|h|^2``, ``w * rho`` and the gradient weights of the flat ``nodes`` of the C-order
    product of the rules ``axes``: each node's axis indices by ``unravel_index``, then
    gathers."""
    index = np.unravel_index(nodes, tuple(x.size for x, _ in axes))
    h = np.stack([x[i] for (x, _), i in zip(axes, index)], axis=1)
    w = np.ones(1)
    for (_, wx), i in zip(axes, index):
        w = w * wx[i]
    r2 = np.sum(h * h, axis=1)
    wrho = w * kernel.radial_density(np.sqrt(r2))
    wrho[r2 == 0] = 0.0
    r2[r2 == 0] = 1.0
    return h, r2, wrho, (kernel.dim * wrho / r2)[:, None] * -h


def reference_blocks(stencil, block_nodes):
    """The per-node expansion of ``reference_split``'s blocks of the rules the stencil walks
    (``walked_axes``)."""
    axes = walked_axes(stencil)
    for nodes in reference_split(tuple(x.size for x, _ in axes), block_nodes):
        yield reference_expansion(stencil.kernel, axes, nodes)


# (dimension, resolution, box half-widths in reaches, nodes per block): axis-0 slabs that
# divide the block, slabs that do not, slabs larger than a block (split along axis 1), and
# boxes clipped on one side; full boxes (1.0, 1.0) walk the lower half of axis 0 and take
# their weights from one orthant of the axes their blocks keep whole
EXPANSIONS = [
    (2, 256, (1.0, 1.0), BLOCK_NODES), (3, 50, (1.0, 1.0), BLOCK_NODES),
    (2, 32, (1.0, 1.0), 1024), (2, 30, (0.4, 1.0), 1024), (3, 16, (1.0, 1.0), 1024),
    (3, 12, (1.0, 0.3), 1024), (4, 8, (1.0, 1.0), 1024), (4, 12, (1.0, 1.0), 1000),
    (3, 40, (1.0, 1.0), 1024), (4, 20, (1.0, 0.5), 1024),
    (2, 30, (1.0, 1.0), 1000), (3, 14, (1.0, 1.0), 1000), (4, 8, (1.0, 1.0), 1000),
]


def node_indices(axes, block_axes):
    """The flat indices, in the C-order product of the rules ``axes``, of the nodes of a block
    whose rules ``block_axes`` are runs of them, read from the same memory."""
    ranges = []
    for (x, w), (bx, bw) in zip(axes, block_axes, strict=True):
        lo = int(np.searchsorted(x, bx[0]))  # every stencil rule increases strictly
        assert np.shares_memory(x, bx) and np.shares_memory(w, bw)
        assert same_bits(x[lo:lo + bx.size], bx) and same_bits(w[lo:lo + bw.size], bw)
        ranges.append(np.arange(lo, lo + bx.size))
    return np.ravel_multi_index(np.ix_(*ranges), [x.size for x, _ in axes]).reshape(-1)


def expansion_stencil(monkeypatch, dim, resolution, widths, block_nodes):
    monkeypatch.setattr(quadrature, "BLOCK_NODES", block_nodes)
    kernel = bump_kernel(dim, 2)
    lo = -np.full(dim, widths[0] * kernel.reach)
    return Stencil(kernel, lo, np.full(dim, widths[1] * kernel.reach), resolution)


@pytest.mark.parametrize("dim,resolution,widths,block_nodes", EXPANSIONS)
def test_blocks_equal_the_per_node_expansion(monkeypatch, dim, resolution, widths, block_nodes):
    stencil = expansion_stencil(monkeypatch, dim, resolution, widths, block_nodes)
    assert stencil.paired == (widths == (1.0, 1.0))
    axes = walked_axes(stencil)
    expected = list(reference_blocks(stencil, block_nodes))
    nodes = list(reference_split(tuple(x.size for x, _ in axes), block_nodes))
    for materialized in (False, True):
        if materialized:
            stencil.materialize()
        blocks = list(stencil.blocks())
        for b, e, n in zip(blocks, expected, nodes, strict=True):
            assert same_bits(node_indices(axes, b.axes), n) and same_bits(b.grad, e[3])


@pytest.mark.parametrize("dim,resolution,widths,block_nodes", EXPANSIONS)
def test_offsets_equal_the_per_node_expansion(monkeypatch, dim, resolution, widths, block_nodes):
    # built on every call, cached stencil or not, over the same nodes as the blocks
    stencil = expansion_stencil(monkeypatch, dim, resolution, widths, block_nodes)
    axes = walked_axes(stencil)
    shape = tuple(x.size for x, _ in axes)
    for materialized in (False, True):
        if materialized:
            stencil.materialize()
        expected = zip(reference_blocks(stencil, block_nodes),
                       reference_split(shape, block_nodes), strict=True)
        for b, (arrays, nodes) in zip(stencil.offsets(), expected, strict=True):
            assert same_bits(node_indices(axes, b.axes), nodes) and len(nodes) == len(b.h)
            assert all(same_bits(a, e) for a, e in zip((b.h, b.r2, b.wrho), arrays))


@pytest.mark.parametrize("dim,resolution,widths,block_nodes", EXPANSIONS + [
    (3, 96, (1.0, 1.0), BLOCK_NODES), (3, 96, (0.4, 1.0), BLOCK_NODES)])
def test_shifted_points_from_the_rules_are_x_plus_and_minus_h(monkeypatch, dim, resolution,
                                                              widths, block_nodes):
    # 3-D resolution 96: 9,216-node slabs, which do not divide a block
    stencil = expansion_stencil(monkeypatch, dim, resolution, widths, block_nodes)
    x = np.random.default_rng(dim).uniform(0.3, 0.7, size=(3, dim))
    for b, (h, *_) in zip(stencil.offsets(), reference_blocks(stencil, block_nodes), strict=True):
        for op in (np.add, np.subtract):
            shifted = quadrature._shifted(x, b.axes, op)
            assert same_bits(np.ascontiguousarray(shifted), op(x[:, None], h).reshape(-1, dim))


# the stencil shapes the benchmark builds: the blocks each one walks are the flat runs of
# BLOCK_NODES nodes, so the block sums keep their order
BENCHMARK_SHAPES = {(1, 256), (1, 512), (2, 256), (3, 64), (3, 128)}


# (dimension, resolution): the benchmark's shapes; an odd resolution; 2-D and 3-D slabs that do
# not divide a block; 4-D slabs larger than a block, among them the 175,616-node slabs of
# resolution 56
@pytest.mark.parametrize("dim,resolution", sorted(BENCHMARK_SHAPES) + [
    (1, 65), (2, 400), (3, 96), (4, 20), (4, 56)])
@pytest.mark.parametrize("widths", [(1.0, 1.0), (0.4, 1.0)], ids=["full", "clipped"])
def test_blocks_partition_the_stencil(dim, resolution, widths):
    kernel = gaussian_kernel(dim, 8)
    stencil = Stencil(kernel, -np.full(dim, widths[0] * kernel.reach),
                      np.full(dim, widths[1] * kernel.reach), resolution)
    axes = walked_axes(stencil)
    starts, covered = [], 0
    for block, _ in quadrature._split(axes, mirrored(axes)):
        # every node once, in C order: each block takes the nodes after the last one's
        nodes = node_indices(axes, block)
        assert same_bits(nodes, np.arange(covered, covered + len(nodes)))
        assert len(nodes) <= BLOCK_NODES
        starts.append(covered)
        covered += len(nodes)
    assert covered == math.prod(x.size for x, _ in axes)
    if (dim, resolution) in BENCHMARK_SHAPES:
        assert starts == list(range(0, covered, BLOCK_NODES))


# (dimension, resolution, nodes per block): full boxes whose lower half spans several blocks:
# 1-D in runs of 100 nodes; 2-D resolution 400 in axis-0 runs of 163 and 37 rows; 3-D
# resolution 50 in 10,000-node blocks (runs of 4 slabs), 64 (two runs of 16) and 96 (seven
# runs); 4-D resolution 20 (8 and 2 slabs) and 56 (runs of 20, 20 and 16 along axis 1)
PAIRED_SHAPES = [(1, 256, 100), (2, 400, BLOCK_NODES), (3, 50, 10_000),
                 (3, 64, BLOCK_NODES), (3, 96, BLOCK_NODES), (4, 20, BLOCK_NODES),
                 (4, 56, BLOCK_NODES)]


@pytest.mark.parametrize("dim,resolution,block_nodes", PAIRED_SHAPES)
@pytest.mark.parametrize("cap", [quadrature.CACHE_BYTES, 0], ids=["cached", "streamed"])
def test_full_box_blocks_walk_the_lower_half_of_axis_0(monkeypatch, dim, resolution,
                                                       block_nodes, cap):
    # the gradient weights and the offsets of a full box come from the same rule slices, the
    # first half of its nodes in C order, cached or streamed; nothing stores the other half
    monkeypatch.setattr(quadrature, "BLOCK_NODES", block_nodes)
    kernel = gaussian_kernel(dim, 8)
    cache = StencilCache(cap)
    stencil = cache.get(kernel, kernel.reach, resolution)
    assert stencil.symmetric == mirrored(stencil.axes) == (True,) * dim and stencil.paired
    assert stencil.nbytes == len(stencil) // 2 * dim * 8
    assert cache.nbytes == (stencil.nbytes if stencil.nbytes <= cap else 0)
    covered = 0
    for block, offsets in zip(stencil.blocks(), stencil.offsets(), strict=True):
        assert all(np.shares_memory(x, ox) and same_bits(x, ox) and same_bits(w, ow)
                   for (x, w), (ox, ow) in zip(block.axes, offsets.axes, strict=True))
        nodes = node_indices(stencil.axes, block.axes)
        assert same_bits(nodes, np.arange(covered, covered + len(nodes)))
        covered += len(nodes)
    assert covered == len(stencil) // 2 and covered > block_nodes


@pytest.mark.parametrize("dim,resolution", [(1, 256), (2, 256), (2, 400), (3, 50), (3, 96),
                                            (4, 56)])
@pytest.mark.parametrize("cap", [quadrature.CACHE_BYTES, 0], ids=["cached", "streamed"])
def test_box_symmetry_is_the_mirror_image_of_the_rules(stencil_cache, dim, resolution, cap):
    # reach_stencils' boxes: the full box, from the cache or not, and (p - r) - p and
    # (p + r) - p, clipped to the domain on some axes, and on the others equal and opposite
    # or not, as rounding makes them
    stencil_cache(cap)
    kernel = gaussian_kernel(dim, 8)
    points = np.random.default_rng(dim).uniform(0.0, 1.0, size=(40, dim))
    flags = set()
    for stencil, _ in reach_stencils(kernel, points, kernel.reach, BoxDomain.unit(dim),
                                     resolution):
        assert stencil.symmetric == mirrored(stencil.axes)
        flags.update(stencil.symmetric)
    assert flags == {False, True}


@pytest.mark.parametrize("dim,resolution,points", [(2, 400, 160_001), (3, 50, 125_001)])
def test_newton_iterate_reads_the_field_once_where_runs_regrouped(dim, resolution, points):
    # before axis-0 runs were cut by halves these stencils' blocks did not pair with their
    # half's, and an interior iterate made two passes: 320,002 and 250,002 points
    base, seen = sin_field(BoxDomain.unit(dim)), []
    field = replace(base, fn=lambda *x: seen.append(np.broadcast(*x).size) or base.fn(*x))
    config = OperatorConfig(gaussian_kernel(dim, 8), resolution)
    x = np.array(NEWTON_POINTS["interior"][:dim])
    g, H = operators._point_gradient(field, x, config, hessian=True)
    assert sum(seen) == points == resolution ** dim + 1
    assert same_bits(g, nonlocal_gradient(base, x, config))
    assert same_bits(H, nonlocal_hessian(base, x, HessianVariant(CENTRAL), config))


def counted_density(monkeypatch):
    """The sizes of the arrays ``RadialKernel.radial_density`` is called on, as a list."""
    seen, density = [], RadialKernel.radial_density
    monkeypatch.setattr(RadialKernel, "radial_density",
                        lambda self, r: seen.append(np.size(r)) or density(self, r))
    return seen


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_full_box_blocks_weigh_one_orthant(monkeypatch, dim):
    # a full box walks the lower half of axis 0, and axes 1.. are mirror images, so a block
    # evaluates the density on the upper orthant of them only: one node in 2^D; a box clipped
    # across every axis walks and evaluates every node
    kernel = bump_kernel(dim, 2)
    seen = counted_density(monkeypatch)
    reach = np.full(dim, kernel.reach)
    for hi, halves, share in ((reach, 2, 2 ** dim), (0.5 * reach, 1, 1)):
        stencil = Stencil(kernel, -reach, hi, 8)
        for blocks in (stencil.blocks, stencil.offsets):
            seen.clear()
            [block] = blocks()
            walked = math.prod(x.size for x, _ in block.axes)
            assert halves * walked == len(stencil) == share * sum(seen)


# (dimension, resolution): a 4-D stencil whose blocks keep only axes 2 and 3 whole (one node
# in 4 when the whole box was walked), and the benchmark's streamed 3-D resolution-128 one
# (524,288 of its 2,097,152 nodes when the whole box was walked)
@pytest.mark.parametrize("dim,resolution", [(4, 56), (3, 128)])
def test_full_box_expansion_evaluates_the_density_on_one_node_in_8(monkeypatch, dim,
                                                                   resolution):
    kernel = gaussian_kernel(dim, 8)
    stencil = Stencil(kernel, -np.full(dim, kernel.reach), np.full(dim, kernel.reach),
                      resolution)
    seen = counted_density(monkeypatch)
    assert sum(len(b.grad) for b in stencil.blocks()) == len(stencil) // 2
    assert sum(seen) == len(stencil) // 8 == {4: 1_229_312, 3: 262_144}[dim]


def test_underflowing_offsets_carry_no_weight():
    # |h|^2 of the 32 offsets left of x = 1e-200 underflows to 0
    domain, kernel, x = BoxDomain.unit(1), RadialKernel("gaussian", 1, 1, 1e-150), [1e-200]
    [(stencil, _)] = reach_stencils(kernel, np.array([x]), kernel.reach, domain, 64)
    [offsets] = stencil.offsets()
    underflow = np.sum(offsets.h * offsets.h, axis=1) == 0
    assert np.count_nonzero(underflow) == 32
    assert np.all(offsets.wrho[underflow] == 0) and np.all(offsets.r2[underflow] == 1)
    [block] = stencil.blocks()
    assert np.all(block.grad[underflow] == 0) and np.all(np.isfinite(block.grad))
    [own], paired = own_blocks(kernel, x, domain, 64)
    assert same_bits(own.grad, block.grad) and not paired
    g = nonlocal_gradient(linear_field(domain, [1.0]), x, OperatorConfig(kernel, 64))
    # the right half of the kernel's mass, less what lies past its 6-sigma reach
    assert np.all(np.isfinite(g)) and g == pytest.approx([0.5], abs=1e-8)


def test_central_hessian_evaluates_each_stencil_node_once():
    points = []
    base = sin_field(BoxDomain.unit(2))

    def counting(*x):
        points.append(np.broadcast(*x).size)
        return base.fn(*x)

    field = replace(base, fn=counting)
    config = OperatorConfig(gaussian_kernel(2, 8), 64)
    nonlocal_hessian(field, [0.5, 0.5], HessianVariant(CENTRAL), config)
    assert sum(points) == 64 * 64 + 1  # the stencil, plus u(x)


def _inside_only(field, box):
    """``field`` whose callback fails on any point outside the open ``box``."""

    def fn(*x):
        assert all(np.all((c > lo) & (c < hi)) for c, lo, hi in zip(x, box.lower, box.upper))
        return field.fn(*x)

    return replace(field, fn=fn)


def _extensions(monkeypatch):
    calls = []
    monkeypatch.setattr(operators, "extend_by_zero",
                        lambda f: calls.append(f) or extend_by_zero(f))
    return calls


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("family", ["gaussian", "bump"])
@pytest.mark.parametrize("name", ["sin", "quadratic"])
def test_interior_central_hessian_calls_the_field_as_its_zero_extension(monkeypatch, dim, family,
                                                                        name):
    field, config = BATCH_FIELDS[name](dim), batch_config(dim, family)
    x = batch_points(dim)[[0, 2, 3, 5]]  # every reach box inside the unit cube
    reference = nonlocal_hessian(extend_by_zero(field), x, HessianVariant(CENTRAL), config)
    calls = _extensions(monkeypatch)
    H = nonlocal_hessian(_inside_only(field, field.domain), x, HessianVariant(CENTRAL), config)
    assert calls == [] and same_bits(H, reference)


@pytest.mark.parametrize("dim", [1, 2])
def test_central_hessian_crossing_the_support_keeps_the_zero_extension(monkeypatch, dim):
    field = bump_field(BoxDomain.unit(dim), radius=0.3)
    config = OperatorConfig(gaussian_kernel(dim, 4), RESOLUTION[dim])
    # the first row's reach box crosses the support's lower edge 0.2, the second stays inside
    x = np.array([[0.25] * dim, [0.5] * dim])
    guarded = _inside_only(field, field.support)
    for rows in (x[:1], x):
        reference = nonlocal_hessian(extend_by_zero(field), rows, HessianVariant(CENTRAL), config)
        calls = _extensions(monkeypatch)
        H = nonlocal_hessian(guarded, rows, HessianVariant(CENTRAL), config)
        assert len(calls) == 1 and same_bits(H, reference)


@pytest.fixture
def stencil_cache(monkeypatch):
    """Operators see a fresh process-wide cache; the test sets its cap."""

    def use(cap):
        cache = StencilCache(cap)
        monkeypatch.setattr(quadrature, "STENCILS", cache)
        return cache

    return use


def test_streamed_path_equals_cached_path(stencil_cache):
    # the lower half of 400**2 nodes spans two blocks, of 163 and 37 rows: runs of 163 rows
    # do not divide its 200 rows
    field = sin_field(BoxDomain.unit(2))
    config = OperatorConfig(gaussian_kernel(2, 4), 400)
    x = np.array([0.5, 0.37])
    variant = HessianVariant(CENTRAL)
    assert 400**2 > 2 * BLOCK_NODES and 200 % (BLOCK_NODES // 400)

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


def stored_shifted(points, h, op=np.add):
    """Shifted points built from a stored ``h``: the reference for ``quadrature._shifted``."""
    buf = np.empty((points.shape[1], len(points), len(h)))
    op(points.T[:, :, None], h.T[:, None, :], out=buf)
    return buf.reshape(len(buf), -1).T


def stored_offset_operators(field, x, config):
    """The gradient at each row of ``x``, the central Hessian at its first (interior) row and
    the second moments at each row, summed over stored ``h``, ``|h|^2``, ``w * rho`` and
    gradient weights per block (``reference_blocks``), with the operators' formulas."""
    kernel, D = config.kernel, field.dim
    grads = []
    for p in x:
        [(stencil, _)] = reach_stencils(kernel, p[None], kernel.reach, field.domain,
                                        config.resolution)
        total = np.zeros(D)
        for h, _, _, grad in reference_blocks(stencil, BLOCK_NODES):
            plus = field(stored_shifted(p[None], h))
            u = field(stored_shifted(p[None], h, np.subtract)) if paired(stencil) else field.value(p)
            total += (u - plus) @ grad
        grads.append(total)
    interior = x[:1]
    stencil = Stencil(kernel, -np.full(D, kernel.reach), np.full(D, kernel.reach),
                      config.resolution)
    H, trace, u = np.zeros((D, D)), 0.0, field.value(interior[0])
    for h, r2, wrho, _ in reference_blocks(stencil, BLOCK_NODES):
        second = (field(stored_shifted(interior, h)) - 2.0 * u
                  + field(stored_shifted(interior, h, np.subtract)))
        c = 2.0 * (D * (D + 2) / 2.0) * wrho / (r2 * r2) * second
        H += (h * c[:, None]).T @ h
        trace += np.sum(c * r2)
    H = H - (np.array([trace]) / (D + 2))[:, None, None] * np.eye(D)
    moments = []
    for p in x:
        [(stencil, _)] = reach_stencils(kernel, p[None], kernel.full_radius, field.domain,
                                        config.resolution)
        c = np.zeros(D)
        for h, r2, wrho, _ in reference_blocks(stencil, BLOCK_NODES):
            c += [np.sum(wrho * h[:, i] ** 2 / r2) for i in range(D)]
        moments.append(2.0 * c if paired(stencil) else c)
    return np.array(grads), H, np.array(moments)


def library_operators(field, x, config):
    """``stored_offset_operators`` from the library: one-point gradients, the central Hessian at
    the first row and the second moments."""
    return (np.array([nonlocal_gradient(field, p, config) for p in x]),
            nonlocal_hessian(field, x[:1], HessianVariant(CENTRAL), config),
            np.array([directional_second_moments(field.domain, p, config) for p in x]))


# 1-D: one block; 2-D: the 80,000 nodes of the lower half in blocks of 163 and 37 rows; 3-D:
# the 442,368 of its lower half in 9,216-node slabs, seven to a block and six in the last
SOURCE_RESOLUTION = {1: 512, 2: 400, 3: 96}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("family", ["gaussian", "bump"])
def test_cached_streamed_and_stored_offsets_give_the_same_bits(stencil_cache, dim, family):
    field = sin_field(BoxDomain.unit(dim))
    config = OperatorConfig(family_kernel(dim, family), SOURCE_RESOLUTION[dim])
    x = np.array([[0.41, 0.37, 0.61][:dim], [0.06, 0.37, 0.61][:dim]])  # interior, clipped
    cached = stencil_cache(2 * quadrature.CACHE_BYTES)  # room for two 3-D stencils
    from_cache = library_operators(field, x, config)
    kernel = config.kernel  # the reach stencil, and the moments' full-radius one
    assert len(cached) == len({kernel.reach, kernel.full_radius})
    streamed = stencil_cache(0)
    from_rules = library_operators(field, x, config)
    assert len(streamed) == 0
    for a, b, c in zip(from_cache, from_rules, stored_offset_operators(field, x, config), strict=True):
        assert same_bits(a, b) and same_bits(a, c)


def test_cache_keeps_gradient_weights_only(stencil_cache):
    # D * 8 bytes a node of the lower half: 3 MiB for the default kernel's 3-D resolution-64
    # stencil, 0.5 MiB for its 2-D resolution-256 one; the 3-D resolution-128 stencil
    # (24 MiB) is still streamed
    cache = stencil_cache(quadrature.CACHE_BYTES)
    for dim, resolution, size in ((3, 64, 3 * 2**20), (2, 256, 2**19)):
        kernel = gaussian_kernel(dim, 8)
        before = cache.nbytes
        stencil = cache.get(kernel, kernel.reach, resolution)
        assert stencil.nbytes == len(stencil) // 2 * dim * 8 == cache.nbytes - before == size
        assert sum(b.grad.nbytes for b in stencil.blocks()) == size
    kernel = gaussian_kernel(3, 8)
    assert cache.get(kernel, kernel.reach, 128).nbytes == 24 * 2**20 > quadrature.CACHE_BYTES
    assert len(cache) == 2 and cache.nbytes == 3.5 * 2**20


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
        assert cache.get(kernel, kernel.reach, 64) is not first

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


# -- allocator thresholds ---------------------------------------------------------------


class FakeLibc:
    def __init__(self):
        self.calls = []
        # a plain function, so that ``argtypes`` and ``restype`` can be set on it
        self.mallopt = lambda param, value: self.calls.append((param, value)) or 1


@pytest.fixture
def libc(monkeypatch, stencil_cache):
    """A process whose thresholds are unset, whose stencils are streamed, and whose
    ``ctypes.CDLL(None)`` is a fake; returns it and the names it opened."""
    fake, opened = FakeLibc(), []
    stencil_cache(0)
    monkeypatch.setattr(quadrature, "_heap_kept", False)
    monkeypatch.setattr(quadrature, "ctypes", SimpleNamespace(
        CDLL=lambda name: opened.append(name) or fake, c_int=ctypes.c_int))
    return fake, opened


def test_heap_thresholds_are_set_once_per_process(libc):
    fake, opened = libc
    field, config = sin_field(BoxDomain.unit(2)), OperatorConfig(gaussian_kernel(2, 4), 256)
    for x in ([0.5, 0.5], [0.4, 0.6]):
        nonlocal_gradient(field, x, config)
    assert opened == [None]
    assert fake.calls == [(quadrature._M_MMAP_THRESHOLD, 32 * 2**20),
                          (quadrature._M_TRIM_THRESHOLD, 64 * 2**20)]


RUNS = {
    "gradient-1d-res512": lambda: nonlocal_gradient(
        sin_field(BoxDomain.unit(1)), [0.5], OperatorConfig(gaussian_kernel(1, 4), 512)),
    "pulse": lambda: run_pulse_experiment(PulseRunConfig(family="gaussian", n=2, max_iters=40)),
    "sgd": lambda: epsilon_sgd(quadratic_field(BoxDomain.interval(-1.0, 1.0), center=[0.0]),
                               SgdConfig(B=1.0, M=2.0, K=20, epsilon=0.02),
                               gaussian_kernel(1, 16), seed=0),
    "gradient-2d-res256": lambda: nonlocal_gradient(
        sin_field(BoxDomain.unit(2)), [0.5, 0.5], OperatorConfig(gaussian_kernel(2, 4), 256)),
}


@pytest.mark.parametrize("name,sets", [("gradient-1d-res512", False), ("pulse", False),
                                       ("sgd", False), ("gradient-2d-res256", True)])
def test_only_large_blocks_set_the_heap_thresholds(libc, name, sets):
    RUNS[name]()
    assert bool(libc[0].calls) == sets and quadrature._heap_kept == sets


def _raise_oserror(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_raise_oserror, lambda name: object()],
                         ids=["cdll-raises", "no-mallopt"])
def test_heap_thresholds_without_mallopt_do_nothing(monkeypatch, cdll):
    monkeypatch.setattr(quadrature, "_heap_kept", False)
    monkeypatch.setattr(quadrature, "ctypes", SimpleNamespace(CDLL=cdll, c_int=ctypes.c_int))
    quadrature._keep_heap()
    assert quadrature._heap_kept


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_central_hessians_reuse_the_heap(stencil_cache):
    # five central Hessian probes in 3-D at resolution 64: once the thresholds are fixed,
    # their block temporaries come from the heap instead of fresh pages (16k faults before)
    import resource

    stencil_cache(quadrature.CACHE_BYTES)
    domain = BoxDomain.unit(3)
    field, probes = quadratic_field(domain), diagonal_probes(domain, 5, 0.35, 0.65)
    config, variant = OperatorConfig(gaussian_kernel(3, 8), 64), HessianVariant(CENTRAL)
    nonlocal_hessian(field, probes, variant, config)  # builds and caches the stencil
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    nonlocal_hessian(field, probes, variant, config)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


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


# -- point batches ---------------------------------------------------------------------------


def batch_points(dim):
    """Six points: four whose reach box stays inside the unit cube, two it clips."""
    x = np.random.default_rng(11).uniform(0.3, 0.7, size=(6, dim))
    x[1, 0] = 0.02
    x[4, -1] = 0.97
    return x


def batch_config(dim, family, resolution=None):
    return OperatorConfig(family_kernel(dim, family), resolution or RESOLUTION[dim])


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


BATCH_FIELDS = {
    "sin": lambda dim: sin_field(BoxDomain.unit(dim)),
    "quadratic": lambda dim: quadratic_field(
        BoxDomain.unit(dim), matrix=np.eye(dim) + 0.3, center=np.full(dim, 0.41),
        linear=np.linspace(-0.7, 0.9, dim)),
    "bump": lambda dim: bump_field(BoxDomain.unit(dim)),
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["gaussian", "bump"])
@pytest.mark.parametrize("name", sorted(BATCH_FIELDS))
class TestPointBatches:
    def test_gradient_rows_equal_one_point_calls(self, dim, family, name):
        field, config, x = BATCH_FIELDS[name](dim), batch_config(dim, family), batch_points(dim)
        batch = nonlocal_gradient(field, x, config)
        assert batch.shape == (6, dim)
        assert same_bits(batch, np.stack([nonlocal_gradient(field, p, config) for p in x]))

    @pytest.mark.parametrize("kind", [CENTRAL, NESTED, GRAD_SMOOTHED, FD_NONLOCAL])
    def test_hessian_rows_equal_one_point_calls(self, dim, family, name, kind):
        field, config, x = BATCH_FIELDS[name](dim), batch_config(dim, family), batch_points(dim)
        if kind == NESTED:
            config = replace(config, resolution=16)
        variant = HessianVariant(kind, m=8, fd_step=1e-3)
        batch = nonlocal_hessian(field, x, variant, config)
        assert batch.shape == (6, dim, dim)
        assert same_bits(batch, np.stack([nonlocal_hessian(field, p, variant, config) for p in x]))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name", ["sin", "diagonal-quadratic"])
def test_fd_nonlocal_hessian_is_one_gradient_call_equal_to_the_axis_loop(monkeypatch, dim, name):
    domain = BoxDomain.unit(dim)
    field = (sin_field(domain) if name == "sin"
             else quadratic_field(domain, matrix=np.diag(np.linspace(0.5, 1.7, dim))))
    config, x, h = batch_config(dim, "gaussian"), batch_points(dim), 1e-3
    expected = np.empty((6, dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        expected[:, :, j] = (nonlocal_gradient(field, x + e, config)
                             - nonlocal_gradient(field, x - e, config)) / (2.0 * h)
    calls = []
    gradient = operators.nonlocal_gradient
    monkeypatch.setattr(operators, "nonlocal_gradient",
                        lambda *args: calls.append(1) or gradient(*args))
    H = nonlocal_hessian(field, x, HessianVariant(FD_NONLOCAL, fd_step=h), config)
    assert len(calls) == 1
    assert same_bits(np.ascontiguousarray(H), expected)


# -- bit identity with row-major field batches ------------------------------------------------


def row_major_contract(groups, points, values, fn, out):
    """The gradient-type operators' block sums with C-order field batches and C-order BLAS
    operands: ``fn(x - h) - fn(x + h)`` over a paired stencil's half, ``values[p] - fn(x + h)``
    over another stencil."""
    D = points.shape[1]
    for stencil, rows in groups:
        for block, (h, *_) in zip(stencil.blocks(), reference_blocks(stencil, quadrature.BLOCK_NODES)):
            n, grad = len(h), np.ascontiguousarray(block.grad)
            for chunk in operators._chunks(rows, n):
                x = points[chunk][:, None]

                def found(op):
                    vals = operators._field_values(fn, op(x, h).reshape(-1, D))
                    return vals.reshape(len(chunk), n, *vals.shape[1:])

                plus = found(np.add)
                base = found(np.subtract) if paired(stencil) else values[chunk]
                for i, u, vals in zip(chunk, base, plus):
                    out[i] += (u - vals).T @ grad
    return out


def row_major_central_hessians(field, points, config, constant_mode):
    """The central Hessians with C-order field batches."""
    P, D = points.shape
    kernel = config.kernel
    box = field.domain if field.support is None else field.support
    inside = np.all(box.contains(points - kernel.reach) & box.contains(points + kernel.reach))
    ext = field if inside else extend_by_zero(field)
    values = operators._values_at(ext, points)
    prefactor = D * (D + 2) / 2.0 if constant_mode == operators.MOMENT_CONSTANT else D * (D + 1) / 2.0
    [(stencil, rows)] = reach_stencils(kernel, points, kernel.reach, None, config.resolution)
    H, trace = np.zeros((P, D, D)), np.zeros(P)
    for h, r2, wrho, _ in reference_blocks(stencil, quadrature.BLOCK_NODES):
        n = len(h)
        weight = 2.0 * prefactor * wrho / (r2 * r2)
        for chunk in operators._chunks(rows, n):
            x = points[chunk][:, None]
            second = (operators._field_values(ext, (x + h).reshape(-1, D)).reshape(-1, n)
                      - 2.0 * values[chunk, None]
                      + operators._field_values(ext, (x - h).reshape(-1, D)).reshape(-1, n))
            for p, c in zip(chunk, weight * second):
                H[p] += (h * c[:, None]).T @ h
                trace[p] += np.sum(c * r2)
    return H - (trace / (D + 2))[:, None, None] * np.eye(D)


def row_major_moments(domain, x, config):
    """Second moments summed over the per-node expansion, whose ``h`` is stacked row by row."""
    kernel = config.kernel
    [(stencil, _)] = reach_stencils(kernel, x[None], kernel.full_radius, domain,
                                    config.resolution)
    c = np.zeros(kernel.dim)
    for h, r2, wrho, _ in reference_blocks(stencil, quadrature.BLOCK_NODES):
        c += [np.sum(wrho * h[:, i] ** 2 / r2) for i in range(kernel.dim)]
    return 2.0 * c if paired(stencil) else c


def row_major_gradient(field, points, config):
    """``nonlocal_gradient`` at a batch of points, from ``row_major_contract``."""
    kernel = config.kernel
    groups = reach_stencils(kernel, points, kernel.reach, field.domain, config.resolution)
    return row_major_contract(groups, points, operators._values_at(field, points), field,
                              np.zeros(points.shape))


def row_major_restricted(field, x, config, subset):
    """``restricted_nonlocal_gradient``: one stencil per subset box the reach box meets."""
    kernel, groups = config.kernel, []
    for lo, hi in subset.pieces():
        clipped = field.domain.clip_box(np.maximum(lo, x - kernel.reach),
                                        np.minimum(hi, x + kernel.reach))
        if clipped is not None:
            stencil = Stencil(kernel, clipped[0] - x, clipped[1] - x, config.resolution)
            groups.append((stencil, np.arange(1)))
    return row_major_contract(groups, x[None], operators._values_at(field, x[None]), field,
                              np.zeros((1, field.dim)))[0]


def row_major_hessian(field, points, variant, config):
    """``nonlocal_hessian`` at a batch of points, every block sum from the references."""
    D = field.dim
    if variant.kind == CENTRAL:
        return row_major_central_hessians(field, points, config, variant.constant_mode)
    if variant.kind == FD_NONLOCAL:
        h = variant.fd_step
        step = h * np.eye(D)[:, None]
        shifted = points + np.stack([step, -step], axis=1)
        g = row_major_gradient(field, shifted.reshape(-1, D), config).reshape(shifted.shape)
        return np.moveaxis((g[:, 0] - g[:, 1]) / (2.0 * h), 0, -1)
    if variant.kind == GRAD_SMOOTHED:
        outer = config.kernel

        def grad_at(pts):
            return operators._classical_gradient(field, pts, variant.fd_step)
    else:
        outer = config.kernel.with_scale_index(variant.m)

        def grad_at(pts):
            return row_major_gradient(field, pts, config)

    groups = reach_stencils(outer, points, outer.reach, field.domain, config.resolution)
    return row_major_contract(groups, points, grad_at(points), grad_at,
                              np.zeros((len(points), D, D)))


# stencil resolution, and the nested Hessian's (it pays the node count twice)
LAYOUT_RESOLUTION = {1: (64, 16), 2: (32, 8), 3: (12, 6), 4: (6, 4)}


def layout_results(field, config, nested_config, gradient=nonlocal_gradient,
                   restricted=restricted_nonlocal_gradient, hessian=nonlocal_hessian):
    """Every operator on ``batch_points``: interior rows alone, and with the two clipped rows.

    With the clipped rows the central Hessian calls the zero extension; the grad-smoothed and
    nested Hessians contract vector-valued callbacks.
    """
    dim, x = field.dim, batch_points(field.dim)
    interior = x[[0, 2, 3, 5]]
    subset = SubsetIndicator.from_boxes([(np.full(dim, 0.2), np.full(dim, 0.45)),
                                         (np.full(dim, 0.5), np.full(dim, 0.6))], dim)
    out = {"gradient": gradient(field, x, config),
           "restricted": restricted(field, x[0], config, subset),
           "restricted-clipped": restricted(field, x[1], config, subset)}
    for kind in (CENTRAL, FD_NONLOCAL, GRAD_SMOOTHED, NESTED):
        variant = HessianVariant(kind, m=8, fd_step=1e-3)
        kind_config = nested_config if kind == NESTED else config
        out[kind] = hessian(field, x, variant, kind_config)
        out[kind + "-interior"] = hessian(field, interior, variant, kind_config)
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ["gaussian", "bump"])
@pytest.mark.parametrize("name", sorted(BATCH_FIELDS))
def test_operators_keep_the_bits_of_row_major_batches(dim, family, name):
    field = BATCH_FIELDS[name](dim)
    resolution, nested_resolution = LAYOUT_RESOLUTION[dim]
    config = batch_config(dim, family, resolution)
    nested_config = replace(config, resolution=nested_resolution)
    results = layout_results(field, config, nested_config)
    reference = layout_results(field, config, nested_config, row_major_gradient,
                               row_major_restricted, row_major_hessian)
    assert results.keys() == reference.keys()
    for key, value in results.items():
        assert same_bits(value, reference[key]), key
    for p in batch_points(dim):
        assert same_bits(directional_second_moments(field.domain, p, config),
                         row_major_moments(field.domain, p, config))


# Newton's points: the reach box inside the bump's support, leaving the domain, and inside
# the domain but leaving the support
NEWTON_POINTS = {"interior": [0.47, 0.52, 0.5], "domain": [0.06, 0.52, 0.5],
                 "support": [0.68, 0.52, 0.5]}


def gradient_and_hessian_passes(field, x, config):
    """Newton's gradient and Hessian at ``x``, checked against the row-major references: from
    ``_point_gradient`` with ``hessian``, or from the two operator calls where it returns
    ``None``; returns how many field passes they made."""
    both = operators._point_gradient(field, x, config, hessian=True)
    g, H = both or (nonlocal_gradient(field, x, config),
                    nonlocal_hessian(field, x, HessianVariant(CENTRAL), config))
    assert same_bits(g, row_major_gradient(field, x[None], config)[0])
    assert same_bits(H, row_major_central_hessians(field, x[None], config,
                                                   operators.MOMENT_CONSTANT)[0])
    assert same_bits(g, nonlocal_gradient(field, x, config))
    assert same_bits(H, nonlocal_hessian(field, x, HessianVariant(CENTRAL), config))
    return 2 if both is None else 1


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("family", ["gaussian", "bump"])
@pytest.mark.parametrize("cap", [quadrature.CACHE_BYTES, 0], ids=["cached", "streamed"])
@pytest.mark.parametrize("name,where", [("sin", "interior"), ("sin", "domain"),
                                        ("bump", "interior"), ("bump", "domain"),
                                        ("bump", "support")])
def test_gradient_and_hessian_keep_the_bits_of_row_major_sums(
        stencil_cache, dim, family, cap, name, where):
    stencil_cache(cap)
    field, config = BATCH_FIELDS[name](dim), batch_config(dim, family)
    x = np.array(NEWTON_POINTS[where][:dim])
    passes = gradient_and_hessian_passes(field, x, config)
    assert passes == (1 if where == "interior" else 2)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("family", ["gaussian", "bump"])
@pytest.mark.parametrize("cap", [quadrature.CACHE_BYTES, 0], ids=["cached", "streamed"])
@pytest.mark.parametrize("name,where", [("sin", "interior"), ("sin", "domain"),
                                        ("bump", "interior"), ("bump", "domain"),
                                        ("bump", "support")])
def test_alternate_central_hessian_keeps_the_bits_of_row_major_sums(
        stencil_cache, dim, family, cap, name, where):
    # Newton shares its pass only in the moment mode; the alternate constant reaches the
    # central Hessian through nonlocal_hessian alone, at the same points
    stencil_cache(cap)
    field, config = BATCH_FIELDS[name](dim), batch_config(dim, family)
    x = np.array(NEWTON_POINTS[where][:dim])
    mode = operators.ALTERNATE_CONSTANT
    H = nonlocal_hessian(field, x, HessianVariant(CENTRAL, constant_mode=mode), config)
    assert same_bits(H, row_major_central_hessians(field, x[None], config, mode)[0])


# (dimension, nodes per block): the lower half of a 2-D stencil of 32**2 nodes in blocks of 4
# axis-0 rows, and of 3 rows, which do not divide its 16; of a 3-D stencil of 12**3 nodes in
# blocks of two axis-0 slabs, and in runs of 6 axis-1 rows, and of 8, which do not divide 12
BLOCK_LAYOUTS = [(2, 128), (2, 96), (3, 288), (3, 72), (3, 100)]


@pytest.mark.parametrize("dim,block_nodes", BLOCK_LAYOUTS)
@pytest.mark.parametrize("cap", [quadrature.CACHE_BYTES, 0], ids=["cached", "streamed"])
def test_gradient_and_hessian_pair_mirror_blocks(monkeypatch, stencil_cache, dim, block_nodes,
                                                 cap):
    monkeypatch.setattr(quadrature, "BLOCK_NODES", block_nodes)
    stencil_cache(cap)
    field, config = sin_field(BoxDomain.unit(dim)), batch_config(dim, "gaussian")
    x = np.array(NEWTON_POINTS["interior"][:dim])
    reach = np.full(dim, config.kernel.reach)
    assert len(list(Stencil(config.kernel, -reach, reach, config.resolution).blocks())) > 2
    assert gradient_and_hessian_passes(field, x, config) == 1


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stencil_field_calls_get_per_axis_columns(dim):
    # column j of a block's call is op(x_j, h_j), shaped (P, 1, ..., n_j, ..., 1)
    layouts = []
    base = sin_field(BoxDomain.unit(dim))

    def recording(*x):
        if np.ndim(x[0]):
            layouts.append([c.shape[:1] + c.shape[1:j + 1] + c.shape[j + 2:] == (c.shape[0],)
                            + (1,) * (dim - 1) for j, c in enumerate(x)])
        return base.fn(*x)

    field = replace(base, fn=recording)
    config = OperatorConfig(gaussian_kernel(dim, 4), LAYOUT_RESOLUTION[dim][0])
    x = batch_points(dim)[[0, 2, 3, 5]]  # interior: the central Hessian calls the field itself
    nonlocal_gradient(field, x, config)
    nonlocal_hessian(field, x, HessianVariant(CENTRAL), config)
    assert len(layouts) >= 3 and all(all(axes) for axes in layouts)


def test_one_point_keeps_its_shape():
    field = sin_field(BoxDomain.unit(2))
    config = OperatorConfig(gaussian_kernel(2, 4), 16)
    assert nonlocal_gradient(field, [0.5, 0.4], config).shape == (2,)
    assert nonlocal_gradient(field, [[0.5, 0.4]], config).shape == (1, 2)
    assert nonlocal_hessian(field, [0.5, 0.4], HessianVariant(CENTRAL), config).shape == (2, 2)
    assert nonlocal_hessian(field, [[0.5, 0.4]], HessianVariant(CENTRAL), config).shape == (1, 2, 2)


def test_batch_with_an_exterior_point_names_it():
    field = sin_field(BoxDomain.unit(1))
    config = OperatorConfig(gaussian_kernel(1, 4), 16)
    with pytest.raises(ValueError, match=r"interior point, got \[1.5\]"):
        nonlocal_gradient(field, [[0.5], [1.5], [0.2]], config)
    # one row on the wall: the domain would clip its box
    with pytest.raises(ValueError, match=r"interior point, got \[1\.\]"):
        nonlocal_gradient(field, [1.0], config)


# u(x + h), then u(x - h), over the 32 nodes of the half stencil, for as many points as fit
# in a block: 2,048
@pytest.mark.parametrize("count,calls", [(50, [50 * 32] * 2),
                                         (2100, [2048 * 32] * 2 + [52 * 32] * 2)])
def test_interior_points_share_field_calls(count, calls):
    seen = []
    base = sin_field(BoxDomain.unit(1))

    def counting(*x):
        seen.append(np.broadcast(*x).size)
        return base.fn(*x)

    field = replace(base, fn=counting)
    x = np.linspace(0.3, 0.7, count)[:, None]
    nonlocal_gradient(field, x, OperatorConfig(gaussian_kernel(1, 4), 64))
    # no u(x): it cancels between the two sides
    assert seen == calls


def test_field_calls_give_their_point_count_by_shape(monkeypatch, tmp_path):
    # the traced benchmark counts the points of each ScalarField.__call__ as
    # np.shape(arg)[:-1]: a block's Columns give (N, D) without building the points
    shapes, built = [], []
    call, dense = ScalarField.__call__, Columns.__array__
    monkeypatch.setattr(ScalarField, "__call__",
                        lambda self, x: shapes.append(np.shape(x)) or call(self, x))
    monkeypatch.setattr(Columns, "__array__",
                        lambda self, *args, **kwargs: built.append(self) or dense(self, *args,
                                                                                  **kwargs))
    box = ["--set", "domain.dim=3", "--set", "domain.lower=[0,0,0]", "--set",
           "domain.upper=[1,1,1]"]
    assert run_cli(["grad-check", "--field", "quadratic", *box, "--set",
                    "quadrature.resolution=32", "--set", "check.probes=3",
                    "--out", str(tmp_path)]) == 0
    # 3 interior probes share the 32^3-node stencil, whose 16,384-node half takes one call
    # at x + h and one at x - h
    assert shapes == [(3 * 32**3 // 2, 3)] * 2 and built == []
    assert sum(math.prod(shape[:-1]) for shape in shapes) == 3 * 32**3


def test_reach_stencils_cover_every_row_once():
    kernel, domain = gaussian_kernel(2, 4), BoxDomain.unit(2)
    x = batch_points(2)
    groups = quadrature.reach_stencils(kernel, x, kernel.reach, domain, 16)
    rows = sorted(int(i) for _, r in groups for i in r)
    assert rows == list(range(6))
    shared, *own = groups
    assert list(shared[1]) == [0, 2, 3, 5] and [list(r) for _, r in own] == [[1], [4]]
    # the clipped stencils stop at the walls the points sit near
    h1 = np.concatenate([b.h for b in own[0][0].offsets()])
    h4 = np.concatenate([b.h for b in own[1][0].offsets()])
    assert np.all(x[1, 0] + h1[:, 0] > 0.0) and np.all(x[4, 1] + h4[:, 1] < 1.0)
    assert h1[:, 0].min() > -kernel.reach / 2 and h4[:, 1].max() < kernel.reach / 2


# -- one point: its own rule, the bits of its batch row ---------------------------------------


def wide_kernel(dim, family):
    """A kernel whose reach box is wider than the unit cube on both sides, as a pulse kernel's."""
    return gaussian_kernel(dim, 1, 0.25) if family == "gaussian" else bump_kernel(dim, 1, 1.5)


def own_blocks(kernel, x, domain, resolution):
    """``quadrature.box_blocks`` over the box ``reach_stencils`` clips for the point ``x``: its
    blocks, as a list, and whether they are paired."""
    x = np.asarray(x, dtype=float)
    lo = np.maximum(x - kernel.reach, domain.lower_array) - x
    hi = np.minimum(x + kernel.reach, domain.upper_array) - x
    blocks, pairs = quadrature.box_blocks(kernel, lo.tolist(), hi.tolist(), resolution)
    return list(blocks), pairs


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["gaussian", "bump"])
def test_one_clipped_row_builds_one_grid_and_keeps_its_batch_bits(monkeypatch, dim, family):
    field, config = sin_field(BoxDomain.unit(dim)), batch_config(dim, family)
    reach = config.kernel.reach
    # interior rows mixed with rows clipped at either wall on the first axis
    x = np.full((7, dim), 0.45)
    x[:, 0] = [0.02, 0.4, 0.97, 0.5, 0.07, 0.93, 0.6]
    clipped = [bool(p[0] - reach < 0.0 or p[0] + reach > 1.0) for p in x]
    assert clipped == [True, False, True, False, True, True, False]
    nonlocal_gradient(field, x[1], config)  # the interior stencil is cached from here on
    builds = []
    build = quadrature.build_panel_grid
    monkeypatch.setattr(quadrature, "build_panel_grid", lambda *a: builds.append(a) or build(*a))
    batch = nonlocal_gradient(field, x, config)
    assert len(builds) == sum(clipped)
    for row, p, own in zip(batch, x, clipped):
        builds.clear()
        assert same_bits(nonlocal_gradient(field, p, config), row)
        assert len(builds) == own  # an interior point builds no grid
    # boxes wider than the domain on both sides: centred, so each axis takes the mirror
    # branch of ``build_panel_grid``, and off centre, as every pulse gradient's box
    wide = OperatorConfig(wide_kernel(dim, family), RESOLUTION[dim])
    for p, lo in ((np.full(dim, 0.5), [-0.5] * dim), (np.r_[0.3137, [0.71] * (dim - 1)], None)):
        builds.clear()
        one = nonlocal_gradient(field, p, wide)
        assert len(builds) == 1 and (lo is None or builds[0][:2] == (lo, [0.5] * dim))
        assert same_bits(one, nonlocal_gradient(field, p[None], wide)[0])


def test_one_clipped_row_sums_its_blocks_in_order():
    # 400**2 nodes: the clipped rule of the first row spans three blocks
    field, config = sin_field(BoxDomain.unit(2)), OperatorConfig(gaussian_kernel(2, 4), 400)
    x = np.array([[0.02, 0.5], [0.5, 0.97]])
    assert len(own_blocks(config.kernel, x[0], field.domain, 400)[0]) == 3
    batch = nonlocal_gradient(field, x, config)
    assert same_bits(np.stack([nonlocal_gradient(field, p, config) for p in x]), batch)


def test_box_blocks_are_the_clipped_stencil_blocks():
    cases = ((gaussian_kernel(2, 4), [0.02, 0.5]), (bump_kernel(2, 2), [0.6, 0.95]),
             (wide_kernel(2, "gaussian"), [0.5, 0.5]), (gaussian_kernel(1, 4), [0.97]),
             (wide_kernel(1, "bump"), [0.3137]), (wide_kernel(1, "gaussian"), [0.5]))
    for kernel, x in cases:
        x, domain = np.array(x), BoxDomain.unit(len(x))
        [(stencil, _)] = reach_stencils(kernel, x[None], kernel.reach, domain, 32)
        blocks, pairs = own_blocks(kernel, x, domain, 32)
        # a box the domain cuts into equal sides (a wide kernel at the centre) is paired
        assert pairs == stencil.paired == (x.tolist() == [0.5] * len(x))
        for b, e in zip(blocks, stencil.blocks(), strict=True):
            assert same_bits(b.grad, e.grad)
            assert all(same_bits(r, s) for rule, ref in zip(b.axes, e.axes, strict=True)
                       for r, s in zip(rule, ref))


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


ONE_POINT_ERRORS = {  # field, kernel, point, the error
    "boundary": (lambda: sin_field(BoxDomain.unit(1)), gaussian_kernel(1, 4), [1.0], ValueError),
    "nan": (lambda: sin_field(BoxDomain.unit(1)), gaussian_kernel(1, 4), [math.nan], ValueError),
    "nan-2d": (lambda: sin_field(BoxDomain.unit(2)), gaussian_kernel(2, 4), [0.5, math.nan],
               ValueError),
    "spacing": (lambda: sin_field(BoxDomain.unit(1)), bump_kernel(1, 1, 1e-300), [0.5],
                CoincidentPointsError),
    "spacing-clipped": (lambda: sin_field(BoxDomain.unit(2)), bump_kernel(2, 1, 1e-20),
                        [1e-21, 0.5], CoincidentPointsError),
    "node": (lambda: _nan_beyond(0.55), gaussian_kernel(1, 8), [0.5], NonFiniteFieldError),
    "node-clipped": (lambda: _nan_beyond(0.55), gaussian_kernel(1, 1), [0.5],
                     NonFiniteFieldError),
    "value": (lambda: _nan_beyond(0.55), gaussian_kernel(1, 1), [0.6], NonFiniteFieldError),
    "kernel-dim": (lambda: sin_field(BoxDomain.unit(1)), gaussian_kernel(2, 4), [0.5],
                   DimensionMismatchError),
}


@pytest.mark.parametrize("case", sorted(ONE_POINT_ERRORS))
def test_one_point_raises_as_its_batch_row(case):
    make_field, kernel, x, error = ONE_POINT_ERRORS[case]
    field, config = make_field(), OperatorConfig(kernel, 64)
    one = _raised(lambda: nonlocal_gradient(field, x, config))
    assert one[0] is error and one == _raised(lambda: nonlocal_gradient(field, [x], config))


# -- non-finite field values ----------------------------------------------------------------


def _nan_beyond(threshold):
    def fn(x):
        return np.where(x > threshold, np.nan, x * x)

    return ScalarField(fn, BoxDomain.unit(1), name="nan-right")


@pytest.mark.parametrize("kind", [CENTRAL, GRAD_SMOOTHED, FD_NONLOCAL, NESTED])
def test_hessians_raise_on_non_finite_field(kind):
    field = _nan_beyond(0.55)
    config = OperatorConfig(gaussian_kernel(1, 8), 64)
    with pytest.raises(ValueError, match="not finite at quadrature node"):
        nonlocal_hessian(field, [0.5], HessianVariant(kind, m=8), config)


def test_newton_one_point_pass_raises_on_non_finite_field():
    # 0.5's reach box (0.075 each way) lies inside the domain, so the gradient and the Hessian
    # read the NaN past 0.55 in one pass; the typed error is a ValueError too
    config = OperatorConfig(gaussian_kernel(1, 8), 64)
    with pytest.raises(NonFiniteFieldError, match="not finite at quadrature node"):
        nonlocal_newton(_nan_beyond(0.55), [0.5], config)
    assert issubclass(NonFiniteFieldError, ValueError)


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
        directional_second_moments(BoxDomain.unit(1), [0.5], config)
    # one row whose box the domain clips on its first axis, with the reach below the spacing
    # on its second
    tiny = OperatorConfig(bump_kernel(2, 1, base_scale=1e-20), 64)
    with pytest.raises(CoincidentPointsError, match="float spacing"):
        nonlocal_gradient(sin_field(BoxDomain.unit(2)), [1e-21, 0.5], tiny)


def test_gradient_raises_on_non_finite_field():
    config = OperatorConfig(gaussian_kernel(1, 8), 64)
    with pytest.raises(ValueError, match="not finite at quadrature node"):
        nonlocal_gradient(_nan_beyond(0.55), [0.5], config)
    # one row whose box the domain clips: a node past 0.55, then its own value
    wide = OperatorConfig(gaussian_kernel(1, 1), 64)
    with pytest.raises(ValueError, match="not finite at quadrature node"):
        nonlocal_gradient(_nan_beyond(0.55), [0.5], wide)
    with pytest.raises(ValueError, match=r"field value is not finite at \[0.6\]"):
        nonlocal_gradient(_nan_beyond(0.55), [0.6], wide)
