"""Deterministic tensor-product quadrature over boxes and clipped balls, and
the offset stencils every kernel operator contracts against.

Grids are tensor products of 1-D Gauss-Legendre or midpoint rules, kept as
their per-axis rules; the flat node list is built only when asked for.
``pv_integrate`` adds principal-value exclusion around a marked point, either
by dropping nodes inside a fixed radius or by Richardson-extrapolating a
shrinking sequence of exclusion radii.

A ``Stencil`` is such a grid of offsets ``h`` around an evaluation point,
expanded in blocks of ``BLOCK_NODES`` nodes together with its kernel
weights.  The full-box stencil of a kernel is the same at every point whose
reach box lies inside the domain, so ``StencilCache`` keeps it, within a byte
cap.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import NodeBudgetError, NonFiniteIntegrandError, PvDivergenceError
from .fields import BoxDomain

NODE_BUDGET = 10_000_000

# Nodes per stencil block: bounds the memory of one field call and of the
# temporaries of one contraction step.
BLOCK_NODES = 65_536

# Total bytes of cached stencil blocks.  A 3-D stencil of 2**19 nodes fits;
# larger ones are streamed block by block.
CACHE_BYTES = 32 * 2**20

GAUSS = "gauss"
MIDPOINT = "midpoint"


def _check_budget(count: int) -> None:
    if count > NODE_BUDGET:
        raise NodeBudgetError(f"grid would need {count} nodes, budget is {NODE_BUDGET}")


@lru_cache(maxsize=64)
def _leggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(m)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def rule_1d(a: float, b: float, m: int, scheme: str = GAUSS) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating over ``[a, b]`` with ``m`` nodes.

    A Gauss rule is computed from an ``m x m`` companion matrix, so ``m*m``
    must stay within ``NODE_BUDGET``.
    """
    if m < 1:
        raise ValueError("need at least one node")
    if scheme == GAUSS:
        if m * m > NODE_BUDGET:
            raise NodeBudgetError(
                f"a {m}-node Gauss rule needs a {m}x{m} matrix, budget is {NODE_BUDGET} entries"
            )
        x, w = _leggauss(m)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return mid + half * x, half * w
    if scheme == MIDPOINT:
        h = (b - a) / m
        return a + h * (np.arange(m) + 0.5), np.full(m, h)
    raise ValueError(f"unknown quadrature scheme {scheme!r}")


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor product of 1-D rules, one ``(nodes, weights)`` pair per axis.

    ``nodes`` (N, D) and ``weights`` (N,) list the product in C order and are
    built on first use; ``keep`` selects a subset of that list.
    """

    axes: tuple[tuple[np.ndarray, np.ndarray], ...]
    scheme: str
    resolution: int
    keep: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(x.size for x, _ in self.axes)

    def __len__(self) -> int:
        if self.keep is not None:
            return int(np.count_nonzero(self.keep))
        return math.prod(self.shape)

    @cached_property
    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*[x for x, _ in self.axes], indexing="ij")
        nodes = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        return nodes if self.keep is None else nodes[self.keep]

    @cached_property
    def weights(self) -> np.ndarray:
        weights = np.ones(1)
        for _, w in self.axes:
            weights = np.multiply.outer(weights, w).reshape(-1)
        return weights if self.keep is None else weights[self.keep]

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    def min_spacing(self) -> float:
        """Smallest gap between distinct per-axis coordinates."""
        gaps = []
        for j in range(self.dim):
            c = np.unique(self.nodes[:, j])
            if c.size > 1:
                gaps.append(np.min(np.diff(c)))
        return float(min(gaps)) if gaps else 0.0


@dataclass(frozen=True)
class PvPolicy:
    """Principal-value exclusion around the evaluation point.

    ``drop`` removes nodes within ``epsilon`` of the point (``epsilon = 0``
    removes exact coincidences only).  ``limit`` evaluates the drop rule at
    ``epsilon``, ``epsilon/2`` and ``epsilon/4`` and extrapolates.
    """

    epsilon: float = 0.0
    mode: str = "drop"

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("exclusion radius must be nonnegative")
        if self.mode not in ("drop", "limit"):
            raise ValueError(f"unknown pv mode {self.mode!r}")


def build_box_grid(domain: BoxDomain, resolution: int, scheme: str = GAUSS) -> QuadratureGrid:
    """Tensor-product grid with ``resolution`` nodes per axis."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    _check_budget(resolution**domain.dim)
    axes = [rule_1d(a, b, resolution, scheme) for a, b in zip(domain.lower, domain.upper)]
    return QuadratureGrid(tuple(axes), scheme, resolution)


def build_panel_grid(
    lo, hi, split: Optional[np.ndarray], resolution: int, scheme: str = GAUSS
) -> QuadratureGrid:
    """Box grid whose per-axis rules are split at an interior point.

    Splitting keeps quadrature nodes away from the marked point and improves
    accuracy for integrands with mild singularities there.  Each side gets
    ``resolution // 2`` nodes (at least 2); two sides of equal length are
    mirror images, so a box centred on a split at 0 has nodes ``h`` with
    ``h[::-1] == -h`` exactly.  The node count is checked before any rule is
    built.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    m = max(2, resolution // 2)
    splits = []
    for j, (a, b) in enumerate(zip(lo, hi)):
        s = None if split is None else float(split[j])
        splits.append(s if s is not None and a < s < b else None)
    _check_budget(math.prod(resolution if s is None else 2 * m for s in splits))
    axes = []
    for a, b, s in zip(lo, hi, splits):
        if s is None:
            axes.append(rule_1d(a, b, resolution, scheme))
            continue
        xl, wl = rule_1d(a, s, m, scheme)
        if s - a == b - s:
            xr, wr = 2.0 * s - xl[::-1], wl[::-1]
        else:
            xr, wr = rule_1d(s, b, m, scheme)
        axes.append((np.concatenate([xl, xr]), np.concatenate([wl, wr])))
    return QuadratureGrid(tuple(axes), scheme, resolution)


def build_ball_grid(
    center, radius: float, domain: BoxDomain, resolution: int, scheme: str = GAUSS
) -> QuadratureGrid:
    """Grid covering the radius-ball around ``center``, clipped to the domain.

    Nodes of a bounding-box tensor grid are masked by the ball indicator;
    the total weight tracks the clipped ball volume at low order only.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    clipped = domain.clip_box(center - radius, center + radius)
    if clipped is None:
        raise ValueError("ball does not intersect the domain")
    lo, hi = clipped
    grid = build_panel_grid(lo, hi, center, resolution, scheme)
    keep = np.linalg.norm(grid.nodes - center, axis=1) < radius
    return replace(grid, keep=keep)


# -- offset stencils ------------------------------------------------------------


@dataclass(frozen=True)
class StencilBlock:
    """Consecutive stencil nodes and their kernel weights.

    ``h`` (n, D) are offsets from the evaluation point, ``r2 = |h|^2``,
    ``wrho = w * rho(|h|)`` and ``grad = D * wrho / r2 * (-h)``.  Inside the
    exclusion radius ``wrho`` and ``grad`` are zero and ``r2`` is 1, so every
    quotient by ``r2`` stays finite.
    """

    h: np.ndarray
    r2: np.ndarray
    wrho: np.ndarray
    grad: np.ndarray

    def head(self, n: int) -> "StencilBlock":
        return StencilBlock(self.h[:n], self.r2[:n], self.wrho[:n], self.grad[:n])


class Stencil:
    """Tensor-product offset rule over the box ``[lo, hi]`` around a point.

    Offsets come from ``build_panel_grid`` split at 0, exactly as operators
    split their grids at the evaluation point.  ``kernel`` supplies ``dim``
    and ``radial_density``; nodes within ``pv_epsilon`` of the point (or at
    it) carry zero weight.  ``blocks`` expands the product in C order in runs
    of at most ``BLOCK_NODES`` nodes, on demand unless ``materialize`` has
    stored them.
    """

    def __init__(self, kernel, lo, hi, resolution: int, scheme: str = GAUSS,
                 pv_epsilon: float = 0.0):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        grid = build_panel_grid(lo, hi, np.zeros(lo.size), resolution, scheme)
        self.axes = grid.axes
        self.shape = grid.shape
        self.size = len(grid)
        self.kernel = kernel
        self.pv_epsilon = pv_epsilon
        self._blocks: Optional[tuple[StencilBlock, ...]] = None

    def __len__(self) -> int:
        return self.size

    @property
    def nbytes(self) -> int:
        """Bytes of the expanded blocks: ``h``, ``r2``, ``wrho`` and ``grad``."""
        return self.size * (2 * len(self.shape) + 2) * 8

    def materialize(self) -> None:
        self._blocks = tuple(self._expand(start, min(start + BLOCK_NODES, self.size))
                             for start in range(0, self.size, BLOCK_NODES))

    def blocks(self, stop: Optional[int] = None) -> Iterator[StencilBlock]:
        """Blocks covering the first ``stop`` nodes (all by default)."""
        stop = self.size if stop is None else stop
        for start in range(0, stop, BLOCK_NODES):
            end = min(start + BLOCK_NODES, stop)
            if self._blocks is None:
                yield self._expand(start, end)
                continue
            block = self._blocks[start // BLOCK_NODES]
            yield block if block.r2.size == end - start else block.head(end - start)

    def _expand(self, start: int, stop: int) -> StencilBlock:
        index = np.unravel_index(np.arange(start, stop), self.shape)
        h = np.empty((stop - start, len(self.shape)))
        w = np.ones(1)
        for j, ((x, wx), i) in enumerate(zip(self.axes, index)):
            h[:, j] = x[i]
            w = w * wx[i]
        r2 = np.sum(h * h, axis=1)
        eps = self.pv_epsilon
        excluded = r2 <= eps * eps if eps > 0 else r2 == 0
        wrho = w * self.kernel.radial_density(np.sqrt(r2))
        wrho[excluded] = 0.0
        r2[excluded] = 1.0
        grad = (self.kernel.dim * wrho / r2)[:, None] * -h
        return StencilBlock(h, r2, wrho, grad)


class StencilCache:
    """Full-box stencils, least recently used evicted beyond ``cap`` bytes.

    Keyed on ``(kernel, radius, resolution, scheme, pv_epsilon)``.  A stencil
    larger than the cap is returned unexpanded and not kept.  Safe to share
    between threads.
    """

    def __init__(self, cap: int = CACHE_BYTES):
        self.cap = cap
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, kernel, radius: float, resolution: int, scheme: str = GAUSS,
            pv_epsilon: float = 0.0) -> Stencil:
        key = (kernel, radius, resolution, scheme, pv_epsilon)
        with self._lock:
            stencil = self._entries.get(key)
            if stencil is not None:
                self._entries.move_to_end(key)
                return stencil
        reach = np.full(kernel.dim, float(radius))
        stencil = Stencil(kernel, -reach, reach, resolution, scheme, pv_epsilon)
        if stencil.nbytes > self.cap:
            return stencil
        stencil.materialize()
        with self._lock:
            if key not in self._entries:
                self._entries[key] = stencil
                self.nbytes += stencil.nbytes
                while self.nbytes > self.cap:
                    _, evicted = self._entries.popitem(last=False)
                    self.nbytes -= evicted.nbytes
        return stencil


STENCILS = StencilCache()


def reach_stencil(kernel, x: np.ndarray, radius: float, domain: Optional[BoxDomain],
                  resolution: int, scheme: str = GAUSS,
                  pv_epsilon: float = 0.0) -> Optional[Stencil]:
    """Stencil over the box of half-width ``radius`` around ``x``.

    The box is clipped to ``domain`` (never, for ``None``); ``None`` is
    returned when nothing is left.  An unclipped box comes from ``STENCILS``;
    a clipped one is built for this call.
    """
    lo, hi = x - radius, x + radius
    if domain is not None:
        clipped = domain.clip_box(lo, hi)
        if clipped is None:
            return None
        if not (np.array_equal(clipped[0], lo) and np.array_equal(clipped[1], hi)):
            return Stencil(kernel, clipped[0] - x, clipped[1] - x, resolution, scheme,
                           pv_epsilon)
    return STENCILS.get(kernel, radius, resolution, scheme, pv_epsilon)


def _evaluate(integrand: Callable, nodes: np.ndarray) -> np.ndarray:
    values = np.asarray(integrand(nodes), dtype=float)
    if values.shape != (nodes.shape[0],):
        raise ValueError(
            f"integrand returned shape {values.shape}, expected ({nodes.shape[0]},)"
        )
    bad = ~np.isfinite(values)
    if np.any(bad):
        where = nodes[np.argmax(bad)]
        raise NonFiniteIntegrandError(
            f"integrand is not finite at node {where}", node=where
        )
    return values


def integrate(grid: QuadratureGrid, integrand: Callable) -> float:
    """Weighted sum of the integrand over the grid nodes.

    Reduction uses numpy's pairwise summation, which is deterministic
    run-to-run for a fixed grid.
    """
    values = _evaluate(integrand, grid.nodes)
    return float(np.sum(grid.weights * values))


def pv_integrate(grid: QuadratureGrid, x, policy: PvPolicy, integrand: Callable) -> float:
    """Principal-value integral with exclusion around ``x``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dist = np.linalg.norm(grid.nodes - x, axis=1)

    def at_radius(eps: float) -> float:
        keep = dist > eps
        if not np.any(keep):
            return 0.0
        values = _evaluate(integrand, grid.nodes[keep])
        return float(np.sum(grid.weights[keep] * values))

    if policy.mode == "drop":
        return at_radius(policy.epsilon)

    eps0 = policy.epsilon if policy.epsilon > 0 else 0.5 * grid.min_spacing()
    levels = [at_radius(eps0), at_radius(eps0 / 2), at_radius(eps0 / 4)]
    d1 = levels[1] - levels[0]
    d2 = levels[2] - levels[1]
    scale = 1.0 + max(abs(v) for v in levels)
    tiny = 1e-14 * scale
    if abs(d2) > abs(d1) and abs(d2) > 1e3 * tiny:
        raise PvDivergenceError(
            f"pv levels diverge: changes {d1:.3e} -> {d2:.3e} at radius {eps0:.3e}"
        )
    if abs(d1) <= tiny or abs(d2) <= tiny:
        return levels[2]
    r = d2 / d1
    if abs(r) < 1.0:
        return levels[2] + d2 * r / (1.0 - r)
    return levels[2]
