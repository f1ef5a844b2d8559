"""Deterministic tensor-product quadrature over boxes, and
the offset stencils every kernel operator contracts against.

Grids are tensor products of 1-D Gauss-Legendre or midpoint rules, kept as
their per-axis rules; the flat node list is built only when asked for.

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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Optional

import numpy as np

from .errors import CoincidentPointsError, NodeBudgetError
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
    built on first use.
    """

    axes: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(x.size for x, _ in self.axes)

    def __len__(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*[x for x, _ in self.axes], indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    @cached_property
    def weights(self) -> np.ndarray:
        weights = np.ones(1)
        for _, w in self.axes:
            weights = np.multiply.outer(weights, w).reshape(-1)
        return weights


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
    return QuadratureGrid(tuple(axes))


# -- offset stencils ------------------------------------------------------------


@dataclass(frozen=True)
class StencilBlock:
    """Consecutive stencil nodes and their kernel weights.

    ``h`` (n, D) are offsets from the evaluation point, ``r2 = |h|^2``,
    ``wrho = w * rho(|h|)`` and ``grad = D * wrho / r2 * (-h)``.  Where
    ``|h|^2`` underflows to 0, ``wrho`` and ``grad`` are zero and ``r2`` is 1,
    so every quotient by ``r2`` stays finite.
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
    and ``radial_density``.  ``blocks`` expands the product in C order in runs
    of at most ``BLOCK_NODES`` nodes, on demand unless ``materialize`` has
    stored them.
    """

    def __init__(self, kernel, lo, hi, resolution: int, scheme: str = GAUSS):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        grid = build_panel_grid(lo, hi, np.zeros(lo.size), resolution, scheme)
        self.axes = grid.axes
        self.shape = grid.shape
        self.size = len(grid)
        self.kernel = kernel
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
        excluded = r2 == 0
        wrho = w * self.kernel.radial_density(np.sqrt(r2))
        wrho[excluded] = 0.0
        r2[excluded] = 1.0
        grad = (self.kernel.dim * wrho / r2)[:, None] * -h
        return StencilBlock(h, r2, wrho, grad)


class StencilCache:
    """Full-box stencils, least recently used evicted beyond ``cap`` bytes.

    Keyed on ``(kernel, radius, resolution, scheme)``.  A stencil
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

    def get(self, kernel, radius: float, resolution: int, scheme: str = GAUSS) -> Stencil:
        key = (kernel, radius, resolution, scheme)
        with self._lock:
            stencil = self._entries.get(key)
            if stencil is not None:
                self._entries.move_to_end(key)
                return stencil
        reach = np.full(kernel.dim, float(radius))
        stencil = Stencil(kernel, -reach, reach, resolution, scheme)
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
                  resolution: int, scheme: str = GAUSS) -> Stencil:
    """Stencil over the box of half-width ``radius`` around ``x``.

    The box is clipped to ``domain`` (never, for ``None``), which must hold
    ``x``.  An unclipped box comes from ``STENCILS``; a clipped one is built
    for this call.  A ``radius`` below the float spacing at ``x`` raises
    ``CoincidentPointsError``: every node would coincide with ``x``.
    """
    lo, hi = x - radius, x + radius
    if not np.all((lo < x) & (x < hi)):
        raise CoincidentPointsError(f"kernel reach {radius} is below the float spacing at {x}")
    if domain is not None:
        clipped = domain.clip_box(lo, hi)
        if not (np.array_equal(clipped[0], lo) and np.array_equal(clipped[1], hi)):
            return Stencil(kernel, clipped[0] - x, clipped[1] - x, resolution, scheme)
    return STENCILS.get(kernel, radius, resolution, scheme)
