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
    lo = np.asarray(lo, dtype=float).ravel().tolist()
    hi = np.asarray(hi, dtype=float).ravel().tolist()
    split = [None] * len(lo) if split is None else np.asarray(split, dtype=float).ravel().tolist()
    m = max(2, resolution // 2)
    splits = [s if s is not None and a < s < b else None for a, b, s in zip(lo, hi, split)]
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
    so every quotient by ``r2`` stays finite.  ``h`` and ``grad`` are C-ordered:
    the contractions pass them to BLAS, whose rounding depends on the layout.
    """

    h: np.ndarray
    r2: np.ndarray
    wrho: np.ndarray
    grad: np.ndarray

    def head(self, n: int) -> "StencilBlock":
        return StencilBlock(self.h[:n], self.r2[:n], self.wrho[:n], self.grad[:n])


def _expand(axes, kernel, start: int, stop: int) -> StencilBlock:
    """Nodes ``start`` to ``stop`` of the C-order product of the per-axis rules ``axes``."""
    if len(axes) == 1:
        # one axis: the block is a slice of its rule (``1.0 * w`` and a
        # one-term sum of squares are exact, so the bits are the gather's)
        x, w = axes[0]
        x, w = x[start:stop], w[start:stop]
        h = x[:, None]
        r2 = x * x
    else:
        # broadcast the leading-axis slabs the block touches, then slice it out; sums and
        # products run axis by axis as a per-node gather's: ((x0^2 + x1^2) + x2^2), ((w0*w1)*w2)
        shape = tuple(x.size for x, _ in axes)
        D = len(shape)
        slab = math.prod(shape[1:])
        first, last = start // slab, -(-stop // slab)
        xs = np.ix_(axes[0][0][first:last], *(x for x, _ in axes[1:]))
        ws = np.ix_(axes[0][1][first:last], *(w for _, w in axes[1:]))
        h = np.empty((last - first,) + shape[1:] + (D,))
        for j, x in enumerate(xs):  # column by column, each a loop over the slabs
            h[..., j] = x
        r2, w = xs[0] * xs[0], ws[0]
        for x, wx in zip(xs[1:], ws[1:]):
            r2, w = r2 + x * x, w * wx
        part = slice(start - first * slab, stop - first * slab)
        h, r2, w = h.reshape(-1, D)[part], r2.reshape(-1)[part], w.reshape(-1)[part]
        if stop - start < (last - first) * slab:  # a cached block keeps only its own nodes
            h, r2 = h.copy(), r2.copy()
    wrho = w * kernel.radial_density(np.sqrt(r2))
    if np.count_nonzero(r2) < r2.size:
        excluded = r2 == 0
        wrho[excluded] = 0.0
        r2[excluded] = 1.0
    grad = -h  # scaled in place: no second (n, D) temporary
    grad *= (kernel.dim * wrho / r2)[:, None]
    return StencilBlock(h, r2, wrho, grad)


class Stencil:
    """Tensor-product offset rule over the box ``[lo, hi]`` around a point.

    Offsets come from ``build_panel_grid`` split at 0, exactly as operators
    split their grids at the evaluation point.  ``kernel`` supplies ``dim``
    and ``radial_density``.  ``blocks`` expands the product in C order in runs
    of at most ``BLOCK_NODES`` nodes, on demand unless ``materialize`` has
    stored them.
    """

    def __init__(self, kernel, lo, hi, resolution: int, scheme: str = GAUSS):
        grid = build_panel_grid(lo, hi, np.zeros(np.size(lo)), resolution, scheme)
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
        self._blocks = tuple(self.blocks())

    def blocks(self, stop: Optional[int] = None) -> Iterator[StencilBlock]:
        """Blocks covering the first ``stop`` nodes (all by default)."""
        stop = self.size if stop is None else stop
        for start in range(0, stop, BLOCK_NODES):
            end = min(start + BLOCK_NODES, stop)
            if self._blocks is None:
                yield _expand(self.axes, self.kernel, start, end)
                continue
            block = self._blocks[start // BLOCK_NODES]
            yield block if block.r2.size == end - start else block.head(end - start)


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


def reach_stencils(kernel, points: np.ndarray, radius: float, domain: Optional[BoxDomain],
                   resolution: int, scheme: str = GAUSS) -> list[tuple[Stencil, np.ndarray]]:
    """Stencils over the boxes of half-width ``radius`` around the rows of ``points``.

    Returns ``(stencil, rows)`` pairs that cover every row once.  Each box is
    clipped to ``domain`` (never, for ``None``), which must hold the points.
    The rows whose box needs no clipping share one stencil from ``STENCILS``;
    each other row gets a clipped stencil of its own, from one
    ``build_panel_grid`` call (``clipped_blocks`` builds that rule for a
    single point without the stencil).  A ``radius`` below the float spacing
    at a point raises ``CoincidentPointsError``: every node would coincide
    with it.
    """
    lo, hi = points - radius, points + radius
    spaced = (lo < points) & (points < hi)
    if not np.logical_and.reduce(spaced, axis=None):
        bad = points[np.argmin(np.logical_and.reduce(spaced, axis=1))]
        raise CoincidentPointsError(f"kernel reach {radius} is below the float spacing at {bad}")
    if domain is None:
        return [(STENCILS.get(kernel, radius, resolution, scheme), np.arange(len(points)))]
    clipped = np.logical_or.reduce((lo < domain.lower_array) | (hi > domain.upper_array), axis=1)
    box_lo = np.maximum(lo, domain.lower_array) - points
    box_hi = np.minimum(hi, domain.upper_array) - points
    own = np.flatnonzero(clipped)
    out = [] if own.size == len(points) else [
        (STENCILS.get(kernel, radius, resolution, scheme), np.flatnonzero(~clipped))]
    for k, i in enumerate(own.tolist()):
        out.append((Stencil(kernel, box_lo[i], box_hi[i], resolution, scheme), own[k:k + 1]))
    return out


def clipped_blocks(kernel, x: np.ndarray, radius: float, domain: BoxDomain, resolution: int,
                   scheme: str = GAUSS) -> Optional[Iterator[StencilBlock]]:
    """The blocks of one point's rule if ``domain`` clips its reach box, else ``None``.

    ``x`` is one point ``(D,)`` of ``domain``.  The rule is the clipped stencil
    ``reach_stencils`` gives the row, after the same spacing check: one
    ``build_panel_grid`` call over the clipped box, split at 0, expanded block
    by block.  The box is worked out in Python floats, which for one row cost
    less than ``(1, D)`` array arithmetic.  ``None`` means the point shares the
    cached stencil.
    """
    box_lo, box_hi, clipped = [], [], False
    for v, a, b in zip(x.tolist(), domain.lower, domain.upper):
        lo, hi = v - radius, v + radius
        if not lo < v < hi:
            raise CoincidentPointsError(f"kernel reach {radius} is below the float spacing at {x}")
        clipped = clipped or lo < a or hi > b
        box_lo.append(max(lo, a) - v)
        box_hi.append(min(hi, b) - v)
    if not clipped:
        return None
    axes = build_panel_grid(box_lo, box_hi, [0.0] * len(box_lo), resolution, scheme).axes
    size = math.prod(w.size for _, w in axes)
    return (_expand(axes, kernel, start, min(start + BLOCK_NODES, size))
            for start in range(0, size, BLOCK_NODES))
