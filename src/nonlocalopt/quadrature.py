"""Deterministic tensor-product quadrature over boxes, and
the offset stencils every kernel operator contracts against.

Grids are tensor products of 1-D Gauss-Legendre rules, kept as their per-axis
rules; the flat node list is built only when asked for.

A ``Stencil`` is such a grid of offsets ``h`` around an evaluation point,
expanded in blocks of ``BLOCK_NODES`` nodes together with its kernel
weights.  The full-box stencil of a kernel is the same at every point whose
reach box lies inside the domain, so ``StencilCache`` keeps it, within a byte
cap.  Where axes 1.. of a stencil are mirror images about 0 (every full box),
a block computes ``|h|^2`` and its weights on the upper orthant of those axes
only and mirrors them, bit for bit: ``1/2^(D-1)`` of the density calls.

Allocator policy: the first block whose ``(n, D)`` arrays reach glibc's
default mmap threshold (128 KiB) fixes the process's mmap threshold at 32 MiB
and its trim threshold at 64 MiB, once, through ``mallopt``; without glibc's
``mallopt`` nothing happens.  Under the dynamic thresholds each freed block
temporary went back to the kernel and was faulted in again by the next block:
about 25,400 minor faults per in-process pass of the benchmark's 2-D and 3-D
operator checks, against under 10 with the thresholds fixed.  A process may
then keep up to 64 MiB of freed heap.  1-D and SGD runs never reach that size.
"""

from __future__ import annotations

import ctypes
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

# glibc's default mmap threshold, 128 KiB, in float64 entries: the first block whose
# (n, D) arrays reach it fixes the process's allocator thresholds (``_keep_heap``)
_LARGE_BLOCK = 16_384
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, from glibc's malloc.h
_heap_kept = False
_heap_lock = threading.Lock()


def _check_budget(count: int) -> None:
    if count > NODE_BUDGET:
        raise NodeBudgetError(f"grid would need {count} nodes, budget is {NODE_BUDGET}")


@lru_cache(maxsize=64)
def _leggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(m)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def rule_1d(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights integrating over ``[a, b]`` with ``m`` nodes.

    The rule is computed from an ``m x m`` companion matrix, so ``m*m`` must
    stay within ``NODE_BUDGET``.
    """
    if m < 1:
        raise ValueError("need at least one node")
    if m * m > NODE_BUDGET:
        raise NodeBudgetError(
            f"a {m}-node Gauss rule needs a {m}x{m} matrix, budget is {NODE_BUDGET} entries"
        )
    x, w = _leggauss(m)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


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


def build_panel_grid(lo, hi, split: Optional[np.ndarray], resolution: int) -> QuadratureGrid:
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
            axes.append(rule_1d(a, b, resolution))
            continue
        xl, wl = rule_1d(a, s, m)
        if s - a == b - s:
            xr, wr = 2.0 * s - xl[::-1], wl[::-1]
        else:
            xr, wr = rule_1d(s, b, m)
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


def _keep_heap() -> None:
    """Fixes glibc's mmap and trim thresholds, once per process; elsewhere does nothing.

    By default glibc gives each freed temporary of a few hundred KiB back to the kernel,
    and the next block faults its pages in again; with both thresholds fixed the blocks'
    temporaries reuse the heap, which may then keep up to 64 MiB that is free.
    """
    global _heap_kept
    with _heap_lock:
        if _heap_kept:
            return
        _heap_kept = True
    try:  # no C library to open (TypeError on Windows), or no ``mallopt`` in it
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)  # returns 0 on failure, which changes nothing
    mallopt(_M_TRIM_THRESHOLD, 64 * 2**20)


def _mirrored(axes) -> bool:
    """Whether axes 1.. are even-sized rules mirrored at 0: ``x[::-1] == -x``, ``w[::-1] == w``."""
    return len(axes) > 1 and all(
        x.size % 2 == 0 and np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)
        for x, w in axes[1:])


def _weights(kernel, r2: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``wrho = w * rho(|h|)`` and the gradient scale ``D * wrho / r2``.

    Where ``r2`` underflowed to 0, ``wrho`` is set to 0 and ``r2`` (in place) to 1.
    """
    wrho = w * kernel.radial_density(np.sqrt(r2))
    if np.count_nonzero(r2) < r2.size:
        excluded = r2 == 0
        wrho[excluded] = 0.0
        r2[excluded] = 1.0
    return wrho, kernel.dim * wrho / r2


def _unfold(upper: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Slabs ``(L,) + shape[1:]`` whose upper orthant of axes 1.. is ``upper``.

    Every other orthant is ``upper`` reversed along the axes on which it lies below 0,
    copied axis by axis from the last, while the copied region is smallest.
    """
    out = np.empty((len(upper),) + shape[1:])
    index = [slice(None)] + [slice(m // 2, None) for m in shape[1:]]
    out[tuple(index)] = upper
    for k in range(len(shape) - 1, 0, -1):
        lower = index.copy()
        lower[k] = slice(None, shape[k] // 2)
        out[tuple(lower)] = np.flip(out[tuple(index)], axis=k)
        index[k] = slice(None)
    return out


def _expand(axes, kernel, start: int, stop: int, mirrored: bool = False) -> StencilBlock:
    """Nodes ``start`` to ``stop`` of the C-order product of the per-axis rules ``axes``.

    ``mirrored`` says that ``_mirrored(axes)`` holds.  Then ``r2``, the weights and the
    gradient scale are computed on the upper orthant of axes 1.. only and mirrored into
    the rest (``_unfold``): a node and its mirror image share their bits there.
    """
    D = len(axes)
    if (stop - start) * D >= _LARGE_BLOCK:
        _keep_heap()
    if D == 1:
        # one axis: the block is a slice of its rule (``1.0 * w`` and a
        # one-term sum of squares are exact, so the bits are the gather's)
        x, w = axes[0]
        x, w = x[start:stop], w[start:stop]
        h = x[:, None]
        r2 = x * x
        wrho, scale = _weights(kernel, r2, w)
        return StencilBlock(h, r2, wrho, _scaled(h, scale))
    # broadcast the leading-axis slabs the block touches, then slice it out; sums and
    # products run axis by axis as a per-node gather's: ((x0^2 + x1^2) + x2^2), ((w0*w1)*w2)
    shape = tuple(x.size for x, _ in axes)
    slab = math.prod(shape[1:])
    first, last = start // slab, -(-stop // slab)
    part = slice(start - first * slab, stop - first * slab)
    cut = [m // 2 if mirrored else 0 for m in shape[1:]]
    xs = np.ix_(axes[0][0][first:last], *(x[c:] for (x, _), c in zip(axes[1:], cut)))
    ws = np.ix_(axes[0][1][first:last], *(w[c:] for (_, w), c in zip(axes[1:], cut)))
    r2, w = xs[0] * xs[0], ws[0]
    for x, wx in zip(xs[1:], ws[1:]):
        r2, w = r2 + x * x, w * wx
    whole = np.ix_(axes[0][0][first:last], *(x for x, _ in axes[1:]))
    h = np.empty((last - first,) + shape[1:] + (D,))
    for j, x in enumerate(whole):  # column by column, each a loop over the slabs
        h[..., j] = x
    h = h.reshape(-1, D)[part]
    partial = stop - start < (last - first) * slab  # a cached block keeps only its own nodes
    if not mirrored:
        r2 = r2.reshape(-1)[part]
        wrho, scale = _weights(kernel, r2, w.reshape(-1)[part])
        if partial:
            h, r2 = h.copy(), r2.copy()
        return StencilBlock(h, r2, wrho, _scaled(h, scale))
    wrho, scale = _weights(kernel, r2, w)
    r2, wrho, scale = (_unfold(a, shape) for a in (r2, wrho, scale))
    grad = np.empty(scale.shape + (D,))
    for j, x in enumerate(whole):  # as ``h``: reads the rules, not ``h``
        np.multiply(scale, -x, out=grad[..., j])
    r2, wrho, grad = r2.reshape(-1)[part], wrho.reshape(-1)[part], grad.reshape(-1, D)[part]
    if partial:
        h, r2, wrho, grad = h.copy(), r2.copy(), wrho.copy(), grad.copy()
    return StencilBlock(h, r2, wrho, grad)


def _scaled(h: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The gradient weights ``scale * (-h)``, scaled in place: no second (n, D) temporary."""
    grad = -h
    grad *= scale[:, None]
    return grad


class Stencil:
    """Tensor-product offset rule over the box ``[lo, hi]`` around a point.

    Offsets come from ``build_panel_grid`` split at 0, exactly as operators
    split their grids at the evaluation point.  ``kernel`` supplies ``dim``
    and ``radial_density``.  ``blocks`` expands the product in C order in runs
    of at most ``BLOCK_NODES`` nodes, on demand unless ``materialize`` has
    stored them.
    """

    def __init__(self, kernel, lo, hi, resolution: int):
        grid = build_panel_grid(lo, hi, np.zeros(np.size(lo)), resolution)
        self.axes = grid.axes
        self.shape = grid.shape
        self.size = len(grid)
        self.kernel = kernel
        self._mirrored = _mirrored(self.axes)
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
                yield _expand(self.axes, self.kernel, start, end, self._mirrored)
                continue
            block = self._blocks[start // BLOCK_NODES]
            yield block if block.r2.size == end - start else block.head(end - start)


class StencilCache:
    """Full-box stencils, least recently used evicted beyond ``cap`` bytes.

    Keyed on ``(kernel, radius, resolution)``.  A stencil larger than the
    cap is returned unexpanded and not kept.  Safe to share between threads.
    """

    def __init__(self, cap: int = CACHE_BYTES):
        self.cap = cap
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, kernel, radius: float, resolution: int) -> Stencil:
        key = (kernel, radius, resolution)
        with self._lock:
            stencil = self._entries.get(key)
            if stencil is not None:
                self._entries.move_to_end(key)
                return stencil
        reach = np.full(kernel.dim, float(radius))
        stencil = Stencil(kernel, -reach, reach, resolution)
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
                   resolution: int) -> list[tuple[Stencil, np.ndarray]]:
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
        return [(STENCILS.get(kernel, radius, resolution), np.arange(len(points)))]
    clipped = np.logical_or.reduce((lo < domain.lower_array) | (hi > domain.upper_array), axis=1)
    box_lo = np.maximum(lo, domain.lower_array) - points
    box_hi = np.minimum(hi, domain.upper_array) - points
    own = np.flatnonzero(clipped)
    out = [] if own.size == len(points) else [
        (STENCILS.get(kernel, radius, resolution), np.flatnonzero(~clipped))]
    for k, i in enumerate(own.tolist()):
        out.append((Stencil(kernel, box_lo[i], box_hi[i], resolution), own[k:k + 1]))
    return out


def clipped_blocks(kernel, x: np.ndarray, radius: float, domain: BoxDomain,
                   resolution: int) -> Optional[Iterator[StencilBlock]]:
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
    axes = build_panel_grid(box_lo, box_hi, [0.0] * len(box_lo), resolution).axes
    size, mirrored = math.prod(w.size for _, w in axes), _mirrored(axes)
    return (_expand(axes, kernel, start, min(start + BLOCK_NODES, size), mirrored)
            for start in range(0, size, BLOCK_NODES))
