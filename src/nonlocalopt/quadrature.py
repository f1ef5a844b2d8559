"""Deterministic tensor-product quadrature over boxes, and
the offset stencils every kernel operator contracts against.

Grids are tensor products of 1-D Gauss-Legendre rules, kept as their per-axis
rules; the flat node list is built only when asked for.

A ``Stencil`` is such a grid of offsets ``h`` around an evaluation point,
expanded in blocks of ``BLOCK_NODES`` nodes.  A block stores only its gradient
weights, ``D * 8`` bytes a node; the offsets stay in the per-axis rules, from
which the operators fill their field points, and ``Stencil.offsets`` rebuilds
``h``, ``|h|^2`` and ``w * rho`` on every call.  The full-box stencil of a
kernel is the same at every point whose reach box lies inside the domain, so
``StencilCache`` keeps its gradient weights, within a byte cap.  Where axes 1..
of a stencil are mirror images about 0 (every full box), a block computes
``|h|^2`` and its weights on the upper orthant of those axes only and mirrors
them, bit for bit: ``1/2^(D-1)`` of the density calls.

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
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import CoincidentPointsError, NodeBudgetError
from .fields import BoxDomain

NODE_BUDGET = 10_000_000

# Nodes per stencil block: bounds the memory of one field call and of the
# temporaries of one contraction step.
BLOCK_NODES = 65_536

# Total bytes of cached gradient weights, D * 8 a node: a 3-D stencil of about
# 1.4M nodes fits (resolution 64 takes 6 MiB); larger ones are streamed block by block.
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
    """The read-only ``m``-node Gauss-Legendre rule on ``[-1, 1]``, from an ``m x m``
    companion matrix, so ``m*m`` must stay within ``NODE_BUDGET`` (cached rules did)."""
    if m < 1:
        raise ValueError("need at least one node")
    if m * m > NODE_BUDGET:
        raise NodeBudgetError(
            f"a {m}-node Gauss rule needs a {m}x{m} matrix, budget is {NODE_BUDGET} entries"
        )
    x, w = np.polynomial.legendre.leggauss(m)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def rule_1d(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights integrating over ``[a, b]`` with ``m`` nodes."""
    return _affine(a, b, _leggauss(m), np.empty(m), np.empty(m))


def _affine(a: float, b: float, rule, x: np.ndarray, w: np.ndarray):
    """Writes ``rule`` on ``[-1, 1]`` mapped to ``[a, b]`` into ``x`` and ``w``; returns them."""
    half = 0.5 * (b - a)
    np.multiply(half, rule[0], out=x)
    x += 0.5 * (a + b)  # mid + half * x
    return x, np.multiply(half, rule[1], out=w)


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
    built.  Both sides of a split axis are written into one array, with the
    arithmetic of ``rule_1d``.
    """
    lo = np.asarray(lo, dtype=float).ravel().tolist()
    hi = np.asarray(hi, dtype=float).ravel().tolist()
    split = [None] * len(lo) if split is None else np.asarray(split, dtype=float).ravel().tolist()
    m = max(2, resolution // 2)
    splits = [s if s is not None and a < s < b else None for a, b, s in zip(lo, hi, split)]
    _check_budget(math.prod([resolution if s is None else 2 * m for s in splits]))
    axes = []
    for a, b, s in zip(lo, hi, splits):
        if s is None:
            axes.append(rule_1d(a, b, resolution))
            continue
        xs, ws = np.empty(2 * m), np.empty(2 * m)
        _affine(a, s, _leggauss(m), xs[:m], ws[:m])
        if s - a == b - s:
            np.subtract(2.0 * s, xs[m - 1::-1], out=xs[m:])  # 2 s - (left nodes)[::-1]
            ws[m:] = ws[m - 1::-1]
        else:
            _affine(s, b, _leggauss(m), xs[m:], ws[m:])
        axes.append((xs, ws))
    return QuadratureGrid(tuple(axes))


# -- offset stencils ------------------------------------------------------------


class StencilBlock(NamedTuple):
    """Stencil nodes ``start`` to ``stop`` and their gradient weights.

    The nodes are ``start`` onward of the C-order product of the stencil's per-axis
    ``(nodes, weights)`` rules ``axes``.  ``grad`` (n, D) holds ``D * w * rho(|h|) / |h|^2 *
    (-h)`` for their offsets ``h``, zero where ``|h|^2`` underflows to 0.  It is C-ordered:
    the contractions pass it to BLAS, whose rounding depends on the layout.  The offsets are
    not stored; field calls read them from ``axes``.
    """

    axes: tuple
    start: int
    grad: np.ndarray

    @property
    def stop(self) -> int:
        return self.start + len(self.grad)


class Offsets(NamedTuple):
    """Stencil nodes ``start`` to ``stop``: their offsets ``h`` (n, D, C-ordered as
    ``StencilBlock.grad``), ``r2 = |h|^2`` and ``wrho = w * rho(|h|)``.  Where ``|h|^2``
    underflows to 0, ``wrho`` is 0 and ``r2`` is 1, so every quotient by ``r2`` stays finite."""

    start: int
    stop: int
    h: np.ndarray
    r2: np.ndarray
    wrho: np.ndarray


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


def _weights(kernel, r2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``wrho = w * rho(|h|)``.  Where ``r2`` underflowed to 0, ``wrho`` is set to 0 and
    ``r2`` (in place) to 1."""
    wrho = w * kernel.radial_density(np.sqrt(r2))
    if np.count_nonzero(r2) < r2.size:
        excluded = r2 == 0
        wrho[excluded] = 0.0
        r2[excluded] = 1.0
    return wrho


def _scale(kernel, wrho: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """The gradient scale ``D * wrho / r2``."""
    return (wrho if kernel.dim == 1 else kernel.dim * wrho) / r2  # 1 * wrho is wrho


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


def _slabs(axes, start: int, stop: int, mirrored: bool):
    """What nodes ``start`` to ``stop`` (D >= 2) need from the leading-axis slabs they touch.

    Returns the per-axis rules broadcast over those slabs (``np.ix_``), the nodes' place in
    the flattened slabs, and ``r2`` and the weight products ``w`` over the slabs: over the
    upper orthant of axes 1.. only when ``mirrored`` (``_mirrored(axes)`` holds).  Sums and
    products run axis by axis as a per-node gather's: ((x0^2 + x1^2) + x2^2), ((w0*w1)*w2).
    """
    if (stop - start) * len(axes) >= _LARGE_BLOCK:
        _keep_heap()
    slab = math.prod(x.size for x, _ in axes[1:])
    first, last = start // slab, -(-stop // slab)
    cut = [x.size // 2 if mirrored else 0 for x, _ in axes[1:]]
    xs = np.ix_(axes[0][0][first:last], *(x[c:] for (x, _), c in zip(axes[1:], cut)))
    ws = np.ix_(axes[0][1][first:last], *(w[c:] for (_, w), c in zip(axes[1:], cut)))
    r2, w = xs[0] * xs[0], ws[0]
    for x, wx in zip(xs[1:], ws[1:]):
        r2, w = r2 + x * x, w * wx
    whole = np.ix_(axes[0][0][first:last], *(x for x, _ in axes[1:]))
    return whole, slice(start - first * slab, stop - first * slab), r2, w


def _offsets(axes, kernel, start: int, stop: int, mirrored: bool = False):
    """``h``, ``r2`` and ``wrho`` (``Offsets``) of nodes ``start`` to ``stop`` of the C-order
    product of the per-axis rules ``axes``.

    ``mirrored`` says that ``_mirrored(axes)`` holds.  Then ``r2`` and the weights are
    computed on the upper orthant of axes 1.. only and mirrored into the rest
    (``_unfold``): a node and its mirror image share their bits there.  The arrays are
    slices of the slabs, not copies.
    """
    if len(axes) == 1:  # a slice of the rule
        x = axes[0][0][start:stop]
        r2 = x * x
        return x[:, None], r2, _weights(kernel, r2, axes[0][1][start:stop])
    whole, part, r2, w = _slabs(axes, start, stop, mirrored)
    h = np.empty(np.broadcast_shapes(*(x.shape for x in whole)) + (len(axes),))
    for j, x in enumerate(whole):  # column by column, each a loop over the slabs
        h[..., j] = x
    if mirrored:
        wrho = _weights(kernel, r2, w)
        r2, wrho = (_unfold(a, h.shape[:-1]).reshape(-1)[part] for a in (r2, wrho))
    else:
        r2 = r2.reshape(-1)[part]
        wrho = _weights(kernel, r2, w.reshape(-1)[part])
    return h.reshape(-1, len(axes))[part], r2, wrho


def _expand(axes, kernel, start: int, stop: int, mirrored: bool = False) -> np.ndarray:
    """The gradient weights (``StencilBlock.grad``) of nodes ``start`` to ``stop``: ``-h``
    times the scale, from ``_offsets``.  A mirrored block mirrors the scale instead and
    fills ``scale * (-h)``, the same bits, column by column from the rules; if it ends
    inside a slab it is copied out, so a cached block keeps only its own nodes.
    """
    if not mirrored:
        h, r2, wrho = _offsets(axes, kernel, start, stop)
        grad = -h
        grad *= _scale(kernel, wrho, r2)[:, None]
        return grad
    whole, part, r2, w = _slabs(axes, start, stop, mirrored)
    full = np.empty(np.broadcast_shapes(*(x.shape for x in whole)) + (len(axes),))
    scale = _unfold(_scale(kernel, _weights(kernel, r2, w), r2), full.shape[:-1])
    for j, x in enumerate(whole):
        np.multiply(scale, -x, out=full[..., j])
    grad = full.reshape(-1, len(axes))[part]
    return grad.copy() if grad.size < full.size else grad


def _runs(shape: tuple[int, ...], start: int, stop: int, prefix: tuple[int, ...] = ()):
    """Nodes ``start`` to ``stop`` of the C-order product of axes of sizes ``shape``, in order,
    as runs ``(prefix, lo, hi)``: the nodes whose leading indices are ``prefix``, whose next
    index runs from ``lo`` to ``hi``, and whose later indices run over their whole axes."""
    stride = math.prod(shape[1:])
    first = start // stride
    if stop - start < stride and (stop - 1) // stride == first:  # inside one index
        yield from _runs(shape[1:], start - first * stride, stop - first * stride,
                         prefix + (first,))
        return
    lo, hi = -(-start // stride), stop // stride
    if start % stride:
        yield from _runs(shape[1:], start % stride, stride, prefix + (first,))
    if lo < hi:
        yield prefix, lo, hi
    if stop % stride:
        yield from _runs(shape[1:], 0, stop % stride, prefix + (hi,))


def _shifted(points: np.ndarray, axes, start: int, stop: int, op=np.add) -> np.ndarray:
    """``op(x, h)`` for every row ``x`` of ``points`` and the offset ``h`` of each node
    ``start`` to ``stop`` of the stencil with per-axis rules ``axes``, point-major, as ``(N, D)``.

    The batch is filled axis by axis into one ``(D, P, n)`` buffer and returned as its
    transposed view: its rows are in C order, its coordinate columns are contiguous, so a
    callback's elementwise work runs in loops of length ``N`` rather than ``D``.  Column
    ``j`` of each run of nodes (``_runs``) is ``op`` of ``x_j`` and the rule of axis ``j``,
    broadcast: the additions ``x + h`` makes, bit for bit, with no offset array read.
    """
    P, D = points.shape
    buf = np.empty((D, P, stop - start))
    if D == 1:  # one run: the rule itself
        op(points.T[:, :, None], axes[0][0][start:stop], out=buf)
        return buf.reshape(1, -1).T
    shape, at = tuple(x.size for x, _ in axes), 0
    for prefix, lo, hi in _runs(shape, start, stop):
        a, count = len(prefix), (hi - lo) * math.prod(shape[len(prefix) + 1:])
        for j, (x, _) in enumerate(axes):
            rule = x[prefix[j]:prefix[j] + 1] if j < a else x[lo:hi] if j == a else x
            stride = count if j < a else math.prod(shape[j + 1:])
            op(points[:, j, None, None, None], rule[:, None],
               out=buf[j, :, at:at + count].reshape(P, -1, rule.size, stride))
        at += count
    return buf.reshape(D, -1).T


class Stencil:
    """Tensor-product offset rule over the box ``[lo, hi]`` around a point.

    Offsets come from ``build_panel_grid`` split at 0, exactly as operators
    split their grids at the evaluation point.  ``kernel`` supplies ``dim``
    and ``radial_density``.  ``blocks`` gives the gradient weights in C order
    in runs of at most ``BLOCK_NODES`` nodes, built on demand unless
    ``materialize`` has stored them; ``offsets`` builds the offsets and their
    weights in the same runs on every call.
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
        """Bytes of the expanded blocks: ``grad`` only, ``D * 8`` a node."""
        return self.size * len(self.shape) * 8

    def materialize(self) -> None:
        self._blocks = tuple(self.blocks())

    def blocks(self) -> Iterator[StencilBlock]:
        """The gradient weights of every node, block by block."""
        if self._blocks is not None:
            yield from self._blocks
            return
        for start in range(0, self.size, BLOCK_NODES):
            stop = min(start + BLOCK_NODES, self.size)
            yield StencilBlock(self.axes, start,
                               _expand(self.axes, self.kernel, start, stop, self._mirrored))

    def offsets(self, stop: Optional[int] = None) -> Iterator[Offsets]:
        """The offsets and weights of the first ``stop`` nodes (all by default)."""
        stop = self.size if stop is None else stop
        for start in range(0, stop, BLOCK_NODES):
            end = min(start + BLOCK_NODES, stop)
            yield Offsets(start, end, *_offsets(self.axes, self.kernel, start, end, self._mirrored))


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
    ``build_panel_grid`` call.  A ``radius`` below the float spacing at a
    point raises ``CoincidentPointsError``: every node would coincide with it.
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


def box_blocks(kernel, lo: list[float], hi: list[float], resolution: int):
    """The blocks of ``reach_stencils``' rule for a row clipped to the offset box ``[lo, hi]``.

    One ``build_panel_grid`` call; one axis has at most ``2 * 3,162`` nodes
    (``rule_1d``'s budget), so its rule is one block, built with no generator.
    """
    if len(lo) > 1:
        return Stencil(kernel, lo, hi, resolution).blocks()
    axes = build_panel_grid(lo, hi, [0.0], resolution).axes
    return (StencilBlock(axes, 0, _expand(axes, kernel, 0, axes[0][0].size)),)
