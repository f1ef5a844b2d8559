"""Deterministic tensor-product quadrature over boxes, and
the offset stencils every kernel operator contracts against.

Grids are tensor products of 1-D Gauss-Legendre rules, kept as their per-axis
rules; the flat node list is built only when asked for.

A ``Stencil`` is such a grid of offsets ``h`` around an evaluation point,
expanded block by block.  A block is a sub-grid of at most ``BLOCK_NODES``
nodes: one slice of each per-axis rule (``_split``).  It stores only its
gradient weights, ``D * 8`` bytes a node; a field call reads its points as
per-axis columns shifted from the rule slices (``_shifted``), and
``Stencil.offsets`` rebuilds ``h``, ``|h|^2`` and ``w * rho`` on every call.
An axis that 0 cuts into two equal sides is its own mirror image at 0.  A
stencil whose every axis is such (every full box) is paired: it walks only
the lower half of axis 0, each node standing for itself and its mirror image
``-h``, whose gradient weights are its own negated.  The full-box stencil of
a kernel is the same at every point whose reach box lies inside the domain,
so ``StencilCache`` keeps its half's gradient weights, within a byte cap.  A
block whose whole axes are all mirror images computes ``|h|^2`` and its
weights on their upper halves and mirrors them, bit for bit.

Allocator policy: the first block whose ``(n, D)`` arrays (its gradient weights,
or the central Hessian's offsets) reach glibc's default mmap threshold (128 KiB)
fixes the process's mmap threshold at 32 MiB and its trim threshold at 64 MiB,
once, through ``mallopt``; without glibc's ``mallopt`` nothing happens.  Under
the dynamic thresholds each freed block temporary (streamed weights, field
values, the callbacks' products across axes) goes back to the kernel and is
faulted in again by the next block: about 19,700 minor faults per in-process
pass of the benchmark's 2-D and 3-D operator checks, against under 10 with the
thresholds fixed (``ru_minflt``, glibc 2.36, x86-64).  A process may then keep
up to 64 MiB of freed heap.  1-D and SGD runs never reach that size.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import CoincidentPointsError, NodeBudgetError
from .fields import BoxDomain, Columns

NODE_BUDGET = 10_000_000

# Nodes per stencil block: bounds the memory of one field call and of the
# temporaries of one contraction step.
BLOCK_NODES = 65_536

# Total bytes of cached gradient weights, D * 8 a node walked (a full box's lower half): a 3-D
# box of about 1.4M nodes fits (3 MiB at resolution 64); larger ones are streamed block by block.
CACHE_BYTES = 16 * 2**20

# glibc's default mmap threshold, 128 KiB, in float64 entries: the first block whose
# (n, D) gradient weights or offsets reach it fixes the process's allocator thresholds
# (``_keep_heap``)
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

    ``nodes`` (N, D) lists the product's nodes in C order and is built on first use.
    """

    axes: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(x.size for x, _ in self.axes)

    @cached_property
    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*[x for x, _ in self.axes], indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)


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
    """A block of stencil nodes and their gradient weights.

    The nodes are the C-order product of the block's per-axis ``(nodes, weights)`` rules
    ``axes``, slices of the stencil's (``_split``).  ``grad`` (n, D) holds ``D * w * rho(|h|)
    / |h|^2 * (-h)`` for their offsets ``h``, zero where ``|h|^2`` underflows to 0.  It is
    C-ordered: the contractions pass it to BLAS, whose rounding depends on the layout.  The
    offsets are not stored; field calls read them from ``axes``.
    """

    axes: tuple
    grad: np.ndarray


class Offsets(NamedTuple):
    """The offsets ``h`` (n, D, C-ordered as ``StencilBlock.grad``) of the nodes of the per-axis
    rules ``axes``, ``r2 = |h|^2`` and ``wrho = w * rho(|h|)``.  Where ``|h|^2`` underflows to 0,
    ``wrho`` is 0 and ``r2`` is 1, so every quotient by ``r2`` stays finite."""

    axes: tuple
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


def _split(axes, symmetric) -> Iterator[tuple[tuple, int]]:
    """The blocks of the C-order product of the per-axis rules ``axes``, in order, as
    ``(block axes, mirror)`` pairs; ``symmetric[i]`` says that the rule of axis ``i`` is its
    own mirror image at 0, and is read for the axes after ``k`` only.

    ``k`` is the first axis whose later axes hold at most ``BLOCK_NODES`` nodes together.  A
    block takes one node of each axis before ``k``, a run of at most ``BLOCK_NODES // stride``
    nodes of axis ``k`` and every later axis whole.  The block's axes after ``k`` are mirrored
    (``_radial``) when all of them are symmetric: ``mirror`` is ``k + 1``, else ``D``.
    """
    sizes = [x.size for x, _ in axes]
    k, stride = 0, math.prod(sizes[1:])
    while stride > BLOCK_NODES:  # ends at the last axis, whose stride is 1
        k += 1
        stride //= sizes[k]
    step, (x, w), n = BLOCK_NODES // stride, axes[k], sizes[k]
    if min(step, n) * stride * len(axes) >= _LARGE_BLOCK:  # the first block is the largest
        _keep_heap()
    mirror, tail = k + 1 if all(symmetric[k + 1:]) else len(axes), axes[k + 1:]
    nodes = [[(a[i:i + 1], b[i:i + 1]) for i in range(a.size)] for a, b in axes[:k]]
    for head in itertools.product(*nodes):
        for lo in range(0, n, step):
            yield head + ((x[lo:lo + step], w[lo:lo + step]),) + tail, mirror


def _along(a: np.ndarray, j: int, D: int) -> np.ndarray:
    """The 1-D ``a`` shaped to lie along axis ``j`` of a ``D``-axis grid."""
    return a if j == D - 1 else a.reshape((-1,) + (1,) * (D - 1 - j))


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


def _unfold(upper: np.ndarray, mirror: int) -> np.ndarray:
    """The array whose upper half on each axis ``mirror``.. is ``upper`` (``upper`` itself
    when there is no such axis).

    Every other orthant of those axes is ``upper`` reversed along the axes on which it lies
    below 0, copied axis by axis from the last, while the copied region is smallest.
    """
    if mirror == upper.ndim:
        return upper
    half = upper.shape[mirror:]
    out = np.empty(upper.shape[:mirror] + tuple(2 * m for m in half))
    index = [slice(None)] * mirror + [slice(m, None) for m in half]
    out[tuple(index)] = upper
    for k in range(out.ndim - 1, mirror - 1, -1):
        lower = index.copy()
        lower[k] = slice(None, upper.shape[k])
        out[tuple(lower)] = np.flip(out[tuple(index)], axis=k)
        index[k] = slice(None)
    return out


def _radial(axes, mirror: int):
    """``r2 = |h|^2`` and the weight products ``w`` over the sub-grid of the per-axis rules
    ``axes``, shaped as the sub-grid, but over the upper half only of axes ``mirror``..

    Sums and products run axis by axis as a per-node gather's: ((x0^2 + x1^2) + x2^2),
    ((w0*w1)*w2).  Axes ``mirror``.. (none when it is ``D``) are whole rules mirrored at 0
    (``Stencil.symmetric``): ``_unfold`` mirrors what is computed from ``r2`` and ``w`` into the
    rest, as a node and its mirror image share their bits.
    """
    D = len(axes)
    for j, (x, w) in enumerate(axes):
        if j >= mirror:
            x, w = x[x.size // 2:], w[w.size // 2:]
        x, w = _along(x, j, D), _along(w, j, D)
        r2, ws = (x * x, w) if j == 0 else (r2 + x * x, ws * w)
    return r2, ws


def _offsets(axes, kernel, mirror: int):
    """``h``, ``r2`` and ``wrho`` (``Offsets``) of the nodes of the sub-grid ``axes``, in C
    order; ``mirror`` as in ``_radial``."""
    D = len(axes)
    r2, w = _radial(axes, mirror)
    h = np.empty([x.size for x, _ in axes] + [D])  # before the weights: a smaller process peak
    wrho = _weights(kernel, r2, w)
    for j, (x, _) in enumerate(axes):
        h[..., j] = _along(x, j, D)
    return h.reshape(-1, D), _unfold(r2, mirror).reshape(-1), _unfold(wrho, mirror).reshape(-1)


def _expand(axes, kernel, mirror: int) -> np.ndarray:
    """The gradient weights (``StencilBlock.grad``) of the sub-grid ``axes``: ``scale * (-h)``,
    column by column from the rules; ``mirror`` as in ``_radial``, and the scale is mirrored
    once."""
    D = len(axes)
    r2, w = _radial(axes, mirror)
    grad = np.empty([x.size for x, _ in axes] + [D])  # as in ``_offsets``
    scale = _unfold(_scale(kernel, _weights(kernel, r2, w), r2), mirror)
    for j, (x, _) in enumerate(axes):
        np.multiply(scale, -_along(x, j, D), out=grad[..., j])
    return grad.reshape(-1, D)


def _shifted(points: np.ndarray, axes, op=np.add) -> Columns:
    """``op(x, h)`` for every row ``x`` of ``points`` and the offset ``h`` of each node of the
    sub-grid of the per-axis rules ``axes``, point-major, as ``Columns`` ``(N, D)``.

    Column ``j`` is one broadcast ``op`` of ``x_j`` and the rule of axis ``j``, shaped ``(P, 1,
    ..., n_j, ..., 1)``: the additions ``x + h`` makes, bit for bit, with no offset or point
    array built.
    """
    P, D = points.shape
    columns = points.T.reshape(D, P, *[1] * D)
    shifted = [op(columns[j], _along(x, j, D)) for j, (x, _) in enumerate(axes)]
    return Columns(shifted, (P * math.prod([x.size for x, _ in axes]), D))


class Stencil:
    """Tensor-product offset rule over the box ``[lo, hi]`` around a point.

    Offsets come from ``build_panel_grid`` split at 0, exactly as operators split their grids
    at the evaluation point.  It writes an axis as its own mirror image at 0, ``h[::-1] ==
    -h``, exactly where 0 cuts the box into equal sides, ``-lo == hi``: ``symmetric`` holds that
    per axis.  A stencil symmetric on every axis (every full box) is ``paired``: it walks only
    the lower half of axis 0, each node standing for its mirror image too; ``axes``, ``shape``
    and ``len`` describe the whole box.  ``kernel`` supplies ``dim`` and ``radial_density``.
    ``blocks`` gives the gradient weights of the ``_split`` blocks walked, built on demand
    unless ``materialize`` has stored them; ``offsets`` builds the offsets and their weights in
    the same blocks on every call.
    """

    def __init__(self, kernel, lo, hi, resolution: int):
        lo, hi = (np.asarray(bound, dtype=float).ravel().tolist() for bound in (lo, hi))
        grid = build_panel_grid(lo, hi, np.zeros(len(lo)), resolution)
        self.axes = grid.axes
        self.shape = grid.shape
        self.kernel = kernel
        self.symmetric = tuple(-a == b > 0 for a, b in zip(lo, hi))
        self.paired = all(self.symmetric)
        self._walked = self.axes  # the rules ``_split`` cuts into blocks
        if self.paired:
            (x, w), *rest = self.axes
            self._walked = ((x[:x.size // 2], w[:w.size // 2]), *rest)
        self._blocks: Optional[tuple[StencilBlock, ...]] = None

    def __len__(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        """Bytes of the expanded blocks: ``grad`` only, ``D * 8`` a node walked."""
        return math.prod([x.size for x, _ in self._walked]) * len(self.shape) * 8

    def materialize(self) -> None:
        self._blocks = tuple(self.blocks())

    def blocks(self) -> Iterator[StencilBlock]:
        """The gradient weights of every node walked, block by block."""
        if self._blocks is not None:
            yield from self._blocks
            return
        for axes, mirror in _split(self._walked, self.symmetric):
            yield StencilBlock(axes, _expand(axes, self.kernel, mirror))

    def offsets(self) -> Iterator[Offsets]:
        """The offsets and weights of every node walked, block by block."""
        for block, mirror in _split(self._walked, self.symmetric):
            yield Offsets(block, *_offsets(block, self.kernel, mirror))


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
    """The blocks of ``reach_stencils``' rule for a row clipped to the offset box ``[lo, hi]``,
    and whether that stencil is ``paired`` (``Stencil``).

    One ``build_panel_grid`` call; one axis has at most ``2 * 3,162`` nodes (``rule_1d``'s
    budget), so the rule it walks is one block, whose gradient weights are the ``_expand``
    formula on the rule itself: the pulse path pays no sub-grid bookkeeping.
    """
    if len(lo) > 1:
        stencil = Stencil(kernel, lo, hi, resolution)
        return stencil.blocks(), stencil.paired
    [(x, w)] = build_panel_grid(lo, hi, [0.0], resolution).axes
    paired = -lo[0] == hi[0] > 0
    if paired:
        x, w = x[:x.size // 2], w[:w.size // 2]
    r2 = x * x
    grad = (_scale(kernel, _weights(kernel, r2, w), r2) * -x)[:, None]
    return (StencilBlock(((x, w),), grad),), paired
