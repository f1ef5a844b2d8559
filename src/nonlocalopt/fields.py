"""Box domains, scalar fields, and finite box-union subsets.

Every operator in this package works on an open axis-aligned box domain and
on scalar fields given by vectorized evaluation callbacks.  Callbacks must
accept arrays of shape ``(..., D)`` and return shape ``(...)``; this is what
quadrature-heavy code needs to stay fast.  Operators pass their stencil
batches as column-contiguous ``(N, D)`` views (each coordinate column is
contiguous), so a callback must not assume C order; it gives a point the
same bits in any batch only if it makes no BLAS call, whose rounding
depends on the layout.  The operators' own BLAS operands stay C-ordered.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import DimensionMismatchError, MissingDerivativeError

Array = np.ndarray


def as_point(x, dim: int) -> Array:
    """Coerce ``x`` to a float vector of length ``dim``."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1 or p.shape[0] != dim:
        raise DimensionMismatchError(
            f"expected a point of dimension {dim}, got shape {np.shape(x)}"
        )
    return p


def _frozen(values) -> Array:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def as_points(x, dim: int) -> tuple[Array, bool]:
    """Coerce ``x`` to one point ``(dim,)`` or a batch ``(P, dim)``; say whether it is a batch.

    A 1-D ``x`` is one point, as for ``as_point``.
    """
    p = np.asarray(x, dtype=float)
    if p.ndim == 2 and p.shape[1] == dim and p.shape[0] > 0:
        return p, True
    return as_point(p, dim), False


@dataclass(frozen=True)
class BoxDomain:
    """Nonempty open box ``(lower_1, upper_1) x ... x (lower_D, upper_D)``."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lower))
        up = tuple(float(v) for v in np.atleast_1d(self.upper))
        if len(lo) != len(up) or not lo:
            raise DimensionMismatchError("lower/upper bounds must have equal, positive length")
        if not all(a < b for a, b in zip(lo, up)):
            raise ValueError(f"box must be nonempty: lower={lo}, upper={up}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        # Read-only array forms of the bounds, built once: operators read them on every call.
        object.__setattr__(self, "lower_array", _frozen(lo))
        object.__setattr__(self, "upper_array", _frozen(up))

    @classmethod
    def interval(cls, a: float, b: float) -> "BoxDomain":
        return cls((a,), (b,))

    @classmethod
    def unit(cls, dim: int) -> "BoxDomain":
        return cls((0.0,) * dim, (1.0,) * dim)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def center(self) -> Array:
        return 0.5 * (self.lower_array + self.upper_array)

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper_array - self.lower_array))

    def contains(self, x) -> bool | Array:
        """Strict (open box) membership; vectorized over leading axes."""
        p = np.asarray(x, dtype=float)
        if p.shape[-1:] != (self.dim,):
            raise DimensionMismatchError(
                f"point dimension {p.shape[-1:]} does not match domain dimension {self.dim}"
            )
        inside = np.logical_and.reduce((p > self.lower_array) & (p < self.upper_array), axis=-1)
        return bool(inside) if inside.ndim == 0 else inside

    def boundary_distance(self, x) -> float:
        p = as_point(x, self.dim)
        return float(min((p - self.lower_array).min(), (self.upper_array - p).min()))

    def clip_box(self, lo, hi) -> Optional[tuple[Array, Array]]:
        """Intersect ``[lo, hi]`` with this box; ``None`` if the overlap is empty."""
        lo = np.maximum(np.asarray(lo, dtype=float), self.lower_array)
        hi = np.minimum(np.asarray(hi, dtype=float), self.upper_array)
        if np.any(hi <= lo):
            return None
        return lo, hi


@dataclass(frozen=True)
class ScalarField:
    """An objective ``u: domain -> R`` with optional derivative callbacks.

    Parameters
    ----------
    fn : callable
        Vectorized evaluation, ``(..., D) -> (...)``.  A batch may arrive as a
        column-contiguous ``(N, D)`` view; see the module docstring.
    domain : BoxDomain
        The open box the field lives on.
    gradient, hessian : callable, optional
        Analytic derivatives with the same batching convention
        (``(..., D) -> (..., D)`` and ``(..., D) -> (..., D, D)``).
    lipschitz : float, optional
        A known Lipschitz constant for the field.
    support : BoxDomain, optional
        Compact support box, strictly inside ``domain``; the field must be
        exactly zero outside it.
    """

    fn: Callable[[Array], Array]
    domain: BoxDomain
    gradient: Optional[Callable[[Array], Array]] = None
    hessian: Optional[Callable[[Array], Array]] = None
    lipschitz: Optional[float] = None
    support: Optional[BoxDomain] = None
    name: str = ""

    @property
    def dim(self) -> int:
        return self.domain.dim

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def value(self, x) -> float:
        """Scalar evaluation at a single point."""
        return float(self.fn(as_point(x, self.dim)))

    def gradient_at(self, x) -> Array:
        """Analytic gradient at one point ``(D,)``, or at each row of ``(P, D)``."""
        if self.gradient is None:
            raise MissingDerivativeError(f"field {self.name!r} has no analytic gradient")
        return np.asarray(self.gradient(as_points(x, self.dim)[0]), dtype=float)

    def hessian_at(self, x) -> Array:
        """Analytic Hessian at one point ``(D,)``, or at each row of ``(P, D)``."""
        if self.hessian is None:
            raise MissingDerivativeError(f"field {self.name!r} has no analytic hessian")
        return np.asarray(self.hessian(as_points(x, self.dim)[0]), dtype=float)


def extend_by_zero(field: ScalarField) -> ScalarField:
    """Extend a field by zero to all of R^D.

    The returned field evaluates to the original value strictly inside the
    declared support box, or inside the domain when no support is declared,
    and to exactly zero everywhere else.  It has no derivative callbacks.
    Idempotent: a field whose callback is such a mask is returned as it is.
    """
    if getattr(field.fn, "_zero_extension", False):
        return field
    box = field.domain if field.support is None else field.support
    lo, hi = box.lower_array, box.upper_array
    base_fn = field.fn
    dim = field.dim

    def masked(x):
        # evaluate the base callback at inside points only: callbacks are
        # guaranteed total on the domain, not on all of R^D
        x = np.asarray(x, dtype=float)
        inside = np.all((x > lo) & (x < hi), axis=-1)
        mask = inside.reshape(-1)
        out = np.zeros(mask.shape[0])
        if mask.any():
            out[mask] = np.asarray(base_fn(x.reshape(-1, dim)[mask]), dtype=float).reshape(-1)
        if inside.ndim == 0:
            return float(out[0])
        return out.reshape(inside.shape)

    masked._zero_extension = True
    return replace(field, fn=masked, gradient=None, hessian=None)


@dataclass(frozen=True)
class SubsetIndicator:
    """Finite union of axis-aligned boxes; measurable by construction."""

    boxes: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]
    dim: int

    @classmethod
    def from_boxes(cls, boxes: Iterable[tuple], dim: int) -> "SubsetIndicator":
        normalized = []
        for lo, hi in boxes:
            lo = tuple(float(v) for v in np.atleast_1d(lo))
            hi = tuple(float(v) for v in np.atleast_1d(hi))
            if len(lo) != dim or len(hi) != dim:
                raise DimensionMismatchError("subset box dimension mismatch")
            if all(a < b for a, b in zip(lo, hi)):
                normalized.append((lo, hi))
        return cls(tuple(normalized), dim)

    @classmethod
    def from_intervals(cls, intervals: Iterable[tuple[float, float]]) -> "SubsetIndicator":
        return cls.from_boxes([((a,), (b,)) for a, b in intervals], dim=1)

    @classmethod
    def full(cls, domain: BoxDomain) -> "SubsetIndicator":
        return cls.from_boxes([(domain.lower, domain.upper)], dim=domain.dim)

    @classmethod
    def empty(cls, dim: int) -> "SubsetIndicator":
        return cls((), dim)

    def membership(self, x) -> bool | Array:
        p = np.asarray(x, dtype=float)
        if p.shape[-1:] != (self.dim,):
            raise DimensionMismatchError("point dimension does not match subset dimension")
        inside = np.zeros(p.shape[:-1], dtype=bool)
        for lo, hi in self.boxes:
            inside |= np.all((p > np.asarray(lo)) & (p < np.asarray(hi)), axis=-1)
        return bool(inside) if inside.ndim == 0 else inside

    def pieces(self) -> list[tuple[Array, Array]]:
        return [(np.asarray(lo), np.asarray(hi)) for lo, hi in self.boxes]
