"""Radial density families that concentrate at the origin as the scale index grows.

A kernel at scale index ``n`` is a nonnegative, unit-mass, radially symmetric
density on R^D whose spread shrinks like ``base_scale / n``.  Two families are
built in: isotropic Gaussians and compactly supported bump profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, RejectionOverflowError
from .quadrature import rule_1d

GAUSSIAN = "gaussian"
BUMP = "bump"

# Gaussian cutoffs: reach is what operators integrate over, full_radius is
# what mass/tail computations use (mass beyond 12 sigma underflows float64).
_GAUSS_REACH_SIGMAS = 6.0
_GAUSS_FULL_SIGMAS = 12.0

_MAX_SAMPLE_ATTEMPTS = 1_000_000

# Rejection envelope of the bump profile: its peak exp(-1), nudged up so a
# draw at the peak is accepted.
_BUMP_ENVELOPE = math.exp(-1.0) * 1.0000001


def unit_sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere in R^dim (equals 2 when dim=1)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def bump_profile(v: np.ndarray) -> np.ndarray:
    """Unit-radius bump ``exp(-1/(1-v^2))`` on ``|v| < 1``, zero outside.

    Only the square is masked: outside it is 0, so no ``v`` (infinite, NaN,
    or one whose square overflows) raises a warning, and the value computed
    there from that 0 is zeroed by the mask at the end.
    """
    v = np.asarray(v, dtype=float)
    inside = np.abs(v) < 1.0
    square = np.multiply(v, v, out=np.zeros(v.shape), where=inside)
    out = np.exp(-1.0 / (1.0 - square))
    out *= inside
    return out


def _shell_integral(f: Callable, dim: int, lo: float, hi: float) -> float:
    """Integral of ``f(|v|)`` over the shell ``lo < |v| < hi`` in R^dim (Gauss in ``r``)."""
    r, w = rule_1d(lo, hi, 400)
    vals = f(r) * r ** (dim - 1)
    return unit_sphere_area(dim) * float(np.sum(w * vals))


@lru_cache(maxsize=64)
def _bump_norm(dim: int) -> float:
    """Mass of the unit-radius bump profile in R^dim."""
    return _shell_integral(bump_profile, dim, 0.0, 1.0)


def require_dim(kernel, dim: int) -> None:
    """Raise ``DimensionMismatchError`` unless ``kernel`` draws ``dim``-D offsets."""
    if kernel.dim != dim:
        raise DimensionMismatchError(
            f"kernel dimension {kernel.dim} does not match field dimension {dim}")


@dataclass(frozen=True)
class RadialKernel:
    """One member of a Dirac-approximating radial density family.

    Parameters
    ----------
    family : str
        ``"gaussian"`` or ``"bump"``.
    dim : int
        Spatial dimension D.
    scale_index : int
        Positive index n; spread shrinks like ``base_scale / n``.
    base_scale : float
        Gaussian standard deviation (or compact support radius) at n = 1.
    """

    family: str
    dim: int
    scale_index: int
    base_scale: float

    def __post_init__(self):
        if self.family not in (GAUSSIAN, BUMP):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.dim < 1:
            raise DimensionMismatchError("kernel dimension must be positive")
        if self.scale_index < 1:
            raise ValueError("scale index must be a positive integer")
        if not 0 < self.base_scale < math.inf:
            raise ValueError("base scale must be positive and finite")
        try:
            with np.errstate(divide="ignore", over="ignore"):
                top = float(self.radial_density(0.0))
        except ArithmeticError:  # the Gaussian's float power raises where numpy gives inf
            top = math.inf
        if not top < math.inf:
            raise ValueError(f"scale {self.scale} is too small for a float64 density")

    @property
    def scale(self) -> float:
        """Spread parameter at this index: ``base_scale / scale_index``."""
        return self.base_scale / self.scale_index

    @property
    def compact(self) -> bool:
        return self.family != GAUSSIAN

    @property
    def reach(self) -> float:
        """Half-width of the box operators integrate over: the support radius (nothing lost), or
        6 sigma, short of a Gaussian's gradient weight by about ``D * 2 Phi(-6) = D * 1.97e-9``."""
        return self.scale if self.compact else _GAUSS_REACH_SIGMAS * self.scale

    @property
    def full_radius(self) -> float:
        """Radius beyond which the remaining mass is below float precision."""
        return self.scale if self.compact else _GAUSS_FULL_SIGMAS * self.scale

    def with_scale_index(self, n: int) -> "RadialKernel":
        return replace(self, scale_index=int(n))

    # -- densities -----------------------------------------------------------

    def radial_density(self, r) -> np.ndarray:
        """Density as a function of the offset norm."""
        r = np.abs(np.asarray(r, dtype=float))
        s = self.scale
        if self.family == GAUSSIAN:
            c = (2.0 * math.pi * s * s) ** (-self.dim / 2.0)
            return c * np.exp(-0.5 * (r / s) ** 2)
        return bump_profile(r / s) / (_bump_norm(self.dim) * s**self.dim)

    def density(self, h) -> np.ndarray:
        """Density at offset vectors of shape ``(..., dim)``."""
        h = np.asarray(h, dtype=float)
        if h.shape[-1:] != (self.dim,):
            raise DimensionMismatchError(
                f"offset dimension {h.shape[-1:]} does not match kernel dimension {self.dim}"
            )
        return self.radial_density(np.linalg.norm(h, axis=-1))

    # -- mass diagnostics ------------------------------------------------------

    def mass(self) -> float:
        """Total mass by radial quadrature; 1 up to quadrature error."""
        return _shell_integral(self.radial_density, self.dim, 0.0, self.full_radius)

    def tail_mass(self, delta: float) -> float:
        """Mass outside the centered ball of radius ``delta``."""
        if delta <= 0:
            raise ValueError("delta must be positive")
        hi = self.full_radius
        if delta >= hi:
            return 0.0
        return _shell_integral(self.radial_density, self.dim, delta, hi)

    # -- sampling --------------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` offsets distributed per this density, as ``(size, dim)``.

        Successive calls continue one stream: ``sample(rng, a)`` then
        ``sample(rng, b)`` give the rows of one ``sample(rng, a + b)``, so
        offsets may be drawn in blocks of any size without changing them.
        """
        if self.family == GAUSSIAN:
            return self.scale * rng.standard_normal((size, self.dim))
        out = np.empty((size, self.dim))
        for i in range(size):
            for _ in range(_MAX_SAMPLE_ATTEMPTS):
                p = rng.uniform(-1.0, 1.0, size=self.dim)
                v = float(np.linalg.norm(p))
                if v < 1.0 and (rng.uniform() * _BUMP_ENVELOPE
                                <= float(bump_profile(np.asarray([v]))[0])):
                    out[i] = p
                    break
            else:
                raise RejectionOverflowError(
                    f"rejection sampler exceeded {_MAX_SAMPLE_ATTEMPTS} attempts")
        return self.scale * out


def gaussian_kernel(dim: int, n: int, base_scale: float = 0.1) -> RadialKernel:
    return RadialKernel(GAUSSIAN, dim, n, base_scale)


def bump_kernel(dim: int, n: int, base_scale: float = 0.2) -> RadialKernel:
    return RadialKernel(BUMP, dim, n, base_scale)
