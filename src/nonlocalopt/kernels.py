"""Radial density families that concentrate at the origin as the scale index grows.

A kernel at scale index ``n`` is a nonnegative, unit-mass, radially symmetric
density on R^D whose spread shrinks like ``base_scale / n``.  Two families are
built in: isotropic Gaussians and compactly supported bump profiles.  Custom
compact radial profiles are accepted and normalized numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError, RejectionOverflowError
from .fields import BoxDomain, as_point
from .quadrature import GAUSS, reach_stencil, rule_1d

GAUSSIAN = "gaussian"
BUMP = "bump"
CUSTOM = "custom"

# Gaussian cutoffs: reach is what operators integrate over, full_radius is
# what mass/tail computations use (mass beyond 12 sigma underflows float64).
_GAUSS_REACH_SIGMAS = 6.0
_GAUSS_FULL_SIGMAS = 12.0

_MAX_SAMPLE_ATTEMPTS = 1_000_000


def unit_sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere in R^dim (equals 2 when dim=1)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def bump_profile(v: np.ndarray) -> np.ndarray:
    """Unit-radius bump ``exp(-1/(1-v^2))`` on ``|v| < 1``, zero outside."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    inside = np.abs(v) < 1.0
    vi = v[inside]
    out[inside] = np.exp(-1.0 / (1.0 - vi * vi))
    return out


def _shell_integral(f: Callable, dim: int, lo: float, hi: float) -> float:
    """Integral of ``f(|v|)`` over the shell ``lo < |v| < hi`` in R^dim (Gauss in ``r``)."""
    r, w = rule_1d(lo, hi, 400, GAUSS)
    vals = f(r) * r ** (dim - 1)
    return unit_sphere_area(dim) * float(np.sum(w * vals))


@dataclass(frozen=True)
class RadialKernel:
    """One member of a Dirac-approximating radial density family.

    Parameters
    ----------
    family : str
        ``"gaussian"``, ``"bump"``, or ``"custom"``.
    dim : int
        Spatial dimension D.
    scale_index : int
        Positive index n; spread shrinks like ``base_scale / n``.
    base_scale : float
        Gaussian standard deviation (or compact support radius) at n = 1.
    profile : callable, optional
        Unit-radius radial profile for the custom family; must be nonnegative
        and integrable on the unit ball.
    """

    family: str
    dim: int
    scale_index: int
    base_scale: float
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _norm: float = 0.0
    _peak: float = 0.0

    def __post_init__(self):
        if self.family not in (GAUSSIAN, BUMP, CUSTOM):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.dim < 1:
            raise DimensionMismatchError("kernel dimension must be positive")
        if self.scale_index < 1:
            raise ValueError("scale index must be a positive integer")
        if not 0 < self.base_scale < math.inf:
            raise ValueError("base scale must be positive and finite")
        if self.family == CUSTOM:
            if self.profile is None:
                raise ValueError("custom kernels must supply a radial profile")
            rr = np.linspace(0.0, 1.0, 513)
            vals = np.asarray(self.profile(rr), dtype=float)
            if np.any(vals < 0) or not np.all(np.isfinite(vals)):
                raise ValueError("custom profile must be finite and nonnegative")
            peak = float(vals.max())
            if peak <= 0:
                raise ValueError("custom profile must carry positive mass")
        elif self.family == BUMP:
            peak = math.exp(-1.0)
        else:
            peak = 1.0
        prof = self._profile_fn()
        norm = 1.0 if self.family == GAUSSIAN else _shell_integral(prof, self.dim, 0.0, 1.0)
        if norm <= 0 or not math.isfinite(norm):
            raise ValueError("profile mass must be positive and finite")
        object.__setattr__(self, "_norm", norm)
        object.__setattr__(self, "_peak", peak * 1.0000001)
        try:
            with np.errstate(divide="ignore", over="ignore"):
                top = float(self.radial_density(0.0))
        except ArithmeticError:  # the Gaussian's float power raises where numpy gives inf
            top = math.inf
        if not top < math.inf:
            raise ValueError(f"scale {self.scale} is too small for a float64 density")

    def _profile_fn(self) -> Callable:
        if self.family == BUMP:
            return bump_profile
        if self.family == CUSTOM:
            return self.profile
        return None

    @property
    def scale(self) -> float:
        """Spread parameter at this index: ``base_scale / scale_index``."""
        return self.base_scale / self.scale_index

    @property
    def compact(self) -> bool:
        return self.family != GAUSSIAN

    @property
    def reach(self) -> float:
        """Radius operators integrate over (support radius, or 6 sigma)."""
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
        prof = self._profile_fn()
        return prof(r / s) / (self._norm * s**self.dim)

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

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
        """Draw one offset distributed per this density, or ``size`` of them.

        With ``size`` the result has shape ``(size, dim)`` and its rows equal
        ``size`` successive single draws from ``rng``, so offsets may be drawn
        in blocks without changing them.
        """
        if self.family == GAUSSIAN:
            shape = self.dim if size is None else (size, self.dim)
            return self.scale * rng.standard_normal(shape)
        if size is None:
            return self._rejection_draw(rng)
        out = np.empty((size, self.dim))
        for i in range(size):
            out[i] = self._rejection_draw(rng)
        return out

    def _rejection_draw(self, rng: np.random.Generator) -> np.ndarray:
        prof = self._profile_fn()
        s = self.scale
        for _ in range(_MAX_SAMPLE_ATTEMPTS):
            p = rng.uniform(-1.0, 1.0, size=self.dim)
            v = float(np.linalg.norm(p))
            if v >= 1.0:
                continue
            if rng.uniform() * self._peak <= float(prof(np.asarray([v]))[0]):
                return s * p
        raise RejectionOverflowError(
            f"rejection sampler exceeded {_MAX_SAMPLE_ATTEMPTS} attempts"
        )

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Vectorized sampling of ``size`` offsets.

        Compact kernels reject in chunks, so unlike ``sample(rng, size)`` the
        rows are not the draws that successive single samples would give.
        """
        if self.family == GAUSSIAN:
            return self.scale * rng.standard_normal((size, self.dim))
        prof = self._profile_fn()
        out = np.empty((size, self.dim))
        filled = 0
        attempts = 0
        budget = _MAX_SAMPLE_ATTEMPTS + 100 * size
        while filled < size:
            chunk = max(1024, 2 * (size - filled))
            attempts += chunk
            if attempts > budget:
                raise RejectionOverflowError("batched rejection sampler exhausted its budget")
            p = rng.uniform(-1.0, 1.0, size=(chunk, self.dim))
            v = np.linalg.norm(p, axis=1)
            u = rng.uniform(size=chunk)
            ok = (v < 1.0) & (u * self._peak <= prof(v))
            take = p[ok][: size - filled]
            out[filled : filled + take.shape[0]] = take
            filled += take.shape[0]
        return self.scale * out


def gaussian_kernel(dim: int, n: int, base_scale: float = 0.1) -> RadialKernel:
    return RadialKernel(GAUSSIAN, dim, n, base_scale)


def bump_kernel(dim: int, n: int, base_scale: float = 0.2) -> RadialKernel:
    return RadialKernel(BUMP, dim, n, base_scale)


@dataclass(frozen=True)
class MomentDiagnostics:
    """Directional second moments of a kernel over the domain at a point."""

    point: np.ndarray
    c_values: np.ndarray
    kernel: RadialKernel

    @property
    def d_times_c(self) -> np.ndarray:
        return self.kernel.dim * self.c_values


def directional_second_moment(
    kernel: RadialKernel, domain: BoxDomain, x, axis: int, resolution: int = 256
) -> float:
    """Domain integral of ``(x_i - y_i)^2 / |x - y|^2`` against the kernel.

    Converges to ``1/D`` at interior points as the kernel concentrates; the
    deficit measures boundary truncation.
    """
    x = as_point(x, kernel.dim)
    if not domain.contains(x):
        raise ValueError("moment diagnostics require an interior point")
    if not 0 <= axis < kernel.dim:
        raise ValueError(f"axis {axis} out of range for dimension {kernel.dim}")
    stencil = reach_stencil(kernel, x, kernel.full_radius, domain, resolution, GAUSS)
    return float(sum(np.sum(b.wrho * b.h[:, axis] ** 2 / b.r2) for b in stencil.blocks()))


def moments(kernel: RadialKernel, domain: BoxDomain, x, resolution: int = 256) -> MomentDiagnostics:
    x = as_point(x, kernel.dim)
    c = np.array(
        [directional_second_moment(kernel, domain, x, i, resolution) for i in range(kernel.dim)]
    )
    return MomentDiagnostics(point=x, c_values=c, kernel=kernel)
