"""Independent oracles: central differences, golden-section search, Monte-Carlo
integrals.

These deliberately share no code with the kernel operators they validate;
every dual-route check in the test suite keeps one side here.  The classical
twins in ``optimizers`` reuse the central differences and the golden-section
search below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, as_point
from .kernels import RadialKernel, require_dim


def central_gradient(field: ScalarField, x: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient at ``x``; evaluates ``x +- step`` unchecked."""
    g = np.empty(field.dim)
    for j in range(field.dim):
        e = np.zeros(field.dim)
        e[j] = step
        g[j] = (field.value(x + e) - field.value(x - e)) / (2.0 * step)
    return g


def central_hessian(field: ScalarField, x: np.ndarray, step: float) -> np.ndarray:
    """Symmetrized four-point central-difference Hessian; reaches ``2 step`` unchecked."""
    D = field.dim
    H = np.empty((D, D))
    for i in range(D):
        for j in range(D):
            ei = np.zeros(D)
            ej = np.zeros(D)
            ei[i] = step
            ej[j] = step
            H[i, j] = (
                field.value(x + ei + ej)
                - field.value(x + ei - ej)
                - field.value(x - ei + ej)
                + field.value(x - ei - ej)
            ) / (4.0 * step * step)
    return 0.5 * (H + H.T)


def golden_section(phi, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum of ``phi`` on ``[a, b]``, narrowed below ``tol``.

    Returns ``(argmin, value)``; ties keep the left point.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = phi(c), phi(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = phi(d)
    return (c, fc) if fc <= fd else (d, fd)


@dataclass(frozen=True)
class McGradient:
    """Monte-Carlo estimate of the kernel-smoothed gradient with its stderr."""

    value: np.ndarray
    stderr: np.ndarray
    samples: int


def mc_nonlocal_gradient(
    field: ScalarField, x, kernel: RadialKernel, samples: int = 100_000, seed: int = 0
) -> McGradient:
    """Sample-average estimate of the kernel-smoothed gradient.

    Draws offsets from the kernel and averages ``D`` times the difference
    quotient; partner points falling outside the domain contribute zero,
    which matches the domain-restricted integral the quadrature path computes.
    """
    require_dim(kernel, field.dim)
    x = as_point(x, field.dim)
    rng = np.random.default_rng(seed)
    h = kernel.sample(rng, samples)
    y = x - h
    inside = field.domain.contains(y)
    r2 = np.sum(h * h, axis=1)
    ok = inside & (r2 > 0)
    contrib = np.zeros((samples, field.dim))
    if np.any(ok):
        diff = field.value(x) - np.asarray(field(y[ok]), dtype=float)
        contrib[ok] = (diff / r2[ok])[:, None] * h[ok]
    contrib *= field.dim
    mean = contrib.mean(axis=0)
    stderr = contrib.std(axis=0, ddof=1) / np.sqrt(samples)
    return McGradient(value=mean, stderr=stderr, samples=samples)
