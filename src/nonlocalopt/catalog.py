"""Named test fields with known regularity and exact derivatives.

These are the workhorses of the validation suite: every convergence check and
acceptance criterion runs against fields from this catalog so that errors can
be measured against closed-form references.

Every value callback reads coordinate columns (``fields``): it works on each
column as far as it can, then sums or multiplies across columns from the
left, with elementwise numpy operations in a fixed order and no BLAS dot.  So
a point gets the same bits on its own as inside any batch, whatever its
columns' shapes and memory layout, and operators may pack points into one
call.  Derivative callbacks take ``(..., D)`` arrays and work column by
column in the same way: numpy sums a contiguous axis of 8 or more entries
pairwise, a strided one in order, so neither is summed as an axis.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from .fields import BoxDomain, ScalarField


def _columns(x):
    """The coordinate columns of an ``(..., D)`` array, as views."""
    return np.moveaxis(x, -1, 0)


def constant_field(domain: BoxDomain) -> ScalarField:
    def fn(*x):
        return 1.0

    def grad(x):
        return np.zeros_like(x)

    def hess(x):
        return np.zeros(x.shape[:-1] + (domain.dim, domain.dim))

    return ScalarField(fn, domain, grad, hess, name="constant")


def _bilinear(u, terms):
    """``sum of c * u[i] * u[j]`` over ``(i, j, c)``, summed left to right from 0.

    ``u`` holds columns; each product is ``(u_i * c) * u_j``, the order ``einsum`` uses.  Two
    steps that change no bit are left out: a factor ``c`` of 1, and adding the first product
    to 0 when it is a square with ``c > 0``, which is never -0.
    """
    total = 0.0
    for k, (i, j, c) in enumerate(terms):
        product = (u[i] if c == 1.0 else u[i] * c) * u[j]
        total = product if k == 0 and i == j and c > 0 else total + product
    return total


def _linear(u, coeffs):
    """``u @ coeffs`` over the columns ``u``, summed left to right from 0, one rounded product
    per term."""
    total = 0.0
    for i, c in enumerate(coeffs.tolist()):
        total = total + u[i] * c
    return total


def _centred(x, c):
    """The columns ``x_j - c_j``, for ``c`` a list."""
    return list(map(operator.sub, x, c))


def linear_field(domain: BoxDomain, coeffs, offset: float = 0.0) -> ScalarField:
    a = np.atleast_1d(np.asarray(coeffs, dtype=float))

    def fn(*x):
        return _linear(x, a) + offset

    def grad(x):
        return np.broadcast_to(a, x.shape).copy()

    def hess(x):
        return np.zeros(x.shape[:-1] + (a.size, a.size))

    return ScalarField(fn, domain, grad, hess, name="linear")


def quadratic_field(
    domain: BoxDomain, matrix=None, center=None, linear=None, name: str = "quadratic"
) -> ScalarField:
    """``u(x) = (x-c)^T A (x-c) + b^T (x-c)`` with analytic derivatives."""
    D = domain.dim
    A = np.eye(D) if matrix is None else np.atleast_2d(np.asarray(matrix, dtype=float))
    c = domain.center if center is None else np.atleast_1d(np.asarray(center, dtype=float))
    centre = c.tolist()
    b = np.zeros(D) if linear is None else np.atleast_1d(np.asarray(linear, dtype=float))
    S = A + A.T
    # nonzero entries only: a zero term changes no sum but the sign of a zero
    terms = [(i, j, A[i, j]) for i in range(D) for j in range(D) if A[i, j] != 0.0]
    rows = [(i, S[i]) for i in range(D)]
    lin = b if np.any(b != 0.0) else None

    def fn(*x):
        d = _centred(x, centre)
        value = _bilinear(d, terms)
        return value if lin is None else value + _linear(d, lin)

    def grad(x):
        d = _columns(x - c)
        out = np.empty(x.shape)
        for i, s in rows:
            out[..., i] = _linear(d, s) + b[i]
        return out

    def hess(x):
        return np.broadcast_to(S, x.shape[:-1] + (D, D)).copy()

    return ScalarField(fn, domain, grad, hess, name=name)


def sin_field(domain: BoxDomain) -> ScalarField:
    """Product of ``sin(2 pi x_i)`` across axes."""
    w = 2.0 * np.pi
    D = domain.dim

    def fn(*x):
        return reduce(np.multiply, [np.sin(w * xj) for xj in x])

    def grad(x):
        s = _columns(np.sin(w * x))
        out = np.empty_like(x)
        for j in range(D):
            others = reduce(np.multiply, [s[k] for k in range(D) if k != j]) if D > 1 else 1.0
            out[..., j] = w * np.cos(w * x[..., j]) * others
        return out

    def hess(x):
        s = _columns(np.sin(w * x))
        cs = _columns(np.cos(w * x))
        H = np.empty(x.shape[:-1] + (D, D))
        for i in range(D):
            for j in range(D):
                rest_axes = [k for k in range(D) if k not in (i, j)]
                rest = reduce(np.multiply, [s[k] for k in rest_axes]) if rest_axes else 1.0
                if i == j:
                    H[..., i, j] = -(w**2) * s[i] * rest
                else:
                    H[..., i, j] = w**2 * cs[i] * cs[j] * rest
        return H

    return ScalarField(fn, domain, grad, hess, name="sin")


def quartic_field(domain: BoxDomain, center=None) -> ScalarField:
    """``sum of d_i^2 / 2 + d_i^3 / 2 + d_i^4`` with ``d = x - center``, minimized at ``center``.

    The cubic term makes the minimizer asymmetric, which keeps kernel-smoothed
    gradients honestly nonzero at the true minimizer.
    """
    c = domain.center if center is None else np.atleast_1d(np.asarray(center, dtype=float))
    centre = c.tolist()

    # products, not powers: ``d**3`` and ``d**4`` call libm ``pow`` per element
    def fn(*x):
        terms = []
        for d in _centred(x, centre):
            d2 = d * d
            terms.append(0.5 * d2 + 0.5 * (d2 * d) + d2 * d2)
        return reduce(np.add, terms)

    def grad(x):
        d = x - c
        d2 = d * d
        return d + 1.5 * d2 + 4.0 * (d2 * d)

    def hess(x):
        d = x - c
        diag = 1.0 + 3.0 * d + 12.0 * d**2
        H = np.zeros(d.shape[:-1] + (d.shape[-1], d.shape[-1]))
        idx = np.arange(d.shape[-1])
        H[..., idx, idx] = diag
        return H

    return ScalarField(fn, domain, grad, hess, name="quartic")


def asymmetric_min_field(domain: BoxDomain) -> ScalarField:
    """1-D ``d^2 + 0.3 d^3``, ``d = x - c`` about the centre: a strict minimum, uneven sides."""
    if domain.dim != 1:
        raise ValueError("asymmetric-min field is 1-D")
    c = float(domain.center[0])

    # products, not powers (``d**3`` rounds differently on a scalar), and ``3.0 * 0.3`` unfolded
    def fn(x):
        d = x - c
        return d * d + 0.3 * (d * d * d)

    def grad(x):
        d = x[..., 0] - c
        return (2.0 * d + 3.0 * 0.3 * (d * d))[..., None]

    def hess(x):
        d = x[..., 0] - c
        return (2.0 + 6.0 * 0.3 * d)[..., None, None]

    return ScalarField(fn, domain, grad, hess, name="asymmetric-min")


def ridge_field(domain: BoxDomain, center=None, slope: float = 1.0) -> ScalarField:
    """Nonsmooth cone ``M |x - c|``: Lipschitz with constant ``slope``."""
    c = domain.center if center is None else np.atleast_1d(np.asarray(center, dtype=float))
    centre = c.tolist()

    def fn(*x):
        d = _centred(x, centre)
        return slope * np.sqrt(reduce(np.add, [dj * dj for dj in d]))

    return ScalarField(fn, domain, name="ridge")


def bump_field(domain: BoxDomain, center=None, radius: float = 0.25) -> ScalarField:
    """Smooth compactly supported hill: ``exp(1 - 1/(1 - |x-c|^2/r^2))``.

    Infinitely differentiable with support box strictly inside the domain.
    """
    c = domain.center if center is None else np.atleast_1d(np.asarray(center, dtype=float))
    centre = c.tolist()
    r = float(radius)
    support = BoxDomain(tuple(c - r), tuple(c + r))
    if not (
        np.all(support.lower_array > domain.lower_array)
        and np.all(support.upper_array < domain.upper_array)
    ):
        raise ValueError("bump support must sit strictly inside the domain")

    def fn(*x):
        d = [dj / r for dj in _centred(x, centre)]
        v2 = np.asarray(reduce(np.add, [dj * dj for dj in d]))
        out = np.zeros(v2.shape)
        inside = v2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - v2[inside]))
        return out

    def grad(x):
        d = _columns((x - c) / r)
        v2 = reduce(np.add, d * d)
        out = np.zeros_like(x)
        inside = v2 < 1.0
        g = 1.0 - v2[inside]
        factor = np.exp(1.0 - 1.0 / g) * (-2.0 / (g * g)) / (r * r)
        out[inside] = factor[..., None] * (x[inside] - c)
        return out

    def hess(x):
        # with s = |x-c|^2/r^2 and phi(s) = exp(1 - 1/(1-s)):
        #   dphi/ds   = -phi / (1-s)^2
        #   d2phi/ds2 = phi [ (1-s)^-4 - 2 (1-s)^-3 ]
        D = x.shape[-1]
        d = x - c
        s = reduce(np.add, _columns(d * d)) / (r * r)
        H = np.zeros(x.shape[:-1] + (D, D))
        inside = s < 1.0
        g = 1.0 - s[inside]
        phi = np.exp(1.0 - 1.0 / g)
        phi1 = -phi / (g * g)
        phi2 = phi * (g**-4 - 2.0 * g**-3)
        di = d[inside]
        outer = np.einsum("...i,...j->...ij", di, di)
        eye = np.eye(D)
        H[inside] = (
            phi2[..., None, None] * 4.0 * outer / r**4
            + phi1[..., None, None] * 2.0 * eye / r**2
        )
        return H

    return ScalarField(fn, domain, grad, hess, support=support, name="bump")


def _ascending_linear(domain: BoxDomain) -> ScalarField:
    """Slopes ``1, 2, ..., D``."""
    return linear_field(domain, np.arange(1, domain.dim + 1, dtype=float))


def _indefinite_quadratic(domain: BoxDomain) -> ScalarField:
    """A saddle ``diag(1, -1, ..., -1)`` about the centre; ``-(x-c)^2`` in 1-D."""
    D = domain.dim
    matrix = np.diag([1.0] + [-1.0] * (D - 1)) if D > 1 else -np.eye(D)
    return quadratic_field(domain, matrix=matrix, name="quadratic-indefinite")


def _quarter_bump(domain: BoxDomain) -> ScalarField:
    """Radius a quarter of the shortest side."""
    return bump_field(domain, radius=0.25 * float(np.min(domain.upper_array - domain.lower_array)))


# Each named field's constructor, and the one dimension it exists in (None: every dimension).
FIELDS = {
    "constant": (constant_field, None),
    "linear": (_ascending_linear, None),
    "quadratic": (quadratic_field, None),
    "quadratic-indefinite": (_indefinite_quadratic, None),
    "sin": (sin_field, None),
    "quartic": (quartic_field, None),
    "ridge": (ridge_field, None),
    "bump": (_quarter_bump, None),
    "asymmetric-min": (asymmetric_min_field, 1),
}


def field_names(dim: int) -> list[str]:
    """Names of the catalog fields that exist in ``dim`` dimensions, in catalog order."""
    return [name for name, (_, only) in FIELDS.items() if only in (None, dim)]


def catalog_field(name: str, domain: BoxDomain) -> ScalarField:
    """The catalog field ``name`` on ``domain``, built without the others."""
    names = field_names(domain.dim)
    if name not in names:
        raise ValueError(f"unknown field {name!r}; known: {sorted(names)}")
    return FIELDS[name][0](domain)


def catalog(domain: BoxDomain) -> dict[str, ScalarField]:
    """All named test fields instantiated on the given domain."""
    return {name: FIELDS[name][0](domain) for name in field_names(domain.dim)}
