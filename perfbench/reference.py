"""Reference values for the benchmark's accuracy check.

Everything here is the benchmark's own arithmetic on numpy; nothing is
imported from ``nonlocalopt``.  The reference operator is the paper's
definition with the Gaussian density left untruncated (the library cuts it at
six standard deviations), so the truncation shows up as error.

* Quadratics ``|x - c|^2`` have the exact kernel gradient ``2 (x - c)`` and the
  exact central Hessian ``2 I``.
* ``sin`` fields (``prod_i sin(2 pi x_i)``) have a closed form for Gaussian
  densities: the kernel gradient is the classical gradient times a scalar
  ``lam(D, sigma)`` (derived below).  ``polar_gradient_2d`` cross-checks it.
* The 1-D quartic of the catalog has the kernel gradient
  ``u'(x) + sigma^2 u'''(x) / 6`` (Gaussian moments), so the Newton fixed point
  is the root of a cubic.
* The kinked ``ridge`` cone has no closed form.  ``polar_gradient_2d`` uses a
  polar rule around the evaluation point, split and geometrically graded at
  the kink, and ``python3 perfbench/reference.py`` stores the descent
  trajectory it gives in ``ridge_reference.json`` next to this file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("ridge_reference.json")

# The ridge descent the ``operators-nd`` workload runs: 40 fixed steps of
# kernel-gradient descent on ``|x - c|`` in the unit square, c at its centre.
# The step is small enough that the iteration contracts onto the kink, so an
# operator error does not grow along the trajectory.
RIDGE = {
    "x0": [0.27, 0.41],
    "center": [0.5, 0.5],
    "alpha": 0.013,
    "steps": 40,
    "base_scale": 0.1,
    "n": 8,
}

_SIN_OMEGA = 2.0 * math.pi


def _graded_panels(a: float, b: float, toward_a: bool, toward_b: bool, m: int,
                   ratio: float = 0.2, levels: int = 14):
    """Composite ``m``-point Gauss rule on ``[a, b]``.

    Panels shrink geometrically toward each flagged end, which keeps the
    rule exponentially convergent for an integrand with a point kink there.
    """
    x, w = np.polynomial.legendre.leggauss(m)
    if toward_a and toward_b:
        mid = 0.5 * (a + b)
        left = _graded_panels(a, mid, True, False, m, ratio, levels)
        right = _graded_panels(mid, b, False, True, m, ratio, levels)
        return np.concatenate([left[0], right[0]]), np.concatenate([left[1], right[1]])
    if toward_a or toward_b:
        cuts = [0.0] + [ratio**j for j in range(levels, 0, -1)] + [1.0]
        if toward_b:
            cuts = [1.0 - t for t in reversed(cuts)]
    else:
        cuts = list(np.linspace(0.0, 1.0, 5))
    nodes, weights = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        lo, hi = a + (b - a) * lo, a + (b - a) * hi
        nodes.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
        weights.append(0.5 * (hi - lo) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def polar_gradient_2d(u, x, sigma: float, kink=None, m: int = 16) -> np.ndarray:
    """Kernel gradient of ``u`` at ``x`` in 2-D for a Gaussian of spread ``sigma``.

    ``D * int (u(x) - u(y)) (x - y) / |x - y|^2 rho(x - y) dy`` in polar
    coordinates ``y = x + r e(theta)`` becomes
    ``-2 * int int (u(x) - u(x + r e)) e rho(r) dtheta dr``, which has no
    singularity at ``r = 0``.  The radius runs to 12 sigma (mass beyond it
    underflows float64); the domain must contain that disc.  A kink point of
    ``u`` is handled by splitting and grading both ``r`` and ``theta`` at it.
    """
    x = np.asarray(x, dtype=float)
    r_max = 12.0 * sigma
    theta0 = 0.0
    r, wr = _graded_panels(0.0, r_max, False, False, m)
    if kink is not None:
        d = np.asarray(kink, dtype=float) - x
        r0 = float(np.hypot(d[0], d[1]))
        theta0 = math.atan2(d[1], d[0])
        if 0.0 < r0 < r_max:
            ra, wa = _graded_panels(0.0, r0, False, True, m)
            rb, wb = _graded_panels(r0, r_max, True, False, m)
            r, wr = np.concatenate([ra, rb]), np.concatenate([wa, wb])
    t, wt = _graded_panels(theta0, theta0 + 2.0 * math.pi, True, True, m)
    e = np.stack([np.cos(t), np.sin(t)], axis=1)
    y = x + r[:, None, None] * e[None, :, :]
    diff = float(u(x[None, :])[0]) - u(y.reshape(-1, 2)).reshape(r.size, t.size)
    rho = np.exp(-0.5 * (r / sigma) ** 2) / (2.0 * math.pi * sigma**2)
    return -2.0 * np.einsum("i,j,ijk->k", wr * rho, wt, diff[..., None] * e[None, :, :])


def sin_value(x) -> np.ndarray:
    return np.prod(np.sin(_SIN_OMEGA * np.asarray(x, dtype=float)), axis=-1)


def sin_classical_gradient(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    s = np.sin(_SIN_OMEGA * x)
    out = np.empty_like(x)
    for j in range(x.shape[-1]):
        others = np.prod(np.delete(s, j, axis=-1), axis=-1)
        out[..., j] = _SIN_OMEGA * np.cos(_SIN_OMEGA * x[..., j]) * others
    return out


def sin_gradient_scale(dim: int, sigma: float) -> float:
    """``lam`` with kernel gradient = ``lam`` * classical gradient for the sin field.

    ``prod_i sin(w x_i)`` is a sum of ``cos(k.x)`` terms with ``|k| = w sqrt(D)``.
    For each, the kernel gradient is ``-sin(k.x) * D * mu(|k|) * k/|k|`` with
    ``mu(kappa) = int sin(kappa h_1) h_1 / |h|^2 rho(h) dh``, so
    ``lam = D mu / kappa``.  Writing ``1/|h|^2`` as an integral of Gaussians
    gives ``mu = sqrt(pi/2)/sigma * erf(kappa sigma / sqrt 2)`` in 1-D and
    ``mu = (1 - exp(-kappa^2 sigma^2 / 2)) / (kappa sigma^2)`` in 2-D.
    """
    kappa = _SIN_OMEGA * math.sqrt(dim)
    if dim == 1:
        mu = math.sqrt(math.pi / 2.0) / sigma * math.erf(kappa * sigma / math.sqrt(2.0))
    elif dim == 2:
        mu = -math.expm1(-0.5 * (kappa * sigma) ** 2) / (kappa * sigma**2)
    else:
        raise ValueError("sin reference is derived for D = 1 and D = 2 only")
    return dim * mu / kappa


def sin_gradient(x, sigma: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return sin_gradient_scale(x.shape[-1], sigma) * sin_classical_gradient(x)


def quartic_root_1d(sigma: float, a: float = 1.0, b3: float = 0.5, b4: float = 1.0) -> float:
    """Offset ``d`` from the centre where the 1-D quartic's kernel gradient vanishes.

    ``u = a d^2/2 + b3 d^3 + b4 d^4`` has kernel gradient
    ``u' + sigma^2 u''' / 6 = a d + 3 b3 d^2 + 4 b4 d^3 + sigma^2 (b3 + 4 b4 d)``.
    """
    d = 0.0
    for _ in range(60):
        g = a * d + 3 * b3 * d**2 + 4 * b4 * d**3 + sigma**2 * (b3 + 4 * b4 * d)
        dg = a + 6 * b3 * d + 12 * b4 * d**2 + 4 * b4 * sigma**2
        step = g / dg
        d -= step
        if abs(step) < 1e-17:
            break
    return d


def ridge_value(x, center=RIDGE["center"]) -> np.ndarray:
    return np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(center), axis=-1)


def ridge_descent(spec: dict = RIDGE) -> np.ndarray:
    """Iterates of fixed-step kernel-gradient descent on the ridge cone."""
    sigma = spec["base_scale"] / spec["n"]
    x = np.asarray(spec["x0"], dtype=float)
    iterates = [x]
    for _ in range(spec["steps"]):
        g = polar_gradient_2d(ridge_value, x, sigma, kink=spec["center"])
        x = x - spec["alpha"] * g
        iterates.append(x)
    return np.array(iterates)


def load_ridge_reference() -> np.ndarray:
    """Stored ridge iterates; refuses a file made for other descent settings."""
    stored = json.loads(REFERENCE_FILE.read_text())
    if stored["spec"] != RIDGE:
        raise ValueError(f"{REFERENCE_FILE.name} was made for other settings; regenerate it")
    return np.array(stored["iterates"])


if __name__ == "__main__":
    iterates = ridge_descent()
    payload = {"spec": RIDGE, "rule": "polar, graded at the kink, 16-point Gauss panels",
               "iterates": iterates.tolist()}
    REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE} ({len(iterates)} iterates)")
