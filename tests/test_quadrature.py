import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonlocalopt import build_panel_grid
from nonlocalopt.errors import NodeBudgetError


def box_grid(lo, hi, m):
    """Tensor grid with ``m`` nodes per axis: a panel grid with no split point."""
    return build_panel_grid(lo, hi, None, m)


def integrate(grid, integrand):
    return float(np.sum(grid.weights * integrand(grid.nodes)))


class TestBoxGrid:
    def test_weight_normalization(self):
        grid = box_grid([0.0], [1.0], 8)
        assert float(np.sum(grid.weights)) == pytest.approx(1.0, abs=1e-12)

    def test_cubic_exactness(self):
        grid = box_grid([0.0], [1.0], 8)
        val = integrate(grid, lambda p: p[:, 0] ** 3)
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_tensor_exactness_2d(self):
        grid = box_grid([0.0, 0.0], [1.0, 1.0], 8)
        val = integrate(grid, lambda p: p[:, 0] * p[:, 1])
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_nodes_interior(self):
        lo, hi = np.array([0.0, -1.0]), np.array([2.0, 1.0])
        grid = box_grid(lo, hi, 16)
        assert np.all(grid.nodes > lo)
        assert np.all(grid.nodes < hi)

    def test_budget_error(self):
        with pytest.raises(NodeBudgetError):
            box_grid([0.0] * 3, [1.0] * 3, 400)

    @given(degree=st.integers(0, 15), seed=st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_polynomial_exactness_hypothesis(self, degree, seed):
        # Gauss-Legendre with m nodes integrates degree <= 2m-1 exactly.
        m = max(2, (degree + 1) // 2 + 1)
        coeffs = np.random.default_rng(seed).uniform(-2, 2, degree + 1)
        poly = np.polynomial.Polynomial(coeffs)
        grid = box_grid([-1.0], [2.0], m)
        exact = poly.integ()(2.0) - poly.integ()(-1.0)
        val = integrate(grid, lambda p: poly(p[:, 0]))
        assert val == pytest.approx(exact, abs=1e-12 * (1 + abs(exact)))

    @given(dx=st.integers(0, 9), dy=st.integers(0, 9), seed=st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_tensor_polynomial_exactness_2d(self, dx, dy, seed):
        # per-axis degree <= 2m-1 stays exact under the tensor product
        rng = np.random.default_rng(seed)
        px = np.polynomial.Polynomial(rng.uniform(-2, 2, dx + 1))
        py = np.polynomial.Polynomial(rng.uniform(-2, 2, dy + 1))
        m = max(2, (max(dx, dy) + 1) // 2 + 1)
        grid = box_grid([0.0, -1.0], [1.0, 1.0], m)
        exact = (px.integ()(1.0) - px.integ()(0.0)) * (py.integ()(1.0) - py.integ()(-1.0))
        val = integrate(grid, lambda p: px(p[:, 0]) * py(p[:, 1]))
        assert val == pytest.approx(exact, abs=1e-12 * (1 + abs(exact)))


class TestIntegrate:
    def test_constant(self):
        grid = box_grid([0.0], [1.0], 4)
        assert integrate(grid, lambda p: np.ones(len(p))) == pytest.approx(1.0, abs=1e-13)

    def test_sin_closed_form(self):
        grid = box_grid([0.0], [math.pi], 32)
        val = integrate(grid, lambda p: np.sin(p[:, 0]))
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_steep_integrand_needs_resolution(self):
        # Indicator-like integrands converge slowly; the resolution sweep
        # must expose a measurable difference (documented in the README).
        f = lambda p: (p[:, 0] > 0.37).astype(float)
        delta = abs(
            integrate(box_grid([0.0], [1.0], 64), f) - integrate(box_grid([0.0], [1.0], 512), f)
        )
        assert delta > 1e-6

    def test_refinement_convergence(self):
        f = lambda p: np.sin(p[:, 0])
        vals = [integrate(box_grid([0.0], [math.pi], m), f) for m in (4, 8, 16)]
        diffs = [abs(vals[0] - vals[1]), abs(vals[1] - vals[2])]
        assert diffs[1] < diffs[0]
