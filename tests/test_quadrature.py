import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonlocalopt import BoxDomain, build_box_grid, integrate
from nonlocalopt.errors import NodeBudgetError, NonFiniteIntegrandError


class TestBoxGrid:
    def test_weight_normalization(self):
        grid = build_box_grid(BoxDomain.unit(1), 8)
        assert grid.total_weight == pytest.approx(1.0, abs=1e-12)

    def test_cubic_exactness(self):
        grid = build_box_grid(BoxDomain.unit(1), 8)
        val = integrate(grid, lambda p: p[:, 0] ** 3)
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_tensor_exactness_2d(self):
        grid = build_box_grid(BoxDomain.unit(2), 8)
        val = integrate(grid, lambda p: p[:, 0] * p[:, 1])
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_nodes_interior(self):
        dom = BoxDomain((0.0, -1.0), (2.0, 1.0))
        grid = build_box_grid(dom, 16)
        assert np.all(grid.nodes > dom.lower_array)
        assert np.all(grid.nodes < dom.upper_array)

    def test_budget_error(self):
        with pytest.raises(NodeBudgetError):
            build_box_grid(BoxDomain.unit(3), 400)

    def test_midpoint_scheme(self):
        grid = build_box_grid(BoxDomain.unit(1), 100, scheme="midpoint")
        assert grid.total_weight == pytest.approx(1.0, abs=1e-12)
        val = integrate(grid, lambda p: p[:, 0])
        assert val == pytest.approx(0.5, abs=1e-12)

    @given(degree=st.integers(0, 15), seed=st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_polynomial_exactness_hypothesis(self, degree, seed):
        # Gauss-Legendre with m nodes integrates degree <= 2m-1 exactly.
        m = max(2, (degree + 1) // 2 + 1)
        coeffs = np.random.default_rng(seed).uniform(-2, 2, degree + 1)
        poly = np.polynomial.Polynomial(coeffs)
        grid = build_box_grid(BoxDomain.interval(-1.0, 2.0), m)
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
        grid = build_box_grid(BoxDomain((0.0, -1.0), (1.0, 1.0)), m)
        exact = (px.integ()(1.0) - px.integ()(0.0)) * (py.integ()(1.0) - py.integ()(-1.0))
        val = integrate(grid, lambda p: px(p[:, 0]) * py(p[:, 1]))
        assert val == pytest.approx(exact, abs=1e-12 * (1 + abs(exact)))


class TestIntegrate:
    def test_constant(self):
        grid = build_box_grid(BoxDomain.unit(1), 4)
        assert integrate(grid, lambda p: np.ones(len(p))) == pytest.approx(1.0, abs=1e-13)

    def test_sin_closed_form(self):
        grid = build_box_grid(BoxDomain.interval(0.0, math.pi), 32)
        val = integrate(grid, lambda p: np.sin(p[:, 0]))
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_steep_integrand_needs_resolution(self):
        # Indicator-like integrands converge slowly; the resolution sweep
        # must expose a measurable difference (documented in the README).
        dom = BoxDomain.unit(1)
        f = lambda p: (p[:, 0] > 0.37).astype(float)
        delta = abs(
            integrate(build_box_grid(dom, 64), f) - integrate(build_box_grid(dom, 512), f)
        )
        assert delta > 1e-6

    def test_refinement_convergence(self):
        dom = BoxDomain.interval(0.0, math.pi)
        f = lambda p: np.sin(p[:, 0])
        vals = [integrate(build_box_grid(dom, m), f) for m in (4, 8, 16)]
        diffs = [abs(vals[0] - vals[1]), abs(vals[1] - vals[2])]
        assert diffs[1] < diffs[0]

    def test_nonfinite_error_carries_node(self):
        grid = build_box_grid(BoxDomain.unit(1), 8)

        def bad(p):
            out = np.ones(len(p))
            out[3] = np.inf
            return out

        with pytest.raises(NonFiniteIntegrandError) as err:
            integrate(grid, bad)
        assert err.value.node is not None
