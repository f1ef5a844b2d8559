import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonlocalopt import BoxDomain, ScalarField, extend_by_zero, quadrature
from nonlocalopt.catalog import (
    bump_field,
    catalog_field,
    field_names,
    linear_field,
    quadratic_field,
)
from nonlocalopt.errors import DimensionMismatchError
from nonlocalopt.fields import SubsetIndicator
from nonlocalopt.pulse import PulseManifold


class TestBoxDomain:
    def test_contains_interior(self):
        assert BoxDomain.unit(1).contains([0.5]) is True

    def test_boundary_excluded(self):
        assert BoxDomain.unit(1).contains([1.0]) is False

    def test_outside_2d(self):
        assert BoxDomain.unit(2).contains([0.3, 1.2]) is False

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            BoxDomain.unit(2).contains([0.3])

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            BoxDomain((0.0,), (0.0,))

    @given(
        lo=st.floats(-10, 10),
        width=st.floats(0.1, 5),
        frac=st.floats(-0.5, 1.5),
    )
    def test_contains_matches_inequalities(self, lo, width, frac):
        box = BoxDomain.interval(lo, lo + width)
        x = lo + frac * width
        assert box.contains([x]) == (lo < x < lo + width)


class TestScalarField:
    def test_analytic_gradient_matches_fd(self, fields_1d, fields_2d):
        # Built-in smooth fields: analytic gradient vs central differences at
        # 100 random interior points each.
        rng = np.random.default_rng(7)
        for fields in (fields_1d, fields_2d):
            for name, f in fields.items():
                if f.gradient is None or name == "ridge":
                    continue
                dim = f.dim
                pts = 0.2 + 0.6 * rng.random((100, dim))
                step = 1e-5
                for p in pts:
                    fd = np.array(
                        [
                            (f.value(p + step * e) - f.value(p - step * e)) / (2 * step)
                            for e in np.eye(dim)
                        ]
                    )
                    g = f.gradient_at(p)
                    assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(g))

    def test_vectorized_evaluation(self, fields_1d):
        f = fields_1d["quadratic"]
        pts = np.linspace(0.1, 0.9, 7)[:, None]
        batch = f(pts)
        assert batch.shape == (7,)
        assert batch[3] == pytest.approx(f.value(pts[3]))

    def test_points_of_another_dimension_raise(self):
        # a callback reads one column per axis, so an extra column would go unread
        f = quadratic_field(BoxDomain.unit(2))
        for shape in ((4, 3), (4, 1), (3,)):
            with pytest.raises(DimensionMismatchError):
                f(np.full(shape, 0.5))


class TestExtendByZero:
    def test_outside_support_is_zero(self, unit_interval):
        f = extend_by_zero(bump_field(unit_interval, center=[0.5], radius=0.3))
        assert f.value([1.5]) == 0.0  # outside the original domain entirely

    def test_identity_inside(self, unit_interval):
        base = bump_field(unit_interval, center=[0.5], radius=0.3)
        ext = extend_by_zero(base)
        assert ext.value([0.5]) == pytest.approx(base.value([0.5]), abs=1e-15)

    def test_support_boundary_continuous_zero(self, unit_interval):
        base = bump_field(unit_interval, center=[0.5], radius=0.3)
        ext = extend_by_zero(base)
        # Original field already decays to 0 at the support edge.
        assert abs(base.value([0.8])) <= 1e-12
        assert ext.value([0.8]) == 0.0

    def test_idempotent(self, unit_interval):
        base = bump_field(unit_interval, center=[0.5], radius=0.3)
        once = extend_by_zero(base)
        twice = extend_by_zero(once)
        assert twice is once
        probes = np.linspace(-0.5, 1.5, 21)[:, None]
        assert np.array_equal(once(probes), twice(probes))

    def test_constructor_cannot_mark_a_field_as_extended(self, unit_interval):
        # only ``extend_by_zero`` makes a zero extension: a field marked by its caller would
        # skip the mask, and the central Hessian would call it outside its domain
        fn = quadratic_field(unit_interval).fn
        with pytest.raises(TypeError):
            ScalarField(fn, unit_interval, zero_extended=True)

    def test_cuts_off_at_domain_without_support(self, unit_interval):
        base = quadratic_field(unit_interval)
        ext = extend_by_zero(base)
        probes = np.array([[-0.5], [0.0], [0.3], [0.7], [1.0], [1.5]])
        inside = [base.value([0.3]), base.value([0.7])]
        assert np.array_equal(ext(probes), [0.0, 0.0, *inside, 0.0, 0.0])
        assert ext.value([0.3]) == base.value([0.3])


class TestSubsetIndicator:
    def test_membership_union(self):
        sub = SubsetIndicator.from_intervals([(0.1, 0.2), (0.6, 0.9)])
        assert sub.membership([0.15]) is True
        assert sub.membership([0.4]) is False
        assert sub.membership([0.7]) is True

    def test_empty_and_full(self, unit_interval):
        assert SubsetIndicator((), 1).membership([0.5]) is False
        whole = SubsetIndicator.from_boxes([(unit_interval.lower, unit_interval.upper)], 1)
        assert whole.membership([0.5]) is True

    def test_degenerate_intervals_dropped(self):
        sub = SubsetIndicator.from_intervals([(0.5, 0.5), (0.2, 0.4)])
        assert len(sub.boxes) == 1


def test_catalog_fields_build_without_scanning_the_box():
    # a field holds only what the operators read: no scan of the box's 2^D corners
    domain = BoxDomain.unit(16)
    for name in field_names(16):
        tracemalloc.start()
        try:
            catalog_field(name, domain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, (name, peak)


def catalog_with_fractions(dim):
    """The catalog plus a linear and a full quadratic field with non-integer coefficients."""
    domain = BoxDomain.unit(dim)
    rng = np.random.default_rng(dim)
    fields = {name: catalog_field(name, domain) for name in field_names(dim)}
    fields["linear-fractional"] = linear_field(domain, rng.uniform(-2, 2, dim), 0.3)
    fields["quadratic-full"] = quadratic_field(
        domain, matrix=rng.uniform(-1, 1, (dim, dim)), center=rng.uniform(0.2, 0.8, dim),
        linear=rng.uniform(-1, 1, dim))
    return fields


class TestCatalogBatchInvariance:
    """A point's value, gradient and Hessian do not depend on the batch it is in."""

    # from 8 coordinates on, numpy sums a contiguous axis pairwise and a strided one in order
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 9])
    def test_each_row_matches_its_own_call(self, dim):
        n = 2000 if dim <= 3 else 400
        x = np.random.default_rng(7).uniform(0.01, 0.99, size=(n, dim))
        for name, field in catalog_with_fractions(dim).items():
            for kind, fn in (("value", field), ("gradient", field.gradient),
                             ("hessian", field.hessian)):
                if fn is None:
                    continue
                batch = np.asarray(fn(x), dtype=float)
                alone = np.array([np.asarray(fn(p), dtype=float) for p in x])
                assert batch.tobytes() == alone.tobytes(), (name, kind)
                columns = np.asarray(fn(np.asfortranarray(x)), dtype=float)
                assert columns.tobytes() == batch.tobytes(), (name, kind, "F order")
                for lo, hi in ((0, 1), (3, 27), (n // 20, n // 20 + n // 2), (n - 1, n)):
                    part = np.asarray(fn(x[lo:hi]), dtype=float)
                    assert part.tobytes() == batch[lo:hi].tobytes(), (name, kind, lo)
            # one point's D scalars
            scalars = np.array([field.value(p) for p in x])
            assert scalars.tobytes() == np.asarray(field(x), dtype=float).tobytes(), name

    # the points the operators pass a field: the per-axis columns op(x_j, h_j) of random
    # points x and random per-axis rules h (quadrature._shifted)
    @settings(max_examples=30, deadline=None)
    @given(dim=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1),
           op=st.sampled_from([np.add, np.subtract]))
    def test_column_call_equals_the_dense_call(self, dim, seed, op):
        rng = np.random.default_rng(seed)
        axes = [(rng.uniform(-0.25, 0.25, rng.integers(1, 7)), None) for _ in range(dim)]
        size = int(np.prod([x.size for x, _ in axes]))
        fields = catalog_with_fractions(dim)
        fields.update({f"{name}-extended": extend_by_zero(f) for name, f in fields.items()})
        if dim == 1:  # the objective raises outside [0, 1]; its zero extension does not
            pulse = PulseManifold().objective_field()
            fields.update({"pulse": pulse, "pulse-extended": extend_by_zero(pulse)})
        # every point inside the unit box's interior, or points that may leave it
        for lo, hi in ((0.3, 0.7), (-0.2, 1.2)):
            points = rng.uniform(lo, hi, size=(int(rng.integers(1, 4)), dim))
            batch = quadrature._shifted(points, axes, op)
            dense = np.asarray(batch)
            assert np.shape(batch) == dense.shape == (len(points) * size, dim)
            for name, field in fields.items():
                if name == "pulse" and lo < 0.0:
                    continue
                columns = field(batch)
                for rows in (dense, np.asfortranarray(dense)):
                    expected = field(rows)
                    assert columns.shape == expected.shape == (len(dense),), name
                    assert columns.tobytes() == expected.tobytes(), name

    def test_identity_quadratic_keeps_the_einsum_bits(self):
        x = np.random.default_rng(8).uniform(0.0, 1.0, size=(500, 3))
        d = x - 0.5
        field = quadratic_field(BoxDomain.unit(3))
        assert field(x).tobytes() == np.einsum("...i,ij,...j->...", d, np.eye(3), d).tobytes()
        assert field.gradient(x).tobytes() == (d @ (2.0 * np.eye(3)).T).tobytes()

    def test_analytic_derivatives_take_a_batch(self):
        field = quadratic_field(BoxDomain.unit(2))
        x = np.array([[0.1, 0.2], [0.7, 0.4]])
        assert np.array_equal(field.gradient_at(x), 2.0 * (x - 0.5))
        assert field.hessian_at(x).shape == (2, 2, 2)
        assert field.gradient_at(x[0]).shape == (2,)
