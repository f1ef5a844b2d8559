"""Malformed inputs to the library raise their typed errors, with a message that names them."""

import numpy as np
import pytest

from nonlocalopt import (
    NESTED,
    BoxDomain,
    HessianVariant,
    OperatorConfig,
    OptimizerTrace,
    PulseManifold,
    RadialKernel,
    ScalarField,
    SubsetIndicator,
    directional_second_moments,
    emit_csv,
    emit_plot_svg,
    find_vanishing_subset_1d,
    gaussian_kernel,
    holder_exponent_fit,
    local_counterpart,
    nonlocal_hessian,
)
from nonlocalopt.catalog import asymmetric_min_field, bump_field, quadratic_field, sin_field
from nonlocalopt.errors import DimensionMismatchError, MissingDerivativeError, NodeBudgetError
from nonlocalopt.quadrature import rule_1d


def _trace(values, norms, steps):
    return OptimizerTrace(np.zeros((3, 1)), np.zeros(values), np.zeros(norms), np.zeros(steps),
                          "max-iters")


def _bare_field():
    return ScalarField(quadratic_field(BoxDomain.unit(1)).fn, BoxDomain.unit(1), name="bare")


# (id, call of a temporary directory, error type, message pattern)
MALFORMED = [
    ("subset-search-in-2d", lambda _: find_vanishing_subset_1d(
        sin_field(BoxDomain.unit(2)), [0.5, 0.5], OperatorConfig(gaussian_kernel(2, 8), 32)),
     ValueError, "1-D fields only"),
    ("nested-without-m", lambda _: HessianVariant(NESTED), ValueError, "outer scale index"),
    # a 2-D nested Hessian at resolution 100: 10,000 outer nodes times 10,000 inner ones
    ("nested-over-budget", lambda _: nonlocal_hessian(
        sin_field(BoxDomain.unit(2)), [0.5, 0.5], HessianVariant(NESTED, m=8),
        OperatorConfig(gaussian_kernel(2, 8), 100)), NodeBudgetError, "budget"),
    ("moments-on-the-boundary", lambda _: directional_second_moments(
        BoxDomain.unit(1), [1.0], OperatorConfig(gaussian_kernel(1, 8), 64)),
     ValueError, "interior point"),
    ("trace-values-per-iterate", lambda _: _trace(2, 3, 2), ValueError, "one entry per iterate"),
    ("trace-steps-per-iterate", lambda _: _trace(3, 3, 3), ValueError, "one shorter"),
    ("unknown-local-method", lambda _: local_counterpart(
        quadratic_field(BoxDomain.unit(1)), [0.5], "bfgs"), ValueError, "unknown local method"),
    ("box-bounds-of-two-lengths", lambda _: BoxDomain((0.0, 0.0), (1.0,)),
     DimensionMismatchError, "equal, positive length"),
    ("no-analytic-gradient", lambda _: _bare_field().gradient_at([0.5]),
     MissingDerivativeError, "no analytic gradient"),
    ("no-analytic-hessian", lambda _: _bare_field().hessian_at([0.5]),
     MissingDerivativeError, "no analytic hessian"),
    ("subset-box-of-another-dimension", lambda _: SubsetIndicator.from_boxes(
        [((0.0,), (1.0, 1.0))], 2), DimensionMismatchError, "subset box dimension"),
    ("subset-point-of-another-dimension", lambda _: SubsetIndicator.from_intervals(
        [(0.1, 0.2)]).membership([0.1, 0.2]), DimensionMismatchError, "subset dimension"),
    ("kernel-of-no-dimension", lambda _: RadialKernel("gaussian", 0, 1, 0.1),
     DimensionMismatchError, "dimension must be positive"),
    ("kernel-scale-index-0", lambda _: RadialKernel("gaussian", 1, 0, 0.1),
     ValueError, "scale index"),
    ("tail-mass-at-0", lambda _: gaussian_kernel(1, 4).tail_mass(0.0), ValueError, "delta"),
    ("pulse-grid-of-one-cell", lambda _: PulseManifold(signal_grid=1), ValueError, "two cells"),
    ("pulse-template-past-1", lambda _: PulseManifold(template_theta=1.5),
     ValueError, "template shift"),
    ("pulse-shifts-past-1", lambda _: PulseManifold().objective(np.array([0.2, 1.5])),
     ValueError, "shift parameter"),
    ("holder-offsets-repeated", lambda _: holder_exponent_fit(
        PulseManifold(), 0.5, [0.01, 0.01, 0.02]), ValueError, "distinct"),
    # shifts of a millionth move no pulse edge across a cell of the 4,096-cell grid
    ("holder-offsets-below-a-cell", lambda _: holder_exponent_fit(
        PulseManifold(), 0.5, [1e-6, 2e-6]), ValueError, "zero distance"),
    ("gauss-rule-of-no-nodes", lambda _: rule_1d(0.0, 1.0, 0), ValueError, "at least one node"),
    ("csv-of-an-unknown-object", lambda tmp: emit_csv(object(), tmp / "x.csv"),
     TypeError, "cannot serialize"),
    ("plot-of-no-curves", lambda tmp: emit_plot_svg([], [], tmp / "x.svg"),
     ValueError, "at least one curve"),
    ("plot-labels-unpaired", lambda tmp: emit_plot_svg([[1.0, 0.5]], [], tmp / "x.svg"),
     ValueError, "pair up"),
    ("asymmetric-min-in-2d", lambda _: asymmetric_min_field(BoxDomain.unit(2)),
     ValueError, "is 1-D"),
    ("bump-support-past-the-domain", lambda _: bump_field(BoxDomain.unit(1), radius=0.6),
     ValueError, "strictly inside the domain"),
]


@pytest.mark.parametrize("call,error,message", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_raises_its_typed_error(tmp_path, call, error, message):
    with pytest.raises(error, match=message) as raised:
        call(tmp_path)
    assert type(raised.value) is error
