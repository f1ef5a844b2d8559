import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonlocalopt import (
    OperatorConfig,
    OptimizerTrace,
    PulseManifold,
    PulseRunConfig,
    RadialKernel,
    default_holder_offsets,
    emit_csv,
    emit_plot_svg,
    holder_exponent_fit,
    nonlocal_gradient,
    read_trace_csv,
    run_pulse_experiment,
)


@pytest.fixture(scope="module")
def manifold():
    return PulseManifold()


class TestObjective:
    def test_zero_at_template(self, manifold):
        assert manifold.objective(0.5) == 0.0

    def test_disjoint_supports_closed_form(self, manifold):
        # |theta - theta*| >= width and no clipping: sqrt(2 * 0.125) = 0.5
        for theta in (0.1, 0.2, 0.825):
            assert manifold.objective(theta) == pytest.approx(0.5, abs=1e-12)

    def test_small_offset_sliver_value(self, manifold):
        # two slivers of width 0.01: sqrt(0.02), up to one-cell grid error
        val = manifold.objective(0.51)
        assert val == pytest.approx(math.sqrt(0.02), abs=2e-3)

    def test_out_of_range_rejected(self, manifold):
        with pytest.raises(ValueError):
            manifold.objective(1.2)

    def test_symmetry_about_template(self, manifold):
        for delta in (0.01, 0.05, 0.1):
            left = manifold.objective(0.5 - delta)
            right = manifold.objective(0.5 + delta)
            assert left == pytest.approx(right, abs=2e-3)

    def test_positive_away_from_template(self, manifold):
        thetas = np.linspace(0.0, 0.875, 200)
        vals = manifold.objective(thetas)
        mask = np.abs(thetas - 0.5) > 1e-3
        assert np.all(vals[mask] > 0)

    def test_signal_samples(self, manifold):
        sig = manifold.signal(0.5)
        assert sig.sum() == pytest.approx(0.125 * manifold.signal_grid)

    def test_width_validation(self):
        # degenerate constant manifold is rejected outright
        with pytest.raises(ValueError):
            PulseManifold(pulse_width=0.0)


class TestHolderFit:
    def test_exponent_default_offsets(self, manifold):
        offsets = default_holder_offsets(manifold)
        slope = holder_exponent_fit(manifold, 0.4, offsets)
        assert slope == pytest.approx(-0.5, abs=0.02)

    def test_exponent_across_centers(self, manifold):
        offsets = default_holder_offsets(manifold)
        for center in (0.2, 0.3, 0.4, 0.5, 0.6):
            slope = holder_exponent_fit(manifold, center, offsets)
            assert slope == pytest.approx(-0.5, abs=0.02)

    def test_scale_invariance_of_slope(self, manifold):
        offsets = default_holder_offsets(manifold)
        a = holder_exponent_fit(manifold, 0.4, offsets)
        b = holder_exponent_fit(manifold, 0.4, 2 * offsets)
        assert a == pytest.approx(b, abs=5e-3)

    def test_degenerate_offsets_rejected(self, manifold):
        with pytest.raises(ValueError):
            holder_exponent_fit(manifold, 0.4, [0.01])
        with pytest.raises(ValueError):
            holder_exponent_fit(manifold, 0.4, [0.2, 0.3])  # beyond pulse width

    def test_clipping_region_rejected(self, manifold):
        with pytest.raises(ValueError):
            holder_exponent_fit(manifold, 0.87, [0.005, 0.01])


class TestSmoothedGradient:
    def test_finite_everywhere_all_kernels(self, manifold):
        field = manifold.objective_field()
        probes = np.linspace(0.02, 0.98, 200)
        for family, base in (("gaussian", 1.8), ("bump", 3.5)):
            for n in (1, 2, 3):
                cfg = OperatorConfig(RadialKernel(family, 1, n, base), resolution=256)
                vals = [nonlocal_gradient(field, [t], cfg)[0] for t in probes]
                assert np.all(np.isfinite(vals)), (family, n)

    def test_flat_region_pull_toward_basin(self, manifold):
        # at theta = 0.3 the objective is locally flat; a wide kernel still
        # produces a descent direction pointing at the basin
        field = manifold.objective_field()
        for family, base in (("gaussian", 1.8), ("bump", 3.5)):
            cfg = OperatorConfig(RadialKernel(family, 1, 1, base), resolution=512)
            g = nonlocal_gradient(field, [0.3], cfg)[0]
            assert g < 0  # update theta - alpha*g moves right, toward 0.5


class TestRunExperiment:
    def test_start_at_template_immediate(self):
        cfg = PulseRunConfig(family="gaussian", n=1, theta0=0.5)
        trace, summary = run_pulse_experiment(cfg)
        assert len(trace) == 1
        assert summary.abs_error == 0.0
        assert summary.converged

    def test_gaussian_defaults_converge(self):
        for n in (1, 2, 3):
            trace, summary = run_pulse_experiment(PulseRunConfig(family="gaussian", n=n))
            assert summary.converged, (n, summary)
            assert summary.iterations <= 200

    def test_bump_n3_converges_nonmonotone(self):
        trace, summary = run_pulse_experiment(PulseRunConfig(family="bump", n=3))
        assert summary.converged
        assert not summary.objective_monotone
        assert np.any(np.diff(trace.objective_values) > 0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            PulseRunConfig(alpha=1.5)
        with pytest.raises(ValueError):
            PulseRunConfig(halving_threshold=0.9)
        with pytest.raises(ValueError):
            PulseRunConfig(theta0=math.nan)
        for bad in ({"halving_threshold": math.nan}, {"tolerance": math.nan}, {"tolerance": -0.1}):
            with pytest.raises(ValueError):
                PulseRunConfig(**bad)

    def test_trace_alpha_column_halvings(self):
        trace, summary = run_pulse_experiment(PulseRunConfig(family="gaussian", n=3))
        steps = trace.steps_taken
        assert np.all(steps > 0)
        assert np.all(np.isin(np.round(0.1 / steps), 2.0 ** np.arange(0, 30)))


class TestEmission:
    def _tiny_trace(self):
        return OptimizerTrace(
            iterates=np.array([[0.1], [0.2], [0.3]]),
            objective_values=np.array([3.0, 2.0, 1.0]),
            gradient_norms=np.array([1.0, 0.5, 0.25]),
            steps_taken=np.array([0.5, 0.5]),
            termination="max-iters",
        )

    def test_empty_trace_header_only(self, tmp_path):
        trace = OptimizerTrace(
            iterates=np.zeros((0, 1)),
            objective_values=np.zeros(0),
            gradient_norms=np.zeros(0),
            steps_taken=np.zeros(0),
            termination="max-iters",
        )
        path = emit_csv(trace, tmp_path / "empty.csv")
        lines = path.read_text().splitlines()
        assert lines == ["iter,theta,objective,grad_norm,alpha"]

    def test_three_row_trace_four_lines(self, tmp_path):
        path = emit_csv(self._tiny_trace(), tmp_path / "t.csv")
        assert len(path.read_text().splitlines()) == 4

    def test_lf_line_endings(self, tmp_path):
        path = emit_csv(self._tiny_trace(), tmp_path / "t.csv")
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_roundtrip_bit_equal(self, tmp_path):
        trace, _ = run_pulse_experiment(PulseRunConfig(family="gaussian", n=2, max_iters=40))
        path = emit_csv(trace, tmp_path / "run.csv")
        cols = read_trace_csv(path)
        assert np.array_equal(cols["theta"], trace.iterates[:, 0])
        assert np.array_equal(cols["objective"], trace.objective_values)
        assert np.array_equal(cols["grad_norm"], trace.gradient_norms)
        assert np.array_equal(cols["alpha"][:-1], trace.steps_taken)
        assert math.isnan(cols["alpha"][-1])

    def test_svg_single_flat_curve(self, tmp_path):
        path = emit_plot_svg([[0.5] * 10], ["flat"], tmp_path / "one.svg")
        root = ET.parse(path).getroot()
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 1
        ys = {pt.split(",")[1] for pt in polylines[0].attrib["points"].split()}
        assert len(ys) == 1  # horizontal line

    def test_svg_two_curves_with_legend(self, tmp_path):
        path = emit_plot_svg(
            [[1.0, 0.1, 0.01], [1.0, 0.5, 0.25]], ["a", "b"], tmp_path / "two.svg"
        )
        root = ET.parse(path).getroot()
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        texts = [e.text for e in root.iter() if e.tag.endswith("text")]
        assert len(polylines) == 2
        assert "a" in texts and "b" in texts

    def test_svg_well_formed_xml(self, tmp_path):
        trace, _ = run_pulse_experiment(PulseRunConfig(family="bump", n=1, max_iters=30))
        errs = np.abs(trace.iterates[:, 0] - 0.5)
        path = emit_plot_svg([errs], ["bump-n1"], tmp_path / "conv.svg")
        ET.parse(path)  # raises on malformed XML


class TestManifoldProperties:
    @given(
        a=st.floats(0.0, 0.85),
        b=st.floats(0.0, 0.85),
    )
    @settings(max_examples=50)
    def test_distance_symmetry(self, a, b):
        man = PulseManifold()
        assert man.distance(a, b) == man.distance(b, a)

    @given(theta=st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_objective_nonnegative_and_bounded(self, theta):
        man = PulseManifold()
        val = man.objective(theta)
        assert 0.0 <= val <= 1.0
