"""Trace CSVs: the bytes ``csv.writer`` rows give, and a lossless round trip."""

import csv
import math

import numpy as np
import pytest

from nonlocalopt.optimizers import OptimizerTrace
from nonlocalopt.reporting import _fmt, emit_csv, read_trace_csv, trace_header

SUBNORMAL = 5e-324


def reference_csv(trace, path, coord_label="theta"):
    """The row-by-row ``csv.writer`` loop that ``emit_csv`` replaced."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(trace_header(trace, coord_label))
        steps = trace.steps_taken
        for i in range(len(trace)):
            alpha = _fmt(steps[i]) if i < steps.shape[0] else ""
            writer.writerow([str(i), *(_fmt(v) for v in trace.iterates[i]),
                             _fmt(trace.objective_values[i]), _fmt(trace.gradient_norms[i]), alpha])


def trace(iterates, values, norms, steps):
    return OptimizerTrace(np.array(iterates, dtype=float), np.array(values, dtype=float),
                          np.array(norms, dtype=float), np.array(steps, dtype=float), "max-iters")


TRACES = {
    "1d": trace([[0.1], [-0.0], [SUBNORMAL]], [0.3, math.inf, 1e300], [-0.0, 2.5, math.nan],
                [0.1, 1 / 3]),
    "3d": trace([[0.1, -0.0, math.inf], [SUBNORMAL, -1e-310, 1 / 3]], [0.0, -math.inf],
                [1e-17, math.nan], [-0.0]),
    # SGD draws no direction at its last iterate, so its last gradient norm is nan
    "sgd-end": trace([[0.5], [0.49987469295282905]], [0.25, 1.57e-8], [2.0, math.nan], [0.05]),
    "one-row": trace([[0.2]], [0.04], [0.4], []),
}


@pytest.mark.parametrize("label", ["theta", "x"])
@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_csv_is_the_csv_writer_bytes(tmp_path, name, label):
    t = TRACES[name]
    reference_csv(t, tmp_path / "reference.csv", label)
    written = emit_csv(t, tmp_path / "trace.csv", coord_label=label)
    assert written.read_bytes() == (tmp_path / "reference.csv").read_bytes()
    cols = read_trace_csv(written)
    coords = [label] if t.iterates.shape[1] == 1 else [f"{label}{i}" for i in range(3)]
    got = np.stack([cols[c] for c in coords], axis=1)
    for a, b in ((got, t.iterates), (cols["objective"], t.objective_values),
                 (cols["grad_norm"], t.gradient_norms), (cols["alpha"][:-1], t.steps_taken)):
        assert np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))
    assert math.isnan(cols["alpha"][-1])
