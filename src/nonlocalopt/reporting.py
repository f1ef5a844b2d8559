"""Deterministic CSV and SVG emission for traces and sweep reports.

CSV numbers carry 17 significant digits (lossless float64 round-trip) and
lines end with LF regardless of platform.  The SVG writer is a minimal
standalone polyline plotter: iteration on x, log-scaled error on y.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .optimizers import OptimizerTrace
from .sweeps import SweepReport


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape``, whose import would load ``urllib`` and ``http`` too."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def trace_header(trace: OptimizerTrace, coord_label: str = "theta") -> list[str]:
    dim = trace.iterates.shape[1]
    coords = [coord_label] if dim == 1 else [f"{coord_label}{i}" for i in range(dim)]
    return ["iter", *coords, "objective", "grad_norm", "alpha"]


def emit_csv(obj, path, coord_label: str = "theta") -> Path:
    """Write a trace or sweep report as CSV; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if isinstance(obj, OptimizerTrace):
            writer.writerow(trace_header(obj, coord_label))
            steps = obj.steps_taken
            for i in range(len(obj)):
                alpha = _fmt(steps[i]) if i < steps.shape[0] else ""
                writer.writerow(
                    [
                        str(i),
                        *(_fmt(v) for v in obj.iterates[i]),
                        _fmt(obj.objective_values[i]),
                        _fmt(obj.gradient_norms[i]),
                        alpha,
                    ]
                )
        elif isinstance(obj, SweepReport):
            writer.writerow(["param", "error", "location"])
            for p, e, loc in obj.rows():
                loc_str = "" if loc is None else ";".join(_fmt(v) for v in loc)
                writer.writerow([str(p), _fmt(e), loc_str])
        else:
            raise TypeError(f"cannot serialize object of type {type(obj)!r}")
    return path


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Parse a trace CSV back into column arrays (empty cells become nan)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols: dict[str, list[float]] = {h: [] for h in header}
    for row in body:
        for h, cell in zip(header, row):
            cols[h].append(float(cell) if cell != "" else math.nan)
    return {h: np.asarray(v) for h, v in cols.items()}


_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f",
]


def emit_plot_svg(
    curves: Sequence[Sequence[float]],
    labels: Sequence[str],
    path,
    title: str = "",
    ylabel: str = "error",
) -> Path:
    """Standalone SVG: one polyline per curve, log-scaled y floored at 1e-16, legend from labels."""
    if not curves:
        raise ValueError("need at least one curve to plot")
    if len(curves) != len(labels):
        raise ValueError("curves and labels must pair up")
    width, height = 720, 480
    ml, mr, mt, mb = 70, 160, 40, 50
    plot_w, plot_h = width - ml - mr, height - mt - mb

    logs = [np.log10(np.maximum(np.asarray(c, dtype=float), 1e-16)) for c in curves]
    ymin = min(float(np.min(c)) for c in logs)
    ymax = max(float(np.max(c)) for c in logs)
    if ymax - ymin < 1e-12:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    xmax = max(max(len(c) - 1, 1) for c in curves)

    def sx(i: float) -> float:
        return ml + plot_w * i / xmax

    def sy(v: float) -> float:
        return mt + plot_h * (ymax - v) / (ymax - ymin)

    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )
    out.write(f'<rect width="{width}" height="{height}" fill="white"/>\n')
    out.write(
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>\n'
    )
    if title:
        out.write(
            f'<text x="{width / 2:.1f}" y="{mt - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(title)}</text>\n'
        )
    # y ticks at integer decades
    for dec in range(math.ceil(ymin), math.floor(ymax) + 1):
        y = sy(dec)
        out.write(
            f'<line x1="{ml - 4}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="#333333"/>\n'
        )
        out.write(
            f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{dec}</text>\n'
        )
    for frac in (0.0, 0.5, 1.0):
        x = ml + plot_w * frac
        out.write(
            f'<line x1="{x:.2f}" y1="{mt + plot_h}" x2="{x:.2f}" y2="{mt + plot_h + 4}" '
            'stroke="#333333"/>\n'
        )
        out.write(
            f'<text x="{x:.2f}" y="{mt + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{frac * xmax:.0f}</text>\n'
        )
    out.write(
        f'<text x="{ml + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">iteration</text>\n'
    )
    out.write(
        f'<text x="18" y="{mt + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {mt + plot_h / 2:.1f})">{_escape(ylabel)}</text>\n'
    )
    for idx, (logc, label) in enumerate(zip(logs, labels)):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(logc))
        out.write(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
        )
        ly = mt + 16 + 18 * idx
        out.write(
            f'<line x1="{width - mr + 10}" y1="{ly}" x2="{width - mr + 34}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>\n'
        )
        out.write(
            f'<text x="{width - mr + 40}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{_escape(str(label))}</text>\n'
        )
    out.write("</svg>\n")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(out.getvalue(), encoding="utf-8", newline="\n")
    return path
