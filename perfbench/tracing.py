"""Per-layer spans for the traced run, recorded from outside the package.

The tracer wraps the public functions of each layer module, plus the few
methods that mark layer boundaries, and records one span per call: layer,
name, start, end, the span that caused it, and a per-call count where one is
meaningful (points evaluated, grid nodes, iterates).  Spans stay in memory;
``run.py`` writes them out when the run ends.

A name is replaced in every ``nonlocalopt`` namespace that holds it, because
``from .operators import nonlocal_gradient`` gives ``optimizers``, ``pulse``,
``sweeps``, ``cli`` and the package root their own references; patching only
the defining module would miss those callers.  A name the package no longer
has is skipped, and the metrics built on it are reported as absent (``None``).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# Package modules that are layers, outermost first.
LAYERS = ("cli", "reporting", "sweeps", "pulse", "optimizers", "operators",
          "quadrature", "kernels", "fields")

# Methods that mark a layer boundary.  ``ScalarField.__call__``/``value`` are
# the boundary into the catalog and pulse-objective callbacks.
METHODS = {
    "fields": {"ScalarField": ("__call__", "value")},
    "kernels": {"RadialKernel": ("radial_density", "sample")},
    "pulse": {"PulseManifold": ("objective",)},
}

# Called once per field evaluation point in the SGD loop; a span here would
# cost more than the work it measures.  Its time stays with its caller.
SKIP = {"as_point"}

GRID_FUNCTIONS = ("build_box_grid", "build_panel_grid", "build_ball_grid")
OPTIMIZER_RUNS = ("nlgd_fixed", "nlgd_linesearch", "nonlocal_newton", "local_counterpart",
                  "epsilon_sgd")

# Span fields.
LAYER, NAME, START, END, PARENT, INFO = range(6)


def _points(args, kwargs, result):
    shape = np.shape(args[1] if len(args) > 1 else kwargs.get("x"))
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _grid_info(signature):
    """Nodes, dimension, and the grid's shape relative to its split point."""

    def info(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        nodes = result.nodes
        split = bound.get("split", bound.get("center"))
        if "lo" in bound and split is not None:
            s = np.asarray(split, dtype=float)
            key = (tuple(np.round(np.asarray(bound["lo"], dtype=float) - s, 12)),
                   tuple(np.round(np.asarray(bound["hi"], dtype=float) - s, 12)))
        else:
            key = tuple(repr(v) for v in bound.values())
        key += (bound.get("resolution"), bound.get("scheme"))
        return nodes.shape[0], nodes.shape[1], key

    return info


def _iterates(args, kwargs, result):
    """Iterates visited by a run (one gradient each), from the trace it returns."""
    for item in result if isinstance(result, tuple) else (result,):
        if hasattr(item, "iterates"):
            return len(item.iterates)
    return 0


def _file_bytes(args, kwargs, result):
    try:
        return os.path.getsize(result)
    except (TypeError, OSError):
        return 0


def _sweep_checks(args, kwargs, result):
    return len(result.param_values)


INFO_HOOKS = {
    "ScalarField.__call__": _points,
    "run_pulse_experiment": _iterates,
    "emit_csv": _file_bytes,
    "emit_plot_svg": _file_bytes,
    "convergence_sweep": _sweep_checks,
    **{name: _iterates for name in OPTIMIZER_RUNS},
}


def _info_hook(name: str, fn):
    if name in GRID_FUNCTIONS:
        return _grid_info(inspect.signature(fn))
    return INFO_HOOKS.get(name)


class Tracer:
    """Installs and removes the span-recording wrappers; collects the spans."""

    def __init__(self, package: str = "nonlocalopt"):
        self.package = package
        self.spans: list[list] = []
        self.found: set[str] = set()
        self._patches: list[tuple[object, str, object, object]] = []
        self._local = threading.local()
        self._main_stack: list[list] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[list]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopting_parent(self):
        """Parent of a worker-thread root: the span the main thread is blocked in."""
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def _wrap(self, layer: str, name: str, fn, info):
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else tracer._adopting_parent(), None]
            stack.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                spans.append(span)
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def _targets(self):
        """(layer, qualified name, owner, attribute, original) for every wrapped callable."""
        for layer in LAYERS:
            module = sys.modules.get(f"{self.package}.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in SKIP):
                    yield layer, attr, module, attr, obj
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                for method in methods:
                    if cls is not None and inspect.isfunction(vars(cls).get(method)):
                        yield layer, f"{cls_name}.{method}", cls, method, vars(cls)[method]

    def install(self) -> None:
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for layer, name, owner, attr, original in self._targets():
            wrapper = self._wrap(layer, name, original, _info_hook(name, original))
            self.found.add(name)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original, wrapper))
                continue
            for ns in namespaces:
                for key, value in vars(ns).items():
                    if value is original:
                        self._patches.append((ns, key, original, wrapper))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """Spans recorded since the last call, handed over and forgotten here."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


# -- per-layer metrics ------------------------------------------------------------


def _self_times(spans: list[list]) -> dict[int, float]:
    """Duration minus the part of the span's interval its children cover.

    Children from worker threads can overlap each other, so the covered part
    is the union of the child intervals, clipped to the parent.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[id(s[PARENT])].append((s[START], s[END]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s[START]
        for a, b in sorted(children.get(id(s), ())):
            a, b = max(a, reach), min(b, s[END])
            if b > a:
                covered += b - a
                reach = b
        out[id(s)] = (s[END] - s[START]) - covered
    return out


def _has_ancestor(span, names) -> bool:
    p = span[PARENT]
    while p is not None:
        if p[NAME] in names:
            return True
        p = p[PARENT]
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], found: set[str]) -> dict[str, tuple]:
    """Per-layer ``(value, unit)`` for one traced pass; ``None`` for an absent name."""
    self_time = _self_times(spans)
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    for s in spans:
        by_name[s[NAME]].append(s)
        layer_self[s[LAYER]] += self_time[id(s)]

    def dur(names):
        return sum(s[END] - s[START] for n in names for s in by_name[n])

    def count(names):
        return sum(len(by_name[n]) for n in names)

    def info_sum(names):
        return sum(s[INFO] or 0 for n in names for s in by_name[n])

    grids = [s for n in GRID_FUNCTIONS for s in by_name[n] if not _has_ancestor(s, GRID_FUNCTIONS)]
    seen, repeats = set(), 0
    for g in sorted(grids, key=lambda s: s[START]):
        repeats += g[INFO][2] in seen
        seen.add(g[INFO][2])
    grad_ms = np.array([(s[END] - s[START]) * 1e3 for s in by_name["nonlocal_gradient"]])
    reporting_roots = [s for s in spans if s[LAYER] == "reporting"
                       and not (s[PARENT] is not None and s[PARENT][LAYER] == "reporting")]
    opt_runs = [s for n in OPTIMIZER_RUNS for s in by_name[n] if not _has_ancestor(s, OPTIMIZER_RUNS)]
    opt_iterates = sum(s[INFO] or 0 for s in opt_runs)
    sgd_steps = sum(max((s[INFO] or 1) - 1, 0) for s in by_name["epsilon_sgd"])
    sgd_draws = sum(1 for s in by_name["RadialKernel.sample"] if _has_ancestor(s, ("epsilon_sgd",)))
    pulse_iterates = info_sum(["run_pulse_experiment"])
    pulse_evals_in_runs = sum(1 for s in by_name["PulseManifold.objective"]
                              if _has_ancestor(s, ("run_pulse_experiment",)))
    field_calls = count(["ScalarField.__call__"])
    field_points = info_sum(["ScalarField.__call__"])

    metrics = {
        "cli.commands": ("count", count(["run_cli"]), ["run_cli"]),
        "cli.self_s": ("s", layer_self["cli"], ["run_cli"]),
        "reporting.calls": ("count", len(reporting_roots), ["emit_csv"]),
        "reporting.s": ("s", sum(s[END] - s[START] for s in reporting_roots), ["emit_csv"]),
        "reporting.bytes": ("bytes", sum(s[INFO] or 0 for s in reporting_roots), ["emit_csv"]),
        "sweeps.checks": ("count", info_sum(["convergence_sweep"]), ["convergence_sweep"]),
        "sweeps.self_s": ("s", layer_self["sweeps"], ["convergence_sweep"]),
        "pulse.runs": ("count", count(["run_pulse_experiment"]), ["run_pulse_experiment"]),
        "pulse.iterations": ("count", pulse_iterates, ["run_pulse_experiment"]),
        "pulse.objective_evals": ("count", count(["PulseManifold.objective"]), ["PulseManifold.objective"]),
        "pulse.objective_evals_per_iter": ("ratio", _ratio(pulse_evals_in_runs, pulse_iterates),
                                           ["PulseManifold.objective", "run_pulse_experiment"]),
        "pulse.objective_s": ("s", dur(["PulseManifold.objective"]), ["PulseManifold.objective"]),
        "optimizers.runs": ("count", len(opt_runs), ["nlgd_fixed"]),
        "optimizers.iterations": ("count", opt_iterates, ["nlgd_fixed"]),
        "optimizers.self_s": ("s", layer_self["optimizers"], ["nlgd_fixed"]),
        "optimizers.us_per_iter": ("us", _ratio(layer_self["optimizers"] * 1e6, opt_iterates),
                                   ["nlgd_fixed"]),
        "optimizers.sgd_steps": ("count", sgd_steps, ["epsilon_sgd"]),
        "optimizers.draws_per_sgd_step": ("ratio", _ratio(sgd_draws, sgd_steps),
                                          ["epsilon_sgd", "RadialKernel.sample"]),
        "operators.grad_calls": ("count", len(grad_ms), ["nonlocal_gradient"]),
        "operators.hess_calls": ("count", count(["nonlocal_hessian"]), ["nonlocal_hessian"]),
        "operators.self_s": ("s", layer_self["operators"], ["nonlocal_gradient"]),
        "operators.grad_ms_p50": ("ms", float(np.percentile(grad_ms, 50)) if grad_ms.size else 0.0,
                                  ["nonlocal_gradient"]),
        "operators.grad_ms_p90": ("ms", float(np.percentile(grad_ms, 90)) if grad_ms.size else 0.0,
                                  ["nonlocal_gradient"]),
        "quadrature.grids": ("count", len(grids), ["build_panel_grid"]),
        "quadrature.nodes": ("count", sum(g[INFO][0] for g in grids), ["build_panel_grid"]),
        "quadrature.build_s": ("s", sum(g[END] - g[START] for g in grids), ["build_panel_grid"]),
        "quadrature.bytes_computed": ("bytes", sum(g[INFO][0] * (g[INFO][1] + 1) * 8 for g in grids),
                                      ["build_panel_grid"]),
        "quadrature.repeat_ratio": ("ratio", _ratio(repeats, len(grids)), ["build_panel_grid"]),
        "kernels.density_calls": ("count", count(["RadialKernel.radial_density"]),
                                  ["RadialKernel.radial_density"]),
        "kernels.density_s": ("s", dur(["RadialKernel.radial_density"]), ["RadialKernel.radial_density"]),
        "kernels.samples": ("count", count(["RadialKernel.sample"]), ["RadialKernel.sample"]),
        "kernels.sample_s": ("s", dur(["RadialKernel.sample"]), ["RadialKernel.sample"]),
        "fields.calls": ("count", field_calls, ["ScalarField.__call__"]),
        "fields.points": ("count", field_points, ["ScalarField.__call__"]),
        "fields.points_per_call": ("ratio", _ratio(field_points, field_calls), ["ScalarField.__call__"]),
        "fields.value_calls": ("count", count(["ScalarField.value"]), ["ScalarField.value"]),
        "fields.s": ("s", layer_self["fields"], ["ScalarField.__call__", "ScalarField.value"]),
    }
    return {name: (float(value) if all(n in found for n in needs) else None, unit)
            for name, (unit, value, needs) in metrics.items()}
