"""Command-line entry point: checks, sweeps, optimizer runs, pulse experiment.

Every run resolves its configuration (file values overridden by ``--set``
key=value pairs and convenience flags), writes CSV/SVG artifacts, and
finishes by echoing the configuration to ``<out>/config.resolved.json`` and
writing a ``manifest.json`` recording what ran; a run rejected with exit 2
writes neither.  Exit codes: 0 success, 1 check failed, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import copy
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import catalog
from .errors import CoincidentPointsError, ConfigError, NodeBudgetError, SingularHessianError
from .fields import BoxDomain, as_point
from .kernels import RadialKernel
from .operators import FD_NONLOCAL, HessianVariant, OperatorConfig
from .optimizers import (
    SgdConfig,
    StepSchedule,
    epsilon_sgd,
    local_counterpart,
    nlgd_fixed,
    nlgd_linesearch,
    nonlocal_newton,
)
from .pulse import (
    PulseRunConfig,
    default_holder_offsets,
    holder_exponent_fit,
    run_pulse_experiment,
)
from .quadrature import GAUSS, MIDPOINT, NODE_BUDGET
from .reporting import emit_csv, emit_plot_svg
from .sweeps import (
    REGISTRY,
    convergence_sweep,
    diagonal_probes,
    gradient_errors,
    hessian_errors,
    sweep_report,
)

COMMANDS = ("grad-check", "hess-check", "sweep", "descend", "sgd", "newton", "pulse")

DEFAULTS: dict = {
    "domain": {"dim": 1, "lower": [0.0], "upper": [1.0]},
    "field": "quadratic",
    "kernel": {"family": "gaussian", "base_scale": 0.1, "n": 8},
    "quadrature": {"resolution": 256, "scheme": "gauss"},
    "check": {
        "name": "gradient-localization",
        "n_values": [4, 8, 16, 32],
        "probes": 50,
        "seeds": 50,
        "tolerance": 1e-6,
    },
    "hessian": {"variant": "central", "m": 16, "fd_step": 1e-5, "constant_mode": "moment"},
    "descend": {
        "method": "nlgd",
        "x0": [0.2],
        "schedule": {"kind": "fixed", "alpha": 0.1, "q": 0.5, "cap": 1.0},
        "max_iters": 200,
        "grad_tol": 1e-8,
    },
    "sgd": {"B": 1.0, "M": 2.0, "K": 100, "epsilon": 0.02},
    "newton": {"x0": [0.3], "beta": 1.0, "max_iters": 25, "grad_tol": 1e-10},
    "pulse": {
        "families": ["gaussian", "bump"],
        "n_values": [1, 2, 3],
        "alpha": 0.1,
        "halving_threshold": 2.5,
        "theta0": 0.1,
        "theta_star": 0.5,
        "max_iters": 200,
        "pulse_width": 0.125,
        "signal_grid": 4096,
        "gaussian_base_scale": None,
        "bump_base_scale": None,
        "resolution": 512,
        "tolerance": 0.02,
    },
}


def _merge(defaults: dict, override: dict, prefix: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        dotted = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key {dotted!r}")
        if isinstance(defaults[key], dict) and isinstance(value, dict):
            out[key] = _merge(defaults[key], value, prefix=f"{dotted}.")
        else:
            out[key] = copy.deepcopy(value)
    return out


def _apply_dotted(config: dict, dotted_key: str, value) -> None:
    parts = dotted_key.split(".")
    node = config
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown config key {dotted_key!r}")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config key {dotted_key!r}")
    node[leaf] = value


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def load_config(path, overrides=()) -> dict:
    """Defaults, overlaid with a JSON file, overlaid with key=value overrides."""
    config = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        config = _merge(config, file_cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        _apply_dotted(config, key.strip(), _parse_value(raw))
    return config


# -- typed config objects ------------------------------------------------------
# Every value a command reads goes through ``_get``, so a value of the wrong type
# or range is reported as a ConfigError naming its key, before anything runs.


def _get(config: dict, key: str, build=lambda value: value):
    """``build`` applied to the value at the dotted ``key``."""
    try:
        value = config
        for part in key.split("."):
            value = value[part]
        return build(value)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _count(value, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"expected an integer >= {minimum}, got {value!r}")
    return value


def _budgeted(value, minimum: int = 1) -> int:
    """A count of probes, seeds or iterations: each one costs at least one stored node."""
    if _count(value, minimum) > NODE_BUDGET:
        raise ValueError(f"{value} exceeds the node budget {NODE_BUDGET}")
    return value


def _positive(value) -> float:
    value = float(value)
    if not 0 < value < np.inf:
        raise ValueError(f"expected a positive finite number, got {value}")
    return value


def _nonnegative(value) -> float:
    """A tolerance: NaN fails the check, so it cannot disable a stop or a verdict."""
    value = float(value)
    if not value >= 0:
        raise ValueError(f"expected a nonnegative number, got {value}")
    return value


def _counts(values) -> list[int]:
    if not isinstance(values, list) or not values:
        raise ValueError(f"expected a nonempty list of integers, got {values!r}")
    return [_count(v) for v in values]


def _registered(name: str) -> str:
    if name not in REGISTRY:
        raise ValueError(f"unknown check {name!r}; registered: {sorted(REGISTRY)}")
    return name


def _domain_from(config: dict) -> BoxDomain:
    def build(d):
        if int(d["dim"]) != len(d["lower"]) or len(d["lower"]) != len(d["upper"]):
            raise ValueError("dim disagrees with the lengths of lower/upper")
        return BoxDomain(tuple(d["lower"]), tuple(d["upper"]))

    return _get(config, "domain", build)


def _kernel_from(config: dict, dim: int) -> RadialKernel:
    return _get(config, "kernel", lambda k: RadialKernel(
        k["family"], dim, _count(k["n"]), float(k["base_scale"])))


def _resolution(config: dict, dim: int) -> int:
    """``quadrature.resolution``, checked before any grid is allocated."""

    def build(r):
        if _count(r, 2) ** dim > NODE_BUDGET:
            raise ValueError(f"resolution**{dim} exceeds the node budget {NODE_BUDGET}")
        return r

    return _get(config, "quadrature.resolution", build)


def _op_config(config: dict, kernel: RadialKernel) -> OperatorConfig:
    scheme = _get(config, "quadrature.scheme", {"gauss": GAUSS, "midpoint": MIDPOINT}.__getitem__)
    return OperatorConfig(kernel, resolution=_resolution(config, kernel.dim), scheme=scheme)


def _field_from(config: dict, domain: BoxDomain, derivative: str = ""):
    """The catalog field named by ``field``, which must declare ``derivative``."""
    fields = catalog(domain)

    def build(name):
        if name not in fields:
            raise ValueError(f"unknown field {name!r}; known: {sorted(fields)}")
        if derivative and getattr(fields[name], derivative) is None:
            raise ValueError(f"field {name!r} has no analytic {derivative} to check against")
        return fields[name]

    return _get(config, "field", build)


def _start(config: dict, key: str, domain: BoxDomain) -> np.ndarray:
    def build(value):
        x = as_point(value, domain.dim)
        if not domain.contains(x):
            raise ValueError(f"{x.tolist()} is not inside the domain")
        return x

    return _get(config, key, build)


def _pulse_runs(config: dict) -> list[PulseRunConfig]:
    def build(p):
        if not isinstance(p["families"], list) or not p["families"]:
            raise ValueError(f"expected a nonempty list of kernel families, got {p['families']!r}")
        return [
            PulseRunConfig(
                family=family,
                n=n,
                base_scale=p.get(f"{family}_base_scale"),
                alpha=float(p["alpha"]),
                halving_threshold=float(p["halving_threshold"]),
                theta0=float(p["theta0"]),
                theta_star=float(p["theta_star"]),
                max_iters=_budgeted(p["max_iters"], 0),
                pulse_width=float(p["pulse_width"]),
                signal_grid=_count(p["signal_grid"], 2),
                resolution=_count(p["resolution"], 2),
                tolerance=float(p["tolerance"]),
            )
            for family in p["families"]
            for n in _counts(p["n_values"])
        ]

    return _get(config, "pulse", build)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Run:
    """Output directory plus manifest bookkeeping for one CLI invocation."""

    def __init__(self, command: str, args, config: dict, argv: list[str]):
        self.command = command
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.args = args
        self.argv = argv
        self.outputs: list[str] = []
        self.summary: dict = {}
        self.start = time.monotonic()

    def add(self, path: Path) -> None:
        self.outputs.append(str(Path(path).relative_to(self.out)))

    def finish(self, exit_code: int) -> int:
        """Write the resolved config and the manifest; a rejected run writes neither."""
        _write_json(self.out / "config.resolved.json", self.config)
        self.outputs.append("config.resolved.json")
        manifest = {
            "command": self.command,
            "argv": self.argv,
            "config": self.config,
            "seed": self.args.seed,
            "outputs": sorted(set(self.outputs + ["manifest.json"])),
            "versions": {
                "nonlocalopt": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "wall_time_s": round(time.monotonic() - self.start, 6),
            "exit_code": exit_code,
            "summary": self.summary,
        }
        _write_json(self.out / "manifest.json", manifest)
        return exit_code


def _cmd_grad_check(run: _Run) -> int:
    config = run.config
    domain = _domain_from(config)
    field = _field_from(config, domain, "gradient")
    kernel = _kernel_from(config, domain.dim)
    op = _op_config(config, kernel)
    tol = _get(config, "check.tolerance", _nonnegative)
    probes = diagonal_probes(domain, _get(config, "check.probes", _budgeted), 0.25, 0.75)
    report = sweep_report("grad-check", range(len(probes)), gradient_errors(field, probes, op),
                          map(tuple, probes), tol)
    run.add(emit_csv(report, run.out / "grad_check.csv"))
    worst = max(report.errors)
    run.summary = {"worst_error": worst, "tolerance": tol, "passed": report.within_bound}
    print(f"grad-check: field={field.name} n={kernel.scale_index} "
          f"worst error {worst:.3e} (tolerance {tol:.1e})")
    return 0 if report.within_bound else 1


def _cmd_hess_check(run: _Run) -> int:
    config = run.config
    domain = _domain_from(config)
    field = _field_from(config, domain, "hessian")
    kernel = _kernel_from(config, domain.dim)
    op = _op_config(config, kernel)
    variant = _get(config, "hessian", lambda h: HessianVariant(
        h["variant"],
        m=_count(h["m"]),
        fd_step=float(h["fd_step"]),
        constant_mode=h["constant_mode"],
    ))
    tol = _get(config, "check.tolerance", _nonnegative)
    count = min(_get(config, "check.probes", _budgeted), 10)
    probes = diagonal_probes(domain, count, 0.35, 0.65)
    if variant.kind == FD_NONLOCAL and variant.fd_step >= min(map(domain.boundary_distance, probes)):
        raise ConfigError("config key 'hessian.fd_step': the difference steps leave the domain")
    report = sweep_report("hess-check", range(count), hessian_errors(field, probes, variant, op),
                          map(tuple, probes), tol)
    run.add(emit_csv(report, run.out / "hess_check.csv"))
    worst = max(report.errors)
    run.summary = {
        "variant": variant.kind,
        "worst_error": worst,
        "tolerance": tol,
        "passed": report.within_bound,
    }
    print(f"hess-check: variant={variant.kind} worst error {worst:.3e} (tolerance {tol:.1e})")
    return 0 if report.within_bound else 1


def _cmd_sweep(run: _Run) -> int:
    config = run.config
    domain = _domain_from(config)
    name = _get(config, "check.name", _registered)
    kernel = _kernel_from(config, domain.dim)
    op = _op_config(config, kernel)
    settings = {
        "domain": domain,
        "kernel": kernel,
        "resolution": op.resolution,
        "scheme": op.scheme,
        "probes": _get(config, "check.probes", _budgeted),
        "seeds": _get(config, "check.seeds", _budgeted),
        "seed": run.args.seed,
        "tolerance": _get(config, "check.tolerance", _nonnegative),
    }
    report = convergence_sweep(name, _get(config, "check.n_values", _counts), settings)
    run.add(emit_csv(report, run.out / f"sweep_{name}.csv"))
    passed = report.within_bound if report.within_bound is not None else report.monotone
    run.summary = {
        "check": name,
        "errors": list(report.errors),
        "monotone": report.monotone,
        "within_bound": report.within_bound,
        "passed": bool(passed),
    }
    print(f"sweep {name}: errors={['%.3e' % e for e in report.errors]} "
          f"monotone={report.monotone} within_bound={report.within_bound}")
    return 0 if passed else 1


def _run_method(run: _Run, method: str):
    """Dispatch one optimizer run per the run-spec method string."""
    config = run.config
    domain = _domain_from(config)
    field = _field_from(config, domain)
    max_iters = _get(config, "descend.max_iters", lambda v: _budgeted(v, 0))
    grad_tol = _get(config, "descend.grad_tol", _nonnegative)
    schedule = _get(config, "descend.schedule", lambda s: StepSchedule(
        s["kind"], alpha=float(s["alpha"]), q=float(s["q"]), cap=float(s["cap"])))
    extra: dict = {}
    if method in ("nlgd", "nlgd-ls", "esgd", "nl-newton"):
        kernel = _kernel_from(config, domain.dim)
    if method in ("nlgd", "nlgd-ls", "gd", "gd-ls", "newton"):
        x0 = _start(config, "descend.x0", domain)
    if method == "nlgd":
        trace = nlgd_fixed(field, x0, _op_config(config, kernel), schedule, max_iters, grad_tol)
    elif method == "nlgd-ls":
        trace = nlgd_linesearch(
            field, x0, _op_config(config, kernel), schedule.cap, max_iters, grad_tol
        )
    elif method == "esgd":
        sgd_cfg = _get(config, "sgd", lambda s: SgdConfig(
            B=float(s["B"]), M=float(s["M"]), K=_budgeted(s["K"]),
            epsilon=float(s["epsilon"]), seed=run.args.seed,
        ))
        x_bar, trace = epsilon_sgd(field, sgd_cfg, kernel)
        extra = {
            "x_bar": [float(v) for v in x_bar],
            "value_at_x_bar": field.value(x_bar),
            "gap_bound": sgd_cfg.gap_bound,
        }
    elif method == "nl-newton":
        trace = nonlocal_newton(
            field,
            _start(config, "newton.x0", domain),
            _op_config(config, kernel),
            max_iters=_get(config, "newton.max_iters", lambda v: _budgeted(v, 0)),
            grad_tol=_get(config, "newton.grad_tol", _nonnegative),
            beta=_get(config, "newton.beta", _positive),
        )
    elif method in ("gd", "gd-ls", "newton"):
        trace = local_counterpart(field, x0, method, schedule, max_iters, grad_tol)
    else:
        raise ConfigError(f"unknown config key 'descend.method' value {method!r}")
    return field, trace, extra


def _cmd_descend(run: _Run) -> int:
    method = _get(run.config, "descend.method")
    try:
        field, trace, extra = _run_method(run, method)
    except SingularHessianError as exc:
        print(f"descend: {exc}", file=sys.stderr)
        run.summary = {"error": str(exc)}
        return 1
    run.add(emit_csv(trace, run.out / "trace.csv", coord_label="x"))
    run.summary = {
        "method": method,
        "termination": trace.termination,
        "final_point": [float(v) for v in trace.final_point],
        "final_value": float(trace.objective_values[-1]),
        **extra,
    }
    print(f"descend {method}: {trace.termination} after {len(trace) - 1} steps, "
          f"final value {trace.objective_values[-1]:.6g}")
    return 0 if trace.termination in ("grad-tol", "max-iters") else 1


def _cmd_sgd(run: _Run) -> int:
    field, trace, extra = _run_method(run, "esgd")
    run.add(emit_csv(trace, run.out / "trace.csv", coord_label="x"))
    run.summary = {"termination": trace.termination, **extra}
    print(f"sgd: averaged point {extra['x_bar']}, value {extra['value_at_x_bar']:.6g}, "
          f"bound {extra['gap_bound']:.3g}")
    return 0 if trace.termination == "max-iters" else 1


def _cmd_newton(run: _Run) -> int:
    try:
        field, trace, _ = _run_method(run, "nl-newton")
    except SingularHessianError as exc:
        print(f"newton: {exc}", file=sys.stderr)
        run.summary = {"error": str(exc)}
        return 1
    run.add(emit_csv(trace, run.out / "trace.csv", coord_label="x"))
    run.summary = {
        "termination": trace.termination,
        "final_point": [float(v) for v in trace.final_point],
        "final_grad_norm": float(trace.gradient_norms[-1]),
    }
    print(f"newton: {trace.termination} after {len(trace) - 1} steps at {trace.final_point}")
    return 0 if trace.termination in ("grad-tol", "max-iters") else 1


def _cmd_pulse(run: _Run) -> int:
    configs = _pulse_runs(run.config)
    curves, labels = [], []
    summaries = []
    failed = []
    for cfg in configs:
        trace, summary = run_pulse_experiment(cfg)
        label = f"{cfg.family}-n{cfg.n}"
        run.add(emit_csv(trace, run.out / f"pulse_{cfg.family}_n{cfg.n}.csv"))
        curves.append(np.abs(trace.iterates[:, 0] - cfg.theta_star))
        labels.append(label)
        summaries.append(summary.__dict__)
        if not summary.converged:
            failed.append(label)
    run.add(
        emit_plot_svg(
            curves,
            labels,
            run.out / "pulse_convergence.svg",
            title="pulse shift recovery",
            ylabel="|theta - theta*|",
        )
    )
    manifold = configs[0].manifold()
    try:
        slope = holder_exponent_fit(manifold, 0.4, default_holder_offsets(manifold))
        if abs(slope + 0.5) > 0.02:
            failed.append("holder-exponent")
        print(f"pulse scaling-exponent fit: {slope:.4f} (want -0.5 +- 0.02)")
    except ValueError:
        slope = None  # nonstandard width/template geometry: fit not probed
    run.summary = {"runs": summaries, "failed": failed, "holder_exponent": slope}
    for s in summaries:
        print(
            f"pulse {s['family']} n={s['n']}: theta_hat={s['theta_hat']:.4f} "
            f"|err|={s['abs_error']:.4f} iters_to_tol={s['iterations_to_tolerance']} "
            f"monotone={s['objective_monotone']}"
        )
    return 0 if not failed else 1


_HANDLERS = {
    "grad-check": _cmd_grad_check,
    "hess-check": _cmd_hess_check,
    "sweep": _cmd_sweep,
    "descend": _cmd_descend,
    "sgd": _cmd_sgd,
    "newton": _cmd_newton,
    "pulse": _cmd_pulse,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonlocalopt",
        description="Kernel-smoothed differential operators and the descent methods on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="JSON config file")
        cmd.add_argument("--out", default=f"out/{name}", help="output directory")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument(
            "-v", "--verbose", action="count", default=0,
            help="echo the resolved configuration and extra run detail",
        )
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted config override, repeatable",
        )
        if name in ("grad-check", "hess-check", "descend", "sgd", "newton"):
            cmd.add_argument("--field", default=None, help="catalog field name")
        if name in ("grad-check", "hess-check"):
            cmd.add_argument("--n", type=int, default=None, help="kernel scale index")
        if name == "sweep":
            cmd.add_argument("--check", default=None, help="registered check name")
    return parser


def run_cli(argv=None) -> int:
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(raw_argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    overrides = list(args.overrides)
    if getattr(args, "field", None):
        overrides.append(f"field={args.field}")
    if getattr(args, "n", None) is not None:
        overrides.append(f"kernel.n={args.n}")
    if getattr(args, "check", None):
        overrides.append(f'check.name="{args.check}"')
    try:
        config = load_config(args.config, overrides)
        if args.verbose:
            print(json.dumps(config, indent=2, sort_keys=True))
        run = _Run(args.command, args, config, raw_argv)
        code = _HANDLERS[args.command](run)
        return run.finish(code)
    except (ConfigError, NodeBudgetError, CoincidentPointsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
