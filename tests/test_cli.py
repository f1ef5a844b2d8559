import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nonlocalopt import BoxDomain, catalog
from nonlocalopt.cli import DEFAULTS, load_config, run_cli
from nonlocalopt.errors import ConfigError
from nonlocalopt.quadrature import NODE_BUDGET
from nonlocalopt.reporting import read_trace_csv

# Runs the CLI under a 1 GiB address-space cap, so that a run that tries a
# huge allocation fails fast instead of exhausting the machine's memory.
_CAPPED = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
    "from nonlocalopt.cli import run_cli\n"
    "sys.exit(run_cli(sys.argv[1:]))\n"
)


def _run_capped(argv, out, timeout=120):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", _CAPPED, *argv, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=timeout,
    )


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{}")
        cfg = load_config(p)
        assert cfg == DEFAULTS

    def test_override_beats_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"kernel": {"n": 4}}))
        cfg = load_config(p, ["kernel.n=32"])
        assert cfg["kernel"]["n"] == 32

    def test_unknown_key_named_in_error(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"kernell": {"n": 4}}))
        with pytest.raises(ConfigError, match="kernell"):
            load_config(p)

    def test_unknown_nested_key_named(self):
        with pytest.raises(ConfigError, match="kernel.sigma"):
            load_config(None, ["kernel.sigma=3"])

    def test_set_merges_a_dict_like_a_config_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"kernel": {"n": 4}}))
        assert load_config(None, ['kernel={"n": 4}']) == load_config(p)
        assert load_config(None, ['kernel={"n": 4}'])["kernel"]["family"] == "gaussian"

    def test_unknown_key_inside_a_dict_named_on_both_routes(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"kernel": {"n": 4, "bogus": 1}}))
        with pytest.raises(ConfigError, match="'kernel.bogus'"):
            load_config(p)
        with pytest.raises(ConfigError, match="'kernel.bogus'"):
            load_config(None, ['kernel={"n": 4, "bogus": 1}'])

    def test_overrides_leave_the_defaults_alone(self):
        load_config(None, ["kernel.n=4", 'descend={"x0": [0.4]}'])
        assert load_config(None) == DEFAULTS
        assert DEFAULTS["kernel"]["n"] == 8 and DEFAULTS["descend"]["x0"] == [0.2]

    def test_json_values_parsed(self):
        cfg = load_config(None, ["check.n_values=[2,4]", "field=sin"])
        assert cfg["check"]["n_values"] == [2, 4]
        assert cfg["field"] == "sin"


class TestExitCodes:
    def test_no_arguments_usage_error(self, capsys):
        assert run_cli([]) == 2

    def test_unknown_command_usage_error(self):
        assert run_cli(["frobnicate"]) == 2

    def test_bad_override_is_config_error(self, tmp_path):
        code = run_cli(
            ["grad-check", "--out", str(tmp_path), "--set", "kernell.n=2"]
        )
        assert code == 2

    def test_grad_check_quadratic_passes(self, tmp_path):
        code = run_cli(
            ["grad-check", "--field", "quadratic", "--n", "16", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "grad_check.csv").exists()
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "config.resolved.json").exists()

    def test_grad_check_failing_tolerance(self, tmp_path):
        code = run_cli(
            [
                "grad-check", "--field", "sin", "--n", "2", "--out", str(tmp_path),
                "--set", "check.tolerance=1e-12",
            ]
        )
        assert code == 1

    def test_hess_check_central(self, tmp_path):
        code = run_cli(
            [
                "hess-check", "--field", "quadratic", "--n", "8", "--out", str(tmp_path),
                "--set", "check.tolerance=1e-5",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("probes,dropped", [(50, 40), (10, 0), (4, 0)])
    def test_hess_check_reports_dropped_probes(self, tmp_path, capsys, probes, dropped):
        code = run_cli(["hess-check", "--field", "quadratic", "--out", str(tmp_path),
                        "--set", f"check.probes={probes}"])
        assert code == 0
        err = capsys.readouterr().err
        summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
        rows = (tmp_path / "hess_check.csv").read_text().splitlines()[1:]
        assert summary["probes_dropped"] == dropped
        assert len(rows) == probes - dropped
        if dropped:
            assert err.count("\n") == 1 and "'check.probes'" in err
            assert f"{probes} probes" in err and "cap of 10" in err and f"{dropped} dropped" in err
        else:
            assert err == ""

    def test_sweep_unknown_check_rejected(self, tmp_path):
        code = run_cli(["sweep", "--check", "bogus", "--out", str(tmp_path)])
        assert code == 2

    def test_sweep_gradient_localization(self, tmp_path):
        code = run_cli(
            [
                "sweep", "--check", "gradient-localization", "--out", str(tmp_path),
                "--set", "check.n_values=[4,8]", "--set", "check.probes=10",
            ]
        )
        assert code == 0
        assert (tmp_path / "sweep_gradient-localization.csv").exists()

    def test_sweep_reads_the_quadrature_resolution(self, tmp_path):
        errors = {}
        for resolution in (8, 16):
            out = tmp_path / str(resolution)
            run_cli(["sweep", "--check", "gradient-localization", "--out", str(out),
                     "--set", f"quadrature.resolution={resolution}",
                     "--set", "check.n_values=[4,8]"])
            errors[resolution] = json.loads((out / "manifest.json").read_text())["summary"]["errors"]
        assert errors[8] != errors[16]


# Each argv is malformed in one value; the text names what the error must say.
MALFORMED = [
    (["grad-check", "--set", "domain=oops"], "'domain'"),
    (["grad-check", "--set", "kernel.n=abc"], "'kernel'"),
    (["grad-check", "--set", "kernel.n=0"], "'kernel'"),
    (["grad-check", "--set", 'kernel.family="cauchy"'], "'kernel'"),
    (["grad-check", "--set", "check.probes=0"], "'check.probes'"),
    (["descend", "--set", "descend.x0=[5.0]"], "'descend.x0'"),
    (["descend", "--set", "descend.x0=[0.2,0.3]"], "'descend.x0'"),
    (["newton", "--set", "newton.x0=[2.0]"], "'newton.x0'"),
    (["sgd", "--set", "sgd.K=0"], "'sgd'"),
    (["pulse", "--set", 'pulse.families=["cauchy"]'], "'pulse'"),
    (["pulse", "--set", "pulse.n_values=[]"], "'pulse'"),
    (["descend", "--set", 'descend.schedule.kind="foo"'], "'descend.schedule'"),
    (["hess-check", "--set", 'hessian.variant="foo"'], "'hessian'"),
    (["grad-check", "--set", "quadrature.pv_epsilon=-1"], "'quadrature.pv_epsilon'"),
    (["pulse", "--set", "pulse.halving_threshold=NaN"], "'pulse'"),
    (["pulse", "--set", "pulse.tolerance=NaN"], "'pulse'"),
    (["pulse", "--set", "pulse.tolerance=-1"], "'pulse'"),
    (["pulse", "--set", "pulse.theta0=5"], "'pulse'"),
    (["pulse", "--set", "pulse.theta0=Infinity"], "'pulse'"),
    (["pulse", "--set", "pulse.theta0=-3"], "'pulse'"),
    (["descend", "--set", 'descend.method="esgd"'], "'descend.method'"),
    (["descend", "--set", 'descend.method="nl-newton"'], "'descend.method'"),
    (["descend", "--set", "descend.schedule.alpha=NaN"], "'descend.schedule'"),
    (["descend", "--set", "descend.schedule.cap=NaN"], "'descend.schedule'"),
    (["grad-check", "--set", "check.tolerance=NaN"], "'check.tolerance'"),
    (["descend", "--set", "descend.grad_tol=NaN"], "'descend.grad_tol'"),
    (["newton", "--set", "newton.grad_tol=NaN"], "'newton.grad_tol'"),
    (["grad-check", "--field", "ridge"], "'field'"),
    (["sweep", "--set", "check.n_values=[]"], "'check.n_values'"),
    (["sweep", "--set", "check=5"], "'check.name'"),
    (["descend", "--workers", "2"], "unrecognized arguments: --workers 2"),
    (["grad-check", "--set", 'kernel.base_scale="nan"'], "'kernel'"),
    (["grad-check", "--set", 'kernel.base_scale="inf"'], "'kernel'"),
    (["hess-check", "--set", 'hessian.variant="fd-nonlocal"', "--set", "hessian.fd_step=0"],
     "'hessian'"),
    (["hess-check", "--set", 'hessian.variant="fd-nonlocal"', "--set", "hessian.fd_step=-1"],
     "'hessian'"),
    (["grad-check", "--set", 'kernel={"family":"gaussian","base_scale":0.1,"n":4,"bogus":1}'],
     "'kernel.bogus'"),
    (["grad-check", "--set", "quadrature.resolution=1"], "'quadrature': resolution"),
    (["sweep", "--set", "quadrature.resolution=2.5"], "'quadrature': resolution"),
    (["descend", "--set", "quadrature.resolution=true"], "'quadrature': resolution"),
    (["grad-check", "--set", 'quadrature.scheme="simpson"'], "'quadrature.scheme'"),
    # Gauss-Legendre is the only rule, so no value of quadrature.scheme is accepted
    (["grad-check", "--set", "quadrature.scheme=gauss"], "'quadrature.scheme'"),
    (["pulse", "--set", "pulse.resolution=512"], "'pulse.resolution'"),
    (["pulse", "--set", 'pulse.families=["gaussian","gaussian"]'], "'pulse'"),
    (["pulse", "--set", "pulse.n_values=[1,2,1]"], "'pulse'"),
    (["sgd", "--seed", "-1"], "--seed"),
    (["sweep", "--check", "taylor-remainder", "--seed", "-1"], "--seed"),
    (["grad-check", "--set", "domain.upper=[Infinity]"], "'domain'"),
    # finite bounds whose side overflows to inf
    (["grad-check", "--set", "domain.lower=[-1e308]", "--set", "domain.upper=[1e308]"],
     "'domain'"),
    (["grad-check", "--set", "kernel.n"], "'kernel.n' is not of the form key=value"),
    (["pulse", "--set", "pulse.families=[]"], "'pulse'"),
    # hess-check's probes lie at least 0.35 from the boundary of the unit interval
    (["hess-check", "--set", 'hessian.variant="fd-nonlocal"', "--set", "hessian.fd_step=0.5"],
     "'hessian.fd_step'"),
    (["grad-check", "--set", f"check.probes={NODE_BUDGET + 1}"],
     f"'check.probes': {NODE_BUDGET + 1} exceeds the node budget"),
    (["newton", "--set", "newton.beta=0"], "'newton.beta': expected a positive finite number"),
]


@pytest.mark.parametrize("argv,names", MALFORMED, ids=[" ".join(a) for a, _ in MALFORMED])
def test_malformed_config_exits_2(tmp_path, capsys, argv, names):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert names in err


# Config files that cannot be used: (file contents, or None for no file; what the error says).
BAD_CONFIG_FILES = [
    (None, "cannot read config file"),
    ("{", "is not valid JSON"),
    ("[1, 2]", "must hold a JSON object"),
]


@pytest.mark.parametrize("text,names", BAD_CONFIG_FILES, ids=["missing", "json", "list"])
def test_bad_config_file_exits_2(tmp_path, capsys, text, names):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert run_cli(["grad-check", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and names in err
    assert not (tmp_path / "out").exists()


def test_field_that_overflows_exits_2(tmp_path, capsys):
    # the quadratic field overflows to inf on a box this long: a typed error, not a traceback
    argv = ["hess-check", "--set", "domain.lower=[0]", "--set", "domain.upper=[1e200]"]
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "field value is not finite" in err


# SGD runs that cannot draw a partner point: (argv, what the error says).
UNDRAWABLE_SGD = [
    # at the start 5e16 every partner x - h rounds onto x
    (["--set", "domain.upper=[1e17]"], "below the float spacing"),
    # nearly every partner of a kernel this wide falls outside (0, 1)
    (["--set", "kernel.base_scale=400"], "could not draw a partner point"),
]


@pytest.mark.parametrize("argv,names", UNDRAWABLE_SGD, ids=["long-box", "wide-kernel"])
def test_sgd_that_cannot_draw_exits_2(tmp_path, capsys, monkeypatch, argv, names):
    import nonlocalopt.optimizers as opt_mod

    monkeypatch.setattr(opt_mod, "_RESAMPLE_CAP", 2)
    assert run_cli(["sgd", *argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and names in err and "Traceback" not in err
    assert not (tmp_path / "manifest.json").exists()


def test_verbose_echoes_the_resolved_configuration(tmp_path, capsys):
    assert run_cli(["grad-check", "-v", "--set", "kernel.n=4", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    echoed = json.loads(out[:out.index("\n}\n") + 2])
    assert echoed == load_config(None, ["kernel.n=4"])
    assert out.startswith((tmp_path / "config.resolved.json").read_text())


# Counts whose arrays would not fit in memory; each is rejected before allocating.
HUGE_COUNTS = [
    (["sgd", "--set", "sgd.K=10000000000"], "'sgd'"),
    (["grad-check", "--set", "check.probes=100000000000"], "'check.probes'"),
    (["sweep", "--check", "sgd-bound", "--set", "check.seeds=100000000000"], "'check.seeds'"),
    (["sweep", "--check", "sgd-bound", "--set", "check.seeds=1000000"], "budget"),
]


@pytest.mark.parametrize("argv,names", HUGE_COUNTS, ids=[" ".join(a) for a, _ in HUGE_COUNTS])
def test_huge_count_exits_2_before_allocating(tmp_path, argv, names):
    proc = _run_capped(argv, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert names in proc.stderr


# A value that only some runs read: (argv of a run that never reads it, exit 0;
# argv of a run that reads it, exit 2 naming it).
UNREAD_SETTINGS = [
    (["sweep", "--check", "moment-c", "--set", "sgd.K=0"],
     ["sweep", "--check", "sgd-bound", "--set", "sgd.K=0"], "'sgd'"),
    (["sweep", "--check", "moment-c", "--set", "check.seeds=0"],
     ["sweep", "--check", "sgd-bound", "--set", "check.seeds=0"], "'check.seeds'"),
    (["descend", "--set", 'descend.method="newton"', "--set", "descend.schedule.alpha=-1"],
     ["descend", "--set", 'descend.method="nlgd"', "--set", "descend.schedule.alpha=-1"],
     "'descend.schedule'"),
    (["hess-check", "--set", "hessian.m=0"],
     ["hess-check", "--set", 'hessian.variant="nested"', "--set", "hessian.m=0"], "'hessian'"),
    (["hess-check", "--set", "hessian.fd_step=0"],
     ["hess-check", "--set", 'hessian.variant="fd-nonlocal"', "--set", "hessian.fd_step=0"],
     "'hessian'"),
    (["hess-check", "--set", 'hessian.variant="nested"', "--set", 'hessian.constant_mode="bogus"'],
     ["hess-check", "--set", 'hessian.constant_mode="bogus"'], "'hessian'"),
    (["sweep", "--check", "moment-c", "--set", "check.probes=0"],
     ["sweep", "--check", "gradient-localization", "--set", "check.probes=0"], "'check.probes'"),
    (["sweep", "--check", "gradient-localization", "--set", "check.tolerance=-1"],
     ["sweep", "--check", "moment-c", "--set", "check.tolerance=-1"], "'check.tolerance'"),
    (["sweep", "--check", "sgd-bound", "--set", "quadrature.resolution=1"],
     ["sweep", "--check", "moment-c", "--set", "quadrature.resolution=1"], "'quadrature'"),
    (["descend", "--set", 'descend.method="gd-ls"', "--set", "descend.schedule.alpha=-1"],
     ["descend", "--set", 'descend.method="gd"', "--set", "descend.schedule.alpha=-1"],
     "'descend.schedule'"),
    (["descend", "--set", 'descend.method="nlgd-ls"', "--set", "descend.schedule.alpha=-1"],
     ["descend", "--set", 'descend.method="nlgd-ls"', "--set", "descend.schedule.cap=-1"],
     "'descend.schedule'"),
]


@pytest.mark.parametrize("unread,read,names", UNREAD_SETTINGS,
                         ids=[" ".join(a) for a, _, _ in UNREAD_SETTINGS])
def test_a_value_is_checked_only_where_it_is_read(tmp_path, capsys, unread, read, names):
    assert run_cli(unread + ["--out", str(tmp_path / "unread")]) == 0
    capsys.readouterr()
    assert run_cli(read + ["--out", str(tmp_path / "read")]) == 2
    assert names in capsys.readouterr().err


def test_singular_curvature_exits_1_with_its_message(tmp_path, capsys):
    argv = ["descend", "--field", "linear", "--set", 'descend.method="newton"']
    assert run_cli(argv + ["--out", str(tmp_path)]) == 1
    message = "classical curvature matrix is singular at iteration 0"
    assert capsys.readouterr().err == f"descend: {message}\n"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["exit_code"] == 1 and manifest["summary"] == {"error": message}
    assert manifest["outputs"] == ["config.resolved.json", "manifest.json"]


def test_newton_on_a_linear_field_exits_1_with_its_error(tmp_path, capsys):
    # its 1x1 curvature is rounding noise, so the step it gives is refused
    argv = ["newton", "--field", "linear", "--set", "newton.x0=[0.3]", "--out", str(tmp_path)]
    assert run_cli(argv) == 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["exit_code"] == 1
    assert manifest["summary"]["error"].startswith("curvature matrix is singular at iteration 0")
    assert capsys.readouterr().err == f"newton: {manifest['summary']['error']}\n"


@pytest.mark.parametrize("lower,upper", [([0.0], [0.4]), ([0.0, 0.0], [1.0, 0.3])])
def test_hessian_localization_sweep_fits_its_bump_in_a_narrow_box(tmp_path, lower, upper):
    # the catalog's bump has a quarter of the shortest side as its radius
    domain = json.dumps({"dim": len(lower), "lower": lower, "upper": upper})
    argv = ["sweep", "--check", "hessian-localization", "--set", f"domain={domain}"]
    assert run_cli(argv + ["--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep_hessian-localization.csv").read_text().splitlines()
    assert rows[0] == "param,error,location" and len(rows) == 1 + 4


def test_moment_sweep_reads_the_tolerance(tmp_path):
    argv = ["sweep", "--check", "moment-c", "--set", "check.n_values=[4,8]"]
    assert run_cli(argv + ["--out", str(tmp_path / "loose")]) == 0
    assert run_cli(argv + ["--out", str(tmp_path / "tight"), "--set", "check.tolerance=1e-30"]) == 1
    summary = json.loads((tmp_path / "tight" / "manifest.json").read_text())["summary"]
    assert summary["within_bound"] is False and max(summary["errors"]) > 1e-30


def _sweep_errors(out, *argv):
    run_cli(["sweep", "--out", str(out), *argv])
    return json.loads((out / "manifest.json").read_text())["summary"]["errors"]


def test_moment_sweep_reads_the_quadrature(tmp_path):
    errors = {res: _sweep_errors(tmp_path / str(res), "--check", "moment-c",
                                 "--set", "check.n_values=[4,8]",
                                 "--set", f"quadrature.resolution={res}")
              for res in (16, 256)}
    assert errors[16] != errors[256]


def test_sgd_bound_sweep_reads_the_sgd_settings(tmp_path):
    argv = ("--check", "sgd-bound", "--set", "check.n_values=[4,8]", "--set", "check.seeds=5")
    default = _sweep_errors(tmp_path / "default", *argv)
    assert _sweep_errors(tmp_path / "K1", *argv, "--set", "sgd.K=1") != default
    assert _sweep_errors(tmp_path / "M1", *argv, "--set", "sgd.M=1.0") != default


SHORT_PULSE = ("--set", 'pulse.families=["gaussian"]', "--set", "pulse.n_values=[1]",
               "--set", "pulse.max_iters=20")
FD_NONLOCAL = ("--set", 'hessian.variant="fd-nonlocal"')


def _pulse_summary(out, *argv):
    code = run_cli(["pulse", *SHORT_PULSE, *argv, "--out", str(out)])
    return code, json.loads((out / "manifest.json").read_text())["summary"]


def test_pulse_run_that_misses_its_tolerance_fails(tmp_path):
    # 20 iterations leave theta_hat about 0.35 from theta* = 0.5
    code, summary = _pulse_summary(tmp_path / "loose", "--set", "pulse.tolerance=0.5")
    assert code == 0 and summary["failed"] == []
    code, summary = _pulse_summary(tmp_path / "tight", "--set", "pulse.tolerance=0.1")
    assert code == 1 and summary["failed"] == ["gaussian-n1"]


def test_pulse_geometry_the_holder_fit_cannot_probe(tmp_path):
    # from theta = 0.4, a pulse this wide would pass the end of the signal
    code, summary = _pulse_summary(tmp_path, "--set", "pulse.pulse_width=0.6")
    assert code == 0 and summary["holder_exponent"] is None
# (command, fixed arguments, the key that gets a hostile value)
FUZZ_CASES = [
    ("grad-check", (), "kernel.base_scale"),
    ("grad-check", (), "kernel.n"),
    ("grad-check", ("--set", 'kernel.family="bump"'), "kernel.base_scale"),
    ("grad-check", (), "quadrature.resolution"),
    ("grad-check", (), "check.probes"),
    ("grad-check", (), "check.tolerance"),
    ("hess-check", (), "hessian.variant"),
    ("hess-check", FD_NONLOCAL, "hessian.fd_step"),
    ("sweep", ("--check", "sgd-bound"), "check.seeds"),
    ("sweep", ("--check", "moment-c"), "check.tolerance"),
    ("sweep", (), "check.n_values"),
    ("sgd", (), "sgd.K"),
    ("sgd", (), "sgd.B"),
    ("sgd", (), "sgd.M"),
    ("descend", (), "descend.max_iters"),
    ("descend", (), "descend.x0"),
    ("descend", (), "descend.schedule.alpha"),
    ("descend", ("--set", 'descend.method="nlgd-ls"'), "descend.schedule.cap"),
    ("newton", (), "newton.beta"),
    ("newton", (), "newton.max_iters"),
    ("newton", (), "newton.x0"),
    ("pulse", SHORT_PULSE, "pulse.alpha"),
    ("pulse", SHORT_PULSE, "pulse.theta0"),
    ("pulse", SHORT_PULSE, "pulse.max_iters"),
    ("pulse", SHORT_PULSE, "pulse.gaussian_base_scale"),
]
HOSTILE = ["NaN", "Infinity", "-Infinity", "-1", "0", "1e-300", str(10**12),
           '"x"', "null", "[]", "{}", "true"]


def _case(command, key):
    return next(c for c in FUZZ_CASES if c[0] == command and c[2] == key)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(case=st.sampled_from(FUZZ_CASES), value=st.sampled_from(HOSTILE))
@example(case=_case("grad-check", "kernel.base_scale"), value="NaN")
@example(case=_case("grad-check", "kernel.base_scale"), value="1e-300")
@example(case=_case("hess-check", "hessian.fd_step"), value="0")
@example(case=_case("hess-check", "hessian.fd_step"), value=str(10**12))
@example(case=_case("sgd", "sgd.K"), value=str(10**12))
@example(case=_case("sgd", "sgd.M"), value="1e-300")
@example(case=_case("grad-check", "check.probes"), value=str(10**12))
@example(case=_case("sweep", "check.seeds"), value=str(10**12))
@example(case=_case("newton", "newton.beta"), value="Infinity")
@example(case=_case("pulse", "pulse.theta0"), value="NaN")
@example(case=_case("pulse", "pulse.max_iters"), value=str(10**12))
def test_hostile_value_never_crashes(tmp_path_factory, case, value):
    command, fixed, key = case
    out = tmp_path_factory.mktemp("fuzz")
    proc = _run_capped([command, *fixed, "--set", f"{key}={value}"], out, timeout=60)
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr


def test_rejected_run_writes_no_resolved_config(tmp_path):
    rejected, accepted = tmp_path / "rejected", tmp_path / "accepted"
    assert run_cli(["grad-check", "--out", str(rejected), "--set", "kernel.n=0"]) == 2
    assert not (rejected / "config.resolved.json").exists()
    assert not (rejected / "manifest.json").exists()
    assert run_cli(["grad-check", "--field", "quadratic", "--out", str(accepted)]) == 0
    manifest = json.loads((accepted / "manifest.json").read_text())
    assert manifest["outputs"] == ["config.resolved.json", "grad_check.csv", "manifest.json"]
    resolved = json.loads((accepted / "config.resolved.json").read_text())
    assert resolved == load_config(None, ["field=quadratic"])


def test_parser_is_built_once_and_keeps_no_overrides(tmp_path):
    from nonlocalopt import cli

    argv = ["grad-check", "--field", "quadratic"]
    assert run_cli([*argv, "--out", str(tmp_path / "a"), "--set", "kernel.n=4"]) == 0
    parser = cli._parser()
    assert run_cli([*argv, "--out", str(tmp_path / "b")]) == 0
    assert cli._parser() is parser
    resolved = [json.loads((tmp_path / d / "config.resolved.json").read_text()) for d in "ab"]
    assert resolved[0]["kernel"]["n"] == 4
    assert resolved[1] == {**DEFAULTS, "field": "quadratic"}
    assert parser.parse_args(argv).overrides == []


@pytest.mark.parametrize("command", ["grad-check", "hess-check", "descend", "sgd", "newton"])
def test_a_run_builds_only_the_field_it_names(tmp_path, monkeypatch, command):
    built = []
    for name, (make, only) in catalog.FIELDS.items():
        monkeypatch.setitem(catalog.FIELDS, name,
                            (lambda domain, n=name, f=make: built.append(n) or f(domain), only))
    field = "quartic" if command == "newton" else "quadratic"
    argv = [command, "--field", field, "--set", "check.probes=1", "--set", "descend.max_iters=1",
            "--set", "sgd.K=1", "--set", "newton.max_iters=1"]
    assert run_cli(argv + ["--out", str(tmp_path)]) == 0
    assert built == [field]


@pytest.mark.parametrize("dim", [1, 2])
def test_unknown_field_names_the_fields_of_its_dimension(tmp_path, capsys, dim):
    domain = json.dumps({"dim": dim, "lower": [0.0] * dim, "upper": [1.0] * dim})
    argv = ["grad-check", "--field", "nope", "--set", f"domain={domain}", "--out", str(tmp_path)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    known = sorted(catalog.field_names(dim))
    assert f"unknown field 'nope'; known: {known}" in err
    assert ("asymmetric-min" in known) == (dim == 1)
    # the whole catalog comes from the same table, in its order
    fields = {n: catalog.catalog_field(n, BoxDomain.unit(dim)) for n in catalog.field_names(dim)}
    assert [f.name for f in fields.values()] == list(fields) == catalog.field_names(dim)


def test_cli_import_loads_no_xml_or_network_modules():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, nonlocalopt.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('xml', 'http', 'email') or m.startswith('urllib.request')))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nonlocalopt.cli"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "usage: nonlocalopt" in proc.stderr


class TestRunsAndArtifacts:
    def test_descend_writes_trace(self, tmp_path):
        code = run_cli(
            [
                "descend", "--field", "quadratic", "--out", str(tmp_path),
                "--set", "descend.max_iters=20",
            ]
        )
        assert code == 0
        cols = read_trace_csv(tmp_path / "trace.csv")
        assert "x" in cols and "objective" in cols
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "descend"
        assert "trace.csv" in manifest["outputs"]

    def test_sgd_run(self, tmp_path):
        code = run_cli(
            [
                "sgd", "--field", "quadratic", "--out", str(tmp_path),
                "--set", "sgd.K=30",
                "--set", 'domain={"dim":1,"lower":[-1.0],"upper":[1.0]}',
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["summary"]["gap_bound"] > 0

    def test_sgd_runs_in_seventy_dimensions(self, tmp_path):
        # building the field evaluates nothing, so no step depends on 2^D corners
        dim = 70
        domain = json.dumps({"dim": dim, "lower": [0.0] * dim, "upper": [1.0] * dim})
        code = run_cli(["sgd", "--field", "quadratic", "--out", str(tmp_path),
                        "--set", f"domain={domain}", "--set", "sgd.B=0.1"])
        assert code == 0
        cols = read_trace_csv(tmp_path / "trace.csv")
        assert list(cols) == ["iter", *(f"x{i}" for i in range(dim)), "objective", "grad_norm",
                              "alpha"]

    def test_newton_run(self, tmp_path):
        code = run_cli(
            [
                "newton", "--field", "quartic", "--out", str(tmp_path),
                "--set", "kernel.n=16", "--set", "newton.max_iters=8",
            ]
        )
        assert code == 0

    def test_descend_dispatches_all_run_spec_methods(self, tmp_path):
        # the run-spec method strings all route through the descend command
        common = [
            "--set", "descend.max_iters=10",
            "--set", "descend.x0=[0.4]",
            "--set", "descend.schedule.alpha=0.05",
            "--set", 'domain={"dim":1,"lower":[-1.0],"upper":[1.0]}',
        ]
        for i, method in enumerate(["nlgd", "nlgd-ls", "gd", "gd-ls", "newton"]):
            out = tmp_path / f"m{i}"
            code = run_cli(
                ["descend", "--field", "quadratic", "--out", str(out),
                 "--set", f'descend.method="{method}"'] + common
            )
            assert code == 0, method
            assert (out / "trace.csv").exists()

    def test_bad_scheme_rejected(self, tmp_path):
        code = run_cli(
            [
                "grad-check", "--out", str(tmp_path),
                "--set", "quadrature.scheme=simpson",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("value", ["1", "-3", "2.5", "true", '"abc"', "[64]"])
    def test_malformed_resolution_rejected(self, tmp_path, value):
        code = run_cli(
            ["grad-check", "--out", str(tmp_path), "--set", f"quadrature.resolution={value}"]
        )
        assert code == 2

    def test_resolution_over_node_budget_rejected(self, tmp_path):
        code = run_cli(
            [
                "sweep", "--check", "gradient-localization", "--out", str(tmp_path),
                "--set", "domain.dim=2", "--set", "domain.lower=[0,0]",
                "--set", "domain.upper=[1,1]", "--set", "quadrature.resolution=5000",
            ]
        )
        assert code == 2

    def test_huge_resolution_exits_2_before_allocating(self, tmp_path):
        # a 50000-node Gauss rule would be an 18.6 GiB matrix
        proc = _run_capped(["grad-check", "--set", "quadrature.resolution=100000"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")

    def test_inconsistent_domain_dim_rejected(self, tmp_path):
        code = run_cli(
            ["descend", "--out", str(tmp_path), "--set", "domain.dim=2"]
        )
        assert code == 2

    def test_pulse_artifacts_and_parseback(self, tmp_path):
        code = run_cli(
            [
                "pulse", "--out", str(tmp_path),
                "--set", 'pulse.families=["gaussian"]',
                "--set", "pulse.n_values=[1,2]",
            ]
        )
        assert code == 0
        for n in (1, 2):
            cols = read_trace_csv(tmp_path / f"pulse_gaussian_n{n}.csv")
            assert abs(cols["theta"][-1] - 0.5) <= 0.02
        assert (tmp_path / "pulse_convergence.svg").exists()

    def test_pulse_from_config_file(self, tmp_path):
        import xml.etree.ElementTree as ET

        cfg = tmp_path / "pulse.json"
        cfg.write_text(
            json.dumps({"pulse": {"families": ["bump"], "n_values": [3], "max_iters": 150}})
        )
        out = tmp_path / "run"
        code = run_cli(["pulse", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        cols = read_trace_csv(out / "pulse_bump_n3.csv")
        assert len(cols["theta"]) >= 2
        ET.parse(out / "pulse_convergence.svg")
        manifest = json.loads((out / "manifest.json").read_text())
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["pulse"]["families"] == ["bump"]
        assert "pulse_bump_n3.csv" in manifest["outputs"]

    def test_deterministic_outputs(self, tmp_path):
        args = [
            "descend", "--field", "sin", "--seed", "3",
            "--set", "descend.max_iters=15",
            "--set", "descend.x0=[0.6]", "--set", "descend.schedule.alpha=0.02",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_resolved_config_reproduces_run(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(
            [
                "descend", "--field", "quadratic", "--out", str(out1),
                "--set", "descend.max_iters=12", "--set", "kernel.n=4",
            ]
        ) == 0
        resolved = out1 / "config.resolved.json"
        assert run_cli(["descend", "--config", str(resolved), "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (
            json.loads((out1 / "config.resolved.json").read_text())
            == json.loads((out2 / "config.resolved.json").read_text())
        )

    @pytest.mark.parametrize("argv", [["sweep", "--check", "taylor-remainder", "--seed", "3"],
                                      ["sgd", "--seed", "5"]])
    def test_record_reproduces_seeded_run(self, tmp_path, argv):
        # config.resolved.json and the manifest's command and seed are all a re-run needs
        first, again = tmp_path / "first", tmp_path / "again"
        assert run_cli([*argv, "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert "config" not in manifest
        assert run_cli([manifest["command"], "--config", str(first / "config.resolved.json"),
                        "--seed", str(manifest["seed"]), "--out", str(again)]) == 0
        csvs = sorted(p.name for p in first.glob("*.csv"))
        assert csvs and csvs == sorted(p.name for p in again.glob("*.csv"))
        for name in csvs:
            assert (first / name).read_bytes() == (again / name).read_bytes(), name
