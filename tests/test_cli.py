import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nonlocalopt.cli import DEFAULTS, load_config, run_cli
from nonlocalopt.errors import ConfigError
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

    def test_sweep_reads_the_quadrature_scheme(self, tmp_path):
        errors = {}
        for scheme in ("gauss", "midpoint"):
            out = tmp_path / scheme
            run_cli(["sweep", "--check", "gradient-localization", "--out", str(out),
                     "--set", "quadrature.resolution=16", "--set", "check.n_values=[4,8]",
                     "--set", f"quadrature.scheme={scheme}"])
            errors[scheme] = json.loads((out / "manifest.json").read_text())["summary"]["errors"]
        assert errors["gauss"] != errors["midpoint"]


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
]


@pytest.mark.parametrize("argv,names", MALFORMED, ids=[" ".join(a) for a, _ in MALFORMED])
def test_malformed_config_exits_2(tmp_path, capsys, argv, names):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert names in err


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


def test_moment_sweep_reads_the_tolerance(tmp_path):
    argv = ["sweep", "--check", "moment-c", "--set", "check.n_values=[4,8]"]
    assert run_cli(argv + ["--out", str(tmp_path / "loose")]) == 0
    assert run_cli(argv + ["--out", str(tmp_path / "tight"), "--set", "check.tolerance=1e-30"]) == 1
    summary = json.loads((tmp_path / "tight" / "manifest.json").read_text())["summary"]
    assert summary["within_bound"] is False and max(summary["errors"]) > 1e-30


SHORT_PULSE = ("--set", 'pulse.families=["gaussian"]', "--set", "pulse.n_values=[1]",
               "--set", "pulse.max_iters=20")
FD_NONLOCAL = ("--set", 'hessian.variant="fd-nonlocal"')
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
    assert json.loads((accepted / "config.resolved.json").read_text()) == manifest["config"]


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
            "--set", "sgd.K=10",
            "--set", "newton.x0=[0.4]", "--set", "newton.max_iters=5",
        ]
        for i, method in enumerate(["nlgd", "nlgd-ls", "esgd", "nl-newton", "gd", "newton"]):
            out = tmp_path / f"m{i}"
            code = run_cli(
                ["descend", "--field", "quadratic", "--out", str(out),
                 "--set", f'descend.method="{method}"'] + common
            )
            assert code == 0, method
            assert (out / "trace.csv").exists()

    def test_midpoint_scheme_accepted(self, tmp_path):
        code = run_cli(
            [
                "grad-check", "--field", "quadratic", "--n", "8", "--out", str(tmp_path),
                "--set", "quadrature.scheme=midpoint",
                "--set", "quadrature.resolution=512",
                "--set", "check.tolerance=1e-5",
            ]
        )
        assert code == 0

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
        assert manifest["config"]["pulse"]["families"] == ["bump"]
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
