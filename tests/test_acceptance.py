"""Acceptance gate: one test per stated criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Tolerances are pinned here and nowhere else; every expected value is either
trivial, produced by an independent oracle (closed form, finite differences,
Monte Carlo), or a verified constant.
"""

import time

import numpy as np

from nonlocalopt import (
    ALTERNATE_CONSTANT,
    CENTRAL,
    MOMENT_CONSTANT,
    BoxDomain,
    HessianVariant,
    OperatorConfig,
    PulseManifold,
    PulseRunConfig,
    SgdConfig,
    StepSchedule,
    default_holder_offsets,
    emit_csv,
    emit_plot_svg,
    epsilon_sgd_batch,
    find_vanishing_subset_1d,
    gaussian_kernel,
    bump_kernel,
    holder_exponent_fit,
    local_counterpart,
    nlgd_fixed,
    nonlocal_gradient,
    nonlocal_hessian,
    nonlocal_newton,
    read_trace_csv,
    restricted_nonlocal_gradient,
    run_pulse_experiment,
)
from nonlocalopt.catalog import (
    asymmetric_min_field,
    bump_field,
    quadratic_field,
    quartic_field,
    ridge_field,
    sin_field,
)
from nonlocalopt.oracles import mc_nonlocal_gradient

UNIT = BoxDomain.unit(1)
SQUARE = BoxDomain.unit(2)


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"acceptance {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    return ok


def strictly_decreasing(values, floor=1e-9):
    inversions = sum(1 for a, b in zip(values, values[1:]) if b >= a)
    soft = all(b - a <= floor for a, b in zip(values, values[1:]))
    return (inversions == 0) or (inversions <= 1 and soft)


def test_criterion_1_gradient_localization():
    start = time.perf_counter()
    field = sin_field(UNIT)
    probes = np.linspace(0.2, 0.8, 50)
    sups = []
    for n in (4, 8, 16, 32):
        config = OperatorConfig(gaussian_kernel(1, n, 0.1), resolution=512)
        sups.append(
            max(
                abs(nonlocal_gradient(field, [x], config)[0] - field.gradient_at([x])[0])
                for x in probes
            )
        )
    elapsed = time.perf_counter() - start
    ok = (
        all(b < a for a, b in zip(sups, sups[1:]))
        and sups[-1] <= 1e-3
        and elapsed < 10.0
    )
    assert verdict(
        1, ok, f"gradient localization sups={['%.2e' % s for s in sups]} ({elapsed:.1f}s)"
    )


def test_criterion_2_quadratic_exactness():
    start = time.perf_counter()
    checks = []
    # D = 1: u = (x - 1/2)^2, gradient 2(x - 1/2)
    f1 = quadratic_field(UNIT)
    k1 = gaussian_kernel(1, 8, 0.1)
    c1 = OperatorConfig(k1, resolution=512)
    for x in (0.3, 0.5, 0.7):
        g = nonlocal_gradient(f1, [x], c1)
        checks.append(abs(g[0] - 2 * (x - 0.5)) <= 1e-6)
    mc = mc_nonlocal_gradient(f1, [0.3], k1, samples=1_000_000, seed=0)
    checks.append(
        np.all(np.abs(mc.value - nonlocal_gradient(f1, [0.3], c1)) <= 3 * mc.stderr + 1e-12)
    )
    # D = 2: u = |x - c|^2 plus an anisotropic quadratic for the Hessian
    f2 = quadratic_field(SQUARE, center=[0.5, 0.5])
    k2 = gaussian_kernel(2, 8, 0.1)
    c2 = OperatorConfig(k2, resolution=256)
    x2 = [0.4, 0.6]
    g2 = nonlocal_gradient(f2, x2, c2)
    checks.append(np.linalg.norm(g2 - f2.gradient_at(x2)) <= 1e-6)
    mc2 = mc_nonlocal_gradient(f2, x2, k2, samples=1_000_000, seed=1)
    checks.append(np.all(np.abs(mc2.value - g2) <= 3 * mc2.stderr + 1e-12))

    H1 = nonlocal_hessian(f1, [0.5], HessianVariant(CENTRAL), c1)
    checks.append(abs(H1[0, 0] - 2.0) <= 1e-5)
    A = np.array([[1.2, 0.3], [0.3, 0.8]])
    fA = quadratic_field(SQUARE, matrix=A, center=[0.5, 0.5])
    HA = nonlocal_hessian(fA, [0.45, 0.55], HessianVariant(CENTRAL), c2)
    checks.append(np.max(np.abs(HA - 2 * A)) <= 1e-5)
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 30.0
    assert verdict(2, ok, f"quadratic exactness {sum(checks)}/{len(checks)} ({elapsed:.1f}s)")


def test_criterion_3_central_constant_discrepancy():
    a = 0.7
    f = quadratic_field(UNIT, matrix=[[a]])
    config = OperatorConfig(gaussian_kernel(1, 8, 0.1), resolution=512)
    h_alt = nonlocal_hessian(
        f, [0.5], HessianVariant(CENTRAL, constant_mode=ALTERNATE_CONSTANT), config
    )[0, 0]
    h_mom = nonlocal_hessian(
        f, [0.5], HessianVariant(CENTRAL, constant_mode=MOMENT_CONSTANT), config
    )[0, 0]
    ok = abs(h_alt - 4 * a / 3) <= 1e-5 and abs(h_mom - 2 * a) <= 1e-5
    assert verdict(
        3, ok, f"second-difference constants: alternate={h_alt:.6f} moment={h_mom:.6f}"
    )


def test_criterion_4_lipschitz_bound():
    M = 1.5
    field = ridge_field(UNIT, center=[0.5], slope=M)
    worst = 0.0
    for n in (4, 32):
        config = OperatorConfig(gaussian_kernel(1, n, 0.1), resolution=512)
        for x in np.linspace(0.05, 0.95, 100):
            worst = max(worst, abs(nonlocal_gradient(field, [x], config)[0]))
    ok = worst <= 1 * M + 1e-9
    assert verdict(4, ok, f"lipschitz bound sup={worst:.12f} <= {M}")


def test_criterion_5_iterate_tracking():
    field = quadratic_field(UNIT)
    schedule = StepSchedule.geometric(0.3, 0.5)  # summable: total 0.6 < 1
    x0 = [0.05]  # near the boundary so wide kernels feel truncation
    gaps = []
    for n in (4, 8, 16, 32):
        config = OperatorConfig(gaussian_kernel(1, n, 0.1), resolution=512)
        classical = local_counterpart(field, x0, "gd", schedule, max_iters=20, grad_tol=0.0)
        smoothed = nlgd_fixed(field, x0, config, schedule, max_iters=20, grad_tol=0.0)
        gaps.append(
            float(np.max(np.linalg.norm(classical.iterates - smoothed.iterates, axis=1)))
        )
    ok = strictly_decreasing(gaps) and gaps[-1] <= 1e-2
    assert verdict(5, ok, f"iterate tracking gaps={['%.2e' % g for g in gaps]}")


def test_criterion_6_sgd_gap_bound():
    start = time.perf_counter()
    domain = BoxDomain.interval(-1.0, 1.0)
    field = quadratic_field(domain, center=[0.0])  # |x|^2, min 0
    kernel = gaussian_kernel(1, 32, 0.1)
    cfg = SgdConfig(B=1.0, M=2.0, K=100, epsilon=0.02)
    x_bars, _ = epsilon_sgd_batch(field, cfg, kernel, range(400))
    gaps = field(x_bars) - 0.0
    mean = float(np.mean(gaps))
    stderr = float(np.std(gaps, ddof=1) / np.sqrt(len(gaps)))
    elapsed = time.perf_counter() - start
    bound = 0.2 + 0.02 + 3 * stderr
    ok = mean <= bound and elapsed < 120.0
    assert verdict(6, ok, f"sgd mean gap {mean:.2e} <= {bound:.3f} ({elapsed:.1f}s)")


def test_criterion_7_newton_floor():
    field = quartic_field(UNIT, center=[0.55])
    plateaus = []
    for n in (8, 16, 32):
        config = OperatorConfig(gaussian_kernel(1, n, 0.1), resolution=512)
        trace = nonlocal_newton(field, [0.4], config, max_iters=10, grad_tol=0.0)
        plateaus.append(abs(trace.final_point[0] - 0.55))
    config32 = OperatorConfig(gaussian_kernel(1, 32, 0.1), resolution=512)
    smoothed5 = nonlocal_newton(field, [0.4], config32, max_iters=5, grad_tol=0.0)
    local5 = local_counterpart(field, [0.4], "newton", max_iters=5, grad_tol=0.0)
    match = abs(smoothed5.final_point[0] - local5.final_point[0])
    ok = plateaus[2] < plateaus[1] < plateaus[0] and match <= 1e-3
    assert verdict(
        7, ok,
        f"newton plateaus={['%.2e' % p for p in plateaus]} local match {match:.2e}",
    )


def test_criterion_8_taylor_remainder():
    field = bump_field(UNIT, center=[0.5], radius=0.25)  # smooth, compact support
    rng = np.random.default_rng(0)
    x0s = rng.uniform(0.3, 0.7, 200)
    xs = rng.uniform(0.1, 0.9, 200)
    sups = []
    for n in (4, 8, 16, 32):
        config = OperatorConfig(gaussian_kernel(1, n, 0.1), resolution=512)
        sup = 0.0
        for x0, x in zip(x0s, xs):
            defect = field.gradient_at([x0])[0] - nonlocal_gradient(field, [x0], config)[0]
            sup = max(sup, abs((x - x0) * defect))
        sups.append(sup)
    ok = all(b < a for a, b in zip(sups, sups[1:]))
    assert verdict(8, ok, f"taylor remainder sups={['%.2e' % s for s in sups]}")


def test_criterion_9_vanishing_subset():
    field = asymmetric_min_field(UNIT)  # local min at 0.5, uneven sides
    config = OperatorConfig(bump_kernel(1, 4, 0.2), resolution=512)
    subset = find_vanishing_subset_1d(field, [0.5], config)
    residual = abs(restricted_nonlocal_gradient(field, [0.5], config, subset)[0])
    ok = residual <= 1e-8
    assert verdict(9, ok, f"vanishing subset residual {residual:.2e}")


def test_criterion_10_pulse_experiment(tmp_path):
    start = time.perf_counter()
    gaussian_summaries = []
    artifacts_ok = True
    for n in (1, 2, 3):
        trace, summary = run_pulse_experiment(PulseRunConfig(family="gaussian", n=n))
        gaussian_summaries.append(summary)
        path = emit_csv(trace, tmp_path / f"gaussian_n{n}.csv")
        cols = read_trace_csv(path)
        artifacts_ok &= np.array_equal(cols["theta"], trace.iterates[:, 0])
    bump_trace, bump_summary = run_pulse_experiment(PulseRunConfig(family="bump", n=3))

    tols = [s.iterations_to_tolerance for s in gaussian_summaries]
    gaussian_ok = (
        all(s.converged and s.iterations <= 200 for s in gaussian_summaries)
        and all(t is not None for t in tols)
        and tols[0] >= tols[1] >= tols[2]
    )
    bump_ok = bump_summary.converged and not bump_summary.objective_monotone

    manifold = PulseManifold()
    slope = holder_exponent_fit(manifold, 0.4, default_holder_offsets(manifold))
    holder_ok = abs(slope + 0.5) <= 0.02

    svg = emit_plot_svg(
        [np.abs(t.iterates[:, 0] - 0.5) for t in [bump_trace]],
        ["bump-n3"],
        tmp_path / "pulse.svg",
    )
    import xml.etree.ElementTree as ET

    ET.parse(svg)
    elapsed = time.perf_counter() - start
    ok = gaussian_ok and bump_ok and holder_ok and artifacts_ok and elapsed < 120.0
    assert verdict(
        10, ok,
        f"pulse: gaussian tols={tols} errs="
        f"{['%.4f' % s.abs_error for s in gaussian_summaries]} "
        f"bump n=3 err={bump_summary.abs_error:.4f} "
        f"monotone={bump_summary.objective_monotone} holder={slope:.4f} ({elapsed:.1f}s)",
    )
