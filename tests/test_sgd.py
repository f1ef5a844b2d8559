import math
from collections import Counter

import numpy as np
import pytest

from nonlocalopt import (
    BoxDomain,
    OperatorConfig,
    OptimizerTrace,
    ScalarField,
    SgdConfig,
    bump_kernel,
    epsilon_sgd,
    epsilon_sgd_batch,
    gaussian_kernel,
    nonlocal_gradient,
)
from nonlocalopt.catalog import constant_field, linear_field, quadratic_field, quartic_field
from nonlocalopt.errors import CoincidentPointsError, DimensionMismatchError, NodeBudgetError
from nonlocalopt.optimizers import DIVERGED, LEFT_DOMAIN, MAX_ITERS
from nonlocalopt.sweeps import convergence_sweep


@pytest.fixture(scope="module")
def ball_domain():
    return BoxDomain.interval(-1.0, 1.0)


class TestSgdConfig:
    def test_alpha_formula(self):
        cfg = SgdConfig(B=1.0, M=2.0, K=100, epsilon=0.02)
        assert cfg.alpha == pytest.approx((1.0**2 / (2.0**2 * 100)) ** 0.5)

    def test_gap_bound(self):
        cfg = SgdConfig(B=1.0, M=2.0, K=100, epsilon=0.02)
        assert cfg.gap_bound == pytest.approx(0.2 + 0.02)

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            SgdConfig(B=0.0, M=1.0, K=10, epsilon=0.01)

    @pytest.mark.parametrize("B,M", [(math.nan, 1.0), (math.inf, 1.0), (1.0, 1e-300), (1e200, 1.0)])
    def test_unrepresentable_step_rejected(self, B, M):
        with pytest.raises(ValueError):
            SgdConfig(B=B, M=M, K=10, epsilon=0.01)


class TestEpsilonSgd:
    def test_constant_field_stays_at_center(self, ball_domain):
        f = constant_field(ball_domain)
        cfg = SgdConfig(B=1.0, M=1.0, K=25, epsilon=0.01)
        x_bar, trace = epsilon_sgd(f, cfg, gaussian_kernel(1, 8), seed=3)
        assert x_bar[0] == pytest.approx(0.0, abs=1e-15)
        assert np.all(trace.iterates[:, 0] == 0.0)

    def test_trace_structure(self, ball_domain):
        f = quadratic_field(ball_domain, center=[0.0])
        cfg = SgdConfig(B=1.0, M=2.0, K=20, epsilon=0.02)
        x_bar, trace = epsilon_sgd(f, cfg, gaussian_kernel(1, 16), seed=0)
        assert trace.termination == MAX_ITERS
        assert len(trace) == 21  # K iterates plus the final point
        assert trace.steps_taken.shape == (20,)
        assert np.all(trace.steps_taken == cfg.alpha)
        assert np.isnan(trace.gradient_norms[-1])  # no direction drawn there
        assert x_bar[0] == pytest.approx(np.mean(trace.iterates[:20, 0]))

    def test_seed_reproducibility(self, ball_domain):
        f = quadratic_field(ball_domain, center=[0.0])
        cfg = SgdConfig(B=1.0, M=2.0, K=30, epsilon=0.02)
        a = epsilon_sgd(f, cfg, gaussian_kernel(1, 16), seed=11)
        b = epsilon_sgd(f, cfg, gaussian_kernel(1, 16), seed=11)
        assert np.array_equal(a[1].iterates, b[1].iterates)
        assert np.array_equal(a[0], b[0])

    def test_mean_gap_within_bound_small_run(self, ball_domain):
        f = quadratic_field(ball_domain, center=[0.0])  # min value 0 at 0
        cfg = SgdConfig(B=1.0, M=2.0, K=100, epsilon=0.02)
        x_bars, _ = epsilon_sgd_batch(f, cfg, gaussian_kernel(1, 32), range(50))
        gaps = f(x_bars)
        mean = float(np.mean(gaps))
        stderr = float(np.std(gaps, ddof=1) / np.sqrt(len(gaps)))
        assert mean <= 0.2 + 0.02 + 3 * stderr


class TestTermination:
    def test_reach_below_the_float_spacing_raises_before_drawing(self, monkeypatch):
        from nonlocalopt.kernels import RadialKernel

        def no_draws(*args):
            raise AssertionError("an offset was drawn")

        monkeypatch.setattr(RadialKernel, "sample", no_draws)
        # at the start 5e16 every partner x - h would round onto x
        f = quadratic_field(BoxDomain.interval(0.0, 1e17))
        with pytest.raises(CoincidentPointsError, match="float spacing"):
            epsilon_sgd(f, SgdConfig(B=1.0, M=2.0, K=5, epsilon=0.01), gaussian_kernel(1, 8))

    def test_divergence_guard(self, ball_domain):
        # minimizer far outside the declared ball: iterates drift until the
        # 10B divergence guard fires
        f = quadratic_field(ball_domain, center=[0.9])
        cfg = SgdConfig(B=0.01, M=2.0, K=400, epsilon=0.01)
        _, trace = epsilon_sgd(f, cfg, gaussian_kernel(1, 32), seed=0)
        assert trace.termination == "diverged"
        assert trace.offending_point is not None

    def test_left_domain_guard(self, ball_domain):
        # minimizer outside the domain entirely: iterates exit through the wall
        f = quadratic_field(ball_domain, center=[1.5])
        cfg = SgdConfig(B=0.5, M=2.0, K=100, epsilon=0.01)
        _, trace = epsilon_sgd(f, cfg, gaussian_kernel(1, 32), seed=0)
        assert trace.termination == "left-domain"

    def test_resample_overflow_signalled(self, ball_domain, monkeypatch):
        import nonlocalopt.optimizers as opt_mod
        from nonlocalopt.errors import RejectionOverflowError

        f = quadratic_field(ball_domain, center=[0.0])
        monkeypatch.setattr(opt_mod, "_RESAMPLE_CAP", 2)
        wide = gaussian_kernel(1, 1, base_scale=50.0)  # nearly always lands outside
        with pytest.raises(RejectionOverflowError):
            epsilon_sgd(f, SgdConfig(B=1.0, M=2.0, K=5, epsilon=0.01), wide, seed=0)


# A drift along +y on a tall box: within 16 steps some chains pass the 10 B
# divergence radius, some cross a side wall and the rest run to the end.  The
# callback is elementwise, so a point gets the same value in any batch.
TALL = BoxDomain((-1.0, -6.0), (1.0, 6.0))
DRIFT = ScalarField(lambda x0, x1: 0.2 * x0 + x1, TALL)
WIDE = gaussian_kernel(1, 1, base_scale=0.6)  # partner points often fall outside (0, 1)

BATCHES = {
    "mixed-terminations-2d": (DRIFT, SgdConfig(0.3, 0.4, 16, 0.02), gaussian_kernel(2, 4, 0.2),
                              range(24)),
    "resampling-gaussian-1d": (quadratic_field(BoxDomain.unit(1)), SgdConfig(1.0, 2.0, 40, 0.02),
                               WIDE, range(12)),
    "resampling-bump-2d": (quartic_field(BoxDomain.unit(2)), SgdConfig(1.0, 2.0, 30, 0.02),
                           bump_kernel(2, 1, base_scale=0.7), [8, 3, 5, 0]),
}


def assert_same_run(got, want):
    """Bit-for-bit equality of two ``(x_bar, trace)`` pairs, NaNs included."""
    (x_got, t_got), (x_want, t_want) = got, want
    pairs = [(x_got, x_want), (t_got.iterates, t_want.iterates),
             (t_got.objective_values, t_want.objective_values),
             (t_got.gradient_norms, t_want.gradient_norms),
             (t_got.steps_taken, t_want.steps_taken)]
    for a, b in pairs:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert t_got.termination == t_want.termination
    assert (t_got.offending_point is None) == (t_want.offending_point is None)
    if t_want.offending_point is not None:
        assert t_got.offending_point.tobytes() == t_want.offending_point.tobytes()


def reference_run(field, cfg, kernel, seed):
    """A single run point by point: one draw at a time and scalar field values."""
    rng, center = np.random.default_rng(seed), field.domain.center
    x, points, values, norms = center, [], [], []
    termination, offending = MAX_ITERS, None
    for k in range(cfg.K + 1):
        points.append(x)
        values.append(field.value(x))
        if k == cfg.K:
            norms.append(math.nan)
            break
        while True:
            y = x - kernel.sample(rng, 1)[0]
            if field.domain.contains(y) and float(np.dot(x - y, x - y)) > 0.0:
                break
        d = x - y
        g = field.dim * ((field.value(x) - field.value(y)) / float(np.dot(d, d)) * d)
        norms.append(float(np.linalg.norm(g)))
        x = x - cfg.alpha * g
        if float(np.linalg.norm(x - center)) > 10.0 * cfg.B:
            termination, offending = DIVERGED, x
        elif not field.domain.contains(x):
            termination, offending = LEFT_DOMAIN, x
        if offending is not None:
            break
    trace = OptimizerTrace(np.array(points), np.array(values), np.array(norms),
                           np.full(len(points) - 1, cfg.alpha), termination, offending)
    return np.mean(trace.iterates[:cfg.K], axis=0), trace


def resampled(kernel, trace, seed, domain):
    """Whether the chain must have redrawn: one of its first draws has no partner."""
    steps = len(trace) - 1
    h = kernel.sample(np.random.default_rng(seed), steps)
    return not np.all(domain.contains(trace.iterates[:steps] - h))


class TestLockstep:
    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_batch_equals_one_seed_runs(self, name):
        field, cfg, kernel, seeds = BATCHES[name]
        x_bars, traces = epsilon_sgd_batch(field, cfg, kernel, seeds)
        assert x_bars.shape == (len(seeds), field.dim) and len(traces) == len(seeds)
        for s, x_bar, trace in zip(seeds, x_bars, traces):
            assert_same_run((x_bar, trace), epsilon_sgd(field, cfg, kernel, seed=s))

    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_one_seed_run_equals_point_by_point_loop(self, name):
        field, cfg, kernel, seeds = BATCHES[name]
        for s in seeds:
            assert_same_run(epsilon_sgd(field, cfg, kernel, seed=s),
                            reference_run(field, cfg, kernel, s))

    def test_mixed_batch_freezes_each_chain_where_it_stops(self):
        field, cfg, kernel, seeds = BATCHES["mixed-terminations-2d"]
        _, traces = epsilon_sgd_batch(field, cfg, kernel, seeds)
        assert set(Counter(t.termination for t in traces)) == {MAX_ITERS, DIVERGED, LEFT_DOMAIN}
        for t in traces:
            if t.termination == MAX_ITERS:
                assert len(t) == cfg.K + 1 and t.offending_point is None
            else:
                assert len(t) <= cfg.K and t.offending_point is not None

    @pytest.mark.parametrize("name", ["resampling-gaussian-1d", "resampling-bump-2d"])
    def test_batches_include_resampling_chains(self, name):
        field, cfg, kernel, seeds = BATCHES[name]
        _, traces = epsilon_sgd_batch(field, cfg, kernel, seeds)
        assert any(resampled(kernel, t, s, field.domain) for s, t in zip(seeds, traces))

    @pytest.mark.parametrize("kernel", [gaussian_kernel(2, 3), bump_kernel(1, 2), bump_kernel(2, 2)],
                             ids=["gaussian-2d", "bump-1d", "bump-2d"])
    def test_sample_size_equals_successive_single_draws(self, kernel):
        block_rng, single_rng = np.random.default_rng(7), np.random.default_rng(7)
        block = kernel.sample(block_rng, 17)
        singles = np.concatenate([kernel.sample(single_rng, 1) for _ in range(17)])
        assert block.shape == (17, kernel.dim)
        assert block.tobytes() == singles.tobytes()
        assert kernel.sample(block_rng, 1).tobytes() == kernel.sample(single_rng, 1).tobytes()

    def test_partner_on_the_iterate_is_redrawn_up_to_the_cap(self, monkeypatch):
        import nonlocalopt.optimizers as opt_mod
        from nonlocalopt.errors import RejectionOverflowError

        class Shrunk:
            """Offsets so small that every partner point rounds onto the iterate."""

            def __init__(self, kernel):
                # the wrapped kernel's reach: the start point passes the spacing check
                self.kernel, self.dim, self.reach, self.calls = kernel, kernel.dim, kernel.reach, 0

            def sample(self, rng, size):
                self.calls += 1
                return 1e-30 * self.kernel.sample(rng, size)

        monkeypatch.setattr(opt_mod, "_RESAMPLE_CAP", 3)
        shrunk = Shrunk(gaussian_kernel(1, 8))
        with pytest.raises(RejectionOverflowError):
            epsilon_sgd_batch(quadratic_field(BoxDomain.unit(1)), SgdConfig(1.0, 2.0, 1, 0.01),
                              shrunk, [0, 1])
        assert shrunk.calls == 2 * 3  # K = 1 draws one offset per call: 3 per chain

    def test_batch_checks_node_budget_before_allocating(self, monkeypatch):
        import nonlocalopt.optimizers as opt_mod

        monkeypatch.setattr(opt_mod, "NODE_BUDGET", 2 * 9 * 11)
        f = quadratic_field(BoxDomain.unit(2))
        cfg = SgdConfig(1.0, 2.0, 10, 0.01)
        x_bars, _ = epsilon_sgd_batch(f, cfg, gaussian_kernel(2, 8), range(9))
        assert x_bars.shape == (9, 2)
        with pytest.raises(NodeBudgetError):
            epsilon_sgd_batch(f, cfg, gaussian_kernel(2, 8), range(10))

        class Unlisted:  # ten seeds that must not be listed before the check
            def __len__(self):
                return 10

            def __iter__(self):
                raise AssertionError("seeds listed before the budget check")

        with pytest.raises(NodeBudgetError):
            epsilon_sgd_batch(f, cfg, gaussian_kernel(2, 8), Unlisted())

    def test_empty_seed_list_rejected(self):
        f = quadratic_field(BoxDomain.unit(1))
        with pytest.raises(ValueError):
            epsilon_sgd_batch(f, SgdConfig(1.0, 2.0, 5, 0.01), gaussian_kernel(1, 8), [])


# Gaussian and bump kernels at several scale indices.  The 1-D step overshoots
# the minimum (alpha u'' = 2.25 > 2), so 1-D chains also run to the end,
# diverge or leave the domain; the widest kernels of both batches redraw often.
OVERSHOOT = ScalarField(lambda x: 3.0 * x ** 2 + 0.3 * x,
                        BoxDomain.interval(-1.0, 1.0))
MIXED = {
    "1d": (OVERSHOOT, SgdConfig(0.12, 0.08, 16, 0.02),
           [gaussian_kernel(1, 1, 0.6), gaussian_kernel(1, 8), bump_kernel(1, 1, 0.9),
            bump_kernel(1, 4)]),
    "2d": (DRIFT, SgdConfig(0.3, 0.4, 16, 0.02),
           [gaussian_kernel(2, 4, 0.2), gaussian_kernel(2, 1, 0.6), bump_kernel(2, 1, 0.7),
            bump_kernel(2, 3, 0.5)]),
}
MIXED_SEEDS = range(6)


def mixed_batch(name):
    """Every kernel with every seed, chains of one seed side by side: chain ``i`` has
    seed ``i // 4`` and kernel ``i % 4``."""
    field, cfg, kernels = MIXED[name]
    chain_kernels = [k for _ in MIXED_SEEDS for k in kernels]
    chain_seeds = [s for s in MIXED_SEEDS for _ in kernels]
    return chain_kernels, chain_seeds, epsilon_sgd_batch(field, cfg, chain_kernels, chain_seeds)


class TestPerChainKernels:
    @pytest.mark.parametrize("name", sorted(MIXED))
    def test_each_chain_equals_its_single_kernel_batch(self, name):
        field, cfg, kernels = MIXED[name]
        _, _, (x_bars, traces) = mixed_batch(name)
        for j, kernel in enumerate(kernels):
            want_bars, want_traces = epsilon_sgd_batch(field, cfg, kernel, MIXED_SEEDS)
            for s in MIXED_SEEDS:
                i = s * len(kernels) + j
                assert_same_run((x_bars[i], traces[i]), (want_bars[s], want_traces[s]))

    @pytest.mark.parametrize("name", sorted(MIXED))
    def test_mixed_batches_stop_every_way_and_resample(self, name):
        field, _, _ = MIXED[name]
        chain_kernels, chain_seeds, (_, traces) = mixed_batch(name)
        assert set(Counter(t.termination for t in traces)) == {MAX_ITERS, DIVERGED, LEFT_DOMAIN}
        redrawn = [resampled(k, t, s, field.domain)
                   for k, s, t in zip(chain_kernels, chain_seeds, traces)]
        assert sum(redrawn) >= 3

    def test_kernel_count_must_match_seeds(self):
        f = quadratic_field(BoxDomain.unit(1))
        with pytest.raises(ValueError):
            epsilon_sgd_batch(f, SgdConfig(1.0, 2.0, 5, 0.01), [gaussian_kernel(1, 8)] * 2,
                              range(3))

    @pytest.mark.parametrize("field_dim,kernel_dim", [(2, 1), (1, 2)])
    def test_kernel_of_another_dimension_rejected(self, field_dim, kernel_dim):
        f = quadratic_field(BoxDomain.unit(field_dim))
        cfg = SgdConfig(1.0, 2.0, 5, 0.01)
        with pytest.raises(DimensionMismatchError):
            epsilon_sgd_batch(f, cfg, gaussian_kernel(kernel_dim, 8), range(3))
        right, wrong = gaussian_kernel(field_dim, 8), bump_kernel(kernel_dim, 2)
        with pytest.raises(DimensionMismatchError):
            epsilon_sgd_batch(f, cfg, [right, wrong, right], range(3))


SWEEP_FIELD = quadratic_field(BoxDomain.unit(1), center=[0.5])
SWEEP = {"domain": BoxDomain.unit(1), "kernel": gaussian_kernel(1, 8),
         "sgd": SgdConfig(1.0, 2.0, 20, 0.02), "seeds": 6, "seed": 0}
SWEEP_N = [4, 8, 16, 32]
ONE_INDEX = 6 * 21 * 1  # coordinates the traces of one index's chains store


class TestSgdBoundSweep:
    def test_each_index_equals_its_own_batch(self):
        report = convergence_sweep("sgd-bound", SWEEP_N, SWEEP)
        for n, error in zip(SWEEP_N, report.errors):
            x_bars, _ = epsilon_sgd_batch(SWEEP_FIELD, SWEEP["sgd"],
                                          SWEEP["kernel"].with_scale_index(n), range(6))
            assert error == float(np.mean(SWEEP_FIELD(x_bars)))

    def test_seed_picks_the_chains(self):
        report = convergence_sweep("sgd-bound", SWEEP_N, {**SWEEP, "seed": 2})
        for n, error in zip(SWEEP_N, report.errors):
            x_bars, _ = epsilon_sgd_batch(SWEEP_FIELD, SWEEP["sgd"],
                                          SWEEP["kernel"].with_scale_index(n), range(12, 18))
            assert error == float(np.mean(SWEEP_FIELD(x_bars)))

    @pytest.mark.parametrize("budget,batches", [
        (None, [24]), (4 * ONE_INDEX, [24]), (4 * ONE_INDEX - 1, [18, 6]),
        (2 * ONE_INDEX, [12, 12]), (ONE_INDEX, [6, 6, 6, 6])])
    def test_batch_is_split_only_where_the_budget_requires(self, monkeypatch, budget, batches):
        import nonlocalopt.optimizers as opt_mod
        import nonlocalopt.sweeps as sweeps_mod

        want = convergence_sweep("sgd-bound", SWEEP_N, SWEEP)
        if budget is not None:
            monkeypatch.setattr(opt_mod, "NODE_BUDGET", budget)
        calls = []

        def recorded(field, config, kernel, seeds):
            calls.append((len(seeds), len({id(k) for k in kernel})))
            return epsilon_sgd_batch(field, config, kernel, seeds)

        monkeypatch.setattr(sweeps_mod, "epsilon_sgd_batch", recorded)
        got = convergence_sweep("sgd-bound", SWEEP_N, SWEEP)
        assert got.errors == want.errors
        # one shared kernel object per scale index in the batch
        assert calls == [(size, size // 6) for size in batches]

    def test_index_over_budget_raises(self, monkeypatch):
        import nonlocalopt.optimizers as opt_mod

        monkeypatch.setattr(opt_mod, "NODE_BUDGET", ONE_INDEX - 1)
        with pytest.raises(NodeBudgetError):
            convergence_sweep("sgd-bound", SWEEP_N, SWEEP)


def subgradient_margins(field, x, config, probes, epsilon):
    """``u(y) - u(x) - (y - x) . g + epsilon`` at each probe ``y``, ``g`` the kernel gradient."""
    x = np.asarray(x, dtype=float)
    g = nonlocal_gradient(field, x, config)
    return field(probes) - field.value(x) - (probes - x) @ g + epsilon


class TestSubgradientCheck:
    def test_quadratic_passes_with_margin(self, ball_domain):
        f = quadratic_field(ball_domain, center=[0.0])
        probes = np.linspace(-0.9, 0.9, 500)[:, None]
        margins = subgradient_margins(
            f, [0.2], OperatorConfig(gaussian_kernel(1, 32), resolution=512), probes, 0.01)
        assert margins.shape == (500,)
        assert np.all(margins >= 0.0)

    def test_zero_epsilon_fails_for_wide_kernel(self, ball_domain):
        # wide smoothing on a curved objective violates the plain
        # subgradient inequality somewhere
        f = quadratic_field(ball_domain, center=[0.0])
        probes = np.linspace(-0.9, 0.9, 500)[:, None]
        margins = subgradient_margins(
            f, [0.25], OperatorConfig(gaussian_kernel(1, 1, 0.4), resolution=512), probes, 0.0)
        assert np.min(margins) < 0.0

    def test_linear_field_passes_tiny_epsilon(self, ball_domain):
        f = linear_field(ball_domain, [0.7])
        probes = np.linspace(-0.9, 0.9, 200)[:, None]
        margins = subgradient_margins(
            f, [0.1], OperatorConfig(gaussian_kernel(1, 8), resolution=512), probes, 1e-8)
        assert np.all(margins >= 0.0)
