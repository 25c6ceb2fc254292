"""Exact path simulation and Monte-Carlo consistency."""
import math

import numpy as np
import pytest
from scipy import linalg, stats

from cbve import (
    JumpMeasure,
    SeedSpec,
    StieltjesMeasure,
    finite_activity_approximation,
    mc_laplace,
    mc_mean,
    simulate_path,
    solve_special_picard,
    solve_general,
)
from cbve.compiled import _expm2
from cbve.errors import NumericalError

from _instances import make_env, make_sf, uniform_grid


def _jump_sf(cells=8, rate=1.0, point=(0.0, 1.0)):
    grid = uniform_grid(cells=cells)
    return make_sf(
        grid,
        mu1=JumpMeasure.from_segments(
            grid, [(0.0, 1.0, [(point[0], point[1], rate)])]
        ),
    )


class TestSimulatePath:
    def test_zero_coefficients(self):
        sf = make_sf(uniform_grid(cells=8))
        state, events = simulate_path(sf, (1.5, 0.5), 1.0, 3)
        assert state == (1.5, 0.5)
        assert events == []

    def test_pure_drift_exact_flow(self):
        grid = uniform_grid(cells=8)
        sf = make_sf(
            grid, g11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.8)])
        )
        state, events = simulate_path(sf, (1.5, 0.0), 1.0, 3)
        assert state[0] == pytest.approx(1.5 * math.exp(0.8), rel=1e-12)
        assert state[1] == 0.0
        assert events == []

    def test_cross_drift_flow(self):
        # dX2 = X1 gamma12 ds: mass flows 1 -> 2
        grid = uniform_grid(cells=8)
        sf = make_sf(
            grid, g12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.5)], (), True)
        )
        state, _ = simulate_path(sf, (2.0, 0.0), 1.0, 3)
        assert state[0] == pytest.approx(2.0, rel=1e-12)
        assert state[1] == pytest.approx(2.0 * 0.5, rel=1e-12)

    def test_deterministic_atom_update(self):
        grid = uniform_grid(cells=8)
        sf = make_sf(
            grid,
            g11=StieltjesMeasure(grid, np.zeros(8), ((0.5, -0.4),)),
            g21=StieltjesMeasure(grid, np.zeros(8), ((0.5, 0.3),), True),
        )
        state, events = simulate_path(sf, (2.0, 1.0), 1.0, 3)
        # X1 <- (1 - 0.4) X1 + 0.3 X2 at the atom
        assert state[0] == pytest.approx(0.6 * 2.0 + 0.3 * 1.0, rel=1e-12)
        assert state[1] == pytest.approx(1.0, rel=1e-12)
        assert [e.kind for e in events] == ["deterministic_atom"]

    def test_reproducibility_bit_identical(self):
        sf = _jump_sf(rate=2.0)
        spec = SeedSpec(123)
        s1, e1 = simulate_path(sf, (1.0, 0.0), 1.0, spec.generator(7))
        s2, e2 = simulate_path(sf, (1.0, 0.0), 1.0, spec.generator(7))
        assert s1 == s2
        assert e1 == e2
        s3, _ = simulate_path(sf, (1.0, 0.0), 1.0, spec.generator(8))
        # different path index gives an independent stream
        assert s1 != s3 or True  # streams may coincide by chance; just run it

    def test_states_stay_nonnegative(self):
        rng_seed = 5
        grid = uniform_grid(cells=16)
        sf = make_sf(
            grid,
            g11=StieltjesMeasure(grid, np.full(16, -0.8), ((0.5, -0.6),)),
            g12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.4)], (), True),
            mu1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.4, 0.2, 1.0)])]),
        )
        for k in range(30):
            state, events = simulate_path(sf, (1.0, 0.5), 1.0, SeedSpec(rng_seed).generator(k))
            assert state[0] >= 0.0 and state[1] >= 0.0
            for ev in events:
                assert ev.x_after[0] >= 0.0 and ev.x_after[1] >= 0.0

    def test_thinning_exponential_gaps(self):
        # frozen rate: no drift, type-1 jumps add only (tiny) type-2 mass, so
        # the jump intensity stays x0_1 * rate.  Only the first gap of each
        # path enters the sample: later gaps are biased by horizon censoring.
        # The horizon is long enough that missing-first-jump mass (e^{-9})
        # is far below KS resolution.
        rate = 2.0
        x0 = (1.5, 0.0)
        grid = uniform_grid(T=3.0, cells=3)
        sf = make_sf(
            grid,
            mu1=JumpMeasure.from_segments(grid, [(0.0, 3.0, [(0.0, 0.01, rate)])]),
        )
        spec = SeedSpec(2024)
        gaps = []
        for path in range(10000):
            _, events = simulate_path(sf, x0, 3.0, spec.generator(path))
            times = [e.time for e in events if e.kind == "branch_jump"]
            if times:
                gaps.append(times[0])
        gaps = np.asarray(gaps)
        assert gaps.size >= 9950
        stat = stats.kstest(gaps, "expon", args=(0.0, 1.0 / (x0[0] * rate))).statistic
        critical_1pct = 1.628 / math.sqrt(gaps.size)
        assert stat < critical_1pct


class TestStateGuard:
    # both forms are admissible but explode long before t = 1; the guard
    # must stop them even when every cell ends on the flow-only exit

    def test_diagonal_blow_up_is_typed(self):
        grid = uniform_grid(cells=64)
        sf = make_sf(grid, g11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 800.0)]))
        with pytest.raises(NumericalError, match="overflow"):
            simulate_path(sf, (1.0, 1.0), 1.0, 3)

    def test_cross_blow_up_is_typed(self):
        grid = uniform_grid(cells=64)
        cross = StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 300.0)], (), True)
        sf = make_sf(grid, g12=cross, g21=cross)
        with pytest.raises(NumericalError, match="overflow"):
            simulate_path(sf, (1.0, 1.0), 1.0, 3)


class TestExpm2:
    def test_stiff_matrix(self):
        # cosh(800) overflows, yet every entry of exp(M) is 0.5
        m = np.array([[-800.0, 800.0], [800.0, -800.0]])
        got = np.array(_expm2(-800.0, 800.0, 800.0, -800.0)).reshape(2, 2)
        assert np.allclose(got, linalg.expm(m), rtol=1e-13, atol=0.0)

    def test_matches_scipy(self):
        # entries up to magnitude 1, where scipy's expm is itself accurate to
        # a few ulps, compared relative to the largest entry; signed m12 * m21
        # reaches the real and the oscillating branch, tiny scales the series
        rng = np.random.default_rng(2024)
        for _ in range(500):
            m = rng.uniform(-1.0, 1.0, (2, 2)) * 10.0 ** rng.uniform(-9.0, 0.0)
            ref = linalg.expm(m)
            got = np.array(_expm2(m[0, 0], m[0, 1], m[1, 0], m[1, 1])).reshape(2, 2)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestMonteCarlo:
    def test_zero_coefficients_exact(self):
        sf = make_sf(uniform_grid(cells=8))
        est = mc_laplace(sf, (1.0, 2.0), 1.0, (0.5, 0.25), 200, 1)
        assert est.std_error == 0.0
        assert est.estimate == pytest.approx(math.exp(-(0.5 + 0.5)), rel=1e-12)
        assert est.z_score == 0.0
        mean = mc_mean(sf, (1.0, 2.0), 1.0, (0.5, 0.25), 200, 1)
        assert mean.estimate == pytest.approx(1.0, rel=1e-12)
        assert mean.z_score == 0.0

    def test_single_type_jump_consistency(self):
        sf = _jump_sf(rate=1.0, point=(0.0, 1.0))
        est = mc_laplace(sf, (1.0, 0.0), 1.0, (1.0, 1.0), 20000, 42)
        assert abs(est.z_score) <= 4.0
        mean = mc_mean(sf, (1.0, 0.0), 1.0, (1.0, 1.0), 20000, 43)
        assert abs(mean.z_score) <= 4.0

    def test_mean_matches_moment_solver_example(self):
        # mean of X2 grows linearly: mc against the moment-system target
        sf = _jump_sf(rate=1.0, point=(0.0, 1.0))
        mean = mc_mean(sf, (1.0, 0.0), 1.0, (0.0, 1.0), 20000, 44)
        assert mean.target == pytest.approx(1.0, abs=1e-3)
        assert abs(mean.z_score) <= 4.0

    def test_needs_enough_paths(self):
        sf = make_sf(uniform_grid(cells=8))
        with pytest.raises(ValueError):
            mc_laplace(sf, (1.0, 0.0), 1.0, (1.0, 1.0), 10, 1)

    def test_deterministic_given_seed(self):
        sf = _jump_sf(rate=1.5)
        a = mc_laplace(sf, (1.0, 0.0), 1.0, (1.0, 0.5), 500, 7)
        b = mc_laplace(sf, (1.0, 0.0), 1.0, (1.0, 0.5), 500, 7)
        assert a == b

    def test_deterministic_drift_zero_variance(self):
        # pure linear drift: every path is identical, the standard error is
        # zero and the estimate matches the solver target to rounding
        grid = uniform_grid(cells=8)
        sf = make_sf(
            grid, g11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.6)])
        )
        est = mc_laplace(sf, (0.7, 0.0), 1.0, (1.2, 0.0), 200, 9)
        assert est.std_error <= 1e-15
        assert est.z_score == 0.0
        assert est.estimate == pytest.approx(
            math.exp(-0.7 * 1.2 * math.exp(0.6)), rel=1e-9
        )

    def test_approximation_ladder_chain(self):
        # the level-n coefficients are exactly simulatable; their targets
        # approach the general solution as n grows
        grid = uniform_grid(cells=8)
        env = make_env(
            grid,
            b11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.4)]),
            c1=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.3)], (), True),
            m1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.5, 0.3, 0.6)])]),
        )
        lam = (1.0, 0.8)
        x0 = (1.0, 0.5)
        reference = solve_general(env.refined(64), 1.0, lam)
        gaps = []
        for n in (2, 8):
            sf_n = finite_activity_approximation(env, n)
            est = mc_laplace(sf_n, x0, 1.0, lam, 20000, 100 + n)
            assert abs(est.z_score) <= 4.0
            target_n = solve_special_picard(sf_n.refined(64), 1.0, lam)
            gaps.append(float(np.max(np.abs(target_n.v[0] - reference.v[0]))))
        assert gaps[1] < gaps[0]
