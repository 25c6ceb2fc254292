"""First-moment system: closed forms, linearity, flow, bounds, differencing."""
import warnings

import numpy as np
import pytest

from cbve import (
    DiscretizationError,
    JumpMeasure,
    NumericalError,
    StieltjesMeasure,
    finite_diff_check,
    gronwall_bound,
    mc_mean,
    mean_of_transition,
    solve_moment,
    special_to_general,
)
from cbve.environment import effective_cross_drift

from _instances import (
    feller_environment,
    make_env,
    make_sf,
    random_environment,
    uniform_grid,
)


class TestSolveMoment:
    def test_zero_environment(self):
        env = make_env(uniform_grid(cells=50))
        sol = solve_moment(env, 1.0, (2.0, -3.0))
        assert np.all(sol.pi[:, 0] == 2.0)
        assert np.all(sol.pi[:, 1] == -3.0)

    def test_nilpotent_cross_closed_form(self):
        grid = uniform_grid(cells=100)
        env = make_env(
            grid, b12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1.0)], (), True)
        )
        lam = (2.0, 3.0)
        sol = solve_moment(env, 1.0, lam)
        expect1 = lam[0] + (1.0 - grid.nodes) * lam[1]
        assert np.max(np.abs(sol.pi[:, 0] - expect1)) <= 1e-12
        assert np.all(sol.pi[:, 1] == lam[1])

    def test_scalar_decay_oracle(self):
        b = 0.8
        grid = uniform_grid(cells=4000)
        env = make_env(grid, b11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, b)]))
        lam = (1.5, 0.0)
        sol = solve_moment(env, 1.0, lam)
        oracle = lam[0] * np.exp(-b * (1.0 - grid.nodes))
        assert np.max(np.abs(sol.pi[:, 0] - oracle)) <= 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(50)
        for _ in range(5):
            env = random_environment(rng, cells=120)
            lam_a = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            lam_b = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            a = float(rng.uniform(-1.5, 1.5))
            combo = (a * lam_a[0] + lam_b[0], a * lam_a[1] + lam_b[1])
            lhs = solve_moment(env, 1.0, combo).pi
            rhs = a * solve_moment(env, 1.0, lam_a).pi + solve_moment(env, 1.0, lam_b).pi
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_flow_composition(self):
        rng = np.random.default_rng(51)
        for _ in range(3):
            env = random_environment(rng, cells=100)
            lam = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            full = solve_moment(env, 1.0, lam)
            s = float(env.grid.nodes[60])
            mid_terminal = tuple(full.pi[60])
            mid = solve_moment(env, s, mid_terminal)
            assert np.max(np.abs(mid.pi - full.pi[:61])) <= 1e-10

    def test_bottleneck_zeroes_mean(self):
        grid = uniform_grid(cells=100)
        env = make_env(grid, b11=StieltjesMeasure(grid, np.zeros(100), ((0.5, 1.0),)))
        sol = solve_moment(env, 1.0, (2.0, 1.0))
        half = grid.index_of(0.5)
        assert np.all(sol.pi[:half, 0] == 0.0)

    def test_gronwall_domination_time_reversed(self):
        # reverse the coefficient measures about t so the backward system
        # becomes a forward inequality the bound applies to
        rng = np.random.default_rng(52)
        for _ in range(3):
            env = random_environment(rng, cells=100, with_atoms=False)
            lam = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            sol = solve_moment(env, 1.0, lam)
            grid = env.grid

            def reverse(meas):
                return StieltjesMeasure(
                    grid, meas.density[::-1].copy(), (), True
                )

            beta11 = reverse(env.b11.abs())
            beta22 = reverse(env.b22.abs())
            beta12 = reverse(effective_cross_drift(env, 1, 2))
            beta21 = reverse(effective_cross_drift(env, 2, 1))
            bounds = gronwall_bound(
                ((beta11, beta12), (beta21, beta22)),
                (abs(lam[0]), abs(lam[1])),
                1.0,
            )
            assert np.max(np.abs(sol.pi[:, 0])) <= bounds[0] + 1e-9
            assert np.max(np.abs(sol.pi[:, 1])) <= bounds[1] + 1e-9


class TestOverflow:
    @pytest.mark.parametrize("lam", [(1.0, 1.0), (0.0, -2.0), (1.0, 0.0)])
    def test_overflowing_mean_is_typed(self, lam):
        # b22 density -800 on 1000 cells: each cell step multiplies the
        # type-2 mean by 2.12, past 1e308 long before r = 0.  With lam_2 = 0
        # the inf meets a zero in the propagator products and gives NaN,
        # which raises too.
        grid = uniform_grid(cells=1000)
        env = make_env(grid, b22=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, -800.0)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite"):
                solve_moment(env, 1.0, lam)


class TestStiffDecay:
    # gamma11 density -800 is b11 = 800: a mode decaying at rate 800, whose
    # explicit cell step on a 4-cell grid multiplies it by 1 + z + z^2 / 2
    # with z = -200; pi_1(0) came out 1.5e17 where the exact value is about
    # 1 / 800
    @staticmethod
    def _stiff_sf():
        grid = uniform_grid(cells=4)
        return make_sf(
            grid,
            g11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, -800.0)]),
            mu1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.0, 1.0, 1.0)])]),
        )

    def test_unstable_step_raises(self):
        env = special_to_general(self._stiff_sf())
        with pytest.raises(DiscretizationError, match="refine the grid"):
            solve_moment(env, 1.0, (1.0, 1.0))

    def test_mc_mean_target_raises(self):
        # the 32-times refined target gave 6.4e147 and z = -inf
        with pytest.raises(DiscretizationError, match="refine the grid"):
            mc_mean(self._stiff_sf(), (1.0, 1.0), 1.0, (1.0, 1.0), 100, 3)

    def test_fine_enough_grid_solves(self):
        # z = -800 / 512 lies where the two-pass step contracts
        env = special_to_general(self._stiff_sf().refined(128))
        pi = solve_moment(env, 1.0, (1.0, 1.0)).pi[0]
        assert pi[0] == pytest.approx(1.0 / 800.0, rel=1e-6)
        assert pi[1] == 1.0


class TestFiniteDiff:
    def test_zero_environment(self):
        env = make_env(uniform_grid(cells=50))
        res = finite_diff_check(env, 1.0, (1.0, 2.0), 1e-3)
        assert max(res) == 0.0

    def test_linear_environment_exact(self):
        grid = uniform_grid(cells=100)
        env = make_env(
            grid,
            b11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.5)]),
            b12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.3)], (), True),
        )
        for h in (1e-2, 1e-3):
            res = finite_diff_check(env, 1.0, (1.0, 1.0), h)
            assert max(res) <= 1e-10

    def test_first_order_in_h(self):
        env = feller_environment(cells=2000)
        residuals = [
            max(finite_diff_check(env, 1.0, (1.0, 0.0), h))
            for h in (1e-2, 1e-3, 1e-4)
        ]
        logs = np.log(residuals)
        slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), logs, 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_h_domain(self):
        env = make_env(uniform_grid(cells=10))
        with pytest.raises(ValueError):
            finite_diff_check(env, 1.0, (1.0, 1.0), 0.5)


class TestMeanOfTransition:
    def test_zero_state(self):
        rng = np.random.default_rng(53)
        env = random_environment(rng, cells=50)
        assert mean_of_transition(env, 0.0, 1.0, (0.0, 0.0), (1.0, -2.0)) == 0.0

    def test_zero_environment(self):
        env = make_env(uniform_grid(cells=50))
        out = mean_of_transition(env, 0.2, 1.0, (2.0, 3.0), (1.5, -0.5))
        assert out == pytest.approx(2.0 * 1.5 - 3.0 * 0.5, abs=1e-14)

    def test_r_after_t_is_rejected(self):
        env = make_env(uniform_grid(cells=10))
        with pytest.raises(ValueError, match=r"need r <= t"):
            mean_of_transition(env, 0.8, 0.5, (1.0, 1.0), (1.0, 1.0))

    @pytest.mark.parametrize("x", [(np.nan, 0.0), (np.inf, 0.0), (0.0, -np.inf), (-1.0, 1.0)])
    def test_bad_state_is_rejected(self, x):
        # a NaN or infinite state used to give a NaN or infinite mean
        env = make_env(uniform_grid(cells=10))
        with pytest.raises(ValueError, match="state must be finite and componentwise"):
            mean_of_transition(env, 0.0, 1.0, x, (1.0, 1.0))
