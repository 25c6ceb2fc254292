"""First-moment system: closed forms, linearity, flow, bounds, differencing."""
import json
import math
import warnings

import numpy as np
import pytest
from scipy import linalg

import _reference
from cbve import (
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
from cbve.cli import main
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

    def test_terminal_index_is_the_node_of_t(self):
        env = make_env(uniform_grid(cells=8))
        assert solve_moment(env, 0.625, (1.0, 1.0)).terminal_index == env.grid.index_of(0.625) == 5

    def test_nilpotent_cross_closed_form(self):
        grid = uniform_grid(cells=100)
        env = make_env(
            grid, b12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1.0)])
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
                    grid, meas.density[::-1].copy()
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
    # gamma11 density -800 is b11 = 800: a mode decaying at rate 800 on a
    # 4-cell grid, where hA of each cell has the eigenvalue -200.  The exact
    # cell step gives pi_1(0) = e^-800 + (1 - e^-800) / 800 on the form's own
    # grid; the two-pass step 1 + z + z^2 / 2 made it 1.5e17.
    PI1 = math.exp(-800.0) + -math.expm1(-800.0) / 800.0

    @staticmethod
    def _stiff_sf():
        grid = uniform_grid(cells=4)
        return make_sf(
            grid,
            g11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, -800.0)]),
            mu1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.0, 1.0, 1.0)])]),
        )

    def test_coarse_grid_solves_exactly(self):
        env = special_to_general(self._stiff_sf())
        pi = solve_moment(env, 1.0, (1.0, 1.0)).pi[0]
        assert pi[0] == pytest.approx(self.PI1, rel=1e-12)
        assert pi[1] == 1.0

    def test_mc_mean_target_is_exact(self):
        # the 32-times refined two-pass target raised; on 100 paths a jump
        # (chance about 1/800 per path) seldom happens, so z is not read
        est = mc_mean(self._stiff_sf(), (1.0, 1.0), 1.0, (1.0, 1.0), 100, 3)
        assert est.target == pytest.approx(self.PI1 + 1.0, rel=1e-12)

    def test_fine_enough_grid_solves(self):
        # refining a piecewise-constant form leaves the exact mean alone
        env = special_to_general(self._stiff_sf().refined(128))
        pi = solve_moment(env, 1.0, (1.0, 1.0)).pi[0]
        assert pi[0] == pytest.approx(self.PI1, rel=1e-12)
        assert pi[1] == 1.0


class TestFalseMeanFailure:
    # gamma11 density 8 and one mu1 point (0, 1, 0.01) on 4 cells: the mean
    # grows like e^8, and the two-pass step on the 32-times refined copy
    # gave a target of 2,970.885, which 2,000 paths at seed 3 (2,985.748,
    # SE 0.043) put at z = +347.6
    X0 = LAM = (1.0, 1.0)

    @staticmethod
    def _sf():
        grid = uniform_grid(cells=4)
        return make_sf(
            grid,
            g11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 8.0)]),
            mu1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.0, 1.0, 0.01)])]),
        )

    def test_mc_mean_target_is_the_exact_mean(self):
        # x0 expm(A) lam with A the mean system's constant matrix: b11 = -8,
        # and type 1 feeds type 2 at the kernel's mean z2 inflow, 0.01
        want = np.array(self.X0) @ linalg.expm(np.array([[8.0, 0.01], [0.0, 0.0]])) @ self.LAM
        assert want == pytest.approx(2985.683, abs=5e-4)
        est = mc_mean(self._sf(), self.X0, 1.0, self.LAM, 100, 3)
        assert est.target == pytest.approx(want, rel=1e-12)

    def test_verify_passes_mc_mean(self, tmp_path, capsys):
        # special_general_agreement FAILs here: the sweep's own error on 4
        # coarse cells, which the Monte-Carlo target no longer shares
        path = tmp_path / "stiff_growth.json"
        path.write_text(json.dumps({
            "kind": "special_form", "horizon": 1.0, "grid_cells": 4,
            "gamma11": {"density": [[0.0, 1.0, 8.0]]},
            "mu1": {"kernel": [[0.0, 1.0, [[0.0, 1.0, 0.01]]]]},
        }))
        assert main(["verify", "--config", str(path), "--paths", "2000", "--seed", "3"]) == 5
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if "mc_mean" in line] == ["PASS mc_mean"]


class TestFiniteDiff:
    def test_zero_environment(self):
        env = make_env(uniform_grid(cells=50))
        res = finite_diff_check(env, 1.0, (1.0, 2.0), 1e-3)
        assert max(res) == 0.0

    def test_linear_environment_exact(self):
        # no diffusion and no jumps: the sweep is linear in lam, so v(h lam) / h
        # is the two-pass mean of the sweep's steps for every h, and the
        # residual is that mean's gap to the exact one, expm(T A) lam
        grid = uniform_grid(cells=100)
        env = make_env(
            grid,
            b11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.5)]),
            b12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.3)]),
        )
        lam = (1.0, 1.0)
        pi = solve_moment(env, 1.0, lam).pi
        want = linalg.expm(np.array([[-0.5, 0.3], [0.0, 0.0]])) @ lam
        assert np.max(np.abs(pi[0] - want)) <= 1e-12 * np.max(np.abs(want))
        gap = np.max(np.abs(_reference.solve_moment(env, 1.0, lam).pi - pi), axis=0)
        assert 1e-8 < max(gap)
        for h in (1e-2, 1e-3):
            res = finite_diff_check(env, 1.0, lam, h)
            assert np.max(np.abs(np.array(res) - gap)) <= 1e-10

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
