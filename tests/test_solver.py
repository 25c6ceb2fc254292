"""Backward solvers: general sweep, Picard iteration, h-transform, bounds."""
import json
import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from cbve import (
    JumpMeasure,
    StieltjesMeasure,
    TimeGrid,
    apriori_growth_exponent,
    check_flow,
    cumulant_upper_bound,
    finite_diff_check,
    gronwall_bound,
    h_transform_coefficients,
    h_transform_solution,
    mc_laplace,
    mc_mean,
    mean_of_transition,
    mechanism_atom_increment,
    parse_config,
    simulate_path,
    solve_general,
    solve_moment,
    solve_special_picard,
    special_to_general,
)
from cbve.cli import main
from cbve.compiled import _decay_rates, _steps
from cbve.errors import ConvergenceError, DiscretizationError, NumericalError
from cbve import solver
from cbve.solver import _leg

from _instances import (
    bottleneck_environment,
    feller_environment,
    feller_oracle,
    make_env,
    make_sf,
    random_environment,
    random_lambda,
    random_pure_jump_zeta,
    random_special_form,
    uniform_grid,
)


class TestSolveGeneral:
    def test_zero_environment_constant(self):
        env = make_env(uniform_grid(cells=50))
        sol = solve_general(env, 1.0, (2.0, 3.0))
        assert np.all(sol.v[:, 0] == 2.0)
        assert np.all(sol.v[:, 1] == 3.0)
        assert sol.clamp_events == 0

    def test_terminal_condition_exact(self):
        rng = np.random.default_rng(30)
        env = random_environment(rng, cells=100)
        lam = (1.3, 0.4)
        sol = solve_general(env, 1.0, lam)
        assert tuple(sol.v[-1]) == lam

    def test_zero_lambda_stays_zero(self):
        rng = np.random.default_rng(31)
        env = random_environment(rng, cells=100)
        sol = solve_general(env, 1.0, (0.0, 0.0))
        assert np.all(sol.v == 0.0)

    def test_feller_riccati_oracle(self):
        env = feller_environment(cells=10000)
        sol = solve_general(env, 1.0, (1.0, 0.0))
        oracle = feller_oracle(1.0, 1.0, 1.0, 1.0)
        assert abs(sol.v[0, 0] - oracle) <= 1e-4
        assert abs(sol.v[0, 0] - oracle) <= 1e-6  # actual accuracy is higher
        assert np.all(sol.v[:, 1] == 0.0)

    def test_bottleneck_annihilates_component(self):
        env = bottleneck_environment(cells=1000)
        sol = solve_general(env, 1.0, (3.0, 5.0))
        half = env.grid.index_of(0.5)
        assert np.all(sol.v[:half, 0] == 0.0)
        assert np.all(sol.v[half:, 0] == 3.0)
        assert np.all(sol.v[:, 1] == 5.0)

    def test_monotone_in_lambda(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            env = random_environment(rng, cells=150)
            lam = np.array(random_lambda(rng))
            lam_hi = lam + rng.uniform(0.0, 1.0, 2)
            lo = solve_general(env, 1.0, tuple(lam))
            hi = solve_general(env, 1.0, tuple(lam_hi))
            assert np.min(hi.v - lo.v) >= -1e-12

    def test_nonnegative_no_clamps_on_admissible(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            env = random_environment(rng, cells=150)
            sol = solve_general(env, 1.0, random_lambda(rng))
            assert np.min(sol.v) >= 0.0
            assert sol.clamp_events == 0

    def test_interior_terminal_time(self):
        rng = np.random.default_rng(34)
        env = random_environment(rng, cells=100)
        t = float(env.grid.nodes[60])
        sol = solve_general(env, t, (1.0, 1.0))
        assert sol.v.shape == (61, 2)
        assert sol.t == t

    @pytest.mark.parametrize("lam", [(1e6, 1e6), (1e12, 0.0)])
    def test_overflow_at_large_lambda_is_typed(self, lam):
        # h * b11 = 2.5: the decay guard refuses the grid before the sweep,
        # whose predictor (about -1.5 * lam1) would overflow expm1 in the
        # corrector
        grid = uniform_grid(cells=8)
        env = make_env(grid, b11=StieltjesMeasure(grid, np.full(8, 20.0)),
                       m1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(1.0, 0.5, 0.5)])]))
        with pytest.raises(DiscretizationError, match="refine the grid"):
            solve_general(env, 1.0, lam)
        with pytest.raises(DiscretizationError, match="refine the grid"):
            check_flow(env, 0.25, 0.5, 1.0, lam)

    def test_nan_is_not_clamped_to_zero(self):
        # h * b11 = -2.5e9 and lam1 = 1e300: the predictor is -inf, and
        # -inf + inf in the corrector is NaN, which the clamp must not
        # count as a small deficit and return as 0
        env = parse_config({"kind": "environment", "horizon": 1.0, "grid_cells": 4,
                            "b11": {"density": [[0.0, 1.0, -1e10]]},
                            "c1": {"density": [[0.0, 1.0, 1.0]]}}).environment
        assert env.validation.ok
        with pytest.raises(NumericalError, match="non-finite"):
            solve_general(env, 1.0, (1e300, 1.0))
        with pytest.raises(NumericalError, match="non-finite"):
            check_flow(env, 0.0, 0.5, 1.0, (1e300, 1.0))

    @pytest.mark.parametrize("cells, density, lam_i", [(4, -1e300, 1.0),
                                                        (1, -1e200, 1e-50)])
    @pytest.mark.parametrize("i", [1, 2])
    def test_overflow_to_inf_is_refused(self, i, cells, density, lam_i):
        # the corrector's b_ii term overflows to -inf and sends v_i to +inf.
        # At -1e300 the predictor's square overflows too, and inf * 0 is a
        # NaN that the clamp refuses; from lam_i = 1e-50 at -1e200 on one
        # cell the square stays finite, so v_i is +inf with no NaN on the
        # way, and only the sweep's test for +inf refuses it
        grid = uniform_grid(cells=cells)
        diag = StieltjesMeasure(grid, np.full(cells, density))
        env = make_env(grid, **{f"b{i}{i}": diag})
        lam = (lam_i, 0.0) if i == 1 else (0.0, lam_i)
        assert env.validation.ok
        with pytest.raises(NumericalError, match="non-finite"):
            solve_general(env, 1.0, lam)
        with pytest.raises(NumericalError, match="non-finite"):
            check_flow(env, 0.0, 1.0, 1.0, lam)

    def test_solution_is_read_only(self):
        sol = solve_general(random_environment(np.random.default_rng(3), cells=20), 1.0, (1.0, 2.0))
        with pytest.raises(ValueError, match="read-only"):
            sol.v[0, 0] = 0.0

    def test_rejects_negative_lambda(self):
        env = make_env(uniform_grid(cells=10))
        with pytest.raises(ValueError):
            solve_general(env, 1.0, (-0.5, 1.0))

    def test_second_order_convergence_default(self):
        errors = []
        for cells in (100, 200, 400):
            env = feller_environment(cells=cells)
            sol = solve_general(env, 1.0, (1.0, 0.0))
            errors.append(abs(sol.v[0, 0] - feller_oracle(1.0, 1.0, 1.0, 1.0)))
        assert errors[0] / errors[1] > 3.2
        assert errors[1] / errors[2] > 3.2


class TestStiffDecayRefused:
    # over a cell the two-pass step multiplies a mode decaying at rate mu by
    # 1 - z + z^2 / 2, z = h * mu, which exceeds 1 once z > 2: the value
    # then grows where the model decays, with no clamp and no overflow

    @staticmethod
    def _decay_sf(cells, g11, g22=0.0, mu1=()):
        grid = uniform_grid(cells=cells)
        return make_sf(grid, g11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, g11)]),
                       g22=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, g22)]),
                       mu1=JumpMeasure.from_segments(grid, [(0.0, 1.0, list(mu1))]))

    def test_one_cell_pure_decay_is_refused(self):
        # the sweep returned v0 = (0.5258, 7.19e6) here; the exact value is
        # (e^-0.7728, e^-3792) = (0.4617, 0)
        env = special_to_general(self._decay_sf(1, -0.7728309305456271, -3791.9573920304515))
        with pytest.raises(DiscretizationError,
                           match=r"stiff decay on cell 0: h \* mu = 3\.79e\+03 > 2.*refine the grid"):
            solve_general(env, 1.0, (1.0, 1.0))

    @pytest.mark.parametrize("refine, z", [(1, "200"), (32, "6.25")])
    def test_stiff_moment_form_is_refused(self, refine, z):
        # the form of test_moments.TestStiffDecay on 4 and 128 cells: v1(0)
        # read 1.5e17 and 6.5e147, where the true value is about 0
        sf = self._decay_sf(4, -800.0, mu1=[(0.0, 1.0, 1.0)]).refined(refine)
        env = special_to_general(sf)
        with pytest.raises(DiscretizationError, match=rf"cell 0: h \* mu = {z} > 2"):
            solve_general(env, 1.0, (1.0, 1.0))
        with pytest.raises(DiscretizationError, match="stiff decay"):
            check_flow(env, 0.25, 0.5, 1.0, (1.0, 1.0))

    def test_first_stiff_cell_of_the_window_is_named(self):
        # b11 = 20 on cells 5..7 of 8 (z = 2.5); cells 0..4 decay slowly
        grid = uniform_grid(cells=8)
        env = make_env(grid, b11=StieltjesMeasure.from_segments(
            grid, [(0.0, 0.625, 0.5), (0.625, 1.0, 20.0)]))
        with pytest.raises(DiscretizationError, match="cell 5: h"):
            solve_general(env, 1.0, (1.0, 1.0))
        # the window below node 5 holds no stiff cell
        assert solve_general(env, 0.625, (1.0, 1.0)).v.shape == (6, 2)
        # check_flow's fine leg over (s, t] halves z to 1.25, the base legs
        # over (r, t] do not
        with pytest.raises(DiscretizationError, match="cell 5: h \\* mu = 2.5 > 2"):
            check_flow(env, 0.25, 0.75, 1.0, (1.0, 1.0))
        assert check_flow(env, 0.0, 0.25, 0.5, (1.0, 1.0)) >= 0.0
        # b11 = 40 on cells 6..7 flags the fine leg over (s, t] too: its
        # third fine cell, half of cell 6
        env = make_env(grid, b11=StieltjesMeasure.from_segments(
            grid, [(0.0, 0.75, 0.5), (0.75, 1.0, 40.0)]))
        with pytest.raises(DiscretizationError, match="cell 6: h \\* mu = 2.5 > 2"):
            check_flow(env, 0.5, 0.625, 1.0, (1.0, 1.0))

    def test_every_cell_of_a_stiff_run_is_read(self):
        # one run of b11 = 15 on widths 0.1, 0.1, 0.3: only the last cell
        # is stiff, at z = 4.5, and 2.25 on the fine leg's last two cells
        grid = TimeGrid([0.0, 0.1, 0.2, 0.5])
        env = make_env(grid, b11=StieltjesMeasure(grid, np.full(3, 15.0)))
        with pytest.raises(DiscretizationError, match="cell 2: h \\* mu = 4.5 > 2"):
            solve_general(env, 0.5, (1.0, 1.0))
        with pytest.raises(DiscretizationError, match="cell 2: h \\* mu = 2.25 > 2"):
            check_flow(env, 0.0, 0.0, 0.5, (1.0, 1.0))

    def test_z_of_two_is_swept(self):
        # 1 - z + z^2 / 2 is 1 at z = 2: the step does not grow the mode
        grid = uniform_grid(cells=8)
        env = make_env(grid, b11=StieltjesMeasure(grid, np.full(8, 16.0)))
        v = solve_general(env, 1.0, (1.0, 0.0)).v
        assert v[0, 0] == 1.0 and v[0, 1] == 0.0

    def test_decay_rate_is_the_largest_eigenvalue(self):
        rng = np.random.default_rng(12)
        b11, b22 = rng.uniform(-50.0, 50.0, size=(2, 200))
        bb12, bb21 = rng.uniform(0.0, 30.0, size=(2, 200))
        want = [max(np.linalg.eigvals(np.array([[a, -b], [-c, d]])).real)
                for a, d, b, c in zip(b11, b22, bb12, bb21)]
        np.testing.assert_allclose(_decay_rates(b11, b22, bb12, bb21), want,
                                   rtol=1e-12, atol=1e-12)

    def test_only_runs_near_the_limit_are_listed(self):
        # b11 per run 15.1, 15.3 and 16 on 1/8 cells: h * mu 1.8875, 1.9125, 2
        grid = uniform_grid(cells=8)
        env = make_env(grid, b11=StieltjesMeasure(grid, [15.1] * 3 + [15.3] * 3 + [16.0] * 2))
        assert env._table.stiff == ((3, 6, 15.3), (6, 8, 16.0))
        assert make_env(grid)._table.stiff == ()

    @staticmethod
    def _stiff_models():
        """The stiff models above: the pure-decay form, the moment form on
        4 and 128 cells, b11 = 20 or 40 on the last cells of 8, the uneven
        grid, the runs near the limit; and b11 = 30 beside a cross coupling
        on an uneven grid."""
        decay = TestStiffDecayRefused._decay_sf
        grid8, uneven = uniform_grid(cells=8), TimeGrid([0.0, 0.1, 0.2, 0.5, 0.55, 1.0])
        models = [special_to_general(decay(1, -0.7728309305456271, -3791.9573920304515))]
        models += [special_to_general(decay(4, -800.0, mu1=[(0.0, 1.0, 1.0)]).refined(f))
                   for f in (1, 32)]
        models += [make_env(grid8, b11=StieltjesMeasure.from_segments(
            grid8, [(0.0, cut, 0.5), (cut, 1.0, b)])) for cut, b in ((0.625, 20.0), (0.75, 40.0))]
        grid = TimeGrid([0.0, 0.1, 0.2, 0.5])
        models.append(make_env(grid, b11=StieltjesMeasure(grid, np.full(3, 15.0))))
        models.append(make_env(grid8, b11=StieltjesMeasure(
            grid8, [15.1] * 3 + [15.3] * 3 + [16.0] * 2)))
        b11 = StieltjesMeasure(uneven, [30.0, 30.0, 1.0, 30.0, 30.0])
        models.append(make_env(uneven, b11=b11, b12=StieltjesMeasure(uneven, np.full(5, 4.0)),
                               b21=StieltjesMeasure(uneven, [2.0, 2.0, 2.0, 0.0, 0.0])))
        return models

    @staticmethod
    def _listed(env) -> tuple:
        """(lo, hi, mu) of each run of ``env``'s sweep whose widest cell has
        h * mu > 1.9, mu the decay rate of the run's densities, run by run."""
        bb12, bb21 = env._cross_drifts
        out = []
        for lo, hi, _, _ in env._table.runs:
            mu = float(_decay_rates(*(m.density[lo] for m in (env.b11, env.b22, bb12, bb21))))
            if max(env.grid.widths[lo:hi].tolist()) * mu > 1.9:
                out.append((lo, hi, mu))
        return tuple(out)

    @staticmethod
    def _check_legs(env, lo, hi):
        """``_leg`` over cells lo..hi-1, on the model's grid and refined 2
        ways, names the first cell whose own decay rate times any of its
        widths exceeds 2, and otherwise does not refuse a stiff cell."""
        bb12, bb21 = env._cross_drifts
        mu = _decay_rates(env.b11.density, env.b22.density, bb12.density, bb21.density)
        fine = _steps(env.grid.refine(2).widths[2 * lo : 2 * hi])
        for f, steps, grid in ((1, env._table.steps[lo:hi], env.grid),
                               (2, fine, env.grid.refine(2))):
            first = next(((lo + j // f, h * mu[lo + j // f]) for j, (h, _) in enumerate(steps)
                          if h * mu[lo + j // f] > 2.0), None)
            if first is None:
                try:
                    _leg(env, lo, hi, grid, (1.0, 1.0))
                except (DiscretizationError, NumericalError) as exc:
                    assert "stiff decay" not in str(exc)
            else:
                message = "stiff decay on cell {}: h * mu = {:.3g} > 2".format(*first)
                with pytest.raises(DiscretizationError, match=re.escape(message)):
                    _leg(env, lo, hi, grid, (1.0, 1.0))

    def test_stiff_runs_of_hand_built_models(self):
        for env in self._stiff_models():
            assert repr(env._table.stiff) == repr(self._listed(env)) != "()"
            n = env.grid.n_cells
            windows = ([(lo, hi) for hi in range(n + 1) for lo in range(hi + 1)] if n <= 8
                       else [(0, n), (n // 4, n // 2), (n // 2, n), (n - 1, n)])
            for lo, hi in windows:
                self._check_legs(env, lo, hi)

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 16), st.sampled_from([1.0, 20.0, 60.0]),
           st.data())
    def test_stiff_runs_of_random_models(self, seed, cells, T, data):
        env = random_environment(np.random.default_rng(seed), cells=cells, T=T)
        assert repr(env._table.stiff) == repr(self._listed(env))
        lo = data.draw(st.integers(0, cells))
        for window in ((0, cells), (lo, data.draw(st.integers(lo, cells)))):
            self._check_legs(env, *window)


def test_each_loop_build_logs_one_debug_line(monkeypatch, caplog):
    monkeypatch.setattr(solver, "_LOOPS", {})
    env = random_environment(np.random.default_rng(8), cells=60)
    signatures = {(len(row[6]), len(row[7])) for *_, row in env._table.runs}
    with caplog.at_level(logging.DEBUG, logger="cbve.solver"):
        for lam in ((1.0, 1.0), (0.5, 2.0)):
            solve_general(env, 1.0, lam)
            check_flow(env, 0.25, 0.5, 1.0, lam)
    built = []
    for record in caplog.records:
        assert (record.name, record.levelno) == ("cbve.solver", logging.DEBUG)
        match = re.fullmatch(r"sweep loop \((\d+), (\d+)\): (\d+) lines, [0-9.]+ ms",
                             record.getMessage())
        signature = int(match[1]), int(match[2])
        assert int(match[3]) == solver._loop_source(*signature).count("\n")
        built.append(signature)
    assert sorted(built) == sorted(signatures)


class TestSolvePicard:
    def test_zero_coefficients_one_iteration(self):
        sf = make_sf(uniform_grid(cells=20))
        sol = solve_special_picard(sf, 1.0, (1.5, 0.5))
        assert sol.iterations_used == 1
        assert np.all(sol.v[:, 0] == 1.5)
        assert np.all(sol.v[:, 1] == 0.5)

    def test_solution_is_read_only(self):
        sol = solve_special_picard(random_special_form(np.random.default_rng(3), cells=20),
                                   1.0, (1.0, 2.0))
        with pytest.raises(ValueError, match="read-only"):
            sol.v[0, 0] = 0.0

    def test_linear_cross_closed_form(self):
        grid = uniform_grid(cells=100)
        sf = make_sf(
            grid, g12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1.0)])
        )
        sol = solve_special_picard(sf, 1.0, (0.0, 1.0))
        assert np.all(sol.v[:, 1] == 1.0)
        # v1(r) = 1 - r: exact for a constant integrand
        expect = 1.0 - grid.nodes
        assert np.max(np.abs(sol.v[:, 0] - expect)) <= 1e-12

    def test_scalar_jump_ode_oracle(self):
        # backward equation dv/dr = -(1 - e^{-v}) with v(1) = lam, solved by
        # an independent high-accuracy integrator
        grid = uniform_grid(cells=1000)
        sf = make_sf(
            grid, mu1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(1.0, 0.0, 1.0)])])
        )
        lam0 = 1.7
        sol = solve_special_picard(sf, 1.0, (lam0, 0.0))
        ode = solve_ivp(
            lambda r, v: [-(1.0 - math.exp(-v[0]))],
            (1.0, 0.0),
            [lam0],
            t_eval=grid.nodes[::-1],
            rtol=1e-11,
            atol=1e-13,
        )
        oracle = ode.y[0][::-1]
        assert np.max(np.abs(sol.v[:, 0] - oracle)) <= 1e-6

    def test_iterates_monotone_and_bounded(self):
        rng = np.random.default_rng(35)
        for diag in ("none", "atoms", "density"):
            sf = random_special_form(rng, cells=150, diag=diag)
            lam = random_lambda(rng)
            sol = solve_special_picard(sf, 1.0, lam)
            assert min(sol.picard_min_increments) >= -1e-12
            assert max(sol.picard_iterate_maxima) <= sol.picard_bound + 1e-9

    def test_agreement_with_general_solver(self):
        rng = np.random.default_rng(36)
        for _ in range(5):
            sf = random_special_form(rng, cells=300, diag="atoms")
            lam = random_lambda(rng)
            pic = solve_special_picard(sf, 1.0, lam)
            gen = solve_general(special_to_general(sf), 1.0, lam)
            assert np.max(np.abs(pic.v - gen.v)) <= 1e-10

    def test_agreement_with_density_diagonal(self):
        # with a continuous diagonal the internal change of scale is only
        # second-order consistent, so the tolerance is grid-dependent
        rng = np.random.default_rng(37)
        sf = random_special_form(rng, cells=400, diag="density")
        lam = random_lambda(rng)
        pic = solve_special_picard(sf, 1.0, lam)
        gen = solve_general(special_to_general(sf), 1.0, lam)
        assert np.max(np.abs(pic.v - gen.v)) <= 1e-6

    def test_overflowing_change_of_scale_is_typed(self):
        # exp(800) overflows: a typed error, no raw OverflowError or warning
        grid = uniform_grid(cells=64)
        sf = make_sf(grid, g11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 800.0)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="change of scale"):
                solve_special_picard(sf, 1.0, (1.0, 1.0))
            # up to t = 0.5 the exponent is 400, which solves
            sol = solve_special_picard(sf, 0.5, (1.0, 1.0))
        assert np.all(np.isfinite(sol.v))

    def test_overflowing_bound_is_infinite(self):
        # rho(1) = 800: the solve is finite, the a-priori bound exp(rho) is not
        grid = uniform_grid(cells=64)
        cross = StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 400.0)])
        sol = solve_special_picard(make_sf(grid, g12=cross, g21=cross), 1.0, (1.0, 1.0))
        assert np.all(np.isfinite(sol.v))
        assert sol.picard_bound == math.inf

    @pytest.mark.parametrize("T, cross, diag, solves", [
        (5.0, 20.0, (0.0, 0.0), True),      # stiff cross coupling: 191 iterations
        (40.0, 2.0, (1.0, -1.0), True),     # long horizon: 169 iterations
        (5.0, 25.0, (0.0, 0.0), False),     # stiffer coupling: past the cap
        (200.0, 1.0, (0.0, 0.0), False),    # longer horizon: past the cap
    ])
    def test_extreme_inputs_solve_or_raise_a_typed_error(self, tmp_path, capsys,
                                                         T, cross, diag, solves):
        # constant coefficients on 2,000 cells, one jump point for type 1;
        # rho(T) is 200 or more, and the solved iterates pass 1e38
        def const(value):
            return {"density": [[0.0, T, value]]}

        data = {"kind": "special_form", "horizon": T, "grid_cells": 2000,
                "gamma11": const(diag[0]), "gamma22": const(diag[1]),
                "gamma12": const(cross), "gamma21": const(cross),
                "mu1": {"kernel": [[0.0, T, [[0.5, 0.2, 1.0]]]]}}
        sf = parse_config(data).special_form
        if solves:
            sol = solve_special_picard(sf, T, (1.0, 1.0))
            assert sol.iterations_used <= 200
            # monotone up to rounding at the scale of the iterates
            for inc, top in zip(sol.picard_min_increments, sol.picard_iterate_maxima):
                assert inc >= -1e-12 * (1.0 + top)
            assert max(sol.picard_iterate_maxima) <= sol.picard_bound
            return
        with pytest.raises(ConvergenceError, match="200 iterations") as exc:
            solve_special_picard(sf, T, (1.0, 1.0))
        assert exc.value.residual > 1e-12
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--config", str(path), "--lambda", "1,1"]) == 4
        assert capsys.readouterr().err.startswith("numerical failure: Picard iteration")


class TestHTransform:
    def test_zero_zeta_identity(self):
        rng = np.random.default_rng(38)
        sf = random_special_form(rng, cells=100, diag="atoms")
        grid = sf.grid
        zero = StieltjesMeasure.zero(grid)
        tr = h_transform_coefficients(sf, zero, zero)
        assert np.array_equal(tr.gamma12.density, sf.gamma12.density)
        assert tr.gamma11.atoms == sf.gamma11.atoms
        lam = (1.0, 2.0)
        base = solve_special_picard(sf, 1.0, lam)
        mapped = h_transform_solution(base, zero, zero, lam)
        assert np.array_equal(mapped.v, base.v)

    def test_solution_is_read_only(self):
        sf = random_special_form(np.random.default_rng(3), cells=20)
        zero = StieltjesMeasure.zero(sf.grid)
        sol = h_transform_solution(solve_special_picard(sf, 1.0, (1.0, 2.0)), zero, zero, (1.0, 2.0))
        with pytest.raises(ValueError, match="read-only"):
            sol.v[0, 0] = 0.0

    def test_continuous_zeta_drift(self):
        grid = uniform_grid(cells=10)
        sf = make_sf(grid)
        kappa = 0.7
        zeta1 = StieltjesMeasure.from_segments(grid, [(0.0, 1.0, kappa)])
        tr = h_transform_coefficients(sf, zeta1, StieltjesMeasure.zero(grid))
        assert np.allclose(tr.gamma11.density, -kappa)
        assert tr.gamma11.atoms == ()

    def test_atom_drift_mass(self):
        grid = uniform_grid(cells=10)
        sf = make_sf(grid)
        zeta1 = StieltjesMeasure(grid, np.zeros(10), ((0.5, math.log(2.0)),))
        tr = h_transform_coefficients(sf, zeta1, StieltjesMeasure.zero(grid))
        # drift atom is -(1 - e^{-jump}) = -(1 - 1/2)
        assert tr.gamma11.atom_mass_at(0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_constant_scale_relation(self):
        # constant zeta1 = log 2 from time 0+: v1(r) = 2 u1(lam1/2, lam2) for r > 0
        grid = uniform_grid(cells=100)
        rng = np.random.default_rng(39)
        sf = random_special_form(rng, cells=100, diag="none")
        first = float(grid.nodes[1])
        zeta1 = StieltjesMeasure(sf.grid, np.zeros(100), ((first, math.log(2.0)),))
        zeta2 = StieltjesMeasure.zero(sf.grid)
        lam = (1.0, 0.8)
        base = solve_special_picard(sf, 1.0, (lam[0] / 2.0, lam[1]))
        mapped = h_transform_solution(base, zeta1, zeta2, lam)
        assert np.allclose(mapped.v[1:, 0], 2.0 * base.v[1:, 0], rtol=1e-14)
        assert np.allclose(mapped.v[1:, 1], base.v[1:, 1], rtol=1e-14)

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(40)
        for _ in range(5):
            sf = random_special_form(rng, cells=200, diag="atoms")
            grid = sf.grid
            z1 = random_pure_jump_zeta(rng, grid)
            z2 = random_pure_jump_zeta(rng, grid)
            lam = random_lambda(rng)
            transformed = h_transform_coefficients(sf, z1, z2)
            direct = solve_special_picard(transformed, 1.0, lam)
            z1t = float(z1.node_cumulatives[-1])
            z2t = float(z2.node_cumulatives[-1])
            base = solve_special_picard(
                sf, 1.0, (lam[0] * math.exp(-z1t), lam[1] * math.exp(-z2t))
            )
            mapped = h_transform_solution(base, z1, z2, lam)
            assert np.max(np.abs(direct.v - mapped.v)) <= 1e-10

    @staticmethod
    def _kernel_form(weight=0.8):
        grid = uniform_grid(cells=4)
        return make_sf(
            grid,
            g12=StieltjesMeasure(grid, np.zeros(4), ((0.5, 0.3),)),
            mu1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.3, 0.2, weight)])]),
        )

    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("density", [4000.0, -4000.0])
    def test_overflowing_scale_change_is_typed(self, i, density):
        sf = self._kernel_form()
        zetas = [StieltjesMeasure.zero(sf.grid)] * 2
        zetas[i] = StieltjesMeasure.from_segments(sf.grid, [(0.0, 1.0, density)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="scale change overflows"):
                h_transform_coefficients(sf, *zetas)

    @pytest.mark.parametrize("density", [1000.0, -1000.0])
    def test_overflowing_solution_rescale_is_typed(self, density):
        # +1000: e^{zeta_1} overflows on rescaling v; -1000: the expected
        # terminal argument e^{-zeta_1(t)} lam_1 overflows
        sf = self._kernel_form()
        zero = StieltjesMeasure.zero(sf.grid)
        zeta1 = StieltjesMeasure.from_segments(sf.grid, [(0.0, 1.0, density)])
        # solved for e^{-1000} lam_1 = 0, as the h-transform of +1000 asks
        base = solve_special_picard(sf, 1.0, (0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflows"):
                h_transform_solution(base, zeta1, zero, (1.0, 1.0))

    def test_underflowing_weight_is_rejected(self):
        # e^{-75} times 1e-300 is 0 in double precision: the point is not
        # silently dropped, its zero weight fails the kernel's check
        sf = self._kernel_form(weight=1e-300)
        zeta1 = StieltjesMeasure.from_segments(sf.grid, [(0.0, 1.0, -100.0)])
        with pytest.raises(ValueError, match="positive and finite"):
            h_transform_coefficients(sf, zeta1, StieltjesMeasure.zero(sf.grid))

    def test_zeta_on_another_grid_is_refused(self):
        grid = uniform_grid(cells=4)
        sf = make_sf(grid)
        other = StieltjesMeasure.zero(uniform_grid(cells=5))
        zero = StieltjesMeasure.zero(grid)
        with pytest.raises(ValueError, match="^zeta must live on the grid of the coefficients$"):
            h_transform_coefficients(sf, zero, other)
        sol = solve_special_picard(sf, 1.0, (1.0, 1.0))
        with pytest.raises(ValueError, match="^zeta must live on the solution grid$"):
            h_transform_solution(sol, other, zero, (1.0, 1.0))

    def test_terminal_argument_contract(self):
        rng = np.random.default_rng(41)
        sf = random_special_form(rng, cells=50, diag="none")
        z1 = random_pure_jump_zeta(rng, sf.grid)
        z2 = StieltjesMeasure.zero(sf.grid)
        base = solve_special_picard(sf, 1.0, (1.0, 1.0))
        with pytest.raises(ValueError, match="terminal-argument"):
            h_transform_solution(base, z1, z2, (1.0, 1.0))


class TestGronwallBound:
    def test_no_growth(self):
        grid = uniform_grid(cells=100)
        z = StieltjesMeasure.zero(grid)
        bounds = gronwall_bound(((z, z), (z, z)), (1.0, 1.0), 1.0)
        assert bounds == (1.0, 1.0)

    def test_scalar_exponential(self):
        grid = uniform_grid(cells=200)
        z = StieltjesMeasure.zero(grid)
        one = StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1.0)])
        bounds = gronwall_bound(((one, z), (z, z)), (1.0, 1.0), 1.0)
        assert bounds[0] == pytest.approx(math.e, rel=1e-12)
        assert bounds[1] == 1.0

    def test_cross_coupling_closed_form(self):
        # d_1 = 1 + 1, double integral of (1 - s) equals one half
        grid = uniform_grid(cells=200)
        z = StieltjesMeasure.zero(grid)
        one = StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1.0)])
        bounds = gronwall_bound(((z, one), (one, z)), (1.0, 1.0), 1.0)
        assert bounds[0] == pytest.approx(2.0 * math.exp(0.5), rel=1e-12)
        assert bounds[1] == pytest.approx(2.0 * math.exp(0.5), rel=1e-12)

    @pytest.mark.parametrize("a, match", [
        ((np.ones(3), 1.0), "expected a scalar or one value per grid node"),
        ((-1.0, 1.0), "expected a finite, nonnegative, nondecreasing node function"),
        ((np.linspace(1.0, 0.0, 11), 1.0), "expected a finite, nonnegative, nondecreasing"),
        # NaN passed both comparisons, and inf gave a NaN bound with a warning
        ((math.nan, 1.0), "expected a finite, nonnegative, nondecreasing node function"),
        ((1.0, math.inf), "expected a finite, nonnegative, nondecreasing node function"),
    ])
    def test_bad_a_is_refused(self, a, match):
        z = StieltjesMeasure.zero(uniform_grid(cells=10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{match}"):
                gronwall_bound(((z, z), (z, z)), a, 1.0)

    def test_bad_beta_is_refused(self):
        grid = uniform_grid(cells=10)
        z = StieltjesMeasure.zero(grid)
        with pytest.raises(ValueError, match="^beta measures must share one grid$"):
            gronwall_bound(((z, StieltjesMeasure.zero(uniform_grid(cells=5))), (z, z)),
                           (1.0, 1.0), 1.0)
        signed = StieltjesMeasure(grid, np.full(10, -1.0))
        with pytest.raises(ValueError, match="^beta measures must be nondecreasing$"):
            gronwall_bound(((z, z), (signed, z)), (1.0, 1.0), 1.0)

    def test_weight_overflow_is_typed(self):
        # exp(beta_22) overflows past 0.71, but not at t = 0.5
        grid = uniform_grid(cells=10)
        z = StieltjesMeasure.zero(grid)
        steep = StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1000.0)])
        assert math.isfinite(gronwall_bound(((z, z), (z, steep)), (1.0, 1.0), 0.5)[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflows before t"):
                gronwall_bound(((z, z), (z, steep)), (1.0, 1.0), 1.0)


class TestGrowthExponent:
    def test_zero(self):
        sf = make_sf(uniform_grid(cells=10))
        assert apriori_growth_exponent(sf, 1.0) == 0.0

    def test_cross_only(self):
        grid = uniform_grid(cells=10)
        sf = make_sf(
            grid, g12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1.0)])
        )
        assert apriori_growth_exponent(sf, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_combined_measure_cancellation(self):
        # diagonal drift -1 exactly offsets the unit own-coordinate inflow,
        # so the combined variation vanishes
        grid = uniform_grid(cells=10)
        sf = make_sf(
            grid,
            g11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, -1.0)]),
            mu1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(1.0, 0.0, 1.0)])]),
        )
        assert apriori_growth_exponent(sf, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_nan_time_is_refused(self):
        # NaN used to read as T, giving rho(T)
        grid = uniform_grid(cells=10)
        sf = make_sf(grid, g12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1.0)]))
        with pytest.raises(ValueError, match="outside"):
            apriori_growth_exponent(sf, math.nan)


class TestUpperBound:
    def test_zero_environment(self):
        env = make_env(uniform_grid(cells=10))
        assert cumulant_upper_bound(env, 1, 0.0, 1.0, (1.0, 0.0)) == 1.0

    def test_cross_drift_value(self):
        grid = uniform_grid(cells=10)
        env = make_env(
            grid, b12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1.0)])
        )
        val = cumulant_upper_bound(env, 1, 0.0, 1.0, (1.0, 1.0))
        assert val == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)

    def test_dominates_feller_solution(self):
        env = feller_environment(cells=2000)
        sol = solve_general(env, 1.0, (1.0, 0.0))
        bound = cumulant_upper_bound(env, 1, 0.0, 1.0, (1.0, 0.0))
        assert sol.v[0, 0] == pytest.approx(0.2254, abs=1e-3)
        assert np.max(sol.v[:, 0]) <= bound + 1e-12

    def test_nan_time_is_refused(self):
        grid = uniform_grid(cells=10)
        env = make_env(grid, b12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1.0)]))
        with pytest.raises(ValueError, match="outside"):
            cumulant_upper_bound(env, 1, 0.0, math.nan, (1.0, 1.0))


class TestCheckFlow:
    def test_zero_environment_exact(self):
        env = make_env(uniform_grid(cells=100))
        assert check_flow(env, 0.0, 0.5, 1.0, (2.0, 3.0)) == 0.0

    def test_degenerate_split_exact(self):
        env = feller_environment(cells=500)
        assert check_flow(env, 0.0, 1.0, 1.0, (1.0, 0.0)) == 0.0

    def test_feller_residual_small(self):
        env = feller_environment(cells=10000)
        res = check_flow(env, 0.0, 0.5, 1.0, (1.0, 0.0))
        assert res <= 1e-6

    def test_residual_shrinks_under_refinement(self):
        env = feller_environment(cells=500)
        res = check_flow(env, 0.0, 0.5, 1.0, (1.0, 0.0))
        res4 = check_flow(env.refined(4), 0.0, 0.5, 1.0, (1.0, 0.0))
        assert res4 <= res / 3.0


def _pair_readers():
    """Every public entry point that reads a pair, as (name the error
    gives, call on the pair)."""
    grid = uniform_grid(cells=4)
    env = make_env(grid)
    sf = make_sf(grid, mu1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.0, 1.0, 1.0)])]))
    sol = solve_general(env, 1.0, (1.0, 1.0))
    zero = StieltjesMeasure.zero(grid)
    ok = (1.0, 1.0)
    return [
        ("lambda", lambda p: solve_general(env, 1.0, p)),
        ("lambda", lambda p: solve_special_picard(sf, 1.0, p)),
        ("lambda", lambda p: h_transform_solution(sol, zero, zero, p)),
        ("lambda", lambda p: cumulant_upper_bound(env, 1, 0.0, 1.0, p)),
        ("lambda", lambda p: check_flow(env, 0.0, 0.5, 1.0, p)),
        ("lambda", lambda p: solve_moment(env, 1.0, p)),
        ("lambda", lambda p: finite_diff_check(env, 1.0, p, 1e-3)),
        ("state", lambda p: mean_of_transition(env, 0.0, 1.0, p, ok)),
        ("lambda", lambda p: mean_of_transition(env, 0.0, 1.0, ok, p)),
        ("lambda", lambda p: mechanism_atom_increment(env, 1, p, 0.5)),
        ("initial state", lambda p: simulate_path(sf, p, 1.0, 3)),
        ("initial state", lambda p: mc_laplace(sf, p, 1.0, ok, 100, 3)),
        ("lambda", lambda p: mc_laplace(sf, ok, 1.0, p, 100, 3)),
        ("initial state", lambda p: mc_mean(sf, p, 1.0, ok, 100, 3)),
        ("lambda", lambda p: mc_mean(sf, ok, 1.0, p, 100, 3)),
    ]


@pytest.mark.parametrize("bad", ["12", "34", (1.0, 1.0, 7.0), 1.0, (1.0,), ("1", "2"), None,
                                 (True, 0.0)])
def test_a_pair_is_exactly_two_real_numbers(bad):
    # "12" used to read as (1, 2), (1, 1, 7) dropped its 7, a scalar or a
    # one-tuple raised a raw TypeError or IndexError, and True read as 1.0
    for what, read in _pair_readers():
        with pytest.raises(ValueError, match=f"^{what} must be a pair of real numbers$"):
            read(bad)


def test_a_pair_may_be_any_two_real_numbers():
    env = make_env(uniform_grid(cells=4))
    want = solve_general(env, 1.0, (1.0, 2.0)).v
    grid = uniform_grid(cells=4)
    sf = make_sf(grid, mu1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.0, 1.0, 1.0)])]))
    est = mc_mean(sf, (1.0, 2.0), 1.0, (1.0, 1.0), 100, 3)
    for pair in ([1, 2], np.array([1.0, 2.0]), (np.float32(1.0), np.int64(2)), iter((1.0, 2.0))):
        assert np.array_equal(solve_general(env, 1.0, pair).v, want)
    assert mc_mean(sf, iter((1.0, 2.0)), 1.0, np.array([1, 1]), 100, 3) == est
