"""Exact path simulation and Monte-Carlo consistency."""
import math
import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import linalg, stats

from cbve import (
    Environment,
    JumpMeasure,
    SeedSpec,
    SpecialForm,
    StieltjesMeasure,
    finite_activity_approximation,
    load_config,
    mc_laplace,
    mc_mean,
    simulate_path,
    solve_special_picard,
    solve_general,
)
from cbve import simulator
from cbve.compiled import _expm2
from cbve.simulator import _simulate_paths
from cbve.streams import PCGStreams
from cbve.errors import NumericalError

import _reference
from _instances import make_env, make_sf, mc_cases, uniform_grid


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

    def test_flow_matrix_overflow_is_typed(self):
        # on one cell the flow matrix exp(800) itself overflows
        grid = uniform_grid(cells=1)
        sf = make_sf(grid, g11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 800.0)]))
        with pytest.raises(NumericalError, match="overflow"):
            simulate_path(sf, (1.0, 1.0), 1.0, 3)

    def test_cross_blow_up_is_typed(self):
        grid = uniform_grid(cells=64)
        cross = StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 300.0)], (), True)
        sf = make_sf(grid, g12=cross, g21=cross)
        with pytest.raises(NumericalError, match="overflow"):
            simulate_path(sf, (1.0, 1.0), 1.0, 3)

    @pytest.mark.parametrize("x0", [(-1.0, 0.0), (math.nan, 0.0), (0.0, math.inf),
                                    (1.0, -math.inf)])
    def test_bad_initial_state_is_refused(self, x0):
        sf = _jump_sf()
        with pytest.raises(ValueError, match="initial state"):
            simulate_path(sf, x0, 1.0, 0)
        with pytest.raises(ValueError, match="initial state"):
            mc_laplace(sf, x0, 1.0, (1.0, 1.0), 100, 0)

    @staticmethod
    def _no_paths(monkeypatch, name="_blocks"):
        def fail(*args, **kwargs):
            raise AssertionError("a path was simulated")
        monkeypatch.setattr(simulator, name, fail)

    @pytest.mark.parametrize("lam", [(-1.0, 1.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_bad_lambda_is_refused_before_any_path(self, monkeypatch, lam):
        sf = _jump_sf()
        self._no_paths(monkeypatch)
        with pytest.raises(ValueError, match="lambda must be finite and componentwise"):
            mc_laplace(sf, (1.0, 1.0), 1.0, lam, 20_000, 0)

    @pytest.mark.parametrize("lam", [(math.inf, 0.0), (math.nan, -1.0)])
    def test_mc_mean_refuses_a_non_finite_lambda_first(self, monkeypatch, lam):
        # inf * 0 in the path values used to warn before anything raised
        sf = _jump_sf()
        self._no_paths(monkeypatch)
        with pytest.raises(ValueError, match="lambda must be finite$"):
            mc_mean(sf, (1.0, 1.0), 1.0, lam, 20_000, 0)

    @pytest.mark.parametrize("seed", [1.5, -1, "3", None, SeedSpec(2.0), SeedSpec(-4)])
    def test_bad_seed_is_refused_before_any_path(self, monkeypatch, seed):
        # int(seed) used to run seed 1's paths for seed 1.5
        sf = _jump_sf()
        self._no_paths(monkeypatch, "_run")
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            simulate_path(sf, (1.0, 1.0), 1.0, seed)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            mc_laplace(sf, (1.0, 1.0), 1.0, (1.0, 1.0), 100, seed)

    @pytest.mark.parametrize("n_paths", [150.5, "200", None])
    def test_bad_path_count_is_refused_before_any_path(self, monkeypatch, n_paths):
        # numpy's np.empty and the comparison with 100 used to raise TypeError
        sf, x0, lam = mc_cases()[0]
        self._no_paths(monkeypatch)
        for mc in (mc_laplace, mc_mean):
            with pytest.raises(ValueError, match="n_paths must be an integer of at least 100"):
                mc(sf, x0, 1.0, lam, n_paths, 0)


class TestStiffThinning:
    # a 4-cell form whose drift makes exp(800 * cell width) about e^200: a
    # majorant over the whole remaining cell gave gaps of about 1e-87

    @staticmethod
    def _stiff_sf(density, cross=0.0):
        grid = uniform_grid(cells=4)
        return make_sf(
            grid,
            g11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, density)]),
            g21=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, cross)], (), True),
            mu1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.0, 1.0, 1.0)])]),
        )

    @pytest.mark.parametrize("cross", [0.0, 800.0])
    def test_stiff_growth_raises_at_once(self, cross):
        sf = self._stiff_sf(800.0, cross)
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="overflow"):
            simulate_path(sf, (1.0, 1.0), 1.0, 3)
        with pytest.raises(NumericalError, match="overflow"):
            mc_mean(sf, (1.0, 1.0), 1.0, (1.0, 1.0), 1000, 3)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("cross", [0.0, 800.0])
    def test_stiff_decay_finishes(self, cross):
        # pure decay cannot grow x1 + x2, so each cell is one window; type 2
        # feeding type 1 at rate 800 gives windows of ln 2 / 800
        sf = self._stiff_sf(-800.0, cross)
        start = time.perf_counter()
        state, _ = simulate_path(sf, (1.0, 1.0), 1.0, 3)
        assert time.perf_counter() - start < 1.0
        assert 0.0 <= state[0] < 10.0 and 1.0 <= state[1] < 10.0

    def test_stiff_conservative_cell_is_one_window(self):
        # type 1 moves into type 2 at rate 1e6: x1 + x2 is conserved, so
        # the column sums (0, 0) allow one window in all, where the summed
        # |drift| would have cut each cell into about 720,000 windows
        grid = uniform_grid(cells=4)
        sf = make_sf(
            grid,
            g11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, -1e6)]),
            g12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1e6)], (), True),
            mu1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.0, 1.0, 1.0)])]),
        )
        start = time.perf_counter()
        state, _ = simulate_path(sf, (1.0, 1.0), 1.0, 3)
        states, _ = _simulate_paths(sf, (1.0, 1.0), 1.0, 3, 1000)
        assert time.perf_counter() - start < 1.0
        # x1 has about 1e-6 of mass to jump with, so no path jumps
        assert state[0] < 1e-12 and state[1] == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(states.sum(axis=1), 2.0, rtol=1e-12, atol=0.0)


class TestAtomBatch:
    @staticmethod
    def _batch_sf(weight):
        grid = uniform_grid(cells=4)
        return make_sf(grid, mu1=JumpMeasure.from_segments(
            grid, atoms=[(0.5, [(0.0, 1.0, weight)])]))

    def test_large_mean_batch_finishes(self):
        # mean 1200: exp(-1200) is 0, so the batch is drawn as three
        # independent Poisson(400) pieces
        sf = self._batch_sf(1.2)
        state, events = simulate_path(sf, (1000.0, 0.0), 1.0, 5)
        jumps = sum(e.kind == "branch_jump" for e in events)
        assert abs(jumps - 1200) < 6.0 * math.sqrt(1200)
        assert state == (1000.0, float(jumps))
        est = mc_mean(sf, (1000.0, 0.0), 1.0, (0.0, 1.0), 400, 6)
        assert abs(est.z_score) <= 4.0

    def test_batch_beyond_the_budget_is_typed(self):
        sf = self._batch_sf(1.0)
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="budget"):
            simulate_path(sf, (1e8, 0.0), 1.0, 5)
        assert time.perf_counter() - start < 1.0


class TestCandidateBudget:
    # x1 + x2 = 2e11 on jump_special.json's first stretch (width 0.5, total
    # kernel weight 1) means about 1e11 candidates against a budget of 1e7;
    # the engine pays one round per candidate, so drawing them took minutes

    @staticmethod
    def _jump_special():
        return load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                        "configs", "jump_special.json")).special_form

    @staticmethod
    def _decaying():
        # each type decays at rate 50, so x1 + x2 shrinks and the candidate
        # mean on the unit stretch is about 1e11 / 50 = 2e9
        grid = uniform_grid(cells=4)
        decay = StieltjesMeasure.from_segments(grid, [(0.0, 1.0, -50.0)])
        mu = JumpMeasure.from_segments(grid, [(0.0, 1.0, [(1.0, 0.0, 1.0)])])
        return make_sf(grid, g11=decay, g22=decay, mu1=mu, mu2=mu)

    @pytest.mark.parametrize("form", ["_jump_special", "_decaying"])
    def test_path_past_the_budget_is_refused_before_drawing(self, form):
        sf = getattr(self, form)()
        for run in (lambda: simulate_path(sf, (1e11, 1e11), 1.0, 3),
                    lambda: mc_laplace(sf, (1e11, 1e11), 1.0, (1.0, 1.0), 100, 3)):
            start = time.perf_counter()
            with pytest.raises(NumericalError, match="budget"):
                run()
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("x", [1.5e5, 7.5e4])
    def test_path_past_the_budget_over_its_stretches_is_refused(self, monkeypatch, x):
        # with a budget of 1e5 the first stretch expects about x candidates,
        # under twice the budget, and at 7.5e4 only the whole path passes it;
        # a refusal that looked at one stretch past twice the budget drew
        # candidates for about 6 s before the budget ran out
        monkeypatch.setattr(simulator, "_MAX_CANDIDATES", 100_000)
        sf = self._jump_special()
        for run in (lambda: simulate_path(sf, (x, x), 1.0, 3),
                    lambda: mc_laplace(sf, (x, x), 1.0, (1.0, 1.0), 100, 3)):
            start = time.perf_counter()
            with pytest.raises(NumericalError, match="budget"):
                run()
            assert time.perf_counter() - start < 1.0

    def test_look_ahead_values(self):
        # jump_special: G's smaller column sum is 0, so a stretch adds its
        # width times its kernel weight (1 before 0.5, then 1.6); the atom at
        # 0.5 scales x1 by 0.7 and the one at 0.75 draws from mu1 only
        sf = self._jump_special()
        got = simulator._stretches(sf._sim_table, sf.grid.index_of(1.0))
        want = [(0, 8, 0.5 + 0.7 * (0.4 + 0.4)), (8, 12, 0.4 + 0.4), (12, 16, 0.4)]
        assert got == [(k, b, pytest.approx(a, rel=1e-15)) for k, b, a in want]
        # decaying at rate 50 for unit time with kernel weight 2
        sf = self._decaying()
        assert simulator._stretches(sf._sim_table, 4) == [
            (0, 4, pytest.approx(2.0 * -math.expm1(-50.0) / 50.0, rel=1e-15))]
        assert simulator._stretches(sf._sim_table, 0) == []

    def test_look_ahead_refuses_per_path(self, monkeypatch):
        # the block's largest mean passes its smallest room, but no path's
        # mean passes its own room: path 0 has x1 + x2 = 300 and all of the
        # budget left, path 1 a tiny state and 10 candidates left
        monkeypatch.setattr(simulator, "_MAX_CANDIDATES", 1_000)
        sf = self._jump_special()
        tab = sf._sim_table
        k, b, ahead = simulator._stretches(tab, sf.grid.index_of(1.0))[0]
        x1, x2 = np.array([150.0, 1e-9]), np.array([150.0, 0.0])
        cand = np.array([0, 990])
        uniforms = simulator._Uniforms(2, PCGStreams(3, np.arange(2)).block)
        simulator._stretch(tab, k, b, ahead, x1, x2, uniforms, cand, None)
        assert cand[1] <= 1_000 and 0 < cand[0] <= 1_000
        # one path with all of the budget left: a mean of 1,400 to node M
        # passes the room of 1,000 by more than 10 standard deviations (the
        # bound is (5 + sqrt(1025))^2 = 1370.2) and is refused before any
        # draw; a mean of 1,100 is not, and on this first stretch, which
        # holds about half of it, the path draws and fits
        def stretch(mean, draws):
            streams = PCGStreams(3, np.arange(1))
            uniforms = simulator._Uniforms(1, lambda rows: draws.append(rows) or streams.block(rows))
            x = np.array([mean / ahead / 2.0])
            simulator._stretch(tab, k, b, ahead, x, x.copy(), uniforms, np.zeros(1, np.int64), None)

        draws = []
        with pytest.raises(NumericalError, match="budget"):
            stretch(1400.0, draws)
        assert not draws
        stretch(1100.0, draws)
        assert draws

    def test_in_loop_guard_stops_a_path_that_outgrows_the_budget(self, monkeypatch):
        # each jump adds 20 to x1, so x1 + x2 grows like e^(20 t), while the
        # look-ahead, which does not count growth by jumps, expects only one
        # candidate per unit of x0: the round count must stop the path
        monkeypatch.setattr(simulator, "_MAX_CANDIDATES", 2_000)
        grid = uniform_grid(cells=1)
        sf = make_sf(grid, mu1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(20.0, 0.0, 1.0)])]))
        assert simulator._stretches(sf._sim_table, 1) == [(0, 1, 1.0)]
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="thinning candidate budget exhausted"):
            mc_laplace(sf, (1.0, 0.0), 1.0, (1.0, 1.0), 100, 3)
        assert time.perf_counter() - start < 1.0


class TestFlowRounding:
    # exp(hG) is nonnegative, but the diagonal of _expm2 rounds to about -eps
    # at these rates (e22 = -2.8e-17 for the second form): a state of 1e8
    # flowed to about -1e-9 and was refused as having left the quadrant

    @staticmethod
    def _decay(g11, g22):
        grid = uniform_grid(cells=1)
        return make_sf(grid, g11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, g11)]),
                       g22=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, g22)]))

    CASES = [((-114.97971143433165, -1.9631594705541522), (1e8, 1.0)),
             ((-0.7728309305456271, -3791.9573920304515), (1.0, 1e8))]

    def test_expm2_rounds_below_zero(self):
        assert _expm2(-0.7728309305456271, 0.0, 0.0, -3791.9573920304515)[3] < 0.0

    @pytest.mark.parametrize("rates, x0", CASES)
    def test_rounding_is_clamped(self, rates, x0):
        sf = self._decay(*rates)
        exact = [x * math.exp(g) for x, g in zip(x0, rates)]
        state, events = simulate_path(sf, x0, 1.0, 3)
        assert events == [] and min(state) >= 0.0
        assert state == pytest.approx(exact, rel=1e-14, abs=1e-8)
        states, _ = _simulate_paths(sf, x0, 1.0, 3, 100)
        assert states.min() >= 0.0
        est = mc_mean(sf, x0, 1.0, (1.0, 1.0), 100, 3)
        assert est.estimate == pytest.approx(sum(exact), rel=1e-14)
        assert est.z_score == 0.0


class TestExpm2:
    def test_stiff_matrix(self):
        # cosh(800) overflows, yet every entry of exp(M) is 0.5
        m = np.array([[-800.0, 800.0], [800.0, -800.0]])
        got = np.array(_expm2(-800.0, 800.0, 800.0, -800.0)).reshape(2, 2)
        assert np.allclose(got, linalg.expm(m), rtol=1e-13, atol=0.0)

    def test_matches_scipy(self):
        # Metzler matrices (nonnegative off-diagonals, the only ones the
        # callers pass) with entries up to magnitude 1, where scipy's expm is
        # itself accurate to a few ulps, compared relative to the largest
        # entry; tiny scales reach the series
        rng = np.random.default_rng(2024)
        for _ in range(500):
            m = rng.uniform(-1.0, 1.0, (2, 2)) * 10.0 ** rng.uniform(-9.0, 0.0)
            m[0, 1], m[1, 0] = abs(m[0, 1]), abs(m[1, 0])
            ref = linalg.expm(m)
            got = np.array(_expm2(m[0, 0], m[0, 1], m[1, 0], m[1, 1])).reshape(2, 2)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


_ENTRY = st.one_of(
    st.floats(-1e3, 1e3), st.floats(-1e-6, 1e-6), st.sampled_from([0.0, -800.0, 800.0]))
_CROSS = st.one_of(
    st.floats(0.0, 1e3), st.floats(0.0, 1e-6), st.sampled_from([0.0, -0.0, 800.0]))
_DT = st.one_of(
    st.floats(0.0, 2.0),
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4).map(np.array))


@settings(max_examples=300, derandomize=True)
@given(_ENTRY, _CROSS, _CROSS, _ENTRY, _DT, st.booleans())
@example(-800.0, 800.0, 800.0, -800.0, 1.0, False)
@example(-800.0, 800.0, 800.0, -800.0, np.array([0.0, 0.5, 1.0]), False)
@example(0.3, 0.0, 2.0, 0.3, 1.0, False)
@example(0.3, 1e-17, 1e-17, 0.3, np.array([0.25, 2.0]), False)
def test_expm2_matches_its_reference_bits(m11, m12, m21, m22, dt, equal_diagonal):
    # the reference keeps the trigonometric and the q == 0 branches; on
    # Metzler input they are dead or give the same bits as the series, so
    # the two agree bit for bit: q = 0 (equal diagonals with a zero cross
    # entry), tiny q, and the stiff (-800, 800) case included
    if equal_diagonal:
        m22 = m11
    with np.errstate(over="ignore", invalid="ignore"):
        got = _expm2(m11, m12, m21, m22, dt)
        want = _reference.expm2(m11, m12, m21, m22, dt)
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


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

    def test_estimates_hold_plain_floats(self):
        sf = _jump_sf(rate=1.5)
        for check in (mc_laplace, mc_mean):
            est = check(sf, (1.0, 0.5), 1.0, (1.0, 0.5), 200, 7)
            assert type(est.n_paths) is int
            for field in ("estimate", "std_error", "target", "z_score"):
                assert type(getattr(est, field)) is float, (check.__name__, field)

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


class TestReferenceModels:
    """mc_laplace and mc_mean build the models their targets are solved on
    once per form, keep them on the form, and solve them on every call:
    the 32-times refined form for the Laplace target, and the form's own
    general form for the mean, which is exact on the form's grid."""

    @staticmethod
    def _spy(monkeypatch):
        built, solved = [], []
        refine = SpecialForm.refined

        def refined(self, factor):
            built.append(factor)
            return refine(self, factor)

        monkeypatch.setattr(SpecialForm, "refined", refined)
        for name in ("solve_special_picard", "solve_moment"):
            def solve(model, t, lam, _real=getattr(simulator, name)):
                solved.append(model)
                return _real(model, t, lam)

            monkeypatch.setattr(simulator, name, solve)
        return built, solved

    def test_laplace_then_mean_refines_once(self, monkeypatch):
        sf = _jump_sf(rate=1.5)
        args = (sf, (1.0, 0.5), 1.0, (1.0, 0.5), 200, 7)
        fresh = (mc_laplace(*args), mc_mean(*args))
        built, solved = self._spy(monkeypatch)
        sf = _jump_sf(rate=1.5)
        args = (sf,) + args[1:]
        got = mc_laplace(*args), mc_mean(*args), mc_laplace(*args), mc_mean(*args)
        assert got == fresh + fresh
        assert built == [32]
        ref, env, ref2, env2 = solved
        assert ref is ref2 and env is env2
        assert isinstance(ref, SpecialForm) and ref.grid.n_cells == 32 * sf.grid.n_cells
        assert isinstance(env, Environment) and env.grid is sf.grid
        # the public refined() still returns a new model
        assert sf.refined(32) is not ref
