"""Mechanism kernels, interval increments and Lipschitz bookkeeping."""
import math

import numpy as np
import pytest

from cbve import (
    JumpMeasure,
    StieltjesMeasure,
    compensated_jump_kernel,
    effective_cross_drift,
    finite_activity_approximation,
    lipschitz_constants,
    mechanism_atom_increment,
    mechanism_increment,
    partially_compensated_jump_kernel,
    special_mechanism_increment,
)
from cbve.mechanism import as_vector_function

from _instances import make_env, random_environment, uniform_grid


class TestKernels:
    def test_partial_vanishes_at_zero(self):
        assert partially_compensated_jump_kernel(1, (0.0, 0.0), (3.0, 4.0)) == 0.0

    def test_partial_own_coordinate(self):
        val = partially_compensated_jump_kernel(1, (1.0, 0.0), (1.0, 0.0))
        assert val == pytest.approx(math.exp(-1) - 1 + 1, rel=1e-12)

    def test_partial_type_index(self):
        with pytest.raises(ValueError, match="^type index must be 1 or 2$"):
            partially_compensated_jump_kernel(3, (1.0, 1.0), (1.0, 1.0))

    def test_partial_negative_branch(self):
        val = partially_compensated_jump_kernel(1, (0.0, 1.0), (0.0, 1.0))
        assert val == pytest.approx(math.exp(-1) - 1, rel=1e-12)

    def test_full_vanishes_at_zero(self):
        assert compensated_jump_kernel((0.0, 0.0), (1.0, 1.0)) == 0.0

    def test_full_direct_value(self):
        val = compensated_jump_kernel((1.0, 1.0), (1.0, 1.0))
        assert val == pytest.approx(math.exp(-2) - 1 + 2, rel=1e-12)

    def test_full_quadratic_regime(self):
        # Taylor oracle: x^2/2 - x^3/6 for small x
        x = 1e-4
        val = compensated_jump_kernel((x, 0.0), (1.0, 0.0))
        assert val == pytest.approx(x * x / 2 - x**3 / 6, rel=1e-6)

    def test_full_bounds_sampled(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            lam = rng.uniform(0, 3, 2)
            z = rng.uniform(0, 3, 2)
            x = float(lam @ z)
            val = compensated_jump_kernel(lam, z)
            assert -1e-15 <= val <= x * x / 2 + 1e-15


class TestMechanismIncrement:
    def test_zero_function(self):
        rng = np.random.default_rng(4)
        env = random_environment(rng, cells=50)
        f = np.zeros((env.grid.nodes.size, 2))
        for i in (1, 2):
            assert mechanism_increment(env, i, f, 0.0, 1.0) == 0.0

    def test_constant_drift_closed_form(self):
        grid = uniform_grid(cells=40)
        beta, gamma = 0.8, 0.5
        env = make_env(
            grid,
            b11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, beta)]),
            b12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, gamma)], (), True),
        )
        a1, a2 = 1.2, 0.4
        f = np.column_stack(
            (np.full(grid.nodes.size, a1), np.full(grid.nodes.size, a2))
        )
        r, t = 0.25, 0.75
        expect = (t - r) * (a1 * beta - a2 * gamma)
        assert mechanism_increment(env, 1, f, r, t) == pytest.approx(expect, rel=1e-12)

    def test_jump_only_closed_form(self):
        grid = uniform_grid(cells=40)
        rho, a = 0.7, 1.1
        env = make_env(
            grid, m1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(1.0, 0.0, rho)])])
        )
        f = np.column_stack(
            (np.full(grid.nodes.size, a), np.zeros(grid.nodes.size))
        )
        r, t = 0.0, 1.0
        expect = (t - r) * rho * (math.exp(-a) - 1 + a)
        assert mechanism_increment(env, 1, f, r, t) == pytest.approx(expect, rel=1e-12)


class TestMechanismAtomIncrement:
    def test_no_atoms(self):
        env = make_env(uniform_grid(cells=10))
        assert mechanism_atom_increment(env, 1, (2.0, 3.0), 0.5) == 0.0

    def test_unit_drift_jump_takes_own_component(self):
        grid = uniform_grid(cells=10)
        env = make_env(grid, b11=StieltjesMeasure(grid, np.zeros(10), ((0.5, 1.0),)))
        assert mechanism_atom_increment(env, 1, (3.0, 5.0), 0.5) == 3.0

    def test_cross_jump(self):
        grid = uniform_grid(cells=10)
        env = make_env(
            grid, b12=StieltjesMeasure(grid, np.zeros(10), ((0.5, 0.5),), True)
        )
        assert mechanism_atom_increment(env, 1, (0.0, 2.0), 0.5) == -1.0

    def test_nan_lambda_is_refused(self):
        # it used to return nan
        env = make_env(uniform_grid(cells=10))
        with pytest.raises(ValueError, match="^lambda must be finite"):
            mechanism_atom_increment(env, 1, (math.nan, 1.0), 0.5)


@pytest.mark.parametrize("values, match", [
    (np.ones((10, 2)), r"vector function must be \(n_nodes, 2\)"),
    (-np.ones((11, 2)), "vector function must be finite and nonnegative"),
    (np.full((11, 2), math.inf), "vector function must be finite and nonnegative"),
])
def test_bad_vector_function_is_refused(values, match):
    with pytest.raises(ValueError, match=f"^{match}$"):
        as_vector_function(uniform_grid(cells=10), values)


class TestApproximationMechanism:
    def _env(self):
        grid = uniform_grid(cells=40)
        return make_env(
            grid,
            b11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.4)], ((0.5, 0.3),)),
            b22=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, -0.2)]),
            b12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.2)], (), True),
            c1=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.25)], (), True),
            m1=JumpMeasure.from_segments(
                grid,
                [(0.0, 1.0, [(0.3, 0.2, 0.8), (1.5, 0.0, 0.4)])],
                [(0.25, [(0.2, 0.1, 0.3)])],
            ),
            m2=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.1, 0.4, 0.5)])]),
        )

    def test_two_displayed_forms_agree(self):
        # the approximation mechanism evaluated through its finite-activity
        # coefficients must equal the hand-expanded thinned form
        env = self._env()
        rng = np.random.default_rng(7)
        f = rng.uniform(0.0, 1.5, (env.grid.nodes.size, 2))
        grid = env.grid
        for n in (1, 3, 8):
            sf = finite_activity_approximation(env, n)
            en = math.exp(-n)
            for i in (1, 2):
                j = 3 - i
                fi, fj = f[:, i - 1], f[:, j - 1]
                bb = effective_cross_drift(env, i, j)
                direct = env.b_diag(i).integrate(fi, 0.0, 1.0)
                direct -= en * env.b_diag(i).abs().integrate(fi, 0.0, 1.0)
                direct -= bb.integrate(fj, 0.0, 1.0)
                small = 2.0 * n * n * (np.expm1(-fi / n) + fi / n)
                direct += env.c_diag(i).integrate(small, 0.0, 1.0)
                thinned = env.m_jump(i).thinned(
                    lambda z1, z2: (1 - en) * np.minimum(1.0, n * np.hypot(z1, z2))
                )
                for k in range(grid.n_cells):
                    pts = thinned.cell_kernels[k].points
                    acc = sum(
                        compensated_jump_kernel(f[k + 1], (z1, z2)) * w
                        for z1, z2, w in pts
                    )
                    direct += float(grid.widths[k]) * acc
                for t_at, spatial in thinned.time_atoms:
                    idx = grid.index_of(t_at)
                    direct += sum(
                        compensated_jump_kernel(f[idx], (z1, z2)) * w
                        for z1, z2, w in spatial.points
                    )
                via_special = special_mechanism_increment(sf, i, f, 0.0, 1.0)
                assert via_special == pytest.approx(direct, abs=1e-12)

    def test_monotone_ladder(self):
        env = self._env()
        rng = np.random.default_rng(8)
        f = rng.uniform(0.0, 1.5, (env.grid.nodes.size, 2))
        for i in (1, 2):
            full = mechanism_increment(env, i, f, 0.0, 1.0)
            prev = -math.inf
            gaps = []
            for n in (1, 2, 4, 8, 16, 32):
                sf = finite_activity_approximation(env, n)
                val = special_mechanism_increment(sf, i, f, 0.0, 1.0)
                assert val >= prev - 1e-12
                prev = val
                gaps.append(full - val)
            assert gaps[-1] < gaps[0]
            assert abs(gaps[-1]) < 0.05  # terminal gap reported small

    def test_comparison_property(self):
        # for f <= g and a shorter right-anchored interval, the approximation
        # defect of f never exceeds the defect of g
        env = self._env()
        grid = env.grid
        rng = np.random.default_rng(9)
        t = 1.0
        for _ in range(20):
            f = rng.uniform(0.0, 1.0, (grid.nodes.size, 2))
            g = f + rng.uniform(0.0, 1.0, (grid.nodes.size, 2))
            ir = int(rng.integers(0, grid.n_cells - 1))
            isx = int(rng.integers(ir, grid.n_cells))
            r = float(grid.nodes[ir])
            s = float(grid.nodes[isx])
            n = int(rng.choice([1, 2, 4, 8]))
            sf = finite_activity_approximation(env, n)
            for i in (1, 2):
                lhs = mechanism_increment(env, i, f, s, t) - special_mechanism_increment(
                    sf, i, f, s, t
                )
                rhs = mechanism_increment(env, i, g, r, t) - special_mechanism_increment(
                    sf, i, g, r, t
                )
                assert lhs <= rhs + 1e-12


class TestLipschitzConstants:
    def test_trivial(self):
        env = make_env(uniform_grid(cells=10))
        zero = np.zeros((env.grid.nodes.size, 2))
        c1, c2 = lipschitz_constants(env, zero, zero, 1.0)
        assert c1 == 1.0
        assert c2.cumulative(1.0) == 0.0

    def test_constant_functions(self):
        env = make_env(uniform_grid(cells=10))
        n = env.grid.nodes.size
        f = np.column_stack((np.ones(n), np.ones(n)))
        g = 2.0 * f
        c1, _ = lipschitz_constants(env, f, g, 1.0)
        assert c1 == 7.0

    def test_jump_moment_density(self):
        grid = uniform_grid(cells=10)
        env = make_env(
            grid, m1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.5, 0.5, 1.0)])])
        )
        zero = np.zeros((grid.nodes.size, 2))
        _, c2 = lipschitz_constants(env, zero, zero, 1.0)
        # |z| <= 1 here: doubled (z1^2 + z2) mass = 2 (0.25 + 0.5)
        assert np.allclose(c2.density, 1.5)

    def test_inequality_randomized(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            env = random_environment(rng, cells=40)
            n = env.grid.nodes.size
            f = rng.uniform(0.0, 2.0, (n, 2))
            g = rng.uniform(0.0, 2.0, (n, 2))
            c1, c2 = lipschitz_constants(env, f, g, 1.0)
            supdiff = np.max(np.abs(f - g), axis=1)
            bound = c1 * c2.integrate(supdiff, 0.0, 1.0)
            worst = max(
                abs(
                    mechanism_increment(env, i, f, 0.0, 1.0)
                    - mechanism_increment(env, i, g, 0.0, 1.0)
                )
                for i in (1, 2)
            )
            assert worst <= bound + 1e-12
