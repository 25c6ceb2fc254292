"""Environment validation, bottlenecks, conversions and the approximation ladder."""
import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

from cbve import (
    AdmissibilityError,
    Environment,
    JumpMeasure,
    SpecialForm,
    StieltjesMeasure,
    atom_load,
    bottlenecks,
    effective_cross_drift,
    finite_activity_approximation,
    last_bottleneck,
    lipschitz_constants,
    solve_general,
    special_to_general,
)

import cbve
import _instances
from _instances import make_env, make_sf, random_environment, uniform_grid


def _jump(grid, segments=(), atoms=()):
    return JumpMeasure.from_segments(grid, segments, atoms)


class TestImmutability:
    @pytest.mark.parametrize("model", [Environment, SpecialForm])
    def test_fields_cannot_be_assigned(self, model):
        m = model.zero(uniform_grid(cells=4))
        for f in dataclasses.fields(m):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, f.name, getattr(m, f.name))

    def test_replaced_coefficient_gets_its_own_table(self):
        grid = uniform_grid(cells=8)
        env = make_env(grid)
        base = solve_general(env, 1.0, (1.0, 1.0)).v
        drifted = dataclasses.replace(
            env, b11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1.0)]))
        assert np.all(solve_general(drifted, 1.0, (1.0, 1.0)).v[:-1, 0] < base[:-1, 0])
        assert np.array_equal(solve_general(env, 1.0, (1.0, 1.0)).v, base)


class TestValidate:
    def test_zero_environment(self):
        env = make_env(uniform_grid(cells=10))
        report = env.validation
        assert report.ok
        assert report.moment_values == (0.0, 0.0)
        assert report.bottleneck_times == ()

    def test_critical_load_is_admissible(self):
        grid = uniform_grid(cells=10)
        env = make_env(
            grid,
            b11=StieltjesMeasure(grid, np.zeros(10), ((0.5, 0.6),)),
            m1=_jump(grid, atoms=[(0.5, [(0.5, 0.0, 0.8)])]),
        )
        assert atom_load(env, 1, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert env.validation.ok

    def test_violation_reported_not_raised(self):
        grid = uniform_grid(cells=10)
        env = make_env(grid, b11=StieltjesMeasure(grid, np.zeros(10), ((0.5, 1.2),)))
        report = env.validation
        assert not report.ok
        assert any("exceeds 1" in m for m in report.messages)
        with pytest.raises(AdmissibilityError):
            env.require_valid()

    def test_moment_value_closed_form(self):
        grid = uniform_grid(cells=10)
        # one small point (inside unit ball) and one large point
        env = make_env(
            grid,
            m1=_jump(grid, segments=[(0.0, 1.0, [(0.5, 0.2, 2.0), (2.0, 0.5, 1.0)])]),
        )
        small = (0.5**2 + 0.2) * 2.0
        large = (2.0 + 0.5) * 1.0
        assert env.validation.moment_values[0] == pytest.approx(small + large, rel=1e-14)

    def test_far_point_has_a_finite_moment_and_no_warning(self):
        # |z|^2 overflows past 1e154, which the unit-ball test used to warn about
        grid = uniform_grid(cells=10)
        env = make_env(grid, m1=_jump(grid, segments=[(0.0, 1.0, [(1e200, 0.0, 1e-190)])]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = env.validation
            lipschitz_constants(env, np.zeros((11, 2)), np.zeros((11, 2)), 1.0)
        assert report.ok
        assert report.moment_values == (pytest.approx(1e10, rel=1e-14), 0.0)

    @pytest.mark.parametrize("at_atom", [False, True])
    def test_overflowing_moment_is_reported(self, at_atom):
        # the moment measure refuses the inf, so validate used to raise
        grid = uniform_grid(cells=10)
        point = [(1e300, 0.0, 1e10)]
        m1 = _jump(grid, atoms=[(0.5, point)]) if at_atom else _jump(
            grid, segments=[(0.0, 1.0, point)])
        env = make_env(grid, m1=m1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = env.validation
        assert not report.ok
        assert report.moment_values == (math.inf, 0.0)
        assert report.delta_max == ((math.inf if at_atom else 0.0), 0.0)
        assert report.messages == (("type-1 atom load inf exceeds 1",) if at_atom else ()) + (
            "jump moment integral is not finite",)
        with pytest.raises(AdmissibilityError, match="jump moment integral is not finite"):
            solve_general(env, 1.0, (1.0, 1.0))


def _instance_environments():
    """Every model family of :mod:`_instances`, special forms converted."""
    rng = np.random.default_rng(61)
    special = [_instances.random_special_form(rng, cells=30, diag=d)
               for d in ("none", "atoms", "density")]
    special += [sf for sf, _, _ in _instances.mc_cases()]
    return [
        _instances.feller_environment(cells=40),
        _instances.bottleneck_environment(cells=40),
        *(random_environment(rng, cells=30, with_atoms=a) for a in (True, True, False)),
        *(special_to_general(sf) for sf in special),
        *_instances.atom_edge_environments(),
    ]


@pytest.mark.parametrize("factor", [2, 3, 4])
def test_refinement_keeps_the_validation_report(factor):
    # refinement keeps every atom and its mass, so admissibility, the worst
    # atom loads and the bottlenecks cannot change; check_flow's fine leg
    # relies on this instead of validating a refined model
    for env in _instance_environments():
        want = env.validation
        got = env.refined(factor).validation
        assert (got.ok, got.delta_max, got.bottleneck_times) == (
            want.ok, want.delta_max, want.bottleneck_times)


def _misuses():
    grid, other = uniform_grid(cells=4), uniform_grid(cells=5)
    env, sf = make_env(grid), make_sf(grid)
    return {
        "type index 3": (lambda: effective_cross_drift(env, 3, 1), "type index must be 1 or 2"),
        "cross index 1, 1": (lambda: effective_cross_drift(env, 1, 1), "need i != j in {1, 2}"),
        "b_cross 1, 1": (lambda: env.b_cross(1, 1), "need i != j in {1, 2}"),
        "b_cross 3, 1": (lambda: env.b_cross(3, 1), "type index must be 1 or 2"),
        "gamma_cross 2, 2": (lambda: sf.gamma_cross(2, 2), "need i != j in {1, 2}"),
        "other grid": (lambda: dataclasses.replace(env, b11=StieltjesMeasure.zero(other)),
                       "b11 lives on a different grid"),
        "signed cross drift": (lambda: dataclasses.replace(
            env, b12=StieltjesMeasure(grid, np.full(4, -0.1))),
            "b12 must be a nondecreasing measure"),
        "b_diag 3": (lambda: env.b_diag(3), "type index must be 1 or 2"),
        "c_diag 0": (lambda: env.c_diag(0), "type index must be 1 or 2"),
        "m_jump 5": (lambda: env.m_jump(5), "type index must be 1 or 2"),
        "gamma_diag 3": (lambda: sf.gamma_diag(3), "type index must be 1 or 2"),
        "mu_jump 0": (lambda: sf.mu_jump(0), "type index must be 1 or 2"),
        "coordinate_moment 3": (lambda: sf.mu1.coordinate_moment(3),
                                "coordinate index must be 1 or 2"),
        "diffusion atom": (lambda: dataclasses.replace(
            env, c1=StieltjesMeasure(grid, np.zeros(4), ((0.5, 1.0),))),
            r"c1 must be continuous \(no time atoms\)"),
        "gamma11 atom of -1": (lambda: make_sf(grid, g11=StieltjesMeasure(
            grid, np.zeros(4), ((0.5, -1.0),))), "gamma11 atom at 0.5 must exceed -1"),
    }


@pytest.mark.parametrize("case", sorted(_misuses()))
def test_bad_model_input_is_refused(case):
    call, match = _misuses()[case]
    with pytest.raises(ValueError, match=f"^{match}$"):
        call()


def _inadmissible_environments():
    """The overflowing kernel point, on the cells and as a time atom, and a
    b11 atom load of 1.2."""
    grid = uniform_grid(cells=4)
    return {
        "overflowing moment": make_env(grid, m1=_jump(
            grid, [(0.0, 1.0, [(1e300, 0.0, 1e10)])], [(0.5, [(1e300, 1e300, 1e10)])])),
        "excess load": make_env(grid, b11=StieltjesMeasure(grid, np.zeros(4), ((0.5, 1.2),))),
    }


_F = np.ones((5, 2))
#: a call of each public function that takes an environment, and whether
#: it reports (True) or refuses an inadmissible one with AdmissibilityError
_ENV_CALLS = {
    "validate": (lambda env: cbve.validate(env), True),
    "bottlenecks": (lambda env: cbve.bottlenecks(env), True),
    "last_bottleneck": (lambda env: cbve.last_bottleneck(env, 1.0), True),
    "atom_load": (lambda env: cbve.atom_load(env, 1, 0.5), True),
    "effective_cross_drift": (lambda env: cbve.effective_cross_drift(env, 1, 2), False),
    "finite_activity_approximation": (
        lambda env: cbve.finite_activity_approximation(env, 2), False),
    "mechanism_increment": (lambda env: cbve.mechanism_increment(env, 1, _F, 0.0, 1.0), False),
    "mechanism_atom_increment": (
        lambda env: cbve.mechanism_atom_increment(env, 1, (1.0, 1.0), 0.5), False),
    "lipschitz_constants": (lambda env: cbve.lipschitz_constants(env, _F, _F, 1.0), False),
    "solve_general": (lambda env: cbve.solve_general(env, 1.0, (1.0, 1.0)), False),
    "solve_moment": (lambda env: cbve.solve_moment(env, 1.0, (1.0, 1.0)), False),
    "finite_diff_check": (lambda env: cbve.finite_diff_check(env, 1.0, (1.0, 1.0), 0.01), False),
    "mean_of_transition": (
        lambda env: cbve.mean_of_transition(env, 0.0, 1.0, (1.0, 1.0), (1.0, 1.0)), False),
    "cumulant_upper_bound": (
        lambda env: cbve.cumulant_upper_bound(env, 1, 0.0, 1.0, (1.0, 1.0)), False),
    "check_flow": (lambda env: cbve.check_flow(env, 0.0, 0.5, 1.0, (1.0, 1.0)), False),
}


def test_every_public_environment_function_is_gated():
    takes_env = {name for name in cbve.__all__ if inspect.isfunction(getattr(cbve, name))
                 and next(iter(inspect.signature(getattr(cbve, name)).parameters)) == "env"}
    assert takes_env == set(_ENV_CALLS)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", sorted(_inadmissible_environments()))
@pytest.mark.parametrize("name", sorted(_ENV_CALLS))
def test_inadmissible_environment_is_refused_at_one_gate(name, model):
    call, reports = _ENV_CALLS[name]
    env = _inadmissible_environments()[model]
    if reports:
        call(env)
    else:
        with pytest.raises(AdmissibilityError):
            call(env)


class TestAtomLoad:
    def test_no_atoms(self):
        env = make_env(uniform_grid(cells=10))
        assert atom_load(env, 1, 0.5) == 0.0

    def test_combined_load(self):
        grid = uniform_grid(cells=10)
        env = make_env(
            grid,
            b11=StieltjesMeasure(grid, np.zeros(10), ((0.5, 0.4),)),
            m1=_jump(grid, atoms=[(0.5, [(1.0, 0.0, 0.3)])]),
        )
        assert atom_load(env, 1, 0.5) == pytest.approx(0.7, abs=1e-15)

    def test_unit_drift_jump(self):
        grid = uniform_grid(cells=10)
        env = make_env(grid, b11=StieltjesMeasure(grid, np.zeros(10), ((0.5, 1.0),)))
        assert atom_load(env, 1, 0.5) == 1.0

    def test_bad_type_index(self):
        env = make_env(uniform_grid(cells=10))
        with pytest.raises(ValueError):
            atom_load(env, 3, 0.5)

    def test_overflowing_atom_load_is_the_reported_one(self):
        # the load validate reports, not the moment measure's ValueError
        env = _inadmissible_environments()["overflowing moment"]
        assert atom_load(env, 1, 0.5) == math.inf == env.validation.delta_max[0]
        assert atom_load(env, 2, 0.5) == 0.0


class TestBottlenecks:
    def test_single_bottleneck(self):
        grid = uniform_grid(cells=10)
        env = make_env(grid, b11=StieltjesMeasure(grid, np.zeros(10), ((0.5, 1.0),)))
        assert bottlenecks(env) == [(0.5, 1)]

    def test_cross_jump_excludes(self):
        grid = uniform_grid(cells=10)
        env = make_env(
            grid,
            b11=StieltjesMeasure(grid, np.zeros(10), ((0.5, 1.0),)),
            b12=StieltjesMeasure(grid, np.zeros(10), ((0.5, 0.1),)),
        )
        assert bottlenecks(env) == []

    def test_jump_atom_excludes(self):
        grid = uniform_grid(cells=10)
        env = make_env(
            grid,
            b11=StieltjesMeasure(grid, np.zeros(10), ((0.5, 1.0),)),
            m1=_jump(grid, atoms=[(0.5, [(0.0, 0.1, 0.2)])]),
        )
        assert bottlenecks(env) == []

    def test_no_atoms(self):
        assert bottlenecks(make_env(uniform_grid(cells=10))) == []

    def test_last_bottleneck(self):
        grid = uniform_grid(cells=10)
        env = make_env(
            grid,
            b11=StieltjesMeasure(grid, np.zeros(10), ((0.3, 1.0),)),
            b22=StieltjesMeasure(grid, np.zeros(10), ((0.7, 1.0),)),
        )
        assert last_bottleneck(env, 0.5) == pytest.approx(0.3, abs=1e-12)
        assert last_bottleneck(env, 1.0) == pytest.approx(0.7, abs=1e-12)
        assert last_bottleneck(make_env(grid), 1.0) is None
        # the listed bottlenecks are finite and the last is their maximum
        times = [t for t, _ in bottlenecks(env)]
        assert last_bottleneck(env, 1.0) == max(times)
        # NaN passed `t < 0 or t > T`, and no bottleneck is <= NaN
        with pytest.raises(ValueError, match="outside"):
            last_bottleneck(env, math.nan)


class TestEffectiveCrossDrift:
    def test_no_jumps_identity(self):
        grid = uniform_grid(cells=10)
        b12 = StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.7)])
        env = make_env(grid, b12=b12)
        bb = effective_cross_drift(env, 1, 2)
        assert np.array_equal(bb.density, b12.density)
        assert bb.atoms == b12.atoms

    def test_kernel_inflow_density(self):
        grid = uniform_grid(cells=10)
        env = make_env(grid, m1=_jump(grid, segments=[(0.0, 1.0, [(0.0, 1.0, 2.0)])]))
        bb = effective_cross_drift(env, 1, 2)
        assert np.allclose(bb.density, 2.0)

    def test_combined_cumulative(self):
        grid = uniform_grid(cells=10)
        env = make_env(
            grid,
            b12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1.0)]),
            m1=_jump(grid, atoms=[(0.5, [(0.0, 0.5, 1.0)])]),
        )
        bb = effective_cross_drift(env, 1, 2)
        assert bb.cumulative(1.0) == pytest.approx(1.5, abs=1e-15)


class TestSpecialToGeneral:
    def test_zero(self):
        sf = make_sf(uniform_grid(cells=10))
        env = special_to_general(sf)
        assert np.all(env.b11.density == 0.0)
        assert env.validation.ok

    def test_density_formula(self):
        grid = uniform_grid(cells=10)
        sf = make_sf(
            grid,
            g11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.5)]),
            mu1=_jump(grid, segments=[(0.0, 1.0, [(1.0, 0.0, 1.0)])]),
        )
        env = special_to_general(sf)
        assert np.allclose(env.b11.density, -1.5)

    def test_atom_formula(self):
        grid = uniform_grid(cells=10)
        sf = make_sf(
            grid,
            g11=StieltjesMeasure(grid, np.zeros(10), ((0.5, -0.5),)),
            mu1=_jump(grid, atoms=[(0.5, [(0.4, 0.0, 1.0)])]),
        )
        env = special_to_general(sf)
        # hand evaluation: -(-0.5) - 0.4 * 1.0
        assert env.b11.atom_mass_at(0.5) == pytest.approx(0.1, abs=1e-15)
        assert env.validation.ok


class TestFiniteActivityApproximation:
    def test_zero_environment(self):
        env = make_env(uniform_grid(cells=10))
        for n in (1, 2, 5):
            sf = finite_activity_approximation(env, n)
            assert np.all(sf.gamma11.density == 0.0)
            assert all(not k.points for k in sf.mu1.cell_kernels)

    def test_diffusion_replacement(self):
        grid = uniform_grid(cells=10)
        env = make_env(
            grid, c1=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1.0)])
        )
        sf = finite_activity_approximation(env, 2)
        pts = sf.mu1.cell_kernels[0].points
        assert pts == ((0.5, 0.0, 8.0),)
        assert np.allclose(sf.gamma11.density, -4.0)

    def test_large_jump_thinning(self):
        grid = uniform_grid(cells=10)
        env = make_env(grid, m1=_jump(grid, segments=[(0.0, 1.0, [(2.0, 0.0, 1.0)])]))
        sf = finite_activity_approximation(env, 1)
        z1, z2, w = sf.mu1.cell_kernels[0].points[0]
        assert (z1, z2) == (2.0, 0.0)
        assert w == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)

    def test_invalid_level(self):
        env = make_env(uniform_grid(cells=10))
        for n in (0, True):  # a boolean is not a count
            with pytest.raises(ValueError, match="approximation level must be a positive integer"):
                finite_activity_approximation(env, n)

    def test_diagonal_atoms_stay_above_minus_one(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            env = random_environment(rng, cells=60)
            for n in (1, 4, 32):
                sf = finite_activity_approximation(env, n)
                for gam in (sf.gamma11, sf.gamma22):
                    assert all(m > -1.0 for _, m in gam.atoms)

    def test_cross_dominates_bare_drift(self):
        # the kept cross mass always dominates the bare cross drift,
        # cell-wise and atom-wise, which is what makes the cross
        # coefficient a (nonnegative) measure
        rng = np.random.default_rng(22)
        for _ in range(5):
            env = random_environment(rng, cells=60)
            for n in (1, 8):
                sf = finite_activity_approximation(env, n)
                for i, j, gam in ((1, 2, sf.gamma12), (2, 1, sf.gamma21)):
                    base = env.b_cross(i, j)
                    assert np.all(gam.density >= base.density - 1e-15)
                    for t, mass in base.atoms:
                        assert gam.atom_mass_at(t) >= mass - 1e-15
                    assert np.all(gam.density >= -1e-15)

    def test_small_jump_mass_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(4):
            env = random_environment(rng, cells=60)
            report = env.validation
            for n in (1, 2, 8):
                sf = finite_activity_approximation(env, n)
                for i in (1, 2):
                    mass = sf.mu_jump(i).moment_measure(
                        lambda z1, z2: z1 + z2
                    ).cumulative(1.0)
                    bound = 2 * n * env.c_diag(i).cumulative(1.0)
                    bound += (n + 1) * report.moment_values[i - 1]
                    assert mass <= bound + 1e-12
