"""Property test: the flow residual against the refined-model oracle.

:func:`_reference.check_flow` builds, validates and compiles the whole
twice refined model and solves every leg down to node 0.
:func:`cbve.check_flow` sweeps only the nodes the residual reads, with the
fine leg on the model's own compiled rows, so the two must return the same
float.  Grids have uneven widths, atoms sit on r, s and t (drift,
cross-drift and jump-kernel atoms), a bottleneck may sit below r, and the
triples include r = s, s = t and r = 0.  The residual of
``env.refined(base)``, for base from 1 to 4 (``cbve verify`` uses 4), is
computed the same way on ``env``'s rows split ``base`` ways, and must
equal the oracle's residual of the refined model it stands for.  On
``env.refined(2)`` the residual is at most half of ``env``'s.

While the caller holds a ``solve_general`` of the model at (t, lam),
``check_flow`` reads its direct leg from it: on random environments at
drawn (r, s, t) the residual must be the same float with and without the
solve held, and a counting wrapper on ``solver._leg`` must see two legs
with it and three without.  Solves held at another node, at lam one ulp
away or with the other sign of a zero component, and a refined residual
(base 2), must not read it.  The registry keeps neither a dropped
solution nor a dropped model alive, and a model whose ``solve_general``
raises still gets ``check_flow``'s own outcome.
"""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference
from _instances import make_env, random_environment, uniform_grid
from cbve import (
    DiscreteSpatialMeasure,
    Environment,
    JumpMeasure,
    StieltjesMeasure,
    TimeGrid,
    check_flow,
    solve_general,
    solver,
)
from cbve.errors import CBVEError, DiscretizationError
from cbve.solver import _flow_residual

_SETTINGS = settings(max_examples=200)


@st.composite
def _cases(draw):
    cells = draw(st.integers(1, 40))
    widths = draw(st.lists(st.floats(0.01, 0.1), min_size=cells, max_size=cells))
    grid = TimeGrid(np.concatenate(([0.0], np.cumsum(widths))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(("general", "r=s", "s=t", "r=0", "r=s=t")))
    ir, isx, it = sorted(draw(st.integers(0, cells)) for _ in range(3))
    if shape == "r=s":
        isx = ir
    elif shape == "s=t":
        isx = it
    elif shape == "r=0":
        ir = 0
    elif shape == "r=s=t":
        ir = isx = it
    # atoms on r, s and t (a node of 0 carries none) and at random nodes
    nodes = sorted({m for m in (ir, isx, it) if m > 0 and draw(st.booleans())}
                   | set(draw(st.lists(st.integers(1, cells), max_size=2))))

    def atoms(lo, hi):
        return tuple((float(grid.nodes[m]), float(rng.uniform(lo, hi)))
                     for m in nodes if draw(st.booleans()))

    def density(lo, hi):
        return rng.uniform(lo, hi, cells)

    b22_atoms = atoms(-0.5, 0.6)
    taken = {grid.index_of(t) for t, _ in b22_atoms}
    below_r = [m for m in range(1, ir) if m not in taken]
    if below_r and draw(st.booleans()):
        # a type-2 bottleneck: the kernel m2 has no atoms, b21 none here
        b22_atoms += ((float(grid.nodes[draw(st.sampled_from(below_r))]), 1.0),)

    def kernel(with_atoms):
        pts = tuple((*rng.uniform(0.0, 1.2, 2), rng.uniform(0.05, 0.6))
                    for _ in range(draw(st.integers(0, 2))))
        other = tuple((*rng.uniform(0.0, 1.2, 2), rng.uniform(0.05, 0.6))
                      for _ in range(draw(st.integers(0, 2))))
        split = draw(st.integers(0, cells))
        kernels = ((DiscreteSpatialMeasure(pts),) * split
                   + (DiscreteSpatialMeasure(other),) * (cells - split))
        # own-coordinate mass at most 1.2 * 0.25 = 0.3 keeps type-1 loads < 1
        at = tuple((float(grid.nodes[m]), DiscreteSpatialMeasure(
                        ((*rng.uniform(0.0, 1.2, 2), rng.uniform(0.05, 0.25)),)))
                   for m in nodes if with_atoms and draw(st.booleans()))
        return JumpMeasure(grid, kernels, at)

    env = make_env(
        grid,
        b11=StieltjesMeasure(grid, density(-0.6, 0.6), atoms(-0.5, 0.6)),
        b22=StieltjesMeasure(grid, density(-0.6, 0.6), b22_atoms),
        b12=StieltjesMeasure(grid, density(0.0, 0.4), atoms(0.0, 0.3)),
        b21=StieltjesMeasure(grid, density(0.0, 0.4)),
        c1=StieltjesMeasure(grid, density(0.0, 0.4)),
        c2=StieltjesMeasure(grid, density(0.0, 0.4)),
        m1=kernel(True),
        m2=kernel(False),
    )
    lam = tuple(draw(st.one_of(st.floats(0.05, 2.0), st.just(0.0))) for _ in range(2))
    r, s, t = (float(grid.nodes[k]) for k in (ir, isx, it))
    return env, (r, s, t), lam, draw(st.sampled_from((2, 3, 4, 1)))


def _outcome(fn, *args):
    """The residual, or the type of the typed error raised instead."""
    try:
        return fn(*args)
    except CBVEError as exc:
        return type(exc)


@_SETTINGS
@given(_cases())
def test_check_flow_matches_refined_model_oracle(case):
    env, (r, s, t), lam, base = case
    want = _outcome(_reference.check_flow, env, r, s, t, lam, 2)
    assert _outcome(check_flow, env, r, s, t, lam) == want
    # the residual of env.refined(base), on the same rows split base ways
    want_base = _outcome(_reference.check_flow, env.refined(base), r, s, t, lam, 2)
    assert _outcome(_flow_residual, env, r, s, t, lam, base) == want_base


@_SETTINGS
@given(_cases())
def test_flow_residual_shrinks_under_refinement(case):
    # the residual is a discretization error of order at least one, so on
    # env.refined(2) it is at most half of env's; a typed failure is allowed
    env, (r, s, t), lam, _ = case
    try:
        coarse = check_flow(env, r, s, t, lam)
        fine = _flow_residual(env, r, s, t, lam, base=2)
    except CBVEError:
        return
    assert fine <= coarse / 2 + 1e-12


class TestCheckFlowContract:
    @staticmethod
    def _env():
        grid = uniform_grid(cells=8)
        return make_env(grid, b11=StieltjesMeasure(grid, np.full(8, 0.5), ((0.5, 0.3),)))

    @pytest.mark.parametrize("r, s, t", [(0.5, 0.25, 1.0), (0.0, 1.0, 0.5), (0.75, 0.5, 0.25)])
    def test_unordered_triple(self, r, s, t):
        with pytest.raises(ValueError, match=r"need r <= s <= t"):
            check_flow(self._env(), r, s, t, (1.0, 1.0))

    def test_builds_no_refined_model(self, monkeypatch):
        env = self._env()
        want = _reference.check_flow(env, 0.25, 0.5, 1.0, (1.0, 2.0))

        def refined(self, factor):
            raise AssertionError("check_flow built a refined model")

        monkeypatch.setattr(Environment, "refined", refined)
        assert check_flow(env, 0.25, 0.5, 1.0, (1.0, 2.0)) == want

    def test_failure_below_r_does_not_raise(self):
        # a stiff quadratic coefficient on the first cell only drives the
        # sweep negative there; that node never enters the residual at r
        grid = uniform_grid(cells=4)
        env = make_env(grid, c1=StieltjesMeasure.from_segments(
            grid, [(0.0, 0.25, 100.0)]))
        with pytest.raises(DiscretizationError):
            _reference.check_flow(env, 0.25, 0.5, 1.0, (10.0, 0.0))
        assert check_flow(env, 0.25, 0.5, 1.0, (10.0, 0.0)) == 0.0
        with pytest.raises(DiscretizationError):
            check_flow(env, 0.0, 0.5, 1.0, (10.0, 0.0))


def _counted(fn, *args):
    """:func:`_outcome` of ``fn`` and the number of sweep legs it ran."""
    legs = []
    leg = solver._leg
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_leg", lambda *a: legs.append(None) or leg(*a))
        return _outcome(fn, *args), len(legs)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(4, 40), st.data())
def test_a_held_solve_gives_the_same_residual(seed, cells, data):
    env = random_environment(np.random.default_rng(seed), cells=cells)
    nodes = env.grid.nodes
    ir, isx, it = sorted(data.draw(st.integers(0, cells)) for _ in range(3))
    r, s, t = (float(nodes[k]) for k in (ir, isx, it))
    lam = data.draw(st.sampled_from(((0.0, 1.0), (-0.0, 1.0)))
                    | st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)))
    args = (env, r, s, t, lam)
    want, legs = _counted(check_flow, *args)
    # solves of the model at another node, or at another lam by one bit
    # (the sign of a zero, or one ulp), are no match; all stay held below
    near = (-lam[0], lam[1]) if lam[0] == 0.0 else (math.nextafter(lam[0], math.inf), lam[1])
    misses = [_outcome(solve_general, env, float(nodes[k]), lam) for k in (it - 1, it + 1)
              if 0 <= k <= cells]
    misses.append(_outcome(solve_general, env, t, near))
    assert _counted(check_flow, *args) == (want, legs)
    held = _outcome(solve_general, env, t, lam)
    got, hit = _counted(check_flow, *args)
    assert got == want
    if isinstance(want, float):
        assert legs == 3
        assert hit == (2 if isinstance(held, solver.CumulantSolution) else 3)
    assert len(misses) >= 2


class TestHeldSolve:
    def test_a_held_solve_saves_the_direct_leg(self):
        env = random_environment(np.random.default_rng(11), cells=40)
        args = (env, 0.25, 0.5, 1.0, (1.0, 2.0))
        want, legs = _counted(check_flow, *args)
        assert legs == 3
        sol = solve_general(env, 1.0, (1.0, 2.0))
        assert _counted(check_flow, *args) == (want, 2)
        # only the unrefined residual reads it
        refined = _counted(_flow_residual, *args, 2)
        assert refined[1] == 3
        del sol
        assert _counted(check_flow, *args) == (want, 3)
        assert _counted(_flow_residual, *args, 2) == refined

    def test_the_registry_keeps_nothing_alive(self):
        env = random_environment(np.random.default_rng(12), cells=20)
        sol = solve_general(env, 1.0, (1.0, 1.0))
        assert list(solver._SOLVES[env].values()) == [sol]
        del sol
        gc.collect()
        assert len(solver._SOLVES[env]) == 0
        # nor does a live solution keep its model alive
        model = weakref.ref(env)
        sol = solve_general(env, 1.0, (1.0, 1.0))
        del env
        gc.collect()
        assert model() is None
        assert sol.v[-1].tolist() == [1.0, 1.0]

    def test_a_refused_solve_leaves_check_flows_own_outcome(self):
        # the sweep fails on the first cell only, below r = 0.25
        grid = uniform_grid(cells=4)
        env = make_env(grid, c1=StieltjesMeasure.from_segments(grid, [(0.0, 0.25, 100.0)]))
        with pytest.raises(DiscretizationError):
            solve_general(env, 1.0, (10.0, 0.0))
        assert _counted(check_flow, env, 0.25, 0.5, 1.0, (10.0, 0.0)) == (0.0, 3)
        assert _counted(check_flow, env, 0.0, 0.5, 1.0, (10.0, 0.0))[0] is DiscretizationError
