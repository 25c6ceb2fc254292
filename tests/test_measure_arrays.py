"""A scalar measure is its node arrays: oracles against per-atom methods.

:mod:`_reference` keeps the per-atom methods the arrays replaced, which
read a measure's atoms as (time, mass, node) entries and build measures
from (time, mass) pairs.  Over drawn measures (uneven grids, no atoms or
an atom on any node, T among them, masses of 0.0 and -0.0, signed or
nondecreasing) and times between nodes, the arrays must give the same
values and the same measures bit for bit.

Both measure types check atom times with one helper and raise the same
errors, and a model with an atom on every node of its drifts and of a
kernel either solves or raises a typed error on every route.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference
from cbve import (
    CBVEError,
    DiscreteSpatialMeasure,
    JumpMeasure,
    StieltjesMeasure,
    TimeGrid,
    check_flow,
    finite_activity_approximation,
    solve_general,
    solve_moment,
    solve_special_picard,
    validate,
)

from _instances import make_env, uniform_grid

_SETTINGS = settings(max_examples=150)

# 0.0 and -0.0 masses still make atoms, and must come back as themselves
_MASS = st.one_of(st.floats(-1.5, 1.5), st.sampled_from([0.0, -0.0]))
_COEF = st.sampled_from([1.0, -1.0, 0.5, -2.0, float(np.exp(-3.0)), 0.0])


@st.composite
def _grids(draw):
    widths = draw(st.lists(st.floats(0.01, 1.5), min_size=1, max_size=8))
    return TimeGrid(np.concatenate(([0.0], np.cumsum(widths))))


@st.composite
def _measures(draw, grid):
    nondecreasing = draw(st.booleans())
    mass = st.floats(0.0, 1.5) | st.sampled_from([0.0, -0.0]) if nondecreasing else _MASS
    dens = draw(st.lists(mass, min_size=grid.n_cells, max_size=grid.n_cells))
    nodes = draw(st.lists(st.integers(1, grid.n_cells), unique=True, max_size=grid.n_cells))
    atoms = [(float(grid.nodes[m]), draw(mass)) for m in nodes]
    return StieltjesMeasure(grid, np.array(dens), atoms)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _same(a, b):
    assert a.grid is b.grid and a.nondecreasing == b.nondecreasing
    for x, y in ((a.density, b.density), (a.node_atom_masses, b.node_atom_masses),
                 (a.atoms, b.atoms)):
        assert _bits(x) == _bits(y)
    assert a.atom_nodes.tolist() == b.atom_nodes.tolist()


def _times(grid):
    nodes = grid.nodes
    return [*nodes.tolist(), *(0.5 * (nodes[:-1] + nodes[1:])).tolist(),
            float(np.nextafter(nodes[-1], 0.0))]


@_SETTINGS
@given(st.data())
def test_node_arrays_match_the_per_atom_methods(data):
    grid = data.draw(_grids())
    meas = data.draw(_measures(grid))
    # the arrays hold the atoms given, the zero masses included
    assert _bits(meas.node_atom_masses) == _bits(_reference.node_atom_masses(meas))
    assert meas.atom_nodes.tolist() == [m for *_, m in _reference._atom_entries(meas)]
    assert _bits(meas.node_cumulatives) == _bits(_reference.node_cumulatives(meas))
    for t in _times(grid):
        assert _bits(meas.cumulative(t)) == _bits(_reference.cumulative(meas, t))
        assert _bits(meas.total_variation(t)) == _bits(_reference.total_variation(meas, t))
    f = np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=grid.nodes.size,
                                    max_size=grid.nodes.size)))
    nodes = grid.nodes.tolist()
    for ir, r in enumerate(nodes):
        for t in nodes[ir:]:
            for rule in ("right", "trapezoid"):
                assert _bits(meas.integrate(f, r, t, rule)) == _bits(
                    _reference.integrate(meas, f, r, t, rule))
    _same(meas.abs(), _reference.abs_measure(meas))
    factor = data.draw(st.integers(1, 3))
    fine = grid.refine(factor)
    _same(meas.on_refinement(fine, factor), _reference.on_refinement(meas, fine, factor))


@_SETTINGS
@given(st.data())
def test_linear_combination_matches_the_per_atom_sum(data):
    grid = data.draw(_grids())
    terms = [(data.draw(_COEF), data.draw(_measures(grid))) for _ in range(data.draw(
        st.integers(1, 3)))]
    terms += [(-c, m) for c, m in terms[: data.draw(st.integers(0, 1))]]
    _same(StieltjesMeasure.linear_combination(grid, terms),
          _reference.linear_combination(grid, terms))


@pytest.mark.parametrize("times, message", [
    ([0.0], r"atom times must lie in \(0, T\]"),
    ([0.55], "time 0.55 is not a grid node"),
    ([0.5, 0.3, 0.5 + 1e-12], "duplicate atom at time 0.5"),
])
def test_both_measure_types_check_atom_times_alike(times, message):
    grid = uniform_grid(cells=10)
    builds = (
        lambda: StieltjesMeasure(grid, np.zeros(10), [(t, 0.1) for t in times]),
        lambda: JumpMeasure(grid, (), [(t, DiscreteSpatialMeasure(((0.1, 0.0, 1.0),)))
                                       for t in times]),
        lambda: JumpMeasure.from_segments(grid, (), [(t, [(0.1, 0.0, 1.0)]) for t in times]),
    )
    for build in builds:
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


def _dense_environment(cells):
    """An atom on every node in (0, T] of b11, b12 and m1."""
    grid = uniform_grid(cells=cells)
    times = grid.nodes[1:].tolist()
    rng = np.random.default_rng(1)
    b11 = StieltjesMeasure(grid, np.full(cells, 0.5),
                           zip(times, rng.uniform(-0.5, 0.5, cells).tolist()))
    b12 = StieltjesMeasure(grid, np.full(cells, 0.2),
                           zip(times, rng.uniform(0.0, 1e-3, cells).tolist()))
    m1 = JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.3, 0.2, 0.5)])],
                                   [(t, [(0.2, 0.1, 1e-3)]) for t in times])
    return make_env(grid, b11=b11, b12=b12, m1=m1)


def _solves_or_raises_typed(run):
    """``run()``, or None when it raises a :class:`CBVEError`."""
    try:
        return run()
    except CBVEError:
        return None


def test_dense_atoms_solve_or_raise_typed_errors():
    env = _dense_environment(2000)
    assert env.b11.atom_nodes.tolist() == env.m1.atom_nodes.tolist() == list(range(1, 2001))
    lam = (1.0, 1.0)
    report = _solves_or_raises_typed(lambda: validate(env))
    assert report is None or report.ok
    for run in (lambda: solve_general(env, 1.0, lam),
                lambda: solve_special_picard(finite_activity_approximation(env, 4), 1.0, lam)):
        sol = _solves_or_raises_typed(run)
        assert sol is None or (np.isfinite(sol.v).all() and (sol.v >= 0.0).all())
    moment = _solves_or_raises_typed(lambda: solve_moment(env, 1.0, lam))
    assert moment is None or np.isfinite(moment.pi).all()
    flow = _solves_or_raises_typed(lambda: check_flow(env, 0.25, 0.5, 1.0, lam))
    assert flow is None or np.isfinite(flow)
