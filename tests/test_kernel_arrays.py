"""A jump kernel is its padded arrays: oracles against per-object building.

:mod:`_reference` keeps the construction the arrays replaced: one spatial
measure per cell, padded into ``(3, K, sets)`` arrays by
:func:`_reference.padded`, and the per-cell forms of ``from_segments``,
``thinned`` and ``on_refinement``.  Over drawn kernels (runs of shared and
distinct cells, 0 to 5 points a cell, atoms given in any order, segments
that overlap or are empty) the kernel's arrays must equal the padded
per-object sets bit for bit, its views must give the same points back,
and the sweep table of an environment with the kernel as m1 must build the
same sweep rows.

The sweep table holds runs of equal cells: over drawn admissible
environments (one to twelve cells of equal or uneven widths, each
coefficient zero or with values from small pools so that equal cells
recur side by side and apart, cells that differ only in the sign of zero,
atoms at any node from 1 to T) its runs, expanded cell by cell, must equal
:func:`_reference.sweep_table`, a fresh row per cell, mapped to the
compiled layout (half widths, negated points) by
:func:`_reference.compiled_rows`, row for row with floats compared bit
for bit.  The runs must tile the cells, adjacent runs must differ unless
the left one ends at an atom, and steps equal bit for bit must be one
object.  On 20,000 uniform cells with three density segments the table
holds at most 100 runs and keeps under 1 MB alive, and the 8-way refined
window of its last half makes no row object; the per-cell table held
20,000 rows and 5.7 MB.  The mean steps of 20,000 cells are built in a
traced peak of at most 2.5 times their size, with the bits of one
whole-array build, and an environment's table builds and solves keep no
measure but its two cross drifts.  A special form has one general form,
which ``special_to_general``, ``mc_mean`` and ``cbve verify`` all solve
on, and which builds its own cross drifts like any environment, so a form
and its general form build six coordinate moments in all, however often
either is asked.  Every compiled table build (sweep,
mean steps, Picard, simulator) logs one debug line, and nothing by
default.

Runs are found by ``measures._run_starts`` alone: over drawn 1-D and
padded arrays (no cells, one cell, K of 0 to 2, 0.0 and -0.0) it must
give the cells whose bytes differ from their left neighbour's in some
array.  The simulator's stretches join cells equal in value, so the sign
of a zero does not split them, where the sweep's runs do.

Every bad point still raises its ``ValueError``, whichever way it enters
a kernel, and every array a kernel stores or hands out is read-only, as is
every compiled table a model caches; a replaced model builds its own.
"""
import argparse
import dataclasses
import gc
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import _reference
from cbve import cli, simulator
from cbve import (
    DiscreteSpatialMeasure,
    Environment,
    JumpMeasure,
    StieltjesMeasure,
    TimeGrid,
    finite_activity_approximation,
    h_transform_coefficients,
    mc_mean,
    simulate_path,
    solve_general,
    solve_moment,
    solve_special_picard,
    special_to_general,
)
from cbve.compiled import _steps, mean_steps
from cbve.config import RunConfig
from cbve.measures import _run_starts
from cbve.solver import _window

from _instances import (
    make_env,
    make_sf,
    random_environment,
    random_special_form,
    uniform_grid,
)

_SETTINGS = settings(max_examples=150)

# -0.0 is a valid coordinate that equals 0.0 but must come back as itself
_COORD = st.one_of(st.floats(0.0, 2.0), st.just(-0.0))
_POINT = st.tuples(_COORD, _COORD, st.floats(0.01, 5.0)).filter(lambda p: p[:2] != (0.0, 0.0))
_POINTS = st.lists(_POINT, max_size=5)

# (elementwise factor, scalar factor of the reference loop), equal bit for
# bit; some return 0 or negative values, whose points must be dropped
_FACTORS = [
    (lambda z1, z2: 0.5 * z1 - 0.3 * z2 + 0.1, lambda z1, z2: 0.5 * z1 - 0.3 * z2 + 0.1),
    (lambda z1, z2: np.where(z1 > 1.0, 0.0, 2.0), lambda z1, z2: 0.0 if z1 > 1.0 else 2.0),
    (lambda z1, z2: z2 * z2, lambda z1, z2: z2 * z2),
]


def _bits(arr):
    return arr.shape, arr.tobytes()


def _exact(point_sets):
    """Point sets as bytes, so that -0.0 and 0.0 differ."""
    return [np.array(pts, dtype=float).tobytes() for pts in point_sets]


def _negated(points):
    """The sweep table's points with their coordinates negated back."""
    return tuple((-z1, -z2, w) for z1, z2, w in points)


def _rows(env):
    """The sweep table of ``env``, expanded cell by cell."""
    return _reference.expanded(env._table.runs, env._table.steps)


def _same_arrays(jump, kernels, atoms):
    """The kernel's arrays against the padded per-object sets, bit for bit."""
    assert _bits(jump.cell_points) == _bits(_reference.padded(kernels))
    assert _bits(jump.atom_points) == _bits(_reference.padded([p for _, p in atoms]))
    assert jump.atom_nodes.tolist() == [m for m, _ in atoms]


@st.composite
def _grids(draw):
    cells = draw(st.integers(1, 12))
    widths = draw(st.lists(st.floats(0.02, 0.3), min_size=cells, max_size=cells))
    return TimeGrid(np.concatenate(([0.0], np.cumsum(widths))))


@st.composite
def _kernels(draw):
    """A grid, one spatial measure per cell (a run of cells may share one
    object) and (node, points) atoms in drawn order."""
    grid = draw(_grids())
    kernels = []
    while len(kernels) < grid.n_cells:
        spatial = DiscreteSpatialMeasure(tuple(draw(_POINTS)))
        kernels += [spatial] * draw(st.integers(1, grid.n_cells - len(kernels)))
    nodes = draw(st.lists(st.integers(1, grid.n_cells), max_size=4, unique=True))
    atoms = [(m, tuple(draw(_POINTS))) for m in nodes]
    return grid, kernels, atoms


@_SETTINGS
@given(_kernels(), st.integers(1, 3))
def test_kernel_arrays_match_per_object_padding(case, factor):
    grid, kernels, atoms = case
    jump = JumpMeasure(grid, kernels, [(grid.nodes[m], DiscreteSpatialMeasure(p))
                                       for m, p in atoms])
    sets = [k.points for k in kernels]
    at = sorted((m, DiscreteSpatialMeasure(p).points) for m, p in atoms)
    _same_arrays(jump, sets, at)
    assert _exact(k.points for k in jump.cell_kernels) == _exact(sets)
    assert [t for t, _ in jump.time_atoms] == [grid.nodes[m] for m, _ in at]
    assert _exact(s.points for _, s in jump.time_atoms) == _exact(p for _, p in at)
    # the sweep rows of the kernel as m1: one tuple of negated points per
    # cell, () where a cell has none; b11 atoms of -100 at its atom nodes
    # keep every atom load admissible
    b11 = StieltjesMeasure(grid, np.zeros(grid.n_cells), [(grid.nodes[m], -100.0) for m, _ in at])
    rows = _rows(dataclasses.replace(Environment.zero(grid), b11=b11, m1=jump))
    assert _exact(_negated(row[9]) for row in rows) == _exact(sets)
    assert [k + 1 for k, row in enumerate(rows) if row[0] is not None] == [m for m, _ in at]
    assert _exact(_negated(rows[m - 1][0][6]) for m, _ in at) == _exact(p for _, p in at)
    _same_arrays(jump.on_refinement(grid.refine(factor), factor),
                 *_reference.refined_sets(sets, at, factor))
    for fn, scalar_fn in _FACTORS:
        _same_arrays(jump.thinned(fn), *_reference.thinned_sets(sets, at, scalar_fn))


def _bounds(table):
    return [(lo, hi) for lo, hi, _, _ in table.runs]


def test_cells_equal_but_for_the_sign_of_zero_stay_apart():
    grid = TimeGrid([0.0, 0.25, 0.5, 0.75, 1.0])
    sets = [((0.0, 1.0, 1.0),), ((-0.0, 1.0, 1.0),), ((-0.0, 1.0, 1.0),), ((-0.0, 1.0, 1.0),)]
    jump = JumpMeasure(grid, [DiscreteSpatialMeasure(p) for p in sets])
    env = dataclasses.replace(Environment.zero(grid), m1=jump)
    assert _exact(_negated(row[9]) for row in _rows(env)) == _exact(sets)
    assert _exact(k.points for k in jump.cell_kernels) == _exact(sets)
    assert _bounds(env._table) == [(0, 1), (1, 4)]
    # densities too: cells 2 and 3 differ only in the sign of a zero density
    env = dataclasses.replace(env, b11=StieltjesMeasure(grid, [0.0, 0.0, 0.0, -0.0]))
    reference = _reference.compiled_rows(_reference.sweep_table(env))
    assert list(map(repr, _rows(env))) == list(map(repr, reference))
    assert _bounds(env._table) == [(0, 1), (1, 3), (3, 4)]


def test_simulator_stretches_join_cells_equal_in_value():
    # the sweep keeps cells that differ only in the sign of a zero apart (its
    # general form's b11 sums to 0.0 on every cell, its kernel keeps the
    # signs), but a path steps them alike, so one stretch covers all four
    grid = uniform_grid(cells=4)
    neg, pos = (DiscreteSpatialMeasure(((z1, 1.0, 0.5),)) for z1 in (-0.0, 0.0))
    sf = make_sf(grid, g11=StieltjesMeasure(grid, [0.0, -0.0, 0.0, -0.0]),
                 mu1=JumpMeasure(grid, [neg, neg, pos, pos]))
    assert sf._sim_table.ends.tolist() == [4]
    assert _bounds(sf._general._table) == [(0, 2), (2, 4)]


@st.composite
def _cell_arrays(draw):
    """One to three arrays over the same 0 to 6 cells, each 1-D or padded
    ``(3, K, cells)`` (K from 0 to 2, C or Fortran order), of values from a
    pool holding 0.0 and -0.0."""
    cells = draw(st.integers(0, 6))
    arrays = []
    for lead in draw(st.lists(st.sampled_from([(), (3, 0), (3, 1), (3, 2)]),
                              min_size=1, max_size=3)):
        size = math.prod(lead) * cells
        values = draw(st.lists(st.sampled_from([0.0, -0.0, 1.5]), min_size=size, max_size=size))
        arr = np.array(values).reshape(*lead, cells)
        arrays.append(np.asfortranarray(arr) if draw(st.booleans()) else arr)
    return arrays


@_SETTINGS
@given(_cell_arrays())
@example([np.zeros(0)])
@example([np.zeros((3, 2, 1)), np.array([-0.0])])
def test_run_starts_match_a_per_cell_byte_comparison(arrays):
    cells = arrays[0].shape[-1]
    changed = [any(a[..., k].tobytes() != a[..., k - 1].tobytes() for a in arrays)
               for k in range(1, cells)]
    want = [k for k in range(cells) if k == 0 or changed[k - 1]]
    assert _run_starts(*arrays).tolist() == want


# small pools, so that equal cells recur; 0.0 and -0.0 are different cells
_VALUE = st.sampled_from([0.0, -0.0, 0.5, -1.25])
_NONNEGATIVE = st.sampled_from([0.0, -0.0, 0.5])
_SET = st.sampled_from([(), ((0.0, 1.0, 1.0),), ((-0.0, 1.0, 1.0),),
                        ((0.5, 0.25, 2.0), (1.0, 0.0, 0.5))])


@st.composite
def _environments(draw):
    """An admissible environment on a grid of one to twelve cells, equal
    (``uniform_grid``) or drawn widths: each coefficient zero or drawn per
    cell from a small pool (signed values for b11 and b22), with atoms at
    any nodes, node 1 and T among them, except on c1 and c2."""
    grid = draw(st.one_of(_grids(), st.integers(1, 12).map(lambda c: uniform_grid(cells=c))))
    cells = grid.n_cells

    def atoms(values):
        nodes = draw(st.lists(st.integers(1, cells), max_size=3, unique=True))
        return [(float(grid.nodes[m]), draw(values)) for m in nodes]

    def measure(kind):
        if kind == "jump":
            return JumpMeasure(grid, [DiscreteSpatialMeasure(draw(_SET)) for _ in range(cells)],
                               [(t, DiscreteSpatialMeasure(p)) for t, p in atoms(_SET)])
        values = _VALUE if kind == "signed" else _NONNEGATIVE
        return StieltjesMeasure(grid, draw(st.lists(values, min_size=cells, max_size=cells)),
                                () if kind == "continuous" else atoms(values))

    env = Environment(grid, *(measure(kind) if draw(st.booleans()) else
                              (JumpMeasure if kind == "jump" else StieltjesMeasure).zero(grid)
                              for _, kind in Environment._coefficients()))
    assume(env.validation.ok)
    return env


@_SETTINGS
@given(_environments())
def test_sweep_runs_expand_to_per_cell_rows(env):
    table = env._table
    reference = _reference.compiled_rows(_reference.sweep_table(env))
    assert all(isinstance(part, tuple) for part in table)
    # repr keeps the sign of zero and round-trips every finite float, so
    # equal reprs are rows equal bit for bit
    assert list(map(repr, _rows(env))) == list(map(repr, reference))
    bounds = _bounds(table)
    assert [b for _, b in bounds] == [a for a, _ in bounds[1:]] + [len(reference)]
    assert bounds[0][0] == 0 and all(a < b for a, b in bounds)
    for (_, _, atom, row), (_, _, _, right) in zip(table.runs, table.runs[1:]):
        assert atom is not None or repr(row) != repr(right)
    ids = {}
    for step in table.steps:
        ids.setdefault(repr(step), set()).add(id(step))
    assert all(len(objects) == 1 for objects in ids.values())


def test_sweep_table_of_a_piecewise_model_is_small():
    grid = uniform_grid(cells=20000)
    b11 = StieltjesMeasure.from_segments(grid, [(0.0, 0.3, 0.5), (0.3, 0.7, -0.2),
                                                (0.7, 1.0, 0.1)])
    m1 = JumpMeasure.from_segments(grid, [(0.0, 0.5, [(0.5, 0.2, 1.0)]),
                                          (0.5, 1.0, [(0.1, 0.4, 2.0)])])
    env = make_env(grid, b11=b11, m1=m1)
    env._cross_drifts  # built first, so that only the table is measured
    tracemalloc.start()
    try:
        table = env._table
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table.steps) == 20000
    assert len(table.runs) <= 100
    assert kept < 1e6
    window = _window(table.runs, 10000, 20000, 8)
    steps = _steps(grid.refine(8).widths[80000:])
    assert window[-1][1] == len(steps) == 80000
    rows = {id(row) for *_, row in table.runs}
    assert all(id(row) in rows for *_, row in window)
    assert len({id(step) for step in steps}) <= 100


def test_mean_steps_build_in_bounded_scratch():
    # a block of cells at a time: the traced peak of a 20,000-cell build stays
    # within 2.5 times its 625 KB result (a whole-array build peaked at 5.1
    # times), and the blocks give the bits of one whole-array build
    env = random_environment(np.random.default_rng(6), cells=20000)
    env._cross_drifts  # built first, so that only the steps are measured
    tracemalloc.start()
    try:
        steps = mean_steps(env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * steps.nbytes
    for t in (0.75, 1.0):
        assert (solve_moment(env, t, (0.7, -1.3)).pi.tobytes()
                == _reference.propagator_moment(env, t, (0.7, -1.3)).pi.tobytes())


def test_table_builds_keep_no_coordinate_moment():
    # the cross drifts hold the one copy of the kernels' cross moments that an
    # environment keeps: no kernel caches its coordinate moments
    env = random_environment(np.random.default_rng(7), cells=40)

    def measures():
        return [obj for obj in gc.get_objects() if isinstance(obj, StieltjesMeasure)]

    before = {id(meas) for meas in measures()}  # held alive, so no id is reused
    env._table, env._mean_steps
    solve_general(env, 1.0, (1.0, 1.0)), solve_moment(env, 1.0, (1.0, 1.0))
    new = {id(meas) for meas in measures()} - before
    assert new == {id(meas) for meas in env._cross_drifts}


def test_a_form_has_one_general_form(monkeypatch):
    # special_to_general returns the form's one general form, which builds its
    # own cross drifts: the form's four coordinate moments and the general
    # form's two cross moments are built once, however often either is asked
    sf = random_special_form(np.random.default_rng(5), cells=30)
    built = []
    build = JumpMeasure.coordinate_moment
    monkeypatch.setattr(JumpMeasure, "coordinate_moment",
                        lambda self, j: built.append(j) or build(self, j))
    env = special_to_general(sf)
    assert special_to_general(sf) is env
    for _ in range(2):
        special_to_general(sf)._table, special_to_general(sf)._mean_steps
        solve_special_picard(sf, 1.0, (1.0, 1.0)), solve_general(env, 1.0, (1.0, 1.0))
        mc_mean(sf, (1.0, 1.0), 1.0, (1.0, -1.0), 100, 0)
    assert sorted(built) == [1, 1, 1, 2, 2, 2]
    # the same bits as the cross drifts a copy builds from its kernels
    for got, want in zip(env._cross_drifts, dataclasses.replace(env)._cross_drifts):
        assert got.density.tobytes() == want.density.tobytes()
        assert got.node_atom_masses.tobytes() == want.node_atom_masses.tobytes()
    # mc_mean and cbve verify's special_general_agreement check solve on it
    solved = []
    for module, name in ((simulator, "solve_moment"), (cli, "solve_general")):
        monkeypatch.setattr(module, name, lambda model, *rest, call=getattr(module, name):
                            solved.append(model) or call(model, *rest))
    mc_mean(sf, (1.0, 1.0), 1.0, (1.0, -1.0), 100, 0)
    cli.cmd_verify(RunConfig("special_form", special_form=sf),
                   argparse.Namespace(t=None, lam=None, paths=None, x0=None, seed=None))
    assert len(solved) == 2 and all(model is env for model in solved)


def test_table_build_logs_one_debug_line(caplog):
    env = random_environment(np.random.default_rng(4), cells=30)
    with caplog.at_level(logging.DEBUG, logger="cbve.compiled"):
        table = env._table
        env._mean_steps
        env._table, env._mean_steps  # cached: built and logged once
    sweep, mean = caplog.records
    for record in (sweep, mean):
        assert (record.name, record.levelno) == ("cbve.compiled", logging.DEBUG)
    match = re.fullmatch(r"sweep table: 30 cells, (\d+) runs, [0-9.]+ ms", sweep.getMessage())
    assert match and int(match[1]) == len(table.runs)
    assert re.fullmatch(r"mean steps: 30 cells, [0-9.]+ ms", mean.getMessage())
    caplog.clear()
    fresh = dataclasses.replace(env)
    fresh._table, fresh._mean_steps
    assert caplog.records == []


def test_special_form_table_builds_log_one_debug_line(caplog):
    sf = random_special_form(np.random.default_rng(4), cells=30)
    with caplog.at_level(logging.DEBUG, logger="cbve.compiled"):
        picard, sim = sf._picard_table, sf._sim_table
        sf._picard_table, sf._sim_table  # cached: built and logged once
    first, second = caplog.records
    for record in (first, second):
        assert (record.name, record.levelno) == ("cbve.compiled", logging.DEBUG)
    match = re.fullmatch(r"picard table: 30 cells, (\d+) atom nodes, [0-9.]+ ms",
                         first.getMessage())
    assert match and int(match[1]) == picard.atom_nodes.size
    match = re.fullmatch(r"sim table: 30 cells, (\d+) stretches, [0-9.]+ ms",
                         second.getMessage())
    assert match and int(match[1]) == sim.ends.size


@st.composite
def _segment_kernels(draw):
    """A grid and from_segments input: segments between drawn nodes, which
    may overlap (a later one wins) or be empty, and atoms in drawn order."""
    grid = draw(_grids())
    cells = grid.n_cells
    segments = []
    for _ in range(draw(st.integers(0, 4))):
        i0 = draw(st.integers(0, cells))
        i1 = draw(st.integers(i0, cells))
        segments.append((float(grid.nodes[i0]), float(grid.nodes[i1]), draw(_POINTS)))
    nodes = draw(st.lists(st.integers(1, cells), max_size=4, unique=True))
    return grid, segments, [(float(grid.nodes[m]), draw(_POINTS)) for m in nodes]


@_SETTINGS
@given(_segment_kernels())
def test_from_segments_matches_per_cell_build(case):
    grid, segments, atoms = case
    jump = JumpMeasure.from_segments(grid, segments, atoms)
    _same_arrays(jump, *_reference.kernel_sets(grid, segments, atoms))


_GOOD = (0.5, 0.1, 1.0)
_BAD = [
    ((math.nan, 1.0, 1.0), "finite, nonnegative"),
    ((0.5, math.nan, 1.0), "finite, nonnegative"),
    ((-0.5, 0.1, 1.0), "finite, nonnegative"),
    ((math.inf, 0.0, 1.0), "finite, nonnegative"),
    ((0.0, math.inf, 1.0), "finite, nonnegative"),
    ((0.0, 0.0, 1.0), "avoid the origin"),
    ((0.5, 0.1, 0.0), "positive and finite"),
    ((0.5, 0.1, -1.0), "positive and finite"),
    ((0.5, 0.1, math.inf), "positive and finite"),
    ((0.5, 0.1, math.nan), "positive and finite"),
]


@pytest.mark.parametrize("point, message", _BAD)
def test_bad_points_raise_on_every_input(point, message):
    grid = uniform_grid(cells=4)
    with pytest.raises(ValueError, match=message):
        DiscreteSpatialMeasure((_GOOD, point))
    with pytest.raises(ValueError, match=message):
        JumpMeasure.from_segments(grid, [(0.0, 0.5, [_GOOD]), (0.5, 1.0, [_GOOD, point])])
    with pytest.raises(ValueError, match=message):
        JumpMeasure.from_segments(grid, [(0.0, 1.0, [_GOOD])], [(0.5, [point])])
    # a segment that a later one overwrites is checked all the same
    with pytest.raises(ValueError, match=message):
        JumpMeasure.from_segments(grid, [(0.0, 1.0, [point]), (0.0, 1.0, [_GOOD])])


def test_transformed_weights_are_checked():
    grid = uniform_grid(cells=4)
    jump = JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.5, 0.1, 1e300)])],
                                     [(0.5, [(1.0, 0.0, 1.0)])])
    # a thinned weight that overflows to inf raises; one that is NaN or
    # not positive drops its point, as every thinning does
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="positive and finite"):
        jump.thinned(lambda z1, z2: np.full(np.shape(z1), 1e10))
    with np.errstate(invalid="ignore"):
        dropped = jump.thinned(lambda z1, z2: np.where(z1 > 0.7, np.nan, -1.0))
    assert dropped.cell_points.shape == (3, 0, 4)
    assert dropped.atom_nodes.size == 0
    # an h-transform keeps every own point, so one whose weight underflows
    # to 0 fails the check instead of vanishing
    small = JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.5, 0.1, 1e-300)])])
    zeta = StieltjesMeasure.from_segments(grid, [(0.0, 1.0, -100.0)])
    with pytest.raises(ValueError, match="positive and finite"):
        h_transform_coefficients(make_sf(grid, mu1=small), zeta, StieltjesMeasure.zero(grid))


def _kernels_of_every_origin():
    rng = np.random.default_rng(7)
    grid = uniform_grid(cells=6)
    built = JumpMeasure(grid, [DiscreteSpatialMeasure(((0.5, 0.2, 1.0),))] * 6,
                        [(0.5, DiscreteSpatialMeasure(((0.1, 0.4, 0.3),)))])
    sf = random_special_form(rng, cells=20)
    zeta = StieltjesMeasure(sf.grid, np.full(20, 0.3), ((0.5, 0.2),))
    return [
        ("constructor", built),
        ("from_segments", sf.mu1),
        ("thinned", sf.mu1.thinned(lambda z1, z2: 0.5 + z1)),
        ("on_refinement", sf.mu1.on_refinement(sf.grid.refine(3), 3)),
        ("h_transform", h_transform_coefficients(sf, zeta, zeta).mu1),
        ("approximation", finite_activity_approximation(random_environment(rng, 20), 2).mu1),
    ]


@pytest.mark.parametrize("origin, jump", _kernels_of_every_origin())
def test_kernel_arrays_are_read_only(origin, jump):
    arrays = (jump.cell_points, jump.atom_points, jump.atom_nodes)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        jump.cell_points = np.zeros_like(jump.cell_points)
    # the views are tuples of frozen spatial measures holding tuples
    for views in (jump.cell_kernels, tuple(s for _, s in jump.time_atoms)):
        assert isinstance(views, tuple)
        for spatial in views:
            assert isinstance(spatial.points, tuple)
            with pytest.raises(dataclasses.FrozenInstanceError):
                spatial.points = ()
    assert all(isinstance(atom, tuple) for atom in jump.time_atoms)


def test_failed_writes_leave_the_model_and_its_tables_intact():
    sf = random_special_form(np.random.default_rng(8), cells=30)
    before = solve_special_picard(sf, 1.0, (0.7, 1.1))
    for arr in (sf.mu1.cell_points, sf.mu1.atom_points, sf.mu2.cell_points):
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
    after = solve_special_picard(sf, 1.0, (0.7, 1.1))
    fresh = solve_special_picard(dataclasses.replace(sf), 1.0, (0.7, 1.1))
    assert np.array_equal(before.v, after.v) and np.array_equal(after.v, fresh.v)


def _table_arrays(table):
    """Every array in a compiled table, nested tuples included."""
    for part in table:
        if isinstance(part, tuple):
            yield from _table_arrays(part)
        else:
            yield part


def test_compiled_tables_refuse_writes():
    sf = random_special_form(np.random.default_rng(3), cells=20)
    env = random_environment(np.random.default_rng(3), cells=20)
    lam = (1.0, 1.0)

    def results():
        return (solve_special_picard(sf, 1.0, lam).v.tobytes(),
                repr(simulate_path(sf, (1.0, 0.5), 1.0, 7)),
                solve_general(env, 1.0, lam).v.tobytes(),
                solve_moment(env, 1.0, lam).pi.tobytes())

    before = results()
    assert not any(a.flags.writeable for a in _table_arrays(sf._picard_table))
    assert not any(a.flags.writeable for a in _table_arrays(sf._sim_table))
    with pytest.raises(ValueError, match="read-only"):
        sf._picard_table.aR[...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        sf._sim_table.kernels[0][1][...] = 0.0
    table = env._table
    runs = table.runs
    atom = next(atom for _, _, atom, _ in runs if atom is not None)
    for seq in (table, runs, runs[0], runs[0][3], table.steps, table.steps[0], atom):
        with pytest.raises(TypeError):
            seq[0] = 0.0
    steps = env._mean_steps
    assert not steps.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        steps[...] = 0.0
    # a replaced model builds its own steps, equal bit for bit
    other = dataclasses.replace(env)._mean_steps
    assert other is not steps and other.tobytes() == steps.tobytes()
    assert results() == before
