"""The backward sweep over windows of runs against its scalar reference.

:func:`_reference.sweep` calls the clamp on every value, tests finiteness
with ``math.isfinite``, stores each node into a numpy array and reads one
row of :func:`_reference.cell_table` per cell; :func:`cbve.solver._sweep`
clamps only below zero, tests for +inf once after its loop, writes its
nodes to a flat double buffer and reads a window of the compiled runs with
its steps, half widths and negated points.  The arithmetic is the same, so
on random admissible environments, over random windows of their runs
(empty ones too) scaled 1 to 4 ways (the reference splitting its rows as
many ways), the two return
the same bytes, clamp counts and worst deficits, or raise the same error
with the same message.  Large lambda makes the sweep refuse coarse grids, so both
outcomes occur; lambda components of -0.0 occur too.  Each window,
expanded cell by cell, must equal the reference's split rows in the
compiled layout, bit for bit.  On the four shipped configurations the
whole-horizon solve and the legs of ``cbve verify``'s two flow residuals
(r = T/4, s = T/2, base 1 and 4) must match the reference the same way.

The sweep runs one generated loop per signature, the kernel point counts
of a run's two types, so hand-built runs with 0-5 points a type (unequal
counts too), atoms with 0-3, one cell long or long, must match the
reference at lambda up to 2e6, and so must a row of 300 points a type.
Counts of 8 or more a type share one loop, which writes out 8 terms and
steps the rest in a loop after them: rows of 7 to 40 points must match
the reference and build three loops.
Each signature's loop is built once per process, and the kernel-free
loop's cell step holds no kernel term.

Hand-built rows, mapped to the compiled layout by
:func:`_reference.compiled_rows` and swept as one run per row, cover what
random models do not: points with coordinates 0.0 and -0.0, whose
negation flips the sign of zero, against lambda components of 0.0 and
-0.0; and, since no admissible model clamps, the clamp's three branches (a
small deficit clamped, a large one refused, NaN refused) through the atom
step and through the corrector, on either type, and a value sent to +inf
by either step with no NaN on the way, which only the test after the loop
refuses.
"""
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference
from _instances import random_environment
from cbve import check_flow, load_config, solve_general, solver, special_to_general
from cbve.compiled import _steps
from cbve.errors import CBVEError, DiscretizationError, NumericalError
from cbve.solver import _flow_residual, _sweep, _window

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _outcome(fn, *args):
    """The sweep's exact result, or the type and message of its error."""
    try:
        v, clamps, worst = fn(*args)
    except CBVEError as exc:
        return type(exc), str(exc)
    return v.shape, v.tobytes(), clamps, worst


def _compiled(rows):
    """Reference ``rows`` as one-cell runs and steps of the compiled layout."""
    return _reference.one_cell_runs(_reference.compiled_rows(rows))


def _same(rows, lam):
    """The sweep on the compiled layout of reference ``rows`` has the
    reference sweep's outcome."""
    assert _outcome(_sweep, *_compiled(rows), lam) == _outcome(_reference.sweep, rows, lam)


def _leg(env, ref, lo, hi, f, lam, grid=None):
    """The outcome of the sweep over the window of cells lo..hi-1 of
    ``env``'s runs, refined ``f`` ways with the widths of ``grid`` (by
    default ``env.grid.refine(f)``), after checking that the window expands
    to the reference rows split as many ways and that the reference sweep
    over those has the same outcome."""
    widths = (grid or env.grid.refine(f)).widths[lo * f : hi * f]
    window, steps = _window(env._table.runs, lo, hi, f), _steps(widths)
    split = _reference.split_rows(ref[lo:hi], widths.tolist(), f)
    assert (list(map(repr, _reference.expanded(window, steps)))
            == list(map(repr, _reference.compiled_rows(split))))
    outcome = _outcome(_sweep, window, steps, lam)
    assert outcome == _outcome(_reference.sweep, split, lam)
    return outcome


@st.composite
def _cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    env = random_environment(rng, cells=draw(st.integers(4, 24)))
    env.require_valid()
    hi = draw(st.integers(0, env.grid.n_cells))
    lo = draw(st.integers(0, hi))  # an empty window too, as check_flow's at s = t
    scale = draw(st.sampled_from((1.0, 1e3, 1e6)))
    lam = tuple(scale * draw(st.one_of(st.floats(0.0, 2.0), st.just(-0.0))) for _ in range(2))
    return env, lo, hi, lam


@settings(max_examples=60)
@given(_cases())
def test_sweep_and_split_match_reference(case):
    env, lo, hi, lam = case
    ref = _reference.sweep_table(env)
    for f in (1, 2, 3, 4):
        _leg(env, ref, lo, hi, f, lam)


@pytest.mark.parametrize("name", ["bottleneck", "feller", "jump_special", "mixed_environment"])
def test_shipped_configs_match_reference(name):
    cfg = load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
    env = cfg.environment if cfg.kind == "environment" else special_to_general(cfg.special_form)
    ref = _reference.sweep_table(env)
    it = env.grid.n_cells
    lam = (1.0, 1.0)
    v = _leg(env, ref, 0, it, 1, lam)[1]
    assert solve_general(env, env.horizon, lam).v.tobytes() == v
    ir, isx = it // 4, it // 2
    r, s = (float(env.grid.nodes[k]) for k in (ir, isx))
    for base in (1, 4):
        top = _leg(env, ref, isx, it, 2 * base, lam, env.grid.refine(base).refine(2))
        fine = np.frombuffer(top[1]).reshape(top[0])
        mid = _leg(env, ref, ir, isx, base, tuple(fine[0].tolist()))
        full = _leg(env, ref, ir, it, base, lam)
        gap = np.abs(np.frombuffer(mid[1])[:2] - np.frombuffer(full[1])[:2])
        assert _flow_residual(env, r, s, env.horizon, lam, base=base) == float(np.max(gap))


def _point_lists(most):
    return st.lists(st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5), st.floats(0.05, 0.6)),
                    max_size=most).map(tuple)


@st.composite
def _signature_runs(draw):
    """Reference rows of one to eight hand-built runs, one cell long or long,
    with 0-5 kernel points per type (unequal counts too), an atom with 0-3
    points per type on some, and cell widths drawn per cell; and the runs
    and steps of their compiled layout."""
    rows, bounds = [], []
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.sampled_from((1, 1, 2, 9, 40)))
        dens = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(6))
        pts = (draw(_point_lists(5)), draw(_point_lists(5)))
        atom = None
        if draw(st.booleans()):
            atom = (*(draw(st.floats(-0.5, 0.5)) for _ in range(6)),
                    draw(_point_lists(3)), draw(_point_lists(3)))
        bounds.append((len(rows), len(rows) + length))
        rows += [(atom if k == length - 1 else None, draw(st.sampled_from((0.01, 0.05, 0.2))),
                  *dens, *pts) for k in range(length)]
    cells = _reference.compiled_rows(rows)
    runs = [(lo, hi, cells[hi - 1][0], cells[lo][3:]) for lo, hi in bounds]
    return rows, runs, [row[1:3] for row in cells]


@settings(max_examples=150)
@given(_signature_runs(), st.sampled_from((1.0, 1e3, 1e6)),
       st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)))
def test_every_signature_matches_reference(case, scale, lam):
    rows, runs, steps = case
    lam = (scale * lam[0], scale * lam[1])
    assert _outcome(_sweep, runs, steps, lam) == _outcome(_reference.sweep, rows, lam)


def test_many_points_match_reference():
    # 300 points a type, one signature's loop; the sweep solves it
    rng = np.random.default_rng(5)
    pts = [tuple(map(tuple, rng.uniform((0.0, 0.0, 1e-3), (1.2, 1.2, 4e-3), (300, 3)).tolist()))
           for _ in range(2)]
    atom = (0.1, 0.0, 0.05, 0.0, 0.0, 0.0, pts[1][:3], ())
    rows = [(None, 0.02, 0.3, -0.2, 0.1, 0.2, 0.1, 0.1, *pts)] * 6
    rows[2] = (atom, *rows[2][1:])
    outcome = _outcome(_sweep, *_compiled(rows), (1.5, 0.5))
    assert outcome[0] == (7, 2)
    _same(rows, (1.5, 0.5))


def test_long_point_lists_share_bounded_loops(monkeypatch):
    # counts of 8 or more a type share one loop, which writes out 8 terms and
    # loops over the rest, in order; each matches the reference
    built = []
    source = solver._loop_source
    monkeypatch.setattr(solver, "_LOOPS", {})
    monkeypatch.setattr(solver, "_loop_source", lambda *sig: built.append(sig) or source(*sig))
    rng = np.random.default_rng(9)

    def pts(n):
        return tuple(map(tuple, rng.uniform((0.0, 0.0, 1e-3), (1.2, 1.2, 4e-2), (n, 3)).tolist()))

    rows = [(None, 0.05, 0.3, -0.2, 0.1, 0.2, 0.1, 0.1, pts(n1), pts(n2))
            for n1, n2 in ((7, 8), (8, 9), (9, 17), (40, 0), (12, 8))]
    rows[1] = ((0.1, 0.0, 0.05, 0.0, 0.0, 0.0, pts(10), ()), *rows[1][1:])
    _same(rows, (1.5, 0.5))
    assert sorted(built) == [(7, 8), (8, 0), (8, 8)]
    assert solver._LOOPS[40, 0] is solver._LOOPS[8, 0]
    assert solver._LOOPS[9, 17] is solver._LOOPS[12, 8] is solver._LOOPS[8, 8]
    cell_step = source(8, 3).split("for h, hh in")[1]
    assert cell_step.count("expm1") == 2 * (8 + 1 + 3)
    assert cell_step.count("for z1, z2, w in pr:") == 2


def test_each_signature_loop_is_built_once(monkeypatch):
    built = []
    source = solver._loop_source
    monkeypatch.setattr(solver, "_LOOPS", {})
    monkeypatch.setattr(solver, "_loop_source", lambda *sig: built.append(sig) or source(*sig))
    env = random_environment(np.random.default_rng(8), cells=60)
    signatures = {(len(row[6]), len(row[7])) for *_, row in env._table.runs}
    solve_general(env, 1.0, (1.0, 1.0))
    loops = dict(solver._LOOPS)
    for lam in ((0.5, 2.0), (3.0, 0.0)):
        solve_general(env, 1.0, lam)
        check_flow(env, 0.25, 0.5, 1.0, lam)
    assert sorted(built) == sorted(signatures) == sorted(loops)
    assert all(solver._LOOPS[sig] is loop for sig, loop in loops.items())


def test_loops_write_out_the_cell_step_terms():
    # the kernel-free loop's cell step holds no kernel term; only its atom
    # step, whose points are the atom's own, loops over points
    for (n1, n2), terms in (((0, 0), 0), ((2, 1), 6), ((0, 5), 10)):
        source = solver._loop_source(n1, n2)
        atom_step, cell_step = source.split("for h, hh in")
        assert cell_step.count("expm1") == terms
        assert "for z1" not in cell_step
        assert atom_step.count("expm1(x)") == 2


_COORD = st.sampled_from((0.0, -0.0, 0.5, 1.5))
_POINTS = st.lists(st.tuples(_COORD, _COORD, st.sampled_from((0.25, 2.0))), max_size=3)
_DENSITY = st.sampled_from((0.0, -0.0, 0.5, -0.5))


@st.composite
def _zero_rows(draw):
    """One to six rows of reference layout, with points and densities from
    small pools holding both zeros, and an atom on some of them."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        atom = None
        if draw(st.booleans()):
            atom = (*(draw(_DENSITY) for _ in range(6)), draw(_POINTS), draw(_POINTS))
        rows.append((atom, draw(st.sampled_from((0.125, 0.5))),
                     *(draw(_DENSITY) for _ in range(6)), draw(_POINTS), draw(_POINTS)))
    return rows


_LAM_PART = st.sampled_from((0.0, -0.0, 0.7, 3.0))


@settings(max_examples=200)
@given(_zero_rows(), st.tuples(_LAM_PART, _LAM_PART))
def test_signed_zero_points_match_reference(rows, lam):
    _same(rows, lam)


def _row(atom=None, b11=0.0, b22=0.0, b12=0.0, b21=0.0, c1=0.0, c2=0.0):
    """A unit-width reference row with no kernel points, and optionally an
    atom."""
    return (atom, 1.0, b11, b22, b12, b21, c1, c2, (), ())


def _atom(ab12=0.0, ab21=0.0):
    return (0.0, 0.0, ab12, ab21, 0.0, 0.0, (), ())


def _deficit_rows(step, i, x):
    """One row whose ``step`` sends type i from 0 to ``-x`` exactly, with the
    other type at 1: a cross coefficient ``-x`` onto type i."""
    b12, b21 = (-x, 0.0) if i == 1 else (0.0, -x)
    return (_row(atom=_atom(b12, b21)) if step == "atom" else _row(b12=b12, b21=b21),)


def _nan_rows(step, i):
    """One row whose ``step`` makes type i NaN: a NaN atom coefficient, or in
    the corrector -inf + inf from a predictor of -1e200 (a cross drift of
    -1e200 onto type i, its own drift 1e200 and quadratic coefficient 1),
    which leaves the other type at 1, so only type i's own test sees it."""
    if step == "atom":
        return _deficit_rows(step, i, math.nan)
    if i == 1:
        return (_row(b11=1e200, b12=-1e200, c1=1.0),)
    return (_row(b22=1e200, b21=-1e200, c2=1.0),)


def _inf_rows(step, i):
    """One row whose ``step`` sends type i from 0 to +inf, the other type
    at 1, with no NaN on the way.  The corrector: a cross drift of 1e150
    onto type i and its own drift -1e200, whose product with the predictor
    of 1e150 overflows, leaving the other type at 1.  The atom: a cross mass
    of +inf onto type i, before a cell that takes both types to +inf (own
    drifts and quadratic coefficients -1, cross drifts 1), where a zero
    coefficient would make a NaN of inf * 0."""
    if step == "atom":
        ab12, ab21 = (math.inf, 0.0) if i == 1 else (0.0, math.inf)
        return (_row(atom=_atom(ab12, ab21), b11=-1.0, b22=-1.0, b12=1.0, b21=1.0,
                     c1=-1.0, c2=-1.0),)
    if i == 1:
        return (_row(b11=-1e200, b12=1e150),)
    return (_row(b22=-1e200, b21=1e150),)


_LAM = {1: (0.0, 1.0), 2: (1.0, 0.0)}
_STEPS = [("atom", 1), ("atom", 2), ("corrector", 1), ("corrector", 2)]


@pytest.mark.parametrize("step, i", _STEPS)
def test_small_deficit_is_clamped_and_counted(step, i):
    rows = _deficit_rows(step, i, 1e-12)
    v, clamps, worst = _sweep(*_compiled(rows), _LAM[i])
    assert v.tolist() == [list(_LAM[i]), list(_LAM[i])]
    assert (clamps, worst) == (1, 1e-12)
    _same(rows, _LAM[i])


def test_clamps_accumulate_over_both_steps():
    # the atom clamps a 1e-12 deficit, the corrector a 3e-12 one
    rows = (_row(atom=_atom(-1e-12), b12=-3e-12),) * 2
    v, clamps, worst = _sweep(*_compiled(rows), (0.0, 1.0))
    assert v.tolist() == [[0.0, 1.0]] * 3
    assert (clamps, worst) == (4, 3e-12)
    _same(rows, (0.0, 1.0))


@pytest.mark.parametrize("step, i", _STEPS)
def test_large_deficit_is_refused(step, i):
    rows = _deficit_rows(step, i, 1e-6)
    with pytest.raises(DiscretizationError, match="negative component -1.000e-06"):
        _sweep(*_compiled(rows), _LAM[i])
    _same(rows, _LAM[i])


@pytest.mark.parametrize("step, i", _STEPS)
def test_nan_is_refused(step, i):
    rows = _nan_rows(step, i)
    with pytest.raises(NumericalError, match="non-finite"):
        _sweep(*_compiled(rows), _LAM[i])
    _same(rows, _LAM[i])


@pytest.mark.parametrize("step, i", _STEPS)
def test_overflow_to_inf_is_refused(step, i):
    rows = _inf_rows(step, i)
    with pytest.raises(NumericalError, match="non-finite"):
        _sweep(*_compiled(rows), _LAM[i])
    _same(rows, _LAM[i])
