"""The backward sweep over windows of runs against its scalar reference.

:func:`_reference.sweep` calls the clamp on every value, tests finiteness
with ``math.isfinite``, stores each node into a numpy array and reads one
row of :func:`_reference.cell_table` per cell; :func:`cbve.solver._sweep`
clamps only below zero, tests for +inf, writes its nodes to a flat double
buffer and reads a window of the compiled runs with its steps, half widths
and negated points.  The arithmetic is the same, so on random admissible
environments, over random windows of their runs (empty ones too) scaled 1
to 4 ways (the reference splitting its rows as many ways), the two return
the same bytes, clamp counts and worst deficits, or raise the same error
with the same message.  Large lambda makes the sweep refuse coarse grids, so both
outcomes occur; lambda components of -0.0 occur too.  Each window,
expanded cell by cell, must equal the reference's split rows in the
compiled layout, bit for bit.  On the four shipped configurations the
whole-horizon solve and the legs of ``cbve verify``'s two flow residuals
(r = T/4, s = T/2, base 1 and 4) must match the reference the same way.

Hand-built rows, mapped to the compiled layout by
:func:`_reference.compiled_rows` and swept as one run per row, cover what
random models do not: points with coordinates 0.0 and -0.0, whose
negation flips the sign of zero, against lambda components of 0.0 and
-0.0; and, since no admissible model clamps, the clamp's three branches (a
small deficit clamped, a large one refused, NaN refused) through the atom
step and through the corrector, on either type.
"""
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference
from _instances import random_environment
from cbve import load_config, solve_general, special_to_general
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
