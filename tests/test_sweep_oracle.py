"""The backward sweep and its row split against their scalar references.

:func:`_reference.sweep` calls the clamp on every value, tests finiteness
with ``math.isfinite``, stores each node into a numpy array and reads the
rows of :func:`_reference.cell_table`; :func:`cbve.solver._sweep` clamps
only below zero, tests for +inf, writes its nodes to a flat double buffer
and reads the compiled rows, with half widths and negated points.  The
arithmetic is the same, so on random admissible environments, over random
slices of their rows and on those rows split 1 to 4 ways (each side
splitting its own rows), the two return the same bytes, clamp counts and
worst deficits, or raise the same error with the same message.  Large
lambda makes the sweep refuse coarse grids, so both outcomes occur;
lambda components of -0.0 occur too.  Split rows must equal the
reference's in the compiled layout, bit for bit.

Hand-built rows, mapped to the compiled layout by
:func:`_reference.compiled_rows`, cover what random models do not: points
with coordinates 0.0 and -0.0, whose negation flips the sign of zero,
against lambda components of 0.0 and -0.0; and, since no admissible model
clamps, the clamp's three branches (a small deficit clamped, a large one
refused, NaN refused) through the atom step and through the corrector, on
either type.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference
from _instances import random_environment
from cbve.errors import CBVEError, DiscretizationError, NumericalError
from cbve.solver import _split_rows, _sweep


def _outcome(fn, rows, lam):
    """The sweep's exact result, or the type and message of its error."""
    try:
        v, clamps, worst = fn(rows, lam)
    except CBVEError as exc:
        return type(exc), str(exc)
    return v.shape, v.tobytes(), clamps, worst


def _same(rows, lam):
    """The sweep on the compiled layout of reference ``rows`` has the
    reference sweep's outcome."""
    assert (_outcome(_sweep, _reference.compiled_rows(rows), lam)
            == _outcome(_reference.sweep, rows, lam))


@st.composite
def _cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    env = random_environment(rng, cells=draw(st.integers(4, 24)))
    env.require_valid()
    hi = draw(st.integers(1, env.grid.nodes.size - 1))
    lo = draw(st.integers(0, hi - 1))
    scale = draw(st.sampled_from((1.0, 1e3, 1e6)))
    lam = tuple(scale * draw(st.one_of(st.floats(0.0, 2.0), st.just(-0.0))) for _ in range(2))
    return env, lo, hi, lam


@settings(max_examples=60)
@given(_cases())
def test_sweep_and_split_match_reference(case):
    env, lo, hi, lam = case
    rows = env._table[lo:hi]
    ref = _reference.sweep_table(env)[lo:hi]
    assert _outcome(_sweep, rows, lam) == _outcome(_reference.sweep, ref, lam)
    for f in (1, 2, 3, 4):
        widths = env.grid.refine(f).widths[lo * f : hi * f].tolist()
        split = _split_rows(rows, widths, f)
        ref_split = _reference.split_rows(ref, widths, f)
        assert list(map(repr, split)) == list(map(repr, _reference.compiled_rows(ref_split)))
        assert _outcome(_sweep, split, lam) == _outcome(_reference.sweep, ref_split, lam)


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
    v, clamps, worst = _sweep(_reference.compiled_rows(rows), _LAM[i])
    assert v.tolist() == [list(_LAM[i]), list(_LAM[i])]
    assert (clamps, worst) == (1, 1e-12)
    _same(rows, _LAM[i])


def test_clamps_accumulate_over_both_steps():
    # the atom clamps a 1e-12 deficit, the corrector a 3e-12 one
    rows = (_row(atom=_atom(-1e-12), b12=-3e-12),) * 2
    v, clamps, worst = _sweep(_reference.compiled_rows(rows), (0.0, 1.0))
    assert v.tolist() == [[0.0, 1.0]] * 3
    assert (clamps, worst) == (4, 3e-12)
    _same(rows, (0.0, 1.0))


@pytest.mark.parametrize("step, i", _STEPS)
def test_large_deficit_is_refused(step, i):
    rows = _deficit_rows(step, i, 1e-6)
    with pytest.raises(DiscretizationError, match="negative component -1.000e-06"):
        _sweep(_reference.compiled_rows(rows), _LAM[i])
    _same(rows, _LAM[i])


@pytest.mark.parametrize("step, i", _STEPS)
def test_nan_is_refused(step, i):
    rows = _nan_rows(step, i)
    with pytest.raises(NumericalError, match="non-finite"):
        _sweep(_reference.compiled_rows(rows), _LAM[i])
    _same(rows, _LAM[i])
