"""Property test: the whole-array Picard solve against the scalar oracle.

:mod:`_reference` keeps the cell-by-cell loop that the array solve
replaced.  Both apply the same operations in the same per-term order; only
numpy's ``exp``/``expm1`` may round differently from :mod:`math`'s in the
last bit, so the solutions must agree to a few ulps, with the same number
of iterations.  Kernels carry 0 to 5 points per cell, mixed across cells,
so the padded slots of the array table are exercised, and the terminal
time ranges over 0, interior nodes and the horizon, with atoms allowed on
the terminal node.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

import _reference
from cbve import (
    DiscreteSpatialMeasure,
    JumpMeasure,
    SpecialForm,
    StieltjesMeasure,
    TimeGrid,
    solve_special_picard,
)

_SETTINGS = settings(max_examples=60)
_TOL = 1e-14

# z1 is kept off 0 so no point sits at the origin
_POINTS = st.lists(
    st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 1.0), st.floats(0.05, 1.0)),
    max_size=5,
)


@st.composite
def _cases(draw):
    cells = draw(st.integers(1, 12))
    widths = draw(st.lists(st.floats(0.02, 0.3), min_size=cells, max_size=cells))
    grid = TimeGrid(np.concatenate(([0.0], np.cumsum(widths))))
    t_index = draw(st.sampled_from([0, cells, draw(st.integers(0, cells))]))
    nodes = st.lists(st.integers(1, cells), max_size=3, unique=True)

    def atom_nodes():
        at = draw(nodes)
        if t_index and draw(st.booleans()) and t_index not in at:
            at.append(t_index)
        return at

    def scalar(lo, hi, atom_lo):
        dens = np.array(draw(st.lists(st.floats(lo, hi), min_size=cells, max_size=cells)))
        atoms = tuple((float(grid.nodes[m]), draw(st.floats(atom_lo, 0.5)))
                      for m in atom_nodes())
        return StieltjesMeasure(grid, dens, atoms)

    def jump():
        kernels = tuple(DiscreteSpatialMeasure(tuple(draw(_POINTS))) for _ in range(cells))
        atoms = tuple((float(grid.nodes[m]), DiscreteSpatialMeasure(tuple(draw(_POINTS))))
                      for m in atom_nodes())
        return JumpMeasure(grid, kernels, atoms)

    sf = SpecialForm(grid, scalar(-1.0, 1.0, -0.9), scalar(-1.0, 1.0, -0.9),
                     scalar(0.0, 1.0, 0.0), scalar(0.0, 1.0, 0.0),
                     jump(), jump())
    lam = (draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0)))
    return sf, float(grid.nodes[t_index]), lam


def _close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= _TOL * (1.0 + np.abs(a))))


@_SETTINGS
@given(_cases())
def test_array_picard_matches_scalar_oracle(case):
    sf, t, lam = case
    got = solve_special_picard(sf, t, lam)
    want = _reference.solve_special_picard(sf, t, lam)
    assert got.iterations_used == want.iterations_used
    assert _close(got.v, want.v)
    assert _close(got.picard_min_increments, want.picard_min_increments)
    assert _close(got.picard_iterate_maxima, want.picard_iterate_maxima)
    assert got.picard_bound == want.picard_bound
