"""Property test: the array projection of a jump kernel against a per-point loop.

:func:`_reference.moment_measure` calls a scalar integrand once per kernel
point and adds the weighted terms left to right.
:meth:`JumpMeasure.moment_measure` calls the elementwise integrand once
on the padded point arrays and adds one slot at a time, so both must
agree bit for bit.
Kernels carry 0 to 12 points per cell: with 8 or more points on a
one-cell grid, one numpy ``sum(axis=0)`` over the slots would switch to
pairwise summation.  Points on the unit circle put the admissibility
integrand on both sides of its ``|z| <= 1`` switch, and atoms may sit on
the terminal node.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference
from cbve import DiscreteSpatialMeasure, JumpMeasure, TimeGrid
from cbve.environment import _admissibility_integrand

_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

_CIRCLE = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (0.8, 0.6),
           (math.cos(0.3), math.sin(0.3)), (math.sqrt(0.5), math.sqrt(0.5))]
_COORDS = st.one_of(
    st.sampled_from(_CIRCLE),
    st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).filter(lambda z: z != (0.0, 0.0)),
)
_POINT = st.tuples(_COORDS, st.floats(0.01, 5.0)).map(lambda p: (*p[0], p[1]))
# the count is drawn first so that long lists are as likely as short ones
_POINTS = st.integers(0, 12).flatmap(lambda n: st.lists(_POINT, min_size=n, max_size=n))

# (array integrand, scalar integrand of the reference loop)
_INTEGRANDS = [
    (lambda z1, z2: z1, lambda z1, z2: z1),
    (lambda z1, z2: z2, lambda z1, z2: z2),
    (_admissibility_integrand(1), _reference.admissibility_integrand(1)),
    (_admissibility_integrand(2), _reference.admissibility_integrand(2)),
]


@st.composite
def _jumps(draw):
    cells = draw(st.one_of(st.just(1), st.integers(1, 12)))
    widths = draw(st.lists(st.floats(0.02, 0.3), min_size=cells, max_size=cells))
    grid = TimeGrid(np.concatenate(([0.0], np.cumsum(widths))))
    kernels = tuple(DiscreteSpatialMeasure(tuple(draw(_POINTS))) for _ in range(cells))
    at = draw(st.lists(st.integers(1, cells), max_size=3, unique=True))
    if draw(st.booleans()) and cells not in at:
        at.append(cells)
    atoms = tuple((float(grid.nodes[m]), DiscreteSpatialMeasure(tuple(draw(_POINTS))))
                  for m in at)
    return JumpMeasure(grid, kernels, atoms)


def _bits(meas):
    return meas.density.tobytes(), np.array(meas.atoms, dtype=float).tobytes()


@_SETTINGS
@given(_jumps())
def test_array_projection_matches_per_point_loop(jump):
    for fn, scalar_fn in _INTEGRANDS:
        want = _bits(_reference.moment_measure(jump, scalar_fn))
        assert _bits(jump.moment_measure(fn)) == want
    for i in (1, 2):
        want = _bits(_reference.moment_measure(jump, _INTEGRANDS[i - 1][1]))
        assert _bits(jump.coordinate_moment(i)) == want
    for arr in (jump.cell_points, jump.atom_points):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
