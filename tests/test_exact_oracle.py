"""The sweep against exact values on a decoupled type (``_exact``'s travel-time oracle)."""
import pytest

import _exact
from _instances import feller_oracle, make_env, uniform_grid
from cbve import DiscreteSpatialMeasure, JumpMeasure, StieltjesMeasure, solve_general

# 12 points a cell, so the cell loop steps the 4 past its 8 written-out
# terms in its rest list, and a kernel atom of 9 points, which the atom
# step's loop steps; no point has a type-2 coordinate, and b12 = 0
POINTS = tuple((0.15 * (k + 1), 0.0, 0.04 + 0.01 * k) for k in range(12))
ATOM_POINTS = tuple((0.1 * (k + 1), 0.0, 0.02) for k in range(9))
LAM = 2.0


def _decoupled(cells):
    """Type 1 on [0, 1]: b11 of -0.6 below 0.5 and 0.4 above, with an
    atom of 0.3 at 0.5; c1 of 0.2; the points on every cell and the kernel
    atom at 0.25.  Type 2 has no coefficient, so v2 stays 0."""
    grid = uniform_grid(1.0, cells)
    return make_env(
        grid,
        b11=StieltjesMeasure.from_segments(grid, [(0.0, 0.5, -0.6), (0.5, 1.0, 0.4)],
                                           atoms=((0.5, 0.3),)),
        c1=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.2)]),
        m1=JumpMeasure(grid, [DiscreteSpatialMeasure(POINTS)] * cells,
                       [(0.25, DiscreteSpatialMeasure(ATOM_POINTS))]))


def _exact_v0():
    """v1(0) of :func:`_decoupled`, run by run from the top."""
    pts, atom_pts = ([(z1, w) for z1, _, w in p] for p in (POINTS, ATOM_POINTS))
    v = _exact.flow(LAM, 0.5, 0.4, 0.2, pts)
    v = _exact.atom(v, 0.3, ())
    v = _exact.flow(v, 0.25, -0.6, 0.2, pts)
    v = _exact.atom(v, 0.0, atom_pts)
    return _exact.flow(v, 0.25, -0.6, 0.2, pts)


@pytest.mark.parametrize("b", [1.0, -0.5])
@pytest.mark.parametrize("lam", [1.0, 1e3, 1e6, 1e12])
def test_the_oracle_matches_the_feller_closed_form(lam, b):
    assert _exact.flow(lam, 1.0, b, 1.0, ()) == pytest.approx(
        feller_oracle(b, 1.0, lam, 1.0), rel=1e-15, abs=0.0)


def test_the_sweep_converges_to_the_exact_value_at_second_order():
    exact = _exact_v0()
    errors = []
    for cells in (64, 128, 256, 512, 1024, 4096):
        v = solve_general(_decoupled(cells), 1.0, (LAM, 0.0)).v[0]
        assert v[1] == 0.0
        errors.append(abs(v[0] - exact))
    # measured: 4.7e-5 at 64 cells, each halving 4.0x less, 1.13e-8 at 4,096
    assert all(coarse >= 3.0 * fine for coarse, fine in zip(errors[:4], errors[1:5]))
    assert errors[-1] < 1e-7
