"""Property test: the moment propagator against the scalar axis sweep.

:func:`_reference.solve_moment` steps backward one cell at a time, once
per axis, and puts the signs of lam back afterwards.
:func:`cbve.solve_moment` multiplies the same atom and cell steps as 2x2
matrices by recursive doubling, so the two agree to rounding: node-wise
``|a - b| <= 1e-12 (1 + max|b|)``.
Grids have 1 to 400 cells.  Time atoms sit on ``b11``, ``b22``, ``b12``
and ``b21``, sometimes on the terminal node, and a drift atom of exactly
1 makes a bottleneck.  Jump kernels feed the effective cross drifts with
densities and atoms.  Terminal times are 0, an interior node or the
horizon, and lam is signed, with zero components.

Where a cell step amplifies a decaying mode, the scalar sweep returns a
wrong mean and :func:`cbve.solve_moment` raises instead; the test decides
which cases those are from ``np.linalg.eigvals`` of each cell's hA.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference
from _instances import make_env, uniform_grid
from cbve import (
    DiscreteSpatialMeasure,
    JumpMeasure,
    StieltjesMeasure,
    effective_cross_drift,
    solve_moment,
)
from cbve.errors import DiscretizationError

_SETTINGS = settings(max_examples=120)

_LAM = st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1), st.just(0.0))


@st.composite
def _cases(draw):
    cells = draw(st.integers(1, 400))
    grid = uniform_grid(draw(st.floats(0.1, 3.0)), cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.5, 2.0, 8.0]))
    node = st.integers(1, cells)

    def atoms(lo, hi):
        at = draw(st.lists(node, max_size=3, unique=True))
        if draw(st.booleans()) and cells not in at:
            at.append(cells)
        return tuple((float(grid.nodes[m]), draw(st.floats(lo, hi))) for m in at)

    def drift(signed, lo, hi):
        dens = rng.uniform(-scale if signed else 0.0, scale, cells)
        return StieltjesMeasure(grid, dens, atoms(lo, hi), not signed)

    # a b11 atom of 1: a bottleneck unless a cross atom shares its node
    bottleneck = ()
    if draw(st.booleans()):
        bottleneck = ((float(grid.nodes[draw(node)]), 1.0),)

    def kernel(i):
        # atoms carry only the cross coordinate, so atom loads stay <= 1
        pts = tuple((*rng.uniform(0.0, 1.0, 2), rng.uniform(0.1, 1.0))
                    for _ in range(draw(st.integers(0, 2))))
        cross = (0.0, 1.0) if i == 1 else (1.0, 0.0)
        at = [(float(grid.nodes[m]), DiscreteSpatialMeasure(
                  ((cross[0] * z, cross[1] * z, w),)))
              for m, z, w in draw(st.lists(
                  st.tuples(node, st.floats(0.1, 1.0), st.floats(0.05, 0.5)),
                  max_size=2, unique_by=lambda a: a[0]))]
        return JumpMeasure(grid, (DiscreteSpatialMeasure(pts),) * cells, tuple(at))

    b11_atoms = atoms(-0.5, 0.9)
    b11 = StieltjesMeasure(
        grid, rng.uniform(-scale, scale, cells),
        b11_atoms + tuple(a for a in bottleneck if a[0] not in dict(b11_atoms)))
    env = make_env(
        grid,
        b11=b11,
        b22=drift(True, -0.5, 0.9),
        b12=drift(False, 0.0, 0.5),
        b21=drift(False, 0.0, 0.5),
        m1=kernel(1),
        m2=kernel(2),
    )
    M = {"zero": 0, "horizon": cells, "interior": cells // 2 + 1}[
        draw(st.sampled_from(("interior", "horizon", "zero")))]
    lam = (draw(_LAM), draw(_LAM))
    return env, float(grid.nodes[M]), lam


def _amplifies_decay(env, t):
    """Whether some cell step p(hA) maps an eigenvalue z < 0 of hA to
    |p(z)| > 1, with p(z) = 1 + z (1 + p_1(z)) / 2 the corrector applied to
    the predictor p_1(z) = 1 + z."""
    M = env.grid.index_of(t)
    bb12, bb21 = effective_cross_drift(env, 1, 2), effective_cross_drift(env, 2, 1)
    for k in range(M):
        hA = env.grid.widths[k] * np.array(((-env.b11.density[k], bb12.density[k]),
                                            (bb21.density[k], -env.b22.density[k])))
        for z in np.linalg.eigvals(hA).real:
            p = 1.0 + z * (2.0 + z) / 2.0
            if z < 0.0 and abs(p) > 1.0:
                return True
    return False


@_SETTINGS
@given(_cases())
def test_propagator_matches_scalar_axis_sweep(case):
    env, t, lam = case
    if _amplifies_decay(env, t):
        with pytest.raises(DiscretizationError, match="refine the grid"):
            solve_moment(env, t, lam)
        return
    want = _reference.solve_moment(env, t, lam).pi
    got = solve_moment(env, t, lam).pi
    assert got.shape == want.shape
    assert tuple(got[-1]) == lam
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))
