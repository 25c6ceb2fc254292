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

The kernel functionals and transforms that read the same padded arrays
are checked against the per-point loops they replaced, kept in
:mod:`_reference`: the mechanism increments at the right endpoint and the
atom increment to ``|a - b| <= 1e-14 (1 + |a|)`` (``np.expm1`` and
``math.expm1`` may differ in the last bit), ``thinned`` bit for bit, and
the h-transform's coefficients to 1e-14 relative, with the same point
counts everywhere.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference
from cbve import (
    DiscreteSpatialMeasure,
    Environment,
    JumpMeasure,
    SpecialForm,
    StieltjesMeasure,
    TimeGrid,
    h_transform_coefficients,
    mechanism_atom_increment,
    mechanism_increment,
    special_mechanism_increment,
)
from cbve.environment import _admissibility_integrand, _hypot

_SETTINGS = settings(max_examples=80)

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


def _grid(draw):
    cells = draw(st.one_of(st.just(1), st.integers(1, 12)))
    widths = draw(st.lists(st.floats(0.02, 0.3), min_size=cells, max_size=cells))
    return TimeGrid(np.concatenate(([0.0], np.cumsum(widths))))


def _jump_on(draw, grid):
    cells = grid.n_cells
    kernels = tuple(DiscreteSpatialMeasure(tuple(draw(_POINTS))) for _ in range(cells))
    at = draw(st.lists(st.integers(1, cells), max_size=3, unique=True))
    if draw(st.booleans()) and cells not in at:
        at.append(cells)
    atoms = tuple((float(grid.nodes[m]), DiscreteSpatialMeasure(tuple(draw(_POINTS))))
                  for m in at)
    return JumpMeasure(grid, kernels, atoms)


@st.composite
def _jumps(draw):
    return _jump_on(draw, _grid(draw))


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


def _near(a, b):
    return abs(a - b) <= 1e-14 * (1.0 + abs(a))


@st.composite
def _kernel_pairs(draw):
    """Two kernels on one grid, a node function f >= 0 and the nodes to
    check: 0, the horizon, every atom node and one more drawn node."""
    grid = _grid(draw)
    m1, m2 = _jump_on(draw, grid), _jump_on(draw, grid)
    size = grid.nodes.size
    f = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=2 * size, max_size=2 * size)))
    nodes = {0, grid.n_cells, draw(st.integers(0, grid.n_cells)), *m1.atom_nodes.tolist(),
             *m2.atom_nodes.tolist()}
    lam = (draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0)))
    return m1, m2, f.reshape(size, 2), sorted(nodes), lam


def _admissible_env(m1, m2):
    """Environment with kernels m1, m2 and no other coefficient but the
    diagonal drift atoms that cancel each own-coordinate jump atom, so every
    atom load is 0."""
    grid = m1.grid
    zero = StieltjesMeasure.zero(grid)
    b11, b22 = (StieltjesMeasure(grid, np.zeros(grid.n_cells),
                                 tuple((t, -m) for t, m in m.coordinate_moment(i).atoms))
                for m, i in ((m1, 1), (m2, 2)))
    return Environment(grid, b11, b22, zero, zero, zero, zero, m1, m2)


@_SETTINGS
@given(_kernel_pairs())
def test_array_mechanism_matches_per_point_loop(case):
    m1, m2, f, nodes, lam = case
    env = _admissible_env(m1, m2)
    grid = env.grid
    zero = StieltjesMeasure.zero(grid)
    sf = SpecialForm(grid, zero, zero, *[StieltjesMeasure.zero(grid)] * 2, m1, m2)
    times = [float(grid.nodes[m]) for m in nodes]
    for i in (1, 2):
        for k, t in enumerate(times):
            for r in times[: k + 1]:
                assert _near(_reference.mechanism_increment(env, i, f, r, t, "right"),
                             mechanism_increment(env, i, f, r, t))
                assert _near(_reference.special_mechanism_increment(sf, i, f, r, t, "right"),
                             special_mechanism_increment(sf, i, f, r, t))
            assert _near(_reference.mechanism_atom_increment(env, i, lam, t),
                         mechanism_atom_increment(env, i, lam, t))


def _hypot_factor(n):
    shrink = 1.0 - math.exp(-n)
    return (lambda z1, z2: shrink * np.minimum(1.0, n * _hypot(z1, z2)),
            lambda z1, z2: shrink * min(1.0, n * math.hypot(z1, z2)))


# at n = 40 the shrink factor rounds to 1, so the complement is exactly 0
# for |z| >= 1/40, as in the approximation's cross drifts at large n
_THIN40, _SCALAR_THIN40 = _hypot_factor(40)

# (elementwise factor, scalar factor of the reference loop), equal bit for
# bit; some return 0 or negative values, whose points must be dropped
_FACTORS = [
    _hypot_factor(1),
    _hypot_factor(3),
    (lambda z1, z2: 1.0 - _THIN40(z1, z2), lambda z1, z2: 1.0 - _SCALAR_THIN40(z1, z2)),
    (lambda z1, z2: 0.5 * z1 - 0.3 * z2 + 0.1, lambda z1, z2: 0.5 * z1 - 0.3 * z2 + 0.1),
    (lambda z1, z2: np.where(z1 > 1.0, 0.0, 2.0), lambda z1, z2: 0.0 if z1 > 1.0 else 2.0),
]


def _kernel_bits(jump):
    cells = [np.array(k.points, dtype=float).tobytes() for k in jump.cell_kernels]
    atoms = [(t, np.array(s.points, dtype=float).tobytes()) for t, s in jump.time_atoms]
    return cells, atoms


@_SETTINGS
@given(_jumps())
def test_array_thinning_matches_per_point_loop(jump):
    for fn, scalar_fn in _FACTORS:
        want = _reference.thinned(jump, scalar_fn)
        got = jump.thinned(fn)
        assert _kernel_bits(got) == _kernel_bits(want)


@st.composite
def _h_cases(draw):
    grid = _grid(draw)
    cells = grid.n_cells

    def scalar(lo, hi, atom_lo, atom_hi):
        dens = draw(st.lists(st.floats(lo, hi), min_size=cells, max_size=cells))
        at = draw(st.lists(st.integers(1, cells), max_size=3, unique=True))
        atoms = tuple((float(grid.nodes[m]), draw(st.floats(atom_lo, atom_hi))) for m in at)
        return StieltjesMeasure(grid, np.array(dens), atoms)

    sf = SpecialForm(grid, scalar(-2.0, 2.0, -0.9, 2.0), scalar(-2.0, 2.0, -0.9, 2.0),
                     scalar(0.0, 2.0, 0.0, 1.0), scalar(0.0, 2.0, 0.0, 1.0),
                     _jump_on(draw, grid), _jump_on(draw, grid))
    return sf, scalar(-3.0, 3.0, -1.0, 1.0), scalar(-3.0, 3.0, -1.0, 1.0)


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= 1e-14 * np.abs(a)))


@_SETTINGS
@given(_h_cases())
def test_array_h_transform_matches_per_point_loop(case):
    sf, zeta1, zeta2 = case
    want = _reference.h_transform_coefficients(sf, zeta1, zeta2)
    got = h_transform_coefficients(sf, zeta1, zeta2)
    for name in ("gamma11", "gamma22", "gamma12", "gamma21"):
        a, b = getattr(want, name), getattr(got, name)
        assert _close(a.density, b.density)
        assert [t for t, _ in a.atoms] == [t for t, _ in b.atoms]
        assert _close([m for _, m in a.atoms], [m for _, m in b.atoms])
    for a, b in ((want.mu1, got.mu1), (want.mu2, got.mu2)):
        for ka, kb in zip(a.cell_kernels, b.cell_kernels, strict=True):
            assert _close(ka.points, kb.points)
        assert [t for t, _ in a.time_atoms] == [t for t, _ in b.time_atoms]
        for (_, sa), (_, sb) in zip(a.time_atoms, b.time_atoms):
            assert _close(sa.points, sb.points)
