"""The sweep against exact values on a decoupled type (``_exact``'s travel-time oracle)."""
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    # c = 0 is the linear case lam e^{-b tau}, which grows without bound at b < 0
    for c in (1.0, 0.0):
        assert _exact.flow(lam, 1.0, b, c, ()) == pytest.approx(
            feller_oracle(b, c, lam, 1.0), rel=1e-15, abs=0.0)


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


def _spec(rng):
    """A drawn decoupled model on [0, 1] and its lam: 1-3 runs with bounds
    at multiples of 1/8, and per type i a b_ii in [-1, 1] and a c_i >= 0 on
    each run (c_i = 0 where lam_i > 1e2), 0-12 points with z_j = 0 on every
    cell, and maybe a b_ii atom and a kernel atom of up to 9 points at run
    bounds.  lam_i is 0 with probability 0.2, else 10^U(-2, 6).  Loads stay
    below 1: a b_ii atom is at most 0.5, a kernel atom's sum of z w 0.45."""
    cuts = sorted(rng.choice(np.arange(1, 8), size=rng.integers(0, 3), replace=False).tolist())
    bounds = [0, *cuts, 8]
    types = []
    for _ in (1, 2):
        lam = 0.0 if rng.random() < 0.2 else float(10.0 ** rng.uniform(-2.0, 6.0))
        runs = [(lo, hi, rng.uniform(-1.0, 1.0), 0.0 if lam > 1e2 else rng.uniform(0.0, 0.5))
                for lo, hi in zip(bounds, bounds[1:])]
        k = rng.integers(0, 13)
        points = list(zip(rng.uniform(0.05, 1.5, k).tolist(), rng.uniform(0.01, 0.6, k).tolist()))
        mass = {int(rng.choice(bounds[1:])): rng.uniform(-0.5, 0.5)} if rng.random() < 0.5 else {}
        kernel = {}
        if rng.random() < 0.5:
            k = rng.integers(1, 10)
            kernel[int(rng.choice(bounds[1:]))] = list(zip(rng.uniform(0.05, 0.2, k).tolist(),
                                                           rng.uniform(0.01, 0.25, k).tolist()))
        types.append((lam, runs, points, mass, kernel))
    return types


def _lift(i, points):
    """Type-i (z, w) points as (z1, z2, w), with z_j = 0."""
    return [(z, 0.0, w) if i == 1 else (0.0, z, w) for z, w in points]


def _model(types, cells):
    """The model of :func:`_spec` on ``cells`` equal cells."""
    grid = uniform_grid(1.0, cells)
    coefficients = {}
    for i, (_, runs, points, mass, kernel) in enumerate(types, 1):
        coefficients[f"b{i}{i}"] = StieltjesMeasure.from_segments(
            grid, [(lo / 8, hi / 8, b) for lo, hi, b, _ in runs],
            atoms=tuple((at / 8, m) for at, m in mass.items()))
        coefficients[f"c{i}"] = StieltjesMeasure.from_segments(
            grid, [(lo / 8, hi / 8, c) for lo, hi, _, c in runs])
        coefficients[f"m{i}"] = JumpMeasure.from_segments(
            grid, [(0.0, 1.0, _lift(i, points))],
            [(at / 8, _lift(i, p)) for at, p in kernel.items()])
    return make_env(grid, **coefficients)


def _exact_type(lam, runs, points, mass, kernel):
    """v_i(0) of one type of :func:`_spec`, run by run from the top: the
    atoms at a run's upper bound, then its flow."""
    v = lam
    for lo, hi, b, c in reversed(runs):
        v = _exact.atom(v, mass.get(hi, 0.0), kernel.get(hi, ()))
        v = _exact.flow(v, (hi - lo) / 8, b, c, points)
    return v


# measured: these 60 draws skip 2, fall at least 3.79x per halving from N0
# and end at most 6.2e-5 of |v| off at 4 N0.  Over 2,400 further draws
# the worst was 9.5e-5, and 3 of some 3,700 halvings fell only
# 1.9-2.7x: at lam near 0.05, where runs of opposite b nearly cancel the h^2
# term, so the h^3 term shows (the next halvings fall 3.2-3.4x)
@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_drawn_decoupled_types_converge_at_second_order(seed):
    types = _spec(np.random.default_rng(seed))
    rate = max(abs(b) + 2.0 * c * lam + sum(z * w for z, w in points)
               for lam, runs, points, _, _ in types for _, _, b, c in runs)
    n0 = 8
    while n0 < 20.0 * rate:
        n0 *= 2
    assume(n0 <= 1024)
    exact = [_exact_type(*t) for t in types]
    lam = tuple(t[0] for t in types)
    errors = np.array([np.abs(solve_general(_model(types, n), 1.0, lam).v[0] - exact)
                       for n in (n0, 2 * n0, 4 * n0)])
    for i, v in enumerate(exact):
        coarse, fine, finest = errors[:, i]
        assert coarse >= 3.0 * fine or coarse <= 1e-11 * (1.0 + abs(v))
        assert finest <= 1e-3 * abs(v)
