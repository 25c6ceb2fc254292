"""Property tests: the moment propagator against per-cell exponentials,
and the two-pass scalar sweep it replaced against the exact mean.

The coefficients are constant on each cell, so the exact mean steps node
k+1 to node k by ``expm(hA_k) (I - J_{k+1})``: the atom at node k+1, then
the cell.  :func:`_expm_oracle` takes that product one cell at a time with
``scipy.linalg.expm`` (in steps of norm at most 1, see :func:`_expm`); :func:`cbve.solve_moment` forms the same steps in
closed form for all cells and multiplies them by recursive doubling, so
the two agree to rounding: node-wise ``|a - b| <= 1e-12 (1 + max|b|)``.
Grids have 1 to 400 cells.  Time atoms sit on ``b11``, ``b22``, ``b12``
and ``b21``, sometimes on the terminal node, and a drift atom of exactly
1 makes a bottleneck.  Jump kernels feed the effective cross drifts with
densities and atoms.  Terminal times are 0, an interior node or the
horizon, and lam is signed, with zero components.  Stiff decaying cells
(hA down to about -24) give their exact steps.

The model compiles its steps once, over its whole grid
(:func:`cbve.compiled.mean_steps`), and a solve copies those below t;
:func:`_reference.propagator_moment` forms the steps of the cells below t
on every call, as the solver did before.  Every operation on the steps is
elementwise over cells, so at every checked terminal node (0, 1, the
horizon, a drawn node and an atom node, on 1 to 60 cells) the two give
the same bytes.

:func:`_reference.solve_moment` takes the general sweep's two-pass cell
step, exact to second order, so on cells small enough for that step to be
stable its error against the exact mean falls about 4 times when the grid
is refined 2 times, and must fall at least 3 times.
"""
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from scipy import linalg

import _reference
from _instances import make_env, uniform_grid
from cbve import (
    DiscreteSpatialMeasure,
    JumpMeasure,
    StieltjesMeasure,
    effective_cross_drift,
    solve_moment,
)
from cbve.compiled import _expm1_cells
from cbve.errors import CBVEError

_SETTINGS = settings(max_examples=120)

_LAM = st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1), st.just(0.0))


@st.composite
def _cases(draw, cells=st.integers(1, 400), horizon=st.floats(0.1, 3.0),
           scales=(0.5, 2.0, 8.0)):
    cells = draw(cells)
    grid = uniform_grid(draw(horizon), cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(scales))
    node = st.integers(1, cells)

    def atoms(lo, hi):
        at = draw(st.lists(node, max_size=3, unique=True))
        if draw(st.booleans()) and cells not in at:
            at.append(cells)
        return tuple((float(grid.nodes[m]), draw(st.floats(lo, hi))) for m in at)

    def drift(signed, lo, hi):
        dens = rng.uniform(-scale if signed else 0.0, scale, cells)
        return StieltjesMeasure(grid, dens, atoms(lo, hi))

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


def _expm(hA):
    """``expm(hA)`` for a Metzler hA as the product of n steps
    ``expm(hA / n)``, n the 1-norm of hA rounded up.  scipy's squaring loses
    up to 5e-12 relative at norms near 30; each step here has norm at most
    1, where scipy is accurate to a few ulps, and the steps are nonnegative,
    so their product adds no cancellation."""
    n = max(1, math.ceil(np.abs(hA).sum(axis=0).max()))
    step = linalg.expm(hA / n)
    out = step
    for _ in range(n - 1):
        out = step @ out
    return out


def _expm_oracle(env, t, lam):
    """pi at every node up to t, one cell at a time with scipy's expm."""
    M = env.grid.index_of(t)
    bb12, bb21 = effective_cross_drift(env, 1, 2), effective_cross_drift(env, 2, 1)
    pi = np.empty((M + 1, 2))
    pi[M] = lam
    for k in range(M - 1, -1, -1):
        A = np.array(((-env.b11.density[k], bb12.density[k]),
                      (bb21.density[k], -env.b22.density[k])))
        J = np.array(((env.b11.node_atom_masses[k + 1], -bb12.node_atom_masses[k + 1]),
                      (-bb21.node_atom_masses[k + 1], env.b22.node_atom_masses[k + 1])))
        pi[k] = _expm(env.grid.widths[k] * A) @ (pi[k + 1] - J @ pi[k + 1])
    return pi


@_SETTINGS
@given(_cases())
def test_propagator_matches_per_cell_expm(case):
    env, t, lam = case
    want = _expm_oracle(env, t, lam)
    got = solve_moment(env, t, lam).pi
    assert got.shape == want.shape
    assert tuple(got[-1]) == lam
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


def _outcome(solve, env, t, lam):
    """The mean's exact bytes, or the type and message of its error."""
    try:
        return solve(env, t, lam).pi.tobytes()
    except CBVEError as exc:
        return type(exc), str(exc)


@st.composite
def _prefix_cases(draw):
    """A case of :func:`_cases` on 1 to 60 cells, and the terminal nodes to
    check: 0, 1, the horizon, a drawn node and a drawn atom node."""
    env, _, lam = draw(_cases(cells=st.integers(1, 60)))
    cells = env.grid.n_cells
    nodes = {0, 1, cells, draw(st.integers(0, cells))}
    atoms = sorted(set().union(*(np.flatnonzero(meas.node_atom_masses).tolist() for meas in (
        env.b11, env.b22, effective_cross_drift(env, 1, 2), effective_cross_drift(env, 2, 1)))))
    if atoms:
        nodes.add(draw(st.sampled_from(atoms)))
    return env, sorted(nodes), lam


@_SETTINGS
@given(_prefix_cases())
def test_compiled_steps_match_per_call_propagators(case):
    env, nodes, lam = case
    for M in nodes:
        t = float(env.grid.nodes[M])
        assert _outcome(solve_moment, env, t, lam) == _outcome(
            _reference.propagator_moment, env, t, lam)


@st.composite
def _fine_cases(draw):
    """Cases of :func:`_cases` on 40 to 200 cells over (0, 1], with drift
    densities up to 2 in size, so every cell's hA stays small."""
    env, t, lam = draw(_cases(cells=st.integers(40, 200), horizon=st.just(1.0),
                              scales=(0.5, 2.0)))
    assume(t > 0.0 and lam != (0.0, 0.0))
    return env, t, lam


@settings(max_examples=60, derandomize=True)
@given(_fine_cases())
def test_two_pass_sweep_converges_at_second_order(case):
    env, t, lam = case
    fine = env.refined(2)
    errors = []
    for model, step in ((env, 1), (fine, 2)):
        exact = solve_moment(model, t, lam).pi[::step]
        errors.append(np.max(np.abs(_reference.solve_moment(model, t, lam).pi[::step] - exact)))
    assert errors[1] * 3.0 <= errors[0]


def test_cell_step_per_branch():
    # one stack reaching both branches: q = 0 (equal diagonals, a zero cross
    # entry), q near the 1e-8 threshold, q of 1e-6 far below tau with a
    # large cross entry (where (expm1(tau + q) - expm1(tau - q)) / 2q would
    # lose 5 digits), ordinary cells and stiff ones; each cell's step is
    # the same alone and in the stack, and each is exp(hA) - I to rounding
    # relative to its largest entry, the near-identity steps too (a Taylor
    # sum is exact there)
    hA = np.array([
        [[0.0, 0.0], [0.0, 0.0]],
        [[-0.3, 0.0], [2.0, -0.3]],
        [[1e-9, 1e-9], [1e-9, 1e-9]],
        [[0.2, 1e-18], [1e-18, 0.2]],
        [[0.2, 1e-14], [1e-14, 0.2]],
        [[0.2, 1.0], [1e-12, 0.2]],
        [[-0.5, 0.7], [0.1, 0.4]],
        [[-200.0, 0.0], [0.25, 0.0]],
        [[-800.0, 800.0], [800.0, -800.0]],
    ]).transpose(1, 2, 0)
    got = _expm1_cells(hA)
    for k in range(hA.shape[2]):
        one = hA[:, :, k]
        assert _expm1_cells(one[:, :, None])[:, :, 0].tobytes() == got[:, :, k].tobytes()
        if np.abs(one).max() < 1e-6:
            want = one + one @ one / 2.0 + one @ one @ one / 6.0
        else:
            want = _expm(one) - np.eye(2)
        assert np.max(np.abs(got[:, :, k] - want)) <= 1e-15 * np.max(np.abs(want))
