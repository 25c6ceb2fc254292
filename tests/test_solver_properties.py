"""Properties of the general backward sweep over random admissible models.

Models come from :func:`_instances.random_environment` (signed and cross
drifts, diffusion, jump kernels and atoms, every atom load below 1) on 8
to 60 cells, with λ in [0, 3]:

- v is nonnegative, and the sweep clamps nothing;
- v is nondecreasing in λ, componentwise, to 1e-12;
- at a type-i bottleneck (drift atom of exactly 1 on ``b_ii``, with no
  other atom on its node) the solution forgets its type-i value: the rows
  below it equal those of a solve that starts there from any type-i value
  and the same type-j value.

A fourth property compares the two routes on matched grids: monotone
Picard on a :func:`_instances.random_special_form` model (8 to 60 cells)
and the sweep on its general form agree to acceptance criterion 4's 1e-8.
The diagonal drifts are zero or pure atoms, as in criterion 4, where
Picard's change of scale is exact; a diagonal density makes the two
routes different discretizations, equal only as the grid is refined.
"""
import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from cbve import (
    StieltjesMeasure,
    bottlenecks,
    solve_general,
    solve_special_picard,
    special_to_general,
)

from _instances import random_environment, random_special_form

_SETTINGS = settings(max_examples=200)
_LAM = st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0))


@st.composite
def _models(draw):
    cells = draw(st.integers(8, 60))
    env = random_environment(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                             cells=cells)
    t_index = draw(st.integers(1, cells))
    return env, float(env.grid.nodes[t_index])


@_SETTINGS
@given(_models(), _LAM)
def test_solution_is_nonnegative(model, lam):
    env, t = model
    sol = solve_general(env, t, lam)
    assert sol.clamp_events == 0
    assert np.min(sol.v) >= 0.0


@_SETTINGS
@given(_models(), _LAM, _LAM)
def test_solution_is_monotone_in_lambda(model, lam, step):
    env, t = model
    lo = solve_general(env, t, lam)
    hi = solve_general(env, t, (lam[0] + step[0], lam[1] + step[1]))
    assert np.min(hi.v - lo.v) >= -1e-12


@st.composite
def _bottlenecked(draw):
    env, _ = draw(_models())
    grid = env.grid
    atoms = {hi for _, hi, atom, _ in env._table.runs if atom is not None}
    free = [m for m in range(1, grid.n_cells + 1) if m not in atoms]
    m = draw(st.sampled_from(free))
    i = draw(st.sampled_from((1, 2)))
    name = "b11" if i == 1 else "b22"
    drift = getattr(env, name)
    at = ((float(grid.nodes[m]), 1.0),)
    env = dataclasses.replace(env, **{name: StieltjesMeasure(grid, drift.density, at)})
    t = float(grid.nodes[draw(st.integers(m, grid.n_cells))])
    return env, m, i, t


@_SETTINGS
@given(_bottlenecked(), _LAM, st.floats(0.0, 3.0))
def test_solution_is_annihilated_at_a_bottleneck(case, lam, other):
    env, m, i, t = case
    s = float(env.grid.nodes[m])
    assert (s, i) in bottlenecks(env)
    v = solve_general(env, t, lam).v
    # restart at s with the same type-j value and any type-i value
    start = [other, other]
    start[2 - i] = v[m, 2 - i]
    below = solve_general(env, s, start).v
    assert np.array_equal(below[:m], v[:m])


@st.composite
def _special_forms(draw):
    cells = draw(st.integers(8, 60))
    sf = random_special_form(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                             cells=cells, diag=draw(st.sampled_from(("none", "atoms"))))
    return sf, float(sf.grid.nodes[draw(st.integers(1, cells))])


@_SETTINGS
@given(_special_forms(), _LAM)
def test_picard_and_sweep_agree_on_matched_grids(model, lam):
    sf, t = model
    picard = solve_special_picard(sf, t, lam)
    general = solve_general(special_to_general(sf), t, lam)
    assert np.max(np.abs(picard.v - general.v)) <= 1e-8
