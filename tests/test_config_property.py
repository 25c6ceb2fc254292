"""Property test of the config round trip on generated models.

Random grids, piecewise densities, time atoms and kernel points are drawn
inside the admissible class, -0.0 values and coordinates among them, and
half the density pools hold 0.0 and -0.0 both, so they often sit side by
side; the emitted document must be a fixed point of parse-then-emit
(through JSON text), the reparsed model's arrays must equal the
original's bit for bit, and it must solve bit for bit like the original.
"""
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from cbve import (
    DiscreteSpatialMeasure,
    Environment,
    JumpMeasure,
    SpecialForm,
    StieltjesMeasure,
    TimeGrid,
    emit_config,
    parse_config,
    solve_general,
    solve_moment,
    solve_special_picard,
)

_SETTINGS = settings(max_examples=30)

# own-coordinate jump mass stays below 2 * 0.5 * 0.7 = 0.7 per atom, so with
# diagonal drift atoms at most 0.25 every atom load is admissible; -0.0 is
# drawn as a value and as z2, and must come back as itself
_POINTS = st.lists(
    st.tuples(st.floats(0.05, 0.5), st.one_of(st.floats(0.0, 0.5), st.just(-0.0)),
              st.floats(0.05, 0.7)),
    max_size=2,
)


def _values(lo, hi):
    return st.one_of(st.floats(lo, hi, allow_subnormal=False), st.just(-0.0))


@st.composite
def _grids(draw):
    cells = draw(st.integers(1, 12))
    widths = draw(st.lists(st.floats(0.02, 0.3), min_size=cells, max_size=cells))
    return TimeGrid(np.concatenate(([0.0], np.cumsum(widths))))


def _atom_nodes(draw, grid):
    return draw(st.lists(st.integers(1, grid.n_cells), max_size=2, unique=True))


@st.composite
def _scalars(draw, grid, lo=0.0, atoms=True):
    # values repeat across cells so emission has runs to merge into segments;
    # half the pools hold both zeros, so 0.0 and -0.0 cells often meet
    pool = draw(st.lists(_values(lo, 2.0), min_size=1, max_size=3))
    if draw(st.booleans()):
        pool += [0.0, -0.0]
    dens = draw(st.lists(st.sampled_from(pool), min_size=grid.n_cells,
                         max_size=grid.n_cells))
    at = ()
    if atoms:
        at = tuple((float(grid.nodes[i]), draw(_values(lo, 0.25)))
                   for i in _atom_nodes(draw, grid))
    return StieltjesMeasure(grid, np.array(dens), at)


@st.composite
def _kernels(draw, grid):
    pool = draw(st.lists(_POINTS, min_size=1, max_size=3))
    cells = draw(st.lists(st.sampled_from(pool), min_size=grid.n_cells,
                          max_size=grid.n_cells))
    at = tuple((float(grid.nodes[i]), DiscreteSpatialMeasure(tuple(draw(_POINTS))))
               for i in _atom_nodes(draw, grid))
    return JumpMeasure(grid, tuple(DiscreteSpatialMeasure(tuple(p)) for p in cells), at)


@st.composite
def _environments(draw):
    grid = draw(_grids())
    return Environment(
        grid,
        draw(_scalars(grid, lo=-1.0)), draw(_scalars(grid, lo=-1.0)),
        draw(_scalars(grid)), draw(_scalars(grid)),
        draw(_scalars(grid, atoms=False)), draw(_scalars(grid, atoms=False)),
        draw(_kernels(grid)), draw(_kernels(grid)),
    )


@st.composite
def _special_forms(draw):
    grid = draw(_grids())
    return SpecialForm(
        grid,
        draw(_scalars(grid, lo=-0.9)), draw(_scalars(grid, lo=-0.9)),
        draw(_scalars(grid)), draw(_scalars(grid)),
        draw(_kernels(grid)), draw(_kernels(grid)),
    )


def _reparsed(model):
    emitted = emit_config(model)
    again = parse_config(json.loads(json.dumps(emitted))).model
    assert emit_config(again) == emitted
    # bit for bit, so that 0.0 and -0.0 differ
    for name, kind in model._coefficients():
        parts = (("cell_points", "atom_points") if kind == "jump"
                 else ("density", "node_atom_masses"))
        for part in parts:
            want, got = (getattr(getattr(m, name), part) for m in (model, again))
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), (name, part)
    return again


@_SETTINGS
@given(_environments(), st.tuples(_values(0.0, 1.5), _values(0.0, 1.5)))
def test_environment_round_trip_solves_identically(env, lam):
    again = _reparsed(env)
    t = env.horizon
    signed = (lam[0], -lam[1])
    assert (solve_general(env, t, lam).v.tobytes()
            == solve_general(again, t, lam).v.tobytes())
    assert (solve_moment(env, t, signed).pi.tobytes()
            == solve_moment(again, t, signed).pi.tobytes())


@_SETTINGS
@given(_special_forms(), st.tuples(_values(0.0, 1.5), _values(0.0, 1.5)))
def test_special_form_round_trip_solves_identically(sf, lam):
    again = _reparsed(sf)
    t = sf.horizon
    assert (solve_special_picard(sf, t, lam).v.tobytes()
            == solve_special_picard(again, t, lam).v.tobytes())
