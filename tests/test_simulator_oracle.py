"""The lock-step simulator against its streams and its scalar oracle.

:class:`cbve.streams.PCGStreams` must reproduce
``SeedSpec(m).generator(k).random()`` bit for bit, for short and long
master seeds and path indices up to 2**32 - 1, including streams refilled
at different times.  The engine, run on a block of paths with event
capture, must give every path the events of :func:`_reference.simulate`
driven by that path's generator, with final states equal to rounding:
both draw the same uniforms in the same order and apply the same ufuncs,
so only the scalar and array evaluation of a ufunc may differ.  Models are
hypothesis special forms with atoms allowed on the terminal node, the five
criterion-8 cases and an atom batch large enough to be drawn in pieces.
The engine treats a run of cells with equal coefficients as one stretch,
so refining the grid of such a form leaves every path as it was.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference
from cbve import (
    DiscreteSpatialMeasure,
    JumpMeasure,
    SeedSpec,
    SpecialForm,
    StieltjesMeasure,
    TimeGrid,
    simulate_path,
)
from cbve.simulator import _simulate_paths
from cbve.streams import _CHUNK, WIDTH, PCGStreams

from _instances import mc_cases

_TOL = 1e-14
_PATHS = 40


@pytest.mark.parametrize("master", [0, 8200, 2**63 - 25, 2**200 + 7])
def test_streams_match_seedspec_generators(master):
    edge = [0, 1, 2, 99, 2**16 + 3, 2**31, 2**32 - 2, 2**32 - 1]
    # enough paths that one block call spans several array passes
    paths = np.array(edge + list(range(1000, 1000 + 2 * _CHUNK // WIDTH)))
    assert paths.size > 2 * (_CHUNK // WIDTH)
    streams = PCGStreams(master, paths)
    rows = np.arange(paths.size)
    # every stream draws three blocks; the odd rows a fourth, out of step
    got = [streams.block(rows) for _ in range(3)]
    extra = streams.block(rows[1::2])
    spec = SeedSpec(master)
    for r, k in enumerate(paths.tolist()):
        want = spec.generator(k).random(4 * WIDTH)
        assert np.array_equal(np.concatenate([g[r] for g in got]), want[:3 * WIDTH])
        if r % 2:
            assert np.array_equal(extra[r // 2], want[3 * WIDTH:])


def test_streams_reject_out_of_range_input():
    with pytest.raises(ValueError):
        PCGStreams(1, [2**32])
    with pytest.raises(ValueError):
        PCGStreams(1, [-1])
    with pytest.raises(ValueError):
        PCGStreams(-1, [0])


_POINTS = st.lists(
    st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 1.0), st.floats(0.05, 1.5)),
    max_size=3,
)


@st.composite
def _cases(draw):
    cells = draw(st.integers(1, 8))
    widths = draw(st.lists(st.floats(0.05, 0.4), min_size=cells, max_size=cells))
    grid = TimeGrid(np.concatenate(([0.0], np.cumsum(widths))))
    t_index = draw(st.sampled_from([cells, draw(st.integers(0, cells))]))
    nodes = st.lists(st.integers(1, cells), max_size=3, unique=True)

    def atom_nodes():
        at = draw(nodes)
        if t_index and draw(st.booleans()) and t_index not in at:
            at.append(t_index)
        return at

    def scalar(lo, hi, atom_lo, nondecreasing=False):
        dens = np.array(draw(st.lists(st.floats(lo, hi), min_size=cells, max_size=cells)))
        atoms = tuple((float(grid.nodes[m]), draw(st.floats(atom_lo, 0.5)))
                      for m in atom_nodes())
        return StieltjesMeasure(grid, dens, atoms, nondecreasing)

    def jump():
        kernels = tuple(DiscreteSpatialMeasure(tuple(draw(_POINTS))) for _ in range(cells))
        atoms = tuple((float(grid.nodes[m]), DiscreteSpatialMeasure(tuple(draw(_POINTS))))
                      for m in atom_nodes())
        return JumpMeasure(grid, kernels, atoms)

    sf = SpecialForm(grid, scalar(-1.5, 1.5, -0.9), scalar(-1.5, 1.5, -0.9),
                     scalar(0.0, 1.0, 0.0, True), scalar(0.0, 1.0, 0.0, True),
                     jump(), jump())
    x0 = (draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0)))
    seed = draw(st.integers(0, 2**63))
    return sf, x0, float(grid.nodes[t_index]), seed


def _close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.all(np.abs(a - b) <= _TOL * (1.0 + np.abs(b))))


def _check_block(sf, x0, t, seed, n_paths=_PATHS):
    states, events = _simulate_paths(sf, x0, t, seed, n_paths)
    spec = SeedSpec(seed)
    for k in range(n_paths):
        (w1, w2), want = _reference.simulate(sf, x0, t, spec.generator(k))
        assert len(events[k]) == len(want)
        for got, ev in zip(events[k], want):
            assert (got.kind, got.type_source) == (ev.kind, ev.type_source)
            assert _close((got.time, *got.x_after), (ev.time, *ev.x_after))
        assert _close(states[k], (w1, w2))


@settings(max_examples=40)
@given(_cases())
def test_engine_matches_scalar_oracle(case):
    _check_block(*case)


@pytest.mark.parametrize("case", range(5))
def test_engine_matches_scalar_oracle_on_criterion_8_cases(case):
    sf, x0, _ = mc_cases()[case]
    _check_block(sf, x0, 1.0, 8200 + case, n_paths=300)


def test_engine_matches_scalar_oracle_on_a_split_atom_batch():
    # mean 1200 at the atom: three Poisson(400) pieces per path
    grid = TimeGrid(np.linspace(0.0, 1.0, 5))
    zero = StieltjesMeasure.zero(grid)
    batch = JumpMeasure.from_segments(grid, atoms=[(0.5, [(0.0, 1.0, 0.7), (0.5, 0.2, 0.5)])])
    sf = SpecialForm(grid, zero, zero, StieltjesMeasure.zero(grid, True),
                     StieltjesMeasure.zero(grid, True), batch, JumpMeasure.zero(grid))
    _check_block(sf, (1000.0, 0.0), 1.0, 31, n_paths=10)


@pytest.mark.parametrize("case", range(5))
def test_path_does_not_depend_on_the_grid_of_a_stretch(case):
    # cells of equal coefficients form one stretch, so a finer grid of the
    # same piecewise-constant form reads the same uniforms to the same end
    sf, x0, _ = mc_cases()[case]
    fine = sf.refined(4)
    assert np.array_equal(fine._sim_table.ends, 4 * sf._sim_table.ends)
    for k in range(20):
        state, events = simulate_path(sf, x0, 1.0, SeedSpec(5).generator(k))
        fine_state, fine_events = simulate_path(fine, x0, 1.0, SeedSpec(5).generator(k))
        assert [(e.kind, e.type_source) for e in fine_events] == \
            [(e.kind, e.type_source) for e in events]
        assert _close([e.time for e in fine_events], [e.time for e in events])
        assert _close(fine_state, state)


def test_single_path_matches_block_path():
    # simulate_path reads a Generator in blocks of uniforms; its path is
    # that of the same index in a lock-step block
    sf, x0, _ = mc_cases()[4]
    states, events = _simulate_paths(sf, x0, 1.0, SeedSpec(77), 20)
    for k in range(20):
        state, got = simulate_path(sf, x0, 1.0, SeedSpec(77).generator(k))
        assert _close(state, states[k])
        assert [(e.kind, e.type_source) for e in got] == \
            [(e.kind, e.type_source) for e in events[k]]
        assert _close([e.time for e in got], [e.time for e in events[k]])
