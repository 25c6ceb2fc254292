"""The Picard solve and the a-priori exponent against their array references.

:func:`_reference.array_picard` allocates every array of an iteration
afresh and takes the sup-change as ``np.max(np.abs(diff))``;
:func:`cbve.solve_special_picard` writes the same operations, in the same
order, into buffers it allocates once per solve.  So on every form the two
return the same bytes, iteration counts, residuals, increment and maximum
records and a-priori bound, or raise the same error with the same message
and residual.  The forms cover padded kernels of 0, 1 and 3 slots, no atoms
at all or an atom on the terminal node, a terminal time at node 0 and
inside the grid, a lambda with a 0 or -0.0 component or of 1e300, and a
300-cell strong coupling that runs out of iterations.

:func:`_reference.apriori_growth_exponent` forms each combined diagonal
measure through ``StieltjesMeasure.linear_combination``; the library sums
the two measures' arrays directly.  The sums are the same, so the
exponents are equal at 0, at a node, between nodes and at the horizon.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference
from cbve import (
    DiscreteSpatialMeasure,
    JumpMeasure,
    SpecialForm,
    StieltjesMeasure,
    TimeGrid,
    apriori_growth_exponent,
    solve_special_picard,
)
from cbve.errors import CBVEError, ConvergenceError

_LAMBDAS = ("random", "zero", "negative zero", "huge")


def _bits(x):
    return None if x is None else np.array(x, dtype=float).tobytes()


def _outcome(solve, sf, t, lam):
    """Everything a solve records, bit for bit, or its error."""
    try:
        sol = solve(sf, t, lam)
    except CBVEError as exc:
        return type(exc), str(exc), _bits(getattr(exc, "residual", None))
    return (sol.v.shape, sol.v.tobytes(), sol.iterations_used, _bits(sol.max_residual),
            _bits(sol.picard_min_increments), _bits(sol.picard_iterate_maxima),
            _bits(sol.picard_bound))


def _form(rng, cells, slots, atoms, t_index, coupling=0.0):
    """A special form whose padded kernels hold exactly ``slots`` points;
    ``atoms`` is "none", "interior" (three random nodes per measure, or
    every node of a shorter grid) or "terminal" (those and the terminal
    node).  A ``coupling`` adds that much cross drift on a uniform grid of
    horizon 5."""
    if coupling:
        widths = np.full(cells, 5.0 / cells)
    else:
        widths = rng.uniform(0.02, 0.3, cells)
    grid = TimeGrid(np.concatenate(([0.0], np.cumsum(widths))))

    def atom_nodes():
        if atoms == "none":
            return []
        at = set(rng.choice(np.arange(1, cells + 1), size=min(3, cells), replace=False).tolist())
        if atoms == "terminal" and t_index:
            at.add(t_index)
        return sorted(at)

    def points(n):
        return DiscreteSpatialMeasure(tuple(
            (rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.05, 1.0))
            for _ in range(n)))

    def scalar(lo, hi, atom_lo, nondecreasing=False):
        dens = rng.uniform(lo, hi, cells) + (coupling if nondecreasing else 0.0)
        at = tuple((float(grid.nodes[m]), rng.uniform(atom_lo, 0.5)) for m in atom_nodes())
        return StieltjesMeasure(grid, dens, at)

    def jump(full_first):
        sizes = rng.integers(0, slots + 1, cells)
        if full_first:
            sizes[0] = slots
        return JumpMeasure(grid, tuple(points(n) for n in sizes),
                           tuple((float(grid.nodes[m]), points(slots)) for m in atom_nodes()))

    return SpecialForm(grid, scalar(-1.0, 1.0, -0.9), scalar(-1.0, 1.0, -0.9),
                       scalar(0.0, 1.0, 0.0, True), scalar(0.0, 1.0, 0.0, True),
                       jump(True), jump(False))


@st.composite
def _cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    strong = draw(st.integers(0, 4)) == 0
    cells = 300 if strong else draw(st.integers(1, 12))
    t_index = draw(st.sampled_from((0, cells, draw(st.integers(1, cells)))))
    sf = _form(rng, cells, draw(st.sampled_from((0, 1, 3))),
               draw(st.sampled_from(("none", "interior", "terminal"))), t_index,
               40.0 if strong else 0.0)
    kind = draw(st.sampled_from(_LAMBDAS))
    lam = rng.uniform(0.0, 2.0, 2).tolist()
    if kind == "huge":
        lam = [1e300, 1e300]
    elif kind != "random":
        lam[draw(st.integers(0, 1))] = 0.0 if kind == "zero" else -0.0
    return sf, float(sf.grid.nodes[t_index]), tuple(lam)


@settings(max_examples=120)
@given(_cases())
def test_picard_matches_array_reference_bit_for_bit(case):
    sf, t, lam = case
    assert _outcome(solve_special_picard, sf, t, lam) == \
        _outcome(_reference.array_picard, sf, t, lam)


@pytest.mark.parametrize("slots", [0, 1, 3])
def test_strong_coupling_runs_out_of_iterations_alike(slots):
    sf = _form(np.random.default_rng(slots), 300, slots, "terminal", 300, 40.0)
    want = _outcome(_reference.array_picard, sf, 5.0, (1.0, 0.5))
    assert want[0] is ConvergenceError
    assert _outcome(solve_special_picard, sf, 5.0, (1.0, 0.5)) == want


@settings(max_examples=60)
@given(_cases())
def test_apriori_exponent_matches_reference(case):
    sf, _, _ = case
    nodes = sf.grid.nodes
    k = len(nodes) // 2
    for t in (0.0, float(nodes[k]), 0.5 * float(nodes[k - 1] + nodes[k]), float(nodes[-1])):
        assert _bits(apriori_growth_exponent(sf, t)) == \
            _bits(_reference.apriori_growth_exponent(sf, t))
