"""Backward solvers for the cumulant system.

Two routes produce the same discrete solution:

* :func:`solve_general` sweeps the general system backward from the
  terminal time, applying time atoms exactly (an atom at node s changes
  the value strictly left of s) and integrating each atom-free cell in
  two passes: a right-endpoint predictor and one trapezoid corrector.

* :func:`solve_special_picard` iterates the monotone integral map of the
  finite-activity system.  Diagonal drifts are first removed by an
  exponential change of scale (the h-transform with the diagonal drift's
  continuous part and log(1 + jump) atoms), so every Picard increment is
  nonnegative and the iterates increase node-wise to the solution.  Cell
  increments reuse the two-pass cell step of the general sweep, so on
  matched grids the two solvers agree to roughly the Picard tolerance
  whenever the coefficients correspond.  Each sweep reads only
  the previous iterate, so one iteration is a fixed set of whole-array
  steps over all cells (atom increments, both cell edges, then a reverse
  cumulative sum), in the per-term order of the cell-by-cell loop, written
  into buffers allocated once per solve.

Both routes hold only their loops over the compiled tables of
:mod:`cbve.compiled`, which each model builds once and caches: for the
sweep (which is sequential and nonlinear, so it stays a scalar loop) the
runs of equal cells, each a tuple of densities and points with the atom
that ends it, and one ``(h, h / 2)`` pair per cell; padded arrays for
Picard.  The sweep itself is a private loop over a window of runs,
generated once per process for each signature (the kernel point counts
of a run's two types, each capped at 8) from one source template, with
the compensated terms of up to 8 points a type written out and the rest
stepped in a loop after them.  A leg (:func:`_leg`) sweeps a window of
cells on the model's grid or a refinement of it: :func:`solve_general`
those below the terminal node, :func:`check_flow` three over the nodes
its residual reads.  Each leg first refuses a cell too wide for its decay
rate, where the two-pass step would grow a decaying mode.  In the loop
only the clamp (a deficit beyond 1e-9, or NaN) and ``expm1``'s overflow
refuse a cell; a +inf is refused after the loop.  Every
solution's ``v`` is read-only, and the module keeps weak references to
each model's live :func:`solve_general` solutions, so :func:`check_flow`
reads its direct leg from one the caller holds rather than sweeping the
same cells again.  The module also houses the h-transform utilities, the
two-dimensional Gronwall bound, the a-priori growth exponent and upper
bound, and the flow-property check.
"""
from __future__ import annotations

import logging
import math
import sys
import weakref
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby
from numbers import Real
from operator import itemgetter
from time import perf_counter

import numpy as np

from .compiled import _rescaled, _steps
from .environment import (
    Environment,
    SpecialForm,
    effective_cross_drift,
    _other,
)
from .errors import ConvergenceError, DiscretizationError, NumericalError
from .measures import JumpMeasure, StieltjesMeasure, TimeGrid

__all__ = [
    "CumulantSolution",
    "solve_general",
    "solve_special_picard",
    "h_transform_coefficients",
    "h_transform_solution",
    "gronwall_bound",
    "apriori_growth_exponent",
    "cumulant_upper_bound",
    "check_flow",
]


_log = logging.getLogger(__name__)

# Picard's stopping tolerance on the sup-node change, and its iteration cap
_PICARD_TOL = 1e-12
_PICARD_MAX_ITER = 200

# the sweep clamps smaller negative deficits to zero and refuses larger ones
_NEGATIVITY_TOL = 1e-9

# largest exponent whose exponential is a finite double
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True, eq=False)
class CumulantSolution:
    """Grid-indexed backward solution for one terminal pair (t, lam).

    ``v[k]`` is the solution at node k of ``grid`` for k up to the terminal
    index; ``v`` at the terminal node equals ``lam`` exactly and is
    componentwise nonnegative everywhere (tiny negative round-off is clamped
    and counted in ``clamp_events``).  ``max_residual`` holds the final
    Picard sup-change for the iterative route and the worst clamped deficit
    for the sweep route.  ``v`` is read-only: the solution freezes the array
    it is given, so an assignment into it raises ``ValueError``.
    """

    t: float
    lam: tuple
    grid: TimeGrid
    v: np.ndarray
    method: str
    iterations_used: int
    max_residual: float
    clamp_events: int = 0
    picard_min_increments: tuple = ()
    picard_iterate_maxima: tuple = ()
    picard_bound: float = math.nan

    def __post_init__(self):
        self.v.setflags(write=False)

    @property
    def terminal_index(self) -> int:
        return self.v.shape[0] - 1


def _pair(value, what: str = "lambda", signed: bool = False):
    """``value`` as two floats; ``ValueError`` unless it holds exactly two
    real numbers (not a string or a boolean), both finite and, unless
    ``signed`` (the mean system's lambda), nonnegative."""
    try:
        pair = tuple(value)
    except TypeError:
        pair = ()
    if len(pair) != 2 or any(isinstance(v, bool) or not isinstance(v, Real) for v in pair):
        raise ValueError(f"{what} must be a pair of real numbers")
    a, b = float(pair[0]), float(pair[1])
    if not (math.isfinite(a) and math.isfinite(b) and (signed or min(a, b) >= 0.0)):
        raise ValueError(f"{what} must be finite"
                         + ("" if signed else " and componentwise nonnegative"))
    return a, b


# ---------------------------------------------------------------------------
# general backward sweep
# ---------------------------------------------------------------------------

# The loop of _sweep over consecutive runs whose rows hold n1 type-1 and n2
# type-2 kernel points, generated per signature (n1, n2) by _loop_source:
# {unpack} binds the points to locals once per run, and {d1}, {d2}, {e1}
# and {e2} are the compensated terms of _terms, two lines each.  A count of
# _UNROLL stands for that many or more: the points past them are bound to
# a list and stepped in a loop after the written-out terms.  {p1} and {p2},
# the atom step's, are _terms' loop over an atom's own points, so _terms
# writes every compensated term.  Returns the value below the group.
_LOOP = """\
def sweep_runs(group, steps, buf, v1, v2, clamp):
    expm1 = math.expm1
    for lo, hi, a, (b11d, b22d, bb12d, bb21d, c1d, c2d, pts1, pts2) in group:
{unpack}\
        if a is not None:
            a11, a22, ab12, ab21, _, _, ap1, ap2 = a
            p1 = a11 * v1 - ab12 * v2
{p1}\
            p2 = a22 * v2 - ab21 * v1
{p2}\
            v1 -= p1
            v2 -= p2
            if not v1 >= 0.0:
                v1 = clamp(v1)
            if not v2 >= 0.0:
                v2 = clamp(v2)
        k = 2 * hi
        for h, hh in reversed(steps[lo:hi]):
            d1 = v1 * b11d - v2 * bb12d + v1 * v1 * c1d
{d1}\
            d2 = v2 * b22d - v1 * bb21d + v2 * v2 * c2d
{d2}\
            # right-endpoint predictor, then one trapezoid corrector
            c1x = v1 - h * d1
            c2x = v2 - h * d2
            e1 = c1x * b11d - c2x * bb12d + c1x * c1x * c1d
{e1}\
            e2 = c2x * b22d - c1x * bb21d + c2x * c2x * c2d
{e2}\
            v1 -= hh * (d1 + e1)
            v2 -= hh * (d2 + e2)
            if not v1 >= 0.0:
                v1 = clamp(v1)
            if not v2 >= 0.0:
                v2 = clamp(v2)
            k -= 2
            buf[k] = v1
            buf[k + 1] = v2
    return v1, v2
"""

# the loop of each signature met so far, built on first use; a signature
# past _UNROLL shares the loop of its capped counts
_LOOPS = {}

# kernel points a type that a loop writes out; so at most (_UNROLL + 1)^2 loops
_UNROLL = 8


def _terms(acc: str, x1: str, x2: str, names, rest: str) -> str:
    """Lines adding to ``acc`` the compensated term of each point in
    ``names`` at (x1, x2), then of each in the list ``rest`` if named, in
    order: the arithmetic of a loop over them."""
    lines = "".join(f"            x = {x1} * {p}z1 + {x2} * {p}z2\n"
                    f"            {acc} += (expm1(x) - x) * {p}w\n" for p in names)
    if rest:
        lines += (f"            for z1, z2, w in {rest}:\n"
                  f"                x = {x1} * z1 + {x2} * z2\n"
                  f"                {acc} += (expm1(x) - x) * w\n")
    return lines


def _unpack(names, rest: str, row: str) -> str:
    """The line binding the points of ``row`` to the locals of ``names``,
    and those past them to the list ``rest`` if named."""
    targets = [f"({p}z1, {p}z2, {p}w)" for p in names] + [f"*{rest}"] * bool(rest)
    return f"        [{', '.join(targets)}] = {row}\n" if names else ""


def _loop_source(n1: int, n2: int) -> str:
    """The source of the sweep loop of signature (n1, n2)."""
    p, q = [f"p{j}" for j in range(n1)], [f"q{j}" for j in range(n2)]
    pr, qr = ("pr" if n1 == _UNROLL else ""), ("qr" if n2 == _UNROLL else "")
    return _LOOP.format(unpack=_unpack(p, pr, "pts1") + _unpack(q, qr, "pts2"),
                        p1=_terms("p1", "v1", "v2", (), "ap1"),
                        p2=_terms("p2", "v1", "v2", (), "ap2"),
                        d1=_terms("d1", "v1", "v2", p, pr), d2=_terms("d2", "v1", "v2", q, qr),
                        e1=_terms("e1", "c1x", "c2x", p, pr), e2=_terms("e2", "c1x", "c2x", q, qr))


def _loop(signature):
    """The sweep loop of ``signature``, compiled once per process for its
    counts capped at :data:`_UNROLL`, whose loop every signature that caps
    alike shares; each build logs one debug line."""
    loop = _LOOPS.get(signature)
    if loop is None:
        capped = tuple(min(n, _UNROLL) for n in signature)
        if capped not in _LOOPS:
            start = perf_counter()
            source = _loop_source(*capped)
            scope = {"math": math}
            exec(compile(source, f"<sweep loop {capped}>", "exec"), scope)
            _LOOPS[capped] = scope["sweep_runs"]
            _log.debug("sweep loop %s: %d lines, %.3f ms",
                       capped, source.count("\n"), 1e3 * (perf_counter() - start))
        loop = _LOOPS[signature] = _LOOPS[capped]
    return loop


def _signature(run) -> tuple:
    row = run[3]
    return len(row[6]), len(row[7])


def _sweep(runs, steps, lam):
    """Backward sweep over ``runs`` from ``lam`` after the last cell.

    ``runs`` is a window of the runs of :func:`cbve.compiled.sweep_table`,
    their bounds counted from the window's first cell, and ``steps`` the
    window's ``(h, h / 2)`` per cell; a run's atom steps the value before
    its last cell.  Points are stored negated, so the compensated term
    ``expm1(-x) + x`` is the one :func:`_terms` writes at the negated x: the
    same float, IEEE negation being exact and rounding symmetric.  Each
    stretch of consecutive runs with equal point counts per type goes to the
    loop generated for those counts (:func:`_loop`, which counts 8 or more
    as 8), which steps every cell with its first points as locals and their
    compensated terms written out, then the rest in a loop: the arithmetic
    of one loop over the points, in the same order.  Returns ``v`` with one
    value per node of the window, the clamp count and the worst clamped
    deficit.  :func:`_leg` refuses stiff cells first; in the loop the clamp
    refuses a large deficit or NaN, and ``expm1``'s overflow too coarse a
    grid; a +inf is refused once, after the loop, as nonnegative cross
    coefficients keep it +inf or turn it NaN at the next step.
    """
    n = len(steps)
    v1, v2 = lam
    # node k's pair sits at buf[2k], buf[2k + 1]; every node starts at lam
    buf = array("d", (v1, v2)) * (n + 1)
    clamp_events = 0
    worst_deficit = 0.0

    def clamp(x: float) -> float:
        # only called off the fast path, where ``not x >= 0.0``
        nonlocal clamp_events, worst_deficit
        if x < -_NEGATIVITY_TOL:
            raise DiscretizationError(
                f"negative component {x:.3e} beyond tolerance; refine the grid"
            )
        if x != x:  # NaN fails both tests, but is no small deficit
            raise NumericalError("backward sweep produced non-finite values")
        clamp_events += 1
        worst_deficit = max(worst_deficit, -x)
        return 0.0

    # a predictor far below zero overflows expm1 in the corrector: the
    # grid is too coarse for this lam, like a deficit beyond tolerance
    try:
        for signature, group in groupby(reversed(runs), _signature):
            v1, v2 = _loop(signature)(group, steps, buf, v1, v2, clamp)
    except OverflowError:
        raise DiscretizationError(
            "backward sweep overflowed; refine the grid") from None
    v = np.frombuffer(buf).reshape(n + 1, 2)
    if not np.isfinite(v).all():  # only +inf: the clamp refused NaN and -inf
        raise NumericalError("backward sweep produced non-finite values")
    return v, clamp_events, worst_deficit


def _window(runs, lo: int, hi: int, f: int) -> list:
    """The ``runs`` over cells lo..hi-1, clipped to them, their bounds
    counted from lo and scaled by ``f``: the runs of those cells on an
    ``f`` times refined grid.  An atom ends a run, so a run clipped at hi
    carries none."""
    window = list(runs[bisect_right(runs, lo, key=itemgetter(1)) :
                       bisect_left(runs, hi, key=itemgetter(0))])
    if window:
        a, b, atom, row = window[-1]
        window[-1] = (a, min(b, hi), atom if b <= hi else None, row)
        window[0] = (lo, *window[0][1:])
    if lo or f > 1:  # else the bounds already count from 0, and no run is copied
        window = [((a - lo) * f, (b - lo) * f, atom, row) for a, b, atom, row in window]
    return window


def _leg(env: Environment, lo: int, hi: int, grid: TimeGrid, lam):
    """:func:`_sweep` over cells lo..hi-1 of ``env``'s runs on ``grid``:
    ``env.grid``, with the model's cached steps, or a refinement that splits
    each cell ``f`` ways, with its own steps and the runs scaled by ``f``.

    First a :class:`DiscretizationError` names the first of those cells
    where h * mu > 2 (mu its run's decay rate), on which the two-pass step
    would grow a decaying mode.  Only the cells of the few stiff runs that
    the model's table lists beside its runs are read, so a model with none
    pays nothing.
    """
    f = grid.n_cells // env.grid.n_cells
    steps = env._table.steps[lo:hi] if grid is env.grid else _steps(grid.widths[lo * f : hi * f])
    for a, b, mu in env._table.stiff:
        # empty unless the run meets the window
        for j in range((max(a, lo) - lo) * f, (min(b, hi) - lo) * f):
            z = steps[j][0] * mu
            if z > 2.0:
                raise DiscretizationError(
                    f"stiff decay on cell {lo + j // f}: h * mu = {z:.3g} > 2, where the "
                    "two-pass step grows a decaying mode; refine the grid")
    return _sweep(_window(env._table.runs, lo, hi, f), steps, lam)


# each model's live solve_general solutions, keyed by _held_key; weak both
# ways, so a solution lives only as long as its caller holds it and the
# registry keeps no model alive.  _flow_residual reads its direct leg here.
_SOLVES = weakref.WeakKeyDictionary()


def _held_key(M: int, lam) -> tuple:
    """The terminal node and the bits of ``lam`` (``float.hex`` keeps -0.0
    apart from 0.0)."""
    return (M, *map(float.hex, lam))


def solve_general(env: Environment, t: float, lam) -> CumulantSolution:
    """Solve the general backward system down from the terminal node of t.

    Atoms step the value exactly; each cell takes a right-endpoint
    predictor and one trapezoid corrector on the density integrand, which
    is second order on smooth stretches.  Negative components beyond 1e-9
    raise a :class:`DiscretizationError`; smaller ones are clamped to zero.
    So does, before sweeping, a cell whose width h times its decay rate mu
    (the largest eigenvalue of the linear part) exceeds 2, where the
    two-pass step would grow a decaying mode.
    """
    lam = _pair(lam)
    M = env.grid.index_of(t)
    v, clamp_events, worst_deficit = _leg(env, 0, M, env.grid, lam)
    sol = CumulantSolution(
        t=float(env.grid.nodes[M]),
        lam=lam,
        grid=env.grid,
        v=v,
        method="general_backward",
        iterations_used=M,
        max_residual=worst_deficit,
        clamp_events=clamp_events,
    )
    held = _SOLVES.get(env)
    if held is None:
        held = _SOLVES[env] = weakref.WeakValueDictionary()
    held[_held_key(M, lam)] = sol
    return sol


# ---------------------------------------------------------------------------
# finite-activity Picard iteration
# ---------------------------------------------------------------------------

def _drift(out, a, p, x, tmp):
    """Both rows of the diagonal-free drift at x, written to ``out``.

    Row i is ``a[i]`` times the other type's value minus the
    compensated-kernel terms of the type-i points ``p[i]`` (coordinates
    negated) at (x1, x2); the terms are subtracted one padded slot at a
    time, in the order of the points, both types in each step.  The terms
    are formed in the scratch buffer ``tmp``, shaped like ``p[:, 0]``.
    """
    np.multiply(a, x[::-1], out=out)
    np.multiply(x[0], p[:, 0], out=tmp)
    tmp += x[1] * p[:, 1]
    np.expm1(tmp, out=tmp)
    tmp *= p[:, 2]
    for term in tmp.swapaxes(0, 1):
        out -= term
    return out


def solve_special_picard(sf: SpecialForm, t: float, lam) -> CumulantSolution:
    """Solve the finite-activity system by monotone Picard iteration.

    The diagonal drift is removed by an exponential change of scale before
    iterating, so iterate k+1 dominates iterate k node-wise; each cell
    increment is the sweep's two-pass step.  Iteration stops once the
    sup-node change (in original coordinates) drops below 1e-12, and raises
    :class:`ConvergenceError` with the last residual after 200 iterations.
    Per-iteration minima of the node-wise increments and maxima of the
    iterate values are recorded on the solution, together with the a-priori
    bound ``2 |lam| exp(rho(t))`` (inf once exp(rho) overflows).  A change
    of scale whose exponentials overflow before t, or an iterate that stops
    being finite, raises :class:`NumericalError`.
    """
    lam1, lam2 = _pair(lam)
    M = sf.grid.index_of(t)
    tab = sf._picard_table
    if not np.all(np.abs(tab.Z[:, : M + 1]) <= _LOG_MAX):
        raise NumericalError(
            "diagonal drift too large: its change of scale exp(zeta) overflows "
            "before t"
        )
    # the diagonal-free system is solved for the inflated terminal argument
    # e^{zeta(t)} lam and deflated node-wise by e^{-zeta(r)} afterwards
    F = tab.F[:, : M + 1]
    lamp = np.array([lam1 * math.exp(tab.Z[0, M]), lam2 * math.exp(tab.Z[1, M])])
    h = tab.widths[:M]
    half_h = 0.5 * h
    aL, aR, pL, pR = tab.aL[:, :M], tab.aR[:, :M], tab.pL[..., :M], tab.pR[..., :M]
    # atoms at nodes 1..M step the value of the cell to their left
    lo, hi = np.searchsorted(tab.atom_nodes, (1, M + 1))
    an = tab.atom_nodes[lo:hi]
    ab, ap = tab.ab[:, lo:hi], tab.ap[..., lo:hi]
    an1 = an - 1
    ainc = np.empty((2, an.size))
    ai = np.zeros((2, M))
    # per-iteration arrays and the drift's scratch, allocated once
    dR, dL, w, c = (np.empty((2, M)) for _ in range(4))
    atmp = np.empty(ap.shape[:1] + ap.shape[2:])
    ctmp = np.empty(pL.shape[:1] + pL.shape[2:])
    V = np.repeat(lamp[:, None], M + 1, axis=1)
    mapped = F * lamp[:, None]
    min_incs = []
    max_vals = []
    sup = math.inf
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, _PICARD_MAX_ITER + 1):
            if an.size:
                ai[:, an1] = _drift(ainc, ab, ap, V[:, an], atmp)
            np.add(V[:, 1:], ai, out=w)
            _drift(dR, aR, pR, w, ctmp)
            # the left edge is read at w + h dR, formed in c
            np.multiply(h, dR, out=c)
            c += w
            _drift(dL, aL, pL, c, ctmp)
            # ai + ((w + half_h (dR + dL)) - w), one operation at a time
            np.add(dR, dL, out=c)
            c *= half_h
            c += w
            c -= w
            c += ai
            # np.cumsum accumulates sequentially, from node M - 1 down to 0
            acc = np.cumsum(c[:, ::-1], axis=1)[:, ::-1]
            new = np.empty((2, M + 1))
            new[:, M] = lamp
            np.add(lamp[:, None], acc, out=new[:, :M])
            nm = F * new
            diff = nm - mapped
            # max |diff| from its two extremes: a NaN shows in both, and with
            # hi first a change of +0.0 everywhere gives +0.0
            lo_d, hi_d = float(diff.min()), float(diff.max())
            sup = max(hi_d, -lo_d)
            min_incs.append(lo_d)
            max_vals.append(float(nm.max()))
            V = new
            mapped = nm
            if not math.isfinite(sup):
                raise NumericalError("Picard iteration produced non-finite values")
            if sup < _PICARD_TOL:
                break
        else:
            raise ConvergenceError(
                f"Picard iteration did not reach tol {_PICARD_TOL:g} in "
                f"{_PICARD_MAX_ITER} iterations (residual {sup:.3e})",
                residual=sup,
            )
    v = mapped.T.copy()
    v[M, 0], v[M, 1] = lam1, lam2
    rho = apriori_growth_exponent(sf, float(sf.grid.nodes[M]))
    # a growth exponent past the double range bounds nothing
    bound = 2.0 * math.hypot(lam1, lam2) * math.exp(rho) if rho <= _LOG_MAX else math.inf
    return CumulantSolution(
        t=float(sf.grid.nodes[M]),
        lam=(lam1, lam2),
        grid=sf.grid,
        v=v,
        method="special_picard",
        iterations_used=iterations,
        max_residual=sup,
        picard_min_increments=tuple(min_incs),
        picard_iterate_maxima=tuple(max_vals),
        picard_bound=bound,
    )


# ---------------------------------------------------------------------------
# h-transform
# ---------------------------------------------------------------------------

def h_transform_coefficients(sf: SpecialForm, zeta1: StieltjesMeasure,
                             zeta2: StieltjesMeasure) -> SpecialForm:
    """Coefficient set of the system solved by exp(zeta_i(r)) u_i(r).

    The drift acquires -d(zeta continuous part) - (1 - e^{-jump}) atoms on
    top of the rescaled diagonal; cross drifts gain the factor
    e^{zeta_i(s-) - zeta_j(s)}; jump points move to
    (e^{-zeta_1(s)} z_1, e^{-zeta_2(s)} z_2) with weights scaled by
    e^{zeta_i(s-)}.  Densities are materialized with the cell's left-node
    scale, which is exact whenever zeta is piecewise constant.  A scale
    change whose exponentials overflow raises :class:`NumericalError`.
    """
    grid = sf.grid
    if not (zeta1.grid.same_as(grid) and zeta2.grid.same_as(grid)):
        raise ValueError("zeta must live on the grid of the coefficients")
    Z = np.stack([zeta1.node_cumulatives, zeta2.node_cumulatives])
    dZ = np.stack([zeta1.node_atom_masses, zeta2.node_atom_masses])
    zl, zminus = Z[:, :-1], Z - dZ

    def finite(*arrays):
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise NumericalError("scale change overflows")

    def diag(i: int) -> StieltjesMeasure:
        gam = sf.gamma_diag(i)
        # e^(-dZ) (1 + g) - 1, without the cancellation for small dZ
        g = gam.node_atom_masses
        mass = np.expm1(-dZ[i - 1]) * (1.0 + g) + g
        finite(mass)
        return StieltjesMeasure._of(grid, gam.density - (zeta1, zeta2)[i - 1].density, mass)

    def cross(i: int, j: int) -> StieltjesMeasure:
        gam = sf.gamma_cross(i, j)
        dens = gam.density * np.exp(zl[i - 1] - zl[j - 1])
        mass = gam.node_atom_masses * np.exp(zminus[i - 1] - Z[j - 1])
        finite(dens, mass[gam.atom_nodes])
        return StieltjesMeasure._of(grid, dens, mass, gam.atom_nodes)

    def jumps(i: int) -> JumpMeasure:
        mu = sf.mu_jump(i)
        at = mu.atom_nodes
        cells = _rescaled(mu.cell_points, np.exp(-zl), np.exp(zl[i - 1]))
        atoms = _rescaled(mu.atom_points, np.exp(-Z[:, at]), np.exp(zminus[i - 1, at]))
        # padding slots may hold 0 * inf; only the kernel's own points count
        finite(cells[:, mu.cell_points[2] > 0.0], atoms[:, mu.atom_points[2] > 0.0])
        return mu._rebuilt(cells, atoms)

    with np.errstate(over="ignore", invalid="ignore"):
        return SpecialForm(grid, diag(1), diag(2), cross(1, 2), cross(2, 1),
                           jumps(1), jumps(2))


def h_transform_solution(solution: CumulantSolution, zeta1: StieltjesMeasure,
                         zeta2: StieltjesMeasure, lam) -> CumulantSolution:
    """Rescale a solved system node-wise by e^{zeta_i(r)}.

    ``solution`` must have been solved for the terminal argument
    (e^{-zeta_1(t)} lam_1, e^{-zeta_2(t)} lam_2); anything else is a
    contract violation and raises.
    """
    lam1, lam2 = _pair(lam)
    grid = solution.grid
    if not (zeta1.grid.same_as(grid) and zeta2.grid.same_as(grid)):
        raise ValueError("zeta must live on the solution grid")
    M = solution.terminal_index
    Z = np.stack((zeta1.node_cumulatives[: M + 1], zeta2.node_cumulatives[: M + 1]))
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.array((lam1, lam2)) * np.exp(-Z[:, M])
        v = solution.v * np.exp(Z).T
    if not np.isfinite(want).all():
        raise NumericalError("h-transform terminal argument overflows")
    for got, expect in zip(solution.lam, want.tolist()):
        if abs(got - expect) > 1e-9 * (1.0 + abs(expect)):
            raise ValueError(
                "terminal-argument mismatch: solution was not solved for the "
                "transformed terminal value"
            )
    if not np.isfinite(v).all():
        raise NumericalError("h-transform rescaling overflows")
    v[M, 0], v[M, 1] = lam1, lam2
    return CumulantSolution(
        t=solution.t,
        lam=(lam1, lam2),
        grid=grid,
        v=v,
        method=solution.method + "+h_transform",
        iterations_used=solution.iterations_used,
        max_residual=solution.max_residual,
        clamp_events=solution.clamp_events,
    )


# ---------------------------------------------------------------------------
# bounds and verification helpers
# ---------------------------------------------------------------------------

def _as_node_function(grid: TimeGrid, a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 0:
        arr = np.full(grid.nodes.size, float(arr))
    if arr.shape != (grid.nodes.size,):
        raise ValueError("expected a scalar or one value per grid node")
    # finiteness first: NaN passes both comparisons, and inf makes diff NaN
    if not np.isfinite(arr).all() or (arr < 0.0).any() or (np.diff(arr) < 0.0).any():
        raise ValueError("expected a finite, nonnegative, nondecreasing node function")
    return arr


def gronwall_bound(beta, a, t: float):
    """Two-type Gronwall bound for g_i <= a_i + int g_i dbeta_ii + int g_j dbeta_ij.

    ``beta`` is the 2x2 nest ((beta11, beta12), (beta21, beta22)) of
    nondecreasing measures; ``a`` is a pair of finite, nonnegative,
    nondecreasing node functions (or scalars).  Returns the pair of bound
    values at time t, computed by nested Stieltjes quadrature (trapezoid
    cells, exact atoms).  A weight exp(beta_jj) that overflows before t
    raises :class:`NumericalError`.
    """
    (b11, b12), (b21, b22) = beta
    grid = b11.grid
    for meas in (b11, b12, b21, b22):
        if not meas.grid.same_as(grid):
            raise ValueError("beta measures must share one grid")
        if not meas.nondecreasing:
            raise ValueError("beta measures must be nondecreasing")
    it = grid.index_of(t)
    t = float(grid.nodes[it])
    a1, a2 = (_as_node_function(grid, x) for x in a)
    out = []
    for bii, bij, bji, bjj, ai, aj in ((b11, b12, b21, b22, a1, a2),
                                       (b22, b21, b12, b11, a2, a1)):
        g = np.zeros(grid.nodes.size)
        with np.errstate(over="ignore"):
            g[: it + 1] = np.exp(bjj.node_cumulatives[: it + 1])
        if not np.isfinite(g).all():
            raise NumericalError("Gronwall weight exp(beta_jj) overflows before t")
        # g dbeta_ij on trapezoid cells: its mass over (s_k, t] is the inner integral
        gb = StieltjesMeasure._of(grid, bij.density * 0.5 * (g[:-1] + g[1:]),
                                  bij.node_atom_masses * g)
        inner = gb.node_cumulatives[it] - gb.node_cumulatives
        double = bji.integrate(inner, 0.0, t, "trapezoid")
        d_i = float(ai[it]) + bij.integrate(aj * g, 0.0, t, "trapezoid")
        out.append(d_i * math.exp(double + bii.cumulative(t)))
    return tuple(out)


def apriori_growth_exponent(sf: SpecialForm, t: float) -> float:
    """Growth exponent rho(t) of the finite-activity a-priori estimate.

    Sums the total variations of the combined diagonal measures (diagonal
    drift plus mean own-coordinate jump inflow, as one signed measure, so
    cancellations reduce the bound), the cross-drift masses and the mean
    cross-coordinate jump inflows.  Each combined measure is the sum of the
    two measures' density and node-mass arrays.
    """
    grid = sf.grid
    total = 0.0
    for i in (1, 2):
        g, m = sf.gamma_diag(i), sf._moments[i - 1][i - 1]
        combined = StieltjesMeasure._of(grid, g.density + m.density,
                                        g.node_atom_masses + m.node_atom_masses)
        total += combined.total_variation(t)
    total += sf.gamma12.cumulative(t) + sf.gamma21.cumulative(t)
    total += sf._moments[1][0].cumulative(t)
    total += sf._moments[0][1].cumulative(t)
    return total


def cumulant_upper_bound(env: Environment, i: int, r: float, t: float, lam) -> float:
    """A-priori upper bound for component i of the backward solution.

    Uniform in r (the argument is kept for signature symmetry): Euclidean
    norm of lam times (1 + effective cross drift at t), inflated by the
    exponential of the Gronwall double integral bound.
    """
    del r
    lam1, lam2 = _pair(lam)
    j = _other(i)
    norm = math.hypot(lam1, lam2)
    bb12 = effective_cross_drift(env, 1, 2).cumulative(t)
    bb21 = effective_cross_drift(env, 2, 1).cumulative(t)
    bb_ij = bb12 if i == 1 else bb21
    tv_jj = env.b_diag(j).total_variation(t)
    expo = math.exp(tv_jj) * bb12 * bb21
    expo += env.b11.total_variation(t) + env.b22.total_variation(t)
    return norm * (1.0 + bb_ij) * math.exp(expo)


def check_flow(env: Environment, r: float, s: float, t: float, lam) -> float:
    """Composition residual of the backward flow across r <= s <= t.

    Solves the (s, t] leg on a twice finer grid, feeds its value at s as
    terminal data to an (r, s] solve on the base grid and compares with the
    direct (r, t] solve at node r.  On a shared grid the one-step recursion
    composes exactly, so the refined terminal leg is what makes the
    residual measure actual discretization error; it vanishes under grid
    refinement.  With s = t the terminal leg is the identity and the
    residual is exactly zero.

    Each leg sweeps only the nodes the residual reads: the fine leg the
    fine nodes of [s, t], the two base legs the nodes of [r, s] and [r, t].
    The fine leg runs on the model's own compiled runs: the window of
    (s, t], its run bounds doubled and its steps those of the refined grid,
    so each atom stays at the end of its run (fine node ``2 * m`` for an
    atom at node m).  This is what the refined model ``env.refined(2)``
    would compile on that window, and refinement keeps every atom and its
    mass, so it is admissible exactly when ``env`` is; the residual equals
    the one from solving that model, without building it.  A sweep
    failure on nodes the residual does not read (below r, or below s on
    the fine leg) therefore raises nothing.  Each leg first refuses a cell
    of its own grid too wide for its decay rate, as :func:`solve_general`
    does.

    While the caller holds a :func:`solve_general` solution of ``env`` for
    the terminal node of t and the same bits of lam, the direct (r, t] leg
    is read from its ``v`` at node r instead of swept again.  The sweep is
    cell-local, so that value is the leg's, bit for bit; the solve swept
    and checked every cell of the leg, so reading it hides no refusal; and
    ``v`` is read-only.  Either way the residual is the same float.
    """
    return _flow_residual(env, r, s, t, lam)


def _flow_residual(env: Environment, r: float, s: float, t: float, lam,
                   base: int = 1) -> float:
    """:func:`check_flow` on ``env.refined(base)`` as three legs on
    ``env``'s compiled runs, ``grid`` being ``env.grid.refine(base)``: the
    fine leg over the cells of (s, t] on ``grid.refine(2)``, the mid leg
    over (r, s] on ``grid`` from the fine leg's value at s, and the direct
    leg over (r, t] on ``grid``.  Refinement keeps ``validate``'s verdict,
    so ``env``'s own check (made when its runs are compiled) stands for the
    refined model's.  At ``base == 1`` the direct leg is read from a live
    :func:`solve_general` of ``env`` at (t, lam) when the registry
    ``_SOLVES`` holds one."""
    ir, isx, it = (env.grid.index_of(x) for x in (r, s, t))
    if not (ir <= isx <= it):
        raise ValueError("need r <= s <= t")
    grid = env.grid.refine(base)
    lam = _pair(lam)
    top = _leg(env, isx, it, grid.refine(2), lam)[0][0]
    mid = _leg(env, ir, isx, grid, top.tolist())[0][0]
    held = _SOLVES.get(env, {}).get(_held_key(it, lam)) if base == 1 else None
    full = held.v[ir] if held is not None else _leg(env, ir, it, grid, lam)[0][0]
    return float(np.max(np.abs(mid - full)))
