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
:mod:`cbve.compiled`, which each model builds once and caches: tuple rows
for the sweep (which is sequential and nonlinear, so it stays a scalar
loop), padded arrays for Picard.  Each sweep row carries the atom stepped
just before its cell, so the sweep itself is one private loop over a slice
of rows; :func:`solve_general` runs it over the rows below the terminal
node, and :func:`check_flow` runs it only over the nodes its residual
reads, its refined leg on the model's own rows split into finer cells.
The module also houses the h-transform utilities, the two-dimensional
Gronwall bound, the a-priori growth exponent and upper bound, and the
flow-property check.
"""
from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .compiled import _rescaled
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
    for the sweep route.
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

    @property
    def terminal_index(self) -> int:
        return self.v.shape[0] - 1


def _pair(value, what: str = "lambda", signed: bool = False):
    """``value`` as two floats; ``ValueError`` unless it holds exactly two
    real numbers (a string holds characters, not numbers), both finite and,
    unless ``signed`` (the mean system's lambda), nonnegative."""
    try:
        pair = tuple(value)
    except TypeError:
        pair = ()
    if len(pair) != 2 or not all(isinstance(v, Real) for v in pair):
        raise ValueError(f"{what} must be a pair of real numbers")
    a, b = float(pair[0]), float(pair[1])
    if not (math.isfinite(a) and math.isfinite(b) and (signed or min(a, b) >= 0.0)):
        raise ValueError(f"{what} must be finite"
                         + ("" if signed else " and componentwise nonnegative"))
    return a, b


# ---------------------------------------------------------------------------
# general backward sweep
# ---------------------------------------------------------------------------

def _sweep(rows, lam):
    """Backward sweep over ``rows`` from ``lam`` after the last row.

    ``rows`` is a slice of the rows of :func:`cbve.compiled.cell_table`; a
    row's atom steps the value before its cell.  Returns ``v`` with one
    value per node of the slice, the clamp count and the worst clamped
    deficit.
    """
    expm1 = math.expm1
    inf = math.inf
    n = len(rows)
    v1, v2 = lam
    # node k's pair sits at buf[2k], buf[2k + 1]; every node starts at lam
    buf = array("d", (v1, v2)) * (n + 1)
    k = 2 * n
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
        for a, h, b11d, b22d, bb12d, bb21d, c1d, c2d, pts1, pts2 in reversed(rows):
            if a is not None:
                a11, a22, ab12, ab21, _, _, ap1, ap2 = a
                p1 = a11 * v1 - ab12 * v2
                # the compensated-kernel sums stay inline: a shared helper
                # measured about 10% slower on this sweep
                for z1, z2, w in ap1:
                    x = v1 * z1 + v2 * z2
                    p1 += (expm1(-x) + x) * w
                p2 = a22 * v2 - ab21 * v1
                for z1, z2, w in ap2:
                    x = v1 * z1 + v2 * z2
                    p2 += (expm1(-x) + x) * w
                v1 -= p1
                v2 -= p2
                if not v1 >= 0.0:
                    v1 = clamp(v1)
                if not v2 >= 0.0:
                    v2 = clamp(v2)
            d1 = v1 * b11d - v2 * bb12d + v1 * v1 * c1d
            for z1, z2, w in pts1:
                x = v1 * z1 + v2 * z2
                d1 += (expm1(-x) + x) * w
            d2 = v2 * b22d - v1 * bb21d + v2 * v2 * c2d
            for z1, z2, w in pts2:
                x = v1 * z1 + v2 * z2
                d2 += (expm1(-x) + x) * w
            # right-endpoint predictor, then one trapezoid corrector
            c1x = v1 - h * d1
            c2x = v2 - h * d2
            e1 = c1x * b11d - c2x * bb12d + c1x * c1x * c1d
            for z1, z2, w in pts1:
                x = c1x * z1 + c2x * z2
                e1 += (expm1(-x) + x) * w
            e2 = c2x * b22d - c1x * bb21d + c2x * c2x * c2d
            for z1, z2, w in pts2:
                x = c1x * z1 + c2x * z2
                e2 += (expm1(-x) + x) * w
            v1 -= 0.5 * h * (d1 + e1)
            v2 -= 0.5 * h * (d2 + e2)
            if not v1 >= 0.0:
                v1 = clamp(v1)
            if not v2 >= 0.0:
                v2 = clamp(v2)
            # clamp refused NaN and -inf, so +inf is the one non-finite left
            if v1 == inf or v2 == inf:
                raise NumericalError("backward sweep produced non-finite values")
            k -= 2
            buf[k] = v1
            buf[k + 1] = v2
    except OverflowError:
        raise DiscretizationError(
            "backward sweep overflowed; refine the grid") from None
    return np.frombuffer(buf).reshape(n + 1, 2), clamp_events, worst_deficit


def solve_general(env: Environment, t: float, lam) -> CumulantSolution:
    """Solve the general backward system down from the terminal node of t.

    Atoms step the value exactly; each cell takes a right-endpoint
    predictor and one trapezoid corrector on the density integrand, which
    is second order on smooth stretches.  Negative components beyond 1e-9
    raise a :class:`DiscretizationError`; smaller ones are clamped to zero.
    """
    lam = _pair(lam)
    M = env.grid.index_of(t)
    v, clamp_events, worst_deficit = _sweep(env._table[:M], lam)
    return CumulantSolution(
        t=float(env.grid.nodes[M]),
        lam=lam,
        grid=env.grid,
        v=v,
        method="general_backward",
        iterations_used=M,
        max_residual=worst_deficit,
        clamp_events=clamp_events,
    )


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
        g, m = sf.gamma_diag(i), sf.mu_jump(i).coordinate_moment(i)
        combined = StieltjesMeasure._of(grid, g.density + m.density,
                                        g.node_atom_masses + m.node_atom_masses)
        total += combined.total_variation(t)
    total += sf.gamma12.cumulative(t) + sf.gamma21.cumulative(t)
    total += sf.mu2.coordinate_moment(1).cumulative(t)
    total += sf.mu1.coordinate_moment(2).cumulative(t)
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
    The fine leg runs on the model's own compiled rows: each cell of
    (s, t] becomes 2 rows with the refined grid's widths and the same
    densities and kernel points, its atom on the last of them (fine node
    ``2 * m`` for an atom at node m).  These are the rows the refined
    model ``env.refined(2)`` would compile on that window, and refinement
    keeps every atom and its mass, so it is admissible exactly when
    ``env`` is; the residual equals the one from solving that model,
    without building it.  A sweep failure on nodes the residual does not
    read (below r, or below s on the fine leg) therefore raises nothing.
    """
    return _flow_residual(env, r, s, t, lam)


def _split_rows(rows, widths, f: int):
    """``rows`` of a compiled table, each split into ``f`` rows of the given
    widths, its atom on the last: what an ``f``-times refined model compiles
    on that stretch.  The split rows of one parent share its tail."""
    split = []
    for row, j in zip(rows, range(0, len(widths), f)):
        tail = row[2:]
        split += [(None, w) + tail for w in widths[j : j + f - 1]]
        split.append((row[0], widths[j + f - 1]) + tail)
    return split


def _flow_residual(env: Environment, r: float, s: float, t: float, lam,
                   base: int = 1) -> float:
    """:func:`check_flow` on ``env.refined(base)``, swept on ``env``'s
    compiled rows: the base legs on them split ``base`` ways, the fine leg
    split ``2 * base`` ways with the widths of
    ``env.grid.refine(base).refine(2)``.  Refinement keeps ``validate``'s
    verdict, so ``env``'s own check (made when its rows are compiled)
    stands for the refined model's."""
    ir, isx, it = (env.grid.index_of(x) for x in (r, s, t))
    if not (ir <= isx <= it):
        raise ValueError("need r <= s <= t")
    grid = env.grid.refine(base)
    n = 2 * base
    widths = grid.refine(2).widths[isx * n : it * n].tolist()
    lam = _pair(lam)
    rows = env._table[ir:it]
    top = _sweep(_split_rows(rows[isx - ir :], widths, n), lam)[0][0]
    if base > 1:
        rows = _split_rows(rows, grid.widths[ir * base : it * base].tolist(), base)
    mid = _sweep(rows[: (isx - ir) * base], top.tolist())[0][0]
    full = _sweep(rows, lam)[0][0]
    return float(np.max(np.abs(mid - full)))
