"""Backward solvers for the cumulant system.

Two routes produce the same discrete solution:

* :func:`solve_general` sweeps the general system backward from the
  terminal time, applying time atoms exactly (an atom at node s changes
  the value strictly left of s) and integrating each atom-free cell with
  a fixed number of predictor/corrector passes (pass 1 is the right
  endpoint rule, later passes are trapezoid correctors).

* :func:`solve_special_picard` iterates the monotone integral map of the
  finite-activity system.  Diagonal drifts are first removed by an
  exponential change of scale (the h-transform with the diagonal drift's
  continuous part and log(1 + jump) atoms), so every Picard increment is
  nonnegative and the iterates increase node-wise to the solution.  Cell
  increments reuse the same predictor/corrector structure as the general
  sweep, so on matched grids the two solvers agree to roughly the Picard
  tolerance whenever the coefficients correspond.  Each sweep reads only
  the previous iterate, so one iteration is a fixed set of whole-array
  steps over all cells (atom increments, both cell edges, then a reverse
  cumulative sum), in the per-term order of the cell-by-cell loop.

Both routes hold only their loops over the compiled tables of
:mod:`cbve.compiled`, which each model builds once and caches: tuple rows
for the sweep (which is sequential and nonlinear, so it stays a scalar
loop), padded arrays for Picard; the moment system shares the general
table.  The module also houses the h-transform
utilities, the two-dimensional Gronwall bound, the a-priori growth
exponent and upper bound, and the flow-property check.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .compiled import _scaled_points
from .environment import (
    Environment,
    SpecialForm,
    effective_cross_drift,
    _other,
)
from .errors import ConvergenceError, DiscretizationError, NumericalError
from .measures import DiscreteSpatialMeasure, JumpMeasure, StieltjesMeasure, TimeGrid

__all__ = [
    "SolverOptions",
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


@dataclass(frozen=True)
class SolverOptions:
    """Numerical knobs shared by the backward solvers."""

    picard_tol: float = 1e-12
    picard_max_iter: int = 200
    cell_fixed_point_iters: int = 2
    negativity_tol: float = 1e-9

    def __post_init__(self):
        if self.picard_tol <= 0 or self.negativity_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.picard_max_iter < 1 or self.cell_fixed_point_iters < 1:
            raise ValueError("iteration counts must be positive")


_DEFAULT_OPTS = SolverOptions()

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

    def value_at(self, r: float) -> np.ndarray:
        """Step interpolation from the right (cadlag convention)."""
        if r < 0.0 or r > self.t:
            raise ValueError("r outside [0, t]")
        idx = int(np.searchsorted(self.grid.nodes[: self.terminal_index + 1], r))
        return self.v[min(idx, self.terminal_index)].copy()


def _check_lambda(lam):
    lam1, lam2 = float(lam[0]), float(lam[1])
    if lam1 < 0.0 or lam2 < 0.0 or not (math.isfinite(lam1) and math.isfinite(lam2)):
        raise ValueError("lambda must be finite and componentwise nonnegative")
    return lam1, lam2


# ---------------------------------------------------------------------------
# general backward sweep
# ---------------------------------------------------------------------------

def solve_general(env: Environment, t: float, lam, opts: SolverOptions | None = None
                  ) -> CumulantSolution:
    """Solve the general backward system down from the terminal node of t.

    Atoms step the value exactly; each cell runs
    ``opts.cell_fixed_point_iters`` predictor/corrector passes on the
    density integrand.  Negative components beyond ``opts.negativity_tol``
    raise a :class:`DiscretizationError`; smaller ones are clamped to zero.
    """
    opts = opts or _DEFAULT_OPTS
    env.require_valid()
    lam1, lam2 = _check_lambda(lam)
    M = env.grid.index_of(t)
    cells, atoms = env._table
    expm1 = math.expm1
    npass = opts.cell_fixed_point_iters
    neg_tol = opts.negativity_tol
    v = np.empty((M + 1, 2))
    v[M, 0], v[M, 1] = lam1, lam2
    v1, v2 = lam1, lam2
    clamp_events = 0
    worst_deficit = 0.0

    def clamp(x: float) -> float:
        nonlocal clamp_events, worst_deficit
        if x >= 0.0:
            return x
        if x < -neg_tol:
            raise DiscretizationError(
                f"negative component {x:.3e} beyond tolerance; refine the grid"
            )
        clamp_events += 1
        worst_deficit = max(worst_deficit, -x)
        return 0.0

    for k in range(M - 1, -1, -1):
        a = atoms.get(k + 1)
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
            v1 = clamp(v1 - p1)
            v2 = clamp(v2 - p2)
        h, b11d, b22d, bb12d, bb21d, c1d, c2d, pts1, pts2 = cells[k]
        d1 = v1 * b11d - v2 * bb12d + v1 * v1 * c1d
        for z1, z2, w in pts1:
            x = v1 * z1 + v2 * z2
            d1 += (expm1(-x) + x) * w
        d2 = v2 * b22d - v1 * bb21d + v2 * v2 * c2d
        for z1, z2, w in pts2:
            x = v1 * z1 + v2 * z2
            d2 += (expm1(-x) + x) * w
        c1x = v1 - h * d1
        c2x = v2 - h * d2
        for _ in range(npass - 1):
            e1 = c1x * b11d - c2x * bb12d + c1x * c1x * c1d
            for z1, z2, w in pts1:
                x = c1x * z1 + c2x * z2
                e1 += (expm1(-x) + x) * w
            e2 = c2x * b22d - c1x * bb21d + c2x * c2x * c2d
            for z1, z2, w in pts2:
                x = c1x * z1 + c2x * z2
                e2 += (expm1(-x) + x) * w
            c1x = v1 - 0.5 * h * (d1 + e1)
            c2x = v2 - 0.5 * h * (d2 + e2)
        v1 = clamp(c1x)
        v2 = clamp(c2x)
        if not (math.isfinite(v1) and math.isfinite(v2)):
            raise NumericalError("backward sweep produced non-finite values")
        v[k, 0], v[k, 1] = v1, v2
    return CumulantSolution(
        t=float(env.grid.nodes[M]),
        lam=(lam1, lam2),
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

def _drift(out, a12, a21, p1, p2, x):
    """Both rows of the diagonal-free drift at x, written to ``out``.

    Row 1 is ``a12 * x2`` minus the compensated-kernel terms of ``p1`` at
    (x1, x2), row 2 likewise with ``a21 * x1`` and ``p2``; the terms are
    subtracted one padded slot at a time, in the order of the points.
    """
    np.multiply(a12, x[1], out=out[0])
    np.multiply(a21, x[0], out=out[1])
    for row, points in zip(out, (p1, p2)):
        for term in np.expm1(-(x[0] * points[0] + x[1] * points[1])) * points[2]:
            row -= term
    return out


def solve_special_picard(sf: SpecialForm, t: float, lam,
                         opts: SolverOptions | None = None) -> CumulantSolution:
    """Solve the finite-activity system by monotone Picard iteration.

    The diagonal drift is removed by an exponential change of scale before
    iterating, so iterate k+1 dominates iterate k node-wise; iteration stops
    once the sup-node change (in original coordinates) drops below
    ``opts.picard_tol``.  Per-iteration minima of the node-wise increments
    and maxima of the iterate values are recorded on the solution, together
    with the a-priori bound ``2 |lam| exp(rho(t))`` (inf once exp(rho)
    overflows).  A change of scale
    whose exponentials overflow before t, or an iterate that stops being
    finite, raises :class:`NumericalError`.
    """
    opts = opts or _DEFAULT_OPTS
    lam1, lam2 = _check_lambda(lam)
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
    npass = opts.cell_fixed_point_iters
    h = tab.widths[:M]
    half_h = 0.5 * h
    a12L, a12R, a21L, a21R = tab.a12L[:M], tab.a12R[:M], tab.a21L[:M], tab.a21R[:M]
    p1L, p1R = tab.p1L[:, :, :M], tab.p1R[:, :, :M]
    p2L, p2R = tab.p2L[:, :, :M], tab.p2R[:, :, :M]
    # atoms at nodes 1..M step the value of the cell to their left
    lo, hi = np.searchsorted(tab.atom_nodes, (1, M + 1))
    an = tab.atom_nodes[lo:hi]
    ab12, ab21 = tab.ab12[lo:hi], tab.ab21[lo:hi]
    ap1, ap2 = tab.ap1[:, :, lo:hi], tab.ap2[:, :, lo:hi]
    ainc = np.empty((2, an.size))
    ai = np.zeros((2, M))
    dR = np.empty((2, M))
    dL = np.empty((2, M))
    V = np.repeat(lamp[:, None], M + 1, axis=1)
    mapped = F * lamp[:, None]
    min_incs = []
    max_vals = []
    sup = math.inf
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, opts.picard_max_iter + 1):
            ai[:, an - 1] = _drift(ainc, ab12, ab21, ap1, ap2, V[:, an])
            w = V[:, 1:] + ai
            _drift(dR, a12R, a21R, p1R, p2R, w)
            c = w + h * dR
            for _ in range(npass - 1):
                _drift(dL, a12L, a21L, p1L, p2L, c)
                c = w + half_h * (dR + dL)
            # np.cumsum accumulates sequentially, from node M - 1 down to 0
            acc = np.cumsum((ai + (c - w))[:, ::-1], axis=1)[:, ::-1]
            new = np.empty((2, M + 1))
            new[:, M] = lamp
            new[:, :M] = lamp[:, None] + acc
            nm = F * new
            diff = nm - mapped
            sup = float(np.max(np.abs(diff)))
            min_incs.append(float(np.min(diff)))
            max_vals.append(float(np.max(nm)))
            V = new
            mapped = nm
            if not math.isfinite(sup):
                raise NumericalError("Picard iteration produced non-finite values")
            if sup < opts.picard_tol:
                break
        else:
            raise ConvergenceError(
                f"Picard iteration did not reach tol {opts.picard_tol:g} in "
                f"{opts.picard_max_iter} iterations (residual {sup:.3e})",
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
    scale, which is exact whenever zeta is piecewise constant.
    """
    grid = sf.grid
    if not (zeta1.grid.same_as(grid) and zeta2.grid.same_as(grid)):
        raise ValueError("zeta must live on the grid of the coefficients")
    Zv1, dZv1 = zeta1.node_cumulatives, zeta1.node_atom_masses
    Zv2, dZv2 = zeta2.node_cumulatives, zeta2.node_atom_masses
    zl = (Zv1[:-1], Zv2[:-1])
    zminus = (Zv1 - dZv1, Zv2 - dZv2)

    def diag(i: int) -> StieltjesMeasure:
        zc = (zeta1, zeta2)[i - 1]
        gam = sf.gamma_diag(i)
        dens = gam.density - zc.density
        atom_masses: dict[int, float] = {}
        for t_at, mass in gam.atoms:
            atom_masses[grid.index_of(t_at)] = mass
        out_atoms = []
        dz_nodes = (dZv1, dZv2)[i - 1]
        idxs = set(np.nonzero(dz_nodes)[0]) | set(atom_masses)
        for m in sorted(idxs):
            dz = float(dz_nodes[m])
            g_at = atom_masses.get(int(m), 0.0)
            mass = math.exp(-dz) * (1.0 + g_at) - 1.0
            if mass != 0.0:
                out_atoms.append((float(grid.nodes[m]), mass))
        return StieltjesMeasure(grid, dens, tuple(out_atoms))

    def cross(i: int, j: int) -> StieltjesMeasure:
        gam = sf.gamma_cross(i, j)
        dens = gam.density * np.exp(zl[i - 1] - zl[j - 1])
        out_atoms = []
        for t_at, mass in gam.atoms:
            m = grid.index_of(t_at)
            out_atoms.append(
                (t_at, mass * math.exp(zminus[i - 1][m] - (Zv1, Zv2)[j - 1][m]))
            )
        return StieltjesMeasure(grid, dens, tuple(out_atoms), nondecreasing=True)

    def jumps(i: int) -> JumpMeasure:
        mu = sf.mu_jump(i)
        kernels = []
        for k, kern in enumerate(mu.cell_kernels):
            if not kern.points:
                kernels.append(kern)
                continue
            e1 = math.exp(-zl[0][k])
            e2 = math.exp(-zl[1][k])
            wf = math.exp(zl[i - 1][k])
            kernels.append(DiscreteSpatialMeasure(
                _scaled_points(kern.points, e1, e2, wf)))
        out_atoms = []
        for t_at, spatial in mu.time_atoms:
            m = grid.index_of(t_at)
            e1 = math.exp(-Zv1[m])
            e2 = math.exp(-Zv2[m])
            wf = math.exp(zminus[i - 1][m])
            out_atoms.append(
                (t_at, DiscreteSpatialMeasure(_scaled_points(spatial.points, e1, e2, wf)))
            )
        return JumpMeasure(grid, tuple(kernels), tuple(out_atoms))

    return SpecialForm(grid, diag(1), diag(2), cross(1, 2), cross(2, 1),
                       jumps(1), jumps(2))


def h_transform_solution(solution: CumulantSolution, zeta1: StieltjesMeasure,
                         zeta2: StieltjesMeasure, lam) -> CumulantSolution:
    """Rescale a solved system node-wise by e^{zeta_i(r)}.

    ``solution`` must have been solved for the terminal argument
    (e^{-zeta_1(t)} lam_1, e^{-zeta_2(t)} lam_2); anything else is a
    contract violation and raises.
    """
    lam1, lam2 = _check_lambda(lam)
    grid = solution.grid
    if not (zeta1.grid.same_as(grid) and zeta2.grid.same_as(grid)):
        raise ValueError("zeta must live on the solution grid")
    M = solution.terminal_index
    Zv1 = zeta1.node_cumulatives
    Zv2 = zeta2.node_cumulatives
    want = (lam1 * math.exp(-Zv1[M]), lam2 * math.exp(-Zv2[M]))
    for got, expect in zip(solution.lam, want):
        if abs(got - expect) > 1e-9 * (1.0 + abs(expect)):
            raise ValueError(
                "terminal-argument mismatch: solution was not solved for the "
                "transformed terminal value"
            )
    scale1 = np.exp(Zv1[: M + 1])
    scale2 = np.exp(Zv2[: M + 1])
    v = np.column_stack((solution.v[:, 0] * scale1, solution.v[:, 1] * scale2))
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
    if np.any(arr < 0.0) or np.any(np.diff(arr) < 0.0):
        raise ValueError("expected a nonnegative nondecreasing node function")
    return arr


def _backward_stieltjes(meas: StieltjesMeasure, integrand: np.ndarray, it: int
                        ) -> np.ndarray:
    """F[k] = integral of ``integrand`` over (s_k, t]; trapezoid cells, exact atoms."""
    dens = meas.density[:it]
    widths = meas.grid.widths[:it]
    atom = meas.node_atom_masses
    cellc = dens * widths * 0.5 * (integrand[:it] + integrand[1 : it + 1])
    cellc = cellc + atom[1 : it + 1] * integrand[1 : it + 1]
    out = np.zeros(it + 1)
    out[:it] = np.cumsum(cellc[::-1])[::-1]
    return out


def _forward_stieltjes(meas: StieltjesMeasure, integrand: np.ndarray, it: int) -> float:
    dens = meas.density[:it]
    widths = meas.grid.widths[:it]
    atom = meas.node_atom_masses
    total = float(np.sum(dens * widths * 0.5 * (integrand[:it] + integrand[1 : it + 1])))
    total += float(np.sum(atom[1 : it + 1] * integrand[1 : it + 1]))
    return total


def gronwall_bound(beta, a, t: float):
    """Two-type Gronwall bound for g_i <= a_i + int g_i dbeta_ii + int g_j dbeta_ij.

    ``beta`` is the 2x2 nest ((beta11, beta12), (beta21, beta22)) of
    nondecreasing measures; ``a`` is a pair of nondecreasing node functions
    (or scalars).  Returns the pair of bound values at time t, computed by
    nested Stieltjes quadrature (trapezoid cells, exact atoms).
    """
    (b11, b12), (b21, b22) = beta
    grid = b11.grid
    for meas in (b11, b12, b21, b22):
        if not meas.grid.same_as(grid):
            raise ValueError("beta measures must share one grid")
        if np.any(meas.density < 0.0) or any(m < 0.0 for _, m in meas.atoms):
            raise ValueError("beta measures must be nondecreasing")
    it = grid.index_of(t)
    a1 = _as_node_function(grid, a[0])
    a2 = _as_node_function(grid, a[1])
    out = []
    for i in (1, 2):
        if i == 1:
            bii, bij, bji, bjj = b11, b12, b21, b22
            aj = a2
            ai_t = float(a1[it])
        else:
            bii, bij, bji, bjj = b22, b21, b12, b11
            aj = a1
            ai_t = float(a2[it])
        g = np.exp(bjj.node_cumulatives[: it + 1])
        inner = _backward_stieltjes(bij, g, it)
        double = _forward_stieltjes(bji, inner, it)
        d_i = ai_t + _forward_stieltjes(bij, aj[: it + 1] * g, it)
        out.append(d_i * math.exp(double + bii.cumulative(float(grid.nodes[it]))))
    return tuple(out)


def apriori_growth_exponent(sf: SpecialForm, t: float) -> float:
    """Growth exponent rho(t) of the finite-activity a-priori estimate.

    Sums the total variations of the combined diagonal measures (diagonal
    drift plus mean own-coordinate jump inflow, as one signed measure, so
    cancellations reduce the bound), the cross-drift masses and the mean
    cross-coordinate jump inflows.
    """
    grid = sf.grid
    total = 0.0
    for i in (1, 2):
        own_fn = (lambda z1, z2: z1) if i == 1 else (lambda z1, z2: z2)
        combined = StieltjesMeasure.linear_combination(
            grid,
            [(1.0, sf.gamma_diag(i)), (1.0, sf.mu_jump(i).moment_measure(own_fn))],
        )
        total += combined.total_variation(t)
    total += sf.gamma12.cumulative(t) + sf.gamma21.cumulative(t)
    total += sf.mu2.moment_measure(lambda z1, z2: z1).cumulative(t)
    total += sf.mu1.moment_measure(lambda z1, z2: z2).cumulative(t)
    return total


def cumulant_upper_bound(env: Environment, i: int, r: float, t: float, lam) -> float:
    """A-priori upper bound for component i of the backward solution.

    Uniform in r (the argument is kept for signature symmetry): Euclidean
    norm of lam times (1 + effective cross drift at t), inflated by the
    exponential of the Gronwall double integral bound.
    """
    del r
    lam1, lam2 = _check_lambda(lam)
    j = _other(i)
    norm = math.hypot(lam1, lam2)
    bb_ij = effective_cross_drift(env, i, j).cumulative(t)
    bb12 = effective_cross_drift(env, 1, 2).cumulative(t)
    bb21 = effective_cross_drift(env, 2, 1).cumulative(t)
    tv_jj = env.b_diag(j).total_variation(t)
    expo = math.exp(tv_jj) * bb12 * bb21
    expo += env.b11.total_variation(t) + env.b22.total_variation(t)
    return norm * (1.0 + bb_ij) * math.exp(expo)


def check_flow(env: Environment, r: float, s: float, t: float, lam,
               opts: SolverOptions | None = None, terminal_refine: int = 2) -> float:
    """Composition residual of the backward flow across r <= s <= t.

    Solves the (s, t] leg on a ``terminal_refine``-times finer grid, feeds
    its value at s as terminal data to an (r, s] solve on the base grid and
    compares with the direct (r, t] solve at node r.  On a shared grid the
    one-step recursion composes exactly, so the refined terminal leg is what
    makes the residual measure actual discretization error; it vanishes
    under grid refinement.  With s = t the terminal leg is the identity and
    the residual is exactly zero.
    """
    ir = env.grid.index_of(r)
    isx = env.grid.index_of(s)
    it = env.grid.index_of(t)
    if not (ir <= isx <= it):
        raise ValueError("need r <= s <= t")
    fine = env.refined(terminal_refine)
    sol_top = solve_general(fine, t, lam, opts)
    mu = sol_top.v[fine.grid.index_of(s)]
    sol_mid = solve_general(env, s, (float(mu[0]), float(mu[1])), opts)
    sol_full = solve_general(env, t, lam, opts)
    diff = np.abs(sol_mid.v[ir] - sol_full.v[ir])
    return float(np.max(diff))
