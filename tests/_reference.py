"""Scalar reference implementations kept as test oracles.

:func:`solve_special_picard` is the cell-by-cell loop that
:func:`cbve.solve_special_picard` replaced with whole-array steps, kept
unchanged: the tuple table builder and the iteration read the same
coefficients in the same per-term order, so the two solvers agree to
rounding (numpy's ``expm1``/``exp`` and :mod:`math`'s may differ in the
last bit).

:func:`moment_measure` is the per-point projection that
:meth:`cbve.JumpMeasure.moment_measure` replaced with one call on padded
arrays, and :func:`admissibility_integrand` the scalar integrand it was
called with; the two add the same terms in the same order, so they agree
bit for bit.

:func:`cumulative`, :func:`total_variation`, :func:`integrate`,
:func:`abs_measure`, :func:`on_refinement`, :func:`linear_combination`,
:func:`node_atom_masses` and :func:`node_cumulatives` are the per-atom
methods of :class:`cbve.StieltjesMeasure` from before it was its node
arrays: they read its atoms as (time, mass, node) entries and build
measures from (time, mass) pairs.  The arrays add the same atoms in the
same order, so the two agree bit for bit.

:func:`solve_moment` is the scalar moment sweep with the general sweep's
two-pass cell step (right-endpoint predictor, one trapezoid corrector)
that :func:`cbve.solve_moment` replaced with one product of exact 2x2
propagators: it runs once per axis, (|lam_1|, 0) and (0, |lam_2|), over
the tuple table of the general sweep and puts the signs back afterwards.
Its cell step is the exact one to second order, so on a grid fine enough
for the two-pass step to be stable it converges to the exact mean at
second order.

:func:`expm2` is the closed-form 2x2 exponential of
:mod:`cbve.compiled` as it was before it took Metzler matrices only: it
kept a trigonometric branch for a negative discriminant and a separate
branch for a zero one.  On Metzler input the two agree bit for bit.

:func:`mechanism_increment`, :func:`special_mechanism_increment` and
:func:`mechanism_atom_increment` hold the per-cell, per-point jump loops
(``_jump_part`` and the two kernel sums) that the array evaluation over
``JumpMeasure.cell_points``/``atom_points`` replaced; ``math.expm1`` and
``np.expm1`` may differ in the last bit, so they agree to rounding.  The
atom increment reads ``time_atoms`` where it used ``atom_at``.

:func:`thinned` (with :func:`scaled`) is the per-point thinning that
:meth:`cbve.JumpMeasure.thinned` replaced: with a scalar factor equal bit
for bit to the elementwise one, the two give the same points.

:func:`padded` is the per-object padding that built a kernel's
``cell_points``/``atom_points`` from one spatial measure per cell, before
a :class:`cbve.JumpMeasure` stored those arrays;
:func:`kernel_sets`, :func:`thinned_sets` and :func:`refined_sets` are the
per-cell, per-object forms of ``from_segments``, ``thinned`` and
``on_refinement``.  Padded, their sets must equal the kernel's arrays bit
for bit.

:func:`h_transform_coefficients` is the per-cell, per-atom change of
scale (with :func:`_scaled_points`, the tuple form of
``compiled._rescaled``) that the array version replaced; the two differ
only where ``math.exp`` and ``np.exp`` round differently.  Both form a
diagonal atom ``e^(-dZ) (1 + g) - 1`` as ``expm1(-dZ) (1 + g) + g``: the
subtraction lost up to half the digits of a small atom, so that one ulp
between the two exponentials showed as a relative gap of 1e-9.

:func:`simulate` is the one-path thinning loop that the lock-step engine
of :mod:`cbve.simulator` replaced, with the engine's draw mapping: it
reads the tuple rows of :func:`sim_table` (cumulative kernel weights per
cell, as the old simulator table held them), joins consecutive cells with
equal drift and kernels and no atom between them into one stretch, as the
engine does, flows by :func:`expm2`, draws each uniform through
``rng.random()`` and uses numpy's ufuncs on scalars, as the engine does on
arrays.  Driven by ``SeedSpec(m).generator(k)``, it reproduces path k of
the engine: the same events, and final states equal to rounding.

:func:`split_table` turns the sweep rows of
:func:`cbve.compiled.cell_table`, each of which carries its node's atom,
back into the rows and the node-to-atom map that the Picard, moment and
simulator oracles were written against, so their arithmetic is unchanged.

:func:`check_flow` is the flow residual that builds, validates and
compiles the whole ``terminal_refine``-times refined model and solves all
three legs down to node 0.  :func:`cbve.check_flow` sweeps only the nodes
the residual reads, with the fine leg on the model's own rows, so the two
agree bit for bit wherever neither raises.

:func:`sweep` and :func:`split_rows` are the general sweep and the row
split of :mod:`cbve.solver` as they were before the sweep clamped only
below zero and wrote its nodes to a flat double buffer, and before the
split shared each parent row's tail: they call the clamp on every value,
test finiteness with ``math.isfinite``, store each node into a numpy
array and slice the parent row once per split row.  The arithmetic is the
same, so the two return the same bytes, clamp counts and worst deficits,
or raise the same error with the same message.

:func:`array_picard` (with :func:`array_drift`) is the whole-array Picard
solve of :mod:`cbve.solver` as it was before its iteration reused its
buffers: it allocates every array afresh each iteration, recomputes
``an - 1``, runs the atom drift with no atoms, and takes the sup-change
as ``np.max(np.abs(diff))``.  :func:`apriori_growth_exponent` is the
growth exponent as it was before it summed the diagonal measures' arrays
directly, through ``StieltjesMeasure.linear_combination``; both Picard
oracles read their a-priori bound from it.  The arithmetic is the same
operation by operation, so the two solves return the same bytes, counts
and records, or raise the same error, and the exponents are equal.
"""
from __future__ import annotations

import math

import numpy as np

from cbve.compiled import cell_table
from cbve.environment import SpecialForm, effective_cross_drift, _other
from cbve.errors import ConvergenceError, DiscretizationError, NumericalError
from cbve.simulator import _MAX_CANDIDATES, _MAX_STATE, _POISSON_PIECE, PathEvent
from cbve.measures import DiscreteSpatialMeasure, JumpMeasure, StieltjesMeasure
from cbve.mechanism import as_vector_function
from cbve.moments import MomentSolution
from cbve.solver import (
    _LOG_MAX,
    CumulantSolution,
    _pair,
    solve_general,
)

# the solvers' fixed numerics: passes per cell, Picard tolerance and cap,
# and the sweep's clamp tolerance
_NPASS = 2
_PICARD_TOL = 1e-12
_PICARD_MAX_ITER = 200
_NEGATIVITY_TOL = 1e-9


def split_table(rows):
    """The rows of :func:`cbve.compiled.cell_table` in the form the oracles
    were written for: rows without their atom, and a map from each node
    that carries an atom to that atom."""
    return ([row[1:] for row in rows],
            {k + 1: row[0] for k, row in enumerate(rows) if row[0] is not None})


def _scaled_points(points, e1, e2, wfac):
    return tuple((z1 * e1, z2 * e2, w * wfac) for z1, z2, w in points)


def picard_table(sf):
    """Cells, atoms and scale exponents of the diagonal-free Picard map.

    Returns ``(cells, atoms, Z1, Z2, exp(-Z1), exp(-Z2))``.  ``Z_i`` holds,
    per node, the exponent of the change of scale that removes the
    diagonal drift: its density integral plus log(1 + atom) jumps.  Cell
    k carries its width, the rescaled cross densities and the rescaled
    kernel points at both cell edges; atoms carry the rescaled cross
    masses and jump points.
    """
    rows, atoms = split_table(cell_table((sf.gamma12, sf.gamma21), (sf.mu1, sf.mu2)))
    grid = sf.grid
    Z = []
    dZ = []
    for g in (sf.gamma11, sf.gamma22):
        atom = g.node_atom_masses
        dz = np.zeros(grid.nodes.size)
        nz = atom != 0.0
        dz[nz] = np.log1p(atom[nz])
        zc = np.concatenate(([0.0], np.cumsum(g.density * grid.widths)))
        Z.append(zc + np.cumsum(dz))
        dZ.append(dz)
    Z1, Z2 = Z
    dZ1, dZ2 = dZ
    # edge values per cell: left node (cadlag value on the open cell) and the
    # left limit at the right node
    ZL1, ZL2 = Z1[:-1], Z2[:-1]
    ZR1, ZR2 = Z1[1:] - dZ1[1:], Z2[1:] - dZ2[1:]
    g12d = sf.gamma12.density
    g21d = sf.gamma21.density
    a12L = g12d * np.exp(ZL1 - ZL2)
    a12R = g12d * np.exp(ZR1 - ZR2)
    a21L = g21d * np.exp(ZL2 - ZL1)
    a21R = g21d * np.exp(ZR2 - ZR1)
    cells = []
    for k, (h, _, _, p1, p2) in enumerate(rows):
        p1L = p1R = p2L = p2R = ()
        if p1:
            p1L = _scaled_points(p1, math.exp(-ZL1[k]), math.exp(-ZL2[k]),
                                 math.exp(ZL1[k]))
            p1R = _scaled_points(p1, math.exp(-ZR1[k]), math.exp(-ZR2[k]),
                                 math.exp(ZR1[k]))
        if p2:
            p2L = _scaled_points(p2, math.exp(-ZL1[k]), math.exp(-ZL2[k]),
                                 math.exp(ZL2[k]))
            p2R = _scaled_points(p2, math.exp(-ZR1[k]), math.exp(-ZR2[k]),
                                 math.exp(ZR2[k]))
        cells.append((h, float(a12L[k]), float(a12R[k]),
                      float(a21L[k]), float(a21R[k]), p1L, p1R, p2L, p2R))
    scaled = {}
    for m, (g12a, g21a, ap1, ap2) in atoms.items():
        z1m, z2m = Z1[m] - dZ1[m], Z2[m] - dZ2[m]
        e1, e2 = math.exp(-Z1[m]), math.exp(-Z2[m])
        scaled[m] = (
            g12a * math.exp(z1m - Z2[m]),
            g21a * math.exp(z2m - Z1[m]),
            _scaled_points(ap1, e1, e2, math.exp(z1m)),
            _scaled_points(ap2, e1, e2, math.exp(z2m)),
        )
    return cells, scaled, Z1, Z2, np.exp(-Z1), np.exp(-Z2)


def solve_special_picard(sf, t: float, lam) -> CumulantSolution:
    """Solve the finite-activity system by monotone Picard iteration.

    The diagonal drift is removed by an exponential change of scale before
    iterating, so iterate k+1 dominates iterate k node-wise; iteration stops
    once the sup-node change (in original coordinates) drops below
    ``_PICARD_TOL``.  Per-iteration minima of the node-wise increments
    and maxima of the iterate values are recorded on the solution, together
    with the a-priori bound ``2 |lam| exp(rho(t))``.
    """
    lam1, lam2 = _pair(lam)
    M = sf.grid.index_of(t)
    cells, atoms, Z1, Z2, F1full, F2full = picard_table(sf)
    # the diagonal-free system is solved for the inflated terminal argument
    # e^{zeta(t)} lam and deflated node-wise by e^{-zeta(r)} afterwards
    F1 = F1full[: M + 1]
    F2 = F2full[: M + 1]
    lam1p = lam1 * math.exp(Z1[M])
    lam2p = lam2 * math.exp(Z2[M])
    expm1 = math.expm1
    V1 = [lam1p] * (M + 1)
    V2 = [lam2p] * (M + 1)
    mapped1 = F1 * lam1p
    mapped2 = F2 * lam2p
    min_incs = []
    max_vals = []
    sup = math.inf
    iterations = 0
    for iterations in range(1, _PICARD_MAX_ITER + 1):
        new1 = [0.0] * (M + 1)
        new2 = [0.0] * (M + 1)
        new1[M] = lam1p
        new2[M] = lam2p
        acc1 = 0.0
        acc2 = 0.0
        for k in range(M - 1, -1, -1):
            m = k + 1
            v1m = V1[m]
            v2m = V2[m]
            ai1 = 0.0
            ai2 = 0.0
            a = atoms.get(m)
            if a is not None:
                ab12, ab21, ap1, ap2 = a
                ai1 = ab12 * v2m
                for q1, q2, qw in ap1:
                    ai1 -= expm1(-(v1m * q1 + v2m * q2)) * qw
                ai2 = ab21 * v1m
                for q1, q2, qw in ap2:
                    ai2 -= expm1(-(v1m * q1 + v2m * q2)) * qw
            w1 = v1m + ai1
            w2 = v2m + ai2
            h, a12L, a12R, a21L, a21R, p1L, p1R, p2L, p2R = cells[k]
            dR1 = a12R * w2
            for q1, q2, qw in p1R:
                dR1 -= expm1(-(w1 * q1 + w2 * q2)) * qw
            dR2 = a21R * w1
            for q1, q2, qw in p2R:
                dR2 -= expm1(-(w1 * q1 + w2 * q2)) * qw
            c1 = w1 + h * dR1
            c2 = w2 + h * dR2
            for _ in range(_NPASS - 1):
                dL1 = a12L * c2
                for q1, q2, qw in p1L:
                    dL1 -= expm1(-(c1 * q1 + c2 * q2)) * qw
                dL2 = a21L * c1
                for q1, q2, qw in p2L:
                    dL2 -= expm1(-(c1 * q1 + c2 * q2)) * qw
                c1 = w1 + 0.5 * h * (dR1 + dL1)
                c2 = w2 + 0.5 * h * (dR2 + dL2)
            acc1 += ai1 + (c1 - w1)
            acc2 += ai2 + (c2 - w2)
            new1[k] = lam1p + acc1
            new2[k] = lam2p + acc2
        nm1 = F1 * np.asarray(new1)
        nm2 = F2 * np.asarray(new2)
        diff1 = nm1 - mapped1
        diff2 = nm2 - mapped2
        sup = max(float(np.max(np.abs(diff1))), float(np.max(np.abs(diff2))))
        min_incs.append(min(float(np.min(diff1)), float(np.min(diff2))))
        max_vals.append(max(float(np.max(nm1)), float(np.max(nm2))))
        V1, V2 = new1, new2
        mapped1, mapped2 = nm1, nm2
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
    v = np.column_stack((mapped1, mapped2))
    v[M, 0], v[M, 1] = lam1, lam2
    rho = apriori_growth_exponent(sf, float(sf.grid.nodes[M]))
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
        picard_bound=2.0 * math.hypot(lam1, lam2) * math.exp(rho),
    )


def admissibility_integrand(i):
    """Scalar form of ``cbve.environment._admissibility_integrand``."""
    def fn(z1, z2):
        zi, zj = (z1, z2) if i == 1 else (z2, z1)
        own = zi * zi if z1 * z1 + z2 * z2 <= 1.0 else zi
        return own + zj

    return fn


def moment_measure(jump, fn):
    """Cell densities and atoms of ``jump`` weighted by ``fn(z1, z2)``,
    one point at a time."""
    def weighted_total(spatial):
        # left to right, as sum() did before Python 3.12 made it compensated
        acc = 0
        for z1, z2, w in spatial.points:
            acc += fn(z1, z2) * w
        return acc

    dens = np.array([weighted_total(k) for k in jump.cell_kernels])
    atoms = []
    for t, spatial in jump.time_atoms:
        m = weighted_total(spatial)
        if m != 0.0:
            atoms.append((t, m))
    return StieltjesMeasure(jump.grid, dens, tuple(atoms))


def _atom_entries(meas):
    """(time, mass, node) of each atom, in node order: the third copy of the
    atoms a measure kept before it was its node arrays."""
    return tuple((t, m, meas.grid.index_of(t)) for t, m in meas.atoms)


def _cumdens(meas) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(meas.density * meas.grid.widths)))


def node_atom_masses(meas) -> np.ndarray:
    out = np.zeros(meas.grid.nodes.size)
    for _, mass, idx in _atom_entries(meas):
        out[idx] = mass
    return out


def node_cumulatives(meas) -> np.ndarray:
    return _cumdens(meas) + np.cumsum(node_atom_masses(meas))


def _atom_sum(masses):
    # left to right, as sum() did before Python 3.12 made it compensated
    acc = 0
    for m in masses:
        acc += m
    return acc


def cumulative(meas, t: float) -> float:
    """Total mass of (0, t], the atoms added one entry at a time."""
    nodes = meas.grid.nodes
    if t < 0.0 or t > nodes[-1]:
        raise ValueError(f"time {t!r} outside [0, {nodes[-1]}]")
    k = int(np.searchsorted(nodes, t, side="right")) - 1
    if k >= meas.grid.n_cells:
        base = float(_cumdens(meas)[-1])
    else:
        base = float(_cumdens(meas)[k]) + float(meas.density[k]) * max(t - nodes[k], 0.0)
    return base + _atom_sum(m for tt, m, _ in _atom_entries(meas) if tt <= t)


def total_variation(meas, t: float) -> float:
    """Variation mass of (0, t], the atoms added one entry at a time."""
    nodes = meas.grid.nodes
    if t < 0.0 or t > nodes[-1]:
        raise ValueError(f"time {t!r} outside [0, {nodes[-1]}]")
    k = int(np.searchsorted(nodes, t, side="right")) - 1
    absdens = np.abs(meas.density)
    if k >= meas.grid.n_cells:
        base = float(np.sum(absdens * meas.grid.widths))
    else:
        base = float(np.sum(absdens[:k] * meas.grid.widths[:k]))
        base += float(absdens[k]) * (t - nodes[k])
    return base + _atom_sum(abs(m) for tt, m, _ in _atom_entries(meas) if tt <= t)


def integrate(meas, f, r: float, t: float, rule: str = "right") -> float:
    """Stieltjes integral of a node function over (r, t], one atom at a time."""
    ir, it = meas.grid.index_of(r), meas.grid.index_of(t)
    if ir > it:
        raise ValueError("need r <= t")
    f = np.asarray(f, dtype=float)
    if ir == it:
        return 0.0
    h = meas.grid.widths[ir:it]
    d = meas.density[ir:it]
    if rule == "right":
        total = float(np.sum(f[ir + 1 : it + 1] * d * h))
    else:
        total = float(np.sum(0.5 * (f[ir:it] + f[ir + 1 : it + 1]) * d * h))
    for _, mass, idx in _atom_entries(meas):
        if ir < idx <= it:
            total += float(f[idx]) * mass
    return total


def abs_measure(meas):
    """Total-variation measure, rebuilt from (time, mass) pairs."""
    return StieltjesMeasure(meas.grid, np.abs(meas.density),
                            tuple((t, abs(m)) for t, m in meas.atoms))


def on_refinement(meas, fine, factor: int):
    """The measure on a ``factor``-refined grid, its atom times looked up
    again on the fine grid."""
    return StieltjesMeasure(fine, np.repeat(meas.density, factor), meas.atoms)


def linear_combination(grid, terms):
    """Sum of ``coef * measure``, the atoms added per node in a dict."""
    dens = np.zeros(grid.n_cells)
    atom_acc: dict[int, float] = {}
    for coef, meas in terms:
        dens += coef * meas.density
        for _, m, idx in _atom_entries(meas):
            atom_acc[idx] = atom_acc.get(idx, 0.0) + coef * m
    atoms = [(float(grid.nodes[i]), m) for i, m in atom_acc.items() if m != 0.0]
    return StieltjesMeasure(grid, dens, tuple(atoms))


def _moment_axis(env, M: int, lam1: float, lam2: float) -> np.ndarray:
    cells, atoms = split_table(env._table)
    pi = np.empty((M + 1, 2))
    pi[M, 0], pi[M, 1] = lam1, lam2
    p1, p2 = lam1, lam2
    for k in range(M - 1, -1, -1):
        a = atoms.get(k + 1)
        if a is not None:
            a11, a22, ab12, ab21, _, _, _, _ = a
            q1 = ab12 * p2 - a11 * p1
            q2 = ab21 * p1 - a22 * p2
            p1 += q1
            p2 += q2
        h, b11d, b22d, bb12d, bb21d, _, _, _, _ = cells[k]
        d1 = bb12d * p2 - b11d * p1
        d2 = bb21d * p1 - b22d * p2
        c1 = p1 + h * d1
        c2 = p2 + h * d2
        for _ in range(_NPASS - 1):
            e1 = bb12d * c2 - b11d * c1
            e2 = bb21d * c1 - b22d * c2
            c1 = p1 + 0.5 * h * (d1 + e1)
            c2 = p2 + 0.5 * h * (d2 + e2)
        p1, p2 = c1, c2
        if not (math.isfinite(p1) and math.isfinite(p2)):
            raise NumericalError("moment sweep produced non-finite values")
        pi[k, 0], pi[k, 1] = p1, p2
    return pi


def solve_moment(env, t: float, lam) -> MomentSolution:
    """Solve the linear mean system for a signed terminal pair."""
    env.require_valid()
    lam1, lam2 = float(lam[0]), float(lam[1])
    if not (math.isfinite(lam1) and math.isfinite(lam2)):
        raise ValueError("lambda must be finite")
    M = env.grid.index_of(t)
    axis1 = _moment_axis(env, M, abs(lam1), 0.0)
    axis2 = _moment_axis(env, M, 0.0, abs(lam2))
    sgn1 = math.copysign(1.0, lam1) if lam1 != 0.0 else 0.0
    sgn2 = math.copysign(1.0, lam2) if lam2 != 0.0 else 0.0
    pi = sgn1 * axis1 + sgn2 * axis2
    pi[M, 0], pi[M, 1] = lam1, lam2
    return MomentSolution(t=float(env.grid.nodes[M]), lam=(lam1, lam2),
                          grid=env.grid, pi=pi)


def _jump_part(jump, f, ir, it, widths, rule, kernel_values):
    """Integrate sum of kernel_values(f(s), point) over (r, t] for one type."""
    total = 0.0
    for k in range(ir, it):
        pts = jump.cell_kernels[k].points
        if not pts:
            continue
        right = kernel_values(f[k + 1], pts)
        if rule == "right":
            total += widths[k] * right
        else:
            total += widths[k] * 0.5 * (kernel_values(f[k], pts) + right)
    for idx, (_, spatial) in zip(jump.atom_nodes.tolist(), jump.time_atoms):
        if ir < idx <= it and spatial.points:
            total += kernel_values(f[idx], spatial.points)
    return total


def _full_kernel_sum(fs, pts) -> float:
    f1, f2 = fs
    acc = 0.0
    for z1, z2, w in pts:
        x = f1 * z1 + f2 * z2
        acc += (math.expm1(-x) + x) * w
    return acc


def _one_minus_exp_sum(fs, pts) -> float:
    f1, f2 = fs
    acc = 0.0
    for z1, z2, w in pts:
        acc -= math.expm1(-(f1 * z1 + f2 * z2)) * w
    return acc


def mechanism_increment(env, i: int, f, r: float, t: float, rule: str = "right") -> float:
    """Mechanism mass of type i over (r, t] for a grid function f."""
    env.require_valid()
    j = _other(i)
    f = as_vector_function(env.grid, f)
    fi, fj = f[:, i - 1], f[:, j - 1]
    total = env.b_diag(i).integrate(fi, r, t, rule)
    total -= effective_cross_drift(env, i, j).integrate(fj, r, t, rule)
    total += env.c_diag(i).integrate(fi * fi, r, t, rule)
    ir, it = env.grid.index_of(r), env.grid.index_of(t)
    total += _jump_part(env.m_jump(i), f, ir, it, env.grid.widths, rule,
                        _full_kernel_sum)
    return total


def mechanism_atom_increment(env, i: int, lam, s: float) -> float:
    """Mechanism mass concentrated at the single time atom s."""
    j = _other(i)
    out = env.b_diag(i).atom_mass_at(s) * lam[i - 1]
    out -= effective_cross_drift(env, i, j).atom_mass_at(s) * lam[j - 1]
    pts = dict(env.m_jump(i).time_atoms).get(env.grid.nodes[env.grid.index_of(s)])
    pts = pts.points if pts else ()
    if pts:
        out += _full_kernel_sum((lam[0], lam[1]), pts)
    return out


def special_mechanism_increment(sf, i: int, f, r: float, t: float,
                                rule: str = "right") -> float:
    """Finite-activity mechanism mass of type i over (r, t]."""
    j = _other(i)
    f = as_vector_function(sf.grid, f)
    fi, fj = f[:, i - 1], f[:, j - 1]
    total = -sf.gamma_diag(i).integrate(fi, r, t, rule)
    total -= sf.gamma_cross(i, j).integrate(fj, r, t, rule)
    ir, it = sf.grid.index_of(r), sf.grid.index_of(t)
    total -= _jump_part(sf.mu_jump(i), f, ir, it, sf.grid.widths, rule,
                        _one_minus_exp_sum)
    return total


def _thinned_points(points, factor_fn):
    pts = []
    for z1, z2, w in points:
        fw = factor_fn(z1, z2) * w
        if fw > 0.0:
            pts.append((z1, z2, fw))
    return tuple(pts)


def scaled(spatial, factor_fn):
    """Thin each weight by ``factor_fn(z1, z2)``, dropping zero weights."""
    return DiscreteSpatialMeasure(_thinned_points(spatial.points, factor_fn))


def padded(point_sets):
    """Points of each set as a ``(3, K, sets)`` array of (z1, z2, weight),
    zeros after each set's own points: the padding that built a kernel's
    ``cell_points`` and ``atom_points`` from its spatial measures before
    the arrays became the kernel."""
    counts = np.fromiter(map(len, point_sets), np.intp, len(point_sets))
    out = np.zeros((3, int(counts.max(initial=0)), counts.size))
    flat = np.array([p for pts in point_sets for p in pts], dtype=float)
    col = np.repeat(np.arange(counts.size), counts)
    slot = np.arange(col.size) - (np.cumsum(counts) - counts)[col]
    out[:, slot, col] = flat.reshape(-1, 3).T
    return out


def kernel_sets(grid, segments=(), atoms=()):
    """Point tuples per cell and (node, point tuple) atoms sorted by node of
    ``JumpMeasure.from_segments``, built as it did before the arrays: one
    spatial measure per segment and per atom, stored cell by cell."""
    kernels = [()] * grid.n_cells
    for t0, t1, points in segments:
        i0, i1 = grid.index_of(t0), grid.index_of(t1)
        spatial = DiscreteSpatialMeasure(tuple(points)).points
        for k in range(i0, i1):
            kernels[k] = spatial
    at = sorted((grid.index_of(t), DiscreteSpatialMeasure(tuple(points)).points)
                for t, points in atoms)
    return kernels, at


def thinned_sets(kernels, atoms, factor_fn):
    """:func:`thinned` on the sets of :func:`kernel_sets`."""
    at = [(m, _thinned_points(pts, factor_fn)) for m, pts in atoms]
    return [_thinned_points(k, factor_fn) for k in kernels], [(m, p) for m, p in at if p]


def refined_sets(kernels, atoms, factor):
    """``JumpMeasure.on_refinement`` on the sets of :func:`kernel_sets`:
    each cell's kernel repeated ``factor`` times, atoms at the same times."""
    return [k for k in kernels for _ in range(factor)], [(m * factor, p) for m, p in atoms]


def thinned(jump, factor_fn):
    kernels = tuple(scaled(k, factor_fn) for k in jump.cell_kernels)
    atoms = []
    for t, spatial in jump.time_atoms:
        sc = scaled(spatial, factor_fn)
        if sc.points:
            atoms.append((t, sc))
    return JumpMeasure(jump.grid, kernels, tuple(atoms))


def h_transform_coefficients(sf, zeta1, zeta2):
    """Coefficient set of the system solved by exp(zeta_i(r)) u_i(r)."""
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
            mass = math.expm1(-dz) * (1.0 + g_at) + g_at
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
        return StieltjesMeasure(grid, dens, tuple(out_atoms))

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


def expm2(m11, m12, m21, m22, dt=1.0):
    """Entries of exp(M dt) for a 2x2 matrix M given entrywise (closed form).

    The entries are floats and ``dt`` a float or an array, so the branch
    is decided once, in Python, and only that branch is evaluated over dt.
    With tau the half trace and q^2 the discriminant of M, exp(M dt) =
    e^(tau dt) (cosh(q dt) I + sinh(q dt)/q (M - tau I)).  For real
    q > 1e-8 the products e^(tau dt) cosh(q dt) and e^(tau dt) sinh(q dt)/q
    are formed from exp((tau + q) dt) and expm1(-2q dt), so a stiff matrix
    whose cosh alone would overflow (q of 800 with tau of -800, say) still
    gives its finite exponential.  Smaller q takes the series, which ends
    after one term when q is 0, and imaginary q the trigonometric form.
    Entries that truly overflow come out inf or NaN; the caller sets the
    warning state.
    """
    tau = 0.5 * (m11 + m22)
    d = m11 - tau
    q2 = d * d + m12 * m21
    q = math.sqrt(abs(q2))
    if q > 1e-8 and q2 >= 0.0:
        ep = np.exp((tau + q) * dt)
        half = 0.5 * ep * np.expm1(-2.0 * q * dt)
        ech = ep + half
        esh = half * (-1.0 / q)
    elif q2 == 0.0:
        ech = np.exp(tau * dt)
        esh = ech * dt
    else:
        e = np.exp(tau * dt)
        qt2 = q2 * dt * dt
        ech = e * (np.cos(q * dt) if q2 < 0.0 else 1.0 + 0.5 * qt2)
        esh = e * (np.sin(q * dt) / q if q > 1e-8 else dt * (1.0 + qt2 / 6.0))
    esd = esh * d
    return ech + esd, esh * m12, esh * m21, ech - esd


def _cumweights(points):
    acc = 0.0
    out = []
    for _, _, w in points:
        acc += w
        out.append(acc)
    return tuple(out), acc


def _draw_point(points, cumw, total, rng):
    u = rng.random() * total
    for idx, cw in enumerate(cumw):
        if u < cw:
            return points[idx]
    return points[-1]


def sim_table(sf):
    """Per-cell rows and per-node atoms of the thinning simulator."""
    rows, atoms = split_table(cell_table((sf.gamma11, sf.gamma22, sf.gamma12, sf.gamma21),
                                         (sf.mu1, sf.mu2)))
    cells = []
    for _, g11, g22, g12, g21, pts1, pts2 in rows:
        G = (g11, g21, g12, g22)
        growth = max(g11 + g12, g21 + g22, 0.0)
        window = math.log(2.0) / growth if growth > 0.0 else math.inf
        cells.append((G, pts1, pts2, *_cumweights(pts1), *_cumweights(pts2),
                      growth, window))
    jumps = {
        m: ((1.0 + a11, a21, a12, 1.0 + a22),
            pts1, *_cumweights(pts1), pts2, *_cumweights(pts2))
        for m, (a11, a22, a12, a21, pts1, pts2) in atoms.items()
    }
    return cells, jumps, sf.grid.nodes


def _poisson(mean, rng):
    pieces = np.ceil(mean / _POISSON_PIECE)
    part = mean / pieces
    count = 0
    for _ in range(int(pieces)):
        u = rng.random()
        p = np.exp(-part)
        cdf = p
        k = 0
        while u > cdf and p > 0.0:
            k += 1
            p *= part / k
            cdf += p
        count += k
    return count


def _check_state(x1, x2):
    if not (x1 + x2 <= _MAX_STATE):
        raise NumericalError("simulated state overflow")


def simulate(sf, x0, t: float, rng):
    """One path up to time t: (final state, event list)."""
    cells, atoms, nodes = sim_table(sf)
    x1, x2 = float(x0[0]), float(x0[1])
    events = []
    candidates = 0
    _check_state(x1, x2)
    M = sf.grid.index_of(t)
    b = 0
    while b < M:
        # cells k..b-1 have equal drift and kernels and no atom between them
        k, b = b, b + 1
        while b < M and b not in atoms and cells[b][:3] == cells[k][:3]:
            b += 1
        (g11, g12, g21, g22), pts1, pts2, cw1, w1, cw2, w2, growth, window = cells[k]
        cell_end = float(nodes[b])
        h = cell_end - float(nodes[k])
        if growth > 0.0:
            e11, e12, e21, e22 = expm2(g11, g12, g21, g22, h)
            _check_state((e11 + e21) * x1, (e12 + e22) * x2)
        totw = w1 + w2
        if totw <= 0.0:
            e11, e12, e21, e22 = expm2(g11, g12, g21, g22, h)
            x1, x2 = e11 * x1 + e12 * x2, e21 * x1 + e22 * x2
        rem = h
        while totw > 0.0 and x1 + x2 > 0.0:
            win = min(rem, window)
            majorant = (x1 + x2) * (totw * np.exp(growth * win))
            gap = np.log1p(-rng.random()) / -majorant
            candidates += 1
            if candidates > _MAX_CANDIDATES:
                raise NumericalError("thinning candidate budget exhausted")
            dt = min(gap, win)
            e11, e12, e21, e22 = expm2(g11, g12, g21, g22, dt)
            x1, x2 = e11 * x1 + e12 * x2, e21 * x1 + e22 * x2
            rem = rem - dt
            if gap < win:
                rate1 = x1 * w1
                rate = rate1 + x2 * w2
                if rng.random() * majorant < rate:
                    # an empty type-2 kernel cannot fire, even where
                    # u * rate rounds up to rate1
                    if rng.random() * rate < rate1 or w2 <= 0.0:
                        z1, z2, _ = _draw_point(pts1, cw1, w1, rng)
                        src = 1
                    else:
                        z1, z2, _ = _draw_point(pts2, cw2, w2, rng)
                        src = 2
                    x1 += z1
                    x2 += z2
                    events.append(PathEvent(cell_end - rem, "branch_jump", src,
                                            (z1, z2), (x1, x2)))
            _check_state(x1, x2)
            if rem <= 0.0:
                break
        _check_state(x1, x2)
        if x1 < 0.0 or x2 < 0.0:
            if min(x1, x2) < -1e-9:
                raise NumericalError("simulated state left the quadrant")
            x1, x2 = max(x1, 0.0), max(x2, 0.0)
        a = atoms.get(b)
        if a is None:
            continue
        A, apts1, acw1, aw1, apts2, acw2, aw2 = a
        ox1, ox2 = x1, x2
        x1 = A[0] * ox1 + A[1] * ox2
        x2 = A[2] * ox1 + A[3] * ox2
        events.append(PathEvent(cell_end, "deterministic_atom", 0,
                                (x1 - ox1, x2 - ox2), (x1, x2)))
        for src, own, apts, acw, aw in ((1, ox1, apts1, acw1, aw1),
                                        (2, ox2, apts2, acw2, aw2)):
            mean = own * aw
            if aw <= 0.0 or mean <= 0.0:
                continue
            if not candidates + mean <= _MAX_CANDIDATES:
                raise NumericalError("atom jump batch exceeds the candidate budget")
            count = _poisson(mean, rng)
            candidates += count
            for _ in range(count):
                z1, z2, _ = _draw_point(apts, acw, aw, rng)
                x1 += z1
                x2 += z2
                events.append(PathEvent(cell_end, "branch_jump", src, (z1, z2), (x1, x2)))
        _check_state(x1, x2)
    return (x1, x2), events


def check_flow(env, r: float, s: float, t: float, lam,
               terminal_refine: int = 2) -> float:
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
    sol_top = solve_general(fine, t, lam)
    mu = sol_top.v[fine.grid.index_of(s)]
    sol_mid = solve_general(env, s, (float(mu[0]), float(mu[1])))
    sol_full = solve_general(env, t, lam)
    diff = np.abs(sol_mid.v[ir] - sol_full.v[ir])
    return float(np.max(diff))


def sweep(rows, lam):
    """Backward sweep over ``rows`` from ``lam`` after the last row.

    ``rows`` is a slice of the rows of :func:`cbve.compiled.cell_table`; a
    row's atom steps the value before its cell.  Returns ``v`` with one
    value per node of the slice, the clamp count and the worst clamped
    deficit.
    """
    expm1 = math.expm1
    n = len(rows)
    v = np.empty((n + 1, 2))
    v1, v2 = lam
    v[n, 0], v[n, 1] = v1, v2
    clamp_events = 0
    worst_deficit = 0.0

    def clamp(x: float) -> float:
        nonlocal clamp_events, worst_deficit
        if x >= 0.0:
            return x
        if x < -_NEGATIVITY_TOL:
            raise DiscretizationError(
                f"negative component {x:.3e} beyond tolerance; refine the grid"
            )
        if x != x:  # NaN fails both tests above, but is no small deficit
            raise NumericalError("backward sweep produced non-finite values")
        clamp_events += 1
        worst_deficit = max(worst_deficit, -x)
        return 0.0

    # a predictor far below zero overflows expm1 in the corrector: the
    # grid is too coarse for this lam, like a deficit beyond tolerance
    try:
        for k in range(n - 1, -1, -1):
            a, h, b11d, b22d, bb12d, bb21d, c1d, c2d, pts1, pts2 = rows[k]
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
            v1 = clamp(v1 - 0.5 * h * (d1 + e1))
            v2 = clamp(v2 - 0.5 * h * (d2 + e2))
            if not (math.isfinite(v1) and math.isfinite(v2)):
                raise NumericalError("backward sweep produced non-finite values")
            v[k, 0], v[k, 1] = v1, v2
    except OverflowError:
        raise DiscretizationError(
            "backward sweep overflowed; refine the grid") from None
    return v, clamp_events, worst_deficit


def split_rows(rows, widths, f: int):
    """``rows`` of a compiled table, each split into ``f`` rows of the given
    widths, its atom on the last: what an ``f``-times refined model compiles
    on that stretch."""
    return [(rows[j // f][0] if j % f == f - 1 else None, w, *rows[j // f][2:])
            for j, w in enumerate(widths)]


def apriori_growth_exponent(sf, t: float) -> float:
    """Growth exponent rho(t) of the finite-activity a-priori estimate.

    Sums the total variations of the combined diagonal measures (diagonal
    drift plus mean own-coordinate jump inflow, as one signed measure, so
    cancellations reduce the bound), the cross-drift masses and the mean
    cross-coordinate jump inflows.
    """
    grid = sf.grid
    total = 0.0
    for i in (1, 2):
        combined = StieltjesMeasure.linear_combination(
            grid,
            [(1.0, sf.gamma_diag(i)), (1.0, sf.mu_jump(i).coordinate_moment(i))],
        )
        total += combined.total_variation(t)
    total += sf.gamma12.cumulative(t) + sf.gamma21.cumulative(t)
    total += sf.mu2.coordinate_moment(1).cumulative(t)
    total += sf.mu1.coordinate_moment(2).cumulative(t)
    return total


def array_drift(out, a, p, x):
    """Both rows of the diagonal-free drift at x, written to ``out``.

    Row i is ``a[i]`` times the other type's value minus the
    compensated-kernel terms of the type-i points ``p[i]`` (coordinates
    negated) at (x1, x2); the terms are subtracted one padded slot at a
    time, in the order of the points, both types in each step.
    """
    np.multiply(a, x[::-1], out=out)
    for term in (np.expm1(x[0] * p[:, 0] + x[1] * p[:, 1]) * p[:, 2]).swapaxes(0, 1):
        out -= term
    return out


def array_picard(sf: SpecialForm, t: float, lam) -> CumulantSolution:
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
        for iterations in range(1, _PICARD_MAX_ITER + 1):
            ai[:, an - 1] = array_drift(ainc, ab, ap, V[:, an])
            w = V[:, 1:] + ai
            array_drift(dR, aR, pR, w)
            array_drift(dL, aL, pL, w + h * dR)
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
