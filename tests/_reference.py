"""Scalar reference implementation of the monotone Picard solve.

This is the cell-by-cell loop that :func:`cbve.solve_special_picard`
replaced with whole-array steps, kept unchanged as the test oracle: the
tuple table builder and the iteration read the same coefficients in the
same per-term order, so the two solvers agree to rounding (numpy's
``expm1``/``exp`` and :mod:`math`'s may differ in the last bit).
"""
from __future__ import annotations

import math

import numpy as np

from cbve.compiled import _scaled_points, cell_table
from cbve.errors import ConvergenceError, NumericalError
from cbve.solver import (
    _DEFAULT_OPTS,
    CumulantSolution,
    _check_lambda,
    apriori_growth_exponent,
)


def picard_table(sf):
    """Cells, atoms and scale exponents of the diagonal-free Picard map.

    Returns ``(cells, atoms, Z1, Z2, exp(-Z1), exp(-Z2))``.  ``Z_i`` holds,
    per node, the exponent of the change of scale that removes the
    diagonal drift: its density integral plus log(1 + atom) jumps.  Cell
    k carries its width, the rescaled cross densities and the rescaled
    kernel points at both cell edges; atoms carry the rescaled cross
    masses and jump points.
    """
    rows, atoms = cell_table((sf.gamma12, sf.gamma21), (sf.mu1, sf.mu2))
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


def solve_special_picard(sf, t: float, lam, opts=None) -> CumulantSolution:
    """Solve the finite-activity system by monotone Picard iteration.

    The diagonal drift is removed by an exponential change of scale before
    iterating, so iterate k+1 dominates iterate k node-wise; iteration stops
    once the sup-node change (in original coordinates) drops below
    ``opts.picard_tol``.  Per-iteration minima of the node-wise increments
    and maxima of the iterate values are recorded on the solution, together
    with the a-priori bound ``2 |lam| exp(rho(t))``.
    """
    opts = opts or _DEFAULT_OPTS
    lam1, lam2 = _check_lambda(lam)
    M = sf.grid.index_of(t)
    cells, atoms, Z1, Z2, F1full, F2full = picard_table(sf)
    # the diagonal-free system is solved for the inflated terminal argument
    # e^{zeta(t)} lam and deflated node-wise by e^{-zeta(r)} afterwards
    F1 = F1full[: M + 1]
    F2 = F2full[: M + 1]
    lam1p = lam1 * math.exp(Z1[M])
    lam2p = lam2 * math.exp(Z2[M])
    expm1 = math.expm1
    npass = opts.cell_fixed_point_iters
    V1 = [lam1p] * (M + 1)
    V2 = [lam2p] * (M + 1)
    mapped1 = F1 * lam1p
    mapped2 = F2 * lam2p
    min_incs = []
    max_vals = []
    sup = math.inf
    iterations = 0
    for iterations in range(1, opts.picard_max_iter + 1):
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
            for _ in range(npass - 1):
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
        if sup < opts.picard_tol:
            break
    else:
        raise ConvergenceError(
            f"Picard iteration did not reach tol {opts.picard_tol:g} in "
            f"{opts.picard_max_iter} iterations (residual {sup:.3e})",
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
