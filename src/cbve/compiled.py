"""Compiled coefficient tables consumed by the solver and simulator loops.

:func:`cell_table` flattens measures into Python rows once, so the scalar
loops index tuples instead of arrays: one row ``(h, densities...,
kernel points...)`` per grid cell and one entry ``(atom masses...,
atom points...)`` per node that carries any time atom.  The Picard and
simulator tables are derived from it.  The frozen model classes of
:mod:`cbve.environment` cache each table on first use; this module reads
models by attribute only and does not import them.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["cell_table", "picard_table", "sim_table"]


def cell_table(scalars, jumps):
    """Per-cell rows and per-node atoms of ``scalars`` then ``jumps``.

    Row k is ``(h, density_k of each scalar measure..., cell-k points of
    each jump kernel...)``.  The atom map sends every node where some
    measure has a time atom to ``(atom mass of each scalar measure...,
    atom points of each jump kernel...)``, with 0.0 and () where one has
    none.
    """
    grid = scalars[0].grid
    rows = list(zip(
        grid.widths.tolist(),
        *(meas.density.tolist() for meas in scalars),
        *((kern.points for kern in jump.cell_kernels) for jump in jumps),
    ))
    masses = [meas.node_atom_masses for meas in scalars]
    points = [jump.node_points for jump in jumps]
    nodes = set().union(*points)
    for mass in masses:
        nodes.update(np.flatnonzero(mass).tolist())
    atoms = {
        m: (*(float(mass[m]) for mass in masses), *(pts.get(m, ()) for pts in points))
        for m in nodes
    }
    return rows, atoms


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


def _expm2(m11: float, m12: float, m21: float, m22: float):
    """Entries of exp(M) for a 2x2 matrix M (closed form)."""
    tau = 0.5 * (m11 + m22)
    d = m11 - tau
    q2 = d * d + m12 * m21
    if q2 >= 0.0:
        q = math.sqrt(q2)
        if q > 1e-8:
            ch = math.cosh(q)
            sh = math.sinh(q) / q
        else:
            ch = 1.0 + 0.5 * q2
            sh = 1.0 + q2 / 6.0
    else:
        q = math.sqrt(-q2)
        ch = math.cos(q)
        sh = math.sin(q) / q if q > 1e-8 else 1.0 + q2 / 6.0
    e = math.exp(tau)
    return e * (ch + sh * d), e * sh * m12, e * sh * m21, e * (ch - sh * d)


def _cumweights(points):
    acc = 0.0
    out = []
    for _, _, w in points:
        acc += w
        out.append(acc)
    return tuple(out), acc


def sim_table(sf):
    """Cells, atoms and nodes of the exact thinning simulator.

    Cell k carries its width, the state flow matrix ``G`` and its
    exponential over the whole cell, both kernels with cumulative and
    total weights, and the rates that size the thinning majorant.  Atoms
    carry the deterministic jump matrix and both atom kernels.
    """
    rows, atoms = cell_table((sf.gamma11, sf.gamma22, sf.gamma12, sf.gamma21),
                             (sf.mu1, sf.mu2))
    cells = []
    for h, g11, g22, g12, g21, pts1, pts2 in rows:
        # state flow matrix: type j feeds type i through the (j -> i) drift
        G = (g11, g21, g12, g22)
        full = _expm2(g11 * h, g21 * h, g12 * h, g22 * h)
        cw1, w1 = _cumweights(pts1)
        cw2, w2 = _cumweights(pts2)
        tv = abs(g11) + abs(g21) + abs(g12) + abs(g22)
        zrate = sum((z1 + z2) * w for z1, z2, w in pts1)
        zrate += sum((z1 + z2) * w for z1, z2, w in pts2)
        cells.append((h, G, full, pts1, cw1, w1, pts2, cw2, w2, tv, zrate))
    jumps = {
        m: ((1.0 + a11, a21, a12, 1.0 + a22),
            pts1, *_cumweights(pts1), pts2, *_cumweights(pts2))
        for m, (a11, a22, a12, a21, pts1, pts2) in atoms.items()
    }
    return cells, jumps, sf.grid.nodes
