"""Compiled coefficient tables consumed by the solver and simulator loops.

:func:`cell_table` flattens measures into Python rows once, so the scalar
loops of the general sweep and the simulator index tuples instead of
arrays: one row ``(h, densities..., kernel points...)`` per grid cell and
one entry ``(atom masses..., atom points...)`` per node that carries any
time atom.  The simulator table is derived from it.

:func:`picard_table` is the array form consumed by the whole-array Picard
iteration: per-cell vectors, the kernels' padded ``(3, K, cells)`` point
arrays (``JumpMeasure.cell_points``) rescaled per cell by :func:`_rescaled`
(the h-transform's rescaling too), and per-atom-node vectors indexed by an
ascending node array.

The frozen model classes of :mod:`cbve.environment` cache each table on
first use; this module reads models by attribute only and does not import
them.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericalError

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


def _rescaled(points, e1, e2, wfac):
    """Padded points with z1, z2 and weight scaled per set: the change of
    scale of the Picard table and of the h-transform."""
    return points * np.stack((e1, e2, wfac))[:, None, :]


class PicardTable(NamedTuple):
    """Array table of the diagonal-free Picard map; see :func:`picard_table`."""

    widths: np.ndarray
    a12L: np.ndarray
    a12R: np.ndarray
    a21L: np.ndarray
    a21R: np.ndarray
    p1L: np.ndarray
    p1R: np.ndarray
    p2L: np.ndarray
    p2R: np.ndarray
    atom_nodes: np.ndarray
    ab12: np.ndarray
    ab21: np.ndarray
    ap1: np.ndarray
    ap2: np.ndarray
    Z: np.ndarray
    F: np.ndarray


def picard_table(sf):
    """Cells, atoms and scale exponents of the diagonal-free Picard map.

    ``Z[i - 1]`` holds, per node, the exponent of the change of scale that
    removes the type-i diagonal drift: its density integral plus
    log(1 + atom) jumps; ``F = exp(-Z)``.  Per cell the table holds the
    width, the rescaled cross densities at both cell edges (``a12L``,
    ``a12R``, ``a21L``, ``a21R``) and each kernel's rescaled points at both
    edges as ``(3, K, cells)`` arrays (from ``cell_points``).  Per atom node
    (``atom_nodes``, ascending) it holds the rescaled cross masses and the
    rescaled, padded atom points.  Exponentials that overflow are left as
    inf without a warning; the solver checks the exponents it uses.
    """
    grid = sf.grid
    g12, g21, mu1, mu2 = sf.gamma12, sf.gamma21, sf.mu1, sf.mu2
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
    nodes = np.unique(np.concatenate((
        np.flatnonzero(g12.node_atom_masses), np.flatnonzero(g21.node_atom_masses),
        np.fromiter(mu1.node_points, np.intp), np.fromiter(mu2.node_points, np.intp),
    )))
    # edge values per cell: left node (cadlag value on the open cell) and the
    # left limit at the right node; at an atom node, its left limit and value
    ZL1, ZL2 = Z1[:-1], Z2[:-1]
    ZR1, ZR2 = Z1[1:] - dZ1[1:], Z2[1:] - dZ2[1:]
    Za1, Za2 = Z1[nodes], Z2[nodes]
    za1, za2 = Za1 - dZ1[nodes], Za2 - dZ2[nodes]
    P1, P2 = mu1.cell_points, mu2.cell_points
    A1, A2 = (np.zeros((3, mu.atom_points.shape[1], nodes.size)) for mu in (mu1, mu2))
    for A, mu in ((A1, mu1), (A2, mu2)):
        A[:, :, np.searchsorted(nodes, list(mu.node_points))] = mu.atom_points
    exp = np.exp
    with np.errstate(over="ignore", invalid="ignore"):
        eL1, eL2, eR1, eR2 = exp(-ZL1), exp(-ZL2), exp(-ZR1), exp(-ZR2)
        ea1, ea2 = exp(-Za1), exp(-Za2)
        return PicardTable(
            widths=grid.widths,
            a12L=g12.density * exp(ZL1 - ZL2),
            a12R=g12.density * exp(ZR1 - ZR2),
            a21L=g21.density * exp(ZL2 - ZL1),
            a21R=g21.density * exp(ZR2 - ZR1),
            p1L=_rescaled(P1, eL1, eL2, exp(ZL1)),
            p1R=_rescaled(P1, eR1, eR2, exp(ZR1)),
            p2L=_rescaled(P2, eL1, eL2, exp(ZL2)),
            p2R=_rescaled(P2, eR1, eR2, exp(ZR2)),
            atom_nodes=nodes,
            ab12=g12.node_atom_masses[nodes] * exp(za1 - Za2),
            ab21=g21.node_atom_masses[nodes] * exp(za2 - Za1),
            ap1=_rescaled(A1, ea1, ea2, exp(za1)),
            ap2=_rescaled(A2, ea1, ea2, exp(za2)),
            Z=np.stack(Z),
            F=exp(-np.stack(Z)),
        )


def _expm2(m11: float, m12: float, m21: float, m22: float):
    """Entries of exp(M) for a 2x2 matrix M (closed form).

    With tau the half trace and q^2 the discriminant, exp(M) = e^tau
    (cosh(q) I + sinh(q)/q (M - tau I)).  For real q > 0 the products
    e^tau cosh(q) and e^tau sinh(q)/q are formed from exp(tau + q) and
    exp(-2q) (expm1 for the sinh), so a stiff matrix whose cosh(q) alone
    would overflow (q of 800 with tau of -800, say) still gives its
    finite exponential.
    """
    tau = 0.5 * (m11 + m22)
    d = m11 - tau
    q2 = d * d + m12 * m21
    if q2 >= 0.0:
        q = math.sqrt(q2)
        if q > 1e-8:
            ep = math.exp(tau + q)
            ech = 0.5 * ep * (1.0 + math.exp(-2.0 * q))
            esh = -0.5 * ep * math.expm1(-2.0 * q) / q
        else:
            e = math.exp(tau)
            ech = e * (1.0 + 0.5 * q2)
            esh = e * (1.0 + q2 / 6.0)
    else:
        q = math.sqrt(-q2)
        e = math.exp(tau)
        ech = e * math.cos(q)
        esh = e * (math.sin(q) / q if q > 1e-8 else 1.0 + q2 / 6.0)
    return ech + esh * d, esh * m12, esh * m21, ech - esh * d


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
        try:
            full = _expm2(g11 * h, g21 * h, g12 * h, g22 * h)
        except OverflowError as exc:
            raise NumericalError("simulator flow matrix overflows on a cell") from exc
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
