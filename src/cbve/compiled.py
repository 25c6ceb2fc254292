"""Compiled coefficient tables consumed by the solver and simulator loops.

:func:`cell_table` flattens measures into Python rows once, so the scalar
loop of the general sweep indexes tuples instead of arrays: one row
``(h, densities..., kernel points...)`` per grid cell and one entry
``(atom masses..., atom points...)`` per node that carries any time atom.

:func:`picard_table` is the array form consumed by the whole-array Picard
iteration: per-cell vectors, the kernels' padded ``(3, K, cells)`` point
arrays (``JumpMeasure.cell_points``) rescaled per cell by :func:`_rescaled`
(the h-transform's rescaling too), and per-atom-node vectors indexed by an
ascending node array.

:func:`sim_table` is the array form consumed by the lock-step simulator:
per-cell drift matrices, thinning windows and inverse-CDF kernel tables,
the stretches of cells with equal coefficients, and per-atom-node jump
matrices and atom kernel tables.

The frozen model classes of :mod:`cbve.environment` cache each table on
first use; this module reads models by attribute only and does not import
them.
"""
from __future__ import annotations

import math
from typing import NamedTuple

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


def _expm2(m11, m12, m21, m22, dt=1.0):
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


def _sampler(points):
    """Inverse-CDF tables of padded ``(3, K, sets)`` kernel points: per set,
    the total weight, the cumulative weights with the last own point's
    (and the padding's) set to inf, and the points' z1 and z2, each
    ``(sets, K)`` with K at least 1.  ``searchsorted(cuts, u * total,
    "right")`` then picks the first point whose cumulative weight exceeds
    ``u * total``, and the last point when rounding leaves none."""
    if points.shape[1] == 0:
        points = np.zeros((3, 1, points.shape[2]))
    z1, z2, w = (np.ascontiguousarray(a.T) for a in points)
    cuts = np.cumsum(w, axis=1)
    total = cuts[:, -1].copy()
    last = np.count_nonzero(w, axis=1) - 1
    cuts[np.arange(cuts.shape[1]) >= last[:, None]] = np.inf
    return total, cuts, z1, z2


class SimTable(NamedTuple):
    """Array table of the thinning simulator; see :func:`sim_table`."""

    nodes: np.ndarray
    G: np.ndarray
    drift: np.ndarray
    growth: np.ndarray
    window: np.ndarray
    kernels: tuple
    ends: np.ndarray
    atom_slot: np.ndarray
    A: np.ndarray
    atom_kernels: tuple


def sim_table(sf):
    """Cells, stretches and atoms of the exact thinning simulator, as arrays.

    Per cell: the state flow matrix ``G`` (entries m11, m12, m21, m22 in
    rows, type j feeding type i through the j -> i drift); ``drift``,
    whether G is not zero (a zero G leaves the state where it is);
    ``growth``, the larger column sum of G or 0, which bounds the growth
    rate of x1 + x2 (G is Metzler, the cross drifts being nondecreasing, so
    the state stays nonnegative); and the thinning ``window``,
    ln 2 / growth (inf for no growth), over which x1 + x2 at most doubles.
    ``kernels`` holds one :func:`_sampler` table per jump type.  A stretch
    is a run of cells with equal drift and kernels and no atom inside:
    ``ends`` holds the node at which each stretch ends, ascending, the last
    one the final node.  ``atom_slot`` maps a node to its column in ``A``
    (the deterministic jump matrix, entries as in ``G``) and
    ``atom_kernels``, or -1 where the node carries no atom.
    """
    g11, g22, g12, g21 = (g.density for g in (sf.gamma11, sf.gamma22, sf.gamma12, sf.gamma21))
    G = np.stack((g11, g21, g12, g22))
    growth = np.maximum(np.maximum(G[0] + G[2], G[1] + G[3]), 0.0)
    # no growth, or growth so slow that the window overflows: inf
    with np.errstate(divide="ignore", over="ignore"):
        window = math.log(2.0) / growth
    mu = (sf.mu1, sf.mu2)
    masses = [g.node_atom_masses for g in (sf.gamma11, sf.gamma22, sf.gamma12, sf.gamma21)]
    nodes = np.unique(np.concatenate(
        [np.flatnonzero(m) for m in masses]
        + [np.fromiter(k.node_points, np.intp) for k in mu]))
    atom_slot = np.full(sf.grid.nodes.size, -1)
    atom_slot[nodes] = np.arange(nodes.size)
    a11, a22, a12, a21 = (m[nodes] for m in masses)
    atom_points = []
    for k in mu:
        pts = np.zeros((3, k.atom_points.shape[1], nodes.size))
        pts[:, :, atom_slot[list(k.node_points)]] = k.atom_points
        atom_points.append(pts)
    # does the stretch of the cell before each interior node go on past it
    joins = np.all(G[:, 1:] == G[:, :-1], axis=0) & (atom_slot[1:-1] < 0)
    for k in mu:
        joins &= np.all(k.cell_points[:, :, 1:] == k.cell_points[:, :, :-1], axis=(0, 1))
    return SimTable(
        nodes=sf.grid.nodes, G=G, drift=G.any(axis=0), growth=growth, window=window,
        kernels=tuple(_sampler(k.cell_points) for k in mu),
        ends=np.append(np.flatnonzero(~joins) + 1, G.shape[1]),
        atom_slot=atom_slot, A=np.stack((1.0 + a11, a21, a12, 1.0 + a22)),
        atom_kernels=tuple(_sampler(p) for p in atom_points),
    )
