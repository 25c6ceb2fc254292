"""Compiled coefficient tables consumed by the solver and simulator loops.

:func:`sweep_table` flattens an environment's measures into Python tuples
once, so the scalar loop of the general sweep indexes tuples instead of
arrays: one tuple per run of cells with equal coefficients (between time
atoms, where the backward equation is one fixed ODE), and one ``(h, h /
2)`` pair per cell.  A stretch of the grid, a refined one too, is a window
of the runs and its own steps.  Beside the runs it lists the few stiff ones.
:func:`mean_steps` holds the mean system's exact per-cell steps.

:func:`picard_table` is the array form consumed by the whole-array Picard
iteration, both types stacked on a leading axis of 2: per-cell ``(2,
cells)`` cross densities and ``(2, 3, K, cells)`` kernel points (K the
larger slot count, the other kernel zero-padded) rescaled per cell by
:func:`_rescaled` (the h-transform's rescaling too), and per-atom-node
rows indexed by an ascending node array.

:func:`sim_table` is the array form consumed by the lock-step simulator:
per-cell drift matrices, thinning windows and inverse-CDF kernel tables,
the stretches of cells with equal coefficients, and per-atom-node jump
matrices and atom kernel tables.

Runs and stretches of equal cells are found by
:func:`cbve.measures._run_starts`, the one comparison of neighbouring
cells, and each table's time atoms by :func:`_atoms`.  Each builder takes
the model it compiles, an environment or a special form of
:mod:`cbve.environment`, which caches the table on first use, and logs
one debug line per build; this module reads models by attribute only and
does not import them.  Tables are read-only, so a cached table cannot
drift from its model; each holds only lam-free arithmetic, which a warm
solve does not redo.  A build keeps its scratch small: the sweep table
reads kernel points as stored, negating them only in the rows it makes,
and the mean steps are built a block of cells at a time, into their
result.
"""
from __future__ import annotations

import logging
import math
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .measures import _point_runs, _point_sets, _run_starts

__all__ = ["mean_steps", "picard_table", "sim_table", "sweep_table"]

_log = logging.getLogger(__name__)

#: cells per block of the mean steps' build, whose scratch is a few blocks
_BLOCK = 4096


class SweepTable(NamedTuple):
    """Runs, cell steps and stiff runs of the general sweep; see :func:`sweep_table`."""

    runs: tuple
    steps: tuple
    stiff: tuple


def sweep_table(env) -> SweepTable:
    """The general sweep of ``env``: runs of equal cells, cell steps and
    the runs that may be too stiff for their widths.

    A run ``(lo, hi, atom, row)`` covers cells lo..hi-1, whose densities
    are equal bit for bit (so 0.0 and -0.0 differ), and so are their kernel
    point sets (:func:`cbve.measures._run_starts`).  ``row`` holds them
    once: the densities of b11, b22, the effective cross drifts bb12, bb21
    and c1, c2, then the points of m1 and m2, a point as ``(-z1, -z2, w)``
    (see :func:`cbve.solver._sweep`), negated as the row is made
    (:func:`_negated`).  ``atom`` belongs to node hi, whose
    atom the sweep steps just before cell hi - 1: None where no coefficient
    has a time atom there, else the same eight entries with atom masses and
    atom points, 0.0 and () where one has none.  A run ends where any
    coefficient changes, at every atom and at the last node.  ``steps``
    holds :func:`_steps` of the cell widths.  ``stiff`` holds ``(lo, hi,
    mu)`` of each run whose widest cell has h * mu > 1.9, mu its
    :func:`_decay_rates`: only these runs can hold a cell with h * mu > 2,
    on the model's grid or on a refined one, whose widths are the model's
    over the factor to rounding.
    """
    start = perf_counter()
    grid = env.grid
    n = grid.n_cells
    scalars = (env.b11, env.b22, *env._cross_drifts, env.c1, env.c2)
    jumps = (env.m1, env.m2)
    nodes, masses, points = _atoms(scalars, jumps)
    atoms = dict(zip(nodes.tolist(), zip(*(mass.tolist() for mass in masses),
                                         *(_point_sets(p, _negated) for p in points))))
    kernels = [_point_runs(jump.cell_points, _negated) for jump in jumps]
    ends = np.zeros(n + 1, dtype=bool)  # does a run end at the node
    ends[[*atoms, n]] = True
    for starts in (_run_starts(*(meas.density for meas in scalars)), *(s for s, _ in kernels)):
        ends[starts[1:]] = True
    hi = np.flatnonzero(ends)
    lo = np.append(0, hi[:-1])
    dens = [meas.density[lo] for meas in scalars]
    mu = _decay_rates(*dens[:4])
    with np.errstate(over="ignore"):
        stiff = np.flatnonzero(mu * np.maximum.reduceat(grid.widths, lo) > 1.9).tolist()
    rows = zip(*(d.tolist() for d in dens), *(
        [sets[i] for i in (np.searchsorted(starts, lo, "right") - 1).tolist()]
        for starts, sets in kernels))
    lo, hi = lo.tolist(), hi.tolist()
    table = SweepTable(tuple(zip(lo, hi, map(atoms.get, hi), rows)), _steps(grid.widths),
                       tuple((lo[i], hi[i], m) for i, m in zip(stiff, mu[stiff].tolist())))
    _log.debug("sweep table: %d cells, %d runs, %.3f ms",
               n, len(table.runs), 1e3 * (perf_counter() - start))
    return table


def _negated(points) -> tuple:
    """``(-z1, -z2, w)`` of each point: negation maps bit patterns one to
    one, so the stored points have the runs of the negated ones."""
    return tuple((-z1, -z2, w) for z1, z2, w in points)


def _decay_rates(b11, b22, bb12, bb21) -> np.ndarray:
    """The largest eigenvalue mu of each linear part ``[[b11, -bb12],
    [-bb21, b22]]`` of the sweep, from arrays of its entries (bb12, bb21
    >= 0, so mu is real): over a cell of width h the two-pass step
    multiplies a mode decaying at rate mu by 1 - z + z^2 / 2, z = h * mu,
    which grows once z > 2.  With tau the half trace and q the hypot of
    the half difference and sqrt(bb12 bb21), mu is tau + q, and for tau < 0
    it is formed as -det / (q - tau), which does not cancel."""
    with np.errstate(all="ignore"):
        tau = 0.5 * b11 + 0.5 * b22
        q = np.hypot(0.5 * b11 - 0.5 * b22, np.sqrt(bb12) * np.sqrt(bb21))
        return np.where(tau >= 0.0, tau + q, (bb12 * bb21 - b11 * b22) / (q - tau))


def _steps(widths) -> tuple:
    """``(h, 0.5 * h)`` of each width h, one pair object per bit pattern."""
    bits = widths.view(np.int64)
    patterns = np.unique(bits)
    h = patterns.view(np.float64)
    pairs = list(zip(h.tolist(), (0.5 * h).tolist()))
    return tuple(map(pairs.__getitem__, np.searchsorted(patterns, bits).tolist()))


def _frozen(table):
    """``table`` with every array in it, nested tuples included, read-only."""
    for part in table:
        if isinstance(part, tuple):
            _frozen(part)
        else:
            part.setflags(write=False)
    return table


def _rescaled(points, e, wfac):
    """Padded points with z1, z2 scaled by the rows of ``e`` and weights by
    ``wfac``, per set: the change of scale of the Picard table and of the
    h-transform.  Stacked ``(2, 3, K, sets)`` points take a row of ``wfac``
    per type."""
    scale = np.empty(points.shape[:-3] + (3, points.shape[-1]))
    scale[..., :2, :] = e
    scale[..., 2, :] = wfac
    return points * scale[..., None, :]


def _stacked(arrays, cols, size: int) -> np.ndarray:
    """The padded points of both types as one ``(2, 3, K, size)`` array (K
    the larger slot count), type i's sets at columns ``cols[i]``."""
    out = np.zeros((2, 3, max(a.shape[1] for a in arrays), size))
    for dest, points, at in zip(out, arrays, cols):
        dest[:, : points.shape[1], at] = points
    return out


def _atoms(scalars, jumps) -> tuple:
    """The ascending nodes where a measure of ``scalars`` has a nonzero atom
    mass (found among its atom nodes) or a kernel of ``jumps`` an atom, the
    measures' masses there, and the kernels' atom points, :func:`_stacked`."""
    nodes = np.unique(np.concatenate([m.atom_nodes[m.node_atom_masses[m.atom_nodes] != 0.0]
                                      for m in scalars] + [k.atom_nodes for k in jumps]))
    return (nodes, [m.node_atom_masses[nodes] for m in scalars],
            _stacked([k.atom_points for k in jumps],
                     [np.searchsorted(nodes, k.atom_nodes) for k in jumps], nodes.size))


class PicardTable(NamedTuple):
    """Array table of the diagonal-free Picard map; see :func:`picard_table`.
    Row i of ``aL``, ``aR``, ``ab`` and ``pL``, ``pR``, ``ap`` (padded
    ``(2, 3, K, sets)`` points) belongs to type i + 1."""

    widths: np.ndarray
    aL: np.ndarray
    aR: np.ndarray
    pL: np.ndarray
    pR: np.ndarray
    atom_nodes: np.ndarray
    ab: np.ndarray
    ap: np.ndarray
    Z: np.ndarray
    F: np.ndarray


def picard_table(sf):
    """Cells, atoms and scale exponents of the diagonal-free Picard map.

    ``Z[i - 1]`` holds, per node, the exponent of the change of scale that
    removes the type-i diagonal drift: its density integral plus
    log(1 + atom) jumps; ``F = exp(-Z)``.  Per cell the table holds the
    width, the rescaled cross densities (gamma12 then gamma21) and both
    kernels' rescaled points (from ``cell_points``) at both cell edges:
    ``aL``, ``aR``, ``pL``, ``pR``.  Per atom node (``atom_nodes``, ascending)
    it holds the rescaled cross masses ``ab`` and atom points ``ap``.  Point
    coordinates are stored negated, saving the map a negation (exactly).
    Exponentials that overflow are left as inf without a warning; the
    solver checks the exponents it uses.
    """
    start = perf_counter()
    grid = sf.grid
    mu = (sf.mu1, sf.mu2)
    cross = (sf.gamma12, sf.gamma21)
    atom = np.stack([g.node_atom_masses for g in (sf.gamma11, sf.gamma22)])
    dZ = np.zeros(atom.shape)
    nz = atom != 0.0
    dZ[nz] = np.log1p(atom[nz])
    Z = np.stack([g._cumdens for g in (sf.gamma11, sf.gamma22)]) + np.cumsum(dZ, axis=1)
    nodes, masses, A = _atoms(cross, mu)
    # edge values per cell: left node (cadlag value on the open cell) and the
    # left limit at the right node; at an atom node, its left limit and value
    ZL, ZR = Z[:, :-1], Z[:, 1:] - dZ[:, 1:]
    Za = Z[:, nodes]
    za = Za - dZ[:, nodes]
    P = _stacked([m.cell_points for m in mu], (slice(None),) * 2, grid.n_cells)
    dens = np.stack([g.density for g in cross])
    exp = np.exp
    with np.errstate(over="ignore", invalid="ignore"):
        table = _frozen(PicardTable(
            widths=grid.widths,
            aL=dens * exp(ZL - ZL[::-1]),
            aR=dens * exp(ZR - ZR[::-1]),
            pL=_rescaled(P, -exp(-ZL), exp(ZL)),
            pR=_rescaled(P, -exp(-ZR), exp(ZR)),
            atom_nodes=nodes,
            ab=np.stack(masses) * exp(za - Za[::-1]),
            ap=_rescaled(A, -exp(-Za), exp(za)),
            Z=Z,
            F=exp(-Z),
        ))
    _log.debug("picard table: %d cells, %d atom nodes, %.3f ms",
               grid.n_cells, nodes.size, 1e3 * (perf_counter() - start))
    return table


def _expm2(m11, m12, m21, m22, dt):
    """Entries of exp(M dt) for a Metzler 2x2 matrix M (m12, m21 >= 0).

    The entries are floats and ``dt`` a float or an array, so the branch
    is decided once, in Python, and only that branch is evaluated over dt.
    With tau the half trace and q^2 >= 0 the discriminant of M, exp(M dt) =
    e^(tau dt) (cosh(q dt) I + sinh(q dt)/q (M - tau I)).  For q > 1e-8 the
    products e^(tau dt) cosh(q dt) and e^(tau dt) sinh(q dt)/q are formed
    from exp((tau + q) dt) and expm1(-2q dt), so a stiff matrix whose cosh
    alone would overflow (q of 800 with tau of -800, say) still gives its
    finite exponential; smaller q takes the series.  Entries that truly
    overflow come out inf or NaN; the caller sets the warning state.
    """
    tau = 0.5 * (m11 + m22)
    d = m11 - tau
    q2 = d * d + m12 * m21
    q = math.sqrt(q2)
    if q > 1e-8:
        ep = np.exp((tau + q) * dt)
        half = 0.5 * ep * np.expm1(-2.0 * q * dt)
        ech = ep + half
        esh = half * (-1.0 / q)
    else:
        e = np.exp(tau * dt)
        qt2 = q2 * dt * dt
        ech = e * (1.0 + 0.5 * qt2)
        esh = e * (dt * (1.0 + qt2 / 6.0))
    esd = esh * d
    return ech + esd, esh * m12, esh * m21, ech - esd


def _expm1_cells(hA) -> np.ndarray:
    """``exp(hA) - I`` for a ``(2, 2, n)`` stack of Metzler matrices hA.

    With tau, q as in :func:`_expm2`, that is ``(e^tau cosh(q) - 1) I +
    e^tau sinh(q)/q (hA - tau I)``.  For q > 1e-8 the first coefficient is
    the mean of expm1(tau + q) and expm1(tau - q), and the second
    exp(tau + q) expm1(-2q) / -2q, so a stiff decaying cell gives its
    finite step; smaller q takes the series.  Either way the step is accurate relative
    to its largest entry, a near-identity one too.  Each branch runs on
    its own cells only; steps that truly overflow come out inf or NaN.
    """
    (a, b), (c, d) = hA
    tau = 0.5 * (a + d)
    delta = a - tau
    q2 = delta * delta + b * c
    q = np.sqrt(q2)
    cm1, sh = np.empty_like(q), np.empty_like(q)
    big = q > 1e-8
    for k, series in ((big, False), (~big, True)):
        if not k.any():
            continue
        k = slice(None) if k.all() else k
        t = tau[k]
        if series:
            e = np.exp(t)
            cm1[k] = np.expm1(t) + e * (0.5 * q2[k])
            sh[k] = e * (1.0 + q2[k] / 6.0)
        else:
            r = q[k]
            tr = t + r
            cm1[k] = 0.5 * (np.expm1(tr) + np.expm1(t - r))
            sh[k] = np.exp(tr) * np.expm1(-2.0 * r) * (-0.5 / r)
    sd = sh * delta
    return np.array(((cm1 + sd, sh * b), (sh * c, cm1 - sd)))


def _compose(x, y):
    """``(I + x)(I + y) - I`` for ``(2, 2, n)`` stacks of deviations from I."""
    out = np.einsum("ijk,jlk->ilk", x, y)
    out += x
    out += y
    return out


def mean_steps(env) -> np.ndarray:
    """Read-only ``(2, 2, cells)`` stack of ``P(k) - I``: ``P(k) = exp(hA(k)) (I -
    J(k+1))`` steps the mean system of ``env`` (drifts b11, b22 and effective cross
    drifts bb12, bb21, nondecreasing, so hA is Metzler) back over node k + 1's atom J,
    then cell k.  Elementwise over cells, so a stack's prefix is, bit for bit, its
    cells', and the stack is built :data:`_BLOCK` cells at a time into the result,
    with scratch that does not grow with the grid."""
    start = perf_counter()
    b11, b22 = env.b11, env.b22
    bb12, bb21 = env._cross_drifts
    widths = env.grid.widths
    steps = np.empty((2, 2, widths.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, widths.size, _BLOCK):
            k = slice(lo, lo + _BLOCK)
            (d11, a11), (d12, a12), (d21, a21), (d22, a22) = (
                (meas.density[k], meas.node_atom_masses[1:][k]) for meas in (b11, bb12, bb21, b22))
            hA = np.array(((-d11, d12), (d21, -d22))) * widths[k]
            steps[:, :, k] = _compose(_expm1_cells(hA), np.array(((-a11, a12), (a21, -a22))))
    steps.setflags(write=False)
    _log.debug("mean steps: %d cells, %.3f ms", steps.shape[2], 1e3 * (perf_counter() - start))
    return steps


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
    kernels: tuple
    ends: np.ndarray
    atom_slot: np.ndarray
    A: np.ndarray
    atom_kernels: tuple


def sim_table(sf):
    """Cells, stretches and atoms of the exact thinning simulator, as arrays.

    Per cell: the state flow matrix ``G`` (entries m11, m12, m21, m22 in
    rows, type j feeding type i through the j -> i drift; G is Metzler, the
    cross drifts being nondecreasing, so its flow keeps the state
    nonnegative), from which the simulator derives its thinning rates.
    ``kernels`` holds one :func:`_sampler` table per jump type.  A stretch
    is a run of cells whose drift and kernels are equal in value (0.0 and
    -0.0 alike), with no atom inside: ``ends`` holds the node at which each
    stretch ends, ascending, the last one the final node.  ``atom_slot``
    maps a node to its column in ``A`` (the deterministic jump matrix,
    entries as in ``G``) and ``atom_kernels``, or -1 where the node
    carries no atom.
    """
    start = perf_counter()
    G = np.stack([g.density for g in (sf.gamma11, sf.gamma21, sf.gamma12, sf.gamma22)])
    mu = (sf.mu1, sf.mu2)
    nodes, (a11, a22, a12, a21), atom_points = _atoms(
        (sf.gamma11, sf.gamma22, sf.gamma12, sf.gamma21), mu)
    atom_slot = np.full(sf.grid.nodes.size, -1)
    atom_slot[nodes] = np.arange(nodes.size)
    # -0.0 + 0.0 is 0.0: a stretch joins cells equal in value, which a path steps alike
    starts = _run_starts(G + 0.0, *(k.cell_points + 0.0 for k in mu))
    table = _frozen(SimTable(
        nodes=sf.grid.nodes, G=G,
        kernels=tuple(_sampler(k.cell_points) for k in mu),
        ends=np.union1d(starts[1:], [*nodes.tolist(), G.shape[1]]),
        atom_slot=atom_slot, A=np.stack((1.0 + a11, a21, a12, 1.0 + a22)),
        atom_kernels=tuple(_sampler(p) for p in atom_points),
    ))
    _log.debug("sim table: %d cells, %d stretches, %.3f ms",
               G.shape[1], table.ends.size, 1e3 * (perf_counter() - start))
    return table
