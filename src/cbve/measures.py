"""Time grids, signed Stieltjes measures and discrete jump kernels.

All coefficient data lives on a finite horizon [0, T] carried by a
:class:`TimeGrid`.  A :class:`StieltjesMeasure` is a signed measure on
(0, T] stored as node arrays, a density per cell and an atom mass per node,
so past construction its operations are array work however many nodes
carry atoms; its cumulative function is cadlag and vanishes at 0.  A
:class:`JumpMeasure` is a kernel in time whose spatial slice is a finite
discrete measure on the closed positive quadrant minus the origin.

Integrals over an interval (r, t] treat atoms exactly, added in time order,
and apply a per-cell endpoint rule ("right" or "trapezoid") to the density
part, so all discretization error sits in the integrand, not the measure.
Every type here is immutable after construction and safe to share.
Cells whose values are equal bit for bit form runs, found only by
:func:`_run_starts`: a kernel's views, the compiled tables and canonical
emission read the runs, so a model of a few segments costs a few runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

__all__ = [
    "TimeGrid",
    "StieltjesMeasure",
    "DiscreteSpatialMeasure",
    "JumpMeasure",
]

_RULES = ("right", "trapezoid")

#: slack, relative to max(1, T), within which a time names a grid node
_NODE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing time nodes from 0 to the horizon T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError("grid must start at 0")
        if not np.isfinite(nodes).all():
            raise ValueError("grid nodes must be finite")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        nodes = nodes.copy()
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_cells(self) -> int:
        return self.nodes.size - 1

    @cached_property
    def widths(self) -> np.ndarray:
        w = np.diff(self.nodes)
        w.setflags(write=False)
        return w

    def index_of(self, t: float) -> int:
        """Index of the node equal to ``t`` (within :data:`_NODE_TOL` relative slack)."""
        k = int(np.searchsorted(self.nodes, t))
        slack = _NODE_TOL * max(1.0, self.horizon)
        for idx in (k, k - 1, k + 1):
            if 0 <= idx < self.nodes.size and abs(self.nodes[idx] - t) <= slack:
                return idx
        raise ValueError(f"time {t!r} is not a grid node")

    def refine(self, factor: int) -> "TimeGrid":
        """Split every cell into ``factor`` equal subcells, keeping all nodes."""
        if not isinstance(factor, int) or factor < 1:
            raise ValueError("refinement factor must be a positive integer")
        if factor == 1:
            return self
        left = self.nodes[:-1]
        steps = self.widths / factor
        sub = left[:, None] + steps[:, None] * np.arange(factor)[None, :]
        new = np.append(sub.ravel(), self.nodes[-1])
        # keep original nodes bit-identical
        new[::factor] = self.nodes
        return TimeGrid(new)

    def same_as(self, other: "TimeGrid") -> bool:
        return self is other or bool(np.array_equal(self.nodes, other.nodes))


def _check_atoms(grid: TimeGrid, atoms) -> list:
    """(node, value) of each (time, value) atom at its own grid node in (0, T], in node order."""
    out = {}
    for time, value in atoms:
        idx = grid.index_of(float(time))
        if idx == 0:
            raise ValueError("atom times must lie in (0, T]")
        if idx in out:
            raise ValueError(f"duplicate atom at time {float(grid.nodes[idx])}")
        out[idx] = value
    return sorted(out.items())


def _running_sum(start: float, terms: np.ndarray) -> float:
    """``start`` plus ``terms`` added one at a time, in order (``np.sum`` may add pairwise)."""
    return float(np.cumsum(np.append(start, terms))[-1])


@dataclass(frozen=True, eq=False, init=False)
class StieltjesMeasure:
    """Signed measure on (0, T]: piecewise-constant density plus time atoms.

    A measure is its read-only arrays: ``density``, the mass per unit time
    on each cell; ``node_atom_masses``, the atom mass at each node (0 where
    none); and ``atom_nodes``, the ascending nodes in (0, T] given an atom,
    a zero mass included.  The constructor takes (time, mass) pairs whose
    times must be grid nodes in (0, T], which :attr:`atoms` gives back.
    :attr:`nondecreasing` is read from the arrays.
    """

    grid: TimeGrid
    density: np.ndarray
    node_atom_masses: np.ndarray
    atom_nodes: np.ndarray

    def __init__(self, grid: TimeGrid, density, atoms=()):
        at = _check_atoms(grid, atoms)
        self._store(grid, np.array(density, dtype=float), np.array([m for m, _ in at], np.intp),
                    np.array([float(mass) for _, mass in at]))

    def _store(self, grid, density, nodes, masses) -> "StieltjesMeasure":
        """Check and keep ``density`` and the atom ``masses`` at ``nodes``."""
        if density.shape != (grid.n_cells,):
            raise ValueError("density must hold one value per grid cell")
        if not np.isfinite(density).all():
            raise ValueError("density values must be finite")
        if not np.isfinite(masses).all():
            raise ValueError("atom masses must be finite")
        node_masses = np.zeros(grid.nodes.size)
        node_masses[nodes] = masses
        for arr in (density, node_masses, nodes):
            arr.setflags(write=False)
        self.__dict__.update(grid=grid, density=density, node_atom_masses=node_masses,
                             atom_nodes=nodes)
        return self

    @classmethod
    def _of(cls, grid, density, masses, nodes=None) -> "StieltjesMeasure":
        """The measure of a new ``density`` array and of the node ``masses`` at the
        ascending ``nodes`` in (0, T] (default: where nonzero); others are dropped."""
        nodes = np.flatnonzero(masses) if nodes is None else nodes
        return cls.__new__(cls)._store(grid, density, nodes, masses[nodes])

    @classmethod
    def zero(cls, grid: TimeGrid) -> "StieltjesMeasure":
        return cls(grid, np.zeros(grid.n_cells))

    @classmethod
    def from_segments(cls, grid, segments, atoms=()):
        """Build from [(t0, t1, value), ...]; segment endpoints must be nodes."""
        dens = np.zeros(grid.n_cells)
        for t0, t1, value in segments:
            i0, i1 = grid.index_of(t0), grid.index_of(t1)
            if i1 <= i0:
                raise ValueError(f"empty density segment [{t0}, {t1})")
            dens[i0:i1] = value
        return cls(grid, dens, atoms)

    @property
    def nondecreasing(self) -> bool:
        """Whether the density and every atom mass are nonnegative."""
        return not ((self.density < 0.0).any() or (self.node_atom_masses < 0.0).any())

    @cached_property
    def atoms(self) -> tuple:
        """(time, mass) of each atom, in time order."""
        at = self.atom_nodes
        return tuple(zip(self.grid.nodes[at].tolist(), self.node_atom_masses[at].tolist()))

    @cached_property
    def _cumdens(self) -> np.ndarray:
        out = np.concatenate(([0.0], np.cumsum(self.density * self.grid.widths)))
        out.setflags(write=False)
        return out

    @cached_property
    def node_cumulatives(self) -> np.ndarray:
        """Cumulative value at every grid node (cadlag: atoms included)."""
        out = self._cumdens + np.cumsum(self.node_atom_masses)
        out.setflags(write=False)
        return out

    def atom_mass_at(self, t: float) -> float:
        return float(self.node_atom_masses[self.grid.index_of(t)])

    def _last_node(self, t: float) -> int:
        """Index of the last node at or before ``t`` in [0, T]."""
        nodes = self.grid.nodes
        if not 0.0 <= t <= nodes[-1]:
            raise ValueError(f"time {t!r} outside [0, {nodes[-1]}]")
        return int(np.searchsorted(nodes, t, side="right")) - 1

    def cumulative(self, t: float) -> float:
        """Total mass of (0, t]; cadlag in t, zero at t = 0."""
        k = self._last_node(t)
        base = float(self._cumdens[k])
        if k < self.grid.n_cells:
            base += float(self.density[k]) * max(t - self.grid.nodes[k], 0.0)
        return base + _running_sum(0.0, self.node_atom_masses[: k + 1])

    def total_variation(self, t: float) -> float:
        """Variation mass of (0, t]: density and atoms in absolute value."""
        k = self._last_node(t)
        absdens = np.abs(self.density)
        if k >= self.grid.n_cells:
            base = float(np.sum(absdens * self.grid.widths))
        else:
            base = float(np.sum(absdens[:k] * self.grid.widths[:k]))
            base += float(absdens[k]) * (t - self.grid.nodes[k])
        return base + _running_sum(0.0, np.abs(self.node_atom_masses[: k + 1]))

    def integrate(self, f: np.ndarray, r: float, t: float, rule: str = "right") -> float:
        """Stieltjes integral of a node-indexed function over (r, t].

        ``f`` holds one value per grid node.  Atoms are evaluated exactly at
        the node value (the right limit, matching the (r, t] convention);
        the density part uses the requested endpoint rule per cell.
        """
        if rule not in _RULES:
            raise ValueError(f"unknown endpoint rule {rule!r}")
        ir, it = self.grid.index_of(r), self.grid.index_of(t)
        if ir > it:
            raise ValueError("need r <= t")
        f = np.asarray(f, dtype=float)
        if f.shape != (self.grid.nodes.size,):
            raise ValueError("f must hold one value per grid node")
        if not np.all(np.isfinite(f[ir : it + 1])):
            raise ValueError("f undefined (non-finite) on a needed node")
        if ir == it:
            return 0.0
        h = self.grid.widths[ir:it]
        d = self.density[ir:it]
        if rule == "right":
            total = float(np.sum(f[ir + 1 : it + 1] * d * h))
        else:
            total = float(np.sum(0.5 * (f[ir:it] + f[ir + 1 : it + 1]) * d * h))
        at = self.atom_nodes[(ir < self.atom_nodes) & (self.atom_nodes <= it)]
        return _running_sum(total, f[at] * self.node_atom_masses[at])

    def abs(self) -> "StieltjesMeasure":
        """Total-variation measure: absolute density and atom masses."""
        return StieltjesMeasure._of(self.grid, np.abs(self.density),
                                    np.abs(self.node_atom_masses), self.atom_nodes)

    def on_refinement(self, fine: TimeGrid, factor: int) -> "StieltjesMeasure":
        """Re-materialize on a ``factor``-refined copy of the same grid."""
        masses = np.zeros(fine.nodes.size)
        masses[::factor] = self.node_atom_masses
        return StieltjesMeasure._of(fine, np.repeat(self.density, factor), masses,
                                    self.atom_nodes * factor)

    @classmethod
    def linear_combination(cls, grid, terms):
        """Sum ``coef * measure`` over ``terms`` (all on ``grid``); atoms
        summing to zero are dropped."""
        dens = np.zeros(grid.n_cells)
        masses = np.zeros(grid.nodes.size)
        for coef, meas in terms:
            if not meas.grid.same_as(grid):
                raise ValueError("all measures must share the grid")
            dens += coef * meas.density
            masses += coef * meas.node_atom_masses
        return cls._of(grid, dens, masses)


@dataclass(frozen=True, eq=False)
class DiscreteSpatialMeasure:
    """Finite discrete measure on the positive quadrant minus the origin."""

    points: tuple = ()

    def __post_init__(self):
        pts = tuple((float(z1), float(z2), float(w)) for z1, z2, w in self.points)
        for point in pts:
            _check_point(*point)
        object.__setattr__(self, "points", pts)


def _check_point(z1: float, z2: float, w: float) -> None:
    """Raise a ValueError unless (z1, z2) are finite, nonnegative coordinates
    off the origin and the weight w is positive and finite."""
    # NaN fails every comparison
    if not (0.0 <= z1 < math.inf and 0.0 <= z2 < math.inf):
        raise ValueError("spatial points must have finite, nonnegative coordinates")
    if z1 == 0.0 and z2 == 0.0:
        raise ValueError("spatial points must avoid the origin")
    if not 0.0 < w < math.inf:
        raise ValueError("spatial weights must be positive and finite")


def _check_points(pts: np.ndarray) -> None:
    """:func:`_check_point` on each (z1, z2, weight) column of ``pts``, as
    arrays; the first bad point raises its error."""
    ok = (pts >= 0.0) & (pts < np.inf) & (pts[2] > 0.0) & pts[:2].any(axis=0)
    if not ok.all():
        _check_point(*pts[:, np.argmin(ok.all(axis=0))].tolist())


def _filled(size: int, sets) -> np.ndarray:
    """Padded ``(3, K, size)`` points of ``(i0, i1, points)`` sets: the
    ``(n, 3)`` array ``points`` fills sets i0..i1-1, replacing what an earlier
    set put there; K is the largest set left (the slots with a weight)."""
    out = np.zeros((3, max((len(p) for *_, p in sets), default=0), size))
    for i0, i1, points in sets:
        out[:, : len(points), i0:i1] = points.T[:, :, None]
        out[:, len(points) :, i0:i1] = 0.0
    return np.ascontiguousarray(out[:, : np.count_nonzero(out[2].any(axis=1))])


def _arrays(grid: TimeGrid, spans, atoms) -> tuple:
    """Cell points, atom points and atom nodes of the kernel with points
    ``pts`` on each ``(i0, i1, pts)`` span of cells and ``(time, pts)`` atom
    (a grid node in (0, T], used once), every point checked once."""
    atoms = _check_atoms(grid, atoms)
    sets = spans + [(j, j + 1, pts) for j, (_, pts) in enumerate(atoms)]
    flat = [p for *_, pts in sets for p in pts]
    flat = np.array(flat, dtype=float).reshape(len(flat), 3)
    _check_points(flat.T)
    ends = accumulate(len(pts) for *_, pts in sets)
    sets = [(i0, i1, flat[b - len(pts) : b]) for (i0, i1, pts), b in zip(sets, ends)]
    return (_filled(grid.n_cells, sets[: len(spans)]), _filled(len(atoms), sets[len(spans) :]),
            [m for m, _ in atoms])


def _packed(points: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The ``keep`` slots of padded ``points``, checked, then moved to the
    front of their set in slot order with zeros after: their padded form."""
    _check_points(points.transpose(0, 2, 1)[:, keep.T])
    out = np.zeros((3, int(np.count_nonzero(keep, axis=0).max(initial=0)), keep.shape[1]))
    slot, col = np.nonzero(keep)
    out[:, (np.cumsum(keep, axis=0) - 1)[slot, col], col] = points[:, slot, col]
    return out


def _run_starts(*arrays) -> np.ndarray:
    """The first cell of each run of cells (on the last axis) whose sets are
    equal bit for bit, 0.0 and -0.0 differing, in all ``arrays``, ascending."""
    change = np.zeros(arrays[0].shape[-1], dtype=bool)
    change[:1] = True
    for arr in arrays:
        bits = arr.view(np.int64)
        ne = bits[..., 1:] != bits[..., :-1]
        if ne.ndim > 1:
            ne = np.logical_or.reduce(ne, axis=tuple(range(ne.ndim - 1)))
        change[1:] |= ne
    return change.nonzero()[0]


def _point_runs(points: np.ndarray, make=tuple) -> tuple:
    """:func:`_run_starts` of padded ``points``, and ``make`` of the tuple of
    each run's (z1, z2, weight) points of positive weight, one per bit pattern."""
    starts = _run_starts(points).tolist()
    made = {}
    return starts, [made.setdefault(points[:, :, a].tobytes(), make(
        tuple(p for p in zip(*points[:, :, a].tolist()) if p[2] > 0.0))) for a in starts]


def _point_sets(points: np.ndarray, make=tuple) -> list:
    """:func:`_point_runs`' set of each set of padded ``points``, shared
    along its run."""
    starts, sets = _point_runs(points, make)
    ends = [*starts[1:], points.shape[2]]
    return [s for s, a, b in zip(sets, starts, ends) for _ in range(b - a)]


def _slot_sums(fn, points: np.ndarray) -> np.ndarray:
    """Sum of ``fn(z1, z2) * weight`` per set, adding one slot at a time:
    the order of a per-point loop, where ``sum(axis=0)`` may go pairwise."""
    z1, z2, w = points
    total = np.zeros(points.shape[2])
    for term in fn(z1, z2) * w:
        total += term
    return total


@dataclass(frozen=True, eq=False, init=False)
class JumpMeasure:
    """Kernel in time with finite discrete spatial slices.

    A kernel is its read-only padded arrays of (z1, z2, weight) points, a
    set's own points in its first slots and zeros after: ``cell_points``
    ``(3, K, cells)`` holds each cell's rate density (weight per unit time),
    ``atom_points`` ``(3, Ka, atoms)`` each time atom's total masses, at the
    ascending node indices ``atom_nodes`` in (0, T].  The constructor takes
    one spatial measure per cell and (time, spatial measure) pairs, which
    :attr:`cell_kernels` and :attr:`time_atoms` give back as read-only views.
    """

    grid: TimeGrid
    cell_points: np.ndarray
    atom_points: np.ndarray
    atom_nodes: np.ndarray

    def __init__(self, grid: TimeGrid, cell_kernels=(), time_atoms=()):
        kernels = tuple(cell_kernels)
        if kernels and len(kernels) != grid.n_cells:
            raise ValueError("need one spatial kernel per grid cell")
        # one span per run of the same spatial measure object
        starts = [k for k, kern in enumerate(kernels) if not k or kern is not kernels[k - 1]]
        spans = [(a, b, kernels[a].points) for a, b in zip(starts, starts[1:] + [len(kernels)])]
        self._store(grid, *_arrays(grid, spans, ((t, s.points) for t, s in time_atoms)))

    def _store(self, grid: TimeGrid, cells, atoms, nodes) -> "JumpMeasure":
        nodes = np.asarray(nodes, dtype=np.intp)
        for arr in (cells, atoms, nodes):
            arr.setflags(write=False)
        self.__dict__.update(grid=grid, cell_points=cells, atom_points=atoms, atom_nodes=nodes)
        return self

    @classmethod
    def _of(cls, grid: TimeGrid, cells, atoms, nodes) -> "JumpMeasure":
        """The kernel of padded arrays whose points are already checked."""
        return cls.__new__(cls)._store(grid, cells, atoms, nodes)

    @classmethod
    def zero(cls, grid: TimeGrid) -> "JumpMeasure":
        return cls(grid)

    @classmethod
    def from_segments(cls, grid, segments=(), atoms=()):
        """Build from [(t0, t1, points), ...] plus [(t, points), ...] atoms;
        a later segment replaces an earlier one on the cells they share."""
        spans = []
        for t0, t1, pts in segments:
            i0, i1 = grid.index_of(t0), grid.index_of(t1)
            if i1 < i0:
                raise ValueError(f"empty kernel segment [{t0}, {t1})")
            spans.append((i0, i1, pts))
        return cls._of(grid, *_arrays(grid, spans, atoms))

    @cached_property
    def cell_kernels(self) -> tuple:
        """One spatial measure per cell, shared along runs of equal cells."""
        return tuple(_point_sets(self.cell_points, DiscreteSpatialMeasure))

    @cached_property
    def time_atoms(self) -> tuple:
        """(time, spatial measure) of each time atom, in time order."""
        return tuple(zip(self.grid.nodes[self.atom_nodes].tolist(),
                         _point_sets(self.atom_points, DiscreteSpatialMeasure)))

    def moment_measure(self, fn) -> StieltjesMeasure:
        """Project onto time: cell densities and atoms weighted by ``fn(z)``.

        ``fn(z1, z2)`` receives numpy arrays (:attr:`cell_points`, then
        :attr:`atom_points`) and must work elementwise and be finite at the
        origin, where the zero-weight padded slots sit."""
        masses = np.zeros(self.grid.nodes.size)
        masses[self.atom_nodes] = _slot_sums(fn, self.atom_points)
        return StieltjesMeasure._of(self.grid, _slot_sums(fn, self.cell_points), masses)

    @cached_property
    def _coordinate_moments(self) -> tuple:
        return (self.moment_measure(lambda z1, z2: z1),
                self.moment_measure(lambda z1, z2: z2))

    def coordinate_moment(self, i: int) -> StieltjesMeasure:
        """Mean z_i inflow: :meth:`moment_measure` of coordinate ``i`` (1 or
        2), computed once per kernel."""
        if i not in (1, 2):
            raise ValueError("coordinate index must be 1 or 2")
        return self._coordinate_moments[i - 1]

    def _rebuilt(self, cells: np.ndarray, atoms: np.ndarray,
                 thin: bool = False) -> "JumpMeasure":
        """This kernel with transformed copies of its padded arrays as
        points: at its own points' slots (so a weight underflowing to 0 still
        fails the point check), or with ``thin`` where the new weight is
        positive, dropping emptied atoms."""
        own = (cells, atoms) if thin else (self.cell_points, self.atom_points)
        keep, atom_keep = (points[2] > 0.0 for points in own)
        on = atom_keep.any(axis=0) if thin else slice(None)
        return JumpMeasure._of(self.grid, _packed(cells, keep),
                               _packed(atoms[:, :, on], atom_keep[:, on]), self.atom_nodes[on])

    def thinned(self, fn) -> "JumpMeasure":
        """Each weight times ``fn(z1, z2)``, dropping points whose new weight
        is not positive and atoms left empty; ``fn`` is called as in
        :meth:`moment_measure`."""
        cells, atoms = self.cell_points.copy(), self.atom_points.copy()
        for points in (cells, atoms):
            points[2] *= fn(points[0], points[1])
        return self._rebuilt(cells, atoms, thin=True)

    def on_refinement(self, fine: TimeGrid, factor: int) -> "JumpMeasure":
        """Re-materialize on a ``factor``-refined copy of the same grid."""
        return JumpMeasure._of(fine, np.repeat(self.cell_points, factor, axis=2),
                               self.atom_points, self.atom_nodes * factor)
