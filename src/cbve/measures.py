"""Time grids, signed Stieltjes measures and discrete jump kernels.

All coefficient data lives on a finite horizon [0, T] carried by a
:class:`TimeGrid`.  A :class:`StieltjesMeasure` is a signed measure on
(0, T] given by a piecewise-constant density (one value per grid cell)
plus finitely many time atoms located at grid nodes; its cumulative
function is cadlag and vanishes at 0.  A :class:`JumpMeasure` is a
kernel in time whose spatial slice is a finite discrete measure on the
closed positive quadrant minus the origin.

Integrals over an interval (r, t] treat atoms exactly and apply a
per-cell endpoint rule ("right" or "trapezoid") to the density part, so
all discretization error sits in the integrand, never in the measure.
Every type here is immutable after construction and safe to share.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

__all__ = [
    "TimeGrid",
    "StieltjesMeasure",
    "DiscreteSpatialMeasure",
    "JumpMeasure",
]

_RULES = ("right", "trapezoid")


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

    def index_of(self, t: float, tol: float = 1e-9) -> int:
        """Index of the node equal to ``t`` (within ``tol`` relative slack)."""
        k = int(np.searchsorted(self.nodes, t))
        scale = max(1.0, self.horizon)
        for idx in (k, k - 1, k + 1):
            if 0 <= idx < self.nodes.size and abs(self.nodes[idx] - t) <= tol * scale:
                return idx
        raise ValueError(f"time {t!r} is not a grid node")

    def is_node(self, t: float, tol: float = 1e-9) -> bool:
        try:
            self.index_of(t, tol)
            return True
        except ValueError:
            return False

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
        return self.nodes.size == other.nodes.size and bool(
            np.array_equal(self.nodes, other.nodes)
        )


def _check_atoms(grid: TimeGrid, atoms) -> tuple:
    seen = set()
    out = []
    for time, mass in atoms:
        time = float(time)
        mass = float(mass)
        idx = grid.index_of(time)
        if idx == 0:
            raise ValueError("atom times must lie in (0, T]")
        time = float(grid.nodes[idx])
        if idx in seen:
            raise ValueError(f"duplicate atom at time {time}")
        if not math.isfinite(mass):
            raise ValueError("atom masses must be finite")
        seen.add(idx)
        out.append((time, mass, idx))
    out.sort(key=lambda a: a[2])
    return tuple(out)


@dataclass(frozen=True, eq=False)
class StieltjesMeasure:
    """Signed measure on (0, T]: piecewise-constant density plus time atoms.

    ``density[k]`` is the mass per unit time on cell k; ``atoms`` holds
    (time, mass) pairs whose times must be grid nodes in (0, T].  With
    ``nondecreasing=True`` both parts must be nonnegative.
    """

    grid: TimeGrid
    density: np.ndarray
    atoms: tuple = ()
    nondecreasing: bool = False
    _atom_entries: tuple = field(init=False, repr=False)

    def __post_init__(self):
        dens = np.asarray(self.density, dtype=float)
        if dens.shape != (self.grid.n_cells,):
            raise ValueError("density must hold one value per grid cell")
        if not np.all(np.isfinite(dens)):
            raise ValueError("density values must be finite")
        entries = _check_atoms(self.grid, self.atoms)
        if self.nondecreasing:
            if np.any(dens < 0.0) or any(m < 0.0 for _, m, _ in entries):
                raise ValueError("nondecreasing measure needs nonnegative parts")
        dens = dens.copy()
        dens.setflags(write=False)
        object.__setattr__(self, "density", dens)
        object.__setattr__(self, "atoms", tuple((t, m) for t, m, _ in entries))
        object.__setattr__(self, "_atom_entries", entries)

    @classmethod
    def zero(cls, grid: TimeGrid, nondecreasing: bool = False) -> "StieltjesMeasure":
        return cls(grid, np.zeros(grid.n_cells), (), nondecreasing)

    @classmethod
    def from_segments(cls, grid, segments, atoms=(), nondecreasing=False):
        """Build from [(t0, t1, value), ...]; segment endpoints must be nodes."""
        dens = np.zeros(grid.n_cells)
        for t0, t1, value in segments:
            i0, i1 = grid.index_of(t0), grid.index_of(t1)
            if i1 <= i0:
                raise ValueError(f"empty density segment [{t0}, {t1})")
            dens[i0:i1] = value
        return cls(grid, dens, tuple(atoms), nondecreasing)

    @cached_property
    def _cumdens(self) -> np.ndarray:
        out = np.concatenate(([0.0], np.cumsum(self.density * self.grid.widths)))
        out.setflags(write=False)
        return out

    @cached_property
    def node_atom_masses(self) -> np.ndarray:
        """Atom mass sitting at each grid node (0 where none)."""
        out = np.zeros(self.grid.nodes.size)
        for _, mass, idx in self._atom_entries:
            out[idx] = mass
        out.setflags(write=False)
        return out

    @cached_property
    def node_cumulatives(self) -> np.ndarray:
        """Cumulative value at every grid node (cadlag: atoms included)."""
        out = self._cumdens + np.cumsum(self.node_atom_masses)
        out.setflags(write=False)
        return out

    def atom_mass_at(self, t: float) -> float:
        idx = self.grid.index_of(t)
        return float(self.node_atom_masses[idx])

    def _density_cumulative(self, t: float, dens_cum: np.ndarray) -> float:
        nodes = self.grid.nodes
        if t < 0.0 or t > nodes[-1]:
            raise ValueError(f"time {t!r} outside [0, {nodes[-1]}]")
        k = int(np.searchsorted(nodes, t, side="right")) - 1
        if k >= self.grid.n_cells:
            return float(dens_cum[-1])
        return float(dens_cum[k]) + float(self.density[k]) * max(t - nodes[k], 0.0)

    def cumulative(self, t: float) -> float:
        """Total mass of (0, t]; cadlag in t, zero at t = 0."""
        base = self._density_cumulative(t, self._cumdens)
        return base + sum(m for tt, m, _ in self._atom_entries if tt <= t)

    def total_variation(self, t: float) -> float:
        """Variation mass of (0, t]: density and atoms in absolute value."""
        nodes = self.grid.nodes
        if t < 0.0 or t > nodes[-1]:
            raise ValueError(f"time {t!r} outside [0, {nodes[-1]}]")
        k = int(np.searchsorted(nodes, t, side="right")) - 1
        absdens = np.abs(self.density)
        if k >= self.grid.n_cells:
            base = float(np.sum(absdens * self.grid.widths))
        else:
            base = float(np.sum(absdens[:k] * self.grid.widths[:k]))
            base += float(absdens[k]) * (t - nodes[k])
        return base + sum(abs(m) for tt, m, _ in self._atom_entries if tt <= t)

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
        for _, mass, idx in self._atom_entries:
            if ir < idx <= it:
                total += float(f[idx]) * mass
        return total

    def abs(self) -> "StieltjesMeasure":
        """Total-variation measure: absolute density and atom masses."""
        return StieltjesMeasure(
            self.grid,
            np.abs(self.density),
            tuple((t, abs(m)) for t, m in self.atoms),
            nondecreasing=True,
        )

    def on_refinement(self, fine: TimeGrid, factor: int) -> "StieltjesMeasure":
        """Re-materialize on a ``factor``-refined copy of the same grid."""
        dens = np.repeat(self.density, factor)
        return StieltjesMeasure(fine, dens, self.atoms, self.nondecreasing)

    @classmethod
    def linear_combination(cls, grid, terms, atoms_extra=(), nondecreasing=False):
        """Sum ``coef * measure`` over ``terms`` (all on ``grid``)."""
        dens = np.zeros(grid.n_cells)
        atom_acc: dict[int, float] = {}
        for coef, meas in terms:
            if not meas.grid.same_as(grid):
                raise ValueError("all measures must share the grid")
            dens += coef * meas.density
            for t, m, idx in meas._atom_entries:
                atom_acc[idx] = atom_acc.get(idx, 0.0) + coef * m
        atoms = [(float(grid.nodes[i]), m) for i, m in atom_acc.items() if m != 0.0]
        atoms.extend(atoms_extra)
        return cls(grid, dens, tuple(atoms), nondecreasing)


@dataclass(frozen=True, eq=False)
class DiscreteSpatialMeasure:
    """Finite discrete measure on the positive quadrant minus the origin."""

    points: tuple = ()

    def __post_init__(self):
        pts = []
        for z1, z2, w in self.points:
            z1, z2, w = float(z1), float(z2), float(w)
            # NaN fails both comparisons
            if not (0.0 <= z1 < math.inf and 0.0 <= z2 < math.inf):
                raise ValueError("spatial points must have finite, nonnegative coordinates")
            if z1 == 0.0 and z2 == 0.0:
                raise ValueError("spatial points must avoid the origin")
            if not (w > 0.0 and math.isfinite(w)):
                raise ValueError("spatial weights must be positive and finite")
            pts.append((z1, z2, w))
        object.__setattr__(self, "points", tuple(pts))


_EMPTY_SPATIAL = DiscreteSpatialMeasure(())


def _padded(point_sets) -> np.ndarray:
    """Points of each set as a read-only ``(3, K, sets)`` array of (z1, z2,
    weight); K is the largest set size, and the slots past a set's own
    points hold zeros, so they add nothing to a weighted sum."""
    counts = np.fromiter(map(len, point_sets), np.intp, len(point_sets))
    out = np.zeros((3, int(counts.max(initial=0)), counts.size))
    flat = np.array(list(chain.from_iterable(point_sets)), dtype=float)
    col = np.repeat(np.arange(counts.size), counts)
    slot = np.arange(col.size) - (np.cumsum(counts) - counts)[col]
    out[:, slot, col] = flat.reshape(-1, 3).T
    out.setflags(write=False)
    return out


def _unpadded(points: np.ndarray, keep: np.ndarray) -> list:
    """One spatial measure per set of padded ``points``, holding the
    ``keep`` slots of that set in slot order."""
    col, slot = np.nonzero(keep.T)
    rows = list(zip(*points[:, slot, col].tolist()))
    ends = np.cumsum(np.count_nonzero(keep, axis=0)).tolist()
    return [DiscreteSpatialMeasure(tuple(rows[a:b]))
            for a, b in zip([0, *ends], ends)]


def _slot_sums(fn, points: np.ndarray) -> np.ndarray:
    """Sum of ``fn(z1, z2) * weight`` per set, adding one slot at a time:
    the order of a per-point loop, where ``sum(axis=0)`` may go pairwise."""
    z1, z2, w = points
    total = np.zeros(points.shape[2])
    for term in fn(z1, z2) * w:
        total += term
    return total


@dataclass(frozen=True, eq=False)
class JumpMeasure:
    """Kernel in time with finite discrete spatial slices.

    ``cell_kernels[k]`` is the rate density on cell k (weight per unit
    time); ``time_atoms`` holds (time, spatial measure) pairs whose
    weights are total masses, with times at grid nodes in (0, T].
    """

    grid: TimeGrid
    cell_kernels: tuple = ()
    time_atoms: tuple = ()

    def __post_init__(self):
        kernels = tuple(self.cell_kernels)
        if not kernels:
            kernels = (_EMPTY_SPATIAL,) * self.grid.n_cells
        if len(kernels) != self.grid.n_cells:
            raise ValueError("need one spatial kernel per grid cell")
        atoms = []
        seen = set()
        for time, spatial in self.time_atoms:
            idx = self.grid.index_of(float(time))
            if idx == 0:
                raise ValueError("jump atoms must lie in (0, T]")
            if idx in seen:
                raise ValueError(f"duplicate jump atom at {time}")
            seen.add(idx)
            atoms.append((float(self.grid.nodes[idx]), spatial, idx))
        atoms.sort(key=lambda a: a[2])
        object.__setattr__(self, "cell_kernels", kernels)
        object.__setattr__(self, "time_atoms", tuple((t, s) for t, s, _ in atoms))
        object.__setattr__(self, "_atom_entries", tuple(atoms))

    @classmethod
    def zero(cls, grid: TimeGrid) -> "JumpMeasure":
        return cls(grid)

    @classmethod
    def from_segments(cls, grid, segments=(), atoms=()):
        """Build from [(t0, t1, points), ...] plus [(t, points), ...] atoms."""
        kernels = [_EMPTY_SPATIAL] * grid.n_cells
        for t0, t1, points in segments:
            i0, i1 = grid.index_of(t0), grid.index_of(t1)
            spatial = DiscreteSpatialMeasure(tuple(points))
            for k in range(i0, i1):
                kernels[k] = spatial
        at = tuple((t, DiscreteSpatialMeasure(tuple(points))) for t, points in atoms)
        return cls(grid, tuple(kernels), at)

    @cached_property
    def node_points(self) -> dict:
        """Spatial points of the time atom at each atom node index."""
        return {idx: spatial.points for _, spatial, idx in self._atom_entries}

    @cached_property
    def cell_points(self) -> np.ndarray:
        """Cell kernel points as a read-only, zero-padded ``(3, K, cells)``
        array of (z1, z2, weight), the form every projection reads."""
        return _padded([kern.points for kern in self.cell_kernels])

    @cached_property
    def atom_points(self) -> np.ndarray:
        """Time-atom points like :attr:`cell_points`, ``(3, Ka, atoms)``: one
        column per time atom, in the order of :attr:`node_points`."""
        return _padded(list(self.node_points.values()))

    def moment_measure(self, fn) -> StieltjesMeasure:
        """Project onto time: cell densities and atoms weighted by ``fn(z)``.

        ``fn(z1, z2)`` receives numpy arrays (:attr:`cell_points`, then
        :attr:`atom_points`) and must work elementwise and be finite at the
        origin, where the zero-weight padded slots sit."""
        dens = _slot_sums(fn, self.cell_points)
        masses = _slot_sums(fn, self.atom_points).tolist()
        atoms = tuple((t, m) for (t, _, _), m in zip(self._atom_entries, masses)
                      if m != 0.0)
        return StieltjesMeasure(self.grid, dens, atoms)

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
        """This kernel with points read from transformed copies of its padded
        arrays: at its own points' slots (so a weight underflowing to 0 still
        fails the spatial check), or with ``thin`` where the new weight is
        positive, dropping emptied atoms."""
        own = (cells, atoms) if thin else (self.cell_points, self.atom_points)
        keep, atom_keep = (points[2] > 0.0 for points in own)
        spatial = zip(self._atom_entries, _unpadded(atoms, atom_keep))
        return JumpMeasure(self.grid, tuple(_unpadded(cells, keep)), tuple(
            (t, s) for (t, _, _), s in spatial if s.points or not thin))

    def thinned(self, fn) -> "JumpMeasure":
        """Each weight times ``fn(z1, z2)``, dropping points whose new weight
        is not positive and atoms left empty; ``fn`` is called as in
        :meth:`moment_measure`."""
        cells, atoms = self.cell_points.copy(), self.atom_points.copy()
        for points in (cells, atoms):
            points[2] *= fn(points[0], points[1])
        return self._rebuilt(cells, atoms, thin=True)

    def on_refinement(self, fine: TimeGrid, factor: int) -> "JumpMeasure":
        kernels = []
        for k in self.cell_kernels:
            kernels.extend([k] * factor)
        return JumpMeasure(fine, tuple(kernels), self.time_atoms)
