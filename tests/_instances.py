"""Shared model builders for the test suite."""
from __future__ import annotations

import numpy as np

from cbve import (
    Environment,
    JumpMeasure,
    SpecialForm,
    StieltjesMeasure,
    TimeGrid,
)


def uniform_grid(T=1.0, cells=200) -> TimeGrid:
    return TimeGrid(np.linspace(0.0, T, cells + 1))


def make_env(grid, b11=None, b22=None, b12=None, b21=None, c1=None, c2=None,
             m1=None, m2=None) -> Environment:
    z = StieltjesMeasure.zero
    return Environment(
        grid,
        b11 if b11 is not None else z(grid),
        b22 if b22 is not None else z(grid),
        b12 if b12 is not None else z(grid, True),
        b21 if b21 is not None else z(grid, True),
        c1 if c1 is not None else z(grid, True),
        c2 if c2 is not None else z(grid, True),
        m1 if m1 is not None else JumpMeasure.zero(grid),
        m2 if m2 is not None else JumpMeasure.zero(grid),
    )


def make_sf(grid, g11=None, g22=None, g12=None, g21=None, mu1=None, mu2=None
            ) -> SpecialForm:
    z = StieltjesMeasure.zero
    return SpecialForm(
        grid,
        g11 if g11 is not None else z(grid),
        g22 if g22 is not None else z(grid),
        g12 if g12 is not None else z(grid, True),
        g21 if g21 is not None else z(grid, True),
        mu1 if mu1 is not None else JumpMeasure.zero(grid),
        mu2 if mu2 is not None else JumpMeasure.zero(grid),
    )


def mc_cases() -> list:
    """The five criterion-8 special forms as (form, x0, lam): jumps feeding
    the other type, cross drifts, atoms with an atom batch, signed diagonal
    densities, and multi-point kernels on both types."""
    grid8 = uniform_grid(cells=8)
    grid16 = uniform_grid(cells=16)
    cases = []
    # 1: single-type jumps feeding the other type
    cases.append((
        make_sf(grid8, mu1=JumpMeasure.from_segments(grid8, [(0.0, 1.0, [(0.0, 1.0, 1.0)])])),
        (1.0, 0.0), (1.0, 1.0),
    ))
    # 2: cross drifts with a two-coordinate kernel
    cases.append((
        make_sf(
            grid8,
            g12=StieltjesMeasure.from_segments(grid8, [(0.0, 1.0, 0.5)], (), True),
            g21=StieltjesMeasure.from_segments(grid8, [(0.0, 1.0, 0.3)], (), True),
            mu1=JumpMeasure.from_segments(grid8, [(0.0, 1.0, [(0.3, 0.7, 0.6)])]),
        ),
        (1.0, 0.5), (0.8, 1.2),
    ))
    # 3: deterministic atoms plus an atom batch of jumps
    cases.append((
        make_sf(
            grid16,
            g11=StieltjesMeasure(grid16, np.zeros(16), ((0.5, -0.4),)),
            g21=StieltjesMeasure(grid16, np.zeros(16), ((0.5, 0.3),), True),
            mu2=JumpMeasure.from_segments(
                grid16, [(0.0, 1.0, [(0.2, 0.1, 0.4)])], [(0.5, [(0.5, 0.5, 0.7)])]
            ),
        ),
        (0.8, 1.0), (1.0, 0.6),
    ))
    # 4: signed diagonal densities with large jumps
    cases.append((
        make_sf(
            grid8,
            g11=StieltjesMeasure.from_segments(grid8, [(0.0, 1.0, -0.6)]),
            g22=StieltjesMeasure.from_segments(grid8, [(0.0, 1.0, 0.4)]),
            mu1=JumpMeasure.from_segments(grid8, [(0.0, 1.0, [(1.0, 0.0, 0.8)])]),
        ),
        (1.0, 1.0), (0.7, 0.9),
    ))
    # 5: mixed atoms, multi-point kernels on both types
    cases.append((
        make_sf(
            grid16,
            g12=StieltjesMeasure.from_segments(
                grid16, [(0.0, 1.0, 0.4)], ((0.75, 0.2),), True
            ),
            mu1=JumpMeasure.from_segments(
                grid16, [(0.0, 1.0, [(0.4, 0.1, 0.5), (0.1, 0.6, 0.3)])]
            ),
            mu2=JumpMeasure.from_segments(grid16, [(0.0, 1.0, [(0.0, 0.8, 0.7)])]),
        ),
        (1.2, 0.3), (1.1, 0.5),
    ))
    return cases


def feller_environment(cells=10000, b=1.0, c=1.0, T=1.0) -> Environment:
    grid = uniform_grid(T, cells)
    return make_env(
        grid,
        b11=StieltjesMeasure.from_segments(grid, [(0.0, T, b)]),
        c1=StieltjesMeasure.from_segments(grid, [(0.0, T, c)], (), True),
    )


def feller_oracle(b, c, lam, tau):
    """Closed-form backward solution of the scalar quadratic subcase."""
    import math

    e = math.exp(-b * tau)
    return lam * e / (1.0 + lam * (c / b) * (1.0 - e))


def bottleneck_environment(cells=1000, T=1.0) -> Environment:
    grid = uniform_grid(T, cells)
    return make_env(grid, b11=StieltjesMeasure(grid, np.zeros(cells), ((0.5, 1.0),)))


def atom_edge_environments(cells=40, T=1.0) -> list:
    """Environments whose atoms sit at the edge of admissibility: bottlenecks
    of either type, a type-1 load of exactly 1 shared with a cross-drift
    atom or made up of a drift and an own-coordinate jump atom (neither a
    bottleneck), and a load of 1.2 that fails validation."""
    grid = uniform_grid(T, cells)
    at = [float(grid.nodes[cells * k // 4]) for k in (1, 2, 3)]

    def drift(*atoms, nondecreasing=False):
        return StieltjesMeasure(grid, np.full(cells, 0.3), tuple(atoms), nondecreasing)

    kernel = JumpMeasure.from_segments(
        grid, [(0.0, T, [(0.4, 0.2, 0.5)])], [(at[1], [(0.5, 0.0, 0.8)])])
    return [
        make_env(grid, b11=drift((at[0], 1.0)), b22=drift((at[2], 1.0)), m1=kernel),
        make_env(grid, b11=drift((at[0], 1.0)), b12=drift((at[0], 0.2), nondecreasing=True)),
        make_env(grid, b11=drift((at[1], 0.6)), m1=kernel),
        make_env(grid, b22=drift((at[1], 1.2), (at[2], 1.0))),
    ]


def _segment_density(rng, cells, lo, hi):
    n_cuts = int(rng.integers(0, 3))
    cuts = sorted(rng.choice(np.arange(1, cells), size=n_cuts, replace=False).tolist())
    bounds = [0] + cuts + [cells]
    dens = np.zeros(cells)
    for a, b in zip(bounds[:-1], bounds[1:]):
        dens[a:b] = rng.uniform(lo, hi)
    return dens


def _random_points(rng, max_points=2, w_hi=0.6):
    pts = []
    for _ in range(int(rng.integers(0, max_points + 1))):
        z1, z2 = rng.uniform(0.0, 1.2, size=2)
        if z1 + z2 <= 0.0:
            z1 = 0.5
        pts.append((float(z1), float(z2), float(rng.uniform(0.05, w_hi))))
    return tuple(pts)


def _random_jump(rng, grid, atom_nodes=(), atom_w_hi=0.25) -> JumpMeasure:
    from cbve.measures import DiscreteSpatialMeasure

    cells = grid.n_cells
    spatial_a = DiscreteSpatialMeasure(_random_points(rng))
    spatial_b = DiscreteSpatialMeasure(_random_points(rng))
    split = int(rng.integers(0, cells + 1))
    kernels = tuple(spatial_a if k < split else spatial_b for k in range(cells))
    atoms = []
    for idx in atom_nodes:
        pts = _random_points(rng, max_points=1, w_hi=atom_w_hi)
        if pts:
            atoms.append((float(grid.nodes[idx]), DiscreteSpatialMeasure(pts)))
    return JumpMeasure(grid, kernels, tuple(atoms))


def random_environment(rng, cells=200, T=1.0, with_atoms=True) -> Environment:
    """Admissible random environment: mixed densities, optional atoms.

    Atom magnitudes are kept small enough that every diagonal atom load
    stays below 1 (drift jumps at most 0.6, jump-atom own mass at most
    0.3), so admissibility holds by construction.
    """
    grid = uniform_grid(T, cells)
    n_atoms = int(rng.integers(1, 4)) if with_atoms else 0
    atom_nodes = sorted(
        rng.choice(np.arange(1, cells), size=n_atoms, replace=False).tolist()
    )

    def scalar(lo, hi, atoms=(), nondecreasing=False):
        dens = _segment_density(rng, cells, lo, hi)
        if nondecreasing:
            dens = np.abs(dens)
        return StieltjesMeasure(grid, dens, atoms, nondecreasing)

    b11_atoms = tuple(
        (float(grid.nodes[i]), float(rng.uniform(-0.4, 0.6)))
        for i in atom_nodes
        if rng.random() < 0.7
    )
    b12_atoms = tuple(
        (float(grid.nodes[i]), float(rng.uniform(0.0, 0.3)))
        for i in atom_nodes
        if rng.random() < 0.4
    )
    jump_atom_nodes = [i for i in atom_nodes if rng.random() < 0.4]
    return make_env(
        grid,
        b11=scalar(-0.6, 0.6, b11_atoms),
        b22=scalar(-0.6, 0.6),
        b12=scalar(0.0, 0.4, b12_atoms, True),
        b21=scalar(0.0, 0.4, (), True),
        c1=scalar(0.0, 0.4, (), True),
        c2=scalar(0.0, 0.4, (), True),
        m1=_random_jump(rng, grid, jump_atom_nodes),
        m2=_random_jump(rng, grid),
    )


def random_special_form(rng, cells=200, T=1.0, diag="atoms") -> SpecialForm:
    """Random finite-activity coefficients.

    ``diag`` picks the diagonal drift richness: "none" (zero), "atoms"
    (pure jumps above -1) or "density" (signed piecewise densities).
    """
    grid = uniform_grid(T, cells)
    n_atoms = int(rng.integers(1, 4))
    atom_nodes = sorted(
        rng.choice(np.arange(1, cells), size=n_atoms, replace=False).tolist()
    )

    def diag_measure():
        if diag == "none":
            return StieltjesMeasure.zero(grid)
        if diag == "atoms":
            atoms = tuple(
                (float(grid.nodes[i]), float(rng.uniform(-0.5, 0.6)))
                for i in atom_nodes
                if rng.random() < 0.8
            )
            return StieltjesMeasure(grid, np.zeros(cells), atoms)
        return StieltjesMeasure(grid, _segment_density(rng, cells, -0.6, 0.6))

    def cross_measure():
        atoms = tuple(
            (float(grid.nodes[i]), float(rng.uniform(0.0, 0.3)))
            for i in atom_nodes
            if rng.random() < 0.4
        )
        return StieltjesMeasure(
            grid, np.abs(_segment_density(rng, cells, 0.0, 0.5)), atoms, True
        )

    jump_atom_nodes = [i for i in atom_nodes if rng.random() < 0.5]
    return make_sf(
        grid,
        g11=diag_measure(),
        g22=diag_measure(),
        g12=cross_measure(),
        g21=cross_measure(),
        mu1=_random_jump(rng, grid, jump_atom_nodes),
        mu2=_random_jump(rng, grid),
    )


def random_pure_jump_zeta(rng, grid, max_atoms=3) -> StieltjesMeasure:
    """Piecewise-constant cadlag scale function: atoms only, no density."""
    cells = grid.n_cells
    n = int(rng.integers(1, max_atoms + 1))
    nodes = sorted(rng.choice(np.arange(1, cells), size=n, replace=False).tolist())
    atoms = tuple(
        (float(grid.nodes[i]), float(rng.uniform(-0.6, 0.6))) for i in nodes
    )
    return StieltjesMeasure(grid, np.zeros(cells), atoms)


def random_lambda(rng, hi=2.0):
    return (float(rng.uniform(0.05, hi)), float(rng.uniform(0.05, hi)))
