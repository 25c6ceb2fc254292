"""Branching-mechanism functionals.

The mechanism of an environment assigns to a nonnegative pair-valued grid
function f and an interval (r, t] the combined drift, cross-drift,
diffusion and jump contribution that drives the backward system.  The
special-form counterpart does the same for finite-activity coefficients.
Evaluation follows the measures module conventions: atoms exact,
densities at the right endpoint of each cell, matching the right-closed
interval convention and the backward stepping direction.
The jump part is one elementwise evaluation on the kernel's padded
``cell_points``/``atom_points``, summed slot by slot like ``moment_measure``.
"""
from __future__ import annotations

import math

import numpy as np

from .environment import (
    Environment,
    SpecialForm,
    effective_cross_drift,
    _admissibility_integrand,
    _other,
)
from .measures import StieltjesMeasure, _slot_sums
from .solver import _pair

__all__ = [
    "compensated_jump_kernel",
    "partially_compensated_jump_kernel",
    "as_vector_function",
    "mechanism_increment",
    "mechanism_atom_increment",
    "special_mechanism_increment",
    "lipschitz_constants",
]


def compensated_jump_kernel(lam, z) -> float:
    """exp(-<lam, z>) - 1 + <lam, z>; nonnegative, at most <lam, z>^2 / 2."""
    x = lam[0] * z[0] + lam[1] * z[1]
    return math.expm1(-x) + x


def partially_compensated_jump_kernel(i: int, lam, z) -> float:
    """exp(-<lam, z>) - 1 + lam_i z_i; may be negative when lam_j z_j > 0."""
    _other(i)  # raises unless i is 1 or 2
    x = lam[0] * z[0] + lam[1] * z[1]
    return math.expm1(-x) + lam[i - 1] * z[i - 1]


def as_vector_function(grid, values) -> np.ndarray:
    """Validate a node-indexed nonnegative pair function, shape (nodes, 2)."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (grid.nodes.size, 2):
        raise ValueError("vector function must be (n_nodes, 2)")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("vector function must be finite and nonnegative")
    return arr


def _kernel_sums(points, f1, f2, kernel) -> np.ndarray:
    """Sum of ``kernel(f1 z1 + f2 z2) * weight`` per set of padded
    ``points``, with f1, f2 one value per set or scalars."""
    return _slot_sums(lambda z1, z2: kernel(f1 * z1 + f2 * z2), points)


def _full_kernel(x):
    return np.expm1(-x) + x


def _jump_part(jump, f, r, t, kernel):
    """Integrate the sum of kernel(<f(s), z>) * weight over (r, t] for one
    type: cell densities at the right endpoint, atoms on nodes in (r, t]."""
    ir, it = jump.grid.index_of(r), jump.grid.index_of(t)
    dens = _kernel_sums(jump.cell_points[:, :, ir:it], *f[ir + 1 : it + 1].T, kernel)
    nodes = jump.atom_nodes
    on = (ir < nodes) & (nodes <= it)
    masses = _kernel_sums(jump.atom_points[:, :, on], *f[nodes[on]].T, kernel)
    return float(np.sum(jump.grid.widths[ir:it] * dens)) + float(np.sum(masses))


def mechanism_increment(env: Environment, i: int, f, r: float, t: float) -> float:
    """Mechanism mass of type i over (r, t] for a grid function f.

    Combines the diagonal drift against f_i, the effective cross drift
    against f_j, the diffusion against f_i^2 and the fully compensated
    jump kernel; the jump integral is an exact finite sum in space.
    """
    j = _other(i)
    f = as_vector_function(env.grid, f)
    fi, fj = f[:, i - 1], f[:, j - 1]
    total = env.b_diag(i).integrate(fi, r, t)
    total -= effective_cross_drift(env, i, j).integrate(fj, r, t)
    total += env.c_diag(i).integrate(fi * fi, r, t)
    total += _jump_part(env.m_jump(i), f, r, t, _full_kernel)
    return total


def mechanism_atom_increment(env: Environment, i: int, lam, s: float) -> float:
    """Mechanism mass concentrated at the single time atom s."""
    j = _other(i)
    lam = _pair(lam)
    out = env.b_diag(i).atom_mass_at(s) * lam[i - 1]
    out -= effective_cross_drift(env, i, j).atom_mass_at(s) * lam[j - 1]
    jump = env.m_jump(i)
    on = jump.atom_nodes == env.grid.index_of(s)
    out += float(np.sum(_kernel_sums(jump.atom_points[:, :, on], *lam, _full_kernel)))
    return out


def special_mechanism_increment(sf: SpecialForm, i: int, f, r: float, t: float) -> float:
    """Finite-activity mechanism mass of type i over (r, t] (negated drift form):
    -(integral of f_i against gamma_ii) - (f_j against gamma_ij)
    - (1 - exp(-<f, z>)) against mu_i."""
    j = _other(i)
    f = as_vector_function(sf.grid, f)
    fi, fj = f[:, i - 1], f[:, j - 1]
    total = -sf.gamma_diag(i).integrate(fi, r, t)
    total -= sf.gamma_cross(i, j).integrate(fj, r, t)
    total -= _jump_part(sf.mu_jump(i), f, r, t, lambda x: -np.expm1(-x))
    return total


def lipschitz_constants(env: Environment, f, g, t: float):
    """Constants (C1, C2 measure) bounding the mechanism's f-dependence.

    C1 is the sup over nodes up to t of f1 + f2 + g1 + g2, plus 1; C2 is the
    coefficient-variation measure: diffusion parts, doubled jump moments,
    diagonal variations and cross drifts.
    """
    env.require_valid()
    f = as_vector_function(env.grid, f)
    g = as_vector_function(env.grid, g)
    it = env.grid.index_of(t)
    c1 = float(np.max(f[: it + 1].sum(axis=1) + g[: it + 1].sum(axis=1))) + 1.0
    terms = [
        (1.0, env.c1),
        (1.0, env.c2),
        (2.0, env.m1.moment_measure(_admissibility_integrand(1))),
        (2.0, env.m2.moment_measure(_admissibility_integrand(2))),
        (1.0, env.b11.abs()),
        (1.0, env.b22.abs()),
        (1.0, env.b12),
        (1.0, env.b21),
    ]
    c2 = StieltjesMeasure.linear_combination(env.grid, terms)
    return c1, c2
