"""Branching-mechanism functionals.

The mechanism of an environment assigns to a nonnegative pair-valued grid
function f and an interval (r, t] the combined drift, cross-drift,
diffusion and jump contribution that drives the backward system.  The
special-form counterpart does the same for finite-activity coefficients.
Evaluation follows the measures module conventions: atoms exact,
densities per endpoint rule (right endpoint by default, matching the
right-closed interval convention and the backward stepping direction).
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
from .measures import StieltjesMeasure

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
    if i not in (1, 2):
        raise ValueError("type index must be 1 or 2")
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
    for t_at, spatial, idx in jump._atom_entries:
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


def mechanism_increment(env: Environment, i: int, f, r: float, t: float,
                        rule: str = "right") -> float:
    """Mechanism mass of type i over (r, t] for a grid function f.

    Combines the diagonal drift against f_i, the effective cross drift
    against f_j, the diffusion against f_i^2 and the fully compensated
    jump kernel; the jump integral is an exact finite sum in space.
    """
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


def mechanism_atom_increment(env: Environment, i: int, lam, s: float) -> float:
    """Mechanism mass concentrated at the single time atom s."""
    j = _other(i)
    out = env.b_diag(i).atom_mass_at(s) * lam[i - 1]
    out -= effective_cross_drift(env, i, j).atom_mass_at(s) * lam[j - 1]
    pts = env.m_jump(i).atom_at(s).points
    if pts:
        out += _full_kernel_sum((lam[0], lam[1]), pts)
    return out


def special_mechanism_increment(sf: SpecialForm, i: int, f, r: float, t: float,
                                rule: str = "right") -> float:
    """Finite-activity mechanism mass of type i over (r, t] (negated drift form):
    -(integral of f_i against gamma_ii) - (f_j against gamma_ij)
    - (1 - exp(-<f, z>)) against mu_i."""
    j = _other(i)
    f = as_vector_function(sf.grid, f)
    fi, fj = f[:, i - 1], f[:, j - 1]
    total = -sf.gamma_diag(i).integrate(fi, r, t, rule)
    total -= sf.gamma_cross(i, j).integrate(fj, r, t, rule)
    ir, it = sf.grid.index_of(r), sf.grid.index_of(t)
    total -= _jump_part(sf.mu_jump(i), f, ir, it, sf.grid.widths, rule,
                        _one_minus_exp_sum)
    return total


def lipschitz_constants(env: Environment, f, g, t: float):
    """Constants (C1, C2 measure) bounding the mechanism's f-dependence.

    C1 is the sup over nodes up to t of f1 + f2 + g1 + g2, plus 1; C2 is the
    coefficient-variation measure: diffusion parts, doubled jump moments,
    diagonal variations and cross drifts.
    """
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
    c2 = StieltjesMeasure.linear_combination(env.grid, terms, nondecreasing=True)
    return c1, c2
