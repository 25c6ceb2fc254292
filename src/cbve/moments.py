"""Linear backward system for first moments.

The mean of the process against a fixed pair lam solves a linear backward
system driven by the diagonal drifts and the effective cross drifts.  Its
coefficients are constant on each cell, so the cell step is the exact 2x2
exponential ``exp(hA)``, in closed form (:func:`cbve.compiled._expm1_cells`),
and the atoms take the atom-exact steps of the nonlinear solver.  Each step
is a 2x2 matrix free of lam, compiled once per model, so ``pi_k = Phi(k)
lam`` with one propagator per node, built for all cells below t at once,
and linearity in lam, signed or not, holds by construction.  A stiff
decaying cell gives its exact, finite step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compiled import _compose
from .environment import Environment
from .errors import NumericalError
from .measures import TimeGrid
from .solver import _pair, solve_general

__all__ = ["MomentSolution", "solve_moment", "finite_diff_check", "mean_of_transition"]


@dataclass(frozen=True, eq=False)
class MomentSolution:
    """Grid-indexed mean coefficients for one terminal pair (t, lam)."""

    t: float
    lam: tuple
    grid: TimeGrid
    pi: np.ndarray

    @property
    def terminal_index(self) -> int:
        return self.pi.shape[0] - 1


def _propagators(env: Environment, M: int) -> np.ndarray:
    """``Phi(k) - I`` for the backward propagators ``Phi(k) = P(k) ... P(M-1)``,
    ``(2, 2, M)``, from the model's compiled steps ``P(k) - I`` (see
    :func:`cbve.compiled.mean_steps`): recursive doubling takes log2(M)
    whole-array products.  Carrying ``Phi - I`` rounds each product
    relative to the change it makes, where ``Phi`` itself would round a
    near-identity step alike on every cell of a constant stretch, an
    error that grows like M * eps.
    """
    E = env._mean_steps[:, :, :M].copy()
    s = 1
    while s < M:
        E[:, :, :M - s] = _compose(E[:, :, :M - s], E[:, :, s:])
        s *= 2
    return E


def solve_moment(env: Environment, t: float, lam) -> MomentSolution:
    """Solve the linear mean system for a signed terminal pair.

    The coefficients are constant on each cell, so each cell step is exact
    and pi is the exact mean of the model on its own grid, stiff cells
    included; a mean that overflows raises :class:`NumericalError`.  pi is
    formed in one ``(M + 1, 2)`` array from the solve's own propagators,
    scaled in place, with no temporaries of their size.
    """
    lam1, lam2 = _pair(lam, signed=True)
    M = env.grid.index_of(t)
    with np.errstate(over="ignore", invalid="ignore"):
        E = _propagators(env, M)
        # E[:, 0] lam1 + E[:, 1] lam2 + lam below t, in that order, in place
        E[:, 0] *= lam1
        E[:, 1] *= lam2
        pi = np.empty((M + 1, 2))
        np.add(E[:, 0], E[:, 1], out=pi[:M].T)
        pi[:M] += (lam1, lam2)
    pi[M] = lam1, lam2
    if not np.all(np.isfinite(pi)):
        raise NumericalError("moment propagator produced non-finite values")
    return MomentSolution(t=float(env.grid.nodes[M]), lam=(lam1, lam2),
                          grid=env.grid, pi=pi)


def finite_diff_check(env: Environment, t: float, lam, h: float):
    """Residual of the forward difference v(h lam) / h against the mean system.

    Returns the max node-wise residual per type: first order in h, because
    the backward solution vanishes at lam = 0, plus the gap between the
    sweep's two-pass cell steps and the exact ones of the mean system.
    """
    if not 0.0 < h <= 0.1:
        raise ValueError("h must lie in (0, 0.1]")
    lam = _pair(lam)
    return _finite_diff(env, t, lam, h, solve_moment(env, t, lam).pi)


def _finite_diff(env: Environment, t: float, lam, h: float, pi: np.ndarray):
    """:func:`finite_diff_check` against ``pi``, the solved mean for lam."""
    diff = np.abs(solve_general(env, t, (h * lam[0], h * lam[1])).v / h - pi)
    return float(np.max(diff[:, 0])), float(np.max(diff[:, 1]))


def mean_of_transition(env: Environment, r: float, t: float, x, lam) -> float:
    """Mean of <lam, X_t> started from state x at time r.  ``x`` must be finite
    and nonnegative, ``lam`` finite (it may be signed), else ``ValueError``."""
    x1, x2 = _pair(x, "state")
    ir = env.grid.index_of(r)
    if ir > env.grid.index_of(t):
        raise ValueError("need r <= t")
    sol = solve_moment(env, t, lam)
    return x1 * float(sol.pi[ir, 0]) + x2 * float(sol.pi[ir, 1])
