"""Linear backward system for first moments.

The mean of the process against a fixed pair lam solves a linear backward
system driven by the diagonal drifts and the effective cross drifts.  The
sweep shares the atom-exact stepping and the predictor/corrector cell
passes of the nonlinear solver.  Signed lam always routes through the
axis decomposition sgn(lam_1) (|lam_1|, 0) + sgn(lam_2) (0, |lam_2|), so
there is a single code path and linearity holds to rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import Environment
from .errors import NumericalError
from .measures import TimeGrid
from .solver import SolverOptions, _DEFAULT_OPTS, solve_general

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

    def value_at(self, r: float) -> np.ndarray:
        if r < 0.0 or r > self.t:
            raise ValueError("r outside [0, t]")
        idx = int(np.searchsorted(self.grid.nodes[: self.terminal_index + 1], r))
        return self.pi[min(idx, self.terminal_index)].copy()


def _moment_axis(env: Environment, M: int, lam1: float, lam2: float,
                 npass: int) -> np.ndarray:
    cells, atoms = env._table
    pi = np.empty((M + 1, 2))
    pi[M, 0], pi[M, 1] = lam1, lam2
    p1, p2 = lam1, lam2
    for k in range(M - 1, -1, -1):
        a = atoms.get(k + 1)
        if a is not None:
            a11, a22, ab12, ab21, _, _, _, _ = a
            q1 = ab12 * p2 - a11 * p1
            q2 = ab21 * p1 - a22 * p2
            p1 += q1
            p2 += q2
        h, b11d, b22d, bb12d, bb21d, _, _, _, _ = cells[k]
        d1 = bb12d * p2 - b11d * p1
        d2 = bb21d * p1 - b22d * p2
        c1 = p1 + h * d1
        c2 = p2 + h * d2
        for _ in range(npass - 1):
            e1 = bb12d * c2 - b11d * c1
            e2 = bb21d * c1 - b22d * c2
            c1 = p1 + 0.5 * h * (d1 + e1)
            c2 = p2 + 0.5 * h * (d2 + e2)
        p1, p2 = c1, c2
        if not (math.isfinite(p1) and math.isfinite(p2)):
            raise NumericalError("moment sweep produced non-finite values")
        pi[k, 0], pi[k, 1] = p1, p2
    return pi


def solve_moment(env: Environment, t: float, lam,
                 opts: SolverOptions | None = None) -> MomentSolution:
    """Solve the linear mean system for a signed terminal pair."""
    opts = opts or _DEFAULT_OPTS
    env.require_valid()
    lam1, lam2 = float(lam[0]), float(lam[1])
    if not (math.isfinite(lam1) and math.isfinite(lam2)):
        raise ValueError("lambda must be finite")
    M = env.grid.index_of(t)
    npass = opts.cell_fixed_point_iters
    axis1 = _moment_axis(env, M, abs(lam1), 0.0, npass)
    axis2 = _moment_axis(env, M, 0.0, abs(lam2), npass)
    sgn1 = math.copysign(1.0, lam1) if lam1 != 0.0 else 0.0
    sgn2 = math.copysign(1.0, lam2) if lam2 != 0.0 else 0.0
    pi = sgn1 * axis1 + sgn2 * axis2
    pi[M, 0], pi[M, 1] = lam1, lam2
    return MomentSolution(t=float(env.grid.nodes[M]), lam=(lam1, lam2),
                          grid=env.grid, pi=pi)


def finite_diff_check(env: Environment, t: float, lam, h: float,
                      opts: SolverOptions | None = None):
    """Residual of the forward difference v(h lam) / h against the mean system.

    Returns the max node-wise residual per type; first order in h because
    the backward solution vanishes at lam = 0.
    """
    if not 0.0 < h <= 0.1:
        raise ValueError("h must lie in (0, 0.1]")
    lam1, lam2 = float(lam[0]), float(lam[1])
    if lam1 < 0.0 or lam2 < 0.0:
        raise ValueError("lambda must be componentwise nonnegative")
    sol_v = solve_general(env, t, (h * lam1, h * lam2), opts)
    sol_pi = solve_moment(env, t, (lam1, lam2), opts)
    diff = np.abs(sol_v.v / h - sol_pi.pi)
    return float(np.max(diff[:, 0])), float(np.max(diff[:, 1]))


def mean_of_transition(env: Environment, r: float, t: float, x, lam,
                       opts: SolverOptions | None = None) -> float:
    """Mean of <lam, X_t> started from state x at time r."""
    x1, x2 = float(x[0]), float(x[1])
    if x1 < 0.0 or x2 < 0.0:
        raise ValueError("state must be componentwise nonnegative")
    sol = solve_moment(env, t, lam, opts)
    ir = env.grid.index_of(r)
    return x1 * float(sol.pi[ir, 0]) + x2 * float(sol.pi[ir, 1])
