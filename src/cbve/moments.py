"""Linear backward system for first moments.

The mean of the process against a fixed pair lam solves a linear backward
system driven by the diagonal drifts and the effective cross drifts, with
the atom-exact steps and predictor/corrector cell passes of the nonlinear
solver.  Each step is a 2x2 matrix free of lam, so ``pi_k = Phi(k) lam``
with one propagator per node, built for all cells at once, and linearity
in lam, signed or not, holds by construction.  The passes are explicit, so
a cell whose step would amplify a decaying mode (stiff decaying drift on a
coarse grid) raises :class:`DiscretizationError` instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import Environment, effective_cross_drift
from .errors import DiscretizationError, NumericalError
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


def _compose(x, y):
    """``(I + x)(I + y) - I`` for ``(2, 2, n)`` stacks of deviations from I."""
    out = np.einsum("ijk,jlk->ilk", x, y)
    out += x
    out += y
    return out


def _check_stable(hA, npass: int) -> None:
    """Raise where a cell step ``C = p(hA)`` amplifies a decaying mode.

    The passes make C a polynomial in hA: ``p_1(z) = 1 + z``,
    ``p_n(z) = 1 + z (1 + p_{n-1}(z)) / 2``.  The cross drifts are
    nondecreasing, so hA is Metzler and its eigenvalues z are real; C has
    the eigenvalues p(z).  An eigenvalue z < 0 is a decaying mode, and
    ``|p(z)| > 1`` grows it, so the propagators would carry a wrong mean.
    Every p maps [-1, 0] into [0, 1], and by Gershgorin every z is at least
    ``min_i hA[i, i] - hA[i, j]``, so only cells where that bound is below
    -1 need their eigenvalues.
    """
    cells = np.flatnonzero(np.minimum(hA[0, 0] - hA[0, 1], hA[1, 1] - hA[1, 0]) < -1.0)
    if not cells.size:
        return
    (a, b), (c, d) = hA[:, :, cells]
    tau = 0.5 * (a + d)
    half = 0.5 * (a - d)
    q = np.sqrt(half * half + b * c)
    z = np.stack((tau - q, tau + q))
    p = 1.0 + z
    for _ in range(npass - 1):
        p = 1.0 + z * (1.0 + p) * 0.5
    bad = np.flatnonzero(((z < 0.0) & (np.abs(p) > 1.0)).any(axis=0))
    if bad.size:
        k = bad[0]
        raise DiscretizationError(
            f"moment cell step is unstable on stiff decaying drift (cell "
            f"{cells[k]}, amplification {float(np.max(np.abs(p[:, k]))):.3g}); "
            "refine the grid"
        )


def _propagators(env: Environment, M: int, npass: int) -> np.ndarray:
    """``Phi(k) - I`` for the backward propagators ``Phi(k) = P(k) ... P(M-1)``,
    ``(2, 2, M)``.  ``P(k) = C(k) (I - J(k+1))`` applies the atom at node k+1,
    then the passes ``C = I + hA``, ``C = I + hA (I + C) / 2`` over cell k;
    recursive doubling takes log2(M) whole-array products.  Carrying
    ``Phi - I`` rounds each product relative to the change it makes, where
    ``Phi`` itself would round a near-identity step alike on every cell of a
    constant stretch, an error that grows like M * eps.
    """
    bb12, bb21 = effective_cross_drift(env, 1, 2), effective_cross_drift(env, 2, 1)
    # in-place steps keep at most three (2, 2, M) arrays alive at a time
    hA = np.array(((-env.b11.density[:M], bb12.density[:M]),
                   (bb21.density[:M], -env.b22.density[:M]))) * env.grid.widths[:M]
    _check_stable(hA, npass)
    D = hA
    for _ in range(npass - 1):
        D = np.einsum("ijk,jlk->ilk", hA, D)
        D *= 0.5
        D += hA
    del hA
    a11, ab12, ab21, a22 = (meas.node_atom_masses[1:M + 1]
                            for meas in (env.b11, bb12, bb21, env.b22))
    E = _compose(D, np.array(((-a11, ab12), (ab21, -a22))))
    s = 1
    while s < M:
        E[:, :, :M - s] = _compose(E[:, :, :M - s], E[:, :, s:])
        s *= 2
    return E


def solve_moment(env: Environment, t: float, lam,
                 opts: SolverOptions | None = None) -> MomentSolution:
    """Solve the linear mean system for a signed terminal pair.

    A cell step that amplifies a decaying mode raises
    :class:`DiscretizationError`; a mean that overflows raises
    :class:`NumericalError`.
    """
    opts = opts or _DEFAULT_OPTS
    env.require_valid()
    lam1, lam2 = float(lam[0]), float(lam[1])
    if not (math.isfinite(lam1) and math.isfinite(lam2)):
        raise ValueError("lambda must be finite")
    M = env.grid.index_of(t)
    with np.errstate(over="ignore", invalid="ignore"):
        E = _propagators(env, M, opts.cell_fixed_point_iters)
        pi = np.vstack(((E[:, 0] * lam1 + E[:, 1] * lam2).T + (lam1, lam2), (lam1, lam2)))
    if not np.all(np.isfinite(pi)):
        raise NumericalError("moment propagator produced non-finite values")
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
    ir = env.grid.index_of(r)
    if ir > env.grid.index_of(t):
        raise ValueError("need r <= t")
    sol = solve_moment(env, t, lam, opts)
    return x1 * float(sol.pi[ir, 0]) + x2 * float(sol.pi[ir, 1])
