"""Exact forward simulation of the finite-activity process.

Between time atoms the state follows the linear flow of the drift
densities (closed-form 2x2 matrix exponentials per constant-coefficient
cell).  Type-i branch jumps arrive at instantaneous rate
``X_i(s-) * (total kernel weight of the type-i jump kernel on the cell)``
and are sampled exactly by thinning against a per-cell majorant that is
recomputed after every candidate.  At a time atom the state is updated by
the deterministic jump matrix and then receives a compound-Poisson batch
of branch jumps whose mean uses the pre-atom state.  No step of the
simulation discretizes time, so Monte-Carlo estimates are unbiased.
This module holds only the event loop and the Monte-Carlo reductions; the
per-cell flow matrices, majorant rates and cumulative kernel weights come
from :func:`cbve.compiled.sim_table`, built once per special form and
cached on it.

Reproducibility: paths are driven by independent generators derived from
a master seed; the derivation rule is fixed and documented on
:class:`SeedSpec`, so a seed determines the path set bit for bit,
independent of execution order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compiled import _expm2
from .environment import SpecialForm, special_to_general
from .errors import NumericalError
from .moments import solve_moment
from .solver import SolverOptions, solve_special_picard

__all__ = ["SeedSpec", "PathEvent", "MCEstimate", "simulate_path", "mc_laplace", "mc_mean"]

_MAX_STATE = 1e12
_MAX_CANDIDATES = 10_000_000


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic per-path random streams from one 64-bit master seed.

    Path k uses ``numpy.random.default_rng(SeedSequence(master_seed,
    spawn_key=(k,)))``.  Streams for distinct path indices are independent
    and do not depend on the order in which paths are generated.
    """

    master_seed: int

    def generator(self, path_index: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(path_index,))
        return np.random.default_rng(seq)


@dataclass(frozen=True)
class PathEvent:
    """One state change: a deterministic time atom or a branch jump.

    ``type_source`` is the branching type (1 or 2) for jumps and 0 for
    deterministic atom updates; ``delta`` is the state increment and
    ``x_after`` the state right after the event.
    """

    time: float
    kind: str
    type_source: int
    delta: tuple
    x_after: tuple


@dataclass(frozen=True)
class MCEstimate:
    """Monte-Carlo estimate with its deterministic target and z-score."""

    n_paths: int
    estimate: float
    std_error: float
    target: float
    z_score: float


def _draw_point(points, cumw, total, rng):
    u = rng.random() * total
    for idx, cw in enumerate(cumw):
        if u < cw:
            return points[idx]
    return points[-1]


def _simulate(system, M: int, x1: float, x2: float, rng, events):
    cells, atoms, nodes = system
    candidates = 0
    for k in range(M):
        h, G, full, pts1, cw1, w1, pts2, cw2, w2, tv, zrate = cells[k]
        cell_end = float(nodes[k + 1])
        rem = h
        totw = w1 + w2
        while x1 + x2 > 0.0:
            if totw <= 0.0:
                if rem == h:
                    e11, e12, e21, e22 = full
                else:
                    e11, e12, e21, e22 = _expm2(G[0] * rem, G[1] * rem,
                                                G[2] * rem, G[3] * rem)
                x1, x2 = e11 * x1 + e12 * x2, e21 * x1 + e22 * x2
                break
            majorant = (x1 + x2) * math.exp(tv * rem) * (1.0 + zrate * rem) * totw
            gap = rng.exponential(1.0 / majorant)
            candidates += 1
            if candidates > _MAX_CANDIDATES:
                raise NumericalError("thinning candidate budget exhausted")
            if gap >= rem:
                if rem == h:
                    e11, e12, e21, e22 = full
                else:
                    e11, e12, e21, e22 = _expm2(G[0] * rem, G[1] * rem,
                                                G[2] * rem, G[3] * rem)
                x1, x2 = e11 * x1 + e12 * x2, e21 * x1 + e22 * x2
                break
            e11, e12, e21, e22 = _expm2(G[0] * gap, G[1] * gap,
                                        G[2] * gap, G[3] * gap)
            x1, x2 = e11 * x1 + e12 * x2, e21 * x1 + e22 * x2
            rem -= gap
            rate1 = x1 * w1
            rate2 = x2 * w2
            total_rate = rate1 + rate2
            if rng.random() * majorant < total_rate:
                if rng.random() * total_rate < rate1:
                    z1, z2, _ = _draw_point(pts1, cw1, w1, rng)
                    src = 1
                else:
                    z1, z2, _ = _draw_point(pts2, cw2, w2, rng)
                    src = 2
                x1 += z1
                x2 += z2
                if events is not None:
                    events.append(PathEvent(cell_end - rem, "branch_jump", src,
                                            (z1, z2), (x1, x2)))
            if not (x1 + x2 <= _MAX_STATE):
                raise NumericalError("simulated state overflow")
        # the flow-only exits above skip the in-loop check; NaN fails it too
        if not (x1 + x2 <= _MAX_STATE):
            raise NumericalError("simulated state overflow")
        if x1 < 0.0 or x2 < 0.0:
            if min(x1, x2) < -1e-9:
                raise NumericalError("simulated state left the quadrant")
            x1, x2 = max(x1, 0.0), max(x2, 0.0)
        a = atoms.get(k + 1)
        if a is not None:
            A, apts1, acw1, aw1, apts2, acw2, aw2 = a
            ox1, ox2 = x1, x2
            x1 = A[0] * ox1 + A[1] * ox2
            x2 = A[2] * ox1 + A[3] * ox2
            if events is not None:
                events.append(PathEvent(cell_end, "deterministic_atom", 0,
                                        (x1 - ox1, x2 - ox2), (x1, x2)))
            for i, (apts, acw, aw) in ((1, (apts1, acw1, aw1)),
                                       (2, (apts2, acw2, aw2))):
                if aw <= 0.0:
                    continue
                mean = (ox1 if i == 1 else ox2) * aw
                if mean <= 0.0:
                    continue
                count = int(rng.poisson(mean))
                for _ in range(count):
                    z1, z2, _ = _draw_point(apts, acw, aw, rng)
                    x1 += z1
                    x2 += z2
                    if events is not None:
                        events.append(PathEvent(cell_end, "branch_jump", i,
                                                (z1, z2), (x1, x2)))
            if not (x1 + x2 <= _MAX_STATE):
                raise NumericalError("simulated state overflow")
    return x1, x2


def _resolve_rng(seed, path_index=0):
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, SeedSpec):
        return seed.generator(path_index)
    return SeedSpec(int(seed)).generator(path_index)


def simulate_path(sf: SpecialForm, x0, t: float, seed):
    """Simulate one path up to time t; returns (final state, event list)."""
    x1, x2 = float(x0[0]), float(x0[1])
    if x1 < 0.0 or x2 < 0.0:
        raise ValueError("initial state must be componentwise nonnegative")
    M = sf.grid.index_of(t)
    system = sf._sim_table
    rng = _resolve_rng(seed)
    events: list[PathEvent] = []
    fx1, fx2 = _simulate(system, M, x1, x2, rng, events)
    return (fx1, fx2), events


def _mc_run(sf, x0, t, n_paths, seed, functional):
    if n_paths < 100:
        raise ValueError("need at least 100 paths")
    x1, x2 = float(x0[0]), float(x0[1])
    if x1 < 0.0 or x2 < 0.0:
        raise ValueError("initial state must be componentwise nonnegative")
    M = sf.grid.index_of(t)
    system = sf._sim_table
    spec = seed if isinstance(seed, SeedSpec) else SeedSpec(int(seed))
    vals = np.empty(n_paths)
    for p in range(n_paths):
        rng = spec.generator(p)
        fx1, fx2 = _simulate(system, M, x1, x2, rng, None)
        vals[p] = functional(fx1, fx2)
    # fixed path-index order and numpy pairwise summation keep this
    # deterministic regardless of how paths would be scheduled
    mean = float(np.sum(vals) / n_paths)
    if n_paths > 1:
        var = float(np.sum((vals - mean) ** 2) / (n_paths - 1))
    else:
        var = 0.0
    se = math.sqrt(max(var, 0.0) / n_paths)
    return mean, se


def _z_score(estimate: float, target: float, se: float) -> float:
    diff = estimate - target
    scale = 1.0 + abs(target)
    if se <= 1e-14 * scale:
        # deterministic up to rounding: the sample variance of identical
        # path values is summation noise, not statistical error
        if abs(diff) <= 1e-9 * scale:
            return 0.0
        return math.copysign(math.inf, diff)
    return diff / se


def mc_laplace(sf: SpecialForm, x0, t: float, lam, n_paths: int, seed,
               reference_refine: int = 32,
               opts: SolverOptions | None = None) -> MCEstimate:
    """Monte-Carlo check of the Laplace-transform identity at (x0, t, lam).

    The estimate is the sample mean of exp(-<lam, X_t>); the target is
    exp(-<x0, v_{0,t}(lam)>) with v solved on a ``reference_refine``-times
    finer copy of the coefficient grid.
    """
    lam1, lam2 = float(lam[0]), float(lam[1])
    estimate, se = _mc_run(
        sf, x0, t, n_paths, seed,
        lambda fx1, fx2: math.exp(-(lam1 * fx1 + lam2 * fx2)),
    )
    ref = sf.refined(reference_refine)
    sol = solve_special_picard(ref, t, (lam1, lam2), opts)
    target = math.exp(-(float(x0[0]) * sol.v[0, 0] + float(x0[1]) * sol.v[0, 1]))
    return MCEstimate(n_paths, estimate, se, target, _z_score(estimate, target, se))


def mc_mean(sf: SpecialForm, x0, t: float, lam, n_paths: int, seed,
            reference_refine: int = 32,
            opts: SolverOptions | None = None) -> MCEstimate:
    """Monte-Carlo check of the mean identity at (x0, t, lam).

    The estimate is the sample mean of <lam, X_t>; the target is
    <x0, pi_{0,t}(lam)> from the moment solver on a refined grid.
    """
    lam1, lam2 = float(lam[0]), float(lam[1])
    estimate, se = _mc_run(
        sf, x0, t, n_paths, seed,
        lambda fx1, fx2: lam1 * fx1 + lam2 * fx2,
    )
    env = special_to_general(sf.refined(reference_refine))
    sol = solve_moment(env, t, (lam1, lam2), opts)
    target = float(x0[0]) * sol.pi[0, 0] + float(x0[1]) * sol.pi[0, 1]
    return MCEstimate(n_paths, estimate, se, target, _z_score(estimate, target, se))
