"""Model parameter bundles and derived quantities.

An :class:`Environment` collects the coefficients of the general backward
system: signed diagonal drifts ``b11``/``b22``, nondecreasing cross drifts
``b12``/``b21``, nondecreasing atom-free diffusion coefficients ``c1``/``c2``
and jump kernels ``m1``/``m2``.  A :class:`SpecialForm` is the finite-activity
parameterization (``gamma_ii``, ``gamma_ij``, ``mu_i``) that the Picard solver
and the exact simulator consume.  Both are frozen dataclasses whose fields
declare each measure's kind; the shared checks, ``zero``, ``refined`` and the
config format all follow those declarations.  Each model caches the compiled
tables of :mod:`cbve.compiled` that its solvers use, each built from the model,
and no more: no kernel caches what a model derives from it.

This module also provides admissibility validation, bottleneck detection,
the mean cross-drift measures, the conversion from special to general
coefficients, and the finite-activity approximation ladder used to
approximate a general mechanism by special ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .compiled import mean_steps, picard_table, sim_table, sweep_table
from .errors import AdmissibilityError
from .measures import JumpMeasure, StieltjesMeasure, TimeGrid, _slot_sums

__all__ = [
    "Environment",
    "SpecialForm",
    "ValidationReport",
    "validate",
    "atom_load",
    "bottlenecks",
    "last_bottleneck",
    "effective_cross_drift",
    "special_to_general",
    "finite_activity_approximation",
]

#: tolerance for the "<= 1" admissibility comparison and bottleneck detection;
#: atoms are user-specified exact inputs, so this only absorbs decimal-to-binary
#: conversion noise.
ATOM_TOL = 1e-12


def _other(i: int) -> int:
    if i not in (1, 2):
        raise ValueError("type index must be 1 or 2")
    return 3 - i


def _of_type(i: int, one, two):
    """``one`` for type 1, ``two`` for type 2; another index raises."""
    return one if _other(i) == 2 else two


def _cross(i: int, j: int, one, two):
    """``one`` for the pair (1, 2), ``two`` for (2, 1); another pair raises."""
    if j != _other(i):
        raise ValueError("need i != j in {1, 2}")
    return _of_type(i, one, two)


#: math.hypot elementwise: np.hypot differs from it in the last bit
_hypot = np.vectorize(math.hypot, otypes=[float])


def _admissibility_integrand(i: int):
    # z_i^2 on the unit ball, z_i outside, plus the cross coordinate
    # (elementwise); a square past 1e154 overflows to inf, still outside
    def fn(z1, z2):
        zi, zj = (z1, z2) if i == 1 else (z2, z1)
        with np.errstate(over="ignore"):
            return np.where(z1 * z1 + z2 * z2 <= 1.0, zi * zi, zi) + zj

    return fn


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: admissibility diagnostics, never raised."""

    moment_values: tuple
    delta_max: tuple
    bottleneck_times: tuple
    ok: bool
    messages: tuple


def _coefficient(kind: str = "signed"):
    """Model field holding a measure: ``signed``, ``nondecreasing``,
    ``continuous`` (nondecreasing and atom-free) or ``jump`` (a kernel)."""
    return field(metadata={"kind": kind})


@dataclass(frozen=True, eq=False)
class _Model:
    """Frozen coefficient bundle on one grid; equality is identity.

    Subclasses declare their measures with :func:`_coefficient`, and every
    check, constructor and config field follows that declaration.
    Compiled tables are cached per instance, which is sound because a
    changed coefficient means a new model (``dataclasses.replace``).
    """

    grid: TimeGrid

    @classmethod
    def _coefficients(cls) -> tuple:
        """(name, kind) of every measure field, in constructor order."""
        return tuple((f.name, f.metadata["kind"]) for f in fields(cls)[1:])

    def __post_init__(self):
        for name, kind in self._coefficients():
            meas = getattr(self, name)
            if not meas.grid.same_as(self.grid):
                raise ValueError(f"{name} lives on a different grid")
            if kind in ("nondecreasing", "continuous") and not meas.nondecreasing:
                raise ValueError(f"{name} must be a nondecreasing measure")
            if kind == "continuous" and meas.atom_nodes.size:
                raise ValueError(f"{name} must be continuous (no time atoms)")

    @property
    def horizon(self) -> float:
        return self.grid.horizon

    @classmethod
    def zero(cls, grid: TimeGrid):
        return cls(grid, *((JumpMeasure if kind == "jump" else StieltjesMeasure).zero(grid)
                           for _, kind in cls._coefficients()))

    def refined(self, factor: int):
        fine = self.grid.refine(factor)
        return type(self)(fine, *(
            getattr(self, name).on_refinement(fine, factor)
            for name, _ in self._coefficients()
        ))


@dataclass(frozen=True, eq=False)
class Environment(_Model):
    """Coefficient bundle of the general two-type backward system."""

    b11: StieltjesMeasure = _coefficient()
    b22: StieltjesMeasure = _coefficient()
    b12: StieltjesMeasure = _coefficient("nondecreasing")
    b21: StieltjesMeasure = _coefficient("nondecreasing")
    c1: StieltjesMeasure = _coefficient("continuous")
    c2: StieltjesMeasure = _coefficient("continuous")
    m1: JumpMeasure = _coefficient("jump")
    m2: JumpMeasure = _coefficient("jump")

    def b_diag(self, i: int) -> StieltjesMeasure:
        return _of_type(i, self.b11, self.b22)

    def b_cross(self, i: int, j: int) -> StieltjesMeasure:
        return _cross(i, j, self.b12, self.b21)

    def c_diag(self, i: int) -> StieltjesMeasure:
        return _of_type(i, self.c1, self.c2)

    def m_jump(self, i: int) -> JumpMeasure:
        return _of_type(i, self.m1, self.m2)

    @cached_property
    def validation(self) -> ValidationReport:
        return validate(self)

    def require_valid(self) -> None:
        report = self.validation
        if not report.ok:
            raise AdmissibilityError("; ".join(report.messages))

    @cached_property
    def _cross_drifts(self) -> tuple:
        """(bb12, bb21) of :func:`effective_cross_drift`: each cross drift
        plus its kernel's cross moment, built once from the model's own
        kernels; the gate of every solver, so an inadmissible model raises
        here.  Each moment is built as its sum is formed, so one is freed
        before the next is built."""
        self.require_valid()
        return tuple(StieltjesMeasure.linear_combination(
            self.grid, [(1.0, self.b_cross(i, j)), (1.0, self.m_jump(i).coordinate_moment(j))])
            for i, j in ((1, 2), (2, 1)))

    @cached_property
    def _table(self):
        """Runs, cell steps and stiff runs of the general sweep."""
        return sweep_table(self)

    @cached_property
    def _mean_steps(self):
        """Per-cell steps of the mean system."""
        return mean_steps(self)


@dataclass(frozen=True, eq=False)
class SpecialForm(_Model):
    """Finite-activity coefficients: diagonal/cross drifts and jump kernels.

    Diagonal drifts may be signed but every atom must satisfy
    ``delta gamma_ii > -1``; cross drifts are nondecreasing; the
    (z1 + z2)-mass of each jump kernel is finite by construction.  A form
    also caches its kernels' four coordinate moments, which every Picard
    solve reads, and its one general form (:func:`special_to_general`).
    """

    gamma11: StieltjesMeasure = _coefficient()
    gamma22: StieltjesMeasure = _coefficient()
    gamma12: StieltjesMeasure = _coefficient("nondecreasing")
    gamma21: StieltjesMeasure = _coefficient("nondecreasing")
    mu1: JumpMeasure = _coefficient("jump")
    mu2: JumpMeasure = _coefficient("jump")

    def __post_init__(self):
        super().__post_init__()
        for name, meas in (("gamma11", self.gamma11), ("gamma22", self.gamma22)):
            low = self.grid.nodes[meas.node_atom_masses <= -1.0].tolist()
            if low:
                raise ValueError(f"{name} atom at {low[0]} must exceed -1")

    def gamma_diag(self, i: int) -> StieltjesMeasure:
        return _of_type(i, self.gamma11, self.gamma22)

    def gamma_cross(self, i: int, j: int) -> StieltjesMeasure:
        return _cross(i, j, self.gamma12, self.gamma21)

    def mu_jump(self, i: int) -> JumpMeasure:
        return _of_type(i, self.mu1, self.mu2)

    @cached_property
    def _moments(self) -> tuple:
        """``_moments[i - 1][j - 1]``: mu_i's :meth:`JumpMeasure.coordinate_moment`
        j, built once."""
        return tuple(tuple(mu.coordinate_moment(j) for j in (1, 2)) for mu in (self.mu1, self.mu2))

    @cached_property
    def _picard_table(self):
        return picard_table(self)

    @cached_property
    def _sim_table(self):
        return sim_table(self)

    @cached_property
    def _reference(self) -> SpecialForm:
        """The form refined 32 times, solved for the Laplace targets."""
        return self.refined(32)

    @cached_property
    def _general(self) -> Environment:
        """The form's one general form, built and validated once: see
        :func:`special_to_general`."""
        grid = self.grid

        def diag(i: int) -> StieltjesMeasure:
            return StieltjesMeasure.linear_combination(
                grid, [(-1.0, self.gamma_diag(i)), (-1.0, self._moments[i - 1][i - 1])])

        env = Environment(
            grid,
            diag(1), diag(2),
            self.gamma12, self.gamma21,
            StieltjesMeasure.zero(grid), StieltjesMeasure.zero(grid),
            self.mu1, self.mu2,
        )
        env.require_valid()
        return env


def atom_load(env: Environment, i: int, s: float) -> float:
    """Diagonal atom load at time s: drift jump plus own-coordinate jump mass.

    This is the quantity whose value 1 marks a type-i extinction point and
    whose admissible range is (-inf, 1]; inf where the jump mass overflows.
    """
    return float(_atom_loads(env, i)[env.grid.index_of(s)])


def _atom_loads(env: Environment, i: int) -> np.ndarray:
    """Type-i :func:`atom_load` at every node: 0 where neither part has an
    atom, inf where the own-coordinate jump mass overflows."""
    jump = env.m_jump(i)
    loads = env.b_diag(i).node_atom_masses.copy()
    with np.errstate(over="ignore"):
        loads[jump.atom_nodes] += _slot_sums(lambda z1, z2: (z1, z2)[i - 1], jump.atom_points)
    return loads


def bottlenecks(env: Environment) -> list:
    """All (time, type) pairs where the diagonal drift jump equals exactly 1
    with no compensating cross-drift jump or jump-kernel atom."""
    found = []
    for i in (1, 2):
        hit = np.abs(env.b_diag(i).node_atom_masses - 1.0) <= ATOM_TOL
        hit &= env.b_cross(i, _other(i)).node_atom_masses == 0.0
        hit[env.m_jump(i).atom_nodes[env.m_jump(i).atom_points[2].any(axis=0)]] = False
        found.extend((float(env.grid.nodes[m]), i) for m in np.flatnonzero(hit))
    found.sort()
    return found


def last_bottleneck(env: Environment, t: float):
    """Largest bottleneck time in (0, t], or None when there is none."""
    if not 0.0 <= t <= env.horizon:
        raise ValueError("t outside [0, T]")
    times = [s for s, _ in bottlenecks(env) if s <= t]
    return max(times) if times else None


def _moment_total(env: Environment, i: int) -> float:
    """Type-i jump moment of :func:`validate` over (0, T]; inf where it
    overflows, which the moment measure would refuse."""
    with np.errstate(over="ignore"):
        try:
            moment = env.m_jump(i).moment_measure(_admissibility_integrand(i))
        except ValueError:
            return math.inf
        return moment.cumulative(env.horizon)


def validate(env: Environment) -> ValidationReport:
    """Admissibility report: jump-moment totals, worst atom loads, bottlenecks.

    Reports rather than raises; ``ok`` is False iff there is a message: an
    atom load above 1 beyond tolerance or a jump moment that is not finite.
    """
    moments = tuple(_moment_total(env, i) for i in (1, 2))
    deltas = tuple(max(0.0, float(np.max(_atom_loads(env, i)))) for i in (1, 2))
    messages = [f"type-{i} atom load {worst:.6g} exceeds 1"
                for i, worst in zip((1, 2), deltas) if worst > 1.0 + ATOM_TOL]
    if not all(math.isfinite(m) for m in moments):
        messages.append("jump moment integral is not finite")
    times = tuple(t for t, _ in bottlenecks(env))
    return ValidationReport(moments, deltas, times, not messages, tuple(messages))


def effective_cross_drift(env: Environment, i: int, j: int) -> StieltjesMeasure:
    """Cross drift plus the mean cross-coordinate inflow of the jump kernel."""
    return env._cross_drifts[_cross(i, j, 0, 1)]  # the pair is checked before the build


def special_to_general(sf: SpecialForm) -> Environment:
    """Express finite-activity coefficients in the general parameterization.

    The diagonal drift absorbs both the negated diagonal coefficient and the
    mean own-coordinate jump inflow; cross drifts and kernels carry over,
    diffusion is zero.  Raises if the result fails admissibility (possible
    only for inputs outside the admissible class).  A form has one general
    form, built and validated on the first call and kept on the form, so
    every caller shares it and its compiled tables; like any environment it
    builds its own effective cross drifts from its kernels.
    """
    return sf._general


def finite_activity_approximation(env: Environment, n: int) -> SpecialForm:
    """Level-n finite-activity approximation of a general environment.

    Diffusion is replaced by small jumps of size 1/n at rate 2 n^2 c_i, the
    kernel is thinned by (1 - e^{-n})(1 ^ n|z|), and the diagonal drift picks
    up the matching compensators plus an e^{-n} variation cushion that keeps
    every diagonal atom above -1.  Increasing n tightens the approximation
    monotonically.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("approximation level must be a positive integer")
    env.require_valid()
    grid = env.grid
    en = math.exp(-n)
    shrink = 1.0 - en

    def thin_factor(z1, z2):
        return shrink * np.minimum(1.0, n * _hypot(z1, z2))

    thinned = [env.m_jump(i).thinned(thin_factor) for i in (1, 2)]

    def diag(i: int) -> StieltjesMeasure:
        return StieltjesMeasure.linear_combination(
            grid,
            [
                (-1.0, env.b_diag(i)),
                (en, env.b_diag(i).abs()),
                (-2.0 * n, env.c_diag(i)),
                (-1.0, thinned[i - 1].coordinate_moment(i)),
            ],
        )

    def cross(i: int, j: int) -> StieltjesMeasure:
        # factored as b_ij + sum z_j w (1 - thin factor): each term is
        # nonnegative, so the sum is nondecreasing in floating point too
        kept = env.m_jump(i).thinned(
            lambda z1, z2: 1.0 - thin_factor(z1, z2)
        ).coordinate_moment(j)
        return StieltjesMeasure.linear_combination(grid, [(1.0, env.b_cross(i, j)), (1.0, kept)])

    def jumps(i: int) -> JumpMeasure:
        # one more slot per cell: the 1/n jump at rate 2 n^2 c_i (none where 0)
        small = np.zeros((3, 1, grid.n_cells))
        small[i - 1] = 1.0 / n
        small[2] = 2.0 * n * n * env.c_diag(i).density
        base = thinned[i - 1]
        return base._rebuilt(np.concatenate((base.cell_points, small), axis=1),
                             base.atom_points, thin=True)

    return SpecialForm(
        grid, diag(1), diag(2), cross(1, 2), cross(2, 1), jumps(1), jumps(2)
    )
