"""Exact forward simulation of the finite-activity process.

Between time atoms the state follows the linear flow of the drift
densities (closed-form 2x2 matrix exponentials per stretch of cells with
equal coefficients).  Type-i branch jumps arrive at instantaneous rate
``X_i(s-) * (total kernel weight of the type-i jump kernel on the cell)``
and are sampled exactly by thinning (Lewis & Shedler 1979) against a
majorant that is recomputed after every candidate and holds over a window
in which the flow at most doubles x1 + x2.  At a time atom the state is
updated by the deterministic jump matrix and then receives a
compound-Poisson batch of branch jumps whose mean uses the pre-atom state.
No step of the simulation discretizes time, so Monte-Carlo estimates are
unbiased.

One engine, :func:`_run`, advances any number of paths in lock step, as
arrays, stretch by stretch: a stretch is a run of grid cells with equal
drift and kernels and no time atom inside, so a model given by a few
coefficient segments takes a few stretches whatever its grid.  Each round
draws one candidate for every path still inside the stretch.  A round
costs a fixed number of numpy calls whatever the number of paths, so the
engine skips what cannot happen: the flow where there is no drift, the
state checks where nothing moved, the search of a kernel that cannot
fire.  Every random decision reads one uniform from the path's own
stream, in path order:

- the candidate gap, ``-log1p(-u) / majorant``;
- acceptance, ``u * majorant < rate``, then the jump type,
  ``u * rate < rate_1`` (type 1 wherever the type-2 kernel is empty),
  then the kernel point, by inverse CDF;
- the size of an atom batch, by Poisson inversion from one uniform per
  piece of mean at most ``_POISSON_PIECE``, then one point per jump.

A path may draw at most ``_MAX_CANDIDATES`` candidates and atom-batch
jumps; at each stretch start it is refused where a lower bound on the
mean of what it has left to draw (:func:`_stretches`) passes the room
left by 10 standard deviations, and past that a count of rounds stops
it.  Flows, jumps and atom matrices are nonnegative (G is Metzler), so a
negative state after a flow is rounding, and is clamped at 0.

The drift matrices, stretches and sampling tables come
from :func:`cbve.compiled.sim_table`, built once per special form and
cached on it.  So are the models the targets are solved on: the form
refined 32 times for :func:`mc_laplace` (with its own cached Picard table)
and the form's one general form, :func:`special_to_general`, for
:func:`mc_mean`, which builds its own cross drifts like any environment.
They live as long as the form; every call solves its model afresh, so a
repeated check returns what it would on a fresh form.

Reproducibility: path k of a master seed reads the stream of
``SeedSpec(master).generator(k)``; :class:`cbve.streams.PCGStreams`
computes those streams for a block of paths at once, bit for bit.  A seed
therefore determines the path set, independent of how paths are blocked.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .compiled import _expm2
from .environment import SpecialForm, special_to_general
from .errors import NumericalError
from .moments import solve_moment
from .solver import _LOG_MAX, _pair, solve_special_picard
from .streams import WIDTH, PCGStreams

__all__ = ["SeedSpec", "PathEvent", "MCEstimate", "simulate_path", "mc_laplace", "mc_mean"]

_MAX_STATE = 1e12
_MAX_CANDIDATES = 10_000_000
#: Poisson inversion starts from exp(-mean); larger means are split into
#: independent pieces so that it stays a normal number
_POISSON_PIECE = 500.0
#: paths per lock-step block; bounds memory
_BLOCK = 1 << 14


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


class _Uniforms:
    """Per-path uniforms read in stream order through a cursor.

    ``fill(rows)`` returns the next ``(rows.size, WIDTH)`` uniforms of the
    streams in ``rows``; a path's block is refilled only when it runs dry.
    Each row of the buffer ends in the sentinel 2.0, so a cursor reads a
    path's next uniform and finds out whether it ran dry in one gather.
    """

    def __init__(self, n: int, fill):
        self.fill = fill
        self.buf = np.full((n, WIDTH + 1), 2.0)
        self.flat = self.buf.reshape(-1)
        self.at = np.arange(WIDTH, n * (WIDTH + 1), WIDTH + 1)

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        at = self.at[rows]
        u = self.flat[at]
        dry = (u > 1.0).nonzero()[0]
        if dry.size:
            self.buf[rows[dry], :WIDTH] = self.fill(rows[dry])
            at[dry] -= WIDTH
            u[dry] = self.flat[at[dry]]
        self.at[rows] = at + 1
        return u


def _jump_events(events, rows, time, src, dz1, dz2, x1, x2):
    """Record a branch jump for every path in ``rows``; ``time`` and
    ``src`` may be scalars."""
    time = time.tolist() if isinstance(time, np.ndarray) else repeat(time)
    src = src.tolist() if isinstance(src, np.ndarray) else repeat(src)
    for p, t, s, z1, z2, a, b in zip(rows.tolist(), time, src, dz1.tolist(),
                                     dz2.tolist(), x1.tolist(), x2.tolist()):
        events[p].append(PathEvent(t, "branch_jump", s, (z1, z2), (a, b)))


def _check_state(s) -> None:
    # NaN fails the comparison too
    if np.count_nonzero(s <= _MAX_STATE) < s.size:
        raise NumericalError("simulated state overflow")


def _pick(kernel, k, v):
    """Increments z1, z2 of set k of a kernel table: at each ``v``, the
    first point whose cumulative weight exceeds it."""
    _, cuts, z1, z2 = kernel
    i = cuts[k].searchsorted(v, "right")
    return z1[k, i], z2[k, i]


def _stretch(tab, k: int, b: int, ahead: float, x1, x2, uniforms, cand, events) -> None:
    """Advance every path across the stretch of cells k..b-1, whose
    coefficients are those of cell k; x1, x2 and the per-path candidate
    counts ``cand`` are updated in place.

    ``ahead`` bounds from below the expected candidates and atom-batch jumps
    per unit of x1 + x2 from this stretch to the end of the run."""
    end = tab.nodes[b].item()
    width = end - tab.nodes[k].item()
    m11, m12, m21, m22 = tab.G[:, k].tolist()
    # a zero G leaves the state where it is
    flows = bool(m11 or m12 or m21 or m22)
    kern1, kern2 = tab.kernels
    w1, w2 = kern1[0][k].item(), kern2[0][k].item()
    totw = w1 + w2
    if totw <= 0.0:
        if flows:
            e11, e12, e21, e22 = _expm2(m11, m12, m21, m22, width)
            x1[:], x2[:] = e11 * x1 + e12 * x2, e21 * x1 + e22 * x2
            _check_state(x1 + x2)
        return
    act = (x1 + x2 > 0.0).nonzero()[0]
    if not act.size:
        return
    ax1, ax2 = x1[act], x2[act]
    s = ax1 + ax2
    # G is Metzler (the cross drifts are nondecreasing), so the larger column
    # sum bounds the growth rate of x1 + x2, which at most doubles over a
    # window of ln 2 / growth
    growth = max(m11 + m21, m12 + m22, 0.0)
    if growth > 0.0:
        window = math.log(2.0) / growth
        # jumps only add mass and the flow matrix is nonnegative, so the
        # flow alone to the stretch end bounds the state there from below
        e11, e12, e21, e22 = _expm2(m11, m12, m21, m22, width)
        _check_state((e11 + e21) * ax1 + (e12 + e22) * ax2)
    # every path active in a round draws one candidate, and a path that
    # leaves the stretch does not come back, so a path's count is its count
    # at the start (cand, updated on leaving) plus the rounds it stayed
    budget = _MAX_CANDIDATES - cand[act].max().item()
    # a path whose mean s * ahead passes its room r by 10 standard deviations
    # (its root passes 5 + sqrt(25 + r)) fits with probability below e^-50:
    # refuse it before it draws; the largest mean meets the smallest room first
    if s.max() * ahead > (5.0 + math.sqrt(25.0 + budget)) ** 2:
        room = _MAX_CANDIDATES - cand[act]
        if np.count_nonzero(s * ahead > (5.0 + np.sqrt(25.0 + room)) ** 2):
            raise NumericalError("thinning candidate budget exhausted")
    # time left on the stretch, a float or one entry per path
    rem = width
    rounds = 0
    while True:
        rounds += 1
        if rounds > budget and cand[act].max() + rounds > _MAX_CANDIDATES:
            raise NumericalError("thinning candidate budget exhausted")
        # the majorant, negated: the gap is log1p(-u) / -majorant
        if growth > 0.0:
            win = np.minimum(rem, window)
            neg = s * (-totw * np.exp(growth * win))
        else:
            # x1 + x2 cannot grow: the window is the rest of the stretch
            win = rem
            neg = s * -totw
        gap = np.log1p(-uniforms(act)) / neg
        j = (gap < win).nonzero()[0]
        # without a candidate every path flows to the end of its window;
        # while the windows agree, dt and rem stay one float
        dt = np.minimum(gap, win) if j.size else win
        if flows:
            e11, e12, e21, e22 = _expm2(m11, m12, m21, m22, dt)
            ax1, ax2 = e11 * ax1 + e12 * ax2, e21 * ax1 + e22 * ax2
        rem = rem - dt
        moved = flows
        if j.size:
            rows = act[j]
            rate1 = ax1[j] * w1
            rate = rate1 + ax2[j] * w2 if w2 > 0.0 else rate1
            # u * majorant < rate
            acc = (uniforms(rows) * neg[j] > -rate).nonzero()[0]
            if acc.size:
                moved = True
                j, rows = j[acc], rows[acc]
                u = uniforms(rows)
                v = uniforms(rows)
                # a type whose kernel is empty on the stretch cannot fire
                if w2 <= 0.0:
                    src = 1
                    dz1, dz2 = _pick(kern1, k, v * w1)
                elif w1 <= 0.0:
                    src = 2
                    dz1, dz2 = _pick(kern2, k, v * w2)
                else:
                    first = u * rate[acc] < rate1[acc]
                    src = 2 - first
                    (a1, a2), (b1, b2) = _pick(kern1, k, v * w1), _pick(kern2, k, v * w2)
                    dz1, dz2 = np.where(first, a1, b1), np.where(first, a2, b2)
                ax1[j] += dz1
                ax2[j] += dz2
                if events is not None:
                    _jump_events(events, rows, end - rem[j], src, dz1, dz2, ax1[j], ax2[j])
        if moved:
            s = ax1 + ax2
            _check_state(s)
        stay = np.minimum(rem, s) > 0.0
        keep = stay.nonzero()[0]
        if keep.size < act.size:
            x1[act], x2[act] = ax1, ax2
            if not keep.size:
                cand[act] += rounds
                return
            cand[act[~stay]] += rounds
            act, ax1, ax2, s = (a[keep] for a in (act, ax1, ax2, s))
            if np.ndim(rem):
                rem = rem[keep]


def _poisson(mean, rows, uniforms) -> np.ndarray:
    """Poisson counts of the given means, by inversion from one uniform per
    piece of mean at most ``_POISSON_PIECE``."""
    pieces = np.ceil(mean / _POISSON_PIECE)
    part = mean / pieces
    count = np.zeros(rows.size, np.int64)
    for j in range(int(pieces.max())):
        sub = (pieces > j).nonzero()[0]
        u, m = uniforms(rows[sub]), part[sub]
        p = np.exp(-m)
        cdf = p.copy()
        k = np.zeros(sub.size, np.int64)
        # the cdf may round to just below u; stop once the terms underflow
        act = (u > cdf).nonzero()[0]
        while act.size:
            k[act] += 1
            p[act] *= m[act] / k[act]
            cdf[act] += p[act]
            act = act[(u[act] > cdf[act]) & (p[act] > 0.0)]
        count[sub] += k
    return count


def _atom(tab, m: int, x1, x2, uniforms, cand, events) -> None:
    """Apply the time atom at node m to every path, in place."""
    slot = tab.atom_slot[m]
    a11, a12, a21, a22 = tab.A[:, slot].tolist()
    ox1, ox2 = x1.copy(), x2.copy()
    x1[:], x2[:] = a11 * ox1 + a12 * ox2, a21 * ox1 + a22 * ox2
    time = tab.nodes[m].item()
    if events is not None:
        for p, (o1, o2, n1, n2) in enumerate(zip(ox1.tolist(), ox2.tolist(),
                                                 x1.tolist(), x2.tolist())):
            events[p].append(PathEvent(time, "deterministic_atom", 0,
                                       (n1 - o1, n2 - o2), (n1, n2)))
    for src, kernel, own in zip((1, 2), tab.atom_kernels, (ox1, ox2)):
        w = kernel[0][slot].item()
        if w <= 0.0:
            continue
        mean = own * w
        rows = (mean > 0.0).nonzero()[0]
        if not rows.size:
            continue
        mean = mean[rows]
        if np.count_nonzero(cand[rows] + mean <= _MAX_CANDIDATES) < rows.size:
            raise NumericalError("atom jump batch exceeds the candidate budget")
        count = _poisson(mean, rows, uniforms)
        cand[rows] += count
        for j in range(int(count.max())):
            batch = rows[count > j]
            dz1, dz2 = _pick(kernel, slot, uniforms(batch) * w)
            x1[batch] += dz1
            x2[batch] += dz2
            if events is not None:
                _jump_events(events, batch, time, src, dz1, dz2, x1[batch], x2[batch])
    _check_state(x1 + x2)


def _stretches(tab, M: int) -> list:
    """The stretches (k, b) up to node M, each with ``ahead``: a lower bound
    on the expected candidates and atom-batch jumps per unit of x1 + x2 at
    its start, from there to node M.

    Candidates arrive at least at rate (x1 + x2) * (total kernel weight),
    between jumps x1 + x2 grows at least at the smaller column sum c of G,
    an atom scales it by at least the smaller column sum of its matrix and
    draws at least the smaller atom-kernel total per unit, and jumps only
    add.  A factor that is not positive drops what follows it."""
    spans = []
    k = 0
    for b in tab.ends.tolist():
        b = min(b, M)
        if b == k:
            break
        spans.append((k, b))
        k = b
    (w1, _, _, _), (w2, _, _, _) = tab.kernels
    (a1, _, _, _), (a2, _, _, _) = tab.atom_kernels
    out = []
    ahead = 0.0
    for k, b in reversed(spans):
        slot = tab.atom_slot[b].item()
        if slot >= 0:
            a11, a12, a21, a22 = tab.A[:, slot].tolist()
            scale = min(a11 + a21, a12 + a22)
            ahead = (min(a1[slot].item(), a2[slot].item())
                     + (scale * ahead if scale > 0.0 else 0.0))
        m11, m12, m21, m22 = tab.G[:, k].tolist()
        width = tab.nodes[b].item() - tab.nodes[k].item()
        c = min(m11 + m21, m12 + m22)
        ct = min(c * width, _LOG_MAX)
        span = math.expm1(ct) / c if c else width
        scale = math.exp(ct)
        ahead = (w1[k].item() + w2[k].item()) * span + (scale * ahead if scale > 0.0 else 0.0)
        out.append((k, b, ahead))
    return out[::-1]


def _run(tab, M: int, x1, x2, uniforms, events=None):
    """Advance the paths with initial states ``x1``, ``x2`` (arrays,
    updated in place) to node M; ``events``, if given, holds one list per
    path that receives its :class:`PathEvent` records."""
    cand = np.zeros(x1.size, np.int64)
    # every state is checked after each change, so a stretch that cannot
    # grow x1 + x2 need not check its flow
    _check_state(x1 + x2)
    # a flow that overflows gives inf or NaN states, which the guards catch
    with np.errstate(over="ignore", invalid="ignore"):
        for k, b, ahead in _stretches(tab, M):
            _stretch(tab, k, b, ahead, x1, x2, uniforms, cand, events)
            # G is Metzler, so exp(hG) is nonnegative, and so are jumps and
            # atom matrices: a negative state is the flow's rounding, about
            # eps times the state before it
            if tab.G[:, k].any() and np.count_nonzero(np.minimum(x1, x2) < 0.0):
                np.maximum(x1, 0.0, out=x1)
                np.maximum(x2, 0.0, out=x2)
            if tab.atom_slot[b] >= 0:
                _atom(tab, b, x1, x2, uniforms, cand, events)
    return x1, x2


def _master_seed(seed) -> int:
    """The master seed of an int or a :class:`SeedSpec`, or ``ValueError``."""
    try:
        master = operator.index(seed.master_seed if isinstance(seed, SeedSpec) else seed)
    except TypeError:
        master = -1
    if master < 0:
        raise ValueError("seed must be a nonnegative integer")
    return master


def simulate_path(sf: SpecialForm, x0, t: float, seed):
    """Simulate one path up to time t; returns (final state, event list).

    ``seed`` is an int or a :class:`SeedSpec` (path 0 of that master seed)
    or a ``numpy.random.Generator``, read through ``random`` in blocks of
    ``cbve.streams.WIDTH`` uniforms, so the generator may advance past the
    draws the path used.  A bad ``x0`` or ``seed`` raises ``ValueError``.
    """
    x1, x2 = _pair(x0, "initial state")
    M = sf.grid.index_of(t)
    if not isinstance(seed, np.random.Generator):
        seed = SeedSpec(_master_seed(seed)).generator(0)
    uniforms = _Uniforms(1, lambda rows: seed.random((rows.size, WIDTH)))
    events = [[]]
    fx1, fx2 = _run(sf._sim_table, M, np.array([x1]), np.array([x2]), uniforms, events)
    return (float(fx1[0]), float(fx2[0])), events[0]


def _blocks(sf, x0, t, seed, n_paths, events=None):
    """Paths 0..n_paths-1 of ``seed`` in lock-step blocks: yields each
    block's ``start, stop`` and final states ``(x1, x2)``."""
    x1, x2 = _pair(x0, "initial state")
    M = sf.grid.index_of(t)
    master = _master_seed(seed)
    for start in range(0, n_paths, _BLOCK):
        stop = min(start + _BLOCK, n_paths)
        n = stop - start
        streams = PCGStreams(master, np.arange(start, stop))
        yield start, stop, _run(sf._sim_table, M, np.full(n, x1), np.full(n, x2),
                                _Uniforms(n, streams.block),
                                None if events is None else events[start:stop])


def _simulate_paths(sf: SpecialForm, x0, t: float, seed, n_paths: int):
    """Paths 0..n_paths-1 of ``seed`` (an int or a :class:`SeedSpec`) in
    lock step: the final states as an ``(n_paths, 2)`` array and one event
    list per path.  Path k is the path ``simulate_path(sf, x0, t,
    SeedSpec(seed).generator(k))`` gives."""
    events = [[] for _ in range(n_paths)]
    states = np.empty((n_paths, 2))
    for start, stop, (fx1, fx2) in _blocks(sf, x0, t, seed, n_paths, events):
        states[start:stop, 0], states[start:stop, 1] = fx1, fx2
    return states, events


def _mc_run(sf, x0, t, n_paths, seed, functional):
    try:
        n_paths = operator.index(n_paths)
    except TypeError:
        n_paths = -1
    if n_paths < 100:
        raise ValueError("n_paths must be an integer of at least 100")
    vals = np.empty(n_paths)
    for start, stop, (fx1, fx2) in _blocks(sf, x0, t, seed, n_paths):
        vals[start:stop] = functional(fx1, fx2)
    # fixed path-index order and numpy pairwise summation keep this
    # deterministic regardless of how paths would be scheduled
    mean = float(np.sum(vals) / n_paths)
    var = float(np.sum((vals - mean) ** 2) / (n_paths - 1))
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


def mc_laplace(sf: SpecialForm, x0, t: float, lam, n_paths: int, seed) -> MCEstimate:
    """Monte-Carlo check of the Laplace-transform identity at (x0, t, lam).

    The estimate is the sample mean of exp(-<lam, X_t>); the target is
    exp(-<x0, v_{0,t}(lam)>) with v solved by Picard on a 32-times finer
    copy of the coefficient grid, built once per form.  A bad ``lam``,
    ``n_paths``, ``x0`` or ``seed`` raises ``ValueError`` before any path is
    simulated.
    """
    lam1, lam2 = _pair(lam)
    x1, x2 = _pair(x0, "initial state")
    estimate, se = _mc_run(
        sf, (x1, x2), t, n_paths, seed,
        lambda fx1, fx2: np.exp(-(lam1 * fx1 + lam2 * fx2)),
    )
    sol = solve_special_picard(sf._reference, t, (lam1, lam2))
    target = math.exp(-(x1 * sol.v[0, 0] + x2 * sol.v[0, 1]))
    return MCEstimate(n_paths, estimate, se, target, _z_score(estimate, target, se))


def mc_mean(sf: SpecialForm, x0, t: float, lam, n_paths: int, seed) -> MCEstimate:
    """Monte-Carlo check of the mean identity at (x0, t, lam).

    The estimate is the sample mean of <lam, X_t>; the target is
    <x0, pi_{0,t}(lam)>, exact, from the moment solver on the form's own
    general form, built once per form.  Inputs are checked as in
    :func:`mc_laplace`, except that ``lam`` may be signed.
    """
    lam1, lam2 = _pair(lam, signed=True)
    x1, x2 = _pair(x0, "initial state")
    estimate, se = _mc_run(
        sf, (x1, x2), t, n_paths, seed,
        lambda fx1, fx2: lam1 * fx1 + lam2 * fx2,
    )
    sol = solve_moment(special_to_general(sf), t, (lam1, lam2))
    target = x1 * sol.pi[0, 0].item() + x2 * sol.pi[0, 1].item()
    return MCEstimate(n_paths, estimate, se, target, _z_score(estimate, target, se))
