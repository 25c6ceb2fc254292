"""Exact values of a decoupled type's backward equation: the travel-time oracle.

A type i with no cross coupling (b_ij = 0, and every point of m_i has
z_j = 0) solves, on a run of constant coefficients, dv/dr = phi(v) with

    phi(u) = b u + c u^2 + sum_k w_k (e^{-u z_k} - 1 + u z_k),

so the travel time, the integral of du / phi(u) from v(r) to v(t), equals
t - r.  :func:`flow` solves that for v(r): quadrature in log u and a root
search, to about 1e-13 relative, with no time grid.  v moves toward the
zero of phi on its side of v(t), or toward 0, and never passes it; with
no zero above v(t) where phi < 0 there, v grows without bound.
:func:`atom` steps v over a time atom by its algebraic formula, the one
the sweep applies, which has no discretization.
"""
from __future__ import annotations

import math
from functools import partial

from scipy.integrate import quad
from scipy.optimize import brentq

_RTOL = 4 * 2.0 ** -52  # the smallest relative tolerance brentq takes


def _compensated(x: float) -> float:
    """e^{-x} - 1 + x; its series below |x| = 1e-2, where the two terms cancel."""
    if abs(x) < 1e-2:
        return x * x * (1 / 2 - x * (1 / 6 - x * (1 / 24 - x * (1 / 120 - x * (1 / 720 - x / 5040)))))
    return math.expm1(-x) + x


def phi(u: float, b: float, c: float, points) -> float:
    """The run's backward drift at u, ``points`` holding (z, w) pairs."""
    return b * u + c * u * u + sum(w * _compensated(u * z) for z, w in points)


def flow(lam: float, tau: float, b: float, c: float, points) -> float:
    """v a time ``tau`` below a node where v is ``lam`` > 0, on one run."""
    f = partial(phi, b=b, c=c, points=points)
    top = f(lam)
    if tau == 0.0 or top == 0.0:
        return lam
    far = 0.0  # where v heads: 0, which it takes forever to reach, when b >= 0
    if b < 0.0 and c == 0.0 and b + sum(z * w for z, w in points) <= 0.0:
        far = math.inf  # phi(u) / u rises to b + sum z w <= 0: no zero, v grows
    elif b < 0.0:  # phi(u) / u rises with u from b: one zero, which v never passes
        u, step = lam, (2.0 if top < 0.0 else 0.5)
        while (f(u) < 0.0) == (top < 0.0):
            u *= step
        far = brentq(lambda u: f(u) / u, *sorted((lam, u)), xtol=1e-300, rtol=_RTOL)

    def travel(v: float) -> float:
        # the integral of du / phi(u) from v to lam, as u / phi(u) d(log u)
        return quad(lambda s: math.exp(s) / f(math.exp(s)), math.log(v), math.log(lam),
                    epsabs=0.0, epsrel=1e-13, limit=200)[0] - tau

    near, k = lam, 1
    while travel(inner := lam * 2.0 ** k if far == math.inf
                 else far + (lam - far) * 0.5 ** k) < 0.0:
        near, k = inner, k + 1
    return brentq(travel, min(inner, near), max(inner, near), xtol=1e-300, rtol=_RTOL)


def atom(v: float, mass: float, points) -> float:
    """v below a time atom of drift ``mass`` and kernel ``points`` ((z, w)
    pairs, total masses), from v above it."""
    return v - (mass * v + sum(w * (math.expm1(-v * z) + v * z) for z, w in points))
