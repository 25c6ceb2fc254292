"""Acceptance battery: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
the measured residuals.  Every tolerance is fixed here, none is tuned at
run time.
"""
import math

import numpy as np
import pytest

from cbve import (
    JumpMeasure,
    StieltjesMeasure,
    check_flow,
    cumulant_upper_bound,
    finite_activity_approximation,
    finite_diff_check,
    h_transform_coefficients,
    h_transform_solution,
    last_bottleneck,
    lipschitz_constants,
    mc_laplace,
    mc_mean,
    mechanism_increment,
    solve_general,
    solve_special_picard,
    special_to_general,
)

from _instances import (
    bottleneck_environment,
    feller_environment,
    feller_oracle,
    make_env,
    mc_cases,
    random_environment,
    random_lambda,
    random_pure_jump_zeta,
    random_special_form,
    uniform_grid,
)


def _report(num, name, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_flow_property():
    rng = np.random.default_rng(101)
    worst = 0.0
    worst_pair = (0.0, 0.0)
    refine_ok = True
    for trial in range(20):
        env = random_environment(rng, cells=10000)
        lam = random_lambda(rng)
        cells = env.grid.n_cells
        it = int(rng.integers(cells // 2, cells + 1))
        isx = int(rng.integers(it // 3, it + 1))
        ir = int(rng.integers(0, isx + 1))
        r, s, t = (float(env.grid.nodes[k]) for k in (ir, isx, it))
        res = check_flow(env, r, s, t, lam)
        res4 = check_flow(env.refined(4), r, s, t, lam)
        worst = max(worst, res)
        # exact zeros stall at rounding level, hence the floor
        if not (res4 <= max(res / 3.0, 1e-12)):
            refine_ok = False
            worst_pair = (res, res4)
    _report(
        1,
        "flow property",
        worst <= 1e-5 and refine_ok,
        f"max residual {worst:.3e} (tol 1e-05); refine-4 decrease ok={refine_ok}"
        + ("" if refine_ok else f" worst pair {worst_pair}"),
    )


def test_criterion_2_feller_oracle():
    env = feller_environment(cells=10000, b=1.0, c=1.0)
    sol = solve_general(env, 1.0, (1.0, 0.0))
    expect = feller_oracle(1.0, 1.0, 1.0, 1.0)
    err = abs(sol.v[0, 0] - expect)
    _report(2, "closed-form quadratic subcase", err <= 1e-4,
            f"|v1(0,1) - {expect:.6f}| = {err:.3e} (tol 1e-04) at 10^4 cells")


def test_criterion_3_bottleneck_semantics():
    env = bottleneck_environment(cells=1000)
    sol = solve_general(env, 1.0, (3.0, 5.0))
    half = env.grid.index_of(0.5)
    zero_left = bool(np.all(sol.v[:half, 0] == 0.0))
    last = last_bottleneck(env, 1.0)
    ok = zero_left and last == 0.5
    _report(3, "bottleneck semantics", ok,
            f"v1 == 0 for r < 0.5: {zero_left}; last bottleneck {last}")


def test_criterion_4_picard_monotone_bounded_consistent():
    rng = np.random.default_rng(104)
    worst_inc = 0.0
    worst_excess = -math.inf
    worst_gap = 0.0
    for _ in range(8):
        sf = random_special_form(rng, cells=2000, diag="atoms")
        lam = random_lambda(rng)
        sol = solve_special_picard(sf, 1.0, lam)
        worst_inc = min(worst_inc, min(sol.picard_min_increments))
        worst_excess = max(
            worst_excess, max(sol.picard_iterate_maxima) - sol.picard_bound
        )
        gen = solve_general(special_to_general(sf), 1.0, lam)
        worst_gap = max(worst_gap, float(np.max(np.abs(sol.v - gen.v))))
    ok = worst_inc >= -1e-12 and worst_excess <= 1e-9 and worst_gap <= 1e-8
    _report(
        4,
        "Picard monotonicity, a-priori bound, route agreement",
        ok,
        f"min increment {worst_inc:.2e} (slack 1e-12); bound excess "
        f"{worst_excess:.2e} (slack 1e-09); route gap {worst_gap:.2e} (tol 1e-08)",
    )


def test_criterion_5_h_transform_round_trip():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(10):
        sf = random_special_form(rng, cells=500, diag="atoms")
        grid = sf.grid
        z1 = random_pure_jump_zeta(rng, grid)
        z2 = random_pure_jump_zeta(rng, grid)
        lam = random_lambda(rng)
        transformed = h_transform_coefficients(sf, z1, z2)
        direct = solve_special_picard(transformed, 1.0, lam)
        z1t = float(z1.node_cumulatives[-1])
        z2t = float(z2.node_cumulatives[-1])
        base = solve_special_picard(
            sf, 1.0, (lam[0] * math.exp(-z1t), lam[1] * math.exp(-z2t))
        )
        mapped = h_transform_solution(base, z1, z2, lam)
        worst = max(worst, float(np.max(np.abs(direct.v - mapped.v))))
    _report(5, "scale-change round trip", worst <= 1e-8,
            f"max gap {worst:.2e} over 10 random atom-bearing scale functions "
            "(tol 1e-08)")


def test_criterion_6_approximation_ladder():
    grid = uniform_grid(cells=2000)
    env = make_env(
        grid,
        b11=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.3)], ((0.5, 0.3),)),
        b22=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, -0.2)]),
        b12=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.2)], (), True),
        b21=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.15)], (), True),
        c1=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.25)], (), True),
        c2=StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 0.2)], (), True),
        m1=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.3, 0.2, 0.8)])]),
        m2=JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.1, 0.4, 0.5)])]),
    )
    lam = (0.8, 0.6)
    reference = solve_general(env, 1.0, lam)
    gaps = []
    for n in (1, 2, 4, 8, 16, 32):
        sf = finite_activity_approximation(env, n)
        sol = solve_special_picard(sf, 1.0, lam)
        gaps.append(float(np.max(np.abs(sol.v - reference.v))))
    decreasing = all(b <= a * (1.0 + 1e-9) for a, b in zip(gaps, gaps[1:]))
    ok = decreasing and gaps[-1] <= 1e-2
    _report(6, "finite-activity approximation ladder", ok,
            "sup gaps " + ", ".join(f"{g:.2e}" for g in gaps)
            + f"; decreasing={decreasing}; final tol 1e-02")


def test_criterion_7_moment_identity_and_bound():
    env = feller_environment(cells=2000)
    residuals = [
        max(finite_diff_check(env, 1.0, (1.0, 0.0), h)) for h in (1e-2, 1e-3, 1e-4)
    ]
    slope = float(
        np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(residuals), 1)[0]
    )
    slope_ok = 0.8 <= slope <= 1.2
    rng = np.random.default_rng(107)
    worst_excess = -math.inf
    for _ in range(10):
        envr = random_environment(rng, cells=400)
        lam = random_lambda(rng)
        sol = solve_general(envr, 1.0, lam)
        for i in (1, 2):
            bound = cumulant_upper_bound(envr, i, 0.0, 1.0, lam)
            worst_excess = max(
                worst_excess, float(np.max(sol.v[:, i - 1])) - bound
            )
    bound_ok = worst_excess <= 1e-9
    _report(
        7,
        "moment identity and a-priori domination",
        slope_ok and bound_ok,
        f"finite-difference slope {slope:.3f} (target [0.8, 1.2]); "
        f"max bound excess {worst_excess:.2e} (slack 1e-09)",
    )


def _mc_battery(seed_base):
    cases = mc_cases()
    stats = []
    for k, (sf, x0, lam) in enumerate(cases):
        lap = mc_laplace(sf, x0, 1.0, lam, 100000, seed_base + 2 * k)
        mean = mc_mean(sf, x0, 1.0, lam, 100000, seed_base + 2 * k + 1)
        stats.append((f"case{k + 1}/laplace", lap.z_score))
        stats.append((f"case{k + 1}/mean", mean.z_score))
    return stats


def test_criterion_8_monte_carlo_consistency():
    stats = _mc_battery(8200)
    failures = [(name, z) for name, z in stats if abs(z) > 3.0]
    detail = "; ".join(f"{name} z={z:+.2f}" for name, z in stats)
    if len(failures) > 1:
        # one re-run with a fresh master seed is part of the criterion
        stats = _mc_battery(9200)
        failures = [(name, z) for name, z in stats if abs(z) > 3.0]
        detail += " | re-run: " + "; ".join(f"{name} z={z:+.2f}" for name, z in stats)
    _report(8, "Monte-Carlo consistency", len(failures) <= 1,
            detail + f" | exceedances: {len(failures)} of 10 (allow 1)")


def test_criterion_9_lipschitz_inequality():
    rng = np.random.default_rng(109)
    violations = 0
    worst_margin = math.inf
    for _ in range(100):
        env = random_environment(rng, cells=60)
        n = env.grid.nodes.size
        f = rng.uniform(0.0, 2.0, (n, 2))
        g = rng.uniform(0.0, 2.0, (n, 2))
        it = int(rng.integers(1, env.grid.n_cells + 1))
        ir = int(rng.integers(0, it))
        r, t = float(env.grid.nodes[ir]), float(env.grid.nodes[it])
        c1, c2 = lipschitz_constants(env, f, g, t)
        supdiff = np.max(np.abs(f - g), axis=1)
        bound = c1 * c2.integrate(supdiff, r, t)
        worst = max(
            abs(
                mechanism_increment(env, i, f, r, t)
                - mechanism_increment(env, i, g, r, t)
            )
            for i in (1, 2)
        )
        if worst > bound + 1e-12:
            violations += 1
        worst_margin = min(worst_margin, bound - worst)
    _report(9, "mechanism Lipschitz inequality", violations == 0,
            f"{violations} violations in 100 trials; smallest margin "
            f"{worst_margin:.3e}")
