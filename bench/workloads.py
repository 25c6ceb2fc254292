"""The four benchmark workloads, each a closed loop of tasks on one thread.

A workload builds its fixed inputs and makes one warm-up call when it is
constructed (the measured set-up), hands out one generated input per task,
runs the task through cbve's public API with spans around every call into
a layer, and checks the task's output against fixed tolerances outside
the timed interval.  ``check`` returns the names of the checks that
failed, so an empty list means the output is correct.
"""
from __future__ import annotations

import math
import random

import numpy as np

import cbve
from inputs import (
    HORIZON,
    MC_CASES,
    environment_config,
    properties,
    random_lambda,
    special_form_config,
)
from spans import NULL


class InputError(RuntimeError):
    """A generated model failed validation: a generator bug, so the run stops."""


def _validated(tr, env) -> None:
    report = tr.call("environment.validate", lambda: env.validation)
    if not report.ok:
        raise InputError("; ".join(report.messages))


def _mean_properties(seen: list) -> dict:
    return {key: sum(p[key] for p in seen) / len(seen) for key in seen[0]}


def _bound_failures(v, bounds) -> list:
    return ["upper_bound" for i in (0, 1) if not v[:, i].max() <= bounds[i] + 1e-9]


class VerifyScan:
    """Cold path: each task builds, validates and compiles a fresh model
    (twice, because check_flow compiles a 2x-refined copy), as a parameter
    scan or ``cbve verify`` on environments does."""

    name = "verify_scan"
    cells = 2000
    round = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seen = []
        self.run(self.next_input(), NULL)
        self.seen.clear()

    def next_input(self):
        data = environment_config(self.rng, self.cells)
        self.seen.append(properties(data))
        return data, random_lambda(self.rng)

    def properties(self) -> dict:
        return _mean_properties(self.seen)

    def run(self, inp, tr):
        data, lam = inp
        env = tr.call("config.parse_config", cbve.parse_config, data).environment
        _validated(tr, env)
        nodes = env.grid.nodes
        it = nodes.size - 1
        t = float(nodes[it])
        big = (1.3 * lam[0], 1.3 * lam[1])
        with tr.span("solver.solve_general", cold=1, cells=it):
            sol = cbve.solve_general(env, t, lam)
        with tr.span("solver.solve_general", cold=0, cells=it):
            sol_big = cbve.solve_general(env, t, big)
        with tr.span("moments.solve_moment", cells=it):
            moment = cbve.solve_moment(env, t, lam)
        residual = tr.call("solver.check_flow", cbve.check_flow, env,
                           float(nodes[it // 4]), float(nodes[it // 2]), t, lam)
        return {"env": env, "t": t, "sol": sol, "sol_big": sol_big,
                "moment": moment, "flow_residual": residual}

    def check(self, inp, out) -> list:
        _, lam = inp
        v, v_big = out["sol"].v, out["sol_big"].v
        failed = []
        if not (np.all(v >= 0.0) and np.all(v_big >= 0.0)):
            failed.append("nonnegative")
        if tuple(v[-1]) != lam:
            failed.append("terminal_value")
        if not np.min(v_big - v) >= -1e-12:
            failed.append("lambda_increment")
        env, t = out["env"], out["t"]
        failed += _bound_failures(
            v, [cbve.cumulant_upper_bound(env, i, 0.0, t, lam) for i in (1, 2)])
        if not out["flow_residual"] <= 1e-5:
            failed.append("flow_residual")
        if not np.all(np.isfinite(out["moment"].pi)):
            failed.append("moment_finite")
        return failed


class LambdaSweep:
    """Warm path: many Laplace-transform and mean evaluations on one fine
    model whose validation and compile are paid once, in set-up.

    A run has a single model, so its cost drivers are fixed rather than
    drawn: two kernel points per type on every cell, and terminal nodes
    drawn one from each of ``t_pool`` equal strata of (T/2, T], visited
    in turn.  The a-priori bound costs about as much as a task, so the
    check computes it once per pool node.
    """

    name = "lambda_sweep"
    cells = 20000
    round = 1
    t_pool = 25

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        data = environment_config(self.rng, self.cells, kernel_points=2)
        self.model = properties(data)
        self.env = cbve.parse_config(data).environment
        _validated(NULL, self.env)
        cbve.solve_general(self.env, HORIZON, random_lambda(self.rng))
        half = self.cells // 2
        width = half // self.t_pool
        self.pool = [half + k * width + self.rng.randint(1, width)
                     for k in range(self.t_pool)]
        self.rng.shuffle(self.pool)
        self.unit_bounds = {}
        self.swept = []

    def next_input(self):
        m = self.pool[len(self.swept) % self.t_pool]
        self.swept.append(m)
        lam, mlam = random_lambda(self.rng), random_lambda(self.rng)
        return m, lam, (mlam[0], -mlam[1])

    def properties(self) -> dict:
        return {**self.model, "swept_cells": sum(self.swept) / len(self.swept)}

    def run(self, inp, tr):
        m, lam, signed = inp
        t = float(self.env.grid.nodes[m])
        with tr.span("solver.solve_general", cold=0, cells=m):
            sol = cbve.solve_general(self.env, t, lam)
        with tr.span("moments.solve_moment", cells=m):
            moment = cbve.solve_moment(self.env, t, signed)
        return {"t": t, "sol": sol, "moment": moment}

    def _bounds(self, m: int, t: float, lam) -> list:
        # the bound is |lam| times a factor of t alone; rescaling the cached
        # unit-lam bound differs from a direct call only by rounding
        if m not in self.unit_bounds:
            self.unit_bounds[m] = [
                cbve.cumulant_upper_bound(self.env, i, 0.0, t, (1.0, 0.0)) for i in (1, 2)]
        return [b * math.hypot(*lam) for b in self.unit_bounds[m]]

    def check(self, inp, out) -> list:
        m, lam, signed = inp
        v, pi = out["sol"].v, out["moment"].pi
        failed = []
        if not np.all(v >= 0.0):
            failed.append("nonnegative")
        if tuple(v[-1]) != lam:
            failed.append("terminal_value")
        failed += _bound_failures(v, self._bounds(m, out["t"], lam))
        if not np.all(np.isfinite(pi)):
            failed.append("moment_finite")
        if tuple(pi[-1]) != signed:
            failed.append("moment_terminal_value")
        return failed


class PicardRoute:
    """Finite-activity solver: monotone Picard on a fresh special form,
    cross-checked against the general sweep on the same grid."""

    name = "picard_route"
    cells = 1000
    round = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seen = []
        self.run(self.next_input(), NULL)
        self.seen.clear()

    def next_input(self):
        data = special_form_config(self.rng, self.cells)
        self.seen.append(properties(data))
        return data, random_lambda(self.rng)

    def properties(self) -> dict:
        return _mean_properties(self.seen)

    def run(self, inp, tr):
        data, lam = inp
        sf = tr.call("config.parse_config", cbve.parse_config, data).special_form
        m = sf.grid.n_cells
        with tr.span("solver.solve_special_picard", cells=m) as counts:
            picard = cbve.solve_special_picard(sf, HORIZON, lam)
            counts["iterations"] = picard.iterations_used
        # special_to_general validates the general form and raises if it
        # is inadmissible, which would make this task fail
        env = tr.call("environment.special_to_general", cbve.special_to_general, sf)
        with tr.span("solver.solve_general", cold=1, cells=m):
            general = cbve.solve_general(env, HORIZON, lam)
        return {"picard": picard, "general": general}

    def check(self, inp, out) -> list:
        picard, general = out["picard"], out["general"]
        failed = []
        if not min(picard.picard_min_increments) >= -1e-12:
            failed.append("picard_monotone")
        if not max(picard.picard_iterate_maxima) <= picard.picard_bound + 1e-9:
            failed.append("picard_bound")
        if not np.max(np.abs(picard.v - general.v)) <= 1e-8:
            failed.append("route_agreement")
        return failed


class MCCrosscheck:
    """Exact simulation: Monte-Carlo checks of the Laplace and mean
    identities on the five criterion-8 special forms, round-robin."""

    name = "mc_crosscheck"
    n_paths = 1000
    #: one round visits every (case, function) pair once; runs end on a
    #: round boundary so each pair gets an equal share of tasks
    round = 2 * len(MC_CASES)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.cases = []
        for data, x0, lam in MC_CASES:
            sf = cbve.parse_config(data).special_form
            cbve.special_to_general(sf)  # validates, raises if inadmissible
            self.cases.append((sf, x0, lam))
            cbve.mc_laplace(sf, x0, HORIZON, lam, 100, 0)
        self.count = 0
        self.first_round = []

    def next_input(self):
        k = self.count % self.round
        self.count += 1
        inp = (k % len(self.cases), "mc_laplace" if k < len(self.cases) else "mc_mean",
               self.rng.getrandbits(63))
        if len(self.first_round) < self.round:
            self.first_round.append(inp)
        return inp

    def properties(self) -> dict:
        return {"cells": sum(sf.grid.n_cells for sf, _, _ in self.cases) / len(self.cases),
                "n_paths": self.n_paths}

    def run(self, inp, tr):
        case, fn, seed = inp
        sf, x0, lam = self.cases[case]
        with tr.span(f"simulator.{fn}", paths=self.n_paths):
            return getattr(cbve, fn)(sf, x0, HORIZON, lam, self.n_paths, seed)

    def check(self, inp, out) -> list:
        return [] if abs(out.z_score) <= 5.0 else ["z_score"]

    def probe(self, tr) -> None:
        """Split one round of tasks (same cases and seeds) into per-path
        generator construction, per-path thinning and the reference solve."""
        for task_id, (case, fn, seed) in enumerate(self.first_round):
            sf, x0, lam = self.cases[case]
            spec = cbve.SeedSpec(seed)
            with tr.task(task_id, kind="probe"):
                for p in range(self.n_paths):
                    rng = tr.call("simulator.SeedSpec.generator", spec.generator, p)
                    with tr.span("simulator.simulate_path") as counts:
                        _, events = cbve.simulate_path(sf, x0, HORIZON, rng)
                        counts["events"] = len(events)
                with tr.span("simulator.reference_solve"):
                    ref = sf.refined(32)
                    if fn == "mc_laplace":
                        cbve.solve_special_picard(ref, HORIZON, lam)
                    else:
                        cbve.solve_moment(cbve.special_to_general(ref), HORIZON, lam)


WORKLOADS = {w.name: w for w in (VerifyScan, LambdaSweep, PicardRoute, MCCrosscheck)}
