"""Command-line interface.

Subcommands: ``validate`` (admissibility report), ``solve`` (backward
solution CSV), ``moments`` (mean-system CSV), ``simulate`` (path event
CSV), ``approx`` (finite-activity approximation gap table), ``verify``
(a per-config verification battery with PASS/FAIL lines) and ``emit``
(canonical JSON).  Each takes ``--config``, ``--refine`` and ``--out``;
``solve``, ``moments`` and ``approx`` also ``--t`` and ``--lambda``,
``simulate`` ``--t``, ``--x0``, ``--paths`` and ``--seed``, and ``verify``
all five.  Any other flag is refused (exit 2).

Each ``cmd_*`` is a function of the loaded configuration and the flags
that returns its output lines and exit code and does no I/O; :func:`main`
alone loads the config and writes the lines, to ``--out`` or stdout, once
the command has returned.  A command that raises writes nothing.

Exit codes: 0 success, 2 configuration error, 3 admissibility failure,
4 numerical failure (a typed :class:`NumericalError`, or a floating-point
overflow, invalid operation or division by zero in a numerical layer),
5 verification failure.  ``CBVE_LOG=debug`` sends the ``cbve`` loggers'
debug records to stderr: :mod:`cbve.compiled` logs one line per table it
builds (sweep table, mean steps, Picard table, simulator table), and
:mod:`cbve.solver` one per sweep loop it generates.  No other value
configures logging, since no ``cbve`` logger writes above debug.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from .config import RunConfig, emit_config, load_config
from .environment import finite_activity_approximation, special_to_general
from .errors import (AdmissibilityError, CBVEError, ConfigError, DiscretizationError,
                     NumericalError)
from .measures import StieltjesMeasure
from .moments import _finite_diff, solve_moment
from .simulator import _simulate_paths, mc_laplace, mc_mean
from .solver import (
    _flow_residual,
    _pair,
    check_flow,
    cumulant_upper_bound,
    h_transform_coefficients,
    h_transform_solution,
    solve_general,
    solve_special_picard,
)

_APPROX_LEVELS = (1, 2, 4, 8, 16, 32)


def _setup_logging() -> None:
    if os.environ.get("CBVE_LOG", "").strip().lower() == "debug":
        logging.basicConfig(level=logging.DEBUG, format="%(levelname)s %(name)s: %(message)s")


def _two_floats(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _write(args, lines) -> None:
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)


def _load(args) -> RunConfig:
    if args.refine < 1:
        raise ConfigError(f"--refine must be a positive integer, got {args.refine}")
    cfg = load_config(args.config)
    if args.refine > 1:
        cfg = dataclasses.replace(cfg, **{cfg.kind: cfg.model.refined(args.refine)})
    return cfg


def _as_environment(cfg: RunConfig):
    if cfg.kind == "environment":
        return cfg.environment
    return special_to_general(cfg.special_form)


def _terminal(cfg: RunConfig, args) -> float:
    t = args.t if args.t is not None else cfg.horizon
    try:
        idx = cfg.grid.index_of(t)
    except ValueError:
        raise ConfigError(f"--t must be a grid node in [0, {cfg.horizon:g}], got {t!r}") from None
    return float(cfg.grid.nodes[idx])


def _checked(flag: str, pair, default=(1.0, 1.0), signed: bool = False):
    """``pair`` as given to ``flag``, or ``default`` when it was not: finite,
    and componentwise nonnegative unless ``signed``."""
    if pair is None:
        return default
    try:
        return _pair(pair, flag, signed)
    except ValueError as exc:
        raise ConfigError(f"{exc}, got {pair[0]!r},{pair[1]!r}") from None


def cmd_validate(cfg: RunConfig, args) -> tuple:
    env = _as_environment(cfg)
    report = env.validation
    lines = [
        f"ok: {report.ok}",
        f"moment_values: {report.moment_values[0]:.17g},"
        f" {report.moment_values[1]:.17g}",
        f"delta_max: {report.delta_max[0]:.17g}, {report.delta_max[1]:.17g}",
        f"bottlenecks: {', '.join(f'{t:.17g}' for t in report.bottleneck_times) or '-'}",
    ]
    lines.extend(f"message: {m}" for m in report.messages)
    return lines, 0 if report.ok else 3


def _node_lines(header: str, nodes, values) -> list:
    lines = [header]
    for k in range(values.shape[0]):
        lines.append(f"{nodes[k]:.17g},{values[k, 0]:.17g},{values[k, 1]:.17g}")
    return lines


def cmd_solve(cfg: RunConfig, args) -> tuple:
    t = _terminal(cfg, args)
    lam = _checked("--lambda", args.lam)
    if cfg.kind == "environment":
        sol = solve_general(cfg.environment, t, lam)
    else:
        sol = solve_special_picard(cfg.special_form, t, lam)
    return _node_lines("r,v1,v2", cfg.grid.nodes, sol.v), 0


def cmd_moments(cfg: RunConfig, args) -> tuple:
    env = _as_environment(cfg)
    t = _terminal(cfg, args)
    sol = solve_moment(env, t, _checked("--lambda", args.lam, signed=True))
    return _node_lines("r,pi1,pi2", cfg.grid.nodes, sol.pi), 0


def _seed(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    return args.seed or 0


def cmd_simulate(cfg: RunConfig, args) -> tuple:
    if cfg.kind != "special_form":
        raise ConfigError(
            "simulate requires a special_form configuration "
            "(finite-activity coefficients)"
        )
    t = _terminal(cfg, args)
    x0 = _checked("--x0", args.x0, (1.0, 0.0))
    if args.paths is not None and args.paths < 0:
        raise ConfigError(f"--paths must be nonnegative, got {args.paths}")
    n_paths = 1 if args.paths is None else args.paths
    lines = ["path_id,time,kind,type_source,dx1,dx2,x1,x2"]
    _, paths = _simulate_paths(cfg.special_form, x0, t, _seed(args), n_paths)
    for pid, events in enumerate(paths):
        for ev in events:
            lines.append(
                f"{pid},{ev.time:.17g},{ev.kind},{ev.type_source},"
                f"{ev.delta[0]:.17g},{ev.delta[1]:.17g},"
                f"{ev.x_after[0]:.17g},{ev.x_after[1]:.17g}"
            )
    return lines, 0


def cmd_approx(cfg: RunConfig, args) -> tuple:
    env = _as_environment(cfg)
    t = _terminal(cfg, args)
    lam = _checked("--lambda", args.lam)
    reference = solve_general(env, t, lam)
    lines = ["n,sup_gap"]
    for n in _APPROX_LEVELS:
        sf = finite_activity_approximation(env, n)
        sol = solve_special_picard(sf, t, lam)
        gap = float(np.max(np.abs(sol.v - reference.v)))
        lines.append(f"{n},{gap:.17g}")
    return lines, 0


class _Battery:
    def __init__(self):
        self.lines = []
        self.ok = True

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.ok &= passed
        self.lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")


def _refuse_monte_carlo_flags(args, flags, need: str) -> None:
    """Refuse each of ``flags`` that was given: its Monte-Carlo checks need ``need``."""
    for flag in flags:
        if getattr(args, flag[2:]) is not None:
            raise ConfigError(f"{flag} sets up the Monte-Carlo checks, which need {need}")


def _verify_environment(cfg: RunConfig, args, t: float, lam, battery: _Battery) -> None:
    _refuse_monte_carlo_flags(args, ("--paths", "--x0", "--seed"),
                              "a special_form configuration")
    env = cfg.environment
    report = env.validation
    battery.check("admissibility", report.ok,
                  f"delta_max={max(report.delta_max):.3g}")
    if not report.ok:
        return
    it = env.grid.index_of(t)
    ir, isx = it // 4, it // 2
    r = float(env.grid.nodes[ir])
    s = float(env.grid.nodes[isx])
    try:  # held for check_flow's direct leg; a refused solve files nothing
        sol = solve_general(env, t, lam)
    except NumericalError:
        sol = None
    residual = check_flow(env, r, s, t, lam)
    # check_flow on env.refined(4), without building that model
    residual4 = _flow_residual(env, r, s, t, lam, base=4)
    battery.check("flow_residual", residual <= 1e-5,
                  f"residual={residual:.3e} (tol 1e-05)")
    battery.check(
        "flow_refinement",
        residual4 <= max(residual / 3.0, 1e-12),
        f"refine4 residual={residual4:.3e} vs base {residual:.3e}",
    )
    sol = sol or solve_general(env, t, lam)  # a refused solve raises here, as unheld
    worst = 0.0
    for i in (1, 2):
        bound = cumulant_upper_bound(env, i, 0.0, t, lam)
        worst = max(worst, float(np.max(sol.v[:, i - 1])) - bound)
    battery.check("upper_bound", worst <= 1e-9,
                  f"max excess over bound={worst:.3e}")
    pi = solve_moment(env, t, lam).pi
    res = _finite_diff(env, t, lam, 1e-3, pi)
    scale = max(1.0, float(np.max(np.abs(pi))))
    scaled = max(res) / scale
    battery.check("moment_finite_diff", scaled <= 5e-3,
                  f"scaled residual={scaled:.3e} (tol 5e-03)")
    lam_big = (1.3 * lam[0], 1.3 * lam[1])
    sol_big = solve_general(env, t, lam_big)
    mono = float(np.min(sol_big.v - sol.v))
    battery.check("lambda_monotonicity", mono >= -1e-12,
                  f"min increment={mono:.3e}")


def _verify_special(cfg: RunConfig, args, t: float, lam, battery: _Battery) -> None:
    sf = cfg.special_form
    if args.paths is None:
        _refuse_monte_carlo_flags(args, ("--x0", "--seed"), "--paths")
    elif args.paths < 100:
        raise ConfigError(f"--paths must be at least 100 for the Monte-Carlo "
                          f"checks, got {args.paths}")
    else:
        x0, seed = _checked("--x0", args.x0), _seed(args)
    sol = solve_special_picard(sf, t, lam)
    min_inc = min(sol.picard_min_increments)
    battery.check("picard_monotonicity", min_inc >= -1e-12,
                  f"min iterate increment={min_inc:.3e}")
    max_val = max(sol.picard_iterate_maxima)
    battery.check(
        "picard_bound",
        max_val <= sol.picard_bound + 1e-9,
        f"max iterate={max_val:.6g} vs bound {sol.picard_bound:.6g}",
    )
    try:
        general = solve_general(special_to_general(sf), t, lam)
    except DiscretizationError as exc:
        # the grid cannot resolve the general route, so the two cannot agree
        battery.check("special_general_agreement", False, f"general sweep refused: {exc}")
    else:
        gap = float(np.max(np.abs(general.v - sol.v)))
        battery.check("special_general_agreement", gap <= 1e-6,
                      f"sup gap={gap:.3e} (tol 1e-06)")
    # pure-jump scale change at two nodes in (0, T]: exact round trip
    grid = sf.grid
    n = grid.nodes.size
    jumps = np.zeros((2, n))
    jumps[0, max(n // 3, 1)], jumps[1, (2 * n) // 3] = 0.4, -0.3
    zeta1, zeta2 = (StieltjesMeasure._of(grid, np.zeros(grid.n_cells), z) for z in jumps)
    transformed = h_transform_coefficients(sf, zeta1, zeta2)
    direct = solve_special_picard(transformed, t, lam)
    z1t = zeta1.node_cumulatives[grid.index_of(t)]
    z2t = zeta2.node_cumulatives[grid.index_of(t)]
    base = solve_special_picard(
        sf, t, (lam[0] * math.exp(-z1t), lam[1] * math.exp(-z2t)))
    mapped = h_transform_solution(base, zeta1, zeta2, lam)
    rt_gap = float(np.max(np.abs(direct.v - mapped.v)))
    battery.check("h_transform_round_trip", rt_gap <= 1e-8,
                  f"sup gap={rt_gap:.3e} (tol 1e-08)")
    if args.paths is not None:
        lap = mc_laplace(sf, x0, t, lam, args.paths, seed)
        battery.check("mc_laplace", abs(lap.z_score) <= 3.0,
                      f"z={lap.z_score:.2f} est={lap.estimate:.6g}"
                      f" target={lap.target:.6g}")
        mean = mc_mean(sf, x0, t, lam, args.paths, seed + 1)
        battery.check("mc_mean", abs(mean.z_score) <= 3.0,
                      f"z={mean.z_score:.2f} est={mean.estimate:.6g}"
                      f" target={mean.target:.6g}")


def cmd_verify(cfg: RunConfig, args) -> tuple:
    t, lam = _terminal(cfg, args), _checked("--lambda", args.lam)
    battery = _Battery()
    if cfg.kind == "environment":
        _verify_environment(cfg, args, t, lam, battery)
    else:
        _verify_special(cfg, args, t, lam, battery)
    return battery.lines, 0 if battery.ok else 5


def cmd_emit(cfg: RunConfig, args) -> tuple:
    return [json.dumps(emit_config(cfg.model), indent=2, sort_keys=True)], 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbve",
        description="Two-type continuous-state branching processes in varying "
                    "environments: solve, verify and simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--t": dict(type=float, help="terminal time"),
        "--lambda": dict(dest="lam", type=_two_floats, metavar="A,B", help="terminal pair"),
        "--x0": dict(type=_two_floats, metavar="A,B", help="initial state"),
        "--paths": dict(type=int, help="number of paths"),
        "--seed": dict(type=int, help="master seed (default 0)"),
    }
    specs = (
        ("validate", cmd_validate, "admissibility report", ()),
        ("solve", cmd_solve, "backward solution CSV (r, v1, v2)", ("--t", "--lambda")),
        ("moments", cmd_moments, "mean-system CSV (r, pi1, pi2)", ("--t", "--lambda")),
        ("simulate", cmd_simulate, "path event CSV", ("--t", "--x0", "--paths", "--seed")),
        ("approx", cmd_approx, "finite-activity approximation gap table", ("--t", "--lambda")),
        ("verify", cmd_verify, "verification battery with PASS/FAIL lines", tuple(flags)),
        ("emit", cmd_emit, "canonical JSON for the parsed configuration", ()),
    )
    for name, func, help_text, own in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        for flag in own:
            p.add_argument(flag, **flags[flag])
        p.add_argument("--refine", type=int, default=1,
                       help="grid refinement factor")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        lines, code = args.func(_load(args), args)
        _write(args, lines)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AdmissibilityError as exc:
        print(f"admissibility failure: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, OverflowError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except CBVEError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
