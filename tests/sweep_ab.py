"""Time the sweep of two cbve source trees against each other, in one process.

Usage::

    python tests/sweep_ab.py SRC_A SRC_B [CALLS]

``SRC_A`` and ``SRC_B`` are directories that hold a ``cbve`` package, e.g.
two checkouts' ``src``.  Each is imported under a name of its own, so both
live in this process, and each builds its own copy of every model from the
same config.  Per model, four calls are first run once on each side, so
compiled tables and sweep loops are built, and then timed ``CALLS`` times
(default 21) in alternation, A then B: ``solve_general`` over the whole
horizon, ``check_flow`` at r = T/4, s = T/2, t = T (lambda = (1, 1)),
``sweep_table``, the build of the model's sweep table (``_table``) on a
fresh copy of the model whose cross drifts are built outside the timer,
and ``emit_config`` of the model (views its kernels cache on first use
are built in the untimed first call).
A line holds the model, the call, the median ms of A and of B, their
ratio B / A and the number of calls in which B was faster.

The models are the bench generators' (``bench/inputs.py``, seed 11): the
``lambda_sweep`` model, a ``verify_scan`` environment and the general
form of a ``picard_route`` special form; the four shipped configurations;
and two models where every cell is its own run, the ``lambda_sweep``
model with a density of b11 drawn per cell and with a b11 atom on every
node.  pytest does not collect this file.
"""
from __future__ import annotations

import dataclasses
import importlib.util
import random
import statistics
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
CONFIGS = ("bottleneck", "feller", "jump_special", "mixed_environment")


def _package(src: str, name: str):
    """The ``cbve`` package under ``src``, imported as ``name``."""
    init = Path(src).resolve() / "cbve" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def models() -> dict:
    """Each model's name and a function of a package that builds it."""
    inputs = _inputs()
    cells = 20000
    sweep = inputs.environment_config(random.Random(SEED), cells, kernel_points=2)
    rng = random.Random(SEED)
    per_cell = {**sweep, "b11": {"density": [
        [k / cells, (k + 1) / cells, rng.uniform(-0.6, 0.6)] for k in range(cells)]}}
    every_node = {**sweep, "b11": {"density": sweep["b11"]["density"], "atoms": [
        [k / cells, rng.uniform(-0.5, 0.5)] for k in range(1, cells + 1)]}}
    scan = inputs.environment_config(random.Random(SEED), 2000)
    special = inputs.special_form_config(random.Random(SEED), 1000)

    def env(data):
        return lambda pkg: pkg.parse_config(data).environment

    out = {"lambda_sweep": env(sweep), "verify_scan": env(scan),
           "picard_route": lambda pkg: pkg.special_to_general(
               pkg.parse_config(special).special_form)}
    for name in CONFIGS:
        def shipped(pkg, path=ROOT / "configs" / f"{name}.json"):
            cfg = pkg.load_config(str(path))
            return cfg.environment if cfg.kind == "environment" else pkg.special_to_general(
                cfg.special_form)
        out[name] = shipped
    out.update({"per_cell_b11": env(per_cell), "atom_every_node": env(every_node)})
    return out


def _calls(pkg, env):
    """Each call's name and a function that sets the call up, outside the
    timer, and returns it."""
    nodes = env.grid.nodes
    n = nodes.size - 1
    r, s, t = (float(nodes[k]) for k in (n // 4, n // 2, n))

    def table():
        fresh = dataclasses.replace(env)
        fresh._cross_drifts
        return lambda: fresh._table

    return {"solve_general": lambda: partial(pkg.solve_general, env, t, (1.0, 1.0)),
            "check_flow": lambda: partial(pkg.check_flow, env, r, s, t, (1.0, 1.0)),
            "sweep_table": table,
            "emit_config": lambda: partial(pkg.emit_config, env)}


def main(argv) -> int:
    if len(argv) not in (3, 4):
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    calls = int(argv[3]) if len(argv) == 4 else 21
    a, b = _package(argv[1], "cbve_a"), _package(argv[2], "cbve_b")
    print("model call A_ms B_ms ratio B_wins")
    for name, build in models().items():
        sides = [_calls(pkg, build(pkg)) for pkg in (a, b)]
        for call in sides[0]:
            fa, fb = sides[0][call], sides[1][call]
            fa()(), fb()()
            ta, tb = [], []
            for _ in range(calls):
                for f, times in ((fa, ta), (fb, tb)):
                    run = f()
                    start = perf_counter()
                    run()
                    times.append(1e3 * (perf_counter() - start))
            ma, mb = statistics.median(ta), statistics.median(tb)
            wins = sum(x > y for x, y in zip(ta, tb))
            print(f"{name} {call} {ma:.3f} {mb:.3f} {mb / ma:.3f} {wins}/{calls}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
