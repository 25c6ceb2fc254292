"""Time the sweep of two cbve source trees against each other, in one process.

Usage::

    python tests/sweep_ab.py SRC_A SRC_B [CALLS]

``SRC_A`` and ``SRC_B`` are directories that hold a ``cbve`` package, e.g.
two checkouts' ``src``.  Each is imported under a name of its own, so both
live in this process, and each builds its own copy of every model from the
same config.  Per model, six calls (nine on a special form) are first
run once on each side, so compiled tables and sweep loops are built, and
then timed ``CALLS`` times
(default 21) in alternation, A then B: ``solve_general`` over the whole
horizon, ``check_flow`` at r = T/4, s = T/2, t = T (lambda = (1, 1)),
``check_flow_held``, the same check while the whole-horizon solve at
(T, lambda) is held, solved outside the timer first as ``verify_scan``
orders them, ``check_flow_base4``, the same check on the 4 times refined
grid (``solver._flow_residual`` with ``base=4``, the refinement check of
``cbve verify``), ``sweep_table``, the build of the model's sweep table (``_table``) on a
fresh copy of the model whose cross drifts are built outside the timer,
and ``emit_config`` of the model (views its kernels cache on first use
are built in the untimed first call).  A model given as a special form
adds ``special_to_general``, the build of its general form's sweep table
(``special_to_general(sf)._table``) on a fresh copy of the form whose
coordinate moments were built outside the timer, as a ``picard_route``
task orders them (Picard first), and ``picard_table`` and ``sim_table``,
the builds of the form's Picard and simulator tables (``_picard_table``,
``_sim_table``), each on a fresh copy of the form; its other calls run on
its general form.
A line holds the model, the call, the median ms of A and of B, their
ratio B / A and the number of calls in which B was faster.

Before the timed calls, since tracing slows them, a memory pass builds
each model afresh per side and traces five steps (six on a special
form) with ``tracemalloc``, in order: building its sweep table with its cross drifts
(``_table``), building its mean steps (``_mean_steps``), one
whole-horizon ``solve_moment`` (lambda = (1, 1)), then two whole-horizon
``solve_general`` at the same lambda whose results are dropped
(``solve_general`` and ``solve_general_again``); a special form adds
``special_to_general``, the timed call's build traced on a fresh copy of
the form, its general form kept.  A line holds the
model, the step, and per side the traced peak and the KB the step left
allocated (its cached table or its kept result included), A then B.  A
dropped solve leaves nothing behind but, on a model's first solve, the
sweep loops a side compiles for it and the model's (empty) slot in the
registry of held solves.  A general form keeps its diagonal and cross
drifts and its table, so ``special_to_general`` leaves as much on a side
that builds the cross moments as on one that reads them from the form;
a general form that kept its two cross moments would leave more.

The models are the bench generators' (``bench/inputs.py``, seed 11): the
``lambda_sweep`` model, a ``verify_scan`` environment and a
``picard_route`` special form; the four shipped configurations;
and two models where every cell is its own run, the ``lambda_sweep``
model with a density of b11 drawn per cell and with a b11 atom on every
node.

After the sweep rows come the Monte-Carlo rows, timed the same way (one
untimed call per side, then ``CALLS`` alternating calls, A then B, call i
on master seed i for both sides): ``streams seed_block_1000``, the
seeding of ``PCGStreams`` for paths 0..999 plus their first block of
uniforms, and, on each of the five criterion-8 cases of
``tests/_instances.py`` (``mc_case1`` to ``mc_case5``, built per side with
that side's package), ``mc_laplace`` and ``mc_mean`` at 1,000 paths
up to the form's horizon.  Their cached reference solves are built in the
untimed call, as in the ``mc_crosscheck`` workload's set-up.  pytest
does not collect this file.
"""
from __future__ import annotations

import dataclasses
import importlib.util
import random
import statistics
import sys
import tracemalloc
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
MC_PATHS = 1000
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
    """Each model's name and a function of a package that builds it, an
    environment or a special form."""
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
           "picard_route": lambda pkg: pkg.parse_config(special).special_form}
    for name in CONFIGS:
        out[name] = lambda pkg, path=ROOT / "configs" / f"{name}.json": pkg.load_config(
            str(path)).model
    out.update({"per_cell_b11": env(per_cell), "atom_every_node": env(every_node)})
    return out


def _general(pkg, model):
    """``model``, or its general form if it is a special form."""
    return pkg.special_to_general(model) if isinstance(model, pkg.SpecialForm) else model


def _fresh_form(sf):
    """A copy of ``sf`` with its coordinate moments built."""
    fresh = dataclasses.replace(sf)
    fresh._moments
    return fresh


def _general_table(pkg, sf):
    """``sf``'s general form, with its sweep table built."""
    general = pkg.special_to_general(sf)
    general._table
    return general


def _calls(pkg, model):
    """Each call's name and a function that sets the call up, outside the
    timer, and returns it."""
    env = _general(pkg, model)
    nodes = env.grid.nodes
    n = nodes.size - 1
    r, s, t = (float(nodes[k]) for k in (n // 4, n // 2, n))

    def table():
        fresh = dataclasses.replace(env)
        fresh._cross_drifts
        return lambda: fresh._table

    def held():
        sol = pkg.solve_general(env, t, (1.0, 1.0))
        return lambda: (sol, pkg.check_flow(env, r, s, t, (1.0, 1.0)))

    calls = {"solve_general": lambda: partial(pkg.solve_general, env, t, (1.0, 1.0)),
             "check_flow": lambda: partial(pkg.check_flow, env, r, s, t, (1.0, 1.0)),
             "check_flow_held": held,
             "check_flow_base4": lambda: partial(pkg.solver._flow_residual, env, r, s, t,
                                                 (1.0, 1.0), base=4),
             "sweep_table": table,
             "emit_config": lambda: partial(pkg.emit_config, env)}
    if env is not model:
        calls["special_to_general"] = lambda: partial(_general_table, pkg, _fresh_form(model))
        for name in ("picard_table", "sim_table"):
            calls[name] = lambda name=name: partial(getattr, dataclasses.replace(model), f"_{name}")
    return calls


def _mc_cases(pkg) -> list:
    """``_instances.mc_cases()``, built with ``pkg`` imported as ``cbve``."""
    saved = sys.modules.get("cbve")
    sys.modules["cbve"] = pkg
    try:
        spec = importlib.util.spec_from_file_location(
            f"_instances_{pkg.__name__}", ROOT / "tests" / "_instances.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["cbve"]
        else:
            sys.modules["cbve"] = saved
    return module.mc_cases()


def _mc_calls(pkg) -> dict:
    """Each Monte-Carlo row's name and a function of a master seed that
    runs it."""
    paths = np.arange(MC_PATHS)
    calls = {("streams", "seed_block_1000"):
             lambda seed: pkg.streams.PCGStreams(seed, paths).block(paths)}
    for k, (sf, x0, lam) in enumerate(_mc_cases(pkg), 1):
        for fn in ("mc_laplace", "mc_mean"):
            calls[f"mc_case{k}", fn] = partial(getattr(pkg, fn), sf, x0, sf.horizon, lam,
                                               MC_PATHS)
    return calls


def _ab(fa, fb, calls: int):
    """Median ms of A and B over ``calls`` alternating calls, and the
    number of calls in which B was faster.  Call ``i`` sets up ``fa(i)``
    and ``fb(i)`` outside the timer and times the functions they return,
    A then B."""
    ta, tb = [], []
    for i in range(calls):
        for f, times in ((fa, ta), (fb, tb)):
            run = f(i)
            start = perf_counter()
            run()
            times.append(1e3 * (perf_counter() - start))
    return statistics.median(ta), statistics.median(tb), sum(x > y for x, y in zip(ta, tb))


def _steps_kb(pkg, model) -> list:
    """(peak, kept) KB of each memory-pass step on ``model``, traced apart."""
    env = _general(pkg, model)
    t = env.horizon
    steps = [lambda: env._table, lambda: env._mean_steps,
             lambda: pkg.solve_moment(env, t, (1.0, 1.0)),
             lambda: pkg.solve_general(env, t, (1.0, 1.0)) and None,
             lambda: pkg.solve_general(env, t, (1.0, 1.0)) and None]
    if env is not model:
        fresh = _fresh_form(model)
        steps.append(lambda: _general_table(pkg, fresh))
    out, kept = [], []
    tracemalloc.start()
    try:
        for step in steps:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            kept.append(step())
            now, peak = tracemalloc.get_traced_memory()
            out.append(((peak - before) / 1024, (now - before) / 1024))
    finally:
        tracemalloc.stop()
    return out


def main(argv) -> int:
    if len(argv) not in (3, 4):
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    calls = int(argv[3]) if len(argv) == 4 else 21
    a, b = _package(argv[1], "cbve_a"), _package(argv[2], "cbve_b")
    print("model step A_peak_kb A_kept_kb B_peak_kb B_kept_kb")
    for name, build in models().items():
        sides = [_steps_kb(pkg, build(pkg)) for pkg in (a, b)]
        steps = ("sweep_table", "mean_steps", "solve_moment", "solve_general",
                 "solve_general_again", "special_to_general")
        for step, (ka, kb) in zip(steps, zip(*sides)):
            print(f"{name} {step} {ka[0]:.0f} {ka[1]:.1f} {kb[0]:.0f} {kb[1]:.1f}", flush=True)
    print("model call A_ms B_ms ratio B_wins")
    for name, build in models().items():
        sides = [_calls(pkg, build(pkg)) for pkg in (a, b)]
        for call in sides[0]:
            fa, fb = sides[0][call], sides[1][call]
            fa()(), fb()()
            ma, mb, wins = _ab(lambda i: fa(), lambda i: fb(), calls)
            print(f"{name} {call} {ma:.3f} {mb:.3f} {mb / ma:.3f} {wins}/{calls}", flush=True)
    sides = [_mc_calls(pkg) for pkg in (a, b)]
    for (name, call), fa in sides[0].items():
        fb = sides[1][name, call]
        fa(0), fb(0)
        ma, mb, wins = _ab(lambda i: partial(fa, i), lambda i: partial(fb, i), calls)
        print(f"{name} {call} {ma:.3f} {mb:.3f} {mb / ma:.3f} {wins}/{calls}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
