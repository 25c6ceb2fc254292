"""Digest the solvers' outcomes on a fixed set of models, one line per model.

Usage::

    python tests/outcome_dump.py SRC > digests.txt

``SRC`` is the directory that holds the ``cbve`` package, e.g. a
checkout's ``src``; it is imported as ``cbve``, and the models are built
with ``tests/_instances.py`` and the generators of ``bench/inputs.py``
from fixed seeds.  A line holds the SHA-256 of every outcome of one
model, then the model's name.  Only the public API, ``_flow_residual``
and ``_simulate_paths`` are called, so two checkouts give the same
outcomes, bit for bit, exactly when their digest files are equal; ``diff``
names the models that differ.  A summary (models, outcomes, typed errors,
the non-finite ones among them, seconds) goes to stderr.

The models: 160 ``random_environment``s on 4-63 cells with T of 1, 5, 20
and 60; 20 ``random_special_form``s on 4-63 cells with T of 1 and 5, and
their general forms; 8 ``verify_scan`` and 6 ``picard_route`` generator
models (seed 11), the latter with their general forms; the shipped
configurations; the two per-run models of ``tests/sweep_ab.py``; an
environment and a special form (with its general form) whose b11 or
gamma11 and kernel points hold both 0.0 and -0.0; and the 8
environments of :func:`_non_finite`, whose sweeps reach +inf or NaN.

The outcomes of a general environment: ``solve_general`` at T and at the
middle node and ``solve_moment`` at T, at each lambda of ``LAMS``;
``_flow_residual`` at nodes (n/4, n/2, n) with base 1, 2 and 4 at each
lambda, while that lambda's solves are held, so the base-1 residual reads
its direct leg from the solve at T where that one succeeded;
``mechanism_increment`` of each type over (0, T] for the node function
:func:`_node_function`; and ``emit_config`` as sorted JSON text.  Of a
special form: ``emit_config``, ``solve_special_picard`` at T at each
lambda, ``special_mechanism_increment`` of each type over (0, T] for the
same node function, and ``_simulate_paths`` of 5 paths, seed 3, from
(1, 1) to T.  A typed error (a ``CBVEError`` or ``ValueError``) counts as
its class and message.  The full run reads 238 models, 6,132 outcomes and
2,378 typed errors, 141 of them non-finite (111 sweeps and 30 mean
solves).  pytest does not collect this file.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
LAMS = ((0.7, 1.3), (50.0, 3.0), (1e4, 1e4), (1e7, 0.0))
CONFIGS = ("bottleneck", "feller", "jump_special", "mixed_environment")


def _bytes(obj) -> bytes:
    """Bytes that tell outcomes apart bit for bit: arrays by dtype, shape
    and buffer, dataclasses field by field, floats by ``repr``."""
    if isinstance(obj, np.ndarray):
        return repr((obj.dtype.str, obj.shape)).encode() + obj.tobytes()
    if dataclasses.is_dataclass(obj):
        return b"{" + b",".join(_bytes(getattr(obj, f.name))
                                for f in dataclasses.fields(obj)) + b"}"
    if isinstance(obj, (tuple, list)):
        return b"(" + b",".join(map(_bytes, obj)) + b")"
    return repr(obj).encode()


def _signed_zeros(cbve, inst):
    """An environment and a special form on 8 cells whose b11 (gamma11) and
    kernel point z1 are 0.0 on some cells and -0.0 on others."""
    grid = inst.uniform_grid(1.0, 8)
    diag = cbve.StieltjesMeasure(grid, [0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0])
    neg = cbve.DiscreteSpatialMeasure(((-0.0, 1.0, 0.5),))
    pos = cbve.DiscreteSpatialMeasure(((0.0, 1.0, 0.5),))
    jump = cbve.JumpMeasure(grid, [neg] * 3 + [pos] * 3 + [neg] * 2)
    cross = cbve.StieltjesMeasure(grid, [0.2] * 8)
    return (inst.make_env(grid, b11=diag, b12=cross, m1=jump),
            inst.make_sf(grid, g11=diag, g12=cross, mu1=jump))


def _non_finite(cbve, inst):
    """(name, environment) of the models of the sweep's +inf and NaN
    refusals.  Those of ``tests/test_solver.py``: b_ii of -1e300 on 4 cells
    and of -1e200 on 1 cell, for each type, whose sweeps overflow to +inf
    and then NaN; and b11 of -1e10 with c1 of 1 on 4 cells, which turns NaN
    only from lambda_1 = 1e300, so at ``LAMS`` it refuses deficits.  A b11
    atom of -1e306 at the middle node of 4 cells, which sends v1 to +inf in
    the atom step.  And b_ii of -1.7e154 on 1 cell, where lambda_1 = 0.7
    goes to +inf in the corrector with no NaN on the way (the predictor's
    square, 1.4e308, stays finite), so only the sweep's test after its loop
    refuses it; elsewhere a +inf turns NaN at the next step, where the
    clamp refuses it."""
    out = []
    for cells, density in ((4, -1e300), (1, -1e200), (1, -1.7e154)):
        grid = inst.uniform_grid(1.0, cells)
        diag = cbve.StieltjesMeasure(grid, [density] * cells)
        out += [(f"overflow_b{i}{i}[{density!r}]", inst.make_env(grid, **{f"b{i}{i}": diag}))
                for i in (1, 2)]
    grid = inst.uniform_grid(1.0, 4)
    out.append(("nan_b11", inst.make_env(grid, b11=cbve.StieltjesMeasure(grid, [-1e10] * 4),
                                         c1=cbve.StieltjesMeasure(grid, [1.0] * 4))))
    atom = cbve.StieltjesMeasure(grid, [0.0] * 4, [(0.5, -1e306)])
    out.append(("overflow_b11_atom", inst.make_env(grid, b11=atom)))
    return out


def models(cbve):
    """(name, function that builds the model) of every model, in order."""
    sys.path.insert(0, str(ROOT / "tests"))
    import _instances as inst
    import sweep_ab

    inputs = sweep_ab._inputs()
    out = []
    rng = np.random.default_rng(SEED)
    for k in range(160):
        cells, T = int(rng.integers(4, 64)), (1.0, 5.0, 20.0, 60.0)[k % 4]
        env = inst.random_environment(rng, cells, T)
        out.append((f"random_environment[{k}]", lambda env=env: env))
    special = []
    for k in range(20):
        cells, T = int(rng.integers(4, 64)), (1.0, 5.0)[k % 2]
        sf = inst.random_special_form(rng, cells, T, ("none", "atoms", "density")[k % 3])
        special.append((f"random_special_form[{k}]", lambda sf=sf: sf))
    gen = random.Random(SEED)
    for k in range(8):
        data = inputs.environment_config(gen, 2000)
        out.append((f"verify_scan[{k}]", lambda d=data: cbve.parse_config(d).environment))
    gen = random.Random(SEED)
    for k in range(6):
        data = inputs.special_form_config(gen, 1000)
        special.append((f"picard_route[{k}]", lambda d=data: cbve.parse_config(d).special_form))
    for name in CONFIGS:
        path = str(ROOT / "configs" / f"{name}.json")
        (special if name == "jump_special" else out).append(
            (name, lambda p=path: cbve.load_config(p).model))
    built = sweep_ab.models()
    out += [(name, lambda b=built[name]: b(cbve)) for name in ("per_cell_b11", "atom_every_node")]
    out += [(name, lambda env=env: env) for name, env in _non_finite(cbve, inst)]
    env, sf = _signed_zeros(cbve, inst)
    out.append(("signed_zeros_environment", lambda: env))
    special.append(("signed_zeros_special_form", lambda: sf))
    for name, build in special:
        out += [(name, build),
                (f"{name}.general", lambda b=build: cbve.special_to_general(b()))]
    return out


def _node_function(grid) -> np.ndarray:
    """A fixed nonnegative pair per node: (0.25 (k mod 5), 2 / (k + 1)) at node k."""
    k = np.arange(grid.nodes.size)
    return np.column_stack((0.25 * (k % 5), 2.0 / (k + 1)))


def _environment_outcomes(cbve, env):
    from cbve.solver import _flow_residual

    nodes = env.grid.nodes.tolist()
    n = len(nodes) - 1
    T, mid = nodes[n], nodes[n // 2]
    r, s = nodes[n // 4], nodes[n // 2]
    held = []
    for lam in LAMS:
        for t in (T, mid):
            yield f"solve_general t={t!r} lam={lam}", lambda t=t, lam=lam: held.append(
                cbve.solve_general(env, t, lam)) or held[-1]
        yield f"solve_moment lam={lam}", lambda lam=lam: cbve.solve_moment(env, T, lam)
        for base in (1, 2, 4):
            yield f"_flow_residual base={base} lam={lam}", lambda b=base, lam=lam: _flow_residual(
                env, r, s, T, lam, b)
    f = _node_function(env.grid)
    for i in (1, 2):
        yield f"mechanism_increment i={i}", lambda i=i: cbve.mechanism_increment(
            env, i, f, 0.0, T)


def _special_outcomes(cbve, sf):
    from cbve.simulator import _simulate_paths

    T = sf.horizon
    for lam in LAMS:
        yield f"solve_special_picard lam={lam}", lambda lam=lam: cbve.solve_special_picard(
            sf, T, lam)
    f = _node_function(sf.grid)
    for i in (1, 2):
        yield f"special_mechanism_increment i={i}", lambda i=i: cbve.special_mechanism_increment(
            sf, i, f, 0.0, T)
    yield "_simulate_paths", lambda: _simulate_paths(sf, (1.0, 1.0), T, 3, 5)


def _outcomes(cbve, build):
    """(label, call) of each outcome of the model ``build`` makes, lazily:
    the build is the first, and the only one if it raises."""
    made = []
    yield "model", lambda: made.append(build())
    if not made:
        return
    model = made[0]
    yield "emit_config", lambda: json.dumps(cbve.emit_config(model), sort_keys=True)
    if isinstance(model, cbve.SpecialForm):
        yield from _special_outcomes(cbve, model)
    else:
        yield from _environment_outcomes(cbve, model)


def _outcome(cbve, fn) -> tuple:
    """``fn()``'s bytes, or its typed error's class and message; and
    whether it raised one."""
    try:
        return _bytes(fn()), False
    except (cbve.CBVEError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}".encode(), True


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[1]).resolve()))
    import cbve

    start = perf_counter()
    counts = [0, 0, 0, 0]  # models, outcomes, typed errors, non-finite ones
    for name, build in models(cbve):
        digest = hashlib.sha256()
        for label, fn in _outcomes(cbve, build):
            out, error = _outcome(cbve, fn)
            digest.update(b"%s\0%s\0" % (label.encode(), out))
            counts[1] += 1
            counts[2] += error
            counts[3] += error and b"non-finite" in out
        counts[0] += 1
        print(f"{digest.hexdigest()} {name}", flush=True)
    print(f"{counts[0]} models, {counts[1]} outcomes, {counts[2]} typed errors "
          f"({counts[3]} non-finite), {perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
