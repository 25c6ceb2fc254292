"""Seeded generators of cbve model configurations.

Every model is a plain config dict of the kind ``cbve.parse_config``
accepts, so the program under test receives only generated inputs.  The
generators draw from ``random.Random`` and need no numpy, which keeps the
inputs a function of the seed alone and keeps numpy's import inside the
measured set-up time.

Magnitudes keep every model admissible by construction: a diagonal drift
atom is at most 0.6 and a jump atom carries own-coordinate mass at most
1.2 * 0.25 = 0.3, so every diagonal atom load stays below 1.  The
workloads still check ``validate`` on each environment and stop the run
if one fails, because that would be a generator bug, not a program
failure.  A special form is validated by ``special_to_general`` inside
its task.
"""
from __future__ import annotations

import random

HORIZON = 1.0


def _node(cells: int, index: int) -> float:
    # atom times and segment ends sit on uniform-grid nodes, so parsing
    # inserts no extra nodes and the model has exactly ``cells`` cells
    return HORIZON * index / cells


def _segments(rng: random.Random, cells: int, lo: float, hi: float) -> list:
    cuts = sorted(rng.sample(range(1, cells), rng.randint(0, 2)))
    bounds = [0, *cuts, cells]
    return [[_node(cells, a), _node(cells, b), rng.uniform(lo, hi)]
            for a, b in zip(bounds, bounds[1:])]


def _times(rng: random.Random, cells: int, count: int) -> list:
    return [_node(cells, i) for i in sorted(rng.sample(range(1, cells), count))]


def _atoms(rng: random.Random, cells: int, count: int, lo: float, hi: float) -> list:
    return [[t, rng.uniform(lo, hi)] for t in _times(rng, cells, count)]


def _points(rng: random.Random, count: int, w_hi: float) -> list:
    pts = []
    for _ in range(count):
        z1, z2 = rng.uniform(0.0, 1.2), rng.uniform(0.0, 1.2)
        if z1 + z2 <= 0.0:
            z1 = 0.5
        pts.append([z1, z2, rng.uniform(0.05, w_hi)])
    return pts


def _kernel(rng: random.Random, cells: int, n_atoms: int, points: int | None) -> dict:
    """``points`` (or 0-2 when None) points per kernel segment plus
    ``n_atoms`` one-point time atoms."""
    section = {}
    kernel = [[t0, t1, pts] for t0, t1, _ in _segments(rng, cells, 0.0, 1.0)
              if (pts := _points(rng, rng.randint(0, 2) if points is None else points,
                                 0.6))]
    if kernel:
        section["kernel"] = kernel
    if n_atoms:
        section["atoms"] = [[t, _points(rng, 1, 0.25)]
                            for t in _times(rng, cells, n_atoms)]
    return section


def random_lambda(rng: random.Random) -> tuple:
    return (rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0))


def environment_config(rng: random.Random, cells: int,
                       kernel_points: int | None = None) -> dict:
    """Admissible general environment: piecewise densities on every
    coefficient, 1-3 time atoms each on ``b11``, ``b12`` and ``m1``, and
    ``kernel_points`` (by default 0-2) kernel points per type on each
    kernel segment."""
    return {
        "kind": "environment",
        "horizon": HORIZON,
        "grid_cells": cells,
        "b11": {"density": _segments(rng, cells, -0.6, 0.6),
                "atoms": _atoms(rng, cells, rng.randint(1, 3), -0.4, 0.6)},
        "b22": {"density": _segments(rng, cells, -0.6, 0.6)},
        "b12": {"density": _segments(rng, cells, 0.0, 0.4),
                "atoms": _atoms(rng, cells, rng.randint(1, 3), 0.0, 0.3)},
        "b21": {"density": _segments(rng, cells, 0.0, 0.4)},
        "c1": {"density": _segments(rng, cells, 0.0, 0.4)},
        "c2": {"density": _segments(rng, cells, 0.0, 0.4)},
        "m1": _kernel(rng, cells, rng.randint(1, 3), kernel_points),
        "m2": _kernel(rng, cells, 0, kernel_points),
    }


def special_form_config(rng: random.Random, cells: int) -> dict:
    """Finite-activity form for the Picard route: atom-only diagonal drifts
    above -1 (so the internal change of scale is exact), cross drifts with
    densities and atoms, and kernels with time atoms."""
    def diag():
        return {"atoms": _atoms(rng, cells, rng.randint(1, 3), -0.5, 0.6)}

    def cross():
        return {"density": _segments(rng, cells, 0.0, 0.5),
                "atoms": _atoms(rng, cells, rng.randint(0, 2), 0.0, 0.3)}

    return {
        "kind": "special_form",
        "horizon": HORIZON,
        "grid_cells": cells,
        "gamma11": diag(),
        "gamma22": diag(),
        "gamma12": cross(),
        "gamma21": cross(),
        "mu1": _kernel(rng, cells, rng.randint(1, 2), None),
        "mu2": _kernel(rng, cells, rng.randint(0, 1), None),
    }


def _sf(cells: int, **coefficients) -> dict:
    return {"kind": "special_form", "horizon": HORIZON, "grid_cells": cells,
            **coefficients}


#: the five Monte-Carlo consistency cases of acceptance criterion 8, as
#: (config, x0, lam); they are fixed, only the path seeds vary
MC_CASES = (
    # single-type jumps feeding the other type
    (_sf(8, mu1={"kernel": [[0.0, 1.0, [[0.0, 1.0, 1.0]]]]}),
     (1.0, 0.0), (1.0, 1.0)),
    # cross drifts with a two-coordinate kernel
    (_sf(8, gamma12={"density": [[0.0, 1.0, 0.5]]},
         gamma21={"density": [[0.0, 1.0, 0.3]]},
         mu1={"kernel": [[0.0, 1.0, [[0.3, 0.7, 0.6]]]]}),
     (1.0, 0.5), (0.8, 1.2)),
    # deterministic atoms plus an atom batch of jumps
    (_sf(16, gamma11={"atoms": [[0.5, -0.4]]},
         gamma21={"atoms": [[0.5, 0.3]]},
         mu2={"kernel": [[0.0, 1.0, [[0.2, 0.1, 0.4]]]],
              "atoms": [[0.5, [[0.5, 0.5, 0.7]]]]}),
     (0.8, 1.0), (1.0, 0.6)),
    # signed diagonal densities with large jumps
    (_sf(8, gamma11={"density": [[0.0, 1.0, -0.6]]},
         gamma22={"density": [[0.0, 1.0, 0.4]]},
         mu1={"kernel": [[0.0, 1.0, [[1.0, 0.0, 0.8]]]]}),
     (1.0, 1.0), (0.7, 0.9)),
    # mixed atoms, multi-point kernels on both types
    (_sf(16, gamma12={"density": [[0.0, 1.0, 0.4]], "atoms": [[0.75, 0.2]]},
         mu1={"kernel": [[0.0, 1.0, [[0.4, 0.1, 0.5], [0.1, 0.6, 0.3]]]]},
         mu2={"kernel": [[0.0, 1.0, [[0.0, 0.8, 0.7]]]]}),
     (1.2, 0.3), (1.1, 0.5)),
)


def properties(config: dict) -> dict:
    """Input properties the solvers' cost depends on: cells, time atoms and
    kernel points per cell (averaged over both kernels' cells)."""
    cells = config["grid_cells"]
    atoms = 0
    kernel_points = 0
    for section in config.values():
        if not isinstance(section, dict):
            continue
        atoms += len(section.get("atoms", ()))
        for t0, t1, pts in section.get("kernel", ()):
            kernel_points += len(pts) * round((t1 - t0) * cells / HORIZON)
    return {"cells": cells, "atoms": atoms,
            "kernel_points_per_cell": kernel_points / cells}
