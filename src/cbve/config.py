"""JSON run configurations mirroring the measure data model one-to-one.

A configuration describes either a general environment or a finite-activity
special form on a horizon [0, T].  Scalar measures carry a ``density`` list
of [t0, t1, value] segments and an ``atoms`` list of [time, mass] pairs;
jump measures carry a ``kernel`` list of [t0, t1, points] segments and an
``atoms`` list of [time, points] pairs with points [z1, z2, weight].  The
grid is either ``grid_cells`` uniform cells (segment endpoints and atom
times are inserted as extra nodes) or an explicit ``grid_nodes`` list,
whose last node a given ``horizon`` must equal.
Emission is canonical, so parse(emit(parse(x))) reproduces the model
exactly.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .environment import Environment, SpecialForm
from .errors import ConfigError
from .measures import _NODE_TOL, JumpMeasure, StieltjesMeasure, TimeGrid, _point_runs, _run_starts

__all__ = ["RunConfig", "parse_config", "load_config", "emit_config"]

_MODELS = {"environment": Environment, "special_form": SpecialForm}

#: the config lists of a scalar or jump measure with the shape of each entry;
#: every entry but the last names a time
_PARTS = {
    "scalar": (("density", ("t0", "t1", "value")), ("atoms", ("time", "mass"))),
    "jump": (("kernel", ("t0", "t1", "points")), ("atoms", ("time", "points"))),
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed model definition: exactly one of environment / special form."""

    kind: str
    environment: Environment | None = None
    special_form: SpecialForm | None = None

    @property
    def model(self):
        return self.environment if self.kind == "environment" else self.special_form

    @property
    def grid(self) -> TimeGrid:
        return self.model.grid

    @property
    def horizon(self) -> float:
        return self.model.horizon


def _fail(field: str, message: str):
    raise ConfigError(f"{field}: {message}")


def _float(field: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):  # "2" and true are not numbers
        _fail(field, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf or an integer past the double range
        _fail(field, f"expected a finite number, got {value!r}")
    return float(value)


def _shaped(field: str, raw, shape) -> list:
    """``raw`` as a list whose entries are lists of ``len(shape)`` items."""
    if not isinstance(raw, (list, tuple)):
        _fail(field, "expected a list")
    for idx, entry in enumerate(raw):
        if not isinstance(entry, (list, tuple)) or len(entry) != len(shape):
            _fail(f"{field}[{idx}]", f"expected [{', '.join(shape)}]")
    return raw


def _points(field: str, raw) -> tuple:
    return tuple(
        tuple(_float(f"{field}[{idx}][{c}]", v) for c, v in enumerate(p))
        for idx, p in enumerate(_shaped(field, raw, ("z1", "z2", "weight")))
    )


def _section(data: dict, key: str, jump: bool) -> dict:
    """Checked entries of one coefficient: part name -> [(times..., value)]."""
    section = data.get(key) or {}
    if not isinstance(section, dict):
        _fail(key, "expected an object")
    parts = _PARTS["jump" if jump else "scalar"]
    unknown = set(section) - {part for part, _ in parts}
    if unknown:
        _fail(key, f"unknown fields {sorted(unknown)}")
    out = {}
    for part, shape in parts:
        entries = []
        for idx, entry in enumerate(_shaped(f"{key}.{part}", section.get(part, ()), shape)):
            at = f"{key}.{part}[{idx}]"
            times = [_float(f"{at}[{c}]", t) for c, t in enumerate(entry[:-1])]
            last = f"{at}[{len(entry) - 1}]"
            value = _points(last, entry[-1]) if jump else _float(last, entry[-1])
            entries.append((*times, value))
        out[part] = entries
    return out


def _build_grid(data: dict, sections: dict) -> TimeGrid:
    horizon = _float("horizon", data.get("horizon", 1.0))
    if horizon <= 0.0:
        _fail("horizon", "must be positive")
    if "grid_nodes" in data:
        if not isinstance(data["grid_nodes"], (list, tuple)):
            _fail("grid_nodes", "expected a list")
        nodes = [_float(f"grid_nodes[{i}]", v) for i, v in enumerate(data["grid_nodes"])]
        try:
            grid = TimeGrid(np.asarray(nodes))
        except ValueError as exc:
            _fail("grid_nodes", str(exc))
        if "horizon" in data and abs(horizon - grid.horizon) > _NODE_TOL * max(1.0, grid.horizon):
            _fail("horizon", f"{horizon!r} is not the last grid node {grid.horizon!r}")
        return grid
    cells = data.get("grid_cells", 1000)
    if isinstance(cells, bool) or not isinstance(cells, int) or cells < 1:
        _fail("grid_cells", "must be a positive integer")
    times = {0.0, horizon}
    for section in sections.values():
        for entries in section.values():
            for entry in entries:
                times.update(entry[:-1])
    for t in times:
        if t < 0.0 or t > horizon:
            _fail("grid", f"time {t} outside [0, {horizon}]")
    special = np.asarray(sorted(times))
    uniform = np.linspace(0.0, horizon, cells + 1)
    tol = _NODE_TOL * max(1.0, horizon)
    pos = np.searchsorted(special, uniform)
    keep = np.ones(uniform.size, dtype=bool)
    for side in (np.clip(pos, 0, special.size - 1), np.clip(pos - 1, 0, special.size - 1)):
        keep &= np.abs(uniform - special[side]) > tol
    nodes = np.unique(np.concatenate((special, uniform[keep])))
    return TimeGrid(nodes)


def _measure(grid: TimeGrid, key: str, kind: str, section: dict):
    if kind == "continuous" and section["atoms"]:
        _fail(f"{key}.atoms", "this coefficient must be atom-free")
    try:
        if kind == "jump":
            for t0, t1, _ in section["kernel"]:
                if grid.index_of(t1) <= grid.index_of(t0):
                    raise ValueError(f"empty kernel segment [{t0}, {t1})")
            return JumpMeasure.from_segments(grid, section["kernel"], section["atoms"])
        return StieltjesMeasure.from_segments(grid, section["density"], section["atoms"])
    except ValueError as exc:
        _fail(key, str(exc))


def parse_config(data: dict) -> RunConfig:
    """Parse a configuration dictionary into a validated model."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    kind = data.get("kind", "environment")
    if kind not in _MODELS:
        _fail("kind", f"expected 'environment' or 'special_form', got {kind!r}")
    coefficients = _MODELS[kind]._coefficients()
    known = {"kind", "horizon", "grid_cells", "grid_nodes", *(k for k, _ in coefficients)}
    unknown = set(data) - known
    if unknown:
        _fail("top level", f"unknown fields {sorted(unknown)}")
    sections = {key: _section(data, key, c == "jump") for key, c in coefficients}
    grid = _build_grid(data, sections)
    measures = [_measure(grid, key, c, sections[key]) for key, c in coefficients]
    try:
        model = _MODELS[kind](grid, *measures)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(kind, **{kind: model})


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(data)


def _emit(meas, jump: bool, nodes: list) -> dict | None:
    """Config section of one coefficient on grid ``nodes``, None if zero:
    a segment per run of bitwise equal cells, left out where the value is
    +0.0 or holds no points."""
    if jump:
        starts, sets = _point_runs(meas.cell_points)
        values = [[list(p) for p in pts] for pts in sets]
        atoms = [[t, [list(p) for p in spatial.points]] for t, spatial in meas.time_atoms]
    else:
        starts = _run_starts(meas.density).tolist()
        values, atoms = meas.density[starts].tolist(), [list(atom) for atom in meas.atoms]
    segments = [[nodes[a], nodes[b], v] for a, b, v in zip(starts, [*starts[1:], -1], values)
                if repr(v) not in ("0.0", "[]")]  # bitwise: -0.0 is kept
    (cell_part, _), (atom_part, _) = _PARTS["jump" if jump else "scalar"]
    out = {part: entries for part, entries in ((cell_part, segments), (atom_part, atoms))
           if entries}
    return out or None


def emit_config(model) -> dict:
    """Canonical configuration dictionary for an Environment or SpecialForm."""
    kinds = [k for k, cls in _MODELS.items() if isinstance(model, cls)]
    if not kinds:
        raise TypeError("expected an Environment or SpecialForm")
    nodes = model.grid.nodes.tolist()
    out: dict = {"kind": kinds[0], "horizon": float(model.horizon), "grid_nodes": nodes}
    for key, kind in model._coefficients():
        emitted = _emit(getattr(model, key), kind == "jump", nodes)
        if emitted:
            out[key] = emitted
    return out
