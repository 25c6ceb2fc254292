"""Configuration parsing, canonical round trip, CLI commands and exit codes."""
import json
import math
import os
import time
import warnings

import numpy as np
import pytest

from cbve import CBVEError, emit_config, load_config, parse_config
from cbve import check_flow, cli, solver
from cbve.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _cfg_path(name):
    return os.path.join(CONFIG_DIR, name)


def _write(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigRoundTrip:
    def test_environment_round_trip(self, tmp_path):
        cfg = load_config(_cfg_path("mixed_environment.json"))
        emitted = emit_config(cfg.environment)
        reparsed = parse_config(emitted)
        env_a, env_b = cfg.environment, reparsed.environment
        assert np.array_equal(env_a.grid.nodes, env_b.grid.nodes)
        for key in ("b11", "b22", "b12", "b21", "c1", "c2"):
            ma, mb = getattr(env_a, key), getattr(env_b, key)
            assert np.array_equal(ma.density, mb.density)
            assert ma.atoms == mb.atoms
        for key in ("m1", "m2"):
            ja, jb = getattr(env_a, key), getattr(env_b, key)
            assert tuple(k.points for k in ja.cell_kernels) == tuple(
                k.points for k in jb.cell_kernels
            )
            assert tuple((t, s.points) for t, s in ja.time_atoms) == tuple(
                (t, s.points) for t, s in jb.time_atoms
            )
        # canonical: emitting again reproduces the same document
        assert emit_config(reparsed.environment) == emitted

    def test_special_form_round_trip(self):
        cfg = load_config(_cfg_path("jump_special.json"))
        emitted = emit_config(cfg.special_form)
        reparsed = parse_config(emitted)
        assert np.array_equal(
            cfg.special_form.gamma12.density, reparsed.special_form.gamma12.density
        )
        assert cfg.special_form.gamma11.atoms == reparsed.special_form.gamma11.atoms

    def test_grid_contains_atoms_and_breakpoints(self):
        cfg = load_config(_cfg_path("jump_special.json"))
        for t in (0.5, 0.75):
            cfg.grid.index_of(t)  # raises unless t is a grid node

    def test_field_precise_errors(self, tmp_path):
        from cbve import ConfigError

        with pytest.raises(ConfigError, match="b11.atoms"):
            parse_config({"horizon": 1.0, "grid_cells": 4, "b11": {"atoms": [[0.5]]}})
        with pytest.raises(ConfigError, match="c1"):
            parse_config(
                {"horizon": 1.0, "grid_cells": 4, "c1": {"atoms": [[0.5, 0.1]]}}
            )
        with pytest.raises(ConfigError, match="unknown"):
            parse_config({"horizon": 1.0, "grid_cells": 4, "b99": {}})


_GRIDS = {"grid_cells": {"grid_cells": 4}, "grid_nodes": {"grid_nodes": [0.0, 0.5, 1.0]}}
_MALFORMED = {
    "short segment": ("b11.density[0]", {"b11": {"density": [[0.0, 1.0]]}}),
    "long segment": ("b11.density[0]", {"b11": {"density": [[0.0, 1.0, 0.5, 2.0]]}}),
    "non-list entry": ("b11.density[0]", {"b11": {"density": [5]}}),
    "short atom": ("b12.atoms[0]", {"b12": {"atoms": [[0.5]]}}),
    "short kernel segment": ("m1.kernel[0]", {"m1": {"kernel": [[0.0, 1.0]]}}),
    "non-number horizon": ("horizon: expected a number", {"horizon": "x"}),
    "numeric string horizon": ("horizon: expected a number, got '2'", {"horizon": "2"}),
    "numeric string atom time": ("b11.atoms[0][0]: expected a number, got '0.5'",
                                 {"b11": {"atoms": [["0.5", 0.1]]}}),
    "boolean density": ("b11.density[0][2]: expected a number, got True",
                        {"b11": {"density": [[0.0, 1.0, True]]}}),
    "boolean point coordinate": ("m1.kernel[0][2][0][0]: expected a number, got True",
                                 {"m1": {"kernel": [[0.0, 1.0, [[True, 0.0, 1.0]]]]}}),
    "integer beyond the double range": ("horizon: expected a finite number",
                                        {"horizon": 10**400}),
    "infinite horizon": ("horizon: expected a finite number", {"horizon": math.inf}),
    "negative horizon": ("horizon: must be positive", {"horizon": -1.0}),
    "non-list part": ("b11.density: expected a list", {"b11": {"density": 5}}),
    "non-object section": ("b11: expected an object", {"b11": [1]}),
    "unknown part": ("b11: unknown fields ['values']", {"b11": {"values": []}}),
    "empty segment": ("b11: empty density segment", {"b11": {"density": [[0.5, 0.5, 1.0]]}}),
    "empty kernel segment": ("m1: empty kernel segment [0.5, 0.5)",
                             {"m1": {"kernel": [[0.5, 0.5, [[1.0, 0.0, 1.0]]]]}}),
    "reversed kernel segment": ("m1: empty kernel segment [1.0, 0.5)",
                                {"m1": {"kernel": [[1.0, 0.5, [[1.0, 0.0, 1.0]]]]}}),
    "negative cross drift": ("b12 must be a nondecreasing measure",
                             {"b12": {"density": [[0.0, 1.0, -1.0]]}}),
    "unknown kind": ("kind: expected 'environment' or 'special_form'", {"kind": "model"}),
    "gamma11 atom of -1": ("gamma11 atom at 0.5 must exceed -1",
                           {"kind": "special_form", "gamma11": {"atoms": [[0.5, -1.0]]}}),
}


@pytest.mark.parametrize("grid", sorted(_GRIDS))
@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_entries_are_config_errors(tmp_path, capsys, grid, case):
    field, section = _MALFORMED[case]
    path = _write(tmp_path, {"horizon": 1.0, **_GRIDS[grid], **section})
    assert main(["validate", "--config", path]) == 2
    assert f"config error: {field}" in capsys.readouterr().err


@pytest.mark.parametrize("field, data", [
    ("grid_nodes: expected a list", {"grid_nodes": 5}),
    ("grid_nodes: grid nodes must be strictly increasing", {"grid_nodes": [0.0, 0.5, 0.5, 1.0]}),
    ("grid_cells: must be a positive integer", {"grid_cells": 0}),
    ("grid: time 2.0 outside [0, 1.0]", {"grid_cells": 4, "b11": {"atoms": [[2.0, 0.1]]}}),
    ("top level: expected an object", []),
    ("grid_cells: must be a positive integer", {"grid_cells": True}),
    ("horizon: 2.0 is not the last grid node 1.0", {"horizon": 2.0, "grid_nodes": [0, 0.5, 1]}),
])
def test_malformed_documents_are_config_errors(tmp_path, capsys, field, data):
    assert main(["validate", "--config", _write(tmp_path, data)]) == 2
    assert capsys.readouterr().err == f"config error: {field}\n"


def test_missing_config_is_a_config_error(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config: ")


def test_emit_refuses_a_non_model():
    with pytest.raises(TypeError, match="expected an Environment or SpecialForm"):
        emit_config(load_config(_cfg_path("jump_special.json")))


class TestCommands:
    def test_validate_ok_zero(self, tmp_path, capsys):
        path = _write(tmp_path, {"horizon": 1.0, "grid_cells": 8})
        assert main(["validate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "ok: True" in out

    def test_validate_rejects_excess_load(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            {"horizon": 1.0, "grid_cells": 8, "b11": {"atoms": [[0.5, 1.2]]}},
        )
        assert main(["validate", "--config", path]) == 3
        out = capsys.readouterr().out
        assert "exceeds 1" in out

    @pytest.mark.parametrize("section, message", [
        ({"b11": {"atoms": [[0.5, 1.2]]}}, "type-1 atom load 1.2 exceeds 1"),
        # the moment 1e300 * 1e10 overflows; solve used to exit 1 with a traceback
        ({"m1": {"kernel": [[0.0, 1.0, [[1e300, 0.0, 1e10]]]]}},
         "jump moment integral is not finite"),
    ])
    def test_admissibility_failure_exit_code(self, tmp_path, capsys, section, message):
        path = _write(tmp_path, {"horizon": 1.0, "grid_cells": 8, **section})
        assert main(["solve", "--config", path]) == 3
        assert capsys.readouterr() == ("", f"admissibility failure: {message}\n")

    @pytest.mark.parametrize("point, moment, code", [
        # |z|^2 overflows, the moment 1e200 * 1e-190 does not
        ((1e200, 0.0, 1e-190), "10000000000", 0),
        # the moment 1e300 * 1e10 overflows
        ((1e300, 0.0, 1e10), "inf", 3),
    ])
    def test_validate_far_kernel_point(self, tmp_path, capsys, point, moment, code):
        path = _write(tmp_path, {"horizon": 1.0, "grid_cells": 8,
                                 "m1": {"kernel": [[0.0, 1.0, [list(point)]]]}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", path]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"moment_values: {moment}, 0\n" in captured.out
        assert ("message: jump moment integral is not finite" in captured.out) == (code == 3)

    def test_other_library_error_exit_code(self, monkeypatch, capsys):
        # a CBVEError that is neither a config, admissibility nor numerical failure
        def boom(cfg, args):
            raise CBVEError("boom")

        monkeypatch.setattr(cli, "cmd_validate", boom)
        assert main(["validate", "--config", _cfg_path("feller.json")]) == 4
        assert capsys.readouterr() == ("", "error: boom\n")

    def test_validate_reports_bottleneck(self, capsys):
        assert main(["validate", "--config", _cfg_path("bottleneck.json")]) == 0
        out = capsys.readouterr().out
        assert "bottlenecks: 0.5" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_solve_zero_constant_rows(self, tmp_path, capsys):
        path = _write(tmp_path, {"horizon": 1.0, "grid_cells": 8})
        assert main(["solve", "--config", path, "--lambda", "2,3"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "r,v1,v2"
        assert len(rows) == 10
        for row in rows[1:]:
            _, v1, v2 = row.split(",")
            assert float(v1) == 2.0 and float(v2) == 3.0

    def test_solve_feller_row(self, capsys):
        assert main([
            "solve", "--config", _cfg_path("feller.json"), "--lambda", "1,0",
        ]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        r0 = rows[1].split(",")
        assert float(r0[0]) == 0.0
        expect = math.exp(-1.0) / (1.0 + (1.0 - math.exp(-1.0)))
        assert abs(float(r0[1]) - expect) <= 1e-4

    def test_solve_bottleneck_zero_column(self, capsys):
        assert main([
            "solve", "--config", _cfg_path("bottleneck.json"), "--lambda", "3,5",
        ]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        for row in rows[1:]:
            r, v1, _ = row.split(",")
            if float(r) < 0.5:
                assert float(v1) == 0.0

    def test_moments_csv(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            {"horizon": 1.0, "grid_cells": 8, "b12": {"density": [[0.0, 1.0, 1.0]]}},
        )
        assert main(["moments", "--config", path, "--lambda", "0,1"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "r,pi1,pi2"
        first = rows[1].split(",")
        assert float(first[1]) == pytest.approx(1.0, abs=1e-12)

    def test_simulate_requires_special_form(self, tmp_path, capsys):
        path = _write(tmp_path, {"horizon": 1.0, "grid_cells": 8})
        assert main(["simulate", "--config", path]) == 2

    def test_simulate_csv(self, capsys):
        assert main([
            "simulate", "--config", _cfg_path("jump_special.json"),
            "--x0", "1,0", "--paths", "3", "--seed", "11",
        ]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "path_id,time,kind,type_source,dx1,dx2,x1,x2"
        assert len(rows) > 1
        kinds = {row.split(",")[2] for row in rows[1:]}
        assert kinds <= {"deterministic_atom", "branch_jump"}

    def test_simulate_past_the_candidate_budget_fails_fast(self, capsys):
        start = time.perf_counter()
        assert main([
            "simulate", "--config", _cfg_path("jump_special.json"),
            "--paths", "3", "--x0", "1e11,1e11",
        ]) == 4
        assert time.perf_counter() - start < 1.0
        assert "budget" in capsys.readouterr().err

    @staticmethod
    def _decay(tmp_path, g11, g22):
        return _write(tmp_path, {"kind": "special_form", "horizon": 1.0, "grid_cells": 1,
                                 "gamma11": {"density": [[0.0, 1.0, g11]]},
                                 "gamma22": {"density": [[0.0, 1.0, g22]]}})

    @pytest.mark.parametrize("g11, g22, x0", [
        (-114.97971143433165, -1.9631594705541522, "1e8,1"),
        (-0.7728309305456271, -3791.9573920304515, "1,1e8"),
    ])
    def test_simulate_clamps_flow_rounding(self, tmp_path, capsys, g11, g22, x0):
        # the flow's diagonal rounds to about -eps, which a state of 1e8 used
        # to carry past -1e-9: exit 4, "simulated state left the quadrant"
        path = self._decay(tmp_path, g11, g22)
        assert main(["simulate", "--config", path, "--paths", "3", "--x0", x0]) == 0
        assert capsys.readouterr().out == "path_id,time,kind,type_source,dx1,dx2,x1,x2\n"

    def test_verify_passes_the_monte_carlo_checks_past_flow_rounding(self, tmp_path, capsys):
        # special_general_agreement fails on its own: one cell is too wide
        # for the general sweep (h * mu = 115)
        path = self._decay(tmp_path, -114.97971143433165, -1.9631594705541522)
        main(["verify", "--config", path, "--paths", "100", "--x0", "1e8,1"])
        out = capsys.readouterr().out
        assert "PASS mc_laplace" in out and "PASS mc_mean" in out

    @pytest.mark.parametrize("section, message", [
        # the sweep fails on the first cell only, below r = T/4: the flow
        # checks pass, and the solve read after them raises
        ({"c1": {"density": [[0.0, 0.25, 100.0]]}},
         "negative component -7.750e+07 beyond tolerance; refine the grid"),
        # every cell is stiff: check_flow's fine leg refuses cell 2 at half
        # the width, where the solve would refuse cell 0 at h * mu = 5
        ({"b11": {"density": [[0.0, 1.0, 20.0]]}},
         "stiff decay on cell 2: h * mu = 2.5 > 2, where the two-pass step grows a "
         "decaying mode; refine the grid"),
    ])
    def test_verify_reports_its_first_refusal_in_battery_order(self, tmp_path, capsys,
                                                               section, message):
        path = _write(tmp_path, {"kind": "environment", "horizon": 1.0, "grid_cells": 4,
                                 **section})
        assert main(["verify", "--config", path, "--lambda", "10,0"]) == 4
        assert capsys.readouterr() == ("", f"numerical failure: {message}\n")

    def test_verify_holds_its_solve_for_check_flow(self, monkeypatch, capsys):
        held = []

        def spy(env, r, s, t, lam):
            held.append(len(solver._SOLVES.get(env, {})))
            return check_flow(env, r, s, t, lam)

        monkeypatch.setattr(cli, "check_flow", spy)
        assert main(["verify", "--config", _cfg_path("feller.json")]) == 0
        assert held == [1]

    def test_stiff_decay_is_refused_not_printed(self, tmp_path, capsys):
        # the sweep printed v0 = (0.5258, 7.19e6) with exit 0; the exact
        # value is (0.4617, 0)
        path = _write(tmp_path, {"kind": "environment", "horizon": 1.0, "grid_cells": 1,
                                 "b11": {"density": [[0.0, 1.0, 0.7728309305456271]]},
                                 "b22": {"density": [[0.0, 1.0, 3791.9573920304515]]}})
        assert main(["solve", "--config", path]) == 4
        assert "stiff decay on cell 0: h * mu = 3.79e+03 > 2" in capsys.readouterr().err
        # Picard solves this form, and the general route's refusal is a FAIL
        path = self._decay(tmp_path, -114.97971143433165, -1.9631594705541522)
        assert main(["verify", "--config", path]) == 5
        out = capsys.readouterr().out
        assert "FAIL special_general_agreement: general sweep refused: stiff decay" in out
        assert "PASS picard_monotonicity" in out and "PASS h_transform_round_trip" in out

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--paths"), ("simulate", "--seed"), ("verify", "--seed"),
    ])
    def test_negative_count_is_a_config_error(self, capsys, command, flag):
        assert main([
            command, "--config", _cfg_path("jump_special.json"),
            "--paths", "100", flag, "-1",
        ]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("solve", ["--t", "0.123456789"]),
        ("simulate", ["--t=-0.5"]),
        ("solve", ["--lambda", "nan,1"]),
        ("solve", ["--lambda=-1,1"]),
        ("moments", ["--lambda", "inf,1"]),
        ("approx", ["--lambda=-1,0"]),
        ("verify", ["--lambda", "nan,1"]),
        ("simulate", ["--x0=-1,0"]),
        ("simulate", ["--x0", "nan,0"]),
        ("solve", ["--refine", "0"]),
        ("simulate", ["--refine=-2"]),
        # the Monte-Carlo checks need 100 paths; fewer used to skip them
        ("verify", ["--paths", "50"]),
        ("verify", ["--paths", "0", "--x0", "1,1"]),
    ])
    def test_bad_flag_is_a_config_error(self, capsys, command, flags):
        assert main([command, "--config", _cfg_path("jump_special.json"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flags[0].split('=')[0]} must be")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--paths", "500"], ["--x0", "1,1"], ["--seed", "5"]])
    def test_monte_carlo_flags_need_a_special_form(self, capsys, flags):
        # an environment has no simulator, so verify cannot honour these
        assert main(["verify", "--config", _cfg_path("bottleneck.json"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flags[0]} ")
        assert "special_form" in err

    @pytest.mark.parametrize("flags", [["--x0", "nan,1"], ["--x0", "1,1"], ["--seed", "5"]])
    def test_monte_carlo_flags_need_paths(self, capsys, flags):
        # without --paths no Monte-Carlo check runs, so these did nothing
        assert main(["verify", "--config", _cfg_path("jump_special.json"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flags[0]} ") and "--paths" in err

    @pytest.mark.parametrize("command, flag", [
        *((command, flag) for command in ("validate", "emit")
          for flag in ("--t", "--lambda", "--x0", "--paths", "--seed")),
        *((command, flag) for command in ("solve", "moments", "approx")
          for flag in ("--x0", "--paths", "--seed")),
        ("simulate", "--lambda"),
    ])
    def test_undeclared_flag_is_refused(self, capsys, command, flag):
        value = {"--t": "1", "--paths": "100", "--seed": "3"}.get(flag, "1,1")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", _cfg_path("jump_special.json"), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value, reason", [
        ("1", "expected 'a,b', got '1'"),
        ("a,1", "could not convert string to float: 'a'"),
    ])
    def test_unreadable_pair_is_refused(self, capsys, value, reason):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", _cfg_path("jump_special.json"), "--lambda", value])
        assert exc.value.code == 2
        assert f"argument --lambda: {reason}" in capsys.readouterr().err

    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.txt"
        assert main(["validate", "--config", _cfg_path("bottleneck.json"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write --out: ")
        assert "Traceback" not in err

    def test_verify_runs_the_monte_carlo_checks_from_100_paths(self, capsys):
        assert main(["verify", "--config", _cfg_path("jump_special.json"),
                     "--paths", "100", "--x0", "1,1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS mc_laplace" in out and "PASS mc_mean" in out

    def test_moments_take_a_signed_lambda(self, capsys):
        assert main(["moments", "--config", _cfg_path("jump_special.json"),
                     "--lambda=-1,0.5"]) == 0
        assert capsys.readouterr().out.startswith("r,pi1,pi2\n")

    def test_simulate_zero_paths_writes_the_header_only(self, capsys):
        assert main(["simulate", "--config", _cfg_path("jump_special.json"),
                     "--paths", "0"]) == 0
        assert capsys.readouterr().out == "path_id,time,kind,type_source,dx1,dx2,x1,x2\n"

    def test_approx_table(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            {
                "horizon": 1.0,
                "grid_cells": 200,
                "c1": {"density": [[0.0, 1.0, 0.4]]},
                "m1": {"kernel": [[0.0, 1.0, [[0.4, 0.2, 0.5]]]]},
            },
        )
        assert main(["approx", "--config", path, "--lambda", "1,0.5"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "n,sup_gap"
        gaps = [float(r.split(",")[1]) for r in rows[1:]]
        assert len(gaps) == 6
        assert gaps[-1] < gaps[0]

    def test_verify_zero_env_all_pass(self, tmp_path, capsys):
        path = _write(tmp_path, {"horizon": 1.0, "grid_cells": 64})
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS flow_residual" in out

    def test_verify_special_form(self, capsys):
        assert main(["verify", "--config", _cfg_path("jump_special.json")]) == 0
        out = capsys.readouterr().out
        assert "PASS picard_monotonicity" in out
        assert "PASS special_general_agreement" in out
        assert "PASS h_transform_round_trip" in out

    @pytest.mark.parametrize("cells", [1, 2])
    def test_verify_special_form_on_one_or_two_cells(self, tmp_path, capsys, cells):
        # the scale change's atoms need a node in (0, T]
        path = _write(tmp_path, {"kind": "special_form", "grid_cells": cells,
                                 "mu1": {"kernel": [[0.0, 1.0, [[0.5, 0.0, 1.0]]]]}})
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS h_transform_round_trip" in out

    def test_out_file(self, tmp_path):
        path = _write(tmp_path, {"horizon": 1.0, "grid_cells": 8})
        out_file = tmp_path / "result.csv"
        assert main([
            "solve", "--config", path, "--lambda", "1,1", "--out", str(out_file),
        ]) == 0
        assert out_file.read_text().startswith("r,v1,v2")

    def test_refine_flag(self, tmp_path, capsys):
        path = _write(tmp_path, {"horizon": 1.0, "grid_cells": 8})
        assert main(["solve", "--config", path, "--lambda", "1,1", "--refine", "4"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 34  # header + 33 nodes

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # deliberately coarse grid with a stiff quadratic coefficient drives
        # the sweep negative beyond tolerance
        path = _write(
            tmp_path,
            {"horizon": 1.0, "grid_cells": 4, "c1": {"density": [[0.0, 1.0, 100.0]]}},
        )
        assert main(["solve", "--config", path, "--lambda", "10,0"]) == 4
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cells", [("solve", 64), ("simulate", 1)])
    def test_overflow_exit_code(self, tmp_path, capsys, command, cells):
        # exp(800): Picard's change of scale raises NumericalError; the
        # one-cell simulator flow matrix overflows math.exp itself
        path = _write(tmp_path, {"kind": "special_form", "horizon": 1.0,
                                 "grid_cells": cells,
                                 "gamma11": {"density": [[0.0, 1.0, 800.0]]}})
        assert main([command, "--config", path]) == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Traceback" not in err

    def test_moment_overflow_exit_code(self, tmp_path, capsys):
        # b22 density -800 on 1000 cells: the mean grows past 1e308
        path = _write(tmp_path, {"horizon": 1.0, "grid_cells": 1000,
                                 "b22": {"density": [[0.0, 1.0, -800.0]]}})
        assert main(["moments", "--config", path]) == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Traceback" not in err

    def test_verify_failure_exit_code(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            {"horizon": 1.0, "grid_cells": 8, "b11": {"atoms": [[0.5, 1.5]]}},
        )
        assert main(["verify", "--config", path]) == 5
        assert "FAIL admissibility" in capsys.readouterr().out

    def test_log_env_var(self, tmp_path, monkeypatch, capsys):
        # only debug configures logging: no cbve logger writes above it
        path = _write(tmp_path, {"horizon": 1.0, "grid_cells": 8})
        for value, levels in (("debug", [cli.logging.DEBUG]), ("info", [])):
            seen = []
            monkeypatch.setattr(cli.logging, "basicConfig", lambda **kw: seen.append(kw["level"]))
            monkeypatch.setenv("CBVE_LOG", value)
            assert main(["validate", "--config", path]) == 0
            assert seen == levels
