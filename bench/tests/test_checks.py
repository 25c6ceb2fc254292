"""Self-tests of the benchmark harness: corrupted outputs must be counted
as failures, raising tasks must not stop a run, and BENCHMARK.json must
name exactly the metrics the harness prints.

    python3 -m pytest -q bench/tests
"""
import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cbve  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from spans import NULL, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, InputError  # noqa: E402


@pytest.fixture(scope="module")
def outputs():
    """One checked task per workload: (workload, input, output)."""
    done = {}
    for name, cls in WORKLOADS.items():
        workload = cls(7)
        inp = workload.next_input()
        out = workload.run(inp, NULL)
        assert workload.check(inp, out) == [], name
        done[name] = (workload, inp, out)
    return done


def _corrupt(out, key, field, index, value, add=False):
    sol = out[key]
    arr = getattr(sol, field).copy()
    arr[index] = arr[index] + value if add else value
    return {**out, key: dataclasses.replace(sol, **{field: arr})}


@pytest.mark.parametrize("name, corrupt, expect", [
    ("verify_scan", lambda o: _corrupt(o, "sol", "v", (0, 0), -1e-3), "nonnegative"),
    ("verify_scan", lambda o: _corrupt(o, "sol", "v", (-1, 1), 1e-9, add=True),
     "terminal_value"),
    ("verify_scan", lambda o: _corrupt(o, "sol_big", "v", (3, 0), -1.0, add=True),
     "lambda_increment"),
    ("verify_scan", lambda o: _corrupt(o, "sol", "v", (0, 1), 1e6), "upper_bound"),
    ("verify_scan", lambda o: {**o, "flow_residual": 2e-5}, "flow_residual"),
    ("verify_scan", lambda o: _corrupt(o, "moment", "pi", (0, 0), float("nan")),
     "moment_finite"),
    ("lambda_sweep", lambda o: _corrupt(o, "sol", "v", (0, 0), -1e-3), "nonnegative"),
    ("lambda_sweep", lambda o: _corrupt(o, "sol", "v", (-1, 0), 1e-9, add=True),
     "terminal_value"),
    ("lambda_sweep", lambda o: _corrupt(o, "sol", "v", (1, 0), 1e6), "upper_bound"),
    ("lambda_sweep", lambda o: _corrupt(o, "moment", "pi", (0, 1), float("inf")),
     "moment_finite"),
    ("lambda_sweep", lambda o: _corrupt(o, "moment", "pi", (-1, 1), 1.0, add=True),
     "moment_terminal_value"),
    ("picard_route", lambda o: _corrupt(o, "general", "v", (0, 0), 1e-6, add=True),
     "route_agreement"),
    ("picard_route", lambda o: {**o, "picard": dataclasses.replace(
        o["picard"], picard_min_increments=(0.0, -1e-9))}, "picard_monotone"),
    ("picard_route", lambda o: {**o, "picard": dataclasses.replace(
        o["picard"], picard_iterate_maxima=(o["picard"].picard_bound + 1e-6,))},
     "picard_bound"),
    ("mc_crosscheck", lambda o: dataclasses.replace(o, z_score=6.0), "z_score"),
    ("mc_crosscheck", lambda o: dataclasses.replace(o, z_score=float("nan")), "z_score"),
])
def test_corrupted_output_fails_check(outputs, name, corrupt, expect):
    workload, inp, out = outputs[name]
    assert expect in workload.check(inp, corrupt(out))
    assert workload.check(inp, out) == []


class _Raising:
    round = 1

    def __init__(self, exc):
        self.exc = exc

    def run(self, inp, tr):
        raise self.exc

    def check(self, inp, out):
        return []


@pytest.mark.parametrize("exc", [cbve.NumericalError("boom"), ZeroDivisionError("x")])
def test_raising_task_is_counted_and_run_goes_on(exc):
    failures = []
    elapsed = run._run_task(_Raising(exc), None, NULL, 3, failures)
    assert elapsed >= 0.0
    assert failures == [{"task": 3, "failed": [f"{type(exc).__name__}: {exc}"]}]


def test_generator_bug_stops_the_run():
    with pytest.raises(InputError):
        run._run_task(_Raising(InputError("bad model")), None, NULL, 0, [])


def test_generated_models_are_seeded_and_admissible():
    for seed in range(20):
        env_cfg = inputs.environment_config(random.Random(seed), 300)
        assert env_cfg == inputs.environment_config(random.Random(seed), 300)
        env = cbve.parse_config(env_cfg).environment
        assert env.grid.n_cells == 300 and env.validation.ok
        sf = cbve.parse_config(inputs.special_form_config(random.Random(seed), 300))
        assert sf.grid.n_cells == 300
        assert cbve.special_to_general(sf.special_form).validation.ok


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.task(0):
        with tracer.span("outer.work"):
            with tracer.span("inner.work"):
                sum(range(10000))
    layer = summarize(tracer.spans)
    outer, inner = tracer.spans[1], tracer.spans[2]
    task_time = tracer.spans[0].duration
    assert layer["outer.work.calls"] == layer["inner.work.calls"] == 1.0
    assert layer["outer.work.share"] == pytest.approx(
        (outer.duration - inner.duration) / task_time)
    assert layer["inner.work.share"] == pytest.approx(inner.duration / task_time)


def test_scaling_follows_the_local_kernel_time():
    ref = hostspeed.REFERENCE_MS * 1e-3
    times = [0.05] * 12
    # the host runs at reference speed, then twice as slow for the last six tasks
    kernel_times = [ref] * 6 + [2 * ref] * 6
    scaled = hostspeed.scaled(times, kernel_times)
    assert scaled[:4] == pytest.approx([0.05] * 4)
    assert scaled[-4:] == pytest.approx([0.025] * 4)
    assert hostspeed.scale(ref) == pytest.approx(1.0)


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
