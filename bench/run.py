"""Run one cbve benchmark workload and print its metrics.

    python3 bench/run.py --workload verify_scan --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports cbve from its
``src``.  The workload is a closed loop with one client on one thread: a
task starts when the previous one has been checked.  With ``--trace 0``
the tasks run untraced and the end-to-end metrics are reported, as times
scaled to a reference host speed (see ``hostspeed``); with
``--trace 1`` every input runs once untraced and once traced, and the
per-layer metrics come from the traced runs' spans.  The second-to-last
stdout line is the full record (run metadata, input properties, sample
counts, failures); the last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

#: pinned before numpy loads, so BLAS and OpenMP run one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "tasks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

WORKLOAD_NAMES = ("verify_scan", "lambda_sweep", "picard_route", "mc_crosscheck")

CLI_CONFIGS = ("bottleneck", "feller", "jump_special", "mixed_environment")


def _per_layer() -> dict:
    spans = (
        ("config.parse_config", ("ms",)),
        ("environment.validate", ("ms",)),
        ("environment.special_to_general", ("ms",)),
        ("solver.solve_general", ("cold_ms", "warm_ms", "ns_per_cell")),
        ("solver.check_flow", ("ms",)),
        ("solver.solve_special_picard", ("ms",)),
        ("moments.solve_moment", ("ms", "ns_per_cell")),
        ("simulator.mc_laplace", ("ms",)),
        ("simulator.mc_mean", ("ms",)),
        ("simulator.SeedSpec.generator", ("us",)),
        ("simulator.simulate_path", ("us",)),
        ("simulator.reference_solve", ("ms",)),
    )
    units = {"ms": "ms", "cold_ms": "ms", "warm_ms": "ms", "us": "us", "ns_per_cell": "ns"}
    out = {}
    for name, timings in spans:
        for timing in timings:
            out[f"{name}.{timing}"] = units[timing]
        out[f"{name}.calls"] = "calls/task"
        out[f"{name}.share"] = "frac"
    out.update({
        "solver.picard.iterations": "count",
        "solver.picard.ns_per_cell_iteration": "ns",
        "simulator.events_per_path": "count",
        "simulator.paths_per_s": "1/s",
        "trace.overhead_frac": "frac",
    })
    out.update({f"cli.verify.{name}.ms": "ms" for name in CLI_CONFIGS})
    return out


PER_LAYER = _per_layer()

#: each run times at least this many tasks, so ten or more lie beyond p90
MIN_TASKS = 100
#: set-up runs this many times per untraced run (this process plus fresh
#: interpreters) and the median is reported
SETUP_REPEATS = 11


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (no git)"
    return done.stdout.strip() or "unknown"


def run_metadata() -> dict:
    import importlib.util

    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "numba": importlib.util.find_spec("numba") is not None,
        "network": "not used",
        "src_cbve_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                              for p in sorted((SRC / "cbve").glob("*.py"))),
    }


def _run_task(workload, inp, tracer, task_id, failures):
    """Time one task; returns its seconds.  Checks run after the clock stops."""
    from workloads import InputError

    start = perf_counter()
    try:
        with tracer.task(task_id):
            out = workload.run(inp, tracer)
        elapsed = perf_counter() - start
        failed = workload.check(inp, out)
    except InputError:
        raise
    except Exception as exc:  # counted in fail_frac, the run goes on
        elapsed = perf_counter() - start
        failed = [f"{type(exc).__name__}: {exc}"]
    if failed:
        failures.append({"task": task_id, "failed": failed})
    return elapsed


def _loop(workload, seconds, step):
    """Call ``step(task_id)`` until the time is up, at least MIN_TASKS
    tasks have run and the workload's round is complete."""
    deadline = perf_counter() + seconds
    count = 0
    while perf_counter() < deadline or count < MIN_TASKS or count % workload.round:
        step(count)
        count += 1
    return count


def _cli_times(tracer, failures) -> None:
    from cbve import cli

    with tempfile.TemporaryDirectory(prefix="cli-verify-", dir=BENCH) as tmp:
        for name in CLI_CONFIGS:
            argv = ["verify", "--config", str(ROOT / "configs" / f"{name}.json"),
                    "--out", str(Path(tmp) / f"{name}.txt")]
            with tracer.span(f"cli.verify.{name}"):
                code = cli.main(argv)
            if code != 0:
                failures.append({"task": f"cli.verify.{name}", "failed": [f"exit {code}"]})


def _setup_in_fresh_process(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _task_metrics(times, passed) -> dict:
    p90 = statistics.quantiles(times, n=10)[8]
    return {
        "task_p50_ms": statistics.median(times) * 1e3,
        "task_p90_ms": p90 * 1e3,
        "tasks_per_s": passed / sum(times),
    }


def _measure(workload, seconds, failures):
    """Untraced run: the end-to-end task figures.  The reference kernel runs
    after every task, outside its timed interval, and each task time is
    scaled by the kernel times around it."""
    from hostspeed import REFERENCE_MS, scaled, time_kernel
    from spans import NULL

    times, kernel_times = [], []

    def step(i):
        times.append(_run_task(workload, workload.next_input(), NULL, i, failures))
        kernel_times.append(time_kernel())

    count = _loop(workload, seconds, step)
    passed = count - len(failures)
    metrics = _task_metrics(scaled(times, kernel_times), passed)
    wall = _task_metrics(times, passed)
    p90 = statistics.quantiles(times, n=10)[8]
    return metrics, {"tasks": count, "beyond_p90": sum(t > p90 for t in times),
                     "wall": wall,
                     "host_slowdown": statistics.median(kernel_times) * 1e3 / REFERENCE_MS}


def _measure_traced(workload, seconds, failures):
    """Traced run: each input once untraced and once traced, in alternating
    order, so the tracing overhead is measured on identical work."""
    from spans import NULL, Tracer, summarize

    tracer = Tracer()
    plain, traced = [], []

    def step(i):
        inp = workload.next_input()
        runs = ((plain, NULL), (traced, tracer))
        for times, tr in runs if i % 2 else runs[::-1]:
            times.append(_run_task(workload, inp, tr, i, failures))

    count = _loop(workload, seconds, step)
    if hasattr(workload, "probe"):
        workload.probe(tracer)
    _cli_times(tracer, failures)
    layer = summarize(tracer.spans)
    layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics = {name: layer.get(name, 0.0) for name in PER_LAYER}
    return metrics, {"tasks": 2 * count, "traced_tasks": count,
                     "cli_calls": len(CLI_CONFIGS)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "cbve" / "__init__.py").is_file():
        print(f"cbve sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    start = perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setup = {"wall_s": perf_counter() - start}
    from hostspeed import scale, settled_kernel_s

    setup["setup_s"] = setup["wall_s"] * scale(settled_kernel_s())
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    failures = []
    if args.trace:
        metrics, samples = _measure_traced(workload, args.seconds, failures)
        units = PER_LAYER
        attempted = samples["tasks"] + samples["cli_calls"]
    else:
        metrics, samples = _measure(workload, args.seconds, failures)
        setups = [setup] + [_setup_in_fresh_process(args.workload, args.seed)
                            for _ in range(SETUP_REPEATS - 1)]
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples["setup_runs"] = len(setups)
        samples["wall"]["setup_s"] = statistics.median(s["wall_s"] for s in setups)
        units = END_TO_END
        attempted = samples["tasks"]
    named = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": run_metadata(),
        "inputs": workload.properties(),
        "samples": samples,
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
        "metrics": named,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": named}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
