"""Run every workload, untraced and traced, and print all metrics.

    python3 bench/report.py --seed 1 --seconds 20 [--out bench/baselines/BENCH_0.json]

Each run is a fresh process of ``bench/run.py``.  The table lists the
end-to-end metrics of each workload (with ``fail_frac``, the sample
counts, and the raw wall figures behind the scaled times) and then its
per-layer split; ``--out`` writes the full records,
run metadata included, as one JSON file.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run


def _record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", default=None, help="write all records as JSON here")
    args = parser.parse_args(argv)
    records = []
    for workload in run.WORKLOAD_NAMES:
        plain = _record(workload, args.seed, args.seconds, 0)
        traced = _record(workload, args.seed, args.seconds, 1)
        records += [plain, traced]
        samples = plain["samples"]
        print(f"{workload}  tasks={samples['tasks']} beyond_p90={samples['beyond_p90']}"
              f" setup_runs={samples['setup_runs']}"
              f" host_slowdown={samples['host_slowdown']:.3f}  inputs={plain['inputs']}")
        rows = [(name, m["value"], m["unit"]) for name, m in plain["metrics"].items()]
        rows.append(("fail_frac", plain["fail_frac"], "frac"))
        rows += [(f"wall.{name}", value, run.END_TO_END[name])
                 for name, value in samples["wall"].items()]
        rows += [(name, m["value"], m["unit"]) for name, m in traced["metrics"].items()
                 if m["value"] != 0.0]
        for name, value, unit in rows:
            print(f"  {name:40s} {value:14.6g} {unit}")
        print(f"  traced run: tasks={traced['samples']['tasks']}"
              f" fail_frac={traced['fail_frac']:g}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": records}, indent=1) + "\n")
    return 0 if all(r["fail_frac"] == 0.0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
