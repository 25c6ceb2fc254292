"""Digest the CLI's output on the shipped configurations, one line per command.

Usage::

    python tests/cli_dump.py SRC > digests.txt

``SRC`` is the directory that holds the ``cbve`` package, e.g. a
checkout's ``src``.  Each command runs as ``python -m cbve.cli`` in its own
process with ``PYTHONPATH=SRC`` and the working directory at the repository
root, so ``configs/`` resolves there.  A line holds the SHA-256 of the
command's exit code, stdout and stderr, then the exit code, the output sizes
and the command.  Two checkouts give byte-identical CLI output exactly when
their digest files are equal; ``diff`` names the commands that differ.

The 38 commands are ``validate``, ``solve`` (default, ``--lambda 2,0.5 --t
0.5``, ``--refine 2``), ``moments`` (default, ``--lambda=-1,2``),
``approx``, ``emit`` and ``verify`` on each shipped configuration, plus
``verify --paths 200 --seed 3`` and ``simulate --paths 5 --seed 3`` on
``jump_special``.  pytest does not collect this file.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("bottleneck", "feller", "jump_special", "mixed_environment")
PER_CONFIG = (
    ("validate",),
    ("solve",),
    ("solve", "--lambda", "2,0.5", "--t", "0.5"),
    ("solve", "--refine", "2"),
    ("moments",),
    ("moments", "--lambda=-1,2"),
    ("approx",),
    ("emit",),
    ("verify",),
)
EXTRA = (
    ("jump_special", ("verify", "--paths", "200", "--seed", "3")),
    ("jump_special", ("simulate", "--paths", "5", "--seed", "3")),
)


def commands():
    """Every command, as its argument list after ``python -m cbve.cli``."""
    runs = [(name, args) for name in CONFIGS for args in PER_CONFIG] + list(EXTRA)
    return [[args[0], "--config", f"configs/{name}.json", *args[1:]] for name, args in runs]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    src = str(Path(argv[1]).resolve())
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("CBVE_LOG", None)
    for args in commands():
        proc = subprocess.run([sys.executable, "-m", "cbve.cli", *args], cwd=ROOT, env=env,
                              capture_output=True, check=False)
        digest = hashlib.sha256(b"%d\n%s\0%s" % (proc.returncode, proc.stdout, proc.stderr))
        print(f"{digest.hexdigest()} exit={proc.returncode} out={len(proc.stdout)} "
              f"err={len(proc.stderr)} {' '.join(args)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
