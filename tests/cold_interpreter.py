"""Run a snippet in a fresh interpreter that can import ``repro``.

A test about what an import loads, or about what a build makes resident,
cannot run in the suite's own process: pytest has long since imported
most of ``repro`` and numpy, and ``ru_maxrss`` only ever rises.
"""

import os
import pathlib
import subprocess
import sys

import repro

_SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parents[1])


def run_cold(code: str, timeout: float = 120.0) -> str:
    """Stdout of ``python -c code``; a non-zero exit fails with its stderr."""
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC_DIR] + inherited))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=timeout,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout
