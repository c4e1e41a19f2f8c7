"""Run the tier-1 tests under five OpenBLAS kernels, at 1 and at 2 BLAS threads.

    python3 tools/blas_matrix.py

Each of the ten runs is a fresh ``pytest`` process over ``tests/`` with
``OPENBLAS_CORETYPE`` set to Haswell, Zen, Sandybridge, Nehalem or Prescott
and ``OPENBLAS_NUM_THREADS`` to 1 or 2; the ``src`` of this checkout comes
first on ``PYTHONPATH``.  One line per run gives the two settings, the core
that OpenBLAS reports for them and the pytest summary line.  The core is read
from a separate ``import numpy`` under the same settings and
``OPENBLAS_VERBOSE=2``: OpenBLAS maps some names onto the kernels of another
core (on x86-64 Zen runs the Haswell kernels and Prescott the Katmai ones),
and falls back to the detected core for a name it does not know.  The exit
status is 1 if any run failed, else 0.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORES = ("Haswell", "Zen", "Sandybridge", "Nehalem", "Prescott")
THREADS = (1, 2)


def _env(core: str, threads: int) -> dict[str, str]:
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": str(threads),
            "PYTHONPATH": src + os.pathsep + path if path else src}


def _last_line(text: str) -> str:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    return lines[-1] if lines else "?"


def reported_core(env: dict[str, str]) -> str:
    """The core that OpenBLAS names when numpy loads it under ``env``."""
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env={**env, "OPENBLAS_VERBOSE": "2"},
                           capture_output=True, text=True)
    cores = [line.split(":", 1)[1].strip() for line in probe.stderr.splitlines() if line.startswith("Core:")]
    return cores[-1] if cores else "?"


def main() -> int:
    failed = False
    for core in CORES:
        for threads in THREADS:
            env = _env(core, threads)
            run = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                                 cwd=ROOT, env=env, capture_output=True, text=True)
            failed |= run.returncode != 0
            print(f"OPENBLAS_CORETYPE={core} OPENBLAS_NUM_THREADS={threads} core={reported_core(env)}: "
                  f"{_last_line(run.stdout)}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
