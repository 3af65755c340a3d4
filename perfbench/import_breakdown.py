#!/usr/bin/env python3
"""Where ``import metaplectic`` spends its time.

    python3 perfbench/import_breakdown.py

Runs ``python -X importtime -c "import metaplectic"`` in fresh interpreters
(BLAS pinned to one thread, as in every benchmark process) and prints the
median cumulative import time of the package and of the heavy modules it
pulls in.  Run from the root of a source checkout.
"""

import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MODULES = ["metaplectic", "numpy", "scipy.linalg", "scipy.integrate", "scipy.ndimage",
           "scipy.special", "metaplectic.evoprop", "metaplectic.sympcore"]
REPEAT = 7


def one_import():
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import metaplectic"],
                          capture_output=True, text=True, env=env, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _self, cum, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name in MODULES and name not in cumulative:
            cumulative[name] = int(cum) / 1e3
    return cumulative


def main():
    runs = [one_import() for _ in range(REPEAT)]
    print(f"cumulative import time, median of {REPEAT} fresh interpreters")
    for name in MODULES:
        vals = [r[name] for r in runs if name in r]
        if vals:
            print(f"  {name:22s} {statistics.median(vals):8.1f} ms")


if __name__ == "__main__":
    main()
