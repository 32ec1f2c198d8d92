"""Environment record for benchmark results.

``runtime()`` is what every run prints; it reads nothing outside the
interpreter. ``python3 perfbench/envinfo.py`` prints the fuller record kept
in ``perfbench/ENVIRONMENT.json`` (CPU model and cache sizes come from
``lscpu``), for the machine the recorded numbers were taken on.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

LOOP_MODEL = "closed loop, 1 client, 1 process; each op is hardylab.cli.main(argv) in-process"


def runtime() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "loop": LOOP_MODEL,
    }


def full() -> dict:
    import calibrate
    import workloads

    rec = runtime()
    rec["calibration_reference_s"] = calibrate.REFERENCE_S
    rec["grid_sizes"] = {
        "certify-65536": workloads.CERTIFY_N,
        "zeroset-16384": workloads.ZEROSET_N,
        "density": f"M up to {workloads.KERNEL_M}",
        "synth-io-65536": workloads.SYNTH_N,
    }
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
    rec["commit"] = git.stdout.strip() or "unknown (not a git checkout)"
    lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, check=False).stdout
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L1d cache", "L2 cache", "L3 cache"):
            rec[key.strip().lower().replace(" ", "_")] = value.strip()
    return rec


if __name__ == "__main__":
    json.dump(full(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
