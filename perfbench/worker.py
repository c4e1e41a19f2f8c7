"""One pass of a workload, in a fresh interpreter.

    python perfbench/worker.py --workload NAME --seed N --mode MODE --out DIR [--cpu K]

Run from the checkout root with ``src`` on ``PYTHONPATH``; ``run.py`` does
this.  MODE is one of:

- ``setup``: build the workload inputs and stop;
- ``plain``: the measured pass, untraced;
- ``spans``: the same pass with spans around every call into a layer;
- ``memory``: the spans pass with a tracemalloc peak per span;
- ``selfcheck``: the gate self-check and the environment record.

The last line of standard output is one JSON object.  ``ready_at`` is the
monotonic time at which the inputs were ready; the caller subtracts its own
start time to get the set-up time.
"""

import argparse
import glob
import json
import os
import platform
import resource
import sys
import time
import tracemalloc

import numpy as np

import qhspace.verify
import workloads
from tracing import NullTracer, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def blas_kernel() -> dict:
    """OpenBLAS core name and thread count as numpy's bundled library reports them.

    The build configuration names only the build target of a DYNAMIC_ARCH
    library; the kernel chosen at run time, which changes results, is this.
    """
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    out = {"corename": None, "threads": None}
    if not libs:
        return out
    try:
        lib = ctypes.CDLL(libs[0])
    except OSError:
        return out
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            corename = getattr(lib, f"{prefix}get_corename{suffix}", None)
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if corename is not None and threads is not None:
                corename.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"corename": corename().decode(), "threads": threads()}
    return out


def environment(nproc: int) -> dict:
    """What the numbers depend on: CPU, core count, Python, numpy and its BLAS."""
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_kernel": blas_kernel(),
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "plain", "spans", "memory", "selfcheck"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--part", default="0/1",
                        help="K/N: run only the cases whose index is K modulo N")
    parser.add_argument("--cpu", type=int, help="pin this process and its children to one CPU")
    args = parser.parse_args()
    nproc = len(os.sched_getaffinity(0))
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    k, n = (int(v) for v in args.part.split("/"))

    inputs = workloads.make_inputs(args.workload, args.seed, ROOT)
    inputs = workloads.select(inputs, k, n)
    result = {"ready_at": time.monotonic()}
    if args.mode == "selfcheck":
        result["selfcheck"] = workloads.selfcheck(args.seed, ROOT, args.out)
        result["environment"] = environment(nproc)
    if args.mode in ("setup", "selfcheck"):
        print(json.dumps(result))
        return 0

    t = NullTracer() if args.mode == "plain" else Tracer(memory=args.mode == "memory")
    if t.traced:
        t.wrap_suite(qhspace.verify)
    if args.mode == "memory":
        tracemalloc.start()
    t0 = time.monotonic()
    results = workloads.run_pass(args.workload, inputs, args.seed, t, args.out)
    t1 = time.monotonic()
    if args.mode == "memory":
        tracemalloc.stop()
    # the CLI pass runs its work in child processes: the largest one sets the peak
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_projects" else resource.RUSAGE_SELF
    result.update(
        wall_s=t1 - t0,
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
        cases=[{"id": r.id, "ok": r.ok, "error": r.error, "seconds": r.seconds} for r in results],
    )
    if t.traced:
        result["spans"] = t.records()
        result["counts"] = workloads.work_counts(results, t)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
