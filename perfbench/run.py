"""qhspace benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it benchmarks ``src/qhspace``
there.  The load is a closed loop: each client runs passes one after
another, each in a fresh interpreter, and starts the next when the previous
one has returned its last certificate.  A pass runs every case of the
workload once.  Every worker is pinned to one CPU, and BLAS threads to
``BLAS_THREADS``.

With ``--trace 0`` it runs rounds of passes for about ``--seconds`` (at
least ``MIN_ROUNDS``; no round is started that would likely end past
``--seconds``) and reports the end-to-end metrics: the median pass wall
time, the median peak resident memory of a pass and the median set-up time.
A round is one pass per client, side by side, each of the ``CLIENTS``
clients on a CPU of its own.

With ``--trace 1`` it runs one untraced pass, one pass with spans and one
pass with a tracemalloc peak per span, and reports the per-layer metrics and
the tracing overhead.

Every run first checks that the gate is live (two injected faults must fail)
and records the environment.  Human-readable lines come first; the last line
of standard output is the JSON result.  The full record, spans included,
goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import SIZE_COUNTS, SPAN_NAMES, WORK_COUNTS, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("group_ladder", "pointed_ladder", "corners", "cli_projects")
BLAS_THREADS = 1
SETUP_PROBES = 1  # set-up-only interpreters per run, besides the self-check and one per pass
MIN_ROUNDS = 2
RUN_LIMIT = 170  # seconds a run may take before it gives up, set-up included
MEMORY_PARTS = 2
CPUS = sorted(os.sched_getaffinity(0))
# Passes side by side in a round, one per CPU.  Two passes, each pinned to
# its own CPU, ran at a steadier speed on a 2-vCPU virtual machine than one
# pass alone, whose speed swings with the load the host puts beside it: the
# spread of corners passes fell from 13% to 5.5% of the mean.
CLIENTS = min(2, len(CPUS))


class WorkerError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_all(jobs: list[tuple[str, str | None]], args, scratch: str) -> list[dict]:
    """Run workers side by side, one per (mode, part), and wait for all of them.

    The k-th worker is pinned to the k-th CPU (modulo their number).  A
    worker's set-up time counts from our spawn call.  Workers still running
    at ``args.deadline`` are killed.
    """
    running = []
    try:
        for k, (mode, part) in enumerate(jobs):
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--mode", mode, "--out", tempfile.mkdtemp(dir=scratch),
                   "--cpu", str(CPUS[k % len(CPUS)])]
            if part:
                cmd += ["--part", part]
            # a session of its own, so that killing it also kills its qhs processes
            running.append((mode, time.monotonic(), subprocess.Popen(
                cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, start_new_session=True)))
        results = []
        for mode, start, proc in running:
            stdout, stderr = proc.communicate(timeout=max(args.deadline - time.monotonic(), 1.0))
            if proc.returncode != 0:
                raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n{stderr[-2000:]}")
            result = json.loads(stdout.strip().splitlines()[-1])
            result["setup_s"] = result["ready_at"] - start
            results.append(result)
        return results
    finally:
        for _, _, proc in running:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


def spawn(mode: str, args, scratch: str) -> dict:
    return spawn_all([(mode, None)], args, scratch)[0]


def merge_parts(parts: list[dict]) -> dict:
    """One memory-traced pass from its parts: cases and spans in part order."""
    spans = []
    for part in parts:
        offset = len(spans)
        spans += [dict(r, id=r["id"] + offset,
                       parent=None if r["parent"] is None else r["parent"] + offset)
                  for r in part["spans"]]
    return {
        "setup_s": max(p["setup_s"] for p in parts),
        "wall_s": max(p["wall_s"] for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "cases": [c for p in parts for c in p["cases"]],
        "spans": spans,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, if the checkout is itself a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Medians over the passes and set-ups of the run."""
    return {
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def per_layer(plain: dict, spans: dict, memory: dict) -> tuple[dict, dict]:
    """Per-span self time, calls and tracemalloc peak; work counts; tracing overhead."""
    records = spans["spans"]
    selfs = self_times(records)
    out = {}
    for name in SPAN_NAMES:
        mine = [r for r in records if r["name"] == name]
        peaks = [r.get("peak_mb") or 0.0 for r in memory["spans"] if r["name"] == name]
        out[f"{name}.s"] = metric(sum(selfs[r["id"]] for r in mine), "s")
        out[f"{name}.calls"] = metric(len(mine), "count")
        out[f"{name}.peak_mb"] = metric(max(peaks, default=0.0), "MB")
    for name in SIZE_COUNTS + WORK_COUNTS:
        unit = "B" if name.endswith("_bytes_computed") else "count"
        out[name] = metric(spans["counts"][name], unit)
    overhead = spans["wall_s"] - plain["wall_s"]
    uncovered = spans["wall_s"] - sum(selfs.values())
    unknown = sorted({r["name"] for r in records} - set(SPAN_NAMES))
    out["trace.wall_s"] = metric(spans["wall_s"], "s")
    out["trace.overhead_s"] = metric(overhead, "s")
    out["trace.uncovered_s"] = metric(uncovered, "s")
    check = {
        "traced_wall_s": spans["wall_s"],
        "untraced_wall_s": plain["wall_s"],
        "overhead_s": overhead,
        "self_time_sum_s": sum(selfs.values()),
        "uncovered_s": uncovered,
        "unknown_spans": unknown,
        # the self times must account for the traced wall time up to the
        # tracing overhead; a larger gap means a call into a layer has no span
        "consistent": not unknown and uncovered <= abs(overhead) + 0.01 * spans["wall_s"],
    }
    return out, check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.deadline = time.monotonic() + RUN_LIMIT
    # on SIGTERM, unwind through the cleanup that kills and waits for workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (os.path.isfile(os.path.join(ROOT, "src", "qhspace", "cli.py"))
            and os.path.isdir(os.path.join(ROOT, "projects"))):
        print(f"error: {ROOT} holds no qhspace source tree (src/qhspace, projects/)", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT, prefix="run-")
    try:
        check = spawn("selfcheck", args, scratch)
        probes = [spawn("setup", args, scratch) for _ in range(SETUP_PROBES)]
        setups = [p["setup_s"] for p in (check, *probes)]
        begin = time.monotonic()
        if args.trace:
            passes = [spawn("plain", args, scratch), spawn("spans", args, scratch)]
            # tracemalloc slows a pass several times over and its times are
            # discarded, so the memory pass runs its cases in MEMORY_PARTS
            # interpreters side by side
            passes.append(merge_parts(spawn_all(
                [("memory", f"{k}/{MEMORY_PARTS}") for k in range(MEMORY_PARTS)], args, scratch)))
        else:
            passes, took = [], []
            while len(took) < MIN_ROUNDS or (
                    time.monotonic() - begin + statistics.median(took) <= args.seconds):
                start = time.monotonic()
                passes += spawn_all([("plain", None)] * CLIENTS, args, scratch)
                took.append(time.monotonic() - start)
        elapsed = time.monotonic() - begin
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    setups += [p["setup_s"] for p in passes]
    cases = [c for p in passes for c in p["cases"]]
    failed = [c for c in cases if not c["ok"]]
    selfcheck = check["selfcheck"]
    env = dict(check["environment"], git_commit=git_commit())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "selfcheck": selfcheck,
        "clients": 1 if args.trace else CLIENTS, "cpus": CPUS,
        "setup_s": setups, "elapsed_s": elapsed,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
    }
    if args.trace:
        metrics, trace_check = per_layer(*passes)
        record.update(trace_check=trace_check, spans=passes[1]["spans"],
                      memory_spans=passes[2]["spans"])
    else:
        metrics = end_to_end(passes, setups)
    record["metrics"] = metrics
    result = {
        "correct": not failed and selfcheck["ok"],
        "attempted": len(cases),
        "failed": len(failed),
        "metrics": metrics,
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(record, result=result), fh, indent=1)

    kind = ("untraced, spans, memory-traced" if args.trace else
            f"closed loop, {CLIENTS} client(s), one CPU each")
    print(f"perfbench {args.workload} seed={args.seed}: {len(passes)} passes ({kind}) "
          f"in {elapsed:.1f} s, one fresh interpreter each, BLAS threads {BLAS_THREADS}")
    print("environment: " + json.dumps(env))
    print(f"gate self-check: {selfcheck['failed']}/{len(selfcheck['faults'])} injected faults "
          f"counted as failed, {selfcheck['caught']} for the expected reason: {selfcheck['faults']}")
    for case in failed:
        print(f"FAILED {case['id']}: {case['error'].strip().splitlines()[-1]}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {len(failed)}/{len(cases)} = {len(failed) / len(cases):.3g} "
          "(failed cases over attempted cases)")
    if args.trace:
        tc = record["trace_check"]
        print(f"trace: overhead {tc['overhead_s']:+.4f} s, self times {tc['self_time_sum_s']:.4f} s "
              f"of traced wall {tc['traced_wall_s']:.4f} s, uncovered {tc['uncovered_s']:.4f} s: "
              + ("consistent" if tc["consistent"] else "INCONSISTENT, a span is missing"))
    else:
        print(f"samples: {len(passes)} passes in {len(passes) // CLIENTS} rounds "
              f"of {CLIENTS} side by side, {len(setups)} set-ups")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
