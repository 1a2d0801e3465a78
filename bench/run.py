"""Benchmark entry point; run from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 gives the end-to-end metrics.  After one untimed warm-up op
(except on census-2d, whose ops are long), ops run in a closed loop, each one
starting when the previous one ends, for at most S seconds (always at least
one whole group of ops, so the one census-2d op may run past S).  Then
SETUP_PROBES fresh processes time set-up and the median is reported.

--trace 1 gives the per-layer metrics.  Kernel microbenchmarks run first.
Then the workload's fixed number of ops runs with jobs=1 under span
tracing, while a fresh process runs the same ops untraced, giving
trace.overhead_ratio.  A fixed op count makes the exact counts repeat.

Both modes print the metadata and every metric by name with its unit; the
last stdout line is the JSON result.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description="shbif benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def set_blas_threads() -> int:
    """At most two processes compute at once, so BLAS gets nproc // 2 threads.

    Must run before numpy is imported; child processes inherit it.
    """
    n = len(os.sched_getaffinity(0))
    threads = max(1, n // min(2, n))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_nonblank_lines() -> int:
    return sum(1 for f in SRC.rglob("*.py")
               for line in f.read_text().splitlines() if line.strip())


def child(*args, timeout=120) -> dict:
    """Run bench/child.py in a fresh process and return its JSON line."""
    out = subprocess.run([sys.executable, str(HERE / "child.py"), *map(str, args)],
                         capture_output=True, text=True, timeout=timeout, check=True,
                         cwd=ROOT)
    return json.loads(out.stdout.splitlines()[-1])


def run_untraced(w, seed, seconds, scratch):
    import workloads

    workloads.warm(w)
    log, wall = workloads.measure(w, seed, seconds, scratch)
    # read before the set-up probes, whose processes would count as children
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup = [child("setup", w.name)["setup_s"] for _ in range(SETUP_PROBES)]
    values = {
        "ops_per_s": len(log.times) / wall,
        "op_p50_s": statistics.median(log.times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return log, values


def run_traced(w, seed, scratch):
    import workloads

    workloads.warm(w)
    values = workloads.kernels(w, seed)
    with ThreadPoolExecutor(1) as pool:  # the reference runs in its own process
        ref = pool.submit(child, "reference", w.name, seed, w.trace_ops, scratch,
                          timeout=150)
        tracer, log, wall = workloads.traced_pass(w, seed, w.trace_ops, scratch)
        ref_wall = ref.result()["wall_s"]
    values.update(tracer.metrics())
    values.update(log.metrics())
    values["trace.overhead_ratio"] = wall / ref_wall
    return log, values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shbif" / "__init__.py").is_file():
        print(f"bench: no shbif sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    blas_threads = set_blas_threads()

    import numpy as np
    import scipy

    import metrics
    import workloads

    if Path(workloads.shbif.__file__).resolve().parent != (SRC / "shbif").resolve():
        print(f"bench: imported shbif from {workloads.shbif.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"bench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = workloads.scratch_dir()
    try:
        if args.trace:
            log, values = run_traced(w, args.seed, scratch)
            table = metrics.PER_LAYER
        else:
            log, values = run_untraced(w, args.seed, args.seconds, scratch)
            table = metrics.END_TO_END
    finally:
        workloads.remove_scratch(scratch)

    meta = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": 1 if args.trace else w.jobs,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": workloads.nproc(),
        "blas_threads": blas_threads, "git_commit": git_commit(),
        "src_nonblank_lines": src_nonblank_lines(),
    }
    print("metadata " + json.dumps(meta, sort_keys=True))
    n = len(log.times)
    print(f"ops attempted {n}, failed {log.failed}; op time p50 "
          f"{statistics.median(log.times):.6g} s, max {max(log.times):.6g} s, {n} samples")
    if not args.trace:  # the traced run reports these among its metrics
        for name, value in log.metrics().items():
            print(f"{name} = {value!r} {metrics.UNITS[name]}")
    result = {}
    for name, unit, _better, _moves in table:
        value = values[name]
        print(f"{name} = {value!r} {unit}")
        result[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": log.failed == 0, "attempted": n,
                      "failed": log.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
