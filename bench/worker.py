"""One workload in one fresh process: set up, run whole cycles of ops, report.

    python3 bench/worker.py --workload W --seed N --seconds S --mode M --out FILE --work-dir DIR

--mode setup stops where the first op would start; measure runs whole
cycles of ops for about --seconds; trace does the same with span probes
installed.  DIR holds the files the ops write.  The result goes to FILE as
JSON; its time stamps are perf_counter values, which share one monotonic
clock across processes.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import probes
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_FAILURE_RECORDS = 20


def blas_threads() -> dict:
    """Thread count of every OpenBLAS this process loaded, by library file."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads[os.path.basename(path)] = getter()
                break
    return threads


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # loads scipy's own BLAS

    def blas(config) -> str:
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_kb() -> int:
    """Largest resident set of this process or of any op process it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def run_cycles(cycle, ops, started: float, seconds: float, tracer=None) -> dict:
    """Run whole cycles of ops, one at a time, for about `seconds` after `started`.

    The run stops at the cycle end nearest to the deadline: once it is
    within half a mean cycle of it, and always after at least one cycle.

    Each op is timed alone; its check runs outside the timed region.  An op
    fails when it raises or its check reports a problem that is not one of
    its known seed-commit defects.
    """
    latencies = []
    kinds = []
    outcomes = Counter()
    known = Counter()
    failures = []
    n = 0
    k = 0
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op = n
            t0 = perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # one bad op must not stop the run
                latency = perf_counter() - t0
                problems = [f"exception_{type(exc).__name__}"]
                detail = traceback.format_exc(limit=-3)
            else:
                latency = perf_counter() - t0
                problems = op.check(result)
                detail = None
            latencies.append(latency)
            kinds.append(op.kind)
            if not problems:
                outcomes["ok"] += 1
            elif set(problems) <= op.known:
                outcomes["known"] += 1
                known[f"{op.kind}: {','.join(problems)}"] += 1
            else:
                outcomes["failed"] += 1
                if len(failures) < MAX_FAILURE_RECORDS:
                    failures.append({"op": n, "kind": op.kind, "problems": problems, "detail": detail})
            n += 1
        k += 1
        elapsed = perf_counter() - started
        if elapsed + 0.5 * elapsed / k >= seconds:
            break
        ops = cycle(k)

    return {
        "cycles": k,
        "latencies": latencies,
        "kinds": kinds,
        "outcomes": dict(outcomes),
        "known": dict(known),
        "failures": failures,
    }


def run(workload: str, seed: int, seconds: float, mode: str, work_dir: Path) -> dict:
    tracer = None
    if mode == "trace":
        tracer = probes.Tracer()
        if workload != "cli":  # cli ops trace themselves, in their own processes
            probes.install(tracer)
    cycle = workloads.SETUPS[workload](seed, ROOT, work_dir, tracer)
    ops = cycle(0)
    first_op_at = perf_counter()
    if mode == "setup":
        return {"first_op_at": first_op_at}

    out = run_cycles(cycle, ops, first_op_at, seconds, tracer)
    out.update(first_op_at=first_op_at, peak_rss_kb=peak_rss_kb(), env=environment())
    if tracer is not None:
        out["trace"] = tracer.dump()
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, args.mode, args.work_dir)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
