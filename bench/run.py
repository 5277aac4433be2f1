"""Benchmark of sphereineq: end-to-end and per-layer metrics on four workloads.

    python3 bench/run.py --workload {curve,battery,flows,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is taken from src/.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: with --trace 0 the metrics are the end_to_end entries of
BENCHMARK.json, with --trace 1 its per_layer entries.  The full record
(every metric, the tail percentiles that apply, the run environment, known
defects and failures) is written to bench/out/.

Load model: a closed loop with one client.  Each workload runs in fresh
worker processes started one at a time: at least SETUP_SAMPLES of them time
the set-up (start of the process to the first op) and one of them runs whole
cycles of ops, each op starting when the previous one ends, for about
--seconds.  The traced run adds a second worker that runs one cycle with
span probes installed around the library's public functions, so its counts
repeat exactly for a seed; the difference between the two workers'
ops_per_s is the tracing overhead.  BLAS runs single-threaded in
every worker and op process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("curve", "battery", "flows", "cli")
# Set-up is sampled in fresh workers until both minimums are met, so that
# a workload with a short set-up (cli) takes enough samples for a steady median.
SETUP_SAMPLES = 5
SETUP_SAMPLING_S = 4.0
IMPORT_SAMPLES = 3
# Every worker must end within this many seconds of the benchmark's start.
DEADLINE_S = 170.0
IMPORT_MODULES = (
    "sphereineq", "sphereineq.exponents", "sphereineq.bounds", "sphereineq.phi_functions",
    "sphereineq.sphere_calculus", "sphereineq.stereographic", "sphereineq.flows",
    "sphereineq.variational", "sphereineq.ioutils", "sphereineq.cli",
    "numpy", "scipy.special", "scipy.optimize", "scipy.linalg",
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPHEREINEQ_OUT_DIR", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    return env


def run_child(argv: list[str], started: float) -> subprocess.CompletedProcess:
    """Run argv from the checkout root; kill its whole process group at the deadline."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, DEADLINE_S - (perf_counter() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{argv[1]} did not finish before the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited with {proc.returncode}:\n{err[-3000:]}")
    return subprocess.CompletedProcess(argv, proc.returncode, None, err)


def spawn(args, mode: str, seconds: float, work_dir: Path, started: float) -> dict:
    """One worker process; returns its record plus its set-up time."""
    out = work_dir / f"{mode}.json"
    spawned = perf_counter()
    run_child(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
         "--out", str(out), "--work-dir", str(work_dir)],
        started,
    )
    record = json.loads(out.read_text())
    out.unlink()
    record.update(mode=mode, setup_s=record["first_op_at"] - spawned)
    return record


def import_times_ms(started: float) -> dict:
    """Median cumulative import time per module of `import sphereineq.cli` (-X importtime)."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES}
    for _ in range(IMPORT_SAMPLES):
        err = run_child([sys.executable, "-X", "importtime", "-c", "import sphereineq.cli"], started).stderr
        seen = report.parse_importtime(err)
        for name in IMPORT_MODULES:
            samples[name].append(seen.get(name, 0.0) / 1e3)
    return {name: statistics.median(values) for name, values in samples.items()}


def machine() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    with open("/proc/cpuinfo") as info:
        models = [line.split(":", 1)[1].strip() for line in info if line.startswith("model name")]
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.processor(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        if args.trace:
            plain = spawn(args, "measure", args.seconds, work_dir, started)
            # one cycle, so that the traced counts repeat exactly for a seed
            traced = spawn(args, "trace", 0.0, work_dir, started)
            runs = [plain, traced]
            metrics = report.per_layer(traced["trace"], import_times_ms(started))
            metrics.update(report.tracing_overhead(plain, traced))
        else:
            setups = []
            sampling = perf_counter()
            while len(setups) < SETUP_SAMPLES - 1 or perf_counter() - sampling < SETUP_SAMPLING_S:
                setups.append(spawn(args, "setup", 0.0, work_dir, started)["setup_s"])
            plain = spawn(args, "measure", args.seconds, work_dir, started)
            runs = [plain]
            metrics = report.end_to_end(plain, setups + [plain["setup_s"]])
    finally:
        shutil.rmtree(work_dir)

    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["outcomes"].get("failed", 0) for r in runs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "env": plain["env"],
        "workers": [{key: r[key] for key in ("mode", "cycles", "outcomes", "known", "failures")}
                    for r in runs],
        "metrics": metrics,
        "per_kind": report.per_kind(plain),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for line in report.describe(record, units | report.EXTRA_UNITS):
        print(line)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
