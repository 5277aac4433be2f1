"""Regenerate bench/reference.json, the oracle the benchmark checks ops against.

    python3 bench/make_reference.py

It records, from the library in src/ and with single-threaded BLAS as in the
benchmark: mu at each curve lambda, whether each flow
config passes certification, and the sha256 of every data file each pinned
CLI command writes.  Ops that fail here are recorded as known defects.  Run
it only at a commit whose outputs are the accepted reference: the file in
the repository was produced at the commit that introduced the benchmark.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads as w


def main() -> int:
    os.environ.update(run.child_env())
    sys.path.insert(0, os.environ["PYTHONPATH"])
    from sphereineq.exponents import make_parameter_point
    from sphereineq.flows import certify_ode_chain
    from sphereineq.variational import bound_curve_sweep

    reference = {"curve": [], "flows": {}, "cli": {}}
    pp = make_parameter_point(*w.CURVE_POINT)
    for k, lam in enumerate(w.CURVE_LAMBDAS):
        curve = bound_curve_sweep(pp, [lam], seed=w.CURVE_SEED + k, **w.CURVE_OPTIONS)
        mu = curve.numeric[0]
        reference["curve"].append(
            {"lambda": lam, "mu": mu, "known": w.curve_problems(curve, lam, mu)}
        )
    for name in w.FLOWS:
        runner, u0, cfg, flow_pp = w.flow_inputs(w.flow_config(run.ROOT, name))
        report = certify_ode_chain(runner(u0, cfg), flow_pp)
        reference["flows"][name] = {
            "passed": report.passed,
            "e_rate_max_residual": report.e_rate_max_residual,
            "known": [] if report.passed else ["certification"],
        }
    run.OUT.mkdir(exist_ok=True)
    for name, argv in w.CLI_COMMANDS.items():
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            code = subprocess.run(w.cli_argv(name, Path(tmp), None), cwd=run.ROOT,
                                  capture_output=True).returncode
            reference["cli"][name] = {
                "argv": argv,
                "files": w.data_file_hashes(Path(tmp)),
                "known": [] if code == 0 else [f"exit_{code}"],
            }
    (w.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
