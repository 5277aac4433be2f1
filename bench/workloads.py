"""The four benchmark workloads: what one op is, its inputs, and its oracle.

Each setup function takes the benchmark seed, the checkout root, a scratch
directory and the run's Tracer (None when untraced), does the
workload's set-up (library imports, rule and basis construction, config
parsing) and returns cycle, where cycle(k) lists the ops of cycle k.  An
op's check returns the problems it found in the op's output, as short codes;
an empty list means the output is right.  An op whose problems are exactly
those recorded at the seed commit (op.known) is a known defect, kept so that
its fix shows, and is counted apart from unexpected failures.

The library only ever receives generated inputs: the battery draws its
functions here, from numpy generators seeded by (seed, cycle).  The curve,
flows and cli inputs are pinned, so that their reference outputs hold and the
ops that fail at the seed commit keep failing the same way; for them the
seed fixes the order of the ops in each cycle.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    known: frozenset = field(default_factory=frozenset)


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def rule_with_basis(d: int, n: int):
    """The quadrature rule with its spectral basis built, so that set-up pays for both."""
    from sphereineq.sphere_calculus import make_rule

    rule = make_rule(d, n)
    rule.basis
    return rule


def shuffled(ops: list[Op], seed: int, k: int) -> list[Op]:
    """The ops of cycle k in an order fixed by the benchmark seed."""
    order = list(ops)
    random.Random(f"{seed}:{k}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# curve: one best-constant solve per lambda

CURVE_POINT = (3, 3.0)
CURVE_LAMBDAS = (0.5, 2.0, 3.5, 5.0)
# The CLI defaults, seed included: op k solves grid index k of
# `sphereineq figure1 --lambda-grid 0.5 2 3.5 5`.  The restart seed is pinned
# because the solve time depends on it far more than on the machine.
CURVE_OPTIONS = {"node_count": 48, "restarts": 8, "max_iters": 1500}
CURVE_SEED = 0
# mu must repeat the seed commit's value to this relative distance
CURVE_MU_RTOL = 1e-7
CURVE_ORDER_SLACK = 1e-9


def curve_problems(curve, lam: float, mu_ref: float) -> list[str]:
    mu = curve.numeric[0]
    problems = []
    if not curve.converged[0]:
        problems.append("unconverged")
    if not abs(mu - mu_ref) <= CURVE_MU_RTOL * abs(mu_ref):
        problems.append("mu_mismatch")
    thm2 = curve.thm2[0]
    if thm2 == thm2 and thm2 > mu + CURVE_ORDER_SLACK:  # thm2 is nan below lambda = 1
        problems.append("mu_below_thm2")
    if mu > lam + CURVE_ORDER_SLACK:
        problems.append("mu_above_lambda")
    return problems


def setup_curve(seed: int, root: Path, work_dir: Path, tracer) -> Callable[[int], list[Op]]:
    from sphereineq.exponents import make_parameter_point
    from sphereineq.variational import bound_curve_sweep

    reference = {entry["lambda"]: entry for entry in load_reference()["curve"]}
    pp = make_parameter_point(*CURVE_POINT)
    rule_with_basis(pp.d, CURVE_OPTIONS["node_count"])

    def op(k: int, lam: float) -> Op:
        entry = reference[lam]
        # CURVE_SEED + k is the seed the full sweep gives grid index k
        return Op(
            kind=f"lambda={lam:g}",
            run=lambda: bound_curve_sweep(pp, [lam], seed=CURVE_SEED + k, **CURVE_OPTIONS),
            check=lambda curve: curve_problems(curve, lam, entry["mu"]),
            known=frozenset(entry["known"]),
        )

    ops = [op(k, lam) for k, lam in enumerate(CURVE_LAMBDAS)]
    return lambda k: shuffled(ops, seed, k)


# ---------------------------------------------------------------------------
# battery: one (function, check) pair per op, at the acceptance points

BATTERY_POINTS = ((3, 1.5), (3, 3.0), (2, 4.0), (3, 5.0))
BATTERY_NODES = 48
BATTERY_FUNCTIONS = 200  # per point and cycle, plus as many even ones at d >= 3
BATTERY_SLACK = 1e-8  # a margin passes when deficit >= -SLACK (1 + |lhs|)
KLT_POINT = (3, 3.0)
KLT_POTENTIALS = 50


def margin_problems(lhs: float, deficit: float) -> list[str]:
    return [] if deficit >= -BATTERY_SLACK * (1.0 + abs(lhs)) else ["negative_margin"]


def setup_battery(seed: int, root: Path, work_dir: Path, tracer) -> Callable[[int], list[Op]]:
    import numpy as np

    from sphereineq.exponents import make_parameter_point
    from sphereineq.phi_functions import make_phi_spec
    from sphereineq.sphere_calculus import AxiFunction, ckp_distance, deficit
    from sphereineq.stereographic import euclidean_deficit, push_forward
    from sphereineq.variational import klt_validate

    def deficit_check(result) -> list[str]:
        return margin_problems(result.lhs, result.deficit)

    def ckp_check(result) -> list[str]:
        lower, gap = result
        return margin_problems(gap, gap - lower)

    def point_checks(pp):
        """(kind, evaluate) for every check that applies at pp."""
        checks = [("gns", lambda u: deficit(u, "gns", pp))]
        if pp.p <= pp.two_sharp:
            checks.append(("improved_gns", lambda u: deficit(u, "improved_gns", pp)))
        else:
            spec = make_phi_spec(pp, envelope=True)
            checks.append(("improved_envelope", lambda u: deficit(u, "improved_phi", pp, spec)))
        checks.append(("ckp_distance", lambda u: ckp_distance(u, pp.p)))
        flat_ids = ["weighted_gns"]
        if 2.0 < pp.p < pp.two_sharp:
            flat_ids.append("stability")
        if pp.in_bakry_emery_range:
            flat_ids.append("sharper_stability")
        for flat_id in flat_ids:
            checks.append(
                (f"flat_{flat_id}", lambda u, i=flat_id: euclidean_deficit(push_forward(u), i, pp))
            )
        return checks

    points = []
    for d, p in BATTERY_POINTS:
        pp = make_parameter_point(d, p)
        points.append((pp, rule_with_basis(d, BATTERY_NODES), point_checks(pp)))
    rule_with_basis(KLT_POINT[0], BATTERY_NODES)

    def cycle(k: int) -> list[Op]:
        rng = np.random.default_rng([seed, k])
        ops = []
        for pp, rule, checks in points:
            for _ in range(BATTERY_FUNCTIONS):
                g = rule.basis[:, :9] @ rng.normal(0.0, 0.5, 9)
                u = AxiFunction(rule, values=np.exp(g))
                for kind, evaluate in checks:
                    check = ckp_check if kind == "ckp_distance" else deficit_check
                    ops.append(Op(kind, lambda f=evaluate, u=u: f(u), check))
            if pp.d >= 3:
                z2 = rule.nodes * rule.nodes
                for _ in range(BATTERY_FUNCTIONS):
                    coeffs = rng.normal(size=5)
                    u = AxiFunction(rule, values=np.exp(0.4 * np.polynomial.polynomial.polyval(z2, coeffs)))
                    ops.append(
                        Op("antipodal", lambda u=u, pp=pp: deficit(u, "antipodal", pp), deficit_check)
                    )
        for mode in ("minus_V", "plus_V"):
            klt_seed = int(rng.integers(2**31))
            ops.append(
                Op(
                    kind=f"klt_{mode}",
                    run=lambda mode=mode, s=klt_seed: klt_validate(
                        *KLT_POINT, n_samples=KLT_POTENTIALS, sign_mode=mode,
                        node_count=BATTERY_NODES, tolerance=BATTERY_SLACK, seed=s,
                    ),
                    check=lambda rep: [] if rep.violation_count == 0 else ["violation"],
                )
            )
        return ops

    return cycle


# ---------------------------------------------------------------------------
# flows: one certified run per op

# Configs in the CLI's flow-config format.  The two shipped configs are read
# from configs/; the others cover heat runs at the acceptance points and
# porous-medium runs at admissible beta, twice as many as heat runs so that
# the median op is a porous-medium run.  heat_d4_p3.5_even and
# nonlinear_d4_p3.5_b4 fail their entropy-rate certificate at the seed commit
# (an under-resolved run); they stay so that a fix shows.
def flow_spec(mode, d, p, kind, amplitude, beta=None, antipodal=False) -> dict:
    spec = {"mode": mode, "d": d, "p": p, "antipodal": antipodal,
            "initial": {"kind": kind, "amplitude": amplitude}}
    if beta is not None:
        spec.update(beta=beta, time_horizon=0.5)
    return spec


FLOWS = {
    "shipped_heat_d3_p3": "configs/heat_d3_p3.json",
    "shipped_nonlinear_d3_p5_b1.2": "configs/nonlinear_d3_p5_b1.2.json",
    "heat_d3_p1.5_affine": flow_spec("heat", 3, 1.5, "affine", 0.2),
    "heat_d2_p4_exponential": flow_spec("heat", 2, 4.0, "exponential", 0.3),
    "heat_d3_p5_even": flow_spec("heat", 3, 5.0, "even", 0.3, antipodal=True),
    "heat_d4_p3.5_even": flow_spec("heat", 4, 3.5, "even", 0.5, antipodal=True),
    "nonlinear_d3_p3_b1.5": flow_spec("nonlinear", 3, 3.0, "affine", 0.2, beta=1.5),
    "nonlinear_d2_p4_b1.5_even": flow_spec("nonlinear", 2, 4.0, "even", 0.3, beta=1.5, antipodal=True),
    "nonlinear_d3_p5_b2": flow_spec("nonlinear", 3, 5.0, "affine", 0.2, beta=2.0),
    "nonlinear_d3_p4_b2": flow_spec("nonlinear", 3, 4.0, "exponential", 0.2, beta=2.0),
    "nonlinear_d2_p4_bm2": flow_spec("nonlinear", 2, 4.0, "exponential", 0.2, beta=-2.0),
    "nonlinear_d2_p4_b3": flow_spec("nonlinear", 2, 4.0, "affine", 0.2, beta=3.0),
    "nonlinear_d3_p5_b1.5_even": flow_spec("nonlinear", 3, 5.0, "even", 0.3, beta=1.5, antipodal=True),
    "nonlinear_d4_p3.5_b2": flow_spec("nonlinear", 4, 3.5, "affine", 0.2, beta=2.0),
    "nonlinear_d4_p3.5_b4": flow_spec("nonlinear", 4, 3.5, "affine", 0.3, beta=4.0),
}


def flow_config(root: Path, name: str) -> dict:
    spec = FLOWS[name]
    return json.loads((root / spec).read_text()) if isinstance(spec, str) else spec


def flow_inputs(spec: dict):
    """(runner, u0, cfg, pp) for one config, built the way `sphereineq flow` builds them."""
    import numpy as np

    from sphereineq.exponents import make_flow_setting, make_parameter_point
    from sphereineq.flows import make_flow_config, run_heat_flow, run_nonlinear_flow
    from sphereineq.sphere_calculus import AxiFunction

    pp = make_parameter_point(spec["d"], spec["p"])
    heat = spec["mode"] == "heat"
    setting = pp if heat else make_flow_setting(pp, spec["beta"])
    cfg = make_flow_config(
        setting, spec.get("time_horizon", 1.0),
        node_count=spec.get("node_count", 48), antipodal=spec.get("antipodal", False),
    )
    rule = rule_with_basis(pp.d, cfg.node_count)
    z, a = rule.nodes, spec["initial"]["amplitude"]
    values = {"affine": 1.0 + a * z, "exponential": np.exp(a * z), "even": np.exp(a * z * z)}
    u0 = AxiFunction(rule, values=values[spec["initial"]["kind"]])
    return (run_heat_flow if heat else run_nonlinear_flow), u0, cfg, pp


def setup_flows(seed: int, root: Path, work_dir: Path, tracer) -> Callable[[int], list[Op]]:
    from sphereineq.flows import certify_ode_chain

    reference = load_reference()["flows"]

    def op(name: str) -> Op:
        runner, u0, cfg, pp = flow_inputs(flow_config(root, name))
        return Op(
            kind=name,
            run=lambda: certify_ode_chain(runner(u0, cfg), pp),
            check=lambda report: [] if report.passed else ["certification"],
            known=frozenset(reference[name]["known"]),
        )

    ops = [op(name) for name in FLOWS]
    return lambda k: shuffled(ops, seed, k)


# ---------------------------------------------------------------------------
# cli: one fresh `sphereineq` process per op

CLI_COMMANDS = {
    "constants": ["constants", "--d", "3", "--p", "3"],
    "constants_beta": ["constants", "--d", "3", "--p", "5", "--beta", "1.2"],
    "figure2": ["figure2"],
    "flow_heat": ["flow", "configs/heat_d3_p3.json"],
    "verify_gns": ["verify", "gns", "--d", "3", "--p", "3", "--n", "20", "--seed", "7"],
    "klt": ["klt", "--d", "3", "--q", "3", "--samples", "10", "--seed", "3"],
    "figure1_readme": ["figure1", "--d", "3", "--p", "3", "--lambda-grid", "0.5", "1.5", "2.0",
                       "--n-nodes", "32", "--restarts", "4"],
}
# what the `sphereineq` console script runs
ENTRY_POINT = "import sys; from sphereineq.cli import main; sys.exit(main())"


def cli_argv(name: str, out_dir: Path, spans_path: Path | None) -> list[str]:
    args = CLI_COMMANDS[name] + ["--out-dir", str(out_dir)]
    if spans_path is None:
        return [sys.executable, "-c", ENTRY_POINT, *args]
    return [sys.executable, str(HERE / "cli_boot.py"), str(spans_path), *args]


def data_file_hashes(out_dir: Path) -> dict:
    """sha256 of every file the command wrote, manifests excepted (they carry times and paths)."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if not path.name.endswith("_manifest.json")
    }


def setup_cli(seed: int, root: Path, work_dir: Path, tracer) -> Callable[[int], list[Op]]:
    entry_module = root / "src" / "sphereineq" / "cli.py"
    if not entry_module.is_file():
        raise FileNotFoundError(f"nothing to benchmark: {entry_module} is missing")
    reference = load_reference()["cli"]
    counter = itertools.count()

    def op(name: str) -> Op:
        def run():
            n = next(counter)
            out_dir = work_dir / f"op{n}"
            out_dir.mkdir()
            spans = work_dir / f"op{n}.spans.json" if tracer is not None else None
            proc = subprocess.run(cli_argv(name, out_dir, spans), cwd=root, capture_output=True)
            return proc.returncode, out_dir, spans

        def check(result) -> list[str]:
            code, out_dir, spans = result
            problems = [] if code == 0 else [f"exit_{code}"]
            if data_file_hashes(out_dir) != reference[name]["files"]:
                problems.append("data_mismatch")
            shutil.rmtree(out_dir)
            if spans is not None:
                tracer.merge(json.loads(spans.read_text()))
                spans.unlink()
            return problems

        return Op(kind=name, run=run, check=check, known=frozenset(reference[name]["known"]))

    ops = [op(name) for name in CLI_COMMANDS]
    return lambda k: shuffled(ops, seed, k)


SETUPS = {"curve": setup_curve, "battery": setup_battery, "flows": setup_flows, "cli": setup_cli}
