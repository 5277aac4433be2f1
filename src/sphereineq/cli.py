"""Command line interface for reproducible tables, curves, flows, and checks.

Subcommands
-----------
constants   exponent and constant table for one parameter pair
figure1     best-constant sweep over the linear-term coefficient, with bounds
figure2     admissible diffusion-exponent band per dimension
flow        run a heat or nonlinear diffusion flow from a JSON config, certify it
verify      randomized inequality batteries
klt         randomized Schrodinger spectral-bound battery

Every run writes its data files and one JSON manifest recording the command,
parameters, seed, tool version, tolerances, output paths, wall-clock time,
and solver diagnostics where the command has them.  Data outputs are
byte-deterministic for a fixed command line and seed, so reruns can be
compared with a plain byte diff; the manifest repeats the inputs so any run
can be reproduced from it alone.

Exit codes: 0 success, 2 invalid parameters or usage, 3 a certified
invariant failed, 4 an iterative solver did not converge.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import afst_constants, antipodal_constant, c_dp
from .errors import ConvergenceError, InvariantViolation, ValidationError
from .exponents import beta_roots, m_range, make_flow_setting, make_parameter_point
from .flows import certify_ode_chain, make_flow_config, run_heat_flow, run_nonlinear_flow, write_trace
from .ioutils import atomic_write_text, fmt_float
from .sphere_calculus import AxiFunction, ckp_distance, deficit, make_rule, random_band_limited_exponential
from .stereographic import euclidean_deficit, push_forward
from .variational import bound_curve_sweep, klt_validate, sweep_to_csv

OUT_DIR_ENV = "SPHEREINEQ_OUT_DIR"

__all__ = ["main", "build_parser", "RunManifest", "OUT_DIR_ENV"]


# ---------------------------------------------------------------------------
# manifest and serialization helpers


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every command's outputs."""

    command: str
    parameters: dict
    seed: int | None
    tool_version: str
    tolerances: dict
    outputs: tuple[str, ...]
    wall_clock_seconds: float
    diagnostics: dict = dataclasses.field(default_factory=dict)


def _jsonable(x):
    """Recursively convert numpy scalars and non-finite floats for JSON."""
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if math.isfinite(v):
            return v
        if math.isnan(v):
            return "nan"
        return "inf" if v > 0 else "-inf"
    return x


def _dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, allow_nan=False) + "\n"


def _write_manifest(out_dir: Path, stem: str, manifest: RunManifest) -> Path:
    path = out_dir / f"{stem}_manifest.json"
    atomic_write_text(path, _dump_json(dataclasses.asdict(manifest)))
    return path


def _resolve_out_dir(args) -> Path:
    raw = getattr(args, "out_dir", None) or os.environ.get(OUT_DIR_ENV) or "."
    out = Path(raw)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _tag(x: float) -> str:
    """Compact positive-number tag for file names (3.0 -> '3', 1.25 -> '1.25')."""
    return f"{float(x):g}".replace("-", "m")


def _print_table(table: dict) -> None:
    width = max(len(k) for k in table)
    for key, value in table.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        print(f"{key.ljust(width)}  {text}")


# ---------------------------------------------------------------------------
# constants


def cmd_constants(args) -> int:
    started = time.perf_counter()
    out_dir = _resolve_out_dir(args)
    pp = make_parameter_point(args.d, args.p)

    table: dict = {
        "d": pp.d,
        "p": pp.p,
        "two_star": pp.two_star,
        "two_sharp": pp.two_sharp,
        "p_star": pp.p_star,
        "gamma": pp.gamma,
        "delta": pp.delta,
        "kappa_p": pp.kappa_p,
        "sphere_volume": pp.sphere_volume,
        "is_log_case": pp.is_log_case,
        "is_critical": pp.is_critical,
        "in_bakry_emery_range": pp.in_bakry_emery_range,
        "in_nonlinear_range": pp.in_nonlinear_range,
    }
    if pp.p != 2.0:
        table["gns_constant"] = c_dp(pp)
    if pp.d >= 3:
        table["antipodal_constant"] = antipodal_constant(pp)
    if pp.d >= 2 and 2.0 < pp.p < pp.two_sharp:
        improved_constant, log_lambda = afst_constants(pp)
        table["afst_gns_constant"] = improved_constant
        table["afst_log_lambda"] = log_lambda
    if pp.in_nonlinear_range:
        rng_beta = beta_roots(pp)
        table["beta_range_kind"] = rng_beta.kind
        for k, (lo, hi) in enumerate(rng_beta.components):
            table[f"beta_component_{k}"] = f"({repr(lo)}, {repr(hi)})"
        m_lo, m_hi = m_range(pp)
        table["m_min"] = m_lo
        table["m_max"] = m_hi
    if args.beta is not None:
        fs = make_flow_setting(pp, args.beta)
        table["beta"] = fs.beta
        table["admissible"] = fs.admissible
        table["m"] = fs.m
        table["kappa"] = fs.kappa
        table["zeta"] = fs.zeta
        table["gamma_beta"] = fs.gamma_beta

    _print_table(table)

    stem = f"constants_d{args.d}_p{_tag(args.p)}"
    if args.beta is not None:
        stem += f"_b{_tag(args.beta)}"
    report_path = out_dir / f"{stem}.json"
    atomic_write_text(report_path, _dump_json(table))

    manifest = RunManifest(
        command="constants",
        parameters={"d": args.d, "p": args.p, "beta": args.beta},
        seed=None,
        tool_version=__version__,
        tolerances={},
        outputs=(str(report_path),),
        wall_clock_seconds=time.perf_counter() - started,
    )
    manifest_path = _write_manifest(out_dir, stem, manifest)
    print(f"wrote {report_path} and {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# figure1


def _midpoint_refine(lams: list[float]) -> list[float]:
    refined = []
    for k, lam in enumerate(lams):
        if k > 0:
            refined.append(0.5 * (lams[k - 1] + lam))
        refined.append(lam)
    return refined


def _figure1_grid(args) -> list[float]:
    if args.lambda_grid is not None:
        lams = sorted(float(x) for x in args.lambda_grid)
        if args.refine and len(lams) > 1:
            lams = _midpoint_refine(lams)
    else:
        step = 0.25 * (0.5 if args.refine else 1.0)
        count = int(round((5.0 - 0.25) / step)) + 1
        lams = np.round(np.linspace(0.25, 5.0, count), 12).tolist()
    if not lams:
        raise ValidationError("the lambda grid is empty")
    for lam in lams:
        if not math.isfinite(lam) or lam <= 0.0:
            raise ValidationError(f"lambda grid values must be finite and positive, got {lam}")
    return lams


_FIGURE1_COLUMNS = {
    "lambda": "grid value of the linear-term coefficient",
    "numeric_mu": "variational.bound_curve_sweep, restarted minimization of the quotient",
    "thm2": "bounds.mu_lower_thm2, flow-certified lower bound (nan outside its range)",
    "prop34": "bounds.mu_lower_prop34, spectral lower bound (nan below the constant branch)",
    "identity": "reference line mu = lambda, attained by constant functions",
    "converged": "solver flag, 1 when every restart at this grid value converged",
}


def cmd_figure1(args) -> int:
    started = time.perf_counter()
    out_dir = _resolve_out_dir(args)
    pp = make_parameter_point(args.d, args.p)
    lams = _figure1_grid(args)

    curve = bound_curve_sweep(
        pp, lams, node_count=args.n_nodes, restarts=args.restarts, seed=args.seed
    )

    stem = f"figure1_d{args.d}_p{_tag(args.p)}"
    if args.format == "json":
        data_path = out_dir / f"{stem}.json"
        payload = {
            "d": pp.d,
            "p": pp.p,
            "lambda": list(curve.lams),
            "numeric_mu": list(curve.numeric),
            "thm2": list(curve.thm2),
            "identity": list(curve.lams),
            "converged": [int(c) for c in curve.converged],
        }
        if curve.prop34 is not None:
            payload["prop34"] = list(curve.prop34)
        atomic_write_text(data_path, _dump_json(payload))
    else:
        data_path = out_dir / f"{stem}.csv"
        atomic_write_text(data_path, sweep_to_csv(curve))

    columns = dict(_FIGURE1_COLUMNS)
    if curve.prop34 is None:
        del columns["prop34"]
    manifest = RunManifest(
        command="figure1",
        parameters={
            "d": args.d,
            "p": args.p,
            "lambda_grid": lams,
            "n_nodes": args.n_nodes,
            "restarts": args.restarts,
            "refine": bool(args.refine),
            "format": args.format,
            "columns": columns,
        },
        seed=args.seed,
        tool_version=__version__,
        tolerances={},
        outputs=(str(data_path),),
        wall_clock_seconds=time.perf_counter() - started,
        diagnostics={
            "lambda": list(curve.lams),
            "iterations": list(curve.iterations),
            "converged": list(curve.converged),
        },
    )
    manifest_path = _write_manifest(out_dir, stem, manifest)

    n_failed = sum(1 for c in curve.converged if not c)
    print(f"wrote {data_path} and {manifest_path}")
    if n_failed:
        print(f"did not converge at {n_failed} of {len(lams)} grid values", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# figure2


def _figure2_rows(d: int, p_grid: np.ndarray) -> str:
    lines = ["p,m_minus,m_plus,note"]
    for p in p_grid:
        pp = make_parameter_point(d, float(p))
        try:
            m_lo, m_hi = m_range(pp)
            note = beta_roots(pp).kind
        except ValidationError:
            m_lo = m_hi = float("nan")
            note = "excluded"
        lines.append(",".join([fmt_float(p), fmt_float(m_lo), fmt_float(m_hi), note]))
    return "\n".join(lines) + "\n"


def cmd_figure2(args) -> int:
    started = time.perf_counter()
    out_dir = _resolve_out_dir(args)
    dims = list(dict.fromkeys(args.d))
    if args.p_step <= 0.0 or not math.isfinite(args.p_step):
        raise ValidationError(f"p step must be finite and positive, got {args.p_step}")
    if args.p_min < 1.0:
        raise ValidationError(f"p grid must start at 1 or above, got {args.p_min}")

    outputs: list[str] = []
    grids: dict = {}
    for d in dims:
        pp_probe = make_parameter_point(d, 2.0)
        p_max = args.p_max
        if p_max is None:
            p_max = pp_probe.two_star if math.isfinite(pp_probe.two_star) else 18.0
        if p_max <= args.p_min:
            raise ValidationError(f"empty p grid for d = {d}: [{args.p_min}, {p_max}]")
        count = int(round((p_max - args.p_min) / args.p_step)) + 1
        p_grid = np.round(np.linspace(args.p_min, p_max, count), 12)
        path = out_dir / f"figure2_d{d}.csv"
        atomic_write_text(path, _figure2_rows(d, p_grid))
        outputs.append(str(path))
        grids[str(d)] = {"p_min": args.p_min, "p_max": float(p_max), "p_step": args.p_step, "count": count}

    manifest = RunManifest(
        command="figure2",
        parameters={"d": dims, "grids": grids, "format": "csv"},
        seed=None,
        tool_version=__version__,
        tolerances={},
        outputs=tuple(outputs),
        wall_clock_seconds=time.perf_counter() - started,
    )
    manifest_path = _write_manifest(out_dir, "figure2", manifest)
    print(f"wrote {len(outputs)} file(s) and {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# flow


_FLOW_KEYS = {
    "mode", "d", "p", "beta", "time_horizon", "node_count", "sample_count",
    "antipodal", "initial_dt", "safety", "max_dt", "rtol", "atol",
    "positivity_floor", "initial",
}
_INITIAL_KEYS = {"kind", "amplitude", "coefficients"}


def _load_flow_spec(path: str) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read flow config {path}: {exc}") from exc
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"flow config {path} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError("flow config must be a JSON object")
    unknown = sorted(set(spec) - _FLOW_KEYS)
    if unknown:
        raise ValidationError(f"unknown flow config keys: {', '.join(unknown)}")
    for key in ("mode", "d", "p", "initial"):
        if key not in spec:
            raise ValidationError(f"flow config is missing the required key '{key}'")
    if spec["mode"] not in ("heat", "nonlinear"):
        raise ValidationError(f"flow mode must be 'heat' or 'nonlinear', got {spec['mode']!r}")
    if spec["mode"] == "nonlinear" and "beta" not in spec:
        raise ValidationError("nonlinear flow config needs a 'beta' entry")
    if spec["mode"] == "heat" and "beta" in spec:
        raise ValidationError("heat flow config must not set 'beta'")
    return spec


def _initial_function(spec, rule) -> AxiFunction:
    if not isinstance(spec, dict):
        raise ValidationError("flow config 'initial' must be a JSON object")
    unknown = sorted(set(spec) - _INITIAL_KEYS)
    if unknown:
        raise ValidationError(f"unknown initial-data keys: {', '.join(unknown)}")
    kind = spec.get("kind")
    if kind == "coefficients":
        coeffs = spec.get("coefficients")
        if coeffs is None:
            raise ValidationError("initial data of kind 'coefficients' needs a 'coefficients' list")
        return AxiFunction(rule, coefficients=np.asarray(coeffs, dtype=float))
    amplitude = float(spec.get("amplitude", 0.1))
    z = rule.nodes
    if kind == "affine":
        values = 1.0 + amplitude * z
    elif kind == "exponential":
        values = np.exp(amplitude * z)
    elif kind == "even":
        values = np.exp(amplitude * z * z)
    else:
        raise ValidationError(
            f"initial data kind must be one of affine, exponential, even, coefficients; got {kind!r}"
        )
    return AxiFunction(rule, values=values)


def cmd_flow(args) -> int:
    started = time.perf_counter()
    out_dir = _resolve_out_dir(args)
    spec = _load_flow_spec(args.config)

    pp = make_parameter_point(int(spec["d"]), float(spec["p"]))
    if spec["mode"] == "nonlinear":
        setting = make_flow_setting(pp, float(spec["beta"]))
        if not setting.admissible:
            raise ValidationError(
                f"beta = {setting.beta} is not an admissible flow exponent at (d, p) = ({pp.d}, {pp.p})"
            )
    else:
        setting = pp

    cfg_kwargs = {}
    for key in ("node_count", "sample_count"):
        if key in spec:
            cfg_kwargs[key] = int(spec[key])
    for key in ("initial_dt", "safety", "max_dt", "rtol", "atol", "positivity_floor"):
        if key in spec:
            cfg_kwargs[key] = float(spec[key])
    if "antipodal" in spec:
        cfg_kwargs["antipodal"] = bool(spec["antipodal"])
    cfg = make_flow_config(setting, float(spec.get("time_horizon", 1.0)), **cfg_kwargs)

    rule = make_rule(pp.d, cfg.node_count)
    u0 = _initial_function(spec["initial"], rule)
    runner = run_heat_flow if spec["mode"] == "heat" else run_nonlinear_flow
    trace = runner(u0, cfg)
    report = certify_ode_chain(trace, pp, ode_tol=args.tol)

    stem = f"flow_{spec['mode']}_d{pp.d}_p{_tag(pp.p)}"
    if spec["mode"] == "nonlinear":
        stem += f"_b{_tag(float(spec['beta']))}"
    trace_path = out_dir / f"{stem}_trace.csv"
    write_trace(trace, trace_path)
    report_path = out_dir / f"{stem}_report.json"
    payload = {
        "config": spec,
        "stats": dict(trace.stats),
        "certification": dataclasses.asdict(report),
    }
    atomic_write_text(report_path, _dump_json(payload))

    manifest = RunManifest(
        command="flow",
        parameters={"config_path": str(args.config), "config": spec},
        seed=None,
        tool_version=__version__,
        tolerances=dict(report.tolerances),
        outputs=(str(trace_path), str(report_path)),
        wall_clock_seconds=time.perf_counter() - started,
        diagnostics=dict(trace.solver),
    )
    manifest_path = _write_manifest(out_dir, stem, manifest)

    status = "certified" if report.passed else "FAILED"
    print(
        f"{spec['mode']} flow at (d, p) = ({pp.d}, {pp.p}): {len(trace.times)} samples, "
        f"final time {repr(float(trace.times[-1]))}, certification {status}"
    )
    print(f"wrote {trace_path}, {report_path}, {manifest_path}")
    return 0 if report.passed else 3


# ---------------------------------------------------------------------------
# verify


def _margin_entry(name: str, margins: list[float], worst_deficit: float) -> dict:
    worst = min(margins)
    return {
        "name": name,
        "count": len(margins),
        "worst_margin": worst,
        "worst_deficit": worst_deficit,
        "passed": worst >= 0.0,
    }


def _deficit_battery(name, functions, tol, evaluate) -> dict:
    margins = []
    worst_deficit = math.inf
    for u in functions:
        result = evaluate(u)
        margins.append(result.deficit + tol * (1.0 + abs(result.lhs)))
        worst_deficit = min(worst_deficit, result.deficit)
    return _margin_entry(name, margins, worst_deficit)


def _random_even_function(rule, rng, degree: int = 4, scale: float = 0.4) -> AxiFunction:
    coeffs = rng.normal(size=degree + 1)
    z2 = rule.nodes * rule.nodes
    g = np.polynomial.polynomial.polyval(z2, coeffs)
    return AxiFunction(rule, values=np.exp(scale * g))


def _suite_gns(pp, rule, rng, n, tol) -> list[dict]:
    functions = [random_band_limited_exponential(rule, rng) for _ in range(n)]
    checks = []
    base_id = "log_sobolev" if pp.p == 2.0 else "gns"
    checks.append(_deficit_battery(base_id, functions, tol, lambda u: deficit(u, base_id, pp)))
    if pp.p != 2.0 and pp.p <= pp.two_sharp:
        checks.append(
            _deficit_battery("improved_gns", functions, tol, lambda u: deficit(u, "improved_gns", pp))
        )
    return checks


def _suite_ckp(pp, rule, rng, n, tol) -> list[dict]:
    margins = []
    worst = math.inf
    for _ in range(n):
        u = random_band_limited_exponential(rule, rng)
        lower, gap = ckp_distance(u, pp.p)
        margins.append(gap - lower + tol * (1.0 + abs(gap)))
        worst = min(worst, gap - lower)
    return [_margin_entry("ckp_gap_dominates_distance", margins, worst)]


def _suite_euclidean(pp, rule, rng, n, tol) -> list[dict]:
    sphere_functions = [random_band_limited_exponential(rule, rng) for _ in range(n)]
    flat_functions = [push_forward(u) for u in sphere_functions]
    checks = [
        _deficit_battery(
            "weighted_gns", flat_functions, tol, lambda v: euclidean_deficit(v, "weighted_gns", pp)
        )
    ]

    margins = []
    worst = math.inf
    for u, v in zip(sphere_functions, flat_functions):
        flat = euclidean_deficit(v, "weighted_gns", pp)
        sphere = deficit(u, "gns", pp)
        gap = flat.deficit - pp.sphere_volume * sphere.deficit
        margins.append(tol * (1.0 + abs(flat.deficit)) - abs(gap))
        worst = min(worst, -abs(gap))
    checks.append(_margin_entry("flat_matches_scaled_sphere", margins, worst))

    if pp.in_bakry_emery_range:
        checks.append(
            _deficit_battery(
                "sharper_stability",
                flat_functions,
                tol,
                lambda v: euclidean_deficit(v, "sharper_stability", pp),
            )
        )
        if pp.p > 2.0:
            checks.append(
                _deficit_battery(
                    "stability", flat_functions, tol, lambda v: euclidean_deficit(v, "stability", pp)
                )
            )
    return checks


def _suite_antipodal(pp, rule, rng, n, tol) -> list[dict]:
    functions = [_random_even_function(rule, rng) for _ in range(n)]
    return [
        _deficit_battery("antipodal", functions, tol, lambda u: deficit(u, "antipodal", pp))
    ]


def _suite_flow(pp, args) -> list[dict]:
    cfg = make_flow_config(pp, 1.0, node_count=args.n_nodes)
    rule = make_rule(pp.d, cfg.node_count)
    u0 = AxiFunction(rule, values=1.0 + 0.1 * rule.nodes)
    trace = run_heat_flow(u0, cfg)
    report = certify_ode_chain(trace, pp)
    return [
        {
            "name": "heat_flow_certification",
            "count": len(trace.times),
            "worst_margin": report.tolerances["mass_tol"] - report.mass_max_drift,
            "worst_deficit": -report.lyapunov_max_increase,
            "passed": report.passed,
        }
    ]


_SUITES = ("gns", "ckp", "euclidean", "antipodal", "flow", "all")


def cmd_verify(args) -> int:
    started = time.perf_counter()
    out_dir = _resolve_out_dir(args)
    pp = make_parameter_point(args.d, args.p)
    if args.n < 1:
        raise ValidationError(f"sample count must be at least 1, got {args.n}")
    if not math.isfinite(args.tol) or args.tol < 0.0:
        raise ValidationError(f"tolerance must be finite and nonnegative, got {args.tol}")
    rule = make_rule(pp.d, args.n_nodes)
    rng = np.random.default_rng(args.seed)

    wanted = list(_SUITES[:-1]) if args.suite == "all" else [args.suite]
    checks: list[dict] = []
    skipped: list[dict] = []
    for suite in wanted:
        if suite == "gns":
            checks.extend(_suite_gns(pp, rule, rng, args.n, args.tol))
        elif suite == "ckp":
            if pp.p == 2.0:
                reason = "the entropy gap degenerates at p = 2"
            else:
                reason = None
            if reason:
                if args.suite == "all":
                    skipped.append({"name": suite, "reason": reason})
                else:
                    raise ValidationError(f"suite 'ckp' does not apply: {reason}")
            else:
                checks.extend(_suite_ckp(pp, rule, rng, args.n, args.tol))
        elif suite == "euclidean":
            if pp.d < 2:
                reason = "the flat-space correspondence needs d >= 2"
            elif pp.p == 2.0:
                reason = "the weighted inequality needs p != 2"
            else:
                reason = None
            if reason:
                if args.suite == "all":
                    skipped.append({"name": suite, "reason": reason})
                else:
                    raise ValidationError(f"suite 'euclidean' does not apply: {reason}")
            else:
                checks.extend(_suite_euclidean(pp, rule, rng, args.n, args.tol))
        elif suite == "antipodal":
            if pp.d < 3:
                reason = "the antipodal bound needs d >= 3"
            else:
                reason = None
            if reason:
                if args.suite == "all":
                    skipped.append({"name": suite, "reason": reason})
                else:
                    raise ValidationError(f"suite 'antipodal' does not apply: {reason}")
            else:
                checks.extend(_suite_antipodal(pp, rule, rng, args.n, args.tol))
        elif suite == "flow":
            checks.extend(_suite_flow(pp, args))

    passed = all(c["passed"] for c in checks)
    report = {
        "command": "verify",
        "suite": args.suite,
        "d": pp.d,
        "p": pp.p,
        "n": args.n,
        "seed": args.seed,
        "tolerance": args.tol,
        "node_count": args.n_nodes,
        "checks": checks,
        "skipped": skipped,
        "passed": passed,
    }
    stem = f"verify_{args.suite}_d{pp.d}_p{_tag(pp.p)}"
    report_path = out_dir / f"{stem}.json"
    atomic_write_text(report_path, _dump_json(report))

    manifest = RunManifest(
        command="verify",
        parameters={"suite": args.suite, "d": args.d, "p": args.p, "n": args.n, "n_nodes": args.n_nodes},
        seed=args.seed,
        tool_version=__version__,
        tolerances={"tol": args.tol},
        outputs=(str(report_path),),
        wall_clock_seconds=time.perf_counter() - started,
    )
    manifest_path = _write_manifest(out_dir, stem, manifest)

    for check in checks:
        flag = "PASS" if check["passed"] else "FAIL"
        print(
            f"[{flag}] {check['name']}  n={check['count']}  "
            f"worst_margin={repr(float(check['worst_margin']))}"
        )
    for entry in skipped:
        print(f"[SKIP] {entry['name']}  {entry['reason']}")
    print(f"wrote {report_path} and {manifest_path}")
    return 0 if passed else 3


# ---------------------------------------------------------------------------
# klt


def cmd_klt(args) -> int:
    started = time.perf_counter()
    out_dir = _resolve_out_dir(args)
    modes = ["minus_V", "plus_V"] if args.mode == "both" else [args.mode]

    mode_reports = []
    passed = True
    for mode in modes:
        rep = klt_validate(
            args.d,
            args.q,
            n_samples=args.samples,
            sign_mode=mode,
            node_count=args.n_nodes,
            scale=args.scale,
            tolerance=args.tol,
            seed=args.seed,
        )
        passed = passed and rep.violation_count == 0
        mode_reports.append(
            {
                "sign_mode": rep.sign_mode,
                "p": rep.p,
                "n_samples": rep.n_samples,
                "min_margin": rep.min_margin,
                "violation_count": rep.violation_count,
            }
        )
        print(
            f"[{'PASS' if rep.violation_count == 0 else 'FAIL'}] klt {rep.sign_mode}  "
            f"n={rep.n_samples}  min_margin={repr(float(rep.min_margin))}"
        )

    report = {
        "command": "klt",
        "d": args.d,
        "q": args.q,
        "scale": args.scale,
        "seed": args.seed,
        "tolerance": args.tol,
        "modes": mode_reports,
        "passed": passed,
    }
    stem = f"klt_d{args.d}_q{_tag(args.q)}_{args.mode}"
    report_path = out_dir / f"{stem}.json"
    atomic_write_text(report_path, _dump_json(report))

    manifest = RunManifest(
        command="klt",
        parameters={
            "d": args.d,
            "q": args.q,
            "samples": args.samples,
            "mode": args.mode,
            "n_nodes": args.n_nodes,
            "scale": args.scale,
        },
        seed=args.seed,
        tool_version=__version__,
        tolerances={"tol": args.tol},
        outputs=(str(report_path),),
        wall_clock_seconds=time.perf_counter() - started,
    )
    manifest_path = _write_manifest(out_dir, stem, manifest)
    print(f"wrote {report_path} and {manifest_path}")
    return 0 if passed else 3


# ---------------------------------------------------------------------------
# parser


def _add_out_dir(sub) -> None:
    sub.add_argument(
        "--out-dir",
        default=None,
        help=f"output directory (default: ${OUT_DIR_ENV} or the current directory)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphereineq",
        description="Sharp interpolation inequalities on the sphere: tables, curves, flows, checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("constants", help="exponent and constant table for one parameter pair")
    sp.add_argument("--d", type=int, required=True, help="sphere dimension")
    sp.add_argument("--p", type=float, required=True, help="integrability exponent")
    sp.add_argument("--beta", type=float, default=None, help="also report the flow setting at this beta")
    _add_out_dir(sp)
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("figure1", help="best-constant sweep over the linear-term coefficient")
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--p", type=float, default=3.0)
    sp.add_argument("--lambda-grid", type=float, nargs="+", default=None, help="explicit grid values")
    sp.add_argument("--refine", action="store_true", help="halve the grid step")
    sp.add_argument("--n-nodes", type=int, default=48, help="quadrature nodes for the minimization")
    sp.add_argument("--restarts", type=int, default=8, help="random restarts per grid value")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_out_dir(sp)
    sp.set_defaults(func=cmd_figure1)

    sp = sub.add_parser("figure2", help="admissible diffusion-exponent band per dimension")
    sp.add_argument("--d", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    sp.add_argument("--p-min", type=float, default=1.0)
    sp.add_argument("--p-max", type=float, default=None, help="default: the critical exponent, or 18 when infinite")
    sp.add_argument("--p-step", type=float, default=0.05)
    _add_out_dir(sp)
    sp.set_defaults(func=cmd_figure2)

    sp = sub.add_parser("flow", help="run a flow described by a JSON config and certify it")
    sp.add_argument("config", help="path to the JSON flow description")
    sp.add_argument("--tol", type=float, default=1e-6, help="slack on the heat-flow ODE-chain residual (ode_tol)")
    _add_out_dir(sp)
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("verify", help="randomized inequality batteries")
    sp.add_argument("suite", choices=_SUITES, help="which battery to run")
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--p", type=float, default=3.0)
    sp.add_argument("--n", type=int, default=50, help="random test functions per check")
    sp.add_argument("--n-nodes", type=int, default=48)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-8, help="relative slack per check")
    _add_out_dir(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("klt", help="randomized Schrodinger spectral-bound battery")
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--q", type=float, default=3.0, help="exponent of the norm measuring the potential")
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--mode", choices=("minus_V", "plus_V", "both"), default="both")
    sp.add_argument("--n-nodes", type=int, default=48)
    sp.add_argument("--scale", type=float, default=0.5, help="size of the random potentials")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-8)
    _add_out_dir(sp)
    sp.set_defaults(func=cmd_klt)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
