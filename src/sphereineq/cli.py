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
parameters, tool version, tolerances, output paths, wall-clock time, and
solver diagnostics where the command has them.  Each cmd_* function writes
nothing and returns its data files as text, with only the parameters it
derived from its options; main runs it through _run, the one writer, which
times it, records every parsed option, and writes the data files and the
manifest.  Data outputs are byte-deterministic for a fixed command line and
seed, so reruns can be compared with a plain byte diff; the manifest repeats
the inputs so any run can be reproduced from it alone.

Exit codes: 0 success, 2 invalid parameters or usage, 3 a certified
invariant failed, 4 an iterative solver did not converge, broke down in
floating point, or a solver process died.  Floating-point exceptions follow
the one policy that errors.py states, which _run and main carry out.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .bounds import afst_constants, antipodal_constant, c_dp
from .errors import ConvergenceError, InvariantViolation, ValidationError, check_real
from .exponents import beta_roots, m_range, make_flow_setting, make_parameter_point
from .ioutils import atomic_write_text, fmt_float

OUT_DIR_ENV = "SPHEREINEQ_OUT_DIR"

__all__ = ["main", "build_parser", "OUT_DIR_ENV"]

# Each command imports numpy and the numeric modules it calls inside its own
# functions, so constants and figure2 run without numpy; _run runs these under np.errstate.
_NUMPY_COMMANDS = frozenset({"figure1", "flow", "verify", "klt"})

# Most points of a figure2 p grid; the default grids have at most 341.
_MAX_GRID_POINTS = 100_000


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(x):
    """x with every non-finite float, at any depth, as "nan", "inf" or "-inf"."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return x


def _dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, allow_nan=False) + "\n"


def _step_grid(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ..., hi, rounded to 12 decimals so grid values print short.

    The floats of np.round(np.linspace(lo, hi, num), 12), from numpy's
    operations in numpy's order: with h = (hi - lo)/(num - 1), point i is
    i * h + lo (or (i/(num - 1)) * (hi - lo) + lo where h is 0), the last
    point is hi, and every point x becomes rint(x * 1e12) / 1e12.
    """
    delta = hi - lo
    num = int(round(delta / step)) + 1
    div = num - 1
    h = delta / div if div > 0 else 0.0
    if h != 0.0:
        points = [i * h + lo for i in range(num)]
    else:
        points = [i / max(div, 1) * delta + lo for i in range(num)]
    if num > 1:
        points[-1] = hi
    return [_rint(x * 1e12) / 1e12 for x in points]


def _rint(x: float) -> float:
    """x rounded half to even, as np.rint: the sign of zero is kept, and an x
    that is already integral (|x| >= 2**52), infinite or nan is returned."""
    if not abs(x) < 2.0**52:
        return x
    return math.copysign(round(x), x)


def _tag(x: float) -> str:
    """File-name tag: %g where it round-trips (3.0 -> '3'), else repr; '-' -> 'm'."""
    text = f"{float(x):g}"
    return (text if float(text) == float(x) else repr(float(x))).replace("-", "m")


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


def _where_defined(f, pp):
    """(f(pp), None), or (None, the reason) where f rejects pp with a ValidationError."""
    try:
        return f(pp), None
    except ValidationError as exc:
        return None, str(exc)


# ---------------------------------------------------------------------------
# constants


def cmd_constants(args) -> tuple[int, str, dict]:
    pp = make_parameter_point(args.d, args.p)

    # each optional row appears where its function accepts (d, p)
    table: dict = dataclasses.asdict(pp)
    for key, f in (("gns_constant", c_dp), ("antipodal_constant", antipodal_constant)):
        value, _ = _where_defined(f, pp)
        if value is not None:
            table[key] = value
    afst, _ = _where_defined(afst_constants, pp)
    if afst is not None:
        table["afst_gns_constant"], table["afst_log_lambda"] = afst
    rng_beta, _ = _where_defined(beta_roots, pp)  # none at (3, 6), where gamma(beta) = -1
    if rng_beta is not None:
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
    return 0, stem, {"files": {f"{stem}.json": _dump_json(table)}}


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
        lams = _step_grid(0.25, 5.0, 0.25 * (0.5 if args.refine else 1.0))
    return lams  # bound_curve_sweep checks the values


# figure1's output columns in order: name -> (its values in the sweep, or None
# where the column does not apply at the parameter point; description)
_FIGURE1_COLUMNS = {
    "lambda": (lambda c: c.lams, "grid value of the linear-term coefficient"),
    "numeric_mu": (lambda c: c.numeric, "variational.bound_curve_sweep, restarted minimization of the quotient"),
    "thm2": (lambda c: c.thm2, "bounds.mu_lower_thm2, flow-certified lower bound (nan outside its range)"),
    "prop34": (lambda c: c.prop34, "bounds.mu_lower_prop34, spectral lower bound (nan below the constant branch)"),
    "identity": (lambda c: c.lams, "reference line mu = lambda, attained by constant functions"),
    "converged": (
        lambda c: [int(f) for f in c.converged],
        "solver flag, 1 when the best start at this grid value converged",
    ),
}


def cmd_figure1(args) -> tuple[int, str, dict]:
    from .variational import bound_curve_sweep

    pp = make_parameter_point(args.d, args.p)
    lams = _figure1_grid(args)

    curve = bound_curve_sweep(
        pp, lams, node_count=args.n_nodes, restarts=args.restarts, seed=args.seed
    )
    columns, descriptions = {}, {}
    for name, (values, description) in _FIGURE1_COLUMNS.items():
        column = values(curve)
        if column is not None:
            columns[name] = column
            descriptions[name] = description

    stem = f"figure1_d{args.d}_p{_tag(args.p)}"
    if args.format == "json":
        text = _dump_json({"d": pp.d, "p": pp.p, **columns})
    else:
        rows = [",".join(columns)]
        rows += [",".join(fmt_float(x) for x in row) for row in zip(*columns.values())]
        text = "\n".join(rows) + "\n"

    n_failed = sum(1 for c in curve.converged if not c)
    if n_failed:
        print(f"did not converge at {n_failed} of {len(lams)} grid values", file=sys.stderr)
    return 4 if n_failed else 0, stem, {
        "parameters": {"lambda_grid": lams, "columns": descriptions},
        "files": {f"{stem}.{args.format}": text},
        # every field of each grid value's result but value (the numeric_mu column) and minimizer
        "diagnostics": {
            "lambda": list(curve.lams),
            **{field.name: [getattr(r, field.name) for r in curve.results]
               for field in dataclasses.fields(curve.results[0])
               if field.name not in ("value", "minimizer")},
            "workers": curve.workers,
        },
    }


# ---------------------------------------------------------------------------
# figure2


def _figure2_rows(d: int, p_grid: list[float]) -> str:
    lines = ["p,m_minus,m_plus,note"]
    for p in p_grid:
        pp = make_parameter_point(d, p)
        try:
            m_lo, m_hi = m_range(pp)
            note = beta_roots(pp).kind
        except ValidationError:
            m_lo = m_hi = float("nan")
            note = "excluded"
        lines.append(",".join([fmt_float(p), fmt_float(m_lo), fmt_float(m_hi), note]))
    return "\n".join(lines) + "\n"


def cmd_figure2(args) -> tuple[int, str, dict]:
    dims = list(dict.fromkeys(args.d))
    check_real("--p-step", args.p_step, 0.0, strict=True)
    check_real("--p-min", args.p_min, 1.0)

    # every grid is checked before any is built
    p_maxes = {}
    for d in dims:
        pp_probe = make_parameter_point(d, 2.0)
        p_max = args.p_max
        if p_max is None:
            p_max = pp_probe.two_star if math.isfinite(pp_probe.two_star) else 18.0
        if check_real("--p-max", p_max) <= args.p_min:
            raise ValidationError(f"empty p grid for d = {d}: [{args.p_min}, {p_max}]")
        make_parameter_point(d, p_max)  # rejects a p_max above the critical exponent
        # _step_grid makes round(span) + 1 points
        if not (p_max - args.p_min) / args.p_step < _MAX_GRID_POINTS - 0.5:
            raise ValidationError(
                f"p grid for d = {d} has more than {_MAX_GRID_POINTS} points: "
                f"[{args.p_min}, {p_max}] in steps of {args.p_step}"
            )
        p_maxes[d] = p_max

    files, grids = {}, {}
    for d, p_max in p_maxes.items():
        p_grid = _step_grid(args.p_min, p_max, args.p_step)
        # rounding to 12 decimals can lift the last point above a p_max at the
        # critical exponent (d = 8: 2.666666666667), which p may not exceed
        p_grid[-1] = min(p_grid[-1], p_max)
        files[f"figure2_d{d}.csv"] = _figure2_rows(d, p_grid)
        grids[str(d)] = {
            "p_min": args.p_min, "p_max": float(p_max), "p_step": args.p_step, "count": len(p_grid),
        }
    return 0, "figure2", {"parameters": {"d": dims, "grids": grids}, "files": files}


# ---------------------------------------------------------------------------
# flow


# flow-config key -> the type its JSON value must have and is read as; the
# keys from time_horizon to antipodal are make_flow_config's arguments after
# setting, and "initial" is read by _initial_function
_FLOW_KEYS = {
    "mode": str, "d": int, "p": float, "beta": float, "time_horizon": float,
    "node_count": int, "sample_count": int, "antipodal": bool, "initial": dict,
}
_INITIAL_KEYS = {"kind", "amplitude", "coefficients"}
_JSON_TYPE_NAMES = {
    str: "string", int: "integer", float: "number", bool: "boolean", dict: "object", list: "array",
}


def _check_json_type(name: str, value, kind: type) -> None:
    """Reject a JSON value whose type is not kind; a number for float may be
    an integer, and a boolean is neither an integer nor a number."""
    if isinstance(value, bool):
        ok = kind is bool
    elif kind is float:
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ValidationError(
            f"flow config '{name}' must be a JSON {_JSON_TYPE_NAMES[kind]}, got {value!r}"
        )


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
    unknown = sorted(set(spec) - set(_FLOW_KEYS))
    if unknown:
        raise ValidationError(f"unknown flow config keys: {', '.join(unknown)}")
    for key in ("mode", "d", "p", "initial"):
        if key not in spec:
            raise ValidationError(f"flow config is missing the required key '{key}'")
    for key, value in spec.items():
        _check_json_type(key, value, _FLOW_KEYS[key])
    initial = spec["initial"]
    if "amplitude" in initial:
        _check_json_type("initial.amplitude", initial["amplitude"], float)
    if "coefficients" in initial:
        _check_json_type("initial.coefficients", initial["coefficients"], list)
        for c in initial["coefficients"]:
            _check_json_type("initial.coefficients", c, float)
    if spec["mode"] not in ("heat", "nonlinear"):
        raise ValidationError(f"flow mode must be 'heat' or 'nonlinear', got {spec['mode']!r}")
    if spec["mode"] == "nonlinear" and "beta" not in spec:
        raise ValidationError("nonlinear flow config needs a 'beta' entry")
    if spec["mode"] == "heat" and "beta" in spec:
        raise ValidationError("heat flow config must not set 'beta'")
    return spec


def _initial_function(spec, rule):
    import numpy as np

    from .sphere_calculus import AxiFunction

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


def cmd_flow(args) -> tuple[int, str, dict]:
    from .flows import certify_ode_chain, make_flow_config, run_heat_flow, run_nonlinear_flow
    from .flows import trace_to_csv
    from .sphere_calculus import make_rule

    spec = _load_flow_spec(args.config)
    # typed values; what is left after the pops is make_flow_config's keywords
    config = {key: _FLOW_KEYS[key](value) for key, value in spec.items() if key != "initial"}
    mode = config.pop("mode")

    pp = make_parameter_point(config.pop("d"), config.pop("p"))
    stem = f"flow_{mode}_d{pp.d}_p{_tag(pp.p)}"
    if mode == "nonlinear":
        beta = config.pop("beta")
        setting = make_flow_setting(pp, beta)
        if not setting.admissible:
            raise ValidationError(
                f"beta = {setting.beta} is not an admissible flow exponent at (d, p) = ({pp.d}, {pp.p})"
            )
        stem += f"_b{_tag(beta)}"
    else:
        setting = pp
    cfg = make_flow_config(setting, config.pop("time_horizon", 1.0), **config)

    rule = make_rule(pp.d, cfg.node_count)
    u0 = _initial_function(spec["initial"], rule)
    runner = run_heat_flow if mode == "heat" else run_nonlinear_flow
    trace = runner(u0, cfg)
    report = certify_ode_chain(trace, pp, ode_tol=args.tol)

    payload = {
        "config": spec,
        "stats": dict(trace.stats),
        "certification": dataclasses.asdict(report),
    }
    status = "certified" if report.passed else "FAILED"
    print(
        f"{mode} flow at (d, p) = ({pp.d}, {pp.p}): {len(trace.times)} samples, "
        f"final time {repr(float(trace.times[-1]))}, certification {status}"
    )
    return 0 if report.passed else 3, stem, {
        "parameters": {"spec": spec},
        "tolerances": dict(report.tolerances),
        "files": {
            f"{stem}_trace.csv": trace_to_csv(trace),
            f"{stem}_report.json": _dump_json(payload),
        },
        "diagnostics": dict(trace.solver),
    }


# ---------------------------------------------------------------------------
# verify


def _deficit_battery(name, pairs, tol) -> dict:
    """Margins deficit + tol (1 + |lhs|) over the (lhs, deficit) pairs."""
    margins = []
    worst_deficit = math.inf
    for lhs, deficit in pairs:
        margins.append(deficit + tol * (1.0 + abs(lhs)))
        worst_deficit = min(worst_deficit, deficit)
    worst = min(margins)
    return {
        "name": name,
        "count": len(margins),
        "worst_margin": worst,
        "worst_deficit": worst_deficit,
        "passed": worst >= 0.0,
    }


def _random_even_function(rule, rng, degree: int = 4, scale: float = 0.4):
    import numpy as np

    from .sphere_calculus import AxiFunction

    coeffs = rng.normal(size=degree + 1)
    z2 = rule.nodes * rule.nodes
    g = np.polynomial.polynomial.polyval(z2, coeffs)
    return AxiFunction(rule, values=np.exp(scale * g))


def _suite_gns(pp, rule, rng, args) -> list[dict]:
    from .sphere_calculus import deficit, random_band_limited_exponential

    functions = [random_band_limited_exponential(rule, rng) for _ in range(args.n)]
    inequality_ids = ["log_sobolev" if pp.p == 2.0 else "gns"]
    if pp.p <= pp.two_sharp:
        inequality_ids.append("improved_gns")
    checks = []
    for inequality_id in inequality_ids:
        results = [deficit(u, inequality_id, pp) for u in functions]
        checks.append(_deficit_battery(inequality_id, [(r.lhs, r.deficit) for r in results], args.tol))
    return checks


def _suite_ckp(pp, rule, rng, args) -> list[dict]:
    from .sphere_calculus import ckp_distance, random_band_limited_exponential

    functions = [random_band_limited_exponential(rule, rng) for _ in range(args.n)]
    distances = [ckp_distance(u, pp.p) for u in functions]
    pairs = [(gap, gap - lower) for lower, gap in distances]
    return [_deficit_battery("ckp_gap_dominates_distance", pairs, args.tol)]


def _suite_euclidean(pp, rule, rng, args) -> list[dict]:
    from .sphere_calculus import deficit, random_band_limited_exponential
    from .stereographic import euclidean_deficit, push_forward

    sphere_functions = [random_band_limited_exponential(rule, rng) for _ in range(args.n)]
    flat_functions = [push_forward(u) for u in sphere_functions]
    weighted = [euclidean_deficit(v, "weighted_gns", pp) for v in flat_functions]
    # deficit -|gap|: passes while the flat and scaled sphere deficits agree to tol (1 + |flat|)
    gaps = [r.deficit - pp.sphere_volume * deficit(u, "gns", pp).deficit
            for u, r in zip(sphere_functions, weighted)]
    checks = [
        _deficit_battery("weighted_gns", [(r.lhs, r.deficit) for r in weighted], args.tol),
        _deficit_battery("flat_matches_scaled_sphere",
                         [(r.deficit, -abs(gap)) for r, gap in zip(weighted, gaps)], args.tol),
    ]
    inequality_ids = []
    if pp.in_bakry_emery_range:
        inequality_ids.append("sharper_stability")
    if 2.0 < pp.p < pp.two_sharp:
        inequality_ids.append("stability")
    for inequality_id in inequality_ids:
        results = [euclidean_deficit(v, inequality_id, pp) for v in flat_functions]
        checks.append(_deficit_battery(inequality_id, [(r.lhs, r.deficit) for r in results], args.tol))
    return checks


def _suite_antipodal(pp, rule, rng, args) -> list[dict]:
    from .sphere_calculus import deficit

    functions = [_random_even_function(rule, rng) for _ in range(args.n)]
    results = [deficit(u, "antipodal", pp) for u in functions]
    return [_deficit_battery("antipodal", [(r.lhs, r.deficit) for r in results], args.tol)]


def _suite_flow(pp, rule, rng, args) -> list[dict]:
    from .flows import certify_ode_chain, make_flow_config, run_heat_flow
    from .sphere_calculus import AxiFunction, make_rule

    cfg = make_flow_config(pp, 1.0, node_count=args.n_nodes)
    rule = make_rule(pp.d, cfg.node_count)
    u0 = AxiFunction(rule, values=1.0 + 0.1 * rule.nodes)
    trace = run_heat_flow(u0, cfg)
    report = certify_ode_chain(trace, pp)
    tol = report.tolerances
    # a margin >= 0 for each criterion certify_ode_chain applies to a heat trace
    margins = [tol["mass_tol"] - report.mass_max_drift, tol["rate_tol"] - report.e_rate_max_residual,
               tol["lyapunov_tol"] - report.lyapunov_max_increase,
               report.ode_chain_min_residual + tol["ode_tol"] if report.ode_chain_applicable else math.inf]
    return [
        {
            "name": "heat_flow_certification",
            "count": len(trace.times),
            "worst_margin": min(margins),
            "worst_deficit": -report.lyapunov_max_increase,
            "passed": report.passed,
        }
    ]


def _euclidean_skip(pp) -> str | None:
    if pp.d < 2:
        return "the flat-space correspondence needs d >= 2"
    if pp.p == 2.0:
        return "the weighted inequality needs p != 2"
    return None


# (suite, reason it does not apply at pp or None, battery), in run order; the
# batteries share one random stream, so the order fixes the report bytes.
_VERIFY_SUITES = (
    ("gns", lambda pp: None, _suite_gns),
    ("ckp", lambda pp: {2.0: "the entropy gap degenerates at p = 2",
                        4.0: "the CKP bound equals the entropy gap identically at p = 4"}.get(pp.p), _suite_ckp),
    ("euclidean", _euclidean_skip, _suite_euclidean),
    ("antipodal", lambda pp: _where_defined(antipodal_constant, pp)[1], _suite_antipodal),
    ("flow", lambda pp: None, _suite_flow),
)
_SUITES = tuple(name for name, _, _ in _VERIFY_SUITES) + ("all",)


def cmd_verify(args) -> tuple[int, str, dict]:
    import numpy as np

    from .sphere_calculus import make_rule

    pp = make_parameter_point(args.d, args.p)
    if args.n < 1:
        raise ValidationError(f"sample count must be at least 1, got {args.n}")
    check_real("--tol", args.tol, 0.0)
    rule = make_rule(pp.d, args.n_nodes)
    rng = np.random.default_rng(args.seed)

    checks: list[dict] = []
    skipped: list[dict] = []
    for suite, skip_reason, battery in _VERIFY_SUITES:
        if args.suite not in (suite, "all"):
            continue
        reason = skip_reason(pp)
        if reason is None:
            checks.extend(battery(pp, rule, rng, args))
        elif args.suite == "all":
            skipped.append({"name": suite, "reason": reason})
        else:
            raise ValidationError(f"suite {suite!r} does not apply: {reason}")

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

    for check in checks:
        flag = "PASS" if check["passed"] else "FAIL"
        print(
            f"[{flag}] {check['name']}  n={check['count']}  "
            f"worst_margin={repr(float(check['worst_margin']))}"
        )
    for entry in skipped:
        print(f"[SKIP] {entry['name']}  {entry['reason']}")
    return 0 if passed else 3, stem, {"files": {f"{stem}.json": _dump_json(report)}}


# ---------------------------------------------------------------------------
# klt


def cmd_klt(args) -> tuple[int, str, dict]:
    from .variational import klt_validate

    modes = ["minus_V", "plus_V"] if args.mode == "both" else [args.mode]

    mode_reports = []
    vacuous = {}
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
                "sign_mode": mode,
                "p": rep.p,
                "n_samples": args.samples,
                "min_margin": rep.min_margin,
                "violation_count": rep.violation_count,
            }
        )
        print(
            f"[{'PASS' if rep.violation_count == 0 else 'FAIL'}] klt {mode}  "
            f"n={args.samples}  min_margin={repr(float(rep.min_margin))}  vacuous={rep.vacuous_count}"
        )
        vacuous[mode] = rep.vacuous_count

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
    return 0 if passed else 3, stem, {
        "files": {f"{stem}.json": _dump_json(report)},
        "diagnostics": {"vacuous_count": vacuous},
    }


# ---------------------------------------------------------------------------
# parser


def _seed(text: str) -> int:
    """The --seed type: numpy's generators take only integers >= 0."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _add_command(sub, name: str, func, summary: str) -> argparse.ArgumentParser:
    """The subparser for one command, with --out-dir, running func."""
    sp = sub.add_parser(name, help=summary)
    sp.add_argument(
        "--out-dir",
        default=None,
        help=f"output directory (default: ${OUT_DIR_ENV} or the current directory)",
    )
    sp.set_defaults(func=func)
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphereineq",
        description="Sharp interpolation inequalities on the sphere: tables, curves, flows, checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = _add_command(sub, "constants", cmd_constants,
                      "exponent and constant table for one parameter pair")
    sp.add_argument("--d", type=int, required=True, help="sphere dimension")
    sp.add_argument("--p", type=float, required=True, help="integrability exponent")
    sp.add_argument("--beta", type=float, default=None, help="also report the flow setting at this beta")

    sp = _add_command(sub, "figure1", cmd_figure1,
                      "best-constant sweep over the linear-term coefficient")
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--p", type=float, default=3.0)
    sp.add_argument("--lambda-grid", type=float, nargs="+", default=None, help="explicit grid values")
    sp.add_argument("--refine", action="store_true", help="halve the grid step")
    sp.add_argument("--n-nodes", type=int, default=48, help="quadrature nodes for the minimization")
    sp.add_argument("--restarts", type=int, default=8, help="random restarts per grid value")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = _add_command(sub, "figure2", cmd_figure2,
                      "admissible diffusion-exponent band per dimension")
    sp.add_argument("--d", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    sp.add_argument("--p-min", type=float, default=1.0)
    sp.add_argument("--p-max", type=float, default=None, help="default: the critical exponent, or 18 when infinite")
    sp.add_argument("--p-step", type=float, default=0.05)

    sp = _add_command(sub, "flow", cmd_flow, "run a flow described by a JSON config and certify it")
    sp.add_argument("config", help="path to the JSON flow description")
    sp.add_argument("--tol", type=float, default=1e-6, help="slack on the heat-flow ODE-chain residual (ode_tol)")

    sp = _add_command(sub, "verify", cmd_verify, "randomized inequality batteries")
    sp.add_argument("suite", choices=_SUITES, help="which battery to run")
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--p", type=float, default=3.0)
    sp.add_argument("--n", type=int, default=50, help="random test functions per check")
    sp.add_argument("--n-nodes", type=int, default=48)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--tol", type=float, default=1e-8, help="relative slack per check")

    sp = _add_command(sub, "klt", cmd_klt, "randomized Schrodinger spectral-bound battery")
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--q", type=float, default=3.0, help="exponent of the norm measuring the potential")
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--mode", choices=("minus_V", "plus_V", "both"), default="both")
    sp.add_argument("--n-nodes", type=int, default=48)
    sp.add_argument("--scale", type=float, default=0.5, help="size of the random potentials")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--tol", type=float, default=1e-8)

    return parser


def _run(args) -> int:
    """Run one subcommand, write its data files and manifest, and return its
    exit code.

    args.func writes nothing: it returns (exit code, file stem, record), the
    record holding the data files as {file name: text}, and the parameters
    it derived from the options, its tolerances and its diagnostics where the
    command has them.  The manifest's parameters are every parsed option but
    the command, the function and the output directory, updated with the
    derived ones.  The output directory is made before the command runs and
    the files are written, in order, after it returns: an --out-dir that
    cannot be made is a ValidationError before any work, and a command that
    raises writes nothing.
    """
    started = time.perf_counter()
    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot use {out_dir} as the output directory: {exc}") from exc
    if args.command in _NUMPY_COMMANDS:
        import numpy as np

        with np.errstate(over="raise", invalid="raise", divide="raise"):
            code, stem, record = args.func(args)
    else:
        code, stem, record = args.func(args)
    outputs = [str(out_dir / name) for name in record["files"]]
    for path, text in zip(outputs, record["files"].values()):
        atomic_write_text(path, text)
    options = {k: v for k, v in vars(args).items() if k not in ("func", "command", "out_dir")}
    manifest = {
        "command": args.command,
        "parameters": options | record.get("parameters", {}),
        "tool_version": __version__,
        "tolerances": record.get("tolerances", {}),
        "outputs": outputs,
        "wall_clock_seconds": time.perf_counter() - started,
        "diagnostics": record.get("diagnostics", {}),
    }
    manifest_path = out_dir / f"{stem}_manifest.json"
    atomic_write_text(manifest_path, _dump_json(manifest))
    print(f"wrote {', '.join(outputs)} and {manifest_path}")
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(_run(args))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, OverflowError) as exc:
        what = "overflow" if isinstance(exc, OverflowError) else exc
        print(f"error: {args.command}: floating-point exception at these parameters: {what}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
