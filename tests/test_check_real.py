"""Every scalar argument check goes through errors.check_real.

Each call site is driven with nan, +inf, -inf and a value just past its bound;
each must raise ValidationError with a message that names the argument.  A
scan of the source makes sure no literal check_real name is missing here.
"""

import ast
import dataclasses
import math
import re
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import sphereineq
import sphereineq.cli as cli
from sphereineq.bounds import (
    afst_constants,
    klt_lambda_bar_reverse,
    klt_lambda_bar_schrodinger,
    lambda_lower_thm2,
    mu_lower_envelope,
    mu_lower_prop34,
    mu_lower_thm2,
)
from sphereineq.errors import ValidationError, check_real
from sphereineq.exponents import make_flow_setting, make_parameter_point
from sphereineq.flows import certify_ode_chain, make_flow_config, run_heat_flow
from sphereineq.phi_functions import phi
from sphereineq.sphere_calculus import (
    AxiFunction,
    c_q,
    ckp_distance,
    entropy_fisher,
    lp_norm,
    make_rule,
)
from sphereineq.stereographic import (
    equality_profile_second_moment,
    euclidean_deficit,
    euclidean_norms,
    push_forward,
    radial_profile_from_samples,
    radial_second_moment,
)
from sphereineq.variational import best_constant, bound_curve_sweep, klt_validate

RULE = make_rule(3, 24)
U = AxiFunction(RULE, values=np.exp(0.25 * RULE.nodes**2))
D3P3 = make_parameter_point(3, 3.0)
D3P15 = make_parameter_point(3, 1.5)
D3P5 = make_parameter_point(3, 5.0)


def _matched_profile():
    v = push_forward(U)
    factor = math.sqrt(equality_profile_second_moment(3) / radial_second_moment(v))
    return radial_profile_from_samples(3, v.values * factor)


MATCHED = _matched_profile()


@lru_cache(maxsize=1)
def _trace():
    u0 = AxiFunction(make_rule(3, 48), values=1.0 + 0.1 * make_rule(3, 48).nodes)
    return run_heat_flow(u0, make_flow_config(D3P3, 0.5, sample_count=65))


def _cli(*argv):
    def run(x):
        args = cli.build_parser().parse_args([a.format(x=repr(x)) for a in argv])
        args.out_dir = Path("unused")  # every check runs before a file is written
        return args.func(args)
    return run


# (module, name in the message, call with the argument, lower bound, strict)
SITES = [
    ("sphere_calculus", "norm exponent q", lambda x: lp_norm(U, x), 1.0, False),
    ("sphere_calculus", "exponent p", lambda x: entropy_fisher(U, x), 1.0, False),
    ("sphere_calculus", "c_q exponent q", c_q, 1.0, True),
    ("sphere_calculus", "exponent p", lambda x: ckp_distance(U, x), 1.0, False),
    ("stereographic", "exponent p", lambda x: euclidean_norms(push_forward(U), x), 1.0, False),
    ("stereographic", "log_constant",
     lambda x: euclidean_deficit(MATCHED, "moment_constrained_log", log_constant=x), 0.0, True),
    ("bounds", "lam", lambda x: mu_lower_thm2(D3P3, x), 1.0, False),
    ("bounds", "mu", lambda x: lambda_lower_thm2(D3P15, x), 1.0, False),
    ("bounds", "lam", lambda x: mu_lower_prop34(D3P3, x), 1.0, False),
    ("bounds", "lam", lambda x: mu_lower_envelope(D3P5, x), 1.0, False),
    ("bounds", "mu", lambda x: klt_lambda_bar_schrodinger(D3P3, x), 0.0, True),
    ("bounds", "mu", lambda x: klt_lambda_bar_reverse(D3P15, x), 0.0, True),
    ("bounds", "lambda_star", lambda x: afst_constants(D3P3, x), 3.0, False),
    ("exponents", "exponent p", lambda x: make_parameter_point(3, x), 1.0, False),
    ("exponents", "flow exponent beta", lambda x: make_flow_setting(D3P3, x), -math.inf, False),
    ("phi_functions", "entropy argument", lambda x: phi(D3P3, x), 0.0, False),
    ("flows", "time_horizon", lambda x: make_flow_config(D3P3, x), 0.0, True),
    ("flows", "ode_tol", lambda x: certify_ode_chain(_trace(), ode_tol=x), 0.0, False),
    ("variational", "lam", lambda x: best_constant(D3P3, x), 0.0, True),
    ("variational", "mu", lambda x: best_constant(D3P15, x), 0.0, True),
    ("variational", "lambda grid value", lambda x: bound_curve_sweep(D3P3, [2.0, x]), 0.0, True),
    ("variational", "potential scale", lambda x: klt_validate(3, 3.0, scale=x), 0.0, False),
    ("variational", "tolerance", lambda x: klt_validate(3, 3.0, tolerance=x), 0.0, False),
    ("cli", "--p-step", _cli("figure2", "--p-step={x}"), 0.0, True),
    ("cli", "--p-min", _cli("figure2", "--p-min={x}"), 1.0, False),
    ("cli", "--p-max", _cli("figure2", "--p-max={x}"), -math.inf, False),
    ("cli", "--tol", _cli("verify", "gns", "--tol={x}"), 0.0, False),
    ("flows", "the squared flow exponent beta^2",
     lambda x: make_flow_config(dataclasses.replace(make_flow_setting(D3P3, 1.0), beta=x)),
     -math.inf, False),
]


def _bad_values(low, strict):
    values = [math.nan, math.inf, -math.inf]
    if low > -math.inf:
        values.append(low if strict else math.nextafter(low, -math.inf))
    return values


@pytest.mark.parametrize(
    "site", SITES, ids=[f"{module}:{name}:{k}" for k, (module, name, *_) in enumerate(SITES)]
)
def test_call_site_rejects_nonfinite_and_out_of_bound(site):
    _, name, call, low, strict = site
    for bad in _bad_values(low, strict):
        with pytest.raises(ValidationError, match=re.escape(name) + " must be finite"):
            call(bad)


def test_every_literal_name_has_a_site():
    src = Path(sphereineq.__file__).resolve().parent
    called = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "check_real"
                and isinstance(node.args[0], ast.Constant)
            ):
                called.add((path.stem, node.args[0].value))
    assert called
    assert called <= {(module, name) for module, name, *_ in SITES}


@pytest.mark.parametrize(
    "low,strict,x,message",
    [
        (0.0, True, 0.0, "x must be finite and positive, got 0.0"),
        (0.0, False, -1.0, "x must be finite and nonnegative, got -1.0"),
        (1.0, False, 0.5, "x must be finite and >= 1, got 0.5"),
        (1.0, True, 1.0, "x must be finite and > 1, got 1.0"),
        (-math.inf, False, math.nan, "x must be finite, got nan"),
    ],
)
def test_message_wording(low, strict, x, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        check_real("x", x, low, strict)


def test_returns_a_float_inside_the_bound():
    assert check_real("x", 1, 1.0) == 1.0 and type(check_real("x", np.float64(2.5), 0.0)) is float
    assert check_real("x", -1e308) == -1e308
