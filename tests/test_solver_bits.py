"""Golden bits of the flow sample loop and of the best-constant solver.

Five flow runs (heat, antipodal heat, and porous-medium runs with beta > 1,
in the antipodal mode and with beta < 0) and two best-constant solves (one
per sign of p - 2) must reproduce, bit for bit, the values recorded before
both flow runners shared one trace recorder and before best_constant took
its arguments directly: the sha256 of every trace array, the stats and
solver dicts, and the solver"s value and start values as float.hex strings
with its iteration count.  The recorded bits do not depend on the number of
BLAS threads.
"""

import hashlib

import numpy as np
import pytest

from sphereineq.exponents import make_flow_setting, make_parameter_point
from sphereineq.flows import make_flow_config, run_heat_flow, run_nonlinear_flow
from sphereineq.sphere_calculus import AxiFunction, make_rule
from sphereineq.variational import best_constant

# name -> (d, p, beta or None for the heat flow, initial kind, amplitude, antipodal)
FLOWS = {
    "heat": (3, 3.0, None, "affine", 0.2, False),
    "heat_antipodal": (3, 5.0, None, "even", 0.3, True),
    "porous_beta_gt_1": (3, 5.0, 1.2, "exponential", 0.3, False),
    "porous_antipodal": (2, 4.0, 1.5, "even", 0.3, True),
    "porous_beta_negative": (2, 4.0, -2.0, "exponential", 0.2, False),
}

TRACE_ARRAYS = ("times", "e", "i", "mass", "lyapunov", "e_rate_residual")

# name -> (sha256 of each array in TRACE_ARRAYS, stats, solver)
TRACE_GOLDEN = {
    "heat": (
        {
            "times": "932f4d3c831e88a56ace948a81f7111c97df65f9f6644c1c95ec30860b6c595d",
            "e": "3384d4adcc9b024752a3a6872eef1be62f6d204b2df58150ac8b19ee1664780b",
            "i": "5217d8cde1b923c450010ad6a7d1be5a8a53775cd903443c50983c6ac2941b91",
            "mass": "e10274c5af764847dfe78f0e028428d83a240e155f283f06aad988a730d618aa",
            "lyapunov": "70abd64067f6b4bbd929a25e718fb1288cab2fac830242f3a705eca7c51433af",
            "e_rate_residual": "aed364b51a82f0bc034c52282d891d92076fe4603a4877e306fdccc2146c47a3",
        },
        {"mode": "heat", "normalization": 1.009901634049961, "samples": 65, "gamma_nonnegative": True},
        {},
    ),
    "heat_antipodal": (
        {
            "times": "932f4d3c831e88a56ace948a81f7111c97df65f9f6644c1c95ec30860b6c595d",
            "e": "853934a9e81e7078031015b5e0d13eb764ef633335c3758c599e00bbe9efb742",
            "i": "32a84502fefea5d7eece075b3113567d7a3390ac911ec03544cda1be349c5288",
            "mass": "1397c8c9bc0d3ecbd6b9580fec013407c2794386d3bac8d4aea5ac680124eb63",
            "lyapunov": "9a8479cfcee50e212f3f83463ad158bca51beead95ea55ad4726d784492052fc",
            "e_rate_residual": "683257527e6e9f1c126f95e2c3a509ba33ae5c88b13041ffcfd641eca8225257",
        },
        {"mode": "heat", "normalization": 1.0950107755375187, "samples": 65, "gamma_nonnegative": False},
        {},
    ),
    "porous_beta_gt_1": (
        {
            "times": "ac1b0e68918911484f141536f23204d5f52e163ec64fc78a96e965ae766d23f4",
            "e": "eac2fb3a322c9706b3b60d750f0a9bdd82e720527488d323767b83894716e9fa",
            "i": "1ade809badbc9a0ccad0ac8813d0fba9b371ab9279bf69282672491016c34c0c",
            "mass": "5957a55eca747b024726f9630d943416a7e537febc30d604a1a759ec5fc03ee7",
            "lyapunov": "3c874a459dc934f2c900fb15d34ea168cb9bdc6164889fd5d518b31ba6270a19",
            "e_rate_residual": "bf04667cb89bc87e6440352504ed29c9b62cada8b5c4e985706e1ba249c8716e",
        },
        {"mode": "nonlinear", "admissible": True, "m": 0.9333333333333333, "accepted_steps": 134, "rejected_steps": 0, "final_dt": 0.006181535280699512},
        {"accepted_steps": 134, "rejected_steps": 0, "positivity_halvings": 0, "rhs_evaluations": 805},
    ),
    "porous_antipodal": (
        {
            "times": "ac1b0e68918911484f141536f23204d5f52e163ec64fc78a96e965ae766d23f4",
            "e": "ef830cfddfdc0984ec39a0aa9c64be876c51523dd9a8be38bf9f533373d213b2",
            "i": "e4e397eda480640473f56870c3a14baee6f27bb08e10cd983ca40cbafe53b95b",
            "mass": "a4f4e45a22134e08afa7289110f67c0028a74b6e49a132cbf3389517c21c8706",
            "lyapunov": "a2566cd7b39400ec914c5747b043a11e2f73daa98d9b71988ae0a792e1138f25",
            "e_rate_residual": "585a8a2eafb898223625c52226eb7edfb2d95237bad89fdd95ded29663f07471",
        },
        {"mode": "nonlinear", "admissible": True, "m": 0.8333333333333333, "accepted_steps": 135, "rejected_steps": 0, "final_dt": 0.006135253487947795},
        {"accepted_steps": 135, "rejected_steps": 0, "positivity_halvings": 0, "rhs_evaluations": 811},
    ),
    "porous_beta_negative": (
        {
            "times": "ac1b0e68918911484f141536f23204d5f52e163ec64fc78a96e965ae766d23f4",
            "e": "9afe2ac8f3ab150219145eface851544ae318811d6d3e38b3bbdf420b924d969",
            "i": "7a6ec25da02ea506cded9185d56474036a7dc5776f457934a42cc7bc67bc6bc2",
            "mass": "9af4936a280e1af5f1bf56a6ce2a8f10e512ba8f3e98ccfd48769949ad13c129",
            "lyapunov": "65f9a4cbbc2533baa2f8a3607a4540bf349193ab8c361075b151e13cf78ac746",
            "e_rate_residual": "a8506be5dea566fe80591a964e992dce0a4ee1aefdd25fd3c04ca3a69acccf50",
        },
        {"mode": "nonlinear", "admissible": True, "m": 0.25, "accepted_steps": 165, "rejected_steps": 2, "final_dt": 0.00593121231009061},
        {"accepted_steps": 165, "rejected_steps": 2, "positivity_halvings": 0, "rhs_evaluations": 1003},
    ),
}


def run_flow(name):
    d, p, beta, kind, amplitude, antipodal = FLOWS[name]
    pp = make_parameter_point(d, p)
    setting = pp if beta is None else make_flow_setting(pp, beta)
    horizon = 1.0 if beta is None else 0.5
    cfg = make_flow_config(setting, horizon, node_count=24, sample_count=65, antipodal=antipodal)
    rule = make_rule(d, 24)
    z = rule.nodes
    values = {"affine": 1.0 + amplitude * z, "exponential": np.exp(amplitude * z),
              "even": np.exp(amplitude * z * z)}[kind]
    runner = run_heat_flow if beta is None else run_nonlinear_flow
    return runner(AxiFunction(rule, values=values), cfg)


def test_every_flow_is_covered():
    assert set(FLOWS) == set(TRACE_GOLDEN)


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_trace_matches_golden_bits(name):
    trace = run_flow(name)
    hashes, stats, solver = TRACE_GOLDEN[name]
    for field in TRACE_ARRAYS:
        array = getattr(trace, field)
        assert array.dtype == np.float64 and array.flags.c_contiguous
        assert hashlib.sha256(array.tobytes()).hexdigest() == hashes[field], field
    assert trace.stats == stats
    assert list(trace.stats) == list(stats)
    assert trace.solver == solver


# (d, p, value) -> (value, iterations, start values), floats as float.hex;
# each solve uses node_count=24, restarts=2 and the default seed
BEST_CONSTANT_GOLDEN = {
    (3, 3.0, 2.0): (
        "0x1.b4d450a5283eep+0",
        1690,
        (
            "0x1.0000000000000p+1",
            "0x1.b4d450a528400p+0",
            "0x1.b4d450a52840bp+0",
            "0x1.b4d450a528416p+0",
            "0x1.b4d450a5283eep+0",
        ),
    ),
    (3, 1.5, 2.0): (
        "0x1.cb4661d91b1bcp+0",
        1279,
        (
            "0x1.0000000000000p+1",
            "0x1.cb4661d92058bp+0",
            "0x1.cb4661d920a31p+0",
            "0x1.cb4661d91b1bcp+0",
            "0x1.cb4661d92caa9p+0",
        ),
    ),
}


@pytest.mark.parametrize("point", sorted(BEST_CONSTANT_GOLDEN))
def test_best_constant_matches_golden_bits(point):
    d, p, value = point
    result = best_constant(make_parameter_point(d, p), value, node_count=24, restarts=2)
    golden_value, iterations, start_values = BEST_CONSTANT_GOLDEN[point]
    assert result.value.hex() == golden_value
    assert result.iterations == iterations
    assert tuple(v.hex() for v in result.start_values) == start_values
