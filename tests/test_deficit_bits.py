"""Golden bits of both deficit dispatchers, and their domain checks.

Every sphere and flat-space inequality id is evaluated once on fixed inputs,
and lhs, rhs and deficit must equal, bit for bit, the values recorded when
these dispatchers were last refactored (stored as float.hex strings).
"""

import math

import numpy as np
import pytest

from sphereineq.errors import ValidationError
from sphereineq.exponents import make_flow_setting, make_parameter_point
from sphereineq.phi_functions import make_phi_spec
from sphereineq.sphere_calculus import AxiFunction, deficit, make_rule
from sphereineq.stereographic import (
    equality_profile_second_moment,
    euclidean_deficit,
    push_forward,
    radial_profile_from_samples,
    radial_second_moment,
)

RULE = make_rule(3, 24)
Z = RULE.nodes
TILTED = AxiFunction(RULE, values=np.exp(0.3 * Z + 0.1 * Z * Z))
EVEN = AxiFunction(RULE, values=np.exp(0.25 * Z * Z - 0.1 * Z**4))
D3P3 = make_parameter_point(3, 3.0)
D3P2 = make_parameter_point(3, 2.0)


def moment_matched(u):
    """Flat profile of u rescaled to the equality profile's |x|^2-weighted mass."""
    v = push_forward(u)
    factor = math.sqrt(equality_profile_second_moment(v.d) / radial_second_moment(v))
    return radial_profile_from_samples(v.d, v.values * factor)


MATCHED = moment_matched(EVEN)

EVALUATIONS = {
    "gns": lambda: deficit(TILTED, "gns", D3P3),
    "log_sobolev": lambda: deficit(TILTED, "log_sobolev", D3P2),
    "improved_gns": lambda: deficit(TILTED, "improved_gns", D3P3),
    "improved_phi": lambda: deficit(
        TILTED, "improved_phi", phi_spec=make_phi_spec(D3P3, make_flow_setting(D3P3, 1.2))
    ),
    "afst": lambda: deficit(EVEN, "afst", D3P3),
    "antipodal": lambda: deficit(EVEN, "antipodal", D3P3),
    "weighted_gns": lambda: euclidean_deficit(push_forward(TILTED), "weighted_gns", D3P3),
    "stability": lambda: euclidean_deficit(push_forward(TILTED), "stability", D3P3),
    "sharper_stability": lambda: euclidean_deficit(
        push_forward(TILTED), "sharper_stability", D3P3
    ),
    "moment_constrained": lambda: euclidean_deficit(MATCHED, "moment_constrained", D3P3),
    "moment_constrained_log": lambda: euclidean_deficit(MATCHED, "moment_constrained_log"),
}

# (lhs, rhs, deficit) as float.hex
GOLDEN = {
    "gns": ("0x1.6773fa8117091p-4", "0x1.58b9e27683af0p-4", "0x1.d74301526b420p-9"),
    "log_sobolev": ("0x1.6773fa8117091p-4", "0x1.51453302b97f3p-4", "0x1.62ec77e5d89e0p-8"),
    "improved_gns": ("0x1.6773fa8117091p-4", "0x1.5b2bf0b20ba80p-4", "0x1.890139e16c220p-9"),
    "improved_phi": ("0x1.6773fa8117091p-4", "0x1.5b9f7c6a2430ap-4", "0x1.7a8fc2de5b0e0p-9"),
    "afst": ("0x1.2c093b0bd1514p-6", "0x1.bc63d4733049bp-8", "0x1.79e08bde0a7dap-7"),
    "antipodal": ("0x1.2c093b0bd1514p-6", "0x1.a23fca385fe1dp-7", "0x1.6ba557be85816p-8"),
    "weighted_gns": ("0x1.0c3d0c0394f5fp+6", "0x1.0bf45f58a499dp+6", "0x1.22b2abc170800p-4"),
    "stability": ("0x1.0c3d0c0394f5fp+6", "0x1.7a00a6a4e1bdbp-7", "0x1.0c313bfe5fceep+6"),
    "sharper_stability": ("0x1.bb75191f9f3c0p+0", "0x1.ac4e4bdce42dfp+0", "0x1.e4d9a85761c20p-5"),
    "moment_constrained": ("0x1.7bc4d15299400p-4", "0x1.b516a283ec1fap-26", "0x1.7bc4ca7e3eb5fp-4"),
    "moment_constrained_log": (
        "0x1.b5a1a7f7b595ep+2",
        "0x1.b00ba66c6d391p+2",
        "0x1.658062d217340p-4",
    ),
}

D2_RULE = make_rule(2, 24)
D2_FUNCTION = AxiFunction(D2_RULE, values=np.exp(0.1 * D2_RULE.nodes**2))

# One call per id that leaves its domain.
VIOLATIONS = {
    "gns": lambda: deficit(TILTED, "gns", D3P2),
    "log_sobolev": lambda: deficit(TILTED, "log_sobolev", D3P3),
    "improved_gns": lambda: deficit(TILTED, "improved_gns", make_parameter_point(3, 5.0)),
    "improved_phi": lambda: deficit(TILTED, "improved_phi", D3P3),
    "afst": lambda: deficit(TILTED, "afst", D3P3),
    "antipodal": lambda: deficit(TILTED, "antipodal", D3P3),
    "weighted_gns": lambda: euclidean_deficit(push_forward(TILTED), "weighted_gns", D3P2),
    "stability": lambda: euclidean_deficit(
        push_forward(TILTED), "stability", make_parameter_point(3, 5.0)
    ),
    "sharper_stability": lambda: euclidean_deficit(
        push_forward(TILTED), "sharper_stability", D3P2
    ),
    "moment_constrained": lambda: euclidean_deficit(
        push_forward(D2_FUNCTION), "moment_constrained", make_parameter_point(2, 3.0)
    ),
    "moment_constrained_log": lambda: euclidean_deficit(
        MATCHED, "moment_constrained_log", D3P3
    ),
}


def test_every_id_is_covered():
    assert set(EVALUATIONS) == set(GOLDEN) == set(VIOLATIONS)


@pytest.mark.parametrize("inequality_id", sorted(GOLDEN))
def test_matches_golden_bits(inequality_id):
    result = EVALUATIONS[inequality_id]()
    assert result.inequality_id == inequality_id
    lhs, rhs, gap = (float.fromhex(x) for x in GOLDEN[inequality_id])
    assert (result.lhs, result.rhs, result.deficit) == (lhs, rhs, gap)


@pytest.mark.parametrize("inequality_id", sorted(VIOLATIONS))
def test_domain_violation_raises(inequality_id):
    with pytest.raises(ValidationError):
        VIOLATIONS[inequality_id]()


def test_log_sobolev_checks_the_dimension():
    with pytest.raises(ValidationError, match="dimension"):
        deficit(TILTED, "log_sobolev", make_parameter_point(5, 2.0))
