"""Golden bits of both deficit dispatchers, and their domain checks.

Every sphere and flat-space inequality id is evaluated once on fixed inputs,
and lhs, rhs and deficit must equal, bit for bit, the values recorded when
these dispatchers were last refactored (stored as float.hex strings).
The heat-flow improvement function phi, on each of its three branches, and
the beta = 1 member of the nonlinear-flow family and of its envelope are
pinned the same way.
"""

import math

import numpy as np
import pytest

from sphereineq.errors import ValidationError
from sphereineq.exponents import make_flow_setting, make_parameter_point
from sphereineq.phi_functions import make_phi_spec, phi, phi_beta, phi_envelope
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


# ---------------------------------------------------------------------------
# phi on its closed-form, logarithmic (gamma = 2 - p) and exponential (p = 2)
# branches


P_STAR_2 = make_parameter_point(2, 2.0).p_star
P_STAR_4 = make_parameter_point(4, 2.0).p_star


def phi_arguments(p):
    """Entropy values at which phi is pinned at exponent p.

    Below 0.1 the expm1 forms matter; for p > 2 the last three approach the
    supremum 1/(p-2) of the domain, and for p <= 2, where the domain has no
    supremum, they are 1, 10 and 100.
    """
    s = [0.0, 5e-324, 1e-300, 1e-12, 1e-6, 0.1]
    if p <= 2.0:
        return s + [1.0, 10.0, 100.0]
    sup = 1.0 / (p - 2.0)
    return s + [sup / 2, (1 - 1e-9) * sup, math.nextafter(sup, 0.0)]


# (branch, d, p, phi at phi_arguments(p) as float.hex); the hex strings keep
# the sign of zero
PHI_GOLDEN = [
    ("closed", 3, 3.0, [
        "0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0",
        "0x1.197800000056bp-40", "0x1.0c6f7ef8824c0p-20", "0x1.a624b12f4fc60p-4",
        "0x1.3fc299693ca6cp-1", "0x1.128f10a1c70f7p+16", "0x1.06ea4d4aa37f2p+29",
    ]),
    ("closed", 2, 4.0, [
        "0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0",
        "0x1.1978000000912p-40", "0x1.0c6f824a50d84p-20", "0x1.b0a0c1244b071p-4",
        "0x1.342091b8b5938p-2", "0x1.6016b846c988fp+12", "0x1.38d0608ceae8bp+23",
    ]),
    ("closed", 4, 3.5, [
        "0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0",
        "0x1.197aaaaaaabacp-40", "0x1.0c6f7af5e563fp-20", "0x1.9bfba843969a4p-4",
        "0x1.5ea599e17f771p-2", "0x1.507b1f98489c8p+1", "0x1.e7827abe632acp+2",
    ]),
    ("closed", 1, 3.0, [
        "0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0",
        "0x1.1978000000672p-40", "0x1.0c6f7fe8b3829p-20", "0x1.a896f53d66a93p-4",
        "0x1.4e0cb2cb01de2p-1", "0x1.24f8005cac9a2p+19", "0x1.830c391dcefd0p+34",
    ]),
    ("closed", 3, 1.5, [
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.1980000000283p-40", "0x1.0c6f7c5577c24p-20", "0x1.9ecc21c0b506bp-4",
        "0x1.1af7ec6eb80fep+0", "0x1.cd7c44125a629p+3", "0x1.689e8ece389aep+7",
    ]),
    ("closed", 2, 1.2, [
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.197c0000000f1p-40", "0x1.0c6f7ae70ce52p-20", "0x1.9b8091260db27p-4",
        "0x1.08779b40a864dp+0", "0x1.5e6ce415c46d1p+3", "0x1.c37b758673c10p+6",
    ]),
    ("log", 1, 1.75, [
        "0x0.0p+0", "0x0.0p+0", "0x1.56e1fc2f8f359p-997",
        "0x1.19799812dec7cp-40", "0x1.0c6f7c3e5205ep-20", "0x1.9ead882777448p-4",
        "0x1.1d9fadcc0a055p+0", "0x1.189e708de95b4p+4", "0x1.52d78fee315c7p+8",
    ]),
    ("log", 2, P_STAR_2, [
        "0x0.0p+0", "0x0.0p+0", "0x1.56e1fc2f8f359p-997",
        "0x1.19799812ded1ap-40", "0x1.0c6f7ccdc7772p-20", "0x1.9ff566e25b2c1p-4",
        "0x1.2482f87aae5dfp+0", "0x1.2b9f42e35b8d5p+4", "0x1.66cf68d867c8fp+8",
    ]),
    ("log", 4, P_STAR_4, [
        "0x0.0p+0", "0x0.0p+0", "0x1.56e1fc2f8f359p-997",
        "0x1.19799812ded4ap-40", "0x1.0c6f7cf9f868ep-20", "0x1.a05a203aa7077p-4",
        "0x1.269621134db93p+0", "0x1.30ff84283f18ap+4", "0x1.6c38533bfbfd6p+8",
    ]),
    ("exp", 3, 2.0, [
        "0x0.0p+0", "0x0.0p+0", "0x1.56e1fc2f8f359p-997",
        "0x1.19799812dee52p-40", "0x1.0c6f7dea299d7p-20", "0x1.a2bead3decbf3p-4",
        "0x1.41933a571cb12p+0", "0x1.6daf8e675cdc5p+7", "0x1.95584ed933722p+64",
    ]),
    ("exp", 5, 2.0, [
        "0x0.0p+0", "0x0.0p+0", "0x1.56e1fc2f8f359p-997",
        "0x1.19799812dedd1p-40", "0x1.0c6f7d7484794p-20", "0x1.a1a5162150f68p-4",
        "0x1.38b89da0c66e7p+0", "0x1.e7ff11e4f048cp+6", "0x1.3cedfa70a04eap+57",
    ]),
]

# (d, p): (phi_envelope per scalar s, phi_envelope on the array of all s), at
# points where beta = 1 is admissible; the two differ in the last bit at a few
# s, because the quadrature sum rounds by the row count
ENVELOPE_GOLDEN = {
    (2, 4.0): (
        [
            "0x0.0p+0", "0x0.0000000000001p-1022", "0x1.56e1fc2f8f359p-997",
            "0x1.19799812df893p-40", "0x1.0c6f873cdddf5p-20", "0x1.bb6fdaa4acbbap-4",
            "0x1.423ebc961376ep-2", "0x1.6699f058faf23p+560", "0x1.d422d2be5dc9bp+1021",
        ],
        [
            "0x0.0p+0", "0x0.0000000000001p-1022", "0x1.56e1fc2f8f359p-997",
            "0x1.19799812df893p-40", "0x1.0c6f873cdddf4p-20", "0x1.bb6fdaa4acbbap-4",
            "0x1.423ebc961376fp-2", "0x1.6699f058faf23p+560", "0x1.d422d2be5dc9bp+1021",
        ],
    ),
    (3, 3.0): (
        [
            "0x0.0p+0", "0x0.0000000000001p-1022", "0x1.56e1fc2f8f359p-997",
            "0x1.19799812df106p-40", "0x1.0c6f805f3d951p-20", "0x1.a92b997c38f9fp-4",
            "0x1.44936a470c49dp-1", "0x1.d422d2b68328cp+1022", "0x1.d422d2be5dc9bp+1022",
        ],
        [
            "0x0.0p+0", "0x0.0000000000001p-1022", "0x1.56e1fc2f8f359p-997",
            "0x1.19799812df106p-40", "0x1.0c6f805f3d951p-20", "0x1.a92b997c38f9fp-4",
            "0x1.44936a470c49dp-1", "0x1.d422d2b68328cp+1022", "0x1.d422d2be5dc9bp+1022",
        ],
    ),
    (4, 3.5): (
        [
            "0x0.0p+0", "0x0.0000000000001p-1022", "0x1.56e1fc2f8f359p-997",
            "0x1.197aaaaaaabacp-40", "0x1.0c6f7c7c99b05p-20", "0x1.9faca0c97ae2cp-4",
            "0x1.6a27f56856a5ap-2", "0x1.8efb624d7d313p+1", "0x1.30caed7f28d4cp+7",
        ],
        [
            "0x0.0p+0", "0x0.0000000000001p-1022", "0x1.56e1fc2f8f359p-997",
            "0x1.197aaaaaaabacp-40", "0x1.0c6f7c7c99b05p-20", "0x1.9faca0c97ae2cp-4",
            "0x1.6a27f56856a5ap-2", "0x1.8efb624d7d312p+1", "0x1.30caed7f28d4cp+7",
        ],
    ),
}


@pytest.mark.parametrize(
    "branch, d, p, golden", PHI_GOLDEN, ids=[f"{b}-d{d}-p{p:.6g}" for b, d, p, _ in PHI_GOLDEN]
)
def test_phi_matches_golden_bits(branch, d, p, golden):
    pp = make_parameter_point(d, p)
    assert [phi(pp, s).hex() for s in phi_arguments(p)] == golden


@pytest.mark.parametrize("d, p", sorted(ENVELOPE_GOLDEN))
def test_beta_one_members_match_golden_bits(d, p):
    pp = make_parameter_point(d, p)
    s = phi_arguments(p)
    (heat,) = [golden for _, gd, gp, golden in PHI_GOLDEN if (gd, gp) == (d, p)]
    fs = make_flow_setting(pp, 1.0)
    assert [phi_beta(fs, si).hex() for si in s] == heat
    scalar, array = ENVELOPE_GOLDEN[(d, p)]
    assert [phi_envelope(pp, si).hex() for si in s] == scalar
    assert [v.hex() for v in phi_envelope(pp, np.array(s))] == array
