"""Tests for the heat and nonlinear diffusion flow runners."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereineq import cli, flows
from sphereineq.errors import ConvergenceError, ValidationError
from sphereineq.exponents import make_flow_setting, make_parameter_point
from sphereineq.flows import (
    EntropyTrace,
    _advance,
    _PorousMediumRHS,
    _PositivityLoss,
    certify_ode_chain,
    make_flow_config,
    run_heat_flow,
    run_nonlinear_flow,
    trace_to_csv,
)
from sphereineq.sphere_calculus import AxiFunction, dirichlet, make_rule

D3P3 = make_parameter_point(3, 3.0)
D3P5 = make_parameter_point(3, 5.0)
RULE3 = make_rule(3, 48)


def tilted(rule, eps=0.1):
    return AxiFunction(rule, values=1.0 + eps * rule.nodes)


class TestConfig:
    def test_rejections(self):
        with pytest.raises(ValidationError):
            make_flow_config(D3P3, time_horizon=0.0)
        with pytest.raises(ValidationError):
            make_flow_config(D3P3, node_count=2)
        with pytest.raises(ValidationError):
            make_flow_config(D3P3, sample_count=1)
        with pytest.raises(ValidationError):
            make_flow_config((3, 3.0))

    def test_rejects_a_beta_whose_square_overflows(self):
        # admissible at (1, 3), but beta^2 in the entropy-rate residual overflowed
        setting = make_flow_setting(make_parameter_point(1, 3.0), 1.3407807929942597e154)
        assert setting.admissible
        with pytest.raises(ValidationError, match="beta"):
            make_flow_config(setting, 0.05, node_count=16, sample_count=65)

    @pytest.mark.parametrize(
        "tolerances",
        [
            {"rtol": math.nan},
            {"rtol": 0.0, "atol": 0.0},
            {"rtol": 0.0},
            {"rtol": -1.0},
            {"rtol": math.inf},
            {"atol": math.nan},
            {"atol": -1.0e-12},
            {"atol": math.inf},
        ],
    )
    def test_rejects_bad_tolerances(self, tolerances, tmp_path, capsys):
        # a NaN or zero tolerance made the step control loop forever; the
        # step control is fixed now, and a flow config that sets a tolerance
        # exits 2, naming the key, before anything runs
        spec = {"mode": "heat", "d": 3, "p": 3.0, "initial": {"kind": "affine"}, **tolerances}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(spec))
        assert cli.main(["flow", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        assert f"unknown flow config keys: {', '.join(sorted(tolerances))}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_zero_atol_allowed(self):
        # pure relative error control still marches y' = -y to its target
        sc = {**flows._STEP_CONTROL, "atol": 0.0}
        stats = {"accepted_steps": 0, "rejected_steps": 0, "positivity_halvings": 0}
        y, t, _, _ = _advance(lambda y: -y, np.ones(3), 1.0, 0.0, 1.0e-3, sc, 1.0e-12, stats)
        assert t == pytest.approx(1.0)
        assert y == pytest.approx(np.full(3, math.exp(-1.0)), rel=1e-7)

    def test_step_control_contents(self):
        assert flows._STEP_CONTROL == {
            "initial_dt": 1e-4, "safety": 0.9, "max_dt": 0.05, "rtol": 1e-8, "atol": 1e-12,
        }
        assert flows._POSITIVITY_FLOOR == 1e-12


class TestHeatFlow:
    def test_stationary_constant(self):
        u0 = AxiFunction(RULE3, values=np.full(48, 2.0))
        trace = run_heat_flow(u0, make_flow_config(D3P3, 0.3, sample_count=65))
        assert np.max(np.abs(trace.e)) < 1e-14
        assert np.max(np.abs(trace.i)) < 1e-12
        assert np.max(np.abs(trace.lyapunov)) < 1e-12
        report = certify_ode_chain(trace)
        assert report.passed

    def test_battery_d3_p3(self):
        trace = run_heat_flow(tilted(RULE3), make_flow_config(D3P3, 1.0))
        assert np.max(np.abs(trace.mass - trace.mass[0])) < 1e-10 * trace.mass[0]
        assert np.all(np.diff(trace.e) < 0.0)
        assert np.all(np.diff(trace.i)[1:] < 0.0)
        assert np.max(np.diff(trace.lyapunov)) <= 1e-8
        assert np.max(trace.e_rate_residual) < 1e-6
        assert trace.e[-1] < 0.01 * trace.e[0]
        report = certify_ode_chain(trace)
        assert report.passed
        assert report.ode_chain_applicable
        assert report.ode_chain_min_residual >= -1e-6

    @pytest.mark.parametrize("d,p", [(2, 4.0), (1, 1.75)])
    def test_battery_other_points(self, d, p):
        pp = make_parameter_point(d, p)
        rule = make_rule(d, 48)
        cfg = make_flow_config(pp, time_horizon=3.0 / d, sample_count=193)
        trace = run_heat_flow(tilted(rule), cfg)
        assert trace.e[-1] < 0.01 * trace.e[0]
        report = certify_ode_chain(trace)
        assert report.passed
        assert report.ode_chain_min_residual >= -1e-6

    def test_log_case_p2(self):
        pp = make_parameter_point(3, 2.0)
        trace = run_heat_flow(tilted(RULE3), make_flow_config(pp, 1.0, sample_count=129))
        report = certify_ode_chain(trace)
        assert report.passed
        assert report.ode_chain_applicable
        assert np.max(trace.e_rate_residual) < 1e-6
        assert np.all(np.diff(trace.e) < 0.0)

    def test_negative_carre_du_champ_still_runs(self):
        # p above the improvement range: diagnostics only, no ODE-chain gate
        trace = run_heat_flow(tilted(RULE3), make_flow_config(D3P5, 1.0, sample_count=129))
        assert np.max(np.abs(trace.mass - trace.mass[0])) < 1e-10
        report = certify_ode_chain(trace)
        assert not report.ode_chain_applicable
        assert report.passed

    def test_rejections(self):
        fs = make_flow_setting(D3P5, 1.2)
        with pytest.raises(ValidationError):
            run_heat_flow(tilted(RULE3), make_flow_config(fs, 1.0))
        with pytest.raises(ValidationError):
            run_heat_flow(tilted(make_rule(2, 48)), make_flow_config(D3P3, 1.0))
        with pytest.raises(ValidationError):
            run_heat_flow(tilted(make_rule(3, 32)), make_flow_config(D3P3, 1.0))
        sign_flip = AxiFunction(RULE3, values=RULE3.nodes)
        with pytest.raises(ValidationError):
            run_heat_flow(sign_flip, make_flow_config(D3P3, 1.0))


class TestNonlinearFlow:
    def test_stationary_constant(self):
        fs = make_flow_setting(D3P5, 1.2)
        u0 = AxiFunction(RULE3, values=np.full(48, 2.0))
        trace = run_nonlinear_flow(u0, make_flow_config(fs, 0.3, sample_count=65))
        assert np.max(np.abs(trace.e)) < 1e-13
        assert np.max(np.abs(trace.i)) < 1e-12
        assert certify_ode_chain(trace).passed

    def test_battery_d3_p5_beta12(self):
        fs = make_flow_setting(D3P5, 1.2)
        assert fs.admissible
        trace = run_nonlinear_flow(tilted(RULE3), make_flow_config(fs, 1.0))
        assert np.max(np.abs(trace.mass - trace.mass[0])) < 1e-7
        assert np.max(np.diff(trace.lyapunov)) <= 1e-7
        assert np.max(trace.e_rate_residual) < 1e-6
        assert np.all(np.diff(trace.e) < 0.0)
        assert np.all(np.diff(trace.i)[1:] < 0.0)
        assert trace.e[-1] < 0.01 * trace.e[0]
        report = certify_ode_chain(trace)
        assert report.passed
        assert report.psi_lyapunov_max_increase is not None
        assert report.psi_lyapunov_max_increase <= 1e-7

    def test_inadmissible_beta_runs_diagnostics_only(self):
        fs = make_flow_setting(D3P5, 1.0)
        assert not fs.admissible
        trace = run_nonlinear_flow(
            tilted(RULE3), make_flow_config(fs, 0.5, sample_count=129)
        )
        assert trace.stats["admissible"] is False
        report = certify_ode_chain(trace)
        assert report.psi_lyapunov_max_increase is None
        assert report.passed

    def test_nonpositive_diffusion_exponent_rejected(self):
        fs = make_flow_setting(D3P5, -0.1)
        assert fs.m <= 0.0
        with pytest.raises(ValidationError):
            run_nonlinear_flow(tilted(RULE3), make_flow_config(fs, 0.1, sample_count=65))

    def test_positivity_floor_abort(self, monkeypatch):
        fs = make_flow_setting(D3P5, 1.2)
        cfg = make_flow_config(fs, 0.2, sample_count=65)
        monkeypatch.setattr(flows, "_POSITIVITY_FLOOR", 0.95)
        with pytest.raises(ConvergenceError):
            run_nonlinear_flow(tilted(RULE3), cfg)

    def test_needs_flow_setting(self):
        with pytest.raises(ValidationError):
            run_nonlinear_flow(tilted(RULE3), make_flow_config(D3P5, 1.0))

    def test_step_size_underflow_raises(self):
        # explosive growth keeps every stage positive, so only the error
        # control can reject the step; it does until dt falls below 1e-15
        sc = flows._STEP_CONTROL
        stats = {"accepted_steps": 0, "rejected_steps": 0}
        with pytest.raises(ConvergenceError, match="step size fell"):
            _advance(lambda y: 1.0e20 * y, np.ones(4), 1.0, 0.0, 1.0e-4, sc, 1.0e-12, stats)
        assert stats["accepted_steps"] == 0
        assert stats["rejected_steps"] > 10

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("rtol,atol", [(math.nan, 1.0e-12), (0.0, 0.0)])
    def test_nonfinite_error_estimate_raises(self, rtol, atol):
        # past make_flow_config's checks these tolerances give a NaN error
        # estimate, which is neither > 1 nor <= 1; the march used to spin
        sc = {"rtol": rtol, "atol": atol, "safety": 0.9, "max_dt": 0.05}
        stats = {"accepted_steps": 0, "rejected_steps": 0, "positivity_halvings": 0}
        with pytest.raises(ConvergenceError, match="error estimate is nan"):
            _advance(lambda y: -y, np.ones(4), 1.0, 0.0, 1.0e-3, sc, 1.0e-12, stats)
        assert stats["accepted_steps"] == 0

    def test_rhs_work_counts(self):
        # first same as last: one evaluation for the first k1, then six per
        # attempted step, across all sample intervals
        fs = make_flow_setting(D3P5, 1.2)
        trace = run_nonlinear_flow(tilted(RULE3), make_flow_config(fs, 0.5, sample_count=65))
        solver = trace.solver
        attempts = solver["accepted_steps"] + solver["rejected_steps"]
        assert solver["accepted_steps"] == trace.stats["accepted_steps"] > 0
        assert solver["rejected_steps"] == trace.stats["rejected_steps"]
        assert solver["positivity_halvings"] == 0
        assert solver["rhs_evaluations"] == 6 * attempts + 1
        assert list(trace.stats) == [
            "mode", "admissible", "m", "accepted_steps", "rejected_steps", "final_dt",
        ]

    def test_positivity_halvings_counted(self):
        # stiff relaxation from a large first step: stages undershoot the
        # floor, the step is halved and the march still reaches the target
        sc = flows._STEP_CONTROL
        stats = {"accepted_steps": 0, "rejected_steps": 0, "positivity_halvings": 0}
        y, t, _, _ = _advance(
            lambda y: -100.0 * (y - 1.0), np.array([0.01, 1.99]), 1.0, 0.0, 0.05, sc,
            1.0e-12, stats,
        )
        assert t == pytest.approx(1.0)
        assert np.all(y > 1.0e-12)
        assert stats["positivity_halvings"] > 0
        assert stats["rejected_steps"] > stats["positivity_halvings"]


# Reference Dormand-Prince march: the plain form that recomputes k1 on every
# attempt and builds each stage with Python sums.  The first-same-as-last
# version in flows must reproduce it bit for bit.
REFERENCE_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
REFERENCE_DP_B5 = (
    35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0,
)
REFERENCE_DP_B4 = (
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
)


def reference_advance(rhs, y, t_target, t, dt, sc, floor, stats):
    rtol = sc["rtol"]
    atol = sc["atol"]
    safety = sc["safety"]
    max_dt = sc["max_dt"]
    err_prev = 1.0
    while t < t_target - 1e-14 * max(1.0, t_target):
        dt = min(dt, t_target - t, max_dt)
        halvings = 0
        while True:
            try:
                k = []
                for row in REFERENCE_DP_A:
                    yi = y
                    if row:
                        yi = y + dt * sum(a * ki for a, ki in zip(row, k))
                    k.append(rhs(yi))
                y5 = y + dt * sum(b * ki for b, ki in zip(REFERENCE_DP_B5, k))
                y4 = y + dt * sum(b * ki for b, ki in zip(REFERENCE_DP_B4, k))
                if np.any(y5 <= floor):
                    raise _PositivityLoss
            except _PositivityLoss:
                stats["rejected_steps"] += 1
                halvings += 1
                if halvings > 40:
                    raise ConvergenceError(
                        "positivity could not be maintained after 40 step halvings"
                    )
                dt *= 0.5
                continue
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
            if err > 1.0 and dt <= 1e-15:
                raise ConvergenceError("step size fell")
            if err <= 1.0:
                factor = safety * (err + 1e-16) ** -0.14 * err_prev**0.08
                err_prev = max(err, 1e-16)
                y = y5
                t += dt
                stats["accepted_steps"] += 1
                dt = min(dt * min(max(factor, 0.2), 5.0), max_dt)
                break
            stats["rejected_steps"] += 1
            dt *= min(max(safety * err**-0.2, 0.2), 0.9)
    return y, t, dt


class ReferenceRHS(_PorousMediumRHS):
    def __call__(self, rho_vals):
        self.evaluations += 1  # counted for the comparison, not in the original
        if np.any(rho_vals <= self.floor):
            raise _PositivityLoss
        c = self.analysis @ rho_vals
        rho_fine = self.synth_fine @ c
        if np.any(rho_fine <= 0.0):
            raise _PositivityLoss
        pow_fine = rho_fine**self.m
        c_pow = self.analysis_fine @ pow_fine
        c_lap = self.neg_eigs * c_pow
        if self.even_only:
            c_lap[1::2] = 0.0
        return self.synth @ c_lap


def reference_nonlinear_flow(u0, cfg, monkeypatch):
    """run_nonlinear_flow on the reference integrator, without k1 reuse."""

    def advance(rhs, y, t_target, t, dt, sc, floor, stats, k1=None):
        return (*reference_advance(rhs, y, t_target, t, dt, sc, floor, stats), None)

    with monkeypatch.context() as patch:
        patch.setattr(flows, "_advance", advance)
        patch.setattr(flows, "_PorousMediumRHS", ReferenceRHS)
        return run_nonlinear_flow(u0, cfg)


TRACE_FIELDS = ("times", "e", "i", "mass", "lyapunov", "e_rate_residual")


class TestBitIdentity:
    @pytest.mark.parametrize(
        "d,p,beta,values,horizon,antipodal",
        [
            # the shipped porous-medium config
            (3, 5.0, 1.2, lambda z: 1.0 + 0.1 * z, 1.0, False),
            # antipodal run on even data
            (2, 4.0, 1.5, lambda z: np.exp(0.3 * z * z), 0.5, True),
            # inadmissible beta, the most rejected steps of the benchmark set
            (2, 4.0, -2.0, lambda z: np.exp(0.2 * z), 0.5, False),
            (4, 3.5, 4.0, lambda z: 1.0 + 0.3 * z, 0.5, False),
        ],
    )
    def test_traces_match_reference(self, monkeypatch, d, p, beta, values, horizon, antipodal):
        pp = make_parameter_point(d, p)
        rule = make_rule(d, 48)
        u0 = AxiFunction(rule, values=values(rule.nodes))
        cfg = make_flow_config(make_flow_setting(pp, beta), horizon, antipodal=antipodal)
        reference = reference_nonlinear_flow(u0, cfg, monkeypatch)
        trace = run_nonlinear_flow(u0, cfg)
        for name in TRACE_FIELDS:
            assert getattr(trace, name).tobytes() == getattr(reference, name).tobytes(), name
        assert trace.stats == reference.stats
        assert trace.stats["rejected_steps"] > 0
        # the reference recomputes k1 on every attempt: 7 evaluations each
        attempts = trace.stats["accepted_steps"] + trace.stats["rejected_steps"]
        assert reference.solver["rhs_evaluations"] == 7 * attempts
        assert trace.solver["rhs_evaluations"] == 6 * attempts + 1

    @pytest.mark.parametrize(
        "setting,antipodal",
        [(D3P3, False), (D3P3, True), (make_flow_setting(D3P5, 1.2), False)],
    )
    def test_sample_energies_match_axifunction_route(self, monkeypatch, setting, antipodal):
        # i and |grad u|^2 per sample were dirichlet(AxiFunction(rule, values))
        z = RULE3.nodes
        u0 = AxiFunction(RULE3, values=np.exp(0.2 * z * z + (0.0 if antipodal else 0.1) * z))
        cfg = make_flow_config(setting, 0.5, sample_count=65, antipodal=antipodal)
        run = run_heat_flow if setting is D3P3 else run_nonlinear_flow
        trace = run(u0, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(
                flows, "_grid_energy", lambda rule, v: dirichlet(AxiFunction(rule, values=v))
            )
            reference = run(u0, cfg)
        for name in TRACE_FIELDS:
            assert getattr(trace, name).tobytes() == getattr(reference, name).tobytes(), name

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_grid_energy_rejects_nonfinite_values(self, bad):
        values = np.ones(RULE3.n)
        values[3] = bad
        with pytest.raises(ValidationError, match="finite"):
            flows._grid_energy(RULE3, values)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        dt=st.floats(1.0e-4, 0.1),
        rtol=st.floats(1.0e-10, 1.0e-4),
        atol=st.floats(0.0, 1.0e-8),
        floor_frac=st.sampled_from([1.0e-12, 0.5, 0.99]),
    )
    def test_advance_matches_reference(self, n, seed, dt, rtol, atol, floor_frac):
        # linear diffusion dy/dt = -L y on a random weighted graph, marched
        # over two intervals so that the carried k1 is exercised
        rng = np.random.default_rng(seed)
        weights = np.triu(rng.uniform(0.0, 20.0, (n, n)), 1)
        weights = weights + weights.T
        lap = np.diag(weights.sum(axis=1)) - weights
        y0 = rng.uniform(0.2, 2.0, n)
        floor = floor_frac * float(y0.min())
        sc = {"rtol": rtol, "atol": atol, "safety": 0.9, "max_dt": 0.05}

        def rhs(y):
            return -(lap @ y)

        ref_stats = {"accepted_steps": 0, "rejected_steps": 0}
        stats = {"accepted_steps": 0, "rejected_steps": 0, "positivity_halvings": 0}
        y_ref = y = y0
        t_ref = t = 0.0
        dt_ref = dt
        k1 = None
        for t_target in (0.1, 0.3):
            try:
                y_ref, t_ref, dt_ref = reference_advance(
                    rhs, y_ref, t_target, t_ref, dt_ref, sc, floor, ref_stats
                )
            except ConvergenceError:
                with pytest.raises(ConvergenceError):
                    _advance(rhs, y, t_target, t, dt, sc, floor, stats, k1)
                return
            y, t, dt, k1 = _advance(rhs, y, t_target, t, dt, sc, floor, stats, k1)
            assert y.tobytes() == y_ref.tobytes()
            assert (t, dt) == (t_ref, dt_ref)
            assert {k: stats[k] for k in ref_stats} == ref_stats
            assert k1.tobytes() == rhs(y).tobytes()


class TestAntipodal:
    def test_heat_even_run(self):
        vals = np.exp(0.1 * RULE3.nodes**2)
        u0 = AxiFunction(RULE3, values=vals)
        cfg = make_flow_config(D3P3, 0.5, sample_count=129, antipodal=True)
        trace = run_heat_flow(u0, cfg)
        assert certify_ode_chain(trace).passed

    def test_nonlinear_even_run(self):
        fs = make_flow_setting(D3P5, 1.2)
        u0 = AxiFunction(RULE3, values=np.exp(0.1 * RULE3.nodes**2))
        cfg = make_flow_config(fs, 0.5, sample_count=129, antipodal=True)
        trace = run_nonlinear_flow(u0, cfg)
        assert certify_ode_chain(trace).passed

    def test_odd_data_rejected(self):
        cfg = make_flow_config(D3P3, 0.5, antipodal=True)
        with pytest.raises(ValidationError):
            run_heat_flow(tilted(RULE3), cfg)


class TestCertification:
    def test_refinement_reduces_fd_residual(self):
        coarse = run_heat_flow(
            tilted(RULE3), make_flow_config(D3P3, 1.0, sample_count=65)
        )
        fine = run_heat_flow(
            tilted(RULE3), make_flow_config(D3P3, 1.0, sample_count=129)
        )
        ratio = np.max(coarse.e_rate_residual) / np.max(fine.e_rate_residual)
        assert ratio >= 2.0

    def test_short_trace_rejected(self):
        trace = run_heat_flow(tilted(RULE3), make_flow_config(D3P3, 0.5, sample_count=65))
        stub = EntropyTrace(
            mode="heat",
            setting=D3P3,
            times=trace.times[:32],
            e=trace.e[:32],
            i=trace.i[:32],
            mass=trace.mass[:32],
            lyapunov=trace.lyapunov[:32],
            e_rate_residual=trace.e_rate_residual[:32],
            stats=trace.stats,
        )
        with pytest.raises(ValidationError):
            certify_ode_chain(stub)

    def test_nonuniform_grid_rejected(self):
        trace = run_heat_flow(tilted(RULE3), make_flow_config(D3P3, 0.5, sample_count=65))
        warped = trace.times.copy()
        warped[10] += 0.3 * (warped[1] - warped[0])
        stub = EntropyTrace(
            mode="heat",
            setting=D3P3,
            times=warped,
            e=trace.e,
            i=trace.i,
            mass=trace.mass,
            lyapunov=trace.lyapunov,
            e_rate_residual=trace.e_rate_residual,
            stats=trace.stats,
        )
        with pytest.raises(ValidationError):
            certify_ode_chain(stub)


    @pytest.mark.parametrize("d,p", [(2, 3.0), (3, 5.0)])
    def test_other_points_pp_rejected(self, d, p):
        # a (3, 3) trace passed against the d = 2 formulas, and at (3, 5),
        # where the ODE chain does not apply, it was skipped
        trace = run_heat_flow(tilted(RULE3), make_flow_config(D3P3, 0.5, sample_count=65))
        assert certify_ode_chain(trace, make_parameter_point(3, 3.0)).passed
        with pytest.raises(ValidationError, match="not the trace's point"):
            certify_ode_chain(trace, make_parameter_point(d, p))

    def test_nonlinear_trace_checks_its_own_point(self):
        fs = make_flow_setting(D3P5, 1.2)
        trace = run_nonlinear_flow(tilted(RULE3), make_flow_config(fs, 0.05, sample_count=65))
        assert certify_ode_chain(trace, D3P5).passed
        with pytest.raises(ValidationError, match="not the trace's point"):
            certify_ode_chain(trace, D3P3)

    @pytest.mark.parametrize("name", ["ode_tol"])
    def test_bad_tolerance_rejected(self, name):
        trace = run_heat_flow(tilted(RULE3), make_flow_config(D3P3, 0.5, sample_count=65))
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValidationError, match=name):
                certify_ode_chain(trace, **{name: bad})


class TestExport:
    def test_csv_round_trip(self):
        trace = run_heat_flow(tilted(RULE3), make_flow_config(D3P3, 0.5, sample_count=65))
        text = trace_to_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "t,e,i,mass,lyapunov,e_rate_residual"
        assert len(lines) == 66
        row = [float(x) for x in lines[1].split(",")]
        assert row[0] == 0.0
        assert math.isclose(row[1], trace.e[0], rel_tol=1e-15)
