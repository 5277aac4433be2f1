"""Tests for the heat and nonlinear diffusion flow runners."""

import json
import math

import numpy as np
import pytest

from sphereineq.errors import ConvergenceError, ValidationError
from sphereineq.exponents import make_flow_setting, make_parameter_point
from sphereineq.flows import (
    EntropyTrace,
    _advance,
    certify_ode_chain,
    flow_manifest_json,
    heat_evolve,
    make_flow_config,
    run_heat_flow,
    run_nonlinear_flow,
    trace_to_csv,
    write_trace,
)
from sphereineq.sphere_calculus import AxiFunction, make_rule

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
            make_flow_config(D3P3, positivity_floor=0.0)
        with pytest.raises(ValidationError):
            make_flow_config(D3P3, safety=1.5)
        with pytest.raises(ValidationError):
            make_flow_config(D3P3, initial_dt=0.1, max_dt=0.05)
        with pytest.raises(ValidationError):
            make_flow_config(D3P3, node_count=2)
        with pytest.raises(ValidationError):
            make_flow_config(D3P3, sample_count=1)
        with pytest.raises(ValidationError):
            make_flow_config((3, 3.0))

    def test_step_control_contents(self):
        cfg = make_flow_config(D3P3, initial_dt=1e-3, max_dt=0.02, rtol=1e-9)
        assert cfg.step_control["initial_dt"] == 1e-3
        assert cfg.step_control["max_dt"] == 0.02
        assert cfg.step_control["rtol"] == 1e-9


class TestHeatFlow:
    def test_stationary_constant(self):
        u0 = AxiFunction(RULE3, values=np.full(48, 2.0))
        trace = run_heat_flow(u0, make_flow_config(D3P3, 0.3, sample_count=65))
        assert np.max(np.abs(trace.e)) < 1e-14
        assert np.max(np.abs(trace.i)) < 1e-12
        assert np.max(np.abs(trace.lyapunov)) < 1e-12
        report = certify_ode_chain(trace)
        assert report.passed

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_single_mode_exact_decay(self, d):
        pp = make_parameter_point(d, 3.0)
        rule = make_rule(d, 32)
        w0 = 1.0 + 0.1 * rule.basis[:, 1]
        u0 = AxiFunction(rule, values=w0 ** (1.0 / 3.0))
        c0 = rule.to_coefficients(w0)[1]
        for t in (0.1, 0.5, 1.3):
            ut = heat_evolve(u0, pp, t)
            c1 = rule.to_coefficients(ut.values**3)[1]
            assert abs(c1 / c0 - math.exp(-d * t)) < 1e-12

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

    def test_heat_evolve_rejections(self):
        u0 = tilted(RULE3)
        with pytest.raises(ValidationError):
            heat_evolve(u0, D3P3, -0.1)
        with pytest.raises(ValidationError):
            heat_evolve(AxiFunction(RULE3, values=RULE3.nodes), D3P3, 0.1)


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

    def test_positivity_floor_abort(self):
        fs = make_flow_setting(D3P5, 1.2)
        cfg = make_flow_config(fs, 0.2, sample_count=65, positivity_floor=0.95)
        with pytest.raises(ConvergenceError):
            run_nonlinear_flow(tilted(RULE3), cfg)

    def test_needs_flow_setting(self):
        with pytest.raises(ValidationError):
            run_nonlinear_flow(tilted(RULE3), make_flow_config(D3P5, 1.0))

    def test_step_size_underflow_raises(self):
        # explosive growth keeps every stage positive, so only the error
        # control can reject the step; it does until dt falls below 1e-15
        sc = make_flow_config(D3P3, 1.0).step_control
        stats = {"accepted_steps": 0, "rejected_steps": 0}
        with pytest.raises(ConvergenceError, match="step size fell"):
            _advance(lambda y: 1.0e20 * y, np.ones(4), 1.0, 0.0, 1.0e-4, sc, 1.0e-12, stats)
        assert stats["accepted_steps"] == 0
        assert stats["rejected_steps"] > 10


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


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        trace = run_heat_flow(tilted(RULE3), make_flow_config(D3P3, 0.5, sample_count=65))
        text = trace_to_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "t,e,i,mass,lyapunov,e_rate_residual"
        assert len(lines) == 66
        row = [float(x) for x in lines[1].split(",")]
        assert row[0] == 0.0
        assert math.isclose(row[1], trace.e[0], rel_tol=1e-15)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        assert path.read_text() == text

    def test_manifest(self):
        fs = make_flow_setting(D3P5, 1.2)
        cfg = make_flow_config(fs, 0.5, sample_count=65)
        trace = run_nonlinear_flow(tilted(RULE3), cfg)
        payload = json.loads(flow_manifest_json(trace, cfg))
        assert payload["mode"] == "nonlinear"
        assert payload["d"] == 3 and payload["p"] == 5.0 and payload["beta"] == 1.2
        assert payload["stats"]["accepted_steps"] > 0
        assert payload["step_control"]["rtol"] == 1e-8
