"""End-to-end checks of the command line interface.

Each test drives ``cli.main`` with an explicit argv and a temporary output
directory, then inspects exit codes, written files, and manifests.  Grids and
sample counts are kept tiny so the whole module runs in seconds.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sphereineq.cli as cli
from sphereineq import ValidationError, __version__, make_parameter_point
from sphereineq.ioutils import fmt_float
from sphereineq.variational import BestConstantResult, KLTReport

ROOT = Path(cli.__file__).resolve().parents[2]


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def read_csv_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


class TestConstants:
    def test_table_at_3_3(self, tmp_path, capsys):
        code = run_cli("constants", "--d", "3", "--p", "3", "--out-dir", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "gamma" in out and "0.56" in out

        report = load_json(tmp_path / "constants_d3_p3.json")
        assert report["gamma"] == 0.56
        assert report["two_sharp"] == 4.75
        assert abs(report["antipodal_constant"] - 96.0 / 17.0) < 1e-12
        assert report["in_nonlinear_range"] is True

        manifest = load_json(tmp_path / "constants_d3_p3_manifest.json")
        assert manifest["command"] == "constants"
        assert manifest["tool_version"] == __version__
        assert manifest["outputs"] == [str(tmp_path / "constants_d3_p3.json")]
        assert manifest["parameters"] == {"d": 3, "p": 3.0, "beta": None}
        assert manifest["wall_clock_seconds"] >= 0.0

    def test_one_dimensional_thresholds(self, tmp_path):
        assert run_cli("constants", "--d", "1", "--p", "3", "--out-dir", str(tmp_path)) == 0
        report = load_json(tmp_path / "constants_d1_p3.json")
        assert report["two_sharp"] == "inf"
        assert report["p_star"] == 1.75
        assert "afst_gns_constant" not in report

    def test_beta_section_reports_admissibility(self, tmp_path):
        assert run_cli(
            "constants", "--d", "3", "--p", "5", "--beta", "1.2", "--out-dir", str(tmp_path)
        ) == 0
        report = load_json(tmp_path / "constants_d3_p5_b1.2.json")
        assert report["admissible"] is True
        assert abs(report["m"] - (1.0 - 2.0 / 5.0 + 2.0 / (1.2 * 5.0))) < 1e-15

        assert run_cli(
            "constants", "--d", "3", "--p", "3", "--beta", "0.2", "--out-dir", str(tmp_path)
        ) == 0
        report = load_json(tmp_path / "constants_d3_p3_b0.2.json")
        assert report["admissible"] is False

    def test_degenerate_critical_point_has_no_beta_rows(self, tmp_path, capsys):
        # at (3, 6) gamma(beta) = -1 for every beta: no admissible flow exponent
        assert run_cli("constants", "--d", "3", "--p", "6", "--out-dir", str(tmp_path)) == 0
        report = load_json(tmp_path / "constants_d3_p6.json")
        assert report["in_nonlinear_range"] is True and report["gamma"] == -1.0
        assert not any(k.startswith(("beta", "m_")) for k in report)
        assert "beta_range_kind" not in capsys.readouterr().out

        assert run_cli(
            "constants", "--d", "3", "--p", "6", "--beta", "1", "--out-dir", str(tmp_path)
        ) == 0
        report = load_json(tmp_path / "constants_d3_p6_b1.json")
        assert report["admissible"] is False and report["gamma_beta"] == -1.0
        assert "beta_range_kind" not in report

    def test_nearby_exponents_write_distinct_files(self, tmp_path):
        # %g would tag both runs p3 and the second would overwrite the first
        for p in ("3", "3.0000001"):
            assert run_cli("constants", "--d", "3", "--p", p, "--out-dir", str(tmp_path)) == 0
        assert load_json(tmp_path / "constants_d3_p3.json")["p"] == 3.0
        assert load_json(tmp_path / "constants_d3_p3.0000001.json")["p"] == 3.0000001

    def test_invalid_parameters_exit_2(self, tmp_path):
        assert run_cli("constants", "--d", "0", "--p", "3", "--out-dir", str(tmp_path)) == 2
        assert run_cli("constants", "--d", "3", "--p", "99", "--out-dir", str(tmp_path)) == 2

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_beta_exits_2(self, beta, tmp_path):
        assert run_cli(
            "constants", "--d", "3", "--p", "3", "--beta", beta, "--out-dir", str(tmp_path)
        ) == 2
        assert list(tmp_path.iterdir()) == []


class TestFigure1:
    def test_small_sweep_columns_and_bounds(self, tmp_path):
        code = run_cli(
            "figure1", "--d", "3", "--p", "3",
            "--lambda-grid", "0.5", "1.5",
            "--n-nodes", "24", "--restarts", "2", "--seed", "1",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        header, rows = read_csv_rows(tmp_path / "figure1_d3_p3.csv")
        assert header == "lambda,numeric_mu,thm2,prop34,identity,converged"
        assert len(rows) == 2

        low = [float(x) for x in rows[0][:5]]
        assert low[0] == 0.5
        assert low[1] <= 0.5 + 1e-9
        assert math.isnan(low[2]) and math.isnan(low[3])
        assert rows[0][5] == "1"

        mid = [float(x) for x in rows[1][:5]]
        assert mid[0] == 1.5
        assert mid[3] < mid[2] <= mid[1] + 1e-12
        assert mid[1] <= 1.5 + 1e-9

        manifest = load_json(tmp_path / "figure1_d3_p3_manifest.json")
        assert manifest["parameters"]["seed"] == 1
        assert manifest["parameters"]["lambda_grid"] == [0.5, 1.5]
        assert set(manifest["parameters"]["columns"]) == {
            "lambda", "numeric_mu", "thm2", "prop34", "identity", "converged",
        }
        solver = manifest["diagnostics"]
        assert solver["lambda"] == [0.5, 1.5]
        assert solver["converged"] == [row[5] == "1" for row in rows]
        assert len(solver["iterations"]) == 2
        assert all(isinstance(n, int) and n > 0 for n in solver["iterations"])

    def test_reruns_are_byte_identical(self, tmp_path):
        args = (
            "figure1", "--d", "3", "--p", "3", "--lambda-grid", "1.5",
            "--n-nodes", "24", "--restarts", "2", "--seed", "9",
        )
        assert run_cli(*args, "--out-dir", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out-dir", str(tmp_path / "b")) == 0
        first = (tmp_path / "a" / "figure1_d3_p3.csv").read_bytes()
        second = (tmp_path / "b" / "figure1_d3_p3.csv").read_bytes()
        assert first == second

    def test_refine_inserts_midpoints(self, tmp_path):
        code = run_cli(
            "figure1", "--d", "3", "--p", "3",
            "--lambda-grid", "1.0", "2.0", "--refine",
            "--n-nodes", "24", "--restarts", "2", "--seed", "0",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        manifest = load_json(tmp_path / "figure1_d3_p3_manifest.json")
        assert manifest["parameters"]["lambda_grid"] == [1.0, 1.5, 2.0]
        _, rows = read_csv_rows(tmp_path / "figure1_d3_p3.csv")
        assert len(rows) == 3

    def test_default_grid_step_and_refinement(self):
        parser = cli.build_parser()
        args = parser.parse_args(["figure1"])
        grid = cli._figure1_grid(args)
        assert len(grid) == 20
        assert grid[0] == 0.25 and grid[-1] == 5.0
        assert abs(grid[1] - grid[0] - 0.25) < 1e-12

        refined = parser.parse_args(["figure1", "--refine"])
        grid = cli._figure1_grid(refined)
        assert len(grid) == 39
        assert abs(grid[1] - grid[0] - 0.125) < 1e-12

    def test_json_format(self, tmp_path):
        code = run_cli(
            "figure1", "--d", "3", "--p", "3", "--lambda-grid", "1.5",
            "--n-nodes", "24", "--restarts", "2", "--format", "json",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        payload = load_json(tmp_path / "figure1_d3_p3.json")
        # the CSV columns, in CSV order, after d and p
        assert list(payload) == [
            "d", "p", "lambda", "numeric_mu", "thm2", "prop34", "identity", "converged",
        ]
        assert payload["lambda"] == [1.5]
        assert payload["converged"] == [1]
        assert payload["thm2"][0] <= payload["numeric_mu"][0]
        assert not (tmp_path / "figure1_d3_p3.csv").exists()

    def test_manifest_lists_start_values(self, tmp_path):
        code = run_cli(
            "figure1", "--d", "3", "--p", "3", "--lambda-grid", "0.5", "1.5",
            "--n-nodes", "24", "--restarts", "2", "--format", "json",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        numeric = load_json(tmp_path / "figure1_d3_p3.json")["numeric_mu"]
        starts = load_json(tmp_path / "figure1_d3_p3_manifest.json")["diagnostics"]["start_values"]
        # the constant start, two mode-1 tilts and the two random restarts
        assert [len(values) for values in starts] == [5, 5]
        assert [min(values) for values in starts] == numeric

    def test_manifest_lists_solver_counters(self, tmp_path):
        code = run_cli(
            "figure1", "--d", "3", "--p", "3", "--lambda-grid", "0.5", "1.5",
            "--n-nodes", "24", "--restarts", "2", "--out-dir", str(tmp_path),
        )
        assert code == 0
        solver = load_json(tmp_path / "figure1_d3_p3_manifest.json")["diagnostics"]
        counters = {f.name for f in dataclasses.fields(BestConstantResult)} - {"value", "minimizer"}
        assert set(solver) == {"lambda", "workers"} | counters
        assert [len(iters) for iters in solver["start_iterations"]] == [5, 5]
        assert [sum(iters) for iters in solver["start_iterations"]] == solver["iterations"]
        assert solver["clipped_starts"] == [0, 0]
        assert solver["newton_steps"] == [[0] * 5, [0] * 5]
        assert len(solver["hessian_min"]) == 2 and all(h > 0.0 for h in solver["hessian_min"])
        assert solver["workers"] == len(os.sched_getaffinity(0))

    def test_large_lambda_rows_converge(self, tmp_path):
        # the rows of the default grid that L-BFGS alone left unconverged,
        # which the Newton finish completes
        code = run_cli(
            "figure1", "--d", "3", "--p", "3", "--lambda-grid", "4.5", "4.75", "5",
            "--restarts", "2", "--out-dir", str(tmp_path),
        )
        assert code == 0
        _, rows = read_csv_rows(tmp_path / "figure1_d3_p3.csv")
        assert [row[5] for row in rows] == ["1", "1", "1"]
        solver = load_json(tmp_path / "figure1_d3_p3_manifest.json")["diagnostics"]
        assert all(any(steps) for steps in solver["newton_steps"])
        assert all(0.0 < h < 1e-4 for h in solver["hessian_min"])

    def test_bad_grid_exits_2(self, tmp_path):
        assert run_cli(
            "figure1", "--lambda-grid", "-1.0", "--out-dir", str(tmp_path)
        ) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pool_workers_run_under_the_floating_point_policy(self, tmp_path, capfd, monkeypatch):
        # the descents run in two forked workers, which inherit the run's
        # np.errstate: a worker that warned would raise its RuntimeWarning
        # here, and one that printed it would write to fd 2
        monkeypatch.setattr("sphereineq.variational._worker_count", lambda: 2)
        argv = ["figure1", "--lambda-grid", "1e300", "--n-nodes", "8", "--restarts", "2"]
        assert run_cli(*argv, "--out-dir", str(tmp_path)) == 4
        err = capfd.readouterr().err
        assert err.startswith("did not converge: the solve at 1e+300 broke down: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestFigure2:
    def test_d3_band_annotations(self, tmp_path):
        assert run_cli("figure2", "--d", "3", "--out-dir", str(tmp_path)) == 0
        header, rows = read_csv_rows(tmp_path / "figure2_d3.csv")
        assert header == "p,m_minus,m_plus,note"
        assert len(rows) == 101

        table = {float(r[0]): r for r in rows}
        assert table[2.0][3] == "excluded"
        assert table[6.0][3] == "excluded"
        assert math.isnan(float(table[2.0][1]))
        assert table[2.25][3] == "single-half-line-right"
        for p, row in table.items():
            if row[3] == "excluded":
                continue
            assert float(row[1]) <= float(row[2]) + 1e-15

    def test_d2_band_switches_branch(self, tmp_path):
        assert run_cli(
            "figure2", "--d", "2", "--p-min", "14", "--p-max", "17", "--p-step", "0.5",
            "--out-dir", str(tmp_path),
        ) == 0
        _, rows = read_csv_rows(tmp_path / "figure2_d2.csv")
        notes = {float(r[0]): r[3] for r in rows}
        threshold = 9.0 + 4.0 * math.sqrt(3.0)
        for p, note in notes.items():
            expected = "interval" if p > threshold else "union-of-two-half-lines"
            assert note == expected, (p, note)

    def test_multiple_dimensions(self, tmp_path):
        assert run_cli(
            "figure2", "--d", "2", "3", "--p-min", "1", "--p-max", "4", "--p-step", "0.5",
            "--out-dir", str(tmp_path),
        ) == 0
        manifest = load_json(tmp_path / "figure2_manifest.json")
        assert sorted(manifest["outputs"]) == [
            str(tmp_path / "figure2_d2.csv"),
            str(tmp_path / "figure2_d3.csv"),
        ]
        assert manifest["parameters"]["grids"]["2"]["count"] == 7

    # the default grid ends at the critical exponent 2d/(d - 2); at these d
    # its 12-decimal rounding lands above it, at d = 5 below it
    @pytest.mark.parametrize("d, last", [
        (5, "3.333333333333"), (8, None), (9, None), (17, None), (26, None),
    ])
    def test_default_grid_ends_at_most_at_the_critical_exponent(self, d, last, tmp_path):
        assert run_cli("figure2", "--d", str(d), "--out-dir", str(tmp_path)) == 0
        _, rows = read_csv_rows(tmp_path / f"figure2_d{d}.csv")
        critical = 2.0 * d / (d - 2.0)
        assert all(float(r[0]) <= critical for r in rows)
        assert rows[-1][0] == (last or fmt_float(critical))

    def test_bad_step_exits_2(self, tmp_path):
        assert run_cli(
            "figure2", "--d", "3", "--p-step", "0", "--out-dir", str(tmp_path)
        ) == 2

    @pytest.mark.parametrize("grid", [
        ["--p-min", "nan"],
        ["--p-max", "nan"],
        ["--p-max", "inf"],
        ["--p-step", "1e-12"],  # 17e12 points for d = 1
        ["--d", "1", "--p-max", "100001", "--p-step", "1"],  # 100,001 points
        ["--d", "1", "4", "--p-max", "7"],  # above the critical exponent 4 of d = 4
    ])
    def test_bad_grid_exits_2_before_any_grid_is_built(self, grid, tmp_path, monkeypatch):
        def build(*args):
            raise AssertionError(f"a grid was built from {args}")

        monkeypatch.setattr(cli, "_step_grid", build)
        assert run_cli("figure2", *grid, "--out-dir", str(tmp_path)) == 2
        assert list(tmp_path.iterdir()) == []

    def test_largest_grid_is_accepted(self, tmp_path, monkeypatch):
        # 99,999 steps make 100,000 points, the most a grid may have
        monkeypatch.setattr(cli, "_figure2_rows", lambda d, p_grid: "")
        assert run_cli(
            "figure2", "--d", "1", "--p-max", "100000", "--p-step", "1", "--out-dir", str(tmp_path)
        ) == 0
        manifest = load_json(tmp_path / "figure2_manifest.json")
        assert manifest["parameters"]["grids"]["1"]["count"] == 100_000


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(1.0, 1e9),
    width=st.floats(1e-9, 1e9),
    steps=st.integers(1, 5000),
    jitter=st.floats(0.5, 1.5),
)
@example(lo=1.0, width=17.0, steps=340, jitter=1.0)  # figure2's default grid at d = 1, 2
@example(lo=0.25, width=4.75, steps=19, jitter=1.0)  # figure1's default grid
@example(lo=0.25, width=4.75, steps=38, jitter=1.0)  # and with --refine
@example(lo=1.0, width=0.01, steps=1, jitter=5.0)  # a single point
def test_step_grid_is_numpy_rounded_linspace_bit_for_bit(lo, width, steps, jitter):
    hi, step = lo + width, width / steps * jitter
    # within the point limit of figure2's validation
    assume(hi > lo and step > 0.0 and (hi - lo) / step < cli._MAX_GRID_POINTS - 0.5)
    expected = np.round(np.linspace(lo, hi, int(round((hi - lo) / step)) + 1), 12)
    assert np.array(cli._step_grid(lo, hi, step)).tobytes() == expected.tobytes()


def write_config(path, **overrides):
    spec = {
        "mode": "heat",
        "d": 3,
        "p": 3.0,
        "time_horizon": 0.05,
        "node_count": 24,
        "sample_count": 65,
        "initial": {"kind": "affine", "amplitude": 0.1},
    }
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return path


class TestFlow:
    def test_heat_run_writes_trace_report_manifest(self, tmp_path):
        config = write_config(tmp_path / "heat.json")
        assert run_cli("flow", str(config), "--out-dir", str(tmp_path)) == 0

        header, rows = read_csv_rows(tmp_path / "flow_heat_d3_p3_trace.csv")
        assert header == "t,e,i,mass,lyapunov,e_rate_residual"
        assert len(rows) == 65

        report = load_json(tmp_path / "flow_heat_d3_p3_report.json")
        assert report["certification"]["passed"] is True
        assert report["config"]["mode"] == "heat"

        manifest = load_json(tmp_path / "flow_heat_d3_p3_manifest.json")
        assert manifest["outputs"] == [
            str(tmp_path / "flow_heat_d3_p3_trace.csv"),
            str(tmp_path / "flow_heat_d3_p3_report.json"),
        ]
        assert manifest["tolerances"]["ode_tol"] == 1e-6
        assert manifest["diagnostics"] == {}

    def test_nonlinear_run(self, tmp_path):
        config = write_config(
            tmp_path / "nl.json",
            mode="nonlinear", p=5.0, beta=1.2, time_horizon=0.02,
            initial={"kind": "exponential", "amplitude": 0.3},
        )
        assert run_cli("flow", str(config), "--out-dir", str(tmp_path)) == 0
        report = load_json(tmp_path / "flow_nonlinear_d3_p5_b1.2_report.json")
        assert report["certification"]["passed"] is True
        assert list(report["stats"]) == [
            "mode", "admissible", "m", "accepted_steps", "rejected_steps", "final_dt",
        ]
        work = load_json(tmp_path / "flow_nonlinear_d3_p5_b1.2_manifest.json")["diagnostics"]
        assert work["accepted_steps"] == report["stats"]["accepted_steps"]
        assert work["rejected_steps"] == report["stats"]["rejected_steps"]
        assert work["positivity_halvings"] == 0
        attempts = work["accepted_steps"] + work["rejected_steps"]
        assert work["rhs_evaluations"] == 6 * attempts + 1

    def test_config_validation_errors(self, tmp_path, capsys):
        bad = [
            write_config(tmp_path / "c1.json", typo_key=1),
            write_config(tmp_path / "c2.json", mode="steady"),
            write_config(tmp_path / "c3.json", beta=1.2),
            write_config(tmp_path / "c4.json", initial={"kind": "mystery"}),
            write_config(tmp_path / "c5.json", mode="nonlinear", p=5.0),
            write_config(
                tmp_path / "c6.json", mode="nonlinear", p=3.0, beta=0.2,
                initial={"kind": "affine", "amplitude": 0.1},
            ),
            write_config(tmp_path / "c7.json", initial={"kind": "affine", "amplitude": -2.0}),
        ]
        # JSON values of the wrong type, which int()/float()/bool() used to
        # turn into silent changes (d = 3.7 ran at d = 3, "false" turned
        # the antipodal mode on)
        wrong_types = [
            {"d": 3.7}, {"d": 3.0}, {"d": True}, {"d": "3"}, {"p": "3"}, {"p": True},
            {"antipodal": "false"}, {"antipodal": 0}, {"mode": ["heat"]},
            {"node_count": 24.0}, {"sample_count": "65"}, {"time_horizon": None},
            {"initial": [0.1]},
            {"initial": {"kind": "even", "amplitude": "0.1"}},
            {"initial": {"kind": "even", "amplitude": False}},
            {"initial": {"kind": "coefficients", "coefficients": "1.0"}},
            {"initial": {"kind": "coefficients", "coefficients": [1.0, "0.1"]}},
            {"initial": {"kind": "coefficients", "coefficients": [1.0, True]}},
        ]
        for k, overrides in enumerate(wrong_types):
            bad.append(write_config(tmp_path / f"t{k}.json", **overrides))
        for config in bad:
            assert run_cli("flow", str(config), "--out-dir", str(tmp_path)) == 2, config
        assert not list(tmp_path.glob("flow_*"))

        # the step control and the positivity floor are fixed in flows: a
        # config that sets one exits 2 and names the key
        capsys.readouterr()
        for key in ("initial_dt", "safety", "max_dt", "rtol", "atol", "positivity_floor"):
            config = write_config(tmp_path / f"{key}.json", **{key: 1e-3})
            assert run_cli("flow", str(config), "--out-dir", str(tmp_path)) == 2
            assert f"unknown flow config keys: {key}" in capsys.readouterr().err

        (tmp_path / "broken.json").write_text("{not json")
        assert run_cli("flow", str(tmp_path / "broken.json"), "--out-dir", str(tmp_path)) == 2
        assert run_cli("flow", str(tmp_path / "absent.json"), "--out-dir", str(tmp_path)) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exits_2_and_writes_nothing(self, tol, tmp_path):
        config = write_config(tmp_path / "heat.json")
        out = tmp_path / "out"
        assert run_cli("flow", str(config), "--tol", tol, "--out-dir", str(out)) == 2
        assert list(out.iterdir()) == []

    def test_shipped_configs_parse(self, tmp_path):
        import pathlib

        for name in ("heat_d3_p3.json", "nonlinear_d3_p5_b1.2.json"):
            spec = cli._load_flow_spec(
                pathlib.Path(__file__).resolve().parents[1] / "configs" / name
            )
            assert spec["d"] == 3


class TestVerify:
    def test_gns_suite_passes(self, tmp_path, capsys):
        code = run_cli(
            "verify", "gns", "--d", "3", "--p", "3", "--n", "10", "--seed", "7",
            "--n-nodes", "24", "--out-dir", str(tmp_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] gns" in out and "[PASS] improved_gns" in out

        report = load_json(tmp_path / "verify_gns_d3_p3.json")
        assert report["passed"] is True
        assert {c["name"] for c in report["checks"]} == {"gns", "improved_gns"}
        assert all(c["worst_margin"] >= 0.0 for c in report["checks"])

    def test_gns_suite_at_p2_runs_the_improved_form(self, tmp_path, capsys):
        # improved_gns was left out at p = 2, where deficit takes phi's exponential branch
        argv = ["verify", "gns", "--d", "3", "--p", "2", "--n", "10", "--n-nodes", "24"]
        assert run_cli(*argv, "--out-dir", str(tmp_path)) == 0
        assert "[PASS] log_sobolev" in capsys.readouterr().out
        names = [c["name"] for c in load_json(tmp_path / "verify_gns_d3_p2.json")["checks"]]
        assert names == ["log_sobolev", "improved_gns"]

    def test_all_suites_at_d2_skip_antipodal(self, tmp_path):
        code = run_cli(
            "verify", "all", "--d", "2", "--p", "3", "--n", "4", "--seed", "3",
            "--n-nodes", "24", "--out-dir", str(tmp_path),
        )
        assert code == 0
        report = load_json(tmp_path / "verify_all_d2_p3.json")
        names = {c["name"] for c in report["checks"]}
        assert "weighted_gns" in names and "heat_flow_certification" in names
        assert [s["name"] for s in report["skipped"]] == ["antipodal"]

    def test_explicit_inapplicable_suite_exits_2(self, tmp_path):
        assert run_cli(
            "verify", "antipodal", "--d", "2", "--out-dir", str(tmp_path)
        ) == 2
        assert run_cli(
            "verify", "ckp", "--d", "3", "--p", "2", "--out-dir", str(tmp_path)
        ) == 2

    def test_ckp_at_p4_is_skipped(self, tmp_path, capsys):
        # at p = 4 the CKP kernel is s^2 with c_2 = 1: the bound is the gap
        reason = "the CKP bound equals the entropy gap identically at p = 4"
        assert run_cli("verify", "ckp", "--d", "2", "--p", "4", "--out-dir", str(tmp_path)) == 2
        assert reason in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_all_suites_at_p4_skip_ckp(self, tmp_path):
        code = run_cli(
            "verify", "all", "--d", "2", "--p", "4", "--n", "3", "--seed", "3",
            "--n-nodes", "24", "--out-dir", str(tmp_path),
        )
        assert code == 0
        report = load_json(tmp_path / "verify_all_d2_p4.json")
        assert {"name": "ckp", "reason": "the CKP bound equals the entropy gap identically at p = 4"} in report["skipped"]
        assert not any(c["name"].startswith("ckp") for c in report["checks"])

    def test_reruns_are_byte_identical(self, tmp_path):
        args = (
            "verify", "gns", "--d", "3", "--p", "3", "--n", "6", "--seed", "2",
            "--n-nodes", "24",
        )
        assert run_cli(*args, "--out-dir", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out-dir", str(tmp_path / "b")) == 0
        first = (tmp_path / "a" / "verify_gns_d3_p3.json").read_bytes()
        second = (tmp_path / "b" / "verify_gns_d3_p3.json").read_bytes()
        assert first == second

    def test_violation_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr("sphereineq.sphere_calculus.ckp_distance", lambda u, p: (1.0, 0.0))
        code = run_cli(
            "verify", "ckp", "--d", "3", "--p", "3", "--n", "3", "--n-nodes", "24",
            "--out-dir", str(tmp_path),
        )
        assert code == 3
        report = load_json(tmp_path / "verify_ckp_d3_p3.json")
        assert report["passed"] is False

    def test_overflowing_norms_exit_2_not_3(self, tmp_path, capsys):
        # |u|_2^2 overflows at d = 177: the nan margin read as a failed bound
        argv = ["verify", "ckp", "--d", "177", "--p", "2.0001933556760054", "--n", "1"]
        assert run_cli(*argv, "--out-dir", str(tmp_path)) == 2
        assert capsys.readouterr().err == (
            "error: verify: floating-point exception at these parameters: overflow encountered in power\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_scalar_names_the_command_and_the_overflow(self, tmp_path, capsys):
        # Python's OverflowError text was printed bare: "math range error"
        assert run_cli("constants", "--d", "10000", "--p", "1.9", "--out-dir", str(tmp_path)) == 2
        assert capsys.readouterr().err == (
            "error: constants: floating-point exception at these parameters: overflow\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_samples_exit_2_with_one_line(self, tmp_path, capfd):
        # |u|^p of a sampled u overflows at d = 10: weighted_gns failed with
        # worst_margin -inf after two numpy warnings
        assert run_cli("verify", "all", "--d", "10", "--p", "2.5", "--out-dir", str(tmp_path)) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: verify: floating-point exception") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_flow_margin_is_the_least_over_the_applied_criteria(self, tmp_path, capsys):
        # the rate and ODE residuals failed, while the reported mass margin was +1e-10
        argv = ["verify", "flow", "--d", "100", "--p", "1.999", "--n", "1"]
        assert run_cli(*argv, "--out-dir", str(tmp_path)) == 3
        assert "[FAIL] heat_flow_certification" in capsys.readouterr().out
        (check,) = load_json(tmp_path / "verify_flow_d100_p1.999.json")["checks"]
        assert check["passed"] is False and check["worst_margin"] < 0.0

    def test_missing_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("verify")
        assert excinfo.value.code == 2

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("verify", "bogus")
        assert excinfo.value.code == 2


def _edge_points() -> list[tuple[int, float]]:
    """(d, p) for d = 1..8 at 1, p_star, 2, 3, 2#, 2* and just above the last
    two, wherever make_parameter_point accepts p: 55 points."""
    points = []
    for d in range(1, 9):
        pp = make_parameter_point(d, 2.0)
        edges = (1.0, pp.p_star, 2.0, 3.0, pp.two_sharp, pp.two_sharp * (1.0 + 5e-15),
                 pp.two_star, pp.two_star * (1.0 + 5e-15))
        for p in dict.fromkeys(edges):
            try:
                make_parameter_point(d, p)
            except ValidationError:
                continue
            points.append((d, p))
    return points


class TestDomainEdges:
    @pytest.mark.parametrize("d, p", _edge_points())
    def test_constants_and_verify_all_exit_0(self, d, p, tmp_path):
        point = ["--d", str(d), "--p", repr(p), "--out-dir", str(tmp_path)]
        assert run_cli("constants", *point) == 0
        assert run_cli("verify", "all", *point, "--n", "2", "--n-nodes", "16") == 0

    def test_constants_leave_out_rows_outside_their_domain(self, tmp_path):
        assert run_cli("constants", "--d", "3", "--p", "1", "--out-dir", str(tmp_path)) == 0
        report = load_json(tmp_path / "constants_d3_p1.json")
        assert "antipodal_constant" not in report and "gns_constant" in report

    def test_verify_all_runs_stability_only_below_two_sharp(self, tmp_path):
        argv = ["verify", "all", "--d", "3", "--p", "4.75", "--n", "2", "--n-nodes", "16"]
        assert run_cli(*argv, "--out-dir", str(tmp_path)) == 0
        names = {c["name"] for c in load_json(tmp_path / "verify_all_d3_p4.75.json")["checks"]}
        assert "sharper_stability" in names and "stability" not in names

    def test_antipodal_suite_skips_with_the_library_reason(self, tmp_path, capsys):
        assert run_cli("verify", "antipodal", "--d", "3", "--p", "1", "--out-dir", str(tmp_path)) == 2
        assert ("suite 'antipodal' does not apply: antipodal_constant requires 1 < p <= 6.0"
                in capsys.readouterr().err)


class TestKLT:
    def test_both_modes_pass(self, tmp_path, capsys):
        code = run_cli(
            "klt", "--d", "3", "--q", "3", "--samples", "6", "--n-nodes", "24",
            "--seed", "5", "--out-dir", str(tmp_path),
        )
        assert code == 0
        report = load_json(tmp_path / "klt_d3_q3_both.json")
        assert [m["sign_mode"] for m in report["modes"]] == ["minus_V", "plus_V"]
        assert all(m["violation_count"] == 0 for m in report["modes"])
        assert all(m["min_margin"] > 0.0 for m in report["modes"])
        assert capsys.readouterr().out.count("  vacuous=0\n") == 2
        manifest = load_json(tmp_path / "klt_d3_q3_both_manifest.json")
        assert manifest["diagnostics"] == {"vacuous_count": {"minus_V": 0, "plus_V": 0}}

    def test_single_mode(self, tmp_path):
        code = run_cli(
            "klt", "--d", "3", "--q", "3", "--samples", "4", "--n-nodes", "24",
            "--mode", "minus_V", "--out-dir", str(tmp_path),
        )
        assert code == 0
        report = load_json(tmp_path / "klt_d3_q3_minus_V.json")
        assert len(report["modes"]) == 1

    @pytest.mark.parametrize("bad", [
        ["--samples", "0"], ["--samples", "-1"], ["--scale", "-1"], ["--scale", "nan"], ["--scale", "inf"],
        ["--tol", "nan"], ["--tol", "-1"], ["--tol", "inf"],
    ])
    def test_bad_samples_or_scale_exits_2(self, bad, tmp_path):
        assert run_cli("klt", "--n-nodes", "24", *bad, "--out-dir", str(tmp_path)) == 2
        assert list(tmp_path.iterdir()) == []

    def test_envelope_branch_exits_0(self, tmp_path, capsys):
        # q = 1.6 gives p = 16/3 above 2#, where the bound inverts the envelope
        # bound; at the default scale most potentials lie above its level, and
        # the samples that got no bound are counted
        code = run_cli(
            "klt", "--d", "3", "--q", "1.6", "--mode", "minus_V", "--samples", "50",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        report = load_json(tmp_path / "klt_d3_q1.6_minus_V.json")
        assert report["passed"]
        assert report["modes"][0]["violation_count"] == 0
        assert "vacuous_count" not in report["modes"][0]
        [line] = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[PASS] klt")]
        assert line.endswith("  vacuous=49")
        manifest = load_json(tmp_path / "klt_d3_q1.6_minus_V_manifest.json")
        assert manifest["diagnostics"] == {"vacuous_count": {"minus_V": 49}}

    @pytest.mark.parametrize("q", ["inf", "nan", "1e308"])
    def test_non_finite_q_exits_2(self, q, tmp_path, capsys):
        # 2q/(q - 1) is nan at inf and overflows to inf at 1e308
        assert run_cli("klt", "--q", q, "--out-dir", str(tmp_path)) == 2
        assert list(tmp_path.iterdir()) == []
        assert "exponent q must be finite" in capsys.readouterr().err

    def test_violation_exits_3(self, tmp_path, monkeypatch):
        fake = KLTReport(p=3.0, margins=(-1.0,), min_margin=-1.0, violation_count=1, vacuous_count=0)
        monkeypatch.setattr("sphereineq.variational.klt_validate", lambda *a, **k: fake)
        code = run_cli(
            "klt", "--d", "3", "--q", "3", "--samples", "1", "--mode", "minus_V",
            "--out-dir", str(tmp_path),
        )
        assert code == 3


MANIFEST_KEYS = [
    "command", "parameters", "tool_version", "tolerances", "outputs", "wall_clock_seconds", "diagnostics",
]

# one small run per subcommand: (argv, manifest stem)
SMALL_RUNS = {
    "constants": (["constants", "--d", "3", "--p", "3"], "constants_d3_p3"),
    "figure1": (
        ["figure1", "--lambda-grid", "1.5", "--n-nodes", "24", "--restarts", "2"], "figure1_d3_p3",
    ),
    "figure2": (["figure2", "--d", "2", "3", "--p-step", "0.5"], "figure2"),
    "flow": (["flow", str(ROOT / "configs" / "nonlinear_d3_p5_b1.2.json")], "flow_nonlinear_d3_p5_b1.2"),
    "verify": (["verify", "gns", "--n", "4", "--n-nodes", "24"], "verify_gns_d3_p3"),
    "klt": (["klt", "--samples", "3", "--n-nodes", "24"], "klt_d3_q3_both"),
}


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(3.0000001)
def test_file_tag_round_trips(x):
    # distinct values get distinct file names; the %g text stays where it is exact
    assert float(cli._tag(x).replace("m", "-")) == x
    assert [cli._tag(v) for v in (3.0, 5, 1.2, -0.5)] == ["3", "5", "1.2", "m0.5"]


def test_jsonable_spells_out_only_non_finite_floats():
    nested = ([{"nan": math.nan, "inf": math.inf, "-inf": -math.inf}],)
    assert cli._jsonable(nested) == [[{"nan": "nan", "inf": "inf", "-inf": "-inf"}]]
    assert cli._jsonable(np.float64("nan")) == "nan"
    for value in (0.1, -2.5e-300, 0, 7, True, False, "x", None):
        assert cli._jsonable(value) is value
    assert cli._dump_json((1, 2.5, ("a", math.inf))) == cli._dump_json([1, 2.5, ["a", math.inf]])


@pytest.mark.parametrize("command", list(SMALL_RUNS))
def test_manifest_lists_outputs_that_rerun_byte_identical(command, tmp_path, capsys):
    argv, stem = SMALL_RUNS[command]
    assert run_cli(*argv, "--out-dir", str(tmp_path / "a")) == 0
    manifest_path = tmp_path / "a" / f"{stem}_manifest.json"
    manifest = load_json(manifest_path)
    assert list(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command
    assert manifest["tool_version"] == __version__
    outputs = [Path(path) for path in manifest["outputs"]]
    assert outputs and all(path.is_file() for path in outputs)
    written = {path for path in (tmp_path / "a").iterdir() if path != manifest_path}
    assert written == set(outputs)
    wrote = f"wrote {', '.join(manifest['outputs'])} and {manifest_path}"
    assert capsys.readouterr().out.splitlines()[-1] == wrote

    assert run_cli(*argv, "--out-dir", str(tmp_path / "b")) == 0
    for path in outputs:
        assert (tmp_path / "b" / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("command", list(SMALL_RUNS))
def test_manifest_records_every_parsed_option(command, tmp_path):
    # each option under its own name, with the value the command derived from it, if any
    argv, stem = SMALL_RUNS[command]
    args = cli.build_parser().parse_args(argv)
    derived = args.func(args)[2].get("parameters", {})
    assert run_cli(*argv, "--out-dir", str(tmp_path)) == 0
    recorded = load_json(tmp_path / f"{stem}_manifest.json")["parameters"]
    for key, value in vars(args).items():
        if key not in ("func", "command", "out_dir"):
            assert recorded[key] == cli._jsonable(derived.get(key, value)), key


@pytest.mark.parametrize("command", list(SMALL_RUNS))
def test_commands_write_nothing_and_main_writes_their_files(command, tmp_path, monkeypatch):
    # a command returns its data files; _run alone writes them
    argv, stem = SMALL_RUNS[command]
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    args = cli.build_parser().parse_args([*argv, "--out-dir", str(out)])
    code, returned_stem, record = args.func(args)
    assert code == 0
    assert returned_stem == stem
    assert list(tmp_path.iterdir()) == []
    files = record["files"]
    assert files and all(isinstance(text, str) for text in files.values())

    assert run_cli(*argv, "--out-dir", str(out)) == 0
    manifest = load_json(out / f"{stem}_manifest.json")
    assert manifest["outputs"] == [str(out / name) for name in files]
    assert sorted(path.name for path in out.iterdir()) == sorted([*files, f"{stem}_manifest.json"])
    for name, text in files.items():
        assert (out / name).read_text() == text, name


class TestMainContract:
    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli()
        assert excinfo.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("--version")
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["figure1", "--lambda-grid", "1.5"], ["verify", "gns"], ["klt"],
    ])
    def test_negative_seed_exits_2_and_writes_nothing(self, argv, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv, "--seed", "-1", "--out-dir", str(tmp_path))
        assert excinfo.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_invariant_violation_maps_to_3(self, monkeypatch):
        from sphereineq.errors import InvariantViolation

        def raiser(args):
            raise InvariantViolation("boom")

        monkeypatch.setattr(cli, "cmd_constants", raiser)
        assert run_cli("constants", "--d", "3", "--p", "3") == 3

    def test_convergence_error_maps_to_4(self, monkeypatch):
        from sphereineq.errors import ConvergenceError

        def raiser(args):
            raise ConvergenceError("stuck")

        monkeypatch.setattr(cli, "cmd_constants", raiser)
        assert run_cli("constants", "--d", "3", "--p", "3") == 4

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(target))
        assert run_cli("constants", "--d", "2", "--p", "3") == 0
        assert (target / "constants_d2_p3.json").exists()

        override = tmp_path / "explicit"
        assert run_cli("constants", "--d", "2", "--p", "3", "--out-dir", str(override)) == 0
        assert (override / "constants_d2_p3.json").exists()

    def test_module_entry_point(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "sphereineq.cli", "--version"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert __version__ in result.stdout


# Command lines for the exit-code property: every subcommand, d up to 10^4,
# and numbers across and beyond their ranges (p within 1e-3 of 2 included,
# nan and +-inf too), each run kept small.  "{config}" stands for the path of
# the drawn flow config.
_DIMENSIONS = st.one_of(
    st.integers(1, 9), st.sampled_from([0, 100, 455, 1000, 10_000]), st.integers(-1, 10_000),
).map(str)


def _numbers(lo: float, hi: float):
    return st.one_of(
        st.floats(lo, hi), st.floats(1.999, 2.001), st.floats(-1.0, 4.0 * hi), st.floats(1e6, 1.7e308),
        st.sampled_from([math.nan, math.inf]),
    ).map(repr)


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(["constants", "figure1", "figure2", "flow", "verify", "klt"]))
    d, p = draw(_DIMENSIONS), draw(_numbers(1.0, 6.0))
    if command == "constants":
        beta = draw(st.lists(_numbers(-3.0, 6.0), max_size=1))
        return ["constants", "--d", d, "--p", p, *(["--beta", *beta] if beta else [])], None
    if command == "figure1":
        lam = draw(_numbers(0.0, 6.0))
        return ["figure1", "--d", d, "--p", p, "--lambda-grid", lam,
                "--n-nodes", "8", "--restarts", "0"], None
    if command == "figure2":
        grid = ["--p-min", draw(_numbers(0.5, 6.0)), "--p-step", draw(_numbers(0.05, 3.0))]
        return ["figure2", "--d", d, *grid], None
    if command == "verify":
        suite = draw(st.sampled_from(cli._SUITES))
        return ["verify", suite, "--d", d, "--p", p, "--n", draw(st.sampled_from(["1", "2"]))], None
    if command == "klt":
        mode = draw(st.sampled_from(["minus_V", "plus_V", "both"]))
        return ["klt", "--d", d, "--q", p, "--samples", "2", "--mode", mode,
                "--n-nodes", "16", "--scale", draw(_numbers(0.0, 2.0))], None
    mode = draw(st.sampled_from(["heat", "nonlinear"]))
    config = {
        "mode": mode, "d": int(d), "p": float(p), "time_horizon": 0.05,
        "node_count": 16, "sample_count": 65, "antipodal": draw(st.booleans()),
        "initial": {"kind": draw(st.sampled_from(["affine", "exponential", "even"])),
                    "amplitude": float(draw(_numbers(-1.0, 1.0)))},
    }
    if mode == "nonlinear":
        config["beta"] = float(draw(_numbers(-3.0, 6.0)))
    return ["flow", "{config}", "--tol", draw(_numbers(0.0, 1e-3))], config


@settings(max_examples=200, deadline=None)
@given(_command_lines(), st.booleans())
# an --out-dir under a regular file raised NotADirectoryError (exit 1)
@example((["constants", "--d", "3", "--p", "3"], None), True)
# log |S^d| of a surface that underflows to 0 raised a math domain error in c_dp
@example((["constants", "--d", "1000", "--p", "1.999"], None), False)
# and c_dp itself overflows a float
@example((["constants", "--d", "10000", "--p", "1.9"], None), False)
# sharper_stability's power overflowed near p = 2
@example((["verify", "euclidean", "--d", "3", "--p", "2.001", "--n", "2"], None), False)
# |u|_p^2 overflowed at d = 10^4
@example((["verify", "gns", "--d", "10000", "--p", "1.0", "--n", "2"], None), False)
# |u|_2^2 overflowed in ckp_distance, and the nan margin exited 3
@example((["verify", "ckp", "--d", "177", "--p", "2.0001933556760054", "--n", "1"], None), False)
# an overflowed quotient failed the Hessian's eigh, and an Lp mass underflowed
# to 0 under a negative power, in a best-constant descent
@example((["figure1", "--lambda-grid", "1e300", "--n-nodes", "8", "--restarts", "0"], None), False)
@example((["figure1", "--lambda-grid", "1.7e308", "--n-nodes", "8", "--restarts", "0"], None), False)
@example((["figure1", "--d", "1", "--p", "1e6", "--lambda-grid", "1",
           "--n-nodes", "8", "--restarts", "0"], None), False)
# and the Hessian's eigvalsh failed at the minimizer of a descent that ended
@example((["figure1", "--d", "1", "--p", "5.0", "--lambda-grid", "2.6094174004375856e+307",
           "--n-nodes", "8", "--restarts", "0"], None), False)
# a root of gamma(beta) rounded to 0, or (p - 1)^2 overflowed, in beta_roots
@example((["constants", "--d", "1", "--p", "1e20"], None), False)
@example((["constants", "--d", "1", "--p", "3.602879701896398e+16"], None), False)
@example((["constants", "--d", "1", "--p", "1e200"], None), False)
@example((["constants", "--d", "1", "--p", "1.3407807929942597e+154"], None), False)
@example((["constants", "--d", "2", "--p", "1e160"], None), False)
@example((["figure2", "--d", "1", "--p-max", "1e20", "--p-step", "1e17"], None), False)
# gamma(beta) overflowed in make_flow_setting
@example((["constants", "--d", "2", "--p", "5.363123171977039e+154", "--beta", "1.0"], None), False)
@example((["flow", "{config}", "--tol", "0.0"], {
    "mode": "nonlinear", "d": 2, "p": 5.363123171977039e154, "time_horizon": 0.05,
    "node_count": 16, "sample_count": 65, "antipodal": False,
    "initial": {"kind": "affine", "amplitude": 0.0}, "beta": 1.0}), False)
# beta^2 overflowed in the entropy-rate residual of an admissible nonlinear flow
@example((["flow", "{config}", "--tol", "0.0"], {
    "mode": "nonlinear", "d": 1, "p": 3.0, "time_horizon": 0.05, "node_count": 16,
    "sample_count": 65, "antipodal": False, "initial": {"kind": "affine", "amplitude": 0.0},
    "beta": 1.3407807929942597e154}), False)
# a potential scale of -0.0 passed its check, but numpy's normal rejected it
@example((["klt", "--d", "1", "--q", "2.0", "--samples", "2", "--mode", "minus_V",
           "--n-nodes", "16", "--scale", "-0.0"], None), False)
# |u|^p of a sampled u overflowed (at the default --n), and weighted_gns
# failed with worst_margin -inf
@example((["verify", "all", "--d", "10", "--p", "2.5"], None), False)
# the same breakdown as lambda = 1e300 above, in the descents of forked pool workers
@example((["figure1", "--lambda-grid", "1e300", "--n-nodes", "8", "--restarts", "2"], None), False)
# a numpy warning is a floating-point exception that the run did not trap
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_failure_exits_with_a_documented_code(run, out_under_file):
    argv, config = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if config is not None:
            (tmp / "config.json").write_text(json.dumps(config))
            argv = [str(tmp / "config.json") if a == "{config}" else a for a in argv]
        out = tmp / "out"
        if out_under_file:
            out.write_text("")
            out = out / "x"
        try:
            code = run_cli(*argv, "--out-dir", str(out))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        assert code in (0, 2, 3, 4), argv
        if code == 2 or out_under_file:
            assert not out.exists() or not any(out.iterdir()), argv


def test_flow_keys_are_make_flow_config_arguments():
    from inspect import signature

    from sphereineq.flows import make_flow_config

    read_by_cmd_flow = {"mode", "d", "p", "beta", "initial"}
    arguments = set(signature(make_flow_config).parameters) - {"setting"}
    assert set(cli._FLOW_KEYS) - read_by_cmd_flow == arguments


# Runs in a fresh interpreter: other tests load numpy and scipy.optimize into
# this one.  argv is a command line, "--import" and a module name, or
# nothing, which imports the cli alone.
_LAZY_IMPORT_PROBE = """
import importlib, json, sys
if sys.argv[1:2] == ["--import"]:
    importlib.import_module(sys.argv[2])
    code = 0
else:
    from sphereineq.cli import main
    code = main(sys.argv[1:]) if sys.argv[1:] else 0
kernels = sys.modules.get("sphereineq._scipy_kernels")
print(json.dumps([
    code,
    sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")),
    sorted(kernels._MODULES) if kernels else [],
]))
"""


def python_fresh(code: str, *argv: str) -> str:
    """Last line that `python -c code argv` prints, run with this package on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return result.stdout.strip().splitlines()[-1]


def load_bench_workloads():
    """bench/workloads.py as a module, without putting bench/ on sys.path."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_bench_cli_commands_match_reference(tmp_path):
    # the benchmark's cli oracle: every data file of its pinned commands,
    # each run in a fresh process, hashes to bench/reference.json
    workloads = load_bench_workloads()
    reference = workloads.load_reference()["cli"]
    src = str(ROOT / "src")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    assert set(workloads.CLI_COMMANDS) == set(reference)
    for name in workloads.CLI_COMMANDS:
        out_dir = tmp_path / name
        out_dir.mkdir()
        result = subprocess.run(
            workloads.cli_argv(name, out_dir, None), cwd=ROOT, env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, (name, result.stderr)
        assert workloads.data_file_hashes(out_dir) == reference[name]["files"], name


# Runs in a fresh interpreter: the multiprocessing modules loaded and the
# child processes alive once the command has run
_PROCESS_PROBE = """
import glob, json, sys
from sphereineq.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
children = [pid for path in glob.glob("/proc/self/task/*/children") for pid in open(path).read().split()]
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"), children]))
"""


def run_fresh(*argv: str):
    """(exit code, every numpy and scipy module in sys.modules, the scipy
    extension modules that sphereineq._scipy_kernels loaded from their files)
    for `main(argv)`, for `import module` with argv = ("--import", module),
    or for importing the cli alone with no argv, in a new process."""
    return tuple(json.loads(python_fresh(_LAZY_IMPORT_PROBE, *argv)))


# No numeric command imports a scipy package: importing scipy.special,
# scipy.linalg or scipy.optimize runs scipy's array-API layer, which loads
# numpy.f2py among others.  _ufuncs loads its sibling extensions, which stay.
_NEVER_LOADED = {"scipy.special", "scipy.linalg", "scipy.optimize", "scipy._lib._array_api", "numpy.f2py"}
_UFUNCS_SIBLINGS = [
    "scipy.special._ellip_harm_2", "scipy.special._gufuncs", "scipy.special._special_ufuncs",
    "scipy.special._ufuncs_cxx",
]
# what each case loads from its file, sorted: a rule needs the ufuncs and LAPACK,
# figure1 also L-BFGS-B; a case that loads none loads no numpy and no scipy
_RULES = ["linalg._flapack", "special._ufuncs"]
_IMPORT_GUARD_CASES = {
    "flow": (["flow", str(ROOT / "configs" / "heat_d3_p3.json")], _RULES),
    "verify_gns": (["verify", "gns", "--n", "4", "--n-nodes", "24"], _RULES),
    "klt": (["klt", "--samples", "3", "--n-nodes", "24"], _RULES),
    "klt_envelope": (["klt", "--d", "3", "--q", "1.6", "--mode", "minus_V", "--samples", "3", "--n-nodes", "24"], _RULES),
    "figure1": (
        ["figure1", "--lambda-grid", "1.5", "--n-nodes", "24", "--restarts", "1"],
        ["linalg._flapack", "optimize._lbfgsb", "special._ufuncs"],
    ),
    "import_bounds": (["--import", "sphereineq.bounds"], []),
}


def assert_loads_only(modules, extensions, expected):
    assert extensions == expected
    if not expected:
        assert modules == []
        return
    assert "numpy" in modules
    assert not _NEVER_LOADED & set(modules)
    in_packages = [m for m in modules if m.startswith(("scipy.special.", "scipy.linalg.", "scipy.optimize."))]
    assert in_packages == _UFUNCS_SIBLINGS


class TestLazyScipyImports:
    # "neither" once meant neither scipy.optimize nor scipy.linalg; these
    # imports and commands now load no numpy and no scipy module at all
    def test_package_import_loads_no_scipy(self):
        assert run_fresh("--import", "sphereineq") == (0, [], [])

    def test_import_loads_neither_optimize_nor_linalg(self):
        assert run_fresh() == (0, [], [])

    @pytest.mark.parametrize("argv", [
        ["constants", "--d", "3", "--p", "3"],
        ["figure2"],
        ["constants", "--d", "3", "--p", "5", "--beta", "1.2"],
    ])
    def test_light_commands_load_neither(self, argv, tmp_path):
        assert run_fresh(*argv, "--out-dir", str(tmp_path)) == (0, [], [])

    @pytest.mark.parametrize("case", list(_IMPORT_GUARD_CASES))
    def test_command_loads_only_what_it_runs(self, case, tmp_path):
        argv, expected = _IMPORT_GUARD_CASES[case]
        if argv[0] != "--import":
            argv = [*argv, "--out-dir", str(tmp_path)]
        code, modules, extensions = run_fresh(*argv)
        assert code == 0
        assert_loads_only(modules, extensions, expected)

    @pytest.mark.parametrize("argv", [
        [],
        ["constants", "--d", "3", "--p", "3"],
        ["figure2"],
    ])
    def test_light_commands_start_no_process(self, argv, tmp_path):
        if argv:
            argv = [*argv, "--out-dir", str(tmp_path)]
        assert json.loads(python_fresh(_PROCESS_PROBE, *argv)) == [0, [], []]

    def test_figure1_starts_its_workers(self, tmp_path):
        # one worker per CPU, at most one per task, runs the 4 descents, and
        # all have exited when main returns
        argv = ["figure1", "--lambda-grid", "1.5", "--n-nodes", "24", "--restarts", "1",
                "--out-dir", str(tmp_path)]
        code, modules, children = json.loads(python_fresh(_PROCESS_PROBE, *argv))
        assert code == 0
        assert children == []
        cpus = len(os.sched_getaffinity(0))
        workers = load_json(tmp_path / "figure1_d3_p3_manifest.json")["diagnostics"]["workers"]
        assert workers == min(cpus, 4)
        assert ("multiprocessing" in modules) == (cpus > 1)

    def test_verify_ckp_loads_no_optimize(self, tmp_path):
        # the quadrature rule loads the ufuncs and LAPACK from their files;
        # nothing on this path loads a scipy package, scipy.optimize included
        argv = ["verify", "ckp", "--d", "3", "--p", "3", "--n", "5", "--out-dir", str(tmp_path)]
        code, modules, extensions = run_fresh(*argv)
        assert code == 0
        assert_loads_only(modules, extensions, _RULES)

    def test_battery_cycle_skips_optimize(self, tmp_path):
        # one cycle of the benchmark's battery workload, whose envelope and
        # CKP checks used to load scipy.optimize
        probe = (
            "import sys; from pathlib import Path\n"
            f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
            "import workloads\n"
            f"cycle = workloads.SETUPS['battery'](1, Path({str(ROOT)!r}), Path({str(tmp_path)!r}), None)\n"
            "problems = [p for op in cycle(0) for p in op.check(op.run())]\n"
            "print(len(problems), 'scipy.optimize' in sys.modules)\n"
        )
        assert python_fresh(probe).split() == ["0", "False"]
