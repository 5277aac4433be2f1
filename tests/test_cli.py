"""End-to-end checks of the command line interface.

Each test drives ``cli.main`` with an explicit argv and a temporary output
directory, then inspects exit codes, written files, and manifests.  Grids and
sample counts are kept tiny so the whole module runs in seconds.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sphereineq.cli as cli
from sphereineq import __version__
from sphereineq.variational import KLTReport


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
        assert manifest["seed"] is None
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

    def test_invalid_parameters_exit_2(self, tmp_path):
        assert run_cli("constants", "--d", "0", "--p", "3", "--out-dir", str(tmp_path)) == 2
        assert run_cli("constants", "--d", "3", "--p", "99", "--out-dir", str(tmp_path)) == 2


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
        assert manifest["seed"] == 1
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
        assert payload["lambda"] == [1.5]
        assert payload["converged"] == [1]
        assert payload["thm2"][0] <= payload["numeric_mu"][0]
        assert not (tmp_path / "figure1_d3_p3.csv").exists()

    def test_bad_grid_exits_2(self, tmp_path):
        assert run_cli(
            "figure1", "--lambda-grid", "-1.0", "--out-dir", str(tmp_path)
        ) == 2


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

    def test_bad_step_exits_2(self, tmp_path):
        assert run_cli(
            "figure2", "--d", "3", "--p-step", "0", "--out-dir", str(tmp_path)
        ) == 2


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

    def test_config_validation_errors(self, tmp_path):
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
        for config in bad:
            assert run_cli("flow", str(config), "--out-dir", str(tmp_path)) == 2, config

        # json.loads accepts NaN; a NaN tolerance used to hang the step control
        nan_rtol = tmp_path / "nan_rtol.json"
        nan_rtol.write_text(write_config(tmp_path / "c8.json").read_text()[:-1] + ', "rtol": NaN}')
        assert run_cli("flow", str(nan_rtol), "--out-dir", str(tmp_path)) == 2
        zero_tol = write_config(tmp_path / "c9.json", rtol=0.0, atol=0.0)
        assert run_cli("flow", str(zero_tol), "--out-dir", str(tmp_path)) == 2

        (tmp_path / "broken.json").write_text("{not json")
        assert run_cli("flow", str(tmp_path / "broken.json"), "--out-dir", str(tmp_path)) == 2
        assert run_cli("flow", str(tmp_path / "absent.json"), "--out-dir", str(tmp_path)) == 2

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
        monkeypatch.setattr(cli, "ckp_distance", lambda u, p: (1.0, 0.0))
        code = run_cli(
            "verify", "ckp", "--d", "3", "--p", "3", "--n", "3", "--n-nodes", "24",
            "--out-dir", str(tmp_path),
        )
        assert code == 3
        report = load_json(tmp_path / "verify_ckp_d3_p3.json")
        assert report["passed"] is False

    def test_missing_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("verify")
        assert excinfo.value.code == 2

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("verify", "bogus")
        assert excinfo.value.code == 2


class TestKLT:
    def test_both_modes_pass(self, tmp_path):
        code = run_cli(
            "klt", "--d", "3", "--q", "3", "--samples", "6", "--n-nodes", "24",
            "--seed", "5", "--out-dir", str(tmp_path),
        )
        assert code == 0
        report = load_json(tmp_path / "klt_d3_q3_both.json")
        assert [m["sign_mode"] for m in report["modes"]] == ["minus_V", "plus_V"]
        assert all(m["violation_count"] == 0 for m in report["modes"])
        assert all(m["min_margin"] > 0.0 for m in report["modes"])

    def test_single_mode(self, tmp_path):
        code = run_cli(
            "klt", "--d", "3", "--q", "3", "--samples", "4", "--n-nodes", "24",
            "--mode", "minus_V", "--out-dir", str(tmp_path),
        )
        assert code == 0
        report = load_json(tmp_path / "klt_d3_q3_minus_V.json")
        assert len(report["modes"]) == 1

    def test_violation_exits_3(self, tmp_path, monkeypatch):
        fake = KLTReport(
            d=3, q=3.0, p=3.0, sign_mode="minus_V", n_samples=1,
            margins=(-1.0,), min_margin=-1.0, violation_count=1,
            tolerance=1e-8, seed=0,
        )
        monkeypatch.setattr(cli, "klt_validate", lambda *a, **k: fake)
        code = run_cli(
            "klt", "--d", "3", "--q", "3", "--samples", "1", "--mode", "minus_V",
            "--out-dir", str(tmp_path),
        )
        assert code == 3


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
        result = subprocess.run(
            [sys.executable, "-m", "sphereineq.cli", "--version"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert __version__ in result.stdout


# Runs in a fresh interpreter: other tests load scipy.optimize into this one.
_LAZY_IMPORT_PROBE = """
import json, sys
from sphereineq.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, [m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules]]))
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


def run_fresh(*argv: str):
    """(exit code, heavy scipy modules loaded) for `main(argv)` in a new process."""
    return tuple(json.loads(python_fresh(_LAZY_IMPORT_PROBE, *argv)))


class TestLazyScipyImports:
    def test_import_loads_neither_optimize_nor_linalg(self):
        assert run_fresh() == (0, [])

    @pytest.mark.parametrize("argv", [["constants", "--d", "3", "--p", "3"], ["figure2"]])
    def test_light_commands_load_neither(self, argv, tmp_path):
        assert run_fresh(*argv, "--out-dir", str(tmp_path)) == (0, [])

    def test_verify_ckp_loads_no_optimize(self, tmp_path):
        # scipy.linalg still comes in through scipy.special.roots_jacobi
        argv = ["verify", "ckp", "--d", "3", "--p", "3", "--n", "5", "--out-dir", str(tmp_path)]
        assert run_fresh(*argv) == (0, ["scipy.linalg"])

    def test_battery_cycle_skips_optimize(self, tmp_path):
        # one cycle of the benchmark's battery workload, whose envelope and
        # CKP checks used to load scipy.optimize
        root = Path(cli.__file__).resolve().parents[2]
        probe = (
            "import sys; from pathlib import Path\n"
            f"sys.path.insert(0, {str(root / 'bench')!r})\n"
            "import workloads\n"
            f"cycle = workloads.SETUPS['battery'](1, Path({str(root)!r}), Path({str(tmp_path)!r}), None)\n"
            "problems = [p for op in cycle(0) for p in op.check(op.run())]\n"
            "print(len(problems), 'scipy.optimize' in sys.modules)\n"
        )
        assert python_fresh(probe).split() == ["0", "False"]
