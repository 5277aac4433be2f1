"""Self-tests of the benchmark's own arithmetic and wiring.

    python3 -m pytest bench/test_bench.py

They are not part of the library's test suite: the last one runs the
benchmark itself, twice.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402
from worker import run_cycles  # noqa: E402
from workloads import Op  # noqa: E402


def test_tail_percentiles_need_ten_samples_beyond_them():
    assert report.MIN_TAIL_SAMPLES == 10
    short = report.latency_summary([i / 1000 for i in range(1, 100)])
    assert short["samples"] == 99
    assert short["samples_beyond_p90"] == 9
    assert "op_p90_ms" not in short and "op_p99_ms" not in short

    enough = report.latency_summary([i / 1000 for i in range(1, 101)])
    assert enough["samples_beyond_p90"] == 10
    assert enough["op_p90_ms"] == pytest.approx(90.0)
    assert "op_p99_ms" not in enough

    many = report.latency_summary([i / 1000 for i in range(1, 1001)])
    assert many["op_p99_ms"] == pytest.approx(990.0)
    assert many["op_p50_ms"] == pytest.approx(500.5)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 5.0, 0, 0],  # overlaps a: the union counts once
        ["c", 8.0, 12.0, 0, 0],  # runs past its parent: clipped to it
        ["grandchild", 1.5, 2.5, 1, 0],  # counts against a only
    ]
    assert report.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])
    named = report.per_name(spans + [["a", 20.0, 21.0, -1, 1]])
    assert named["a"]["calls"] == 2
    assert named["a"]["self_ms"] == pytest.approx(2000.0)
    assert named["a"]["total_ms"] == pytest.approx(3000.0)


def test_injected_failing_op_counts_in_fail_frac():
    def boom():
        raise RuntimeError("injected")

    ops = [
        Op("good", lambda: 1, lambda r: []),
        Op("raises", boom, lambda r: []),
        Op("wrong", lambda: 2, lambda r: ["mismatch"]),
        Op("known", lambda: 3, lambda r: ["unconverged"], frozenset({"unconverged"})),
    ]
    run = run_cycles(lambda k: ops, ops, started=0.0, seconds=0.0)
    assert run["outcomes"] == {"ok": 1, "failed": 2, "known": 1}
    assert [f["kind"] for f in run["failures"]] == ["raises", "wrong"]
    assert run["failures"][0]["problems"] == ["exception_RuntimeError"]
    assert "injected" in run["failures"][0]["detail"]
    metrics = report.end_to_end({**run, "peak_rss_kb": 1024}, [0.5, 0.3, 0.4])
    assert metrics["fail_frac"] == 0.75
    assert metrics["ok_frac"] == 0.25
    assert metrics["setup_s"] == 0.4


def test_probes_see_calls_through_module_bindings():
    script = (
        "import json, probes\n"
        "tracer = probes.Tracer(); probes.install(tracer)\n"
        "from sphereineq.exponents import make_parameter_point\n"
        "from sphereineq.sphere_calculus import AxiFunction, deficit, make_rule\n"
        "rule = make_rule(3, 16)\n"
        "deficit(AxiFunction(rule, values=1.0 + 0.1 * rule.nodes), 'gns', make_parameter_point(3, 3.0))\n"
        "print(json.dumps(tracer.dump()))\n"
    )
    env = {"PYTHONPATH": f"{HERE}:{ROOT / 'src'}", "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    trace = json.loads(out.stdout)
    names = [span[report.NAME] for span in trace["spans"]]
    assert "sphere_calculus.deficit" in names
    parents = {names[span[report.PARENT]] for span in trace["spans"]
               if span[report.NAME] == "sphere_calculus.dirichlet"}
    assert "sphere_calculus.deficit" in parents  # nested call, made inside sphere_calculus
    assert trace["counts"]["make_rule.misses"] == 1


def test_second_seed_stays_within_bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in (1, 2):
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "flows", "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
    for result in results:
        assert result["correct"] and result["failed"] == 0
    for metric in spec["end_to_end"]:
        a, b = (r["metrics"][metric["name"]]["value"] for r in results)
        assert abs(b - a) <= metric["bound"] * a, metric["name"]
