"""Summary arithmetic: from worker records to metrics and report lines.

Nothing here imports the library or reads the clock, so every rule can be
checked on synthetic numbers: the percentile-omission rule, the self time of
a span, the failure fractions and the roll-up of spans into per-layer
metrics.
"""

from __future__ import annotations

import json
import math
import statistics

from probes import PROBED

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10

# Units of the reported metrics that BENCHMARK.json does not list; counts
# are the default.
EXTRA_UNITS = {"op_p90_ms": "ms", "op_p99_ms": "ms", "fail_frac": "fraction"}

# Span record layout, kept as plain lists so they serialize as JSON arrays.
NAME, START, END, PARENT, OP = range(5)


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples strictly beyond it."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def latency_summary(latencies_s: list[float]) -> dict:
    """Median, and p90/p99 only where MIN_TAIL_SAMPLES lie beyond them.

    Omitted percentiles are absent from the result, never zeroed; the sample
    count is always present.
    """
    ordered = sorted(latencies_s)
    out = {"samples": len(ordered), "op_p50_ms": 1e3 * statistics.median(ordered)}
    for pct in (90, 99):
        value, beyond = percentile(ordered, pct)
        out[f"samples_beyond_p{pct}"] = beyond
        if beyond >= MIN_TAIL_SAMPLES:
            out[f"op_p{pct}_ms"] = 1e3 * value
    return out


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            children[parent].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered_length(kids, span[START], span[END])
        for span, kids in zip(spans, children)
    ]


def per_name(spans: list[list]) -> dict[str, dict]:
    """Calls, total ms and self ms per span name."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["total_ms"] += 1e3 * (span[END] - span[START])
        entry["self_ms"] += 1e3 * own
    return out


def ops_per_s(run: dict) -> float:
    """Ops completed per second of op time (closed loop, one client)."""
    return len(run["latencies"]) / sum(run["latencies"])


def end_to_end(run: dict, setup_samples: list[float]) -> dict:
    """End-to-end metrics of one measured worker and the set-up samples.

    fail_frac counts every op that did not produce a right output, known
    seed-commit defects included; ok_frac is its complement.
    """
    attempted = len(run["latencies"])
    ok = run["outcomes"].get("ok", 0)
    return {
        "setup_s": statistics.median(setup_samples),
        "setup_samples": len(setup_samples),
        "ops_per_s": ops_per_s(run),
        **latency_summary(run["latencies"]),
        "ok_frac": ok / attempted,
        "fail_frac": (attempted - ok) / attempted,
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
    }


def tracing_overhead(plain: dict, traced: dict) -> dict:
    untraced, with_probes = ops_per_s(plain), ops_per_s(traced)
    return {
        "tracing.untraced_ops_per_s": untraced,
        "tracing.traced_ops_per_s": with_probes,
        "tracing.overhead_pct": 100.0 * (untraced - with_probes) / untraced,
    }


def per_layer(trace: dict, import_ms: dict) -> dict:
    """Per-layer metrics from a traced worker's spans and counts.

    Every probed function gets calls and self_ms, zero where the workload
    never calls it, so that all workloads report the same names.
    """
    names = per_name(trace["spans"])
    counts = trace["counts"]
    zero = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}

    def span(name: str) -> dict:
        return names.get(name, zero)

    out = {}
    for module, fn in PROBED:
        entry = span(f"{module}.{fn}")
        out[f"{module}.{fn}.calls"] = entry["calls"]
        out[f"{module}.{fn}.self_ms"] = entry["self_ms"]
    bounds = [entry for name, entry in names.items() if name.startswith("bounds.")]
    out["bounds.calls"] = sum(entry["calls"] for entry in bounds)
    out["bounds.self_ms"] = sum(entry["self_ms"] for entry in bounds)

    iterations = counts.get("best_constant.iterations", 0)
    starts = counts.get("best_constant.starts", 0)
    c_q_calls = span("sphere_calculus.c_q")["calls"]
    accepted = counts.get("flows.accepted_steps", 0)
    attempted_steps = accepted + counts.get("flows.rejected_steps", 0)
    out.update({
        "variational.best_constant.iterations": iterations,
        "variational.best_constant.us_per_iter":
            1e3 * span("variational.best_constant")["total_ms"] / iterations if iterations else 0.0,
        "variational.best_constant.starts": starts,
        "variational.best_constant.starts_at_best_frac":
            counts.get("best_constant.starts_at_best", 0) / starts if starts else 0.0,
        "variational.best_constant.unconverged": counts.get("best_constant.unconverged", 0),
        "sphere_calculus.make_rule.misses": counts.get("make_rule.misses", 0),
        "sphere_calculus.make_rule.build_ms": 1e3 * counts.get("make_rule.build_s", 0.0),
        "sphere_calculus.c_q.distinct_frac": len(trace["c_q_args"]) / c_q_calls if c_q_calls else 0.0,
        "flows.accepted_steps": accepted,
        "flows.rejected_frac": 1.0 - accepted / attempted_steps if attempted_steps else 0.0,
        "flows.us_per_step":
            1e3 * span("flows.run_nonlinear_flow")["total_ms"] / accepted if accepted else 0.0,
        "ioutils.atomic_write_text.bytes": counts.get("atomic_write_text.bytes", 0),
        "cli.import_ms": import_ms["sphereineq.cli"],
    })
    for module, ms in import_ms.items():
        out[f"cli.import.{module}_ms"] = ms
    return out


def parse_importtime(stderr: str) -> dict:
    """Cumulative microseconds per module from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, module = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():
            out[module.strip()] = float(cumulative)
    return out


def per_kind(run: dict) -> dict:
    """Op count, median latency and share of op time per op kind."""
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(run["kinds"], run["latencies"]):
        by_kind.setdefault(kind, []).append(latency)
    total = sum(run["latencies"])
    return {
        kind: {"ops": len(values), "median_ms": 1e3 * statistics.median(values),
               "time_share": sum(values) / total}
        for kind, values in by_kind.items()
    }


def describe(record: dict, units: dict) -> list[str]:
    """Human-readable lines for one benchmark record; units maps metric names to units."""
    m = record["metrics"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}",
        "machine " + json.dumps(record["machine"]),
        "env " + json.dumps(record["env"]),
    ]
    for worker in record["workers"]:
        lines.append(f"  {worker['mode']} worker: {worker['cycles']} cycles, outcomes {worker['outcomes']}")
        for what, count in worker["known"].items():
            lines.append(f"    known defect (seed commit) x{count}: {what}")
        for failure in worker["failures"]:
            lines.append(f"    FAILED op {failure['op']} {failure['kind']}: {failure['problems']}")
            if failure["detail"]:
                lines.append("      " + failure["detail"].replace("\n", "\n      "))
    for name in sorted(m):
        lines.append(f"  {name:<48} {m[name]!r} {units.get(name, 'count')}")
    for pct in (90, 99):
        if f"samples_beyond_p{pct}" in m and f"op_p{pct}_ms" not in m:
            lines.append(f"  op_p{pct}_ms omitted: fewer than {MIN_TAIL_SAMPLES} samples beyond it")
    for kind, entry in record["per_kind"].items():
        lines.append(f"  op {kind:<32} n={entry['ops']:<6} median {entry['median_ms']:.4g} ms  "
                     f"{100 * entry['time_share']:.1f}% of op time")
    return lines
