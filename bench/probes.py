"""Span recording around the library's public functions, from outside it.

install() replaces each probed function, in every loaded sphereineq module
that binds it, with a wrapper that records a span [name, start, end, parent,
op] in memory, so calls made through `from .x import f` bindings are seen
too.  A few probes also read counts off the call or its result (solver
iterations, flow steps, cache misses, bytes written); those land in
Tracer.counts.  Nothing is written until the caller asks for the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

MODULES = (
    "exponents", "bounds", "phi_functions", "sphere_calculus", "stereographic",
    "flows", "variational", "ioutils", "cli",
)

# (module, function) pairs whose spans feed the per-layer metrics.
PROBED = (
    ("variational", "best_constant"),
    ("variational", "principal_eigenvalue"),
    ("variational", "klt_validate"),
    ("sphere_calculus", "make_rule"),
    ("sphere_calculus", "deficit"),
    ("sphere_calculus", "dirichlet"),
    ("sphere_calculus", "lp_norm"),
    ("sphere_calculus", "entropy_fisher"),
    ("sphere_calculus", "ckp_distance"),
    ("sphere_calculus", "c_q"),
    ("stereographic", "push_forward"),
    ("stereographic", "euclidean_deficit"),
    ("phi_functions", "phi"),
    ("phi_functions", "phi_envelope"),
    ("phi_functions", "make_phi_beta_quadrature"),
    ("flows", "run_nonlinear_flow"),
    ("flows", "run_heat_flow"),
    ("flows", "certify_ode_chain"),
    ("exponents", "make_parameter_point"),
    ("exponents", "beta_roots"),
    ("ioutils", "atomic_write_text"),
    ("cli", "main"),
)

# Results within this relative distance of the best value count as reaching it.
_SAME_VALUE_RTOL = 1e-9


class Tracer:
    """In-memory span list plus named counts; one per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.c_q_args: set = set()
        self.op = -1
        self._stack: list[int] = []

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "c_q_args": sorted(self.c_q_args)}

    def merge(self, dumped: dict) -> None:
        """Add the spans and counts another process dumped, under the current op."""
        offset = len(self.spans)
        for name, start, end, parent, _ in dumped["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, self.op])
        self.counts.update(dumped["counts"])
        self.c_q_args.update(dumped["c_q_args"])

    def wrap(self, name: str, fn, after=None, before=None):
        """Wrapper recording a span.

        after(tracer, span, args, kwargs, result, token) adds counts, where
        token is what before() returned just ahead of the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before() if before is not None else None
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, span, args, kwargs, result, token)
            return result

        return traced


def _best_constant(tracer, span, args, kwargs, result, token):
    best = result.value
    tracer.counts["best_constant.iterations"] += result.iterations
    tracer.counts["best_constant.starts"] += len(result.start_values)
    tracer.counts["best_constant.starts_at_best"] += sum(
        abs(v - best) <= _SAME_VALUE_RTOL * (1.0 + abs(best)) for v in result.start_values
    )
    tracer.counts["best_constant.unconverged"] += not result.converged


def _nonlinear_flow(tracer, span, args, kwargs, result, token):
    tracer.counts["flows.accepted_steps"] += result.stats["accepted_steps"]
    tracer.counts["flows.rejected_steps"] += result.stats["rejected_steps"]


def _c_q(tracer, span, args, kwargs, result, token):
    tracer.c_q_args.add(repr((args, sorted(kwargs.items()))))


def _atomic_write(tracer, span, args, kwargs, result, token):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.counts["atomic_write_text.bytes"] += len(text.encode())


def _make_rule_miss(make_rule):
    def after(tracer, span, args, kwargs, result, misses_before):
        if make_rule.cache_info().misses > misses_before:
            tracer.counts["make_rule.misses"] += 1
            tracer.counts["make_rule.build_s"] += span[2] - span[1]

    return after


def _build_basis_hook(tracer, span, args, kwargs, result, token):
    # the spectral basis is built lazily on first use, outside make_rule
    tracer.counts["make_rule.build_s"] += span[2] - span[1]


def install(tracer: Tracer) -> None:
    """Import every library module and route the probed functions through tracer."""
    mods = {name: importlib.import_module(f"sphereineq.{name}") for name in MODULES}
    make_rule = mods["sphere_calculus"].make_rule
    after_hooks = {
        "best_constant": _best_constant,
        "run_nonlinear_flow": _nonlinear_flow,
        "c_q": _c_q,
        "atomic_write_text": _atomic_write,
        "make_rule": _make_rule_miss(make_rule),
    }
    before_hooks = {"make_rule": lambda: make_rule.cache_info().misses}
    targets = {}
    for mod, fn in PROBED:
        original = getattr(mods[mod], fn)
        targets[original] = tracer.wrap(
            f"{mod}.{fn}", original, after_hooks.get(fn), before_hooks.get(fn)
        )
    bounds = mods["bounds"]
    for name, fn in inspect.getmembers(bounds, inspect.isfunction):
        if fn.__module__ == bounds.__name__ and not name.startswith("_"):
            targets[fn] = tracer.wrap(f"bounds.{name}", fn)
    loaded = [m for key, m in sys.modules.items() if key == "sphereineq" or key.startswith("sphereineq.")]
    for module in loaded:
        for attr, value in list(vars(module).items()):
            wrapper = targets.get(value) if callable(value) else None
            if wrapper is not None:
                setattr(module, attr, wrapper)
    rule_cls = mods["sphere_calculus"].UltrasphericalRule
    rule_cls._build_basis = tracer.wrap(
        "sphere_calculus.make_rule.build_basis", rule_cls._build_basis, _build_basis_hook
    )
