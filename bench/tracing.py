"""Span tracing of qdecouple's layers, installed from outside the package.

`Tracer` replaces each traced function by a wrapper at every place a
caller looks it up: every attribute of a `qdecouple` module that holds the
function (so `qdecouple.report.build_c_tilde` and
`qdecouple.cli.build_c_tilde` are both patched), or the class attribute for
methods.  A wrapper records a span (parent span, name, start, end, and a
small probe of its arguments and result) in memory; `layer_metrics`
derives calls, busy time and self time (duration minus the time covered by
child spans) from them.  `Operator` constructions are only counted.
Uninstalling restores every original.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (metric prefix, defining module, attribute path).  Every prefix yields
# <prefix>.calls, <prefix>.s (busy time) and <prefix>.self_s per op.
TRACED = (
    ("spans.add_batch", "qdecouple.spans", "RealSpan.add_batch"),
    ("spans.project_out", "qdecouple.spans", "RealSpan.project_out"),
    ("spans.residual", "qdecouple.spans", "RealSpan.residual"),
    ("spans.close_real_span", "qdecouple.spans", "close_real_span"),
    ("spans.realified_nullspace", "qdecouple.spans", "realified_nullspace"),
    ("observation.build_c_tilde", "qdecouple.observation", "build_c_tilde"),
    ("observation.check_open_loop", "qdecouple.observation", "check_open_loop"),
    ("observation.check_closed_loop_necessary", "qdecouple.observation", "check_closed_loop_necessary"),
    ("tangent.check_controlled_invariance", "qdecouple.tangent", "check_controlled_invariance"),
    ("tangent.minimal_interaction_distribution", "qdecouple.tangent", "minimal_interaction_distribution"),
    ("report.scenario_report", "qdecouple.report", "scenario_report"),
    ("algebra.lie_closure", "qdecouple.algebra", "lie_closure"),
    ("algebra.ad_map", "qdecouple.algebra", "ad_map"),
    ("algebra.commutator", "qdecouple.algebra", "commutator"),
    ("feedback.build_frame", "qdecouple.feedback", "build_frame"),
    ("feedback.synthesize", "qdecouple.feedback", "synthesize"),
    ("feedback.closed_loop_generator", "qdecouple.feedback", "closed_loop_generator"),
    ("feedback.CommutingFrame.pairwise_commutator_norms", "qdecouple.feedback",
     "CommutingFrame.pairwise_commutator_norms"),
    ("feedback.commutant_basis", "qdecouple.feedback", "commutant_basis"),
    ("simulate.propagate_closed_loop", "qdecouple.simulate", "propagate_closed_loop"),
    ("simulate.decoupling_pair", "qdecouple.simulate", "decoupling_pair"),
    ("simulate.hsb_generation_search", "qdecouple.simulate", "hsb_generation_search"),
    ("simulate.verify_commutator_chain", "qdecouple.simulate", "verify_commutator_chain"),
    ("models.build_scenario", "qdecouple.models", "build_scenario"),
    ("models.ControlSystem.generator", "qdecouple.models", "ControlSystem.generator"),
    ("cli.write_report", "qdecouple.cli", "write_report"),
)
COUNTED = (("algebra.Operator.constructed", "qdecouple.algebra", "Operator.__post_init__"),)

C_TILDE_SCENARIOS = ("single_qubit", "two_qubit", "bait", "restructured")
REPORT_ROWS = ("single_qubit", "two_qubit", "bait")


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# probe(args, kwargs, result) -> the extra a span keeps
PROBES = {
    # rows offered, rows kept, bytes of the basis afterwards
    "spans.add_batch": lambda a, k, r: (
        np.atleast_2d(a[1] if len(a) > 1 else k["rows"]).shape[0], r.shape[0], a[0].q.nbytes),
    "spans.close_real_span": lambda a, k, r: r[2],
    "observation.build_c_tilde": lambda a, k, r: (_first_arg(a, k, "sys").scenario, r.dim),
    "report.scenario_report": lambda a, k, r: _first_arg(a, k, "name"),
    "algebra.lie_closure": lambda a, k, r: len(r),
    "feedback.build_frame": lambda a, k, r: r.ok,
    "cli.write_report": lambda a, k, r: r.stat().st_size,
}


def _resolve(module: str, path: str):
    """(owner, attribute name, original) or None when the program has no such name."""
    owner = sys.modules.get(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def _lookup_sites(owner, attr, original) -> list[tuple[object, str]]:
    """Every place a caller finds `original`: the class, or each module holding it."""
    if isinstance(owner, type):
        return [(owner, attr)]
    sites = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qdecouple" or name.startswith("qdecouple.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, key))
    return sites


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        # span: [parent id, name, start, end, probe]; a span's id is its index
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def __enter__(self) -> "Tracer":
        for prefix, module, path in TRACED:
            self._install(prefix, module, path, self._span_wrapper)
        for name, module, path in COUNTED:
            self._install(name, module, path, self._count_wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _install(self, name, module, path, make_wrapper) -> None:
        found = _resolve(module, path)
        if found is None:
            self.absent.append(name)
            return
        owner, attr, original = found
        wrapper = make_wrapper(name, original)
        for site_owner, site_attr in _lookup_sites(owner, attr, original):
            self._saved.append((site_owner, site_attr, original))
            setattr(site_owner, site_attr, wrapper)

    def _span_wrapper(self, name, fn):
        spans, stack, clock, probe = self.spans, self._stack, time.perf_counter, PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [stack[-1] if stack else -1, name, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if probe is not None:
                span[4] = probe(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _percentile_us(durations: list[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1e6 if durations else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), of everything recorded since the last reset."""
    spans = tracer.spans
    covered = defaultdict(float)
    for parent, _, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    probes = defaultdict(list)
    for sid, (parent, name, start, end, probe) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        self_s[name] += dur - covered[sid]
        durations[name].append(dur)
        if probe is not None:
            probes[name].append(probe)
        # busy time counts only the outermost of nested spans of one name
        while parent >= 0 and spans[parent][1] != name:
            parent = spans[parent][0]
        if parent < 0:
            busy[name] += dur

    out: dict[str, tuple[float, str]] = {}
    for prefix, _, _ in TRACED:
        out[f"{prefix}.calls"] = (calls[prefix], "count")
        out[f"{prefix}.s"] = (busy[prefix], "s")
        out[f"{prefix}.self_s"] = (self_s[prefix], "s")

    batches = probes["spans.add_batch"]
    rows_in = sum(b[0] for b in batches)
    rows_kept = sum(b[1] for b in batches)
    out["spans.add_batch.rows_in"] = (rows_in, "count")
    out["spans.add_batch.rows_kept"] = (rows_kept, "count")
    out["spans.add_batch.rows_in_max"] = (max((b[0] for b in batches), default=0), "count")
    out["spans.add_batch.accept_ratio"] = (rows_kept / rows_in if rows_in else 0.0, "ratio")
    # computed from array sizes, not measured
    out["spans.basis_mb_max_computed"] = (max((b[2] for b in batches), default=0) / 1e6, "MB")
    out["spans.close_real_span.rounds"] = (sum(probes["spans.close_real_span"]), "count")

    dims = dict(probes["observation.build_c_tilde"])
    for scenario in C_TILDE_SCENARIOS:
        out[f"observation.c_tilde_dim.{scenario}"] = (dims.get(scenario, 0), "count")
    row_s = defaultdict(float)
    for _, name, start, end, probe in spans:
        if name == "report.scenario_report":
            row_s[probe] += end - start
    for scenario in REPORT_ROWS:
        out[f"report.scenario_report.{scenario}.s"] = (row_s[scenario], "s")

    out["algebra.lie_closure.dim"] = (max(probes["algebra.lie_closure"], default=0), "count")
    out["algebra.Operator.constructed"] = (tracer.counts["algebra.Operator.constructed"], "count")

    frames = probes["feedback.build_frame"]
    out["feedback.build_frame.ok_ratio"] = (sum(frames) / len(frames) if frames else 0.0, "ratio")
    for prefix in ("feedback.build_frame", "feedback.synthesize"):
        out[f"{prefix}.p50_us"] = (_percentile_us(durations[prefix], 50), "us")
        out[f"{prefix}.p99_us"] = (_percentile_us(durations[prefix], 99), "us")

    out["cli.write_report.bytes"] = (sum(probes["cli.write_report"]), "B")
    return out
