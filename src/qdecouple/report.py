"""Assembly of the three-row decouplability verdict table.

Column semantics:

  open_loop                [C~, H_SB] = 0 elementwise (Case I).
  closed_loop              Case II necessary conditions ([C, H_SB] = 0 and
                           [C~, H_SB] subset C~) plus pointwise controlled
                           invariance of Delta = span{K_I} against the
                           control fields, evaluated at seeded random
                           states.  The drift bracket is reported as a
                           separate diagnostic: the environment
                           self-energy escalates bath-quadrature
                           directions no finite control family contains.
                           Each state is checked once, drift included;
                           the closed-loop verdict is that check's
                           control part.
  closed_loop_restructured The same closed-loop rule applied to the
                           restructured system (bait row); rows without a
                           bait have nothing to restructure and inherit
                           the closed-loop verdict.

Each row, and the restructured column of the bait row, records
c_tilde_method: "sl(n) certificate" when C~ = sl(n, C) was certified
structurally, "closure" when it was closed numerically.  On a certified
C~ the containment [C~, H_SB] subset C~ holds by the trace argument (a
commutator is traceless) and is not tested; on a closed C~ it is.

A YES in the restructured column carries the finite-environment footnote:
the verdict relies on the bath-quadrature power reduction of the
truncated oscillator.
"""

from __future__ import annotations

import numpy as np

from .algebra import random_state
from .models import ControlSystem, ScenarioParams, build_restructured, build_scenario
from .observation import OperatorSpan, build_c_tilde, check_closed_loop_necessary, check_open_loop
from .tangent import check_controlled_invariance, minimal_interaction_distribution

FOOTNOTE = "decoupled under the finite-dimensional environment truncation"

TABLE_ROWS = ("single_qubit", "two_qubit", "bait")


def _verdict_str(ok: bool, starred: bool = False) -> str:
    if not ok:
        return "NO"
    return "YES*" if starred else "YES"


def _summary(oks: list[bool], witnesses: list[dict | None]) -> dict:
    """Verdict over the states; the witness is that of the first failing state."""
    witness = next((w for ok, w in zip(oks, witnesses) if not ok), None)
    return {"ok": all(oks), "stable": len(set(oks)) == 1, "per_state": oks, "witness": witness}


def controlled_invariance_at_states(sys: ControlSystem, n_states: int, seed: int, tol: float = 1e-9) -> dict:
    """Check the minimal distribution at seeded random states, once per state.

    Each check includes the drift.  Its verdict is the drift diagnostic
    ("drift"); its control part, details["controls_ok"], is the
    closed-loop condition ("closed_loop").
    """
    rng = np.random.default_rng(seed)
    checks = []
    for _ in range(n_states):
        xi = random_state(sys.space, rng)
        delta = minimal_interaction_distribution(sys, xi, tol=tol)
        checks.append(check_controlled_invariance(delta, sys, tol=tol))
    witnesses = [v.witness for v in checks]
    return {
        "closed_loop": _summary([v.details["controls_ok"] for v in checks], witnesses),
        "drift": _summary([v.ok for v in checks], witnesses),
    }


def closed_loop_verdict(sys: ControlSystem, invariance: dict, c_tilde: OperatorSpan, tol: float = 1e-9) -> dict:
    """Case II necessary conditions plus pointwise controlled invariance: ok, witness, stable.

    invariance is the "closed_loop" part of controlled_invariance_at_states,
    c_tilde is build_c_tilde(sys).
    """
    necessary = check_closed_loop_necessary(sys, c_tilde, tol=tol)
    if not necessary.ok:
        return {"ok": False, "witness": necessary.witness, "stable": True}
    return {key: invariance[key] for key in ("ok", "witness", "stable")}


def _closed_loop_column(
    sys: ControlSystem, tol: float, eval_states: int, seed: int, starred: bool = False
) -> tuple[OperatorSpan, dict, dict]:
    """C~ of sys, its closed-loop column (verdict, witness, stable) and the drift diagnostic."""
    c_tilde = build_c_tilde(sys, tol=tol)
    invariance = controlled_invariance_at_states(sys, eval_states, seed, tol=tol)
    closed = closed_loop_verdict(sys, invariance["closed_loop"], c_tilde, tol=tol)
    verdict = _verdict_str(closed["ok"], starred)
    return c_tilde, {"verdict": verdict, "witness": closed["witness"], "stable": closed["stable"]}, invariance["drift"]


def scenario_report(
    name: str,
    params: ScenarioParams,
    tol: float = 1e-9,
    eval_states: int = 5,
    seed: int = 0,
    max_power: int = 5,
) -> dict:
    """One table row: open/closed/restructured verdicts with witnesses."""
    sys = build_scenario(name, params, max_power)
    c_tilde, closed, drift = _closed_loop_column(sys, tol, eval_states, seed)
    open_v = check_open_loop(sys, c_tilde, tol=tol)
    row: dict = {
        "scenario": name,
        "dim": sys.space.total_dim,
        "c_tilde_dim": c_tilde.dim,
        "c_tilde_method": c_tilde.details["method"],
        "open_loop": {"verdict": _verdict_str(open_v.ok), "witness": open_v.witness},
        "closed_loop": closed,
        "drift_bracket_invariance": {"ok": drift["ok"], "witness": drift["witness"]},
    }
    if name == "bait":
        restructured = build_restructured(params, max_power)
        ct_r, closed_r, _ = _closed_loop_column(restructured, tol, eval_states, seed, starred=True)
        row["closed_loop_restructured"] = {
            **closed_r,
            "footnote": FOOTNOTE if closed_r["verdict"] != "NO" else None,
            "c_tilde_dim": ct_r.dim,
            "c_tilde_method": ct_r.details["method"],
            "n_controls": restructured.n_controls,
        }
    else:
        row["closed_loop_restructured"] = {
            "verdict": closed["verdict"],
            "witness": closed["witness"],
            "note": "no bait to restructure; column equals closed_loop",
        }
    return row


def decouplability_table(
    params: ScenarioParams,
    tol: float = 1e-9,
    eval_states: int = 5,
    seed: int = 0,
    max_power: int = 5,
) -> dict:
    rows = [
        scenario_report(name, params, tol=tol, eval_states=eval_states, seed=seed, max_power=max_power)
        for name in TABLE_ROWS
    ]
    return {"rows": rows, "footnote": f"* {FOOTNOTE} (N_env={params.n_env})"}


def format_table(report: dict) -> str:
    header = f"{'scenario':<22}{'open_loop':<12}{'closed_loop':<14}closed_loop_restructured"
    lines = [header, "-" * len(header)]
    starred = False
    for row in report["rows"]:
        r = row["closed_loop_restructured"]["verdict"]
        starred = starred or r.endswith("*")
        lines.append(
            f"{row['scenario']:<22}{row['open_loop']['verdict']:<12}"
            f"{row['closed_loop']['verdict']:<14}{r}"
        )
    if starred:
        lines.append("")
        lines.append(report["footnote"])
    return "\n".join(lines) + "\n"
