"""The three benchmark workloads, their inputs and their correctness gates.

Each workload builds its systems in `setup(seed)` and then repeats one op,
the unit of work a user waits for, through the public entry points
`qdecouple.cli.main` and `qdecouple.decoupling_pair`:

  verdict_table    `qdecouple check` with the default config: the paper's
                   three-row verdict table.  Realified span closure of the
                   bait C~ (1150 real dimensions, 16 rounds) dominates; the
                   feedback layer never runs.
  closed_loop_toy  `decoupling_pair(mode="literal", policy="abort")` on the
                   12-dimensional commutant toy: 2 x 1000 closed-loop steps,
                   each re-synthesizing the feedback law.  Spans appear only
                   as thousands of 24-dimensional RealSpans.
  algebra_reports  `rank --scenario bait`, `maneuver --chain`,
                   `synthesize-audit --scenario bait`: breadth-first Lie
                   closure, one-row span growth and commutant assembly.

Every op is checked against values the reproduction is known to produce and
against the bytes of the run's first op; any mismatch fails the op.

Which per-layer metric (tracing.py) should move which end-to-end metric:

  spans.add_batch.self_s (filter + SVD), spans.project_out.s
      op_wall_rel_p50 and op_cpu_rel_p50 on verdict_table and
      algebra_reports; on closed_loop_toy they are per-call overhead only
  spans.basis_mb_max_computed              peak_rss_mb on verdict_table
  observation.build_c_tilde.s, check_closed_loop_necessary.s,
  tangent.check_controlled_invariance.s, report.scenario_report.*.s
                                           op_wall_rel_p50 on verdict_table
  algebra.lie_closure.s, algebra.ad_map.s, feedback.commutant_basis.s,
  simulate.hsb_generation_search.s, simulate.verify_commutator_chain.s
                                           op_wall_rel_p50 on algebra_reports
  feedback.build_frame.s, feedback.synthesize.s,
  feedback.CommutingFrame.pairwise_commutator_norms.s,
  simulate.propagate_closed_loop.self_s    op_wall_rel_p50 on closed_loop_toy
  algebra.commutator.calls, algebra.Operator.constructed
                                           closed_loop_toy and algebra_reports
  models.build_scenario.s                  setup_s

So a faster span kernel or a structural C~ should move verdict_table and
algebra_reports and leave closed_loop_toy flat, and a precompiled feedback
plan should move closed_loop_toy and leave verdict_table flat.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

if not (SRC / "qdecouple" / "__init__.py").is_file():
    raise ImportError(f"qdecouple sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import qdecouple  # noqa: E402
import qdecouple.cli  # noqa: E402
from qdecouple.algebra import SIGMA_X, SIGMA_Y, SIGMA_Z, embed_product, field_quadrature  # noqa: E402

if not Path(qdecouple.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"qdecouple was imported from {qdecouple.__file__}, not from {SRC}")


class OpFailed(Exception):
    """An op ran but its outputs missed the correctness gate."""


def build_commutant_toy(g=0.15 + 0j, omega0=1.0, n_env=3) -> qdecouple.ControlSystem:
    """12-dimensional system whose controls all commute with the interaction.

    Two data qubits under collective dephasing; the controls are the
    dephasing direction itself, the DFS-internal swap, the z-difference and
    two environment drives, and the drift is a combination of controls, so
    literal commuting-frame synthesis decouples the output exactly.  Kept
    here rather than imported from the test suite so that the workload
    cannot change with the tests; a benchmark test checks that both agree.
    """
    space = qdecouple.HilbertSpace((("qubit1", 2), ("qubit2", 2), ("env", n_env)))
    fg = field_quadrature(g, n_env).matrix
    h_sb = embed_product(space, {"qubit1": SIGMA_Z, "env": fg}) + embed_product(
        space, {"qubit2": SIGMA_Z, "env": fg}
    )
    swap = 0.5 * (
        embed_product(space, {"qubit1": SIGMA_X, "qubit2": SIGMA_X})
        + embed_product(space, {"qubit1": SIGMA_Y, "qubit2": SIGMA_Y})
    )
    zdiff = embed_product(space, {"qubit1": SIGMA_Z}) - embed_product(space, {"qubit2": SIGMA_Z})
    envf = embed_product(space, {"env": fg})
    swapf = qdecouple.Operator(space, swap.matrix @ envf.matrix, "hermitian")
    controls = [h_sb, swap, zdiff, envf, swapf]
    drift = 0.4 * omega0 * swap + 0.25 * omega0 * zdiff
    c4 = np.zeros((4, 4), dtype=complex)
    c4[1, 2] = 1.0
    output = qdecouple.Operator(space, np.kron(c4, np.eye(n_env, dtype=complex)), "general")
    return qdecouple.ControlSystem(
        space,
        drift.skew(),
        [h.skew() for h in controls],
        h_sb.skew(),
        output,
        scenario="toy_commutant",
        control_labels=["B1", "B2", "B3", "B4", "B5"],
    )


def _cli(argv: list[str]) -> None:
    """Run one CLI command with its console output discarded; nonzero exit fails."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = qdecouple.cli.main(argv)
    if code != 0:
        raise OpFailed(f"`qdecouple {' '.join(argv)}` exited {code}: {err.getvalue().strip()}")


def _read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def _default_params() -> qdecouple.ScenarioParams:
    return qdecouple.cli.scenario_params(qdecouple.cli.load_config(None, {}))


@dataclass
class Workload:
    name: str
    op: str
    # calls per op that the workload's definition fixes, and functions that
    # must run at least once per op; the traced run fails an op that misses
    # either, so a wrapper that missed a call site cannot report zero
    expected_calls: dict[str, int]
    fires: tuple[str, ...]

    def setup(self, seed: int):
        raise NotImplementedError

    def run_op(self, state, out_dir: Path):
        """Run one op; return its outputs as bytes-comparable data."""
        raise NotImplementedError

    def check(self, outputs) -> None:
        """Raise OpFailed if the outputs miss the pinned values."""
        raise NotImplementedError


class VerdictTable(Workload):
    ROWS = {
        "single_qubit": ("NO", "NO", "NO"),
        "two_qubit": ("NO", "NO", "NO"),
        "bait": ("NO", "NO", "YES*"),
    }
    C_TILDE_DIMS = {"single_qubit": 6, "two_qubit": 18, "bait": 1150, "restructured": 286}

    def setup(self, seed):
        # the op builds its systems itself; set-up time counts building them once
        params = _default_params()
        systems = [qdecouple.build_scenario(n, params) for n in self.ROWS]
        systems.append(qdecouple.build_restructured(params))
        return {"seed": seed, "systems": systems}

    def run_op(self, state, out_dir):
        _cli(["check", "--seed", str(state["seed"]), "--out", str(out_dir)])
        return _read_outputs(out_dir)

    def check(self, outputs):
        report = json.loads(outputs["report.json"])
        rows = {row["scenario"]: row for row in report["rows"]}
        got = {
            name: (row["open_loop"]["verdict"], row["closed_loop"]["verdict"],
                   row["closed_loop_restructured"]["verdict"])
            for name, row in rows.items()
        }
        if got != self.ROWS:
            raise OpFailed(f"verdicts {got} != {self.ROWS}")
        dims = {name: row["c_tilde_dim"] for name, row in rows.items()}
        dims["restructured"] = rows["bait"]["closed_loop_restructured"]["c_tilde_dim"]
        if dims != self.C_TILDE_DIMS:
            raise OpFailed(f"C~ dimensions {dims} != {self.C_TILDE_DIMS}")
        if set(outputs) != {"report.json", "table.txt"}:
            raise OpFailed(f"unexpected outputs {sorted(outputs)}")


class ClosedLoopToy(Workload):
    # the two-segment schedule of acceptance criterion 9, stretched to a
    # horizon of 10: 1000 steps of dt 0.01 per trace
    SEGMENTS = ((5.0, (0.0, 1.0, 0.4, 0.0, 0.2)), (5.0, (0.0, -0.5, 0.2, 0.3, 0.0)))
    DT = 0.01
    SAMPLES = 1001
    MAX_DEVIATION = 1e-6

    def setup(self, seed):
        toy = build_commutant_toy()
        xi0 = qdecouple.random_state(toy.space, np.random.default_rng(seed))
        sched = qdecouple.PulseSchedule([(d, np.array(v)) for d, v in self.SEGMENTS])
        return {"system": toy, "xi0": xi0, "schedule": sched}

    def run_op(self, state, out_dir):
        trace_g, trace_0, dev = qdecouple.decoupling_pair(
            state["system"], state["schedule"], state["xi0"], dt=self.DT, mode="literal", policy="abort"
        )
        return {
            "samples": (len(trace_g.times), len(trace_0.times)),
            "deviation": dev,
            "y_g": trace_g.y_values.tobytes(),
            "y_0": trace_0.y_values.tobytes(),
        }

    def check(self, outputs):
        if outputs["samples"] != (self.SAMPLES, self.SAMPLES):
            raise OpFailed(f"samples per trace {outputs['samples']} != {self.SAMPLES}")
        if not outputs["deviation"] < self.MAX_DEVIATION:
            raise OpFailed(f"max |y_g - y_0| = {outputs['deviation']:.3e} >= {self.MAX_DEVIATION}")


class AlgebraReports(Workload):
    CONTROL_ALGEBRA_DIM = 189
    FIELD_RANKS = {"9": 100}
    HSB_CLOSURE_DIM = 169
    HSB_DEPTH = 7
    MAX_CHAIN_RESIDUAL = 1e-12

    def setup(self, seed):
        return {"seed": seed, "system": qdecouple.build_scenario("bait", _default_params())}

    def run_op(self, state, out_dir):
        seed = str(state["seed"])
        _cli(["rank", "--scenario", "bait", "--seed", seed, "--out", str(out_dir / "rank")])
        _cli(["maneuver", "--chain", "--seed", seed, "--out", str(out_dir / "maneuver")])
        _cli(["synthesize-audit", "--scenario", "bait", "--seed", seed, "--out", str(out_dir / "audit")])
        return _read_outputs(out_dir)

    def check(self, outputs):
        rank = json.loads(outputs["rank/report.json"])
        if rank.get("control_algebra_dim") != self.CONTROL_ALGEBRA_DIM:
            raise OpFailed(f"control_algebra_dim {rank.get('control_algebra_dim')} != {self.CONTROL_ALGEBRA_DIM}")
        if rank["control_field_rank_histogram"] != self.FIELD_RANKS:
            raise OpFailed(f"field rank histogram {rank['control_field_rank_histogram']} != {self.FIELD_RANKS}")
        frac = rank["interaction_membership_in_algebra"]["below_tol_fraction"]
        if frac != 1.0:
            raise OpFailed(f"K_I in the control algebra at a fraction of {frac}, not 1.0")
        maneuver = json.loads(outputs["maneuver/report.json"])
        hsb = maneuver["hsb_generation"]
        if (hsb["closure_dim"], hsb["membership_depth"]) != (self.HSB_CLOSURE_DIM, self.HSB_DEPTH):
            raise OpFailed(f"hsb closure_dim/depth {hsb['closure_dim']}/{hsb['membership_depth']} "
                           f"!= {self.HSB_CLOSURE_DIM}/{self.HSB_DEPTH}")
        worst = max(row["residual"] for row in maneuver["chain"].values())
        if not worst < self.MAX_CHAIN_RESIDUAL:
            raise OpFailed(f"commutator-chain residual {worst:.3e} >= {self.MAX_CHAIN_RESIDUAL}")
        if "audit/audit_synthesis.jsonl" not in outputs:
            raise OpFailed("synthesize-audit wrote no audit rows")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        VerdictTable(
            "verdict_table",
            op="qdecouple check (n_env=3, tol 1e-9, 5 eval states, --seed)",
            expected_calls={
                "report.scenario_report.calls": 3,
                "observation.build_c_tilde.calls": 4,
                "observation.check_open_loop.calls": 3,
                "observation.check_closed_loop_necessary.calls": 4,
                "models.build_scenario.calls": 3,
                "cli.write_report.calls": 1,
            },
            fires=("spans.add_batch", "spans.project_out", "spans.residual", "spans.close_real_span",
                   "tangent.check_controlled_invariance", "tangent.minimal_interaction_distribution",
                   "algebra.commutator", "algebra.Operator.constructed"),
        ),
        ClosedLoopToy(
            "closed_loop_toy",
            op="decoupling_pair(literal, abort) on the 12-dim commutant toy, 2 x 1000 steps, seeded xi0",
            expected_calls={
                "simulate.decoupling_pair.calls": 1,
                "simulate.propagate_closed_loop.calls": 2,
                "feedback.commutant_basis.calls": 1,
                "feedback.build_frame.calls": 2000,
                "feedback.synthesize.calls": 2000,
                "feedback.closed_loop_generator.calls": 2000,
                "feedback.CommutingFrame.pairwise_commutator_norms.calls": 2000,
            },
            fires=("spans.add_batch", "spans.project_out", "spans.residual", "spans.realified_nullspace",
                   "algebra.commutator", "algebra.Operator.constructed"),
        ),
        AlgebraReports(
            "algebra_reports",
            op="qdecouple rank --scenario bait; maneuver --chain; synthesize-audit --scenario bait (--seed)",
            expected_calls={
                "algebra.lie_closure.calls": 1,
                "simulate.hsb_generation_search.calls": 1,
                "simulate.verify_commutator_chain.calls": 1,
                "feedback.commutant_basis.calls": 1,
                "feedback.build_frame.calls": 5,
                "models.build_scenario.calls": 3,
                "cli.write_report.calls": 3,
            },
            fires=("spans.add_batch", "spans.project_out", "spans.residual", "spans.close_real_span",
                   "spans.realified_nullspace", "algebra.commutator", "algebra.Operator.constructed"),
        ),
    )
}

