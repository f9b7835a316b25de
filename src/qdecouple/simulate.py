"""Piecewise-constant-exact propagation, CBH maneuvers, and decoupling runs.

One loop, propagate_closed_loop, runs every mode; propagate is its open-loop
case.  Each schedule segment of duration dur is cut into
n = max(1, ceil(dur/dt)) equal steps of dur/n, so every step applies its own
segment's controls and a run ends at the schedule's total duration.  Per
step the total generator is constant, so propagation uses the exact
eigendecomposition of the hermitian i*A (no ODE truncation error); dt only
controls sampling density and, in closed loop, the feedback refresh
cadence.  Paired decoupling runs share the schedule, the initial state and
the control operators and differ only in whether the interaction generator
is present.  The CBH maneuvers take their exponentials from the same exact
eigendecomposition, one per generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .algebra import (
    DEFAULT_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Operator,
    StateVector,
    commutator,
    embed_product,
    field_quadrature,
    unitary_exponential,
    unitary_stepper,
)
from .feedback import (
    SYNTHESIS_MODES,
    FramePlan,
    FrameResult,
    RankDeficiencyError,
    build_frame,
    closed_loop_generator,
    synthesize,
)
from .models import ControlSystem, bath_basis_blocks
from .spans import Coordinates, RealSpan, _serial_blas, _svd, ad_images, row_norms, skew_hermitian_coordinates
from .tangent import bracket_linear_fields

# hsb_generation_search grows bracket words up to this length
_MAX_DEPTH = 8
# propagate_closed_loop's modes, and its policies on a rank-deficient frame
FEEDBACK_MODES = (*SYNTHESIS_MODES, "oracle_cancel", "open_loop")
RANK_POLICIES = ("abort", "open_loop")


class NormDriftError(RuntimeError):
    """State norm drifted beyond the accepted 1e-8 during propagation."""


@dataclass
class PulseSchedule:
    """Piecewise-constant control values: ordered (duration, values) segments."""

    segments: list[tuple[float, np.ndarray]]

    def __post_init__(self):
        cleaned = []
        for dur, vals in self.segments:
            dur, vals = float(dur), np.asarray(vals, dtype=float)
            if not (math.isfinite(dur) and dur > 0):
                raise ValueError(f"segment durations must be positive and finite, got {dur!r}")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"control values must be finite, got {vals.tolist()!r}")
            cleaned.append((dur, vals))
        if not cleaned:
            raise ValueError("a schedule needs at least one segment")
        self.segments = cleaned

    @staticmethod
    def constant(duration: float, values) -> "PulseSchedule":
        return PulseSchedule([(duration, np.asarray(values, dtype=float))])


@dataclass
class Trace:
    """Sampled coherence time series of one propagation run."""

    times: np.ndarray
    y_values: np.ndarray
    norm_drift: float
    final_state: StateVector
    norm_drifts: np.ndarray
    audit: list = field(default_factory=list)

    def abs_y(self) -> np.ndarray:
        return np.abs(self.y_values)


def propagate(
    sys: ControlSystem,
    sched: PulseSchedule,
    xi0: StateVector,
    dt_max: float = 1e-2,
    include_interaction: bool = True,
) -> Trace:
    """Propagate under piecewise-constant controls with exact segment exponentials."""
    return propagate_closed_loop(
        sys, sched, xi0, dt_max, mode="open_loop", include_interaction=include_interaction
    )


def propagate_closed_loop(
    sys: ControlSystem,
    v_sched: PulseSchedule,
    xi0: StateVector,
    dt: float = 1e-2,
    mode: str = "literal",
    policy: str = "abort",
    include_interaction: bool = True,
    collect_audit: bool = False,
    plan: FramePlan | None = None,
) -> Trace:
    """Propagate under u = alpha + beta v, re-synthesized at every step, or under v.

    Every segment of v_sched is cut into max(1, ceil(dur/dt)) equal steps of
    dur/n, so each step applies its own segment's v and the run ends at the
    schedule's total duration.  dt must be positive and finite (ValueError).

    mode:  'literal' / 'regularized' synthesize (alpha, beta) each step;
           'oracle_cancel' subtracts the interaction generator outright
           (test-only harness validation: requires knowing g), so it runs
           without the interaction whatever include_interaction says and
           its oracle deviation is 0 by construction;
           'open_loop' applies v directly (this is propagate).  These two
           hold the generator constant over a segment and take one
           exponential per segment.
    policy on frame rank-deficiency: 'abort' raises RankDeficiencyError,
           'open_loop' falls back to u = v for that step; every decision
           is recorded in the audit.
    plan:  the system's FramePlan, built here when not given; frames and
           laws are decided at the plan's tol.
    """
    if mode not in FEEDBACK_MODES:
        raise ValueError(f"unknown feedback mode {mode!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if policy not in RANK_POLICIES:
        raise ValueError(f"unknown rank-deficiency policy {policy!r}")
    if xi0.space != sys.space:
        raise ValueError("initial state lives on a different space")
    feedback = mode in SYNTHESIS_MODES
    if feedback and plan is None:
        plan = FramePlan.build(sys)
    xi = xi0.amplitudes.copy()
    nrm = np.linalg.norm(xi)                               # |xi| of the current state, once per step
    c_mat = sys.output_op.matrix
    times = [0.0]
    ys = [complex(np.vdot(xi, c_mat @ xi))]
    drifts = [abs(nrm - 1.0)]
    audit: list[dict] = []
    t = 0.0
    k = 0
    for dur, v in v_sched.segments:
        n_steps = max(1, math.ceil(dur / dt))
        h = dur / n_steps
        open_step = None                                   # u = v: one stepper for the segment's deficient steps
        if not feedback:
            # oracle_cancel adds the interaction and subtracts it: its net effect is its absence
            gen = sys.generator(v, include_interaction=include_interaction and mode == "open_loop")
            step = unitary_stepper(gen.matrix)
        for _ in range(n_steps):
            if collect_audit:
                audit.append({"step": k, "t": t, "action": mode})
            if feedback:
                state = StateVector(sys.space, xi / nrm)
                result: FrameResult = build_frame(sys, state, plan=plan)
                if result.ok:
                    law = synthesize(sys, result.frame, mode=mode, tol=plan.tol)
                    step = unitary_stepper(closed_loop_generator(sys, law, v, include_interaction).matrix)
                    if collect_audit:
                        audit[-1].update(action="synthesized", frame_rank=result.report["frame_rank"],
                                         cond_d=law.details["cond_d"], **law.audit_fields())
                else:
                    if policy == "abort":
                        raise RankDeficiencyError({**result.report, "step": k, "t": t, "scenario": sys.scenario})
                    if collect_audit:
                        audit[-1].update(action=f"deficient:{policy}", rank_report=result.report)
                    if open_step is None:
                        open_step = unitary_stepper(sys.generator(v, include_interaction=include_interaction).matrix)
                    step = open_step
            xi = step(xi, h)
            t += h
            nrm = math.sqrt(np.dot(xi.real, xi.real) + np.dot(xi.imag, xi.imag))  # np.linalg.norm's bits
            drift = abs(nrm - 1.0)
            if drift > 1e-8:
                raise NormDriftError(f"norm drift {drift:.3e} at t={t:.6f}")
            times.append(t)
            ys.append(complex(np.vdot(xi, c_mat @ xi)))
            drifts.append(drift)
            k += 1
    return Trace(
        times=np.array(times),
        y_values=np.array(ys),
        norm_drift=float(max(drifts)),
        final_state=StateVector(sys.space, xi / nrm),
        norm_drifts=np.array(drifts),
        audit=audit,
    )


def decoupling_pair(
    sys: ControlSystem,
    v_sched: PulseSchedule,
    xi0: StateVector,
    dt: float = 1e-2,
    mode: str = "literal",
    policy: str = "abort",
    collect_audit: bool = False,
    tol: float = DEFAULT_TOL,
) -> tuple[Trace, Trace, float]:
    """Run the coupled and uncoupled closed loops and report max |y_g - y_0|.

    Both runs use the same feedback function (synthesized from the nominal
    interaction structure, with frames and laws decided at tol); only the
    plant's interaction term differs.  Both runs meet a rank-deficient
    frame under the same policy, 'abort' or 'open_loop' (see
    propagate_closed_loop).  In 'oracle_cancel' mode the loop drops the
    interaction from both runs, so the pair is one run returned twice and
    the deviation is 0 by construction.
    """
    plan = FramePlan.build(sys, tol=tol) if mode in SYNTHESIS_MODES else None
    trace_g = propagate_closed_loop(
        sys, v_sched, xi0, dt, mode=mode, policy=policy, include_interaction=True,
        collect_audit=collect_audit, plan=plan,
    )
    if mode == "oracle_cancel":
        return trace_g, trace_g, 0.0
    trace_0 = propagate_closed_loop(
        sys, v_sched, xi0, dt, mode=mode, policy=policy, include_interaction=False,
        collect_audit=collect_audit, plan=plan,
    )
    dev = float(np.abs(trace_g.y_values - trace_0.y_values).max())
    return trace_g, trace_0, dev


def maneuver_schedule(n_controls: int, i: int, j: int, t: float) -> PulseSchedule:
    """Four-segment commutator maneuver (+i, +j, -i, -j), each of duration t."""
    if t <= 0:
        raise ValueError("segment duration must be positive")
    for idx in (i, j):
        if not 0 <= idx < n_controls:
            raise ValueError(f"control index {idx} out of range")
    def pulse(idx, sign):
        v = np.zeros(n_controls)
        v[idx] = sign
        return v
    return PulseSchedule(
        [(t, pulse(i, 1.0)), (t, pulse(j, 1.0)), (t, pulse(i, -1.0)), (t, pulse(j, -1.0))]
    )


@dataclass
class CbhReport:
    t_list: list[float]
    residuals: list[float]
    slope: float | None
    exact: bool


def _maneuver_unitaries(a: Operator, b: Operator, t_list: list[float]) -> list[np.ndarray]:
    """U(4t) at each t, from one eigh per generator: an inverse leg is its forward leg's adjoint."""
    exp_a, exp_b = unitary_exponential(a.matrix), unitary_exponential(b.matrix)
    legs = [(exp_a(t), exp_b(t)) for t in t_list]
    # schedule (+a, +b, -a, -b); first segment acts first (rightmost factor)
    return [ub.conj().T @ ua.conj().T @ ub @ ua for ua, ub in legs]


def cbh_order_check(a: Operator, b: Operator, t_list: list[float]) -> CbhReport:
    """Fit the remainder order of the commutator maneuver against exp([.,.] t^2).

    The four-segment maneuver satisfies U(4t) = exp((BA - AB) t^2 + O(t^3)),
    so || U(4t) - exp(bracket t^2) || should scale like t^3: a least-squares
    log-log slope >= 2.7 certifies the cubic remainder.  Commuting pairs
    give residuals at machine precision and are reported exact.
    """
    if len(t_list) < 4 or any(t <= 0 for t in t_list) or len(set(t_list)) < 2:
        raise ValueError("a slope fit needs at least 4 positive segment durations, not all equal")
    exp_k = unitary_exponential(bracket_linear_fields(a, b).matrix)
    residuals = [float(np.linalg.norm(u - exp_k(t * t))) for t, u in zip(t_list, _maneuver_unitaries(a, b, t_list))]
    if max(residuals) < 1e-12:
        return CbhReport(list(t_list), residuals, None, exact=True)
    x = np.log(np.asarray(t_list, dtype=float))
    y = np.log(np.maximum(residuals, 1e-300))
    x -= x.mean()
    slope = float(x @ (y - y.mean()) / (x @ x))
    return CbhReport(list(t_list), residuals, slope, exact=False)


def effective_direction_overlap(a: Operator, b: Operator, target: Operator, t: float) -> float:
    """|<logm(U(4t))/t^2, target>| / norms: alignment of the maneuver direction."""
    (u,) = _maneuver_unitaries(a, b, [t])
    gen = scipy.linalg.logm(u) / (t * t)
    num = abs(np.vdot(gen, target.matrix))
    den = np.linalg.norm(gen) * target.norm()
    return float(num / den) if den > 0 else 0.0


def bait_identity_deviation(sys: ControlSystem, op: Operator) -> float:
    """Frobenius distance of op from (its bait-partial-trace) (x) I_bait; ValueError without a bait factor."""
    bpos = sys.space.labels.index("bait")
    dims = [d for _, d in sys.space.factors]
    left, db, right = math.prod(dims[:bpos]), dims[bpos], math.prod(dims[bpos + 1:])
    traced = np.einsum("ibjkbl->ijkl", op.matrix.reshape(left, db, right, left, db, right)) / db
    rebuilt = np.einsum("ijkl,bc->ibjkcl", traced, np.eye(db)).reshape(op.matrix.shape)
    return float(np.linalg.norm(op.matrix - rebuilt))


def _fit_direction(result: np.ndarray, target: np.ndarray) -> tuple[float, float | None]:
    """Real least-squares scale c and relative residual of result vs c*target, two n x n matrices.

    A zero target (a coupling parameter set to 0) or result (a vanished bracket) has no residual: None.
    """
    tnorm2 = float(np.linalg.norm(target)) ** 2
    if tnorm2 == 0:
        return 0.0, None
    c = float(np.vdot(target, result).real / tnorm2)
    rnorm = float(np.linalg.norm(result))
    if rnorm == 0:
        return 0.0, None
    resid = np.linalg.norm(result - c * target) / rnorm
    return c, float(resid)


def verify_commutator_chain(sys: ControlSystem) -> dict:
    """Check the bait-mediated commutator-chain identities by direct matrices.

    Returns one entry per identity with the fitted real proportionality
    constant, the relative residual, and (for the qubit-environment
    couplings) the deviation of the result from acting as identity on the
    bait factor.  Mismatches are report content, not errors.
    """
    if "bait" not in sys.space.labels:
        raise ValueError("commutator-chain report needs the bait system")
    p = sys.params
    f_w = field_quadrature(p.w, p.n_env).matrix
    a = {k + 1: sys.controls[k] for k in range(9)}

    # c1q1 is c1 with qubit 1's Ising coupling H_7 for qubit 2's H_8
    c1 = commutator(commutator(a[8], a[5]), commutator(a[6], a[9]))
    c1q1 = commutator(commutator(a[7], a[5]), commutator(a[6], a[9]))
    c2 = commutator(a[4], a[8])
    # (key, bracket, target blocks, target label, report the bait-identity deviation)
    chain = [
        ("comm1", c1, {"qubit2": SIGMA_Z, "bait": SIGMA_Z, "env": f_w}, "sz2 szb F", False),
        ("comm2", c2, {"qubit2": SIGMA_X, "bait": SIGMA_Z}, "sx2 szb", False),
        ("comm3", commutator(c2, c1), {"qubit2": SIGMA_Y, "env": f_w}, "sy2 Ib F", True),
        ("comm4", commutator(commutator(a[3], a[8]), c1), {"qubit2": SIGMA_X, "env": f_w}, "sx2 Ib F", True),
        ("comm5", commutator(commutator(a[2], a[7]), c1q1), {"qubit1": SIGMA_Y, "env": f_w}, "sy1 Ib F", True),
        ("comm6", commutator(commutator(a[1], a[7]), c1q1), {"qubit1": SIGMA_X, "env": f_w}, "sx1 Ib F", True),
    ]
    report = {}
    for key, bracket, blocks, label, on_bait in chain:
        c_, r_ = _fit_direction(bracket.matrix, embed_product(sys.space, blocks).skew().matrix)
        report[key] = {"c": c_, "residual": r_, "target": label}
        if on_bait:
            report[key]["bait_identity_deviation"] = bait_identity_deviation(sys, bracket)
    return report


def _keep_new_words(
    span: RealSpan, coords: Coordinates, mats: np.ndarray, names: list[str], tol: float
) -> tuple[np.ndarray, list[str], np.ndarray]:
    """The words of a (B, n, n) or (B, b, q, q) stack, in order, that add a direction to span; one add_in_order call.

    A word of norm below tol is skipped; the others are scaled to unit norm
    first.  The norms are row_norms of the words' real view.  Returns the
    kept unit words, their labels and their codes.
    """
    norms = row_norms(mats.reshape(len(mats), -1).view(float))
    live = np.flatnonzero(norms >= tol)
    units = mats[live] * (1.0 / norms[live]).reshape(-1, *[1] * (mats.ndim - 1))
    codes = coords.encode(units.reshape(len(units), -1))
    kept = span.add_in_order(codes)
    return units[kept], [names[live[i]] for i in kept], codes[kept]


def _bracket_words(
    controls: np.ndarray, labels: list[str], target_code: np.ndarray, tol: float
) -> tuple[list[str], np.ndarray, int | None]:
    """hsb_generation_search's phase 2: the kept bracket words, their codes and the membership depth.

    controls is a (k, n, n) stack, or a block-diagonal (k, b, q, q) stack
    held as its diagonal blocks.  Words of one length are selected
    together: the left-normed brackets [W, H_c] of the previous length's
    kept words W with every control, word-major, go to one
    RealSpan.add_in_order call in skew_hermitian_coordinates (n^2, or
    b q^2, reals per word), which keeps the words one add at a time would
    keep, in that order (the order fixes which words are kept).
    target_code is the unit target in those coordinates.  Returns the
    labels of every kept word, their (W, n^2) or (W, b q^2) codes and the
    length at which the target entered their span (None when a length
    added no word or the words reached _MAX_DEPTH first).
    """
    shape = controls.shape[1:]
    coords = skew_hermitian_coordinates(shape[-1], math.prod(shape[:-2]))
    span = RealSpan(math.prod(shape), tol=tol)
    frontier, names, codes = _keep_new_words(span, coords, controls, labels, tol)
    kept_names, kept_codes = list(names), [codes]
    for depth in range(2, _MAX_DEPTH + 1):
        candidates = ad_images(frontier, controls)          # [W, H_c] word-major, the words as generators
        frontier, names, codes = _keep_new_words(
            span, coords, candidates, [f"[{w},{c}]" for w in names for c in labels], tol
        )
        kept_names += names
        kept_codes.append(codes)
        if span.residual(target_code) < tol:
            return kept_names, np.vstack(kept_codes), depth
        if not names:
            break
    return kept_names, np.vstack(kept_codes), None


@_serial_blas()
def hsb_generation_search(sys: ControlSystem, tol: float = 1e-9) -> dict:
    """Search bracket words of the bait controls for the interaction generator.

    Phase 1 tries every triple [[H_a, H_b], H_c] for direct proportionality
    to A_SB (the literal claim); best_triple is the triple of largest
    overlap with A_SB, named only when that overlap exceeds tol (else
    triple None, overlap 0.0).  Phase 2 grows left-normed bracket words
    [[...[H_a, H_b], ...], H_c] with provenance, one word length at a time
    (_bracket_words), until A_SB enters their real span, a word length adds
    no direction or the words reach length _MAX_DEPTH, and records the
    witness words with their coefficients, a least-squares fit of A_SB by
    the kept words in skew_hermitian_coordinates: the at most 8 largest
    above 1e-6 in magnitude, listed in the order the words were kept, so
    coefficients equal up to roundoff do not reorder them.

    When the controls and A_SB are all block-diagonal in the bath basis
    I_q (x) V (models.bath_basis_blocks: every scenario when w is a real
    multiple of g), both phases and the fit run on their (n_env, q, q)
    diagonal blocks: the change of basis is unitary, so it keeps every
    bracket, norm and inner product, and a word costs n_env q^2 reals, not
    n^2.  Otherwise (no params, or a w out of phase with g) they run on the
    dense n x n matrices.  The whole search runs at one BLAS thread (spans module
    docstring).  Raises ValueError when the interaction generator vanishes
    (g = 0): there is no direction to search for.
    """
    controls = sys.control_stack
    labels = sys.control_labels
    k = len(controls)
    target = sys.interaction.matrix
    if np.linalg.norm(target) <= sys.interaction_floor(tol):
        raise ValueError("the interaction generator vanishes: there is nothing to search for")
    rotated = None
    if sys.params is not None:
        rotated = bath_basis_blocks(np.concatenate([controls, target[None]]), sys.params, tol)
    if rotated is not None:
        controls, target = rotated[1][:-1], rotated[1][-1]
    tnorm = float(np.linalg.norm(target))

    pairs = ad_images(controls, controls)              # [H_a, H_b] at a k + b
    inner = [(ia, ib) for ia in range(k) for ib in range(k)
             if ib != ia and np.linalg.norm(pairs[ia * k + ib]) >= tol]
    triples = ad_images(pairs[[ia * k + ib for ia, ib in inner]], controls)
    best = {"overlap": 0.0, "triple": None, "residual": 1.0}
    proportional = []
    for j, (ia, ib) in enumerate(inner):
        for ic in range(k):
            word = triples[j * k + ic]
            nrm = float(np.linalg.norm(word))
            if nrm < tol:
                continue
            inner_product = np.vdot(word, target)          # <W, A_SB>, once for the overlap and the fit
            overlap = abs(inner_product) / (nrm * tnorm)
            resid = float(np.linalg.norm(target - (inner_product.real / nrm**2) * word)) / tnorm
            triple = f"[[{labels[ia]},{labels[ib]}],{labels[ic]}]"
            if overlap > max(best["overlap"], tol):          # a roundoff overlap names no triple
                best = {"overlap": float(overlap), "triple": triple, "residual": float(resid)}
            if resid < tol:
                proportional.append(triple)

    coords = skew_hermitian_coordinates(target.shape[-1], math.prod(target.shape[:-2]))
    target_code = coords.encode(target.ravel() / tnorm)[0]
    names, codes, found_depth = _bracket_words(controls, labels, target_code, tol)
    result = {
        "triple_proportional_matches": proportional,
        "best_triple": best,
        "closure_contains_interaction": found_depth is not None,
        "membership_depth": found_depth,
        "closure_dim": len(names),
    }
    if found_depth is not None:
        # the kept words are independent, so no singular value is zero: lstsq's solution
        u, s, vt = _svd(codes.T)
        coeffs = vt.T @ ((u.T @ target_code) / s)
        top = np.sort(np.argsort(-np.abs(coeffs), kind="stable")[:8])     # the largest 8, in kept order
        result["witness_words"] = [
            {"word": names[i], "coefficient": float(coeffs[i])} for i in top if abs(coeffs[i]) > 1e-6
        ]
    return result
