"""Commuting-frame construction and feedback parameter synthesis.

The recipe, at a state xi with r controls K_1..K_r:

  1. v_1 = K_I(xi); v_2.. are drawn from operators commuting with the
     interaction generator (the commutant), evaluated at xi and greedily
     selected for realified independence inside span(G(xi)).
  2. d expresses the frame over the control fields, v_j = sum_i d[j,i] K_i.
  3. S = d^{-1} with its first column zeroed; J is the upshift matrix
     (ones on the superdiagonal, zero last row); beta = J d, so the new
     controls are exactly K~_i = v_{i+1} for i < r and K~_r = 0.
  4. alpha~ cancels the v_2..v_r components of the drift and
     alpha = alpha~ beta.

J's zero last row makes the literal beta singular; the paper
simultaneously needs beta invertible, so a regularized mode replaces the
zero row of J with e_1 (K~_r = v_1, a direction inside Delta and hence
harmless).  Frame construction frequently cannot reach full rank -- the
commutant evaluations span less than span(G) in general -- and that
outcome is returned as data (a rank report), never papered over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, Operator, StateVector, commutator
from .models import ControlSystem
from .spans import RealSpan, realified_nullspace, realify
from .tangent import TangentVector, control_field_matrix, eval_field


class SynthesisError(RuntimeError):
    """The frame could not be expressed over the control fields."""


class RankDeficiencyError(RuntimeError):
    """Frame construction fell short of the required rank."""

    def __init__(self, report: dict):
        super().__init__(
            f"commuting frame reached rank {report.get('frame_rank')} "
            f"of required {report.get('required_rank')}"
        )
        self.report = report


@dataclass
class CommutingFrame:
    """Frame v_1 = K_I(xi), v_2.. from interaction-commutant operators."""

    base: StateVector
    vectors: list[TangentVector]
    generating_ops: list[Operator]
    details: dict = field(default_factory=dict)

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def pairwise_commutator_norms(self) -> np.ndarray:
        k = len(self.generating_ops)
        out = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                out[i, j] = out[j, i] = commutator(self.generating_ops[i], self.generating_ops[j]).norm()
        return out


@dataclass
class FrameResult:
    ok: bool
    frame: CommutingFrame | None
    report: dict


@dataclass
class FeedbackLaw:
    base: StateVector
    alpha: np.ndarray
    beta: np.ndarray
    d_matrix: np.ndarray
    s_matrix: np.ndarray
    j_matrix: np.ndarray
    mode: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.abs(self.beta - self.j_matrix @ self.d_matrix).max() > 1e-10:
            raise ValueError("beta must equal J d")

    @property
    def beta_singular(self) -> bool:
        r = self.beta.shape[0]
        return np.linalg.matrix_rank(self.beta) < r


def commutant_basis(a_i: Operator, tol: float = DEFAULT_TOL) -> list[Operator]:
    """Real basis of the skew-hermitian solutions of [X, A_I] = 0.

    Parameterizes the skew-hermitian matrices (real dimension n^2) and
    returns the kernel of the realified commutation map; the kernel always
    contains A_I itself and i*identity.
    """
    if a_i.kind != "skew_hermitian":
        raise ValueError("commutant is taken against a skew-hermitian generator")
    n = a_i.dim
    basis_mats = []
    for k in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[k, k] = 1j
        basis_mats.append(m)
    for k in range(n):
        for l in range(k + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[k, l] = 1.0
            m[l, k] = -1.0
            basis_mats.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[k, l] = 1j
            m[l, k] = 1j
            basis_mats.append(m)
    constraints = np.array(
        [realify((m @ a_i.matrix - a_i.matrix @ m).ravel()) for m in basis_mats]
    ).T                                                    # (2n^2, n_basis)
    null = realified_nullspace(constraints, len(basis_mats), tol=tol)
    out = []
    for coeffs in null:
        mat = sum(c * m for c, m in zip(coeffs, basis_mats))
        op = Operator(a_i.space, mat, "skew_hermitian")
        nrm = op.norm()
        if nrm > tol:
            out.append(op * (1.0 / nrm))
    return out


def control_commutant_combos(sys: ControlSystem, tol: float = DEFAULT_TOL) -> list[Operator]:
    """Real combinations of the control generators commuting with A_I.

    These are the preferred commuting-frame candidates: being exact combos
    of the controls, their d-matrix rows are state-independent constants,
    so the synthesized feedback inherits no pointwise rank noise.
    """
    r = sys.n_controls
    if r == 0:
        return []
    rows = np.array(
        [realify(commutator(a, sys.interaction).matrix.ravel()) for a in sys.controls]
    )
    null = realified_nullspace(rows.T, r, tol=tol)
    out = []
    mats = np.array([a.matrix for a in sys.controls])
    for coeffs in null:
        mat = np.tensordot(coeffs, mats, axes=1)
        nrm = np.linalg.norm(mat)
        if nrm > tol:
            out.append(Operator(sys.space, mat / nrm, "skew_hermitian"))
    return out


def build_frame(
    sys: ControlSystem,
    xi: StateVector,
    commutant: list[Operator] | None = None,
    control_candidates: list[Operator] | None = None,
    tol: float = DEFAULT_TOL,
    strict: bool = False,
) -> FrameResult:
    """Construct the commuting frame at xi; success and rank are data.

    Requires a square problem (frame size = number of controls).  Records
    the realified rank of the control fields; candidates must lie inside
    span(G(xi)) so that the d matrix exists.  Candidates are drawn first
    from control combinations commuting with A_I (state-independent, hence
    reproducible along a trajectory), then from general commutant
    combinations projected into span(G(xi)).  strict additionally rejects
    candidates whose generators fail to commute with the accepted ones.
    """
    n = sys.space.total_dim
    r = sys.n_controls
    k_i = eval_field(sys.interaction, xi)
    if k_i.norm() <= tol * max(sys.interaction.norm(), 1.0):
        raise ValueError("interaction field vanishes at this state")
    g_rows = control_field_matrix(sys, xi)
    g_span = RealSpan(2 * n, tol=tol)
    g_span.add_batch(g_rows)
    control_rank = g_span.rank

    report = {
        "required_rank": r,
        "control_field_rank": control_rank,
        "interaction_in_control_span": bool(g_span.residual(k_i.realified()) < tol),
    }
    if control_candidates is None:
        control_candidates = control_commutant_combos(sys, tol=tol)
    report["control_commutant_dim"] = len(control_candidates)

    frame_span = RealSpan(2 * n, tol=tol)
    vectors: list[TangentVector] = []
    ops: list[Operator] = []

    def try_add(cand: Operator) -> None:
        val = cand.matrix @ xi.amplitudes
        row = realify(val)
        if np.linalg.norm(row) <= tol:
            return
        if strict and any(commutator(cand, op).norm() > tol for op in ops):
            return
        if frame_span.add(row):
            vectors.append(TangentVector(xi, val))
            ops.append(cand)

    if report["interaction_in_control_span"]:
        frame_span.add(k_i.realified())
        vectors.append(k_i)
        ops.append(sys.interaction)
        for cand in control_candidates:
            if len(vectors) == r:
                break
            try_add(cand)
        if len(vectors) < r:
            # general commutant combinations whose evaluations lie in
            # span(G(xi)); the projector onto the valid combination
            # subspace is basis-independent, keeping the candidate order
            # as reproducible as the pointwise ranks allow
            if commutant is None:
                commutant = commutant_basis(sys.interaction, tol=tol)
            report["commutant_dim"] = len(commutant)
            w = np.array([realify(op.matrix @ xi.amplitudes) for op in commutant])
            res_w = g_span.project_out(w)
            combo_basis = realified_nullspace(res_w.T, len(commutant), tol=tol)
            combos = combo_basis.T @ combo_basis               # projected e_1..e_m
            comm_mats = np.array([op.matrix for op in commutant])
            for coeffs in combos:
                if len(vectors) == r:
                    break
                if np.linalg.norm(coeffs) <= tol:
                    continue
                cand_mat = np.tensordot(coeffs, comm_mats, axes=1)
                try_add(Operator(sys.space, cand_mat, "skew_hermitian"))
    report["frame_rank"] = len(vectors)
    report["missing_codim"] = r - len(vectors)
    if len(vectors) < r:
        return FrameResult(False, None, report)
    frame = CommutingFrame(xi, vectors, ops, details=dict(report))
    frame.details["max_pairwise_commutator"] = float(frame.pairwise_commutator_norms().max(initial=0.0))
    return FrameResult(True, frame, report)


def _upshift(r: int, mode: str) -> np.ndarray:
    j = np.zeros((r, r))
    for i in range(r - 1):
        j[i, i + 1] = 1.0
    if mode == "regularized":
        j[r - 1, 0] = 1.0
    elif mode != "literal":
        raise ValueError(f"unknown synthesis mode {mode!r}")
    return j


def synthesize(
    sys: ControlSystem,
    frame: CommutingFrame,
    mode: str = "literal",
    tol: float = DEFAULT_TOL,
) -> FeedbackLaw:
    """Compute (alpha, beta) from a successful commuting frame.

    Solves v_j = sum_i d[j,i] K_i in the realified least-squares sense
    (residual beyond tol means the controls do not express the frame),
    forms beta = J d and cancels the drift's v_2..v_r components to get
    alpha = alpha~ beta.
    """
    xi = frame.base
    r = sys.n_controls
    if frame.rank != r:
        raise SynthesisError(f"frame rank {frame.rank} != number of controls {r}")
    k_rows = control_field_matrix(sys, xi)                                         # (r, 2n)
    v_rows = np.array([v.realified() for v in frame.vectors])                      # (r, 2n)

    d, res, rank, sing = np.linalg.lstsq(k_rows.T, v_rows.T, rcond=None)
    d = d.T                                                                        # v ≈ d K
    resid = np.linalg.norm(v_rows - d @ k_rows, axis=1)
    scale = np.linalg.norm(v_rows, axis=1)
    if np.any(resid > tol * np.maximum(scale, 1.0)):
        raise SynthesisError(f"controls do not express the frame (residual {resid.max():.3e})")
    if rank < r:
        raise SynthesisError("d is singular: control fields are realified-dependent")
    cond_d = float(np.linalg.cond(d))
    if not np.isfinite(cond_d):
        raise SynthesisError("d is singular: frame not invertible over the controls")

    s_matrix = np.linalg.inv(d)
    s_matrix[:, 0] = 0.0
    j_matrix = _upshift(r, mode)
    beta = j_matrix @ d

    k0 = realify(sys.drift.matrix @ xi.amplitudes)
    c_coeffs, *_ = np.linalg.lstsq(v_rows.T, k0, rcond=None)
    drift_residual = float(np.linalg.norm(k0 - v_rows.T @ c_coeffs))
    alpha_tilde = np.zeros(r)
    alpha_tilde[: r - 1] = -c_coeffs[1:]
    alpha = alpha_tilde @ beta

    return FeedbackLaw(
        base=xi,
        alpha=alpha,
        beta=beta,
        d_matrix=d,
        s_matrix=s_matrix,
        j_matrix=j_matrix,
        mode=mode,
        details={
            "cond_d": cond_d,
            "c1": float(c_coeffs[0]),
            "drift_outside_frame": drift_residual,
            "frame_rank": frame.rank,
        },
    )


def closed_loop_generator(sys: ControlSystem, law: FeedbackLaw, v_ext: np.ndarray) -> Operator:
    """Effective generator A_0 + sum_j (alpha_j + sum_i v_i beta[i,j]) A_j.

    The interaction is added separately by the propagator.
    """
    u = law.alpha + np.asarray(v_ext, dtype=float) @ law.beta
    return sys.generator(u, include_interaction=False)
