"""Commuting-frame construction and feedback parameter synthesis.

The recipe, at a state xi with r controls K_1..K_r:

  1. v_1 = K_I(xi); v_2.. are drawn from operators commuting with the
     interaction generator (the commutant), evaluated at xi and selected
     in order for realified independence inside span(G(xi)).
  2. d expresses the frame over the control fields, v_j = sum_i d[j,i] K_i.
  3. S = d^{-1} with its first column zeroed; J is the upshift matrix
     (ones on the superdiagonal, zero last row); beta = J d, so the new
     controls are exactly K~_i = v_{i+1} for i < r and K~_r = 0.
  4. alpha~ cancels the v_2..v_r components of the drift and
     alpha = alpha~ beta.

The work splits into a plan and a per-step solve.  A FramePlan is built
once per system (once per closed-loop run) and holds only what it adds
to the system: the frame operators (A_I, then the control combinations
commuting with A_I), the commutant basis, and the pairwise commutator
norms over the frame operators.  The drift and controls stay in the
system's generator stack.  Per state, build_frame evaluates the control
and drift fields with one matmul over that stack and the frame operators'
fields with one more, takes the control-field rank and the K_I membership
test through one RealSpan, whose pivoted QR leaves Q, an orthonormal basis
of span G(xi), and selects the frame by spans.kept_in_order, one in-order
Householder QR of K_I and the candidates, which keeps the rows the
one-at-a-time greedy test would and forms no basis of the frame.  The
frame carries Q and its realified rows, so synthesize forms nothing twice:
in r x r coordinates of Q, one projection of [V; K_0] onto span(Q) for all
residuals, one LU solve (dgesv) for d and the drift split together, one
SVD (spans._svd) of d for its rank cut, cond(d) and d^-1, which gives S
and the drift's coordinates, and J once per (r, mode), read-only.  The
frame's commutator diagnostics are a lookup into the plan's table.

J's zero last row makes the literal beta singular; the paper
simultaneously needs beta invertible, so a regularized mode replaces the
zero row of J with e_1 (K~_r = v_1, a direction inside Delta and hence
harmless).  Frame construction frequently cannot reach full rank -- the
commutant evaluations span less than span(G) in general -- and that
outcome is returned as data (a rank report), never papered over.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgesv

from .algebra import DEFAULT_TOL, Operator, StateVector, _eigh, commutator, is_hermitian
from .models import ControlSystem
from .spans import (RealSpan, _serial_blas, _svd, ad_images, kept_in_order, leading_rank, realified_nullspace,
                    realify, row_norms, row_rank)
from .tangent import tangent_rows


# the modes synthesize forms beta in: J with its zero last row, or with e_1 there
SYNTHESIS_MODES = ("literal", "regularized")


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


def commutator_norm_table(mats) -> np.ndarray:
    """Frobenius norms ||[M_i, M_j]|| over a stack of matrices (zero diagonal); (0, 0) for no matrices."""
    mats = np.asarray(mats, dtype=complex)
    if not len(mats):
        return np.zeros((0, 0))
    return np.linalg.norm(ad_images(mats, mats), axis=(1, 2)).reshape(len(mats), len(mats))


@dataclass
class CommutingFrame:
    """Frame v_1 = K_I(xi), v_2.. from interaction-commutant operators.

    vectors holds the frame's tangent vectors at base, (k, n) complex, and
    generating_ops the operators that generate them, a (k, n, n) stack.
    field_rows holds the realified control and drift fields at base in
    the order of sys.generator_stack ([K_1..K_r, K_0]), vector_rows the
    realified vectors, commutator_norms the pairwise commutator norms of
    the generating operators, control_basis Q, the orthonormal rows of the
    control fields' realified span (behind control_field_rank), all as
    build_frame produced them; a frame assembled by hand leaves them None
    and synthesize and pairwise_commutator_norms compute them on demand.
    """

    base: StateVector
    vectors: np.ndarray
    generating_ops: np.ndarray
    details: dict = field(default_factory=dict)
    field_rows: np.ndarray | None = None
    vector_rows: np.ndarray | None = None
    commutator_norms: np.ndarray | None = None
    control_basis: np.ndarray | None = None

    def __post_init__(self):
        self.vectors = tangent_rows(self.base, self.vectors)

    @property
    def rank(self) -> int:
        return self.vectors.shape[0]

    def pairwise_commutator_norms(self) -> np.ndarray:
        if self.commutator_norms is None:
            self.commutator_norms = commutator_norm_table(self.generating_ops)
        return self.commutator_norms


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
        """beta's singular values cut at the tol synthesize ran with (details["tol"])."""
        return row_rank(self.beta, self.details["tol"]) < self.beta.shape[0]

    def audit_fields(self) -> dict:
        """What an audit row records of the law: beta_singular, and alpha, beta, d, S and J as lists."""
        return {"beta_singular": self.beta_singular, "alpha": self.alpha.tolist(), "beta": self.beta.tolist(),
                "d": self.d_matrix.tolist(), "S": self.s_matrix.tolist(), "J": self.j_matrix.tolist()}


def commutant_basis(a_i: Operator, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Real basis of the skew-hermitian solutions of [X, A_I] = 0, as a (k, n, n) stack.

    A_I is normal, so its commutant is block-diagonal in its eigenbasis.
    With iA_I = V diag(w) V† from one eigh, the commutation map takes the
    orthonormal basis i v_k v_k†, (v_k v_l† - v_l v_k†)/sqrt(2),
    i(v_k v_l† + v_l v_k†)/sqrt(2) (k < l) of u(n) to orthogonal images of
    norms 0 and |w_k - w_l|: these are its singular values, and the gaps are
    cut by leading_rank with floor 1, as realified_nullspace cuts an SVD.
    Every i v_k v_k† and both elements of each pair whose gap is at most
    tol * max(largest gap, 1) are returned, at unit norm and skew-hermitian
    bit for bit (each is Y - Y†).  An SVD over the standard basis, whose
    off-diagonal elements E_kl - E_lk, i(E_kl + E_lk) have norm sqrt(2),
    keeps the same dimension unless a gap lies within a factor sqrt(2) of the cut.
    """
    if not is_hermitian(a_i.matrix, tol, skew=True):
        raise ValueError("commutant is taken against a skew-hermitian generator")
    n = a_i.dim
    with _serial_blas():                                   # at one thread: spans module docstring
        w, v = _eigh(1j * a_i.matrix)
    k, l = np.triu_indices(n, 1)
    gaps = np.abs(w[k] - w[l])
    order = np.argsort(gaps)[::-1]
    pairs = np.sort(order[leading_rank(gaps[order], tol, floor=1.0):])
    # c is i/2 for each v_k v_k†, then 1/sqrt(2) and i/sqrt(2) for each kept pair
    rows = np.concatenate([np.arange(n), np.repeat(k[pairs], 2)])
    cols = np.concatenate([np.arange(n), np.repeat(l[pairs], 2)])
    coef = np.concatenate([np.full(n, 0.5j), np.tile([1.0, 1.0j], pairs.size) / math.sqrt(2.0)])
    out = (coef[:, None] * v.T[rows])[:, :, None] * v.T[cols].conj()[:, None, :]
    out -= out.conj().transpose(0, 2, 1)
    out *= (1.0 / row_norms(out.reshape(len(out), -1).view(float)))[:, None, None]
    return out


def control_commutant_combos(sys: ControlSystem, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unit real combinations of the control generators commuting with A_I, as a (k, n, n) stack.

    These are the preferred commuting-frame candidates: being exact combos
    of the controls, their d-matrix rows are state-independent constants,
    so the synthesized feedback inherits no pointwise rank noise.  K_I enters
    every frame first, so combinations along A_I (residual <= tol) are left out.
    """
    n, r = sys.space.total_dim, sys.n_controls
    if r == 0:
        return np.zeros((0, n, n), dtype=complex)
    rows = np.array([realify(commutator(a, sys.interaction).matrix.ravel()) for a in sys.controls])
    null = realified_nullspace(rows.T, r, tol=tol)
    combos = [np.tensordot(coeffs, sys.control_stack, axes=1) for coeffs in null]
    units = np.array([m / nrm for m in combos if (nrm := np.linalg.norm(m)) > tol]).reshape(-1, n, n)
    interaction = RealSpan(2 * n * n, tol=tol)
    interaction.add(realify(sys.interaction.matrix.ravel()))
    return units[interaction.residuals(realify(units.reshape(len(units), n * n))) > tol]


@dataclass
class FramePlan:
    """The state-independent half of frame construction for one system.

    It holds no copy of the system's generators, only what it adds:
    frame_ops, a (1 + c, n, n) stack of A_I and then the c
    control-commutant combinations, the preferred frame candidates;
    commutant, the commutant basis of A_I, whose fields are evaluated only
    when the candidates fall short of rank r; and commutator_norms, the
    pairwise table over frame_ops, so a frame operator's index into
    frame_ops is its row there.
    """

    sys: ControlSystem
    tol: float
    frame_ops: np.ndarray
    commutant: np.ndarray
    commutator_norms: np.ndarray
    interaction_floor: float

    @classmethod
    def build(cls, sys: ControlSystem, tol: float = DEFAULT_TOL) -> "FramePlan":
        frame_ops = np.concatenate([sys.interaction.matrix[None], control_commutant_combos(sys, tol=tol)])
        return cls(
            sys=sys,
            tol=tol,
            frame_ops=frame_ops,
            commutant=commutant_basis(sys.interaction, tol=tol),
            commutator_norms=commutator_norm_table(frame_ops),
            interaction_floor=sys.interaction_floor(tol),
        )


def build_frame(
    sys: ControlSystem,
    xi: StateVector,
    plan: FramePlan | None = None,
) -> FrameResult:
    """Construct the commuting frame at xi; success and rank are data.

    Requires a square problem (frame size = number of controls).  Records
    the realified rank of the control fields; candidates must lie inside
    span(G(xi)) so that the d matrix exists.  Candidates are drawn first
    from control combinations commuting with A_I (state-independent, hence
    reproducible along a trajectory), then from general commutant
    combinations projected into span(G(xi)).  The tol is the plan's;
    without a plan one is built here at the default tol.  A state on
    another space than the system's is refused (ValueError).
    """
    if xi.space is not sys.space and xi.space != sys.space:
        raise ValueError("the state lives on a different space than the system")
    if plan is None:
        plan = FramePlan.build(sys)
    elif plan.sys is not sys:
        raise ValueError("the frame plan was built for a different system")
    tol = plan.tol
    n = sys.space.total_dim
    r = sys.n_controls
    fields = realify((sys.generator_stack.reshape(-1, n) @ xi.amplitudes).reshape(-1, n))  # controls, drift
    vals = (plan.frame_ops.reshape(-1, n) @ xi.amplitudes).reshape(-1, n)                  # K_I, candidates
    rows = realify(vals)
    k_i_norm = math.sqrt(np.dot(rows[0], rows[0]))
    if k_i_norm <= plan.interaction_floor:
        raise ValueError("interaction field vanishes at this state")
    g_span = RealSpan(2 * n, tol=tol)
    g_span.add_batch(fields[:r])

    report = {
        "required_rank": r,
        "control_field_rank": g_span.rank,
        "interaction_in_control_span": bool(g_span.residual(rows[0]) < tol),
        "control_commutant_dim": len(plan.frame_ops) - 1,
    }
    # K_I enters first and always stays: its norm cleared the interaction floor, which is at least tol
    kept = kept_in_order(rows, r, tol) if report["interaction_in_control_span"] else np.zeros(0, dtype=int)
    vectors, vector_rows, ops = vals.take(kept, 0), rows.take(kept, 0), plan.frame_ops.take(kept, 0)
    norms = plan.commutator_norms.take(kept, 0).take(kept, 1)
    if report["interaction_in_control_span"] and len(kept) < r:
        # general commutant combinations whose evaluations lie in
        # span(G(xi)), tested after the kept rows; the projector onto the
        # valid combination subspace is basis-independent, keeping the
        # candidate order as reproducible as the pointwise ranks allow
        report["commutant_dim"] = len(plan.commutant)
        w_vals = plan.commutant @ xi.amplitudes
        res_w = g_span.project_out(realify(w_vals))
        combo_basis = realified_nullspace(res_w.T, len(plan.commutant), tol=tol)
        combos = combo_basis.T @ combo_basis                   # projected e_1..e_m
        combos = combos[row_norms(combos) > tol]
        combo_vals = combos @ w_vals
        candidate_rows = np.concatenate([vector_rows, realify(combo_vals)])
        chosen = kept_in_order(candidate_rows, r, tol)
        prior, added = chosen[chosen < len(kept)], chosen[chosen >= len(kept)] - len(kept)
        vectors, vector_rows = np.concatenate([vectors[prior], combo_vals[added]]), candidate_rows.take(chosen, 0)
        ops = np.concatenate([ops[prior], np.tensordot(combos[added], plan.commutant, axes=1)])
        norms = None                                           # a full frame here holds a combination
    report["frame_rank"] = len(vectors)
    report["missing_codim"] = r - len(vectors)
    if len(vectors) < r:
        return FrameResult(False, None, report)
    frame = CommutingFrame(
        xi, vectors, ops, details=dict(report), field_rows=fields, vector_rows=vector_rows, commutator_norms=norms,
        control_basis=g_span.q,
    )
    frame.details["max_pairwise_commutator"] = float(frame.pairwise_commutator_norms().max(initial=0.0))
    return FrameResult(True, frame, report)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b for a square a and (n, k) b, by one LU (LAPACK dgesv)."""
    _, _, x, info = dgesv(a, b)
    if info:
        raise np.linalg.LinAlgError(f"dgesv failed (info={info})")
    return x


@functools.cache                                           # read-only: every law of this (r, mode) shares J
def _upshift(r: int, mode: str) -> np.ndarray:
    if mode not in SYNTHESIS_MODES:
        raise ValueError(f"unknown synthesis mode {mode!r}")
    j = np.eye(r, k=1)
    if mode == "regularized":
        j[r - 1, 0] = 1.0
    j.flags.writeable = False
    return j


def synthesize(
    sys: ControlSystem,
    frame: CommutingFrame,
    mode: str = "literal",
    tol: float = DEFAULT_TOL,
) -> FeedbackLaw:
    """Compute (alpha, beta) from a successful commuting frame.

    Expresses the frame over the controls, v_j = sum_i d[j,i] K_i, forms
    beta = J d and cancels the drift's v_2..v_r components to get
    alpha = alpha~ beta.  Everything is r x r algebra in the coordinates of
    Q, the orthonormal basis of span(K) (rows, realified), through one
    projection of [V; K_0] onto span(Q), v_q = V Q^T and Q K_0:
      - the frame's residual outside span(Q) beyond tol means the controls
        do not express the frame;
      - one LU of M^T = (K Q^T)^T gives d^T from M^T d^T = v_q^T and y
        from M^T y = Q K_0;
      - fewer than r rows of Q, or an SVD of d cut below r at tol, means d
        is singular; the SVD also gives cond(d) and d^-1 (S is d^-1 with
        its first column zeroed);
      - past those checks v_q = d M is invertible and V lies within the
        express check's tol of span(Q), so span(V) = span(Q) to O(tol):
        the drift's coordinates c over v solve v_q^T c = Q K_0, so
        c = d^-T y, and K_0's residual outside span(Q) is
        drift_outside_frame.
    d is the least-squares solution of V = d K; c and drift_outside_frame
    agree with the least-squares split V^T c = K_0 to O(tol) times |K_0|
    (to roundoff when V lies in span(Q) to roundoff, as the control-
    commutant frames do); c's rounding error is about cond(M) cond(d) eps.
    A frame built by hand gets its rows and Q (a RealSpan at tol) here.
    """
    xi = frame.base
    r = sys.n_controls
    if frame.rank != r:
        raise SynthesisError(f"frame rank {frame.rank} != number of controls {r}")
    fields = frame.field_rows
    if fields is None:
        fields = realify(sys.generator_stack @ xi.amplitudes)
    v_rows = realify(frame.vectors) if frame.vector_rows is None else frame.vector_rows   # (r, 2n)
    q = frame.control_basis
    if q is None:
        g_span = RealSpan(fields.shape[1], tol=tol)
        g_span.add_batch(fields[:-1])
        q = g_span.q

    rows = np.concatenate([v_rows, fields[-1:]])                                   # [V; K_0], (r + 1, 2n)
    rows_q = rows @ q.T                                                            # [v_q; (Q K_0)^T]
    outside = row_norms(rows - rows_q @ q)                                         # V's residuals, then K_0's
    resid = outside[:-1]
    if (resid > tol * np.maximum(row_norms(v_rows), 1.0)).any():
        raise SynthesisError(f"controls do not express the frame (residual {resid.max():.3e})")
    # the frame has rank r, so dependent control fields also leave d singular
    singular = "d is singular at the synthesis tol: frame not invertible over the controls"
    if q.shape[0] < r:
        raise SynthesisError(singular)
    d_t_y = _solve((fields[:-1] @ q.T).T, rows_q.T)                                # M^T [d^T | y] = [v_q^T | Q K_0]
    d = d_t_y[:, :r].T
    u, sing_d, vt = _svd(d)
    if leading_rank(sing_d, tol) < r:
        raise SynthesisError(singular)
    cond_d = float(sing_d[0] / sing_d[-1])

    s_matrix = (vt.T / sing_d) @ u.T                                               # d^-1
    c_coeffs = d_t_y[:, r] @ s_matrix                                              # c = d^-T y
    s_matrix[:, 0] = 0.0
    j_matrix = _upshift(r, mode)
    beta = j_matrix @ d
    alpha = -c_coeffs[1:] @ beta[:-1]                                              # alpha~ = (-c_2..-c_r, 0)

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
            "drift_outside_frame": float(outside[-1]),
            "frame_rank": r,
            "tol": tol,
        },
    )


def closed_loop_generator(
    sys: ControlSystem, law: FeedbackLaw, v_ext: np.ndarray, include_interaction: bool
) -> Operator:
    """Total generator A_0 + sum_j (alpha_j + sum_i v_i beta[i,j]) A_j (+ A_I)."""
    u = law.alpha + np.asarray(v_ext, dtype=float) @ law.beta
    return sys.generator(u, include_interaction=include_interaction)
