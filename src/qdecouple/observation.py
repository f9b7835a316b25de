"""Operator-level decouplability checks.

The coherence output y = <xi|C|xi> turns Lie derivatives along linear
fields A xi into operator commutators: L_{A xi} y = <xi|[C, A]|xi> for
skew A.  The span C~ is therefore closed at the operator level under
ad by the control generators and the drift, and the two decouplability
conditions become

    open loop:     [C~, A_I] = 0  elementwise,
    closed loop:   [C, A_I] = 0  and  [C~, A_I] subset of C~,

with membership decided by realified least-squares residual against the
span basis (threshold tol * ||candidate||, RealSpan's membership test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import (
    ClosureBlowupError,
    HilbertSpace,
    Operator,
    StateVector,
    ad_maps,
    commutator,
    lie_closure,
)
from .models import ControlSystem
from .spans import RealSpan, SpanBlowupError, close_real_span, realify, row_norms


@dataclass
class OperatorSpan:
    """Real-linear span of operators with fast membership tests."""

    space: HilbertSpace
    basis: list[Operator]
    tol: float = 1e-9
    details: dict = field(default_factory=dict)
    _span: RealSpan | None = field(default=None, repr=False)

    def __post_init__(self):
        if self._span is None:
            n = self.space.total_dim
            self._span = RealSpan(2 * n * n, tol=self.tol)
            for op in self.basis:
                self._span.add(realify(op.matrix.ravel()))

    @property
    def dim(self) -> int:
        return self._span.rank

    def residual(self, op: Operator) -> float:
        """Relative realified least-squares residual of op against the span."""
        return self._span.residual(realify(op.matrix.ravel()))

    def contains(self, op: Operator) -> bool:
        return self.residual(op) < self.tol


@dataclass
class Verdict:
    """Outcome of a decouplability check with a machine-checked witness."""

    name: str
    ok: bool
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return "decoupled" if self.ok else "not_decoupled"


def _closure_generators(sys: ControlSystem, order: str) -> list[Operator]:
    if order == "controls_first":
        return [*sys.controls, sys.drift]
    if order == "drift_first":
        return [sys.drift, *sys.controls]
    raise ValueError(f"unknown closure order {order!r}")


def build_c_tilde(
    sys: ControlSystem,
    max_dim: int | None = None,
    tol: float = 1e-9,
    order: str = "controls_first",
) -> OperatorSpan:
    """Stable ad-closure of the output operator under controls and drift.

    Iterates span <- span + [A, span] for A over the control generators and
    the drift until the real span stabilizes (the iteration order is a
    flag; the fixpoint does not depend on it).  Raises ClosureBlowupError
    past max_dim.
    """
    n = sys.space.total_dim
    if max_dim is None:
        max_dim = 2 * n * n
    maps = ad_maps(_closure_generators(sys, order))
    seed = sys.output_op.matrix.ravel()
    seed = seed / np.linalg.norm(seed)
    try:
        span, batches, rounds = close_real_span(seed[None, :], maps, tol=tol, max_dim=max_dim)
    except SpanBlowupError as exc:
        raise ClosureBlowupError(exc.rank, exc.max_dim) from exc
    ops = [Operator(sys.space, row.reshape(n, n)) for row in np.vstack(batches)]
    return OperatorSpan(sys.space, ops, tol=tol, details={"rounds": rounds}, _span=span)


def _basis_matrices(span: OperatorSpan) -> np.ndarray:
    n = span.space.total_dim
    return np.array([op.matrix for op in span.basis]).reshape(-1, n, n)


def _brackets(mats: np.ndarray, op: Operator) -> np.ndarray:
    """[B_k, op] for a stack of matrices B_k in one matmul, as realified rows."""
    return realify((mats @ op.matrix - op.matrix @ mats).reshape(-1, op.dim * op.dim))


def check_open_loop(sys: ControlSystem, c_tilde: OperatorSpan | None = None, tol: float = 1e-9) -> Verdict:
    """Case I: every element of C~ commutes with the interaction generator."""
    if c_tilde is None:
        c_tilde = build_c_tilde(sys, tol=tol)
    a_i = sys.interaction
    scale = max(a_i.norm(), 1.0)
    mats = _basis_matrices(c_tilde)
    op_norms = np.linalg.norm(mats, axis=(1, 2))
    failing = np.flatnonzero(row_norms(_brackets(mats, a_i)) > tol * scale * np.maximum(op_norms, 1.0))
    if failing.size:
        k = int(failing[0])
        # the witness norm by the per-element formula, so reports keep their
        # bytes; it is the same Frobenius norm as the batched row norm that
        # failed, so it can be at most the threshold only when that row norm
        # was within rounding of it
        nrm = commutator(c_tilde.basis[k], a_i).norm()
        return Verdict(
            "open_loop",
            False,
            witness={"kind": "ctilde_interaction_commutator", "basis_index": k, "norm": nrm},
            details={"c_tilde_dim": c_tilde.dim},
        )
    return Verdict("open_loop", True, details={"c_tilde_dim": c_tilde.dim})


def check_closed_loop_necessary(
    sys: ControlSystem, c_tilde: OperatorSpan | None = None, tol: float = 1e-9
) -> Verdict:
    """Case II necessary conditions: [C, A_I] = 0 and [C~, A_I] subset C~."""
    a_i = sys.interaction
    c_norm = commutator(sys.output_op, a_i).norm()
    if c_norm > tol * max(a_i.norm(), 1.0):
        return Verdict(
            "closed_loop_necessary",
            False,
            witness={"kind": "output_interaction_commutator", "norm": c_norm},
        )
    if c_tilde is None:
        c_tilde = build_c_tilde(sys, tol=tol)
    brackets = _brackets(_basis_matrices(c_tilde), a_i)
    norms = row_norms(brackets)
    live = np.flatnonzero(norms > tol * max(a_i.norm(), 1.0))
    res = row_norms(c_tilde._span.project_out(brackets[live])) / norms[live]
    failing = np.flatnonzero(res > tol)
    if failing.size:
        k = int(live[failing[0]])
        # the witness residual by the per-element formula, so reports keep
        # their bytes; both formulas are ||P_perp [B_k, A_I]|| / ||[B_k, A_I]||
        # against the same orthonormal basis, so the witness can be at most
        # tol only when the failing batched residual was within rounding of tol
        residual = c_tilde.residual(commutator(c_tilde.basis[k], a_i))
        return Verdict(
            "closed_loop_necessary",
            False,
            witness={"kind": "ctilde_containment", "basis_index": k, "residual": residual},
            details={"c_tilde_dim": c_tilde.dim},
        )
    return Verdict(
        "closed_loop_necessary",
        True,
        details={"c_tilde_dim": c_tilde.dim, "max_containment_residual": float(res.max(initial=0.0))},
    )


def _ad_chain(base: Operator, by: Operator, tol: float) -> list[Operator]:
    """Orthonormal basis of span{base, [by, base], [by, [by, base]], ...}."""
    _, batches, _ = close_real_span(base.matrix.ravel()[None, :], ad_maps([by]), tol=tol)
    return [Operator(base.space, row.reshape(base.dim, base.dim)) for row in np.vstack(batches)]


def check_control_algebra(
    sys: ControlSystem,
    delta: OperatorSpan,
    max_dim: int | None = None,
    tol: float = 1e-9,
) -> Verdict:
    """Control-algebra decouplability test:
    [Delta, G] and [Delta, C] must land in span(Delta (+) G), where G is the
    Lie closure of the controls and C = {ad^j_{K_i} K_0} truncated at span
    stabilization.  Propagates closure blowup.

    Backs the paper's control-algebra condition; called by tests only.
    """
    n = sys.space.total_dim
    if max_dim is None:
        max_dim = 2 * n * n
    g_alg = lie_closure(sys.controls, max_dim=max_dim, tol=tol)
    c_set: list[Operator] = []
    if sys.drift.norm() > tol:
        for k_i in sys.controls:
            c_set.extend(_ad_chain(sys.drift, k_i, tol))
    combined = OperatorSpan(sys.space, [*delta.basis, *g_alg], tol=tol)
    d_mats = _basis_matrices(delta)
    for tag, family in (("control_algebra", g_alg), ("drift_chain", c_set)):
        for k, other in enumerate(family):
            # [D, other] for the whole Delta basis at once, then one projection
            brackets = _brackets(d_mats, other)
            norms = np.linalg.norm(brackets, axis=1)
            live = np.flatnonzero(norms > tol)
            if not live.size:
                continue
            res = np.linalg.norm(combined._span.project_out(brackets[live]), axis=1) / norms[live]
            failing = np.flatnonzero(res > tol)
            if failing.size:
                first = failing[0]
                return Verdict(
                    "control_algebra",
                    False,
                    witness={"kind": tag, "member_index": k, "delta_index": int(live[first]),
                             "residual": float(res[first])},
                    details={"g_dim": len(g_alg), "c_set_size": len(c_set)},
                )
    return Verdict(
        "control_algebra", True, details={"g_dim": len(g_alg), "c_set_size": len(c_set)}
    )


def verify_dfs(sys: ControlSystem, subspace: Sequence[StateVector], tol: float = 1e-9) -> Verdict:
    """Check that the interaction annihilates subspace (x) environment.

    The subspace vectors live on the system-side factors (everything but
    the trailing environment); each is tensored with every environment
    basis state and must be mapped to zero by the interaction generator
    (the collective-dephasing sufficient condition).

    Backs the abstract's DFS result; called by tests only.
    """
    if not subspace:
        raise ValueError("empty subspace")
    gram = np.array(
        [[np.vdot(a.amplitudes, b.amplitudes) for b in subspace] for a in subspace]
    )
    if np.abs(gram - np.eye(len(subspace))).max() > 1e-8:
        raise ValueError("subspace vectors must be orthonormal")
    sub_dim = subspace[0].space.total_dim
    n_total = sys.space.total_dim
    if n_total % sub_dim:
        raise ValueError("subspace dimension does not divide the system dimension")
    n_env = n_total // sub_dim
    a_i = sys.interaction
    scale = max(a_i.norm(), 1.0)
    worst = 0.0
    for k, v in enumerate(subspace):
        for e in range(n_env):
            env = np.zeros(n_env, dtype=complex)
            env[e] = 1.0
            full = np.kron(v.amplitudes, env)
            nrm = float(np.linalg.norm(a_i.matrix @ full))
            worst = max(worst, nrm)
            if nrm > tol * scale:
                return Verdict(
                    "dfs",
                    False,
                    witness={"kind": "interaction_image", "vector_index": k, "env_level": e, "norm": nrm},
                )
    return Verdict("dfs", True, details={"max_image_norm": worst})
