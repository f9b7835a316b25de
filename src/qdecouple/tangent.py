"""Pointwise tangent-space machinery for the invariant-distribution tests.

Everything here is evaluated at a specific state xi; field-level claims
are probed by sampling states.  The complex output y = <xi|C|xi> counts
as two real outputs, so its differential contributes two real covectors

    d(Re y)(v) = Re <(C + C†) xi | v>,      d(Im y) = d(Re y) of (-iC),

and tangent vectors are compared in the realified sense ([Re | Im] in
R^{2n}).  Linear fields x -> A x have field bracket [Ax, Bx] = (BA-AB)x;
all downstream uses are span-membership tests, which are sign-invariant.

The open-loop codistribution Omega closes C and -iC under the Lie step
M -> M A + A† M = -[A, M] (A skew) of the drift and every control; ad_A
is complex-linear, so Omega = C~ + iC~ and is read off build_c_tilde.

Representation: a tangent vector at xi is its complex value, a length-n
array (eval_field returns A xi itself).  A distribution at xi is a
DistributionBasis: a (k, n) complex array of independent tangent vectors
and one RealSpan of their realified rows, built once with one add_batch;
that span's rank is the independence check and answers every residual.
A family of operators -- the generating operators of a distribution, the
quadratic generators of the closed-loop codistribution, a round of the
hermitian derivative chain -- is a (k, n, n) complex stack, so its fields
at xi are one product (stack @ xi) and its covectors one covector_of call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, Operator, StateVector, commutator, is_hermitian
from .models import ControlSystem
from .observation import Verdict, build_c_tilde, unit_output
from .spans import (RealSpan, ad_images, close_real_span, realified_nullspace, realify, row_norms, unit_generators,
                    unrealify)

# omega_closure_closed compares Omega ∩ G^perp at xi with that at this many
# seeded states within this distance of xi
_N_PERTURB = 8
_PERTURB_RADIUS = 1e-3


class NonRegularPointError(RuntimeError):
    """The G-annihilator changed dimension across nearby states."""


def tangent_rows(base: StateVector, vectors) -> np.ndarray:
    """Tangent vectors at base as a (k, n) complex array; any other length than n is refused."""
    rows = np.asarray(vectors, dtype=complex)
    n = base.space.total_dim
    if rows.shape == (0,):                                 # no vectors at all
        return rows.reshape(0, n)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"tangent vectors of shape {rows.shape} do not match the base space (n = {n})")
    return rows


@dataclass
class DistributionBasis:
    """Realified-independent tangent vectors at a base state, (k, n) complex."""

    base: StateVector
    vectors: np.ndarray
    generating_ops: np.ndarray | None = None                # (m, n, n)
    details: dict = field(default_factory=dict)
    span: RealSpan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vectors = tangent_rows(self.base, self.vectors)
        self.span = RealSpan(2 * self.base.space.total_dim, tol=DEFAULT_TOL)
        self.span.add_batch(realify(self.vectors), floor=0.0)   # only an exactly zero vector is dropped
        if self.span.rank != self.dim:
            raise ValueError(f"vectors are dependent: rank {self.span.rank} < {self.dim}")

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def residual(self, v: np.ndarray) -> float:
        """Relative realified residual of the complex tangent vector v against the distribution."""
        return self.span.residual(realify(np.asarray(v, dtype=complex).ravel()))


@dataclass
class CodistributionBasis:
    """Realized covectors of a codistribution at a state, one realified row each, and Delta*, factored once."""

    base: StateVector
    realized_covectors: np.ndarray
    details: dict = field(default_factory=dict)
    tol: float = 1e-9
    null: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.realized_covectors = np.atleast_2d(np.asarray(self.realized_covectors, dtype=float))
        self.null = realified_nullspace(self.realized_covectors, 2 * self.base.space.total_dim, tol=self.tol)

    @property
    def rank(self) -> int:
        return 2 * self.base.space.total_dim - len(self.null)

    def delta_star(self) -> DistributionBasis:
        """Orthocomplement of the realized covectors (already inside ker dy)."""
        return DistributionBasis(self.base, unrealify(self.null), details={"from": "codistribution"})


def eval_field(a: Operator, xi: StateVector) -> np.ndarray:
    """Value A xi of the linear vector field generated by skew-hermitian A."""
    if a.space != xi.space:
        raise ValueError("operator and state spaces differ")
    if not is_hermitian(a.matrix, skew=True):
        raise ValueError("dynamics fields are generated by skew-hermitian operators")
    return a.matrix @ xi.amplitudes


def bracket_linear_fields(a: Operator, b: Operator) -> Operator:
    """Generator of the field bracket of x -> Ax and x -> Bx, namely BA - AB."""
    return commutator(b, a)


def output_covectors(xi: StateVector, c_op: Operator) -> np.ndarray:
    """The two real covectors d(Re y), d(Im y) of y = <xi|C|xi>, realified."""
    return covector_of(np.array([c_op.matrix, -1j * c_op.matrix]), xi.amplitudes)


def covector_of(op_matrix: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Realified d(Re <xi|M|xi>) at xi for a quadratic generator M; one row per M for a (k, n, n) stack."""
    return realify((op_matrix + np.swapaxes(op_matrix.conj(), -1, -2)) @ xi)


def kernel_dy(xi: StateVector, c_op: Operator, tol: float = 1e-9) -> DistributionBasis:
    """Joint kernel of d(Re y) and d(Im y); real dimension >= 2n - 2."""
    n = xi.space.total_dim
    rows = output_covectors(xi, c_op)
    null = realified_nullspace(rows, 2 * n, tol=tol)
    return DistributionBasis(xi, unrealify(null), details={"codim": 2 * n - null.shape[0]})


def omega_closure_open(sys: ControlSystem, xi: StateVector, tol: float = 1e-9) -> CodistributionBasis:
    """Codistribution closure Omega <- Omega + sum_A L_{K_A} Omega, as C~ + iC~ (module docstring).

    The realized covectors at xi are those of M and -iM, the pair
    output_covectors takes for C, one element M of a closed C~ at a time;
    details are C~'s.  On C~ = sl(n, C), realify(H xi) over the traceless
    hermitian H fills (n >= 2) the real hyperplane orthogonal to realify(i xi).
    """
    c_tilde = build_c_tilde(sys, tol=tol)
    x = xi.amplitudes
    covs = (realified_nullspace(realify(1j * x)[None], 2 * len(x), tol=tol) if c_tilde.span is None
            else np.concatenate([covector_of(np.array([m, -1j * m]), x) for m in c_tilde.elements()]))
    return CodistributionBasis(xi, covs, details=dict(c_tilde.details), tol=tol)


def control_field_matrix(sys: ControlSystem, xi: StateVector) -> np.ndarray:
    """Realified control-field values at xi, one row per control."""
    return realify(sys.control_stack @ xi.amplitudes)


def omega_closure_closed(sys: ControlSystem, xi: StateVector, tol: float = 1e-9) -> CodistributionBasis:
    """Closed-loop codistribution: only the part of Omega annihilating the
    control span G feeds the Lie-derivative step.

    The intersection Omega ∩ G^perp is taken over constant-real-coefficient
    combinations of the current quadratic generators whose realized
    covectors annihilate the control fields at xi and at _N_PERTURB seeded
    nearby states; a dimension disagreement between the two raises
    NonRegularPointError instead of silently picking either answer.  Every
    round that continues adds a direction, so the loop ends within 2n^2
    rounds.
    """
    n = sys.space.total_dim
    units = unit_generators(sys.generator_stack)
    c = unit_output(sys)
    gens = np.array([c, -1j * c])                            # (m, n^2), row-major matrices
    span = RealSpan(2 * n * n, tol=tol)
    for gvec in gens:
        span.add(realify(gvec))

    rng = np.random.default_rng(0)
    states = [xi.amplitudes]
    for _ in range(_N_PERTURB):
        z = xi.amplitudes + _PERTURB_RADIUS * (rng.normal(size=n) + 1j * rng.normal(size=n))
        states.append(z / np.linalg.norm(z))
    g_fields = {
        id_s: control_field_matrix(sys, StateVector(sys.space, s)) for id_s, s in enumerate(states)
    }

    rounds = 0
    while True:
        rounds += 1
        mats = gens.reshape(-1, n, n)
        if sys.n_controls:
            pair_blocks = []
            for id_s, s in enumerate(states):
                w = covector_of(mats, s)                          # (m, 2n)
                pair_blocks.append(g_fields[id_s] @ w.T)         # (r, m)
            null_at_base = realified_nullspace(pair_blocks[0], len(gens), tol=tol)
            null_all = realified_nullspace(np.vstack(pair_blocks), len(gens), tol=tol)
            if null_at_base.shape[0] != null_all.shape[0]:
                raise NonRegularPointError(
                    f"Omega ∩ G^perp dimension {null_at_base.shape[0]} at the base state "
                    f"but {null_all.shape[0]} across perturbed states"
                )
            combos = null_all
        else:
            combos = np.eye(len(gens))
        if combos.shape[0] == 0:
            break
        selected = combos @ gens                                 # (k, n^2) complex
        candidates = ad_images(units, selected.reshape(-1, n, n))
        new = span.add_batch(realify(candidates.reshape(len(candidates), n * n)))
        if new.shape[0] == 0:
            break
        gens = np.vstack([gens, unrealify(new)])
    mats = gens.reshape(-1, n, n)
    covs = np.vstack([covector_of(mats, xi.amplitudes), output_covectors(xi, sys.output_op)])
    return CodistributionBasis(xi, covs, details={"rounds": rounds, "generator_rank": span.rank}, tol=tol)


def hermitian_derivative_chain(sys: ControlSystem, tol: float = 1e-9) -> list[np.ndarray]:
    """Hermitian differentials of the iterated output Lie derivatives.

    d(L_{K_w} Re y) at any state is realified(H xi) for a hermitian H, and
    the H's are generated from the output's hermitian parts by ad-chains
    under the drift and controls (taking hermitian parts commutes with
    bracketing against skew generators).  Returns one (k, n, n) stack of
    new hermitian operators per chain round, state-independently: the rounds
    of the ad-closure, hermitian because its seeds are and ad by a skew
    generator preserves hermiticity.
    """
    n = sys.space.total_dim
    c_mat = sys.output_op.matrix
    seeds = np.array([(c_mat + c_mat.conj().T).ravel(), (-1j * (c_mat - c_mat.conj().T)).ravel()])
    _, batches, _ = close_real_span(seeds, sys.generator_stack, tol=tol)
    return [batch.reshape(-1, n, n) for batch in batches]


def bruteforce_invariant_distribution(
    sys: ControlSystem,
    xi: StateVector,
    tol: float = 1e-9,
    chains: list[np.ndarray] | None = None,
) -> DistributionBasis:
    """Iterative-removal computation of the maximal invariant distribution.

    Starts from the full pointwise kernel of dy and removes, round by
    round, the directions struck by the next batch of Lie-derivative
    differentials (the removal sets of the invariant-distribution
    algorithm, in their dual-derived hermitian-operator form: naive
    pointwise or global linear-field removal provably over- or
    under-approximates the fixpoint).  Serves as the independent oracle
    for omega_closure_open's Delta*: same limit, different operator
    route, different span machinery, interleaved pointwise removal.
    Pass `chains` (from hermitian_derivative_chain) to amortize across
    states.
    """
    n = sys.space.total_dim
    if chains is None:
        chains = hermitian_derivative_chain(sys, tol)
    x = xi.amplitudes
    basis = realified_nullspace(realify(chains[0] @ x), 2 * n, tol=tol)
    dims = [basis.shape[0]]
    for batch in chains[1:]:
        if basis.shape[0] == 0:
            break
        covs = realify(batch @ x)
        pair = basis @ covs.T                                    # (dim, k)
        keep = realified_nullspace(pair.T, basis.shape[0], tol=tol)
        if keep.shape[0] < basis.shape[0]:
            basis = keep @ basis
        dims.append(basis.shape[0])
    vectors = unrealify(basis)
    return DistributionBasis(
        xi,
        vectors,
        generating_ops=vectors[:, :, None] * x.conj(),       # the outer products |v><xi|
        details={"iteration_dims": dims, "chain_rounds": len(chains)},
    )


def minimal_interaction_distribution(sys: ControlSystem, xi: StateVector, tol: float = 1e-9) -> DistributionBasis:
    """Delta = span{K_I} at xi; errors if the interaction field vanishes there."""
    k_i = eval_field(sys.interaction, xi)
    if np.linalg.norm(k_i) <= sys.interaction_floor(tol):
        raise ValueError("interaction field vanishes at this state")
    return DistributionBasis(xi, k_i[None, :], generating_ops=sys.interaction.matrix[None])


def check_controlled_invariance(delta: DistributionBasis, sys: ControlSystem, tol: float = 1e-9):
    """Pointwise controlled-invariance test [K, Delta](xi) ⊂ Delta(xi) + G(xi).

    Brackets of every generating operator D with every control generator
    A and with the drift must realize into the span of Delta(xi) and
    G(xi), taken in one add_batch.  The field brackets A (D xi) - D (A xi)
    of all pairs come from two stacked products and take one batched
    residual; one at or below tol * max(|D| |A|, 1) vanishes and is
    skipped.  The witness is the first failing pair, controls then the
    drift, generating operators in order within each.

    details["controls_ok"] is the verdict of the control brackets alone,
    the closed-loop condition; when it is False the witness is a control
    pair.  The drift brackets are a separate recorded diagnostic: the
    benchmark systems' environment self-energy escalates bath-quadrature
    directions that no finite control family contains.
    """
    if delta.generating_ops is None:
        raise ValueError("controlled-invariance test needs generating operators")
    if not len(delta.generating_ops):
        return Verdict("controlled_invariance", True, details={"vacuous": True, "controls_ok": True})
    x = delta.base.amplitudes
    n = sys.space.total_dim
    r = sys.n_controls
    labels = [*sys.control_labels, "drift"]
    gens = sys.generator_stack
    ops = delta.generating_ops
    gen_fields = gens @ x                                   # (r + 1, n): A xi
    op_fields = ops @ x                                     # (k, n): D xi
    span = RealSpan(2 * n, tol=tol)
    span.add_batch(realify(np.concatenate([delta.vectors, gen_fields[:r]])))
    # (r + 1, k, n), generator-major: A (D xi) - D (A xi)
    brackets = (gens @ op_fields.T).transpose(0, 2, 1) - (ops @ gen_fields.T).transpose(2, 0, 1)
    rows = realify(brackets.reshape(-1, n))
    scale = np.outer(np.linalg.norm(gens, axis=(1, 2)), np.linalg.norm(ops, axis=(1, 2)))
    live = np.flatnonzero(row_norms(rows) > tol * np.maximum(scale, 1.0).ravel())
    res = span.residuals(rows[live])
    failing = np.flatnonzero(res > tol)
    if failing.size:
        g_idx, d_idx = divmod(int(live[failing[0]]), len(ops))
        return Verdict(
            "controlled_invariance",
            False,
            witness={"kind": "bracket_outside_span", "generator": labels[g_idx], "delta_index": d_idx,
                     "residual": float(res[failing[0]])},
            details={"controls_ok": g_idx == r},
        )
    return Verdict(
        "controlled_invariance", True,
        details={"controls_ok": True, "max_residual": float(res.max(initial=0.0))},
    )
