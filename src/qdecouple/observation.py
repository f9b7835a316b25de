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

C~ comes from a structural certificate when one applies.  pi(A) =
A - tr(A)/n drops the trace and is a Lie homomorphism on u(n) (brackets
are traceless), so su(n) lies in the Lie algebra generated by the
controls and the drift exactly when their traceless parts generate
su(n).  That is read off one spectrum (Altafini, J. Math. Phys. 43, 2051
(2002); Schirmer, Fu & Solomon, PRA 63, 063410 (2001)): two elements X, Y
of su(n) generate su(n) when the transition frequencies lambda_k -
lambda_j, j < k, of H = iX = V diag(lambda) V† are nonzero and pairwise
distinct, and the graph on the n levels with an edge (j, k) wherever
(V† (iY) V)_jk != 0 is connected.  Polynomials in ad_X then separate the
root spaces, one frequency each, and a connected set of root vectors
generates su(n).  X and Y are fixed real combinations (default_rng(0))
of the unit traceless generators and of their first brackets, so both
lie in the generated algebra; the brackets are needed, since the
generators alone can span only degenerate spectra (bait at omega0 = 0
repeats its frequencies exactly).

The test compares computed margins with computed roundoff bounds, never
with tol.  With r = max_j |H v_j - lambda_j v_j| plus V's orthogonality
defect times the spectral radius, each computed level lies within r of
its own eigenvalue, so the smallest frequency and the smallest gap
between sorted frequencies must exceed _SPECTRAL_FACTOR * 4r, and an
edge counts only when |(V† (iY) V)_jk| exceeds _SPECTRAL_FACTOR times the
Davis-Kahan bound 2 |Y|_2 r / (smallest level gap - 2r).  A separation
is a property of the system, not of the tolerance: on bait it shrinks
with the truncation, from 1.7e-4 of the spectral radius at n_env 2 to
1.4e-6 at n_env 5, while 4r stays near 2e-14.  Compared with tol 1e-6 it
would be within a factor 1.4 of a refusal that no roundoff explains.  A
refusal claims nothing (so(n) and sp(n) generators, and the single- and
two-qubit systems, repeat frequencies exactly): C~ then comes from
close_c_tilde, which gives the same subspace.

If su(n) is generated, C~ is closed under ad of all of su(n), whose
adjoint module is absolutely irreducible: the real su(n)-invariant
subspaces of sl(n, C) = su(n) (+) i su(n) are su(n) (x) W for the
subspaces W of R^2.  If moreover tr C = 0 (within tol * ||C||) and the
hermitian parts H1 = (C + C†)/2, H2 = (C - C†)/2i are linearly
independent, C lies in no proper one, so C~ = sl(n, C), of real dimension
2(n^2 - 1), and build_c_tilde returns a fixed orthonormal basis of it.
In every other case (so(n)-type generators, a traced or a hermitian
output, a refused spectrum) it falls back to the realified closure
close_c_tilde, which stays the oracle.  The closure stops at its
fixpoint, inside the 2n^2 real dimensions it runs in.  On a certified C~
the closed-loop containment cannot fail, since a commutator is
traceless: [sl(n, C), A_I] lies in sl(n, C) = C~, so only a closed C~ is
tested for it.

A family of n x n operators is a complex (k, n, n) stack throughout the
package; Operator is kept for single operators.  C~ is an OperatorSpan:
one RealSpan over realified 2n^2 coordinates, whose orthonormal rows
decode to the (k, n, n) stack.  For the closure those rows are exactly
the batches close_real_span decoded; for the certificate they are
realify(_sl_basis(n)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import HilbertSpace, Operator, commutator
from .models import ControlSystem
from .spans import RealSpan, ad_images, close_real_span, realified_rank, realify, row_norms, unrealify

# how build_c_tilde found C~, reported per row as c_tilde_method
SL_CERTIFICATE = "sl(n) certificate"
CLOSURE = "closure"

# the spectral su(n) test certifies only when each margin exceeds its
# computed roundoff bound by this factor
_SPECTRAL_FACTOR = 10.0


@dataclass
class OperatorSpan:
    """A real-linear span of n x n operators, kept as one RealSpan.

    The span's orthonormal rows are realified row-major matrices (2n^2
    reals each); matrices decodes them to the (k, n, n) complex stack on
    demand, so no second copy of the basis is held.
    """

    space: HilbertSpace
    span: RealSpan
    details: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.span.rank

    @property
    def matrices(self) -> np.ndarray:
        """The orthonormal basis as a (k, n, n) complex stack."""
        n = self.space.total_dim
        return unrealify(self.span.q).reshape(-1, n, n)

    def residual(self, op: Operator) -> float:
        """Relative realified least-squares residual of op against the span."""
        return self.span.residual(realify(op.matrix.ravel()))


@dataclass
class Verdict:
    """Outcome of a decouplability check with a machine-checked witness."""

    name: str
    ok: bool
    witness: dict | None = None
    details: dict = field(default_factory=dict)


def close_c_tilde(sys: ControlSystem, tol: float = 1e-9) -> OperatorSpan:
    """Stable ad-closure of the output operator under controls and drift.

    Iterates span <- span + [A, span] for A over the control generators and
    the drift until the real span stabilizes (the fixpoint does not depend
    on their order), in realified 2n^2 coordinates, so it stops at most
    2n^2 dimensions in.  The kernel behind build_c_tilde's fallback, and
    the oracle for its certificate.
    """
    seed = sys.output_op.matrix.ravel()
    seed = seed / np.linalg.norm(seed)
    span, _, rounds = close_real_span(seed[None, :], sys.generator_stack, tol=tol)
    return OperatorSpan(sys.space, span, details={"method": CLOSURE, "rounds": rounds})


def _spectral_pair(generators: np.ndarray, tol: float) -> np.ndarray:
    """X and Y of the spectral test, as a (2, n, n) stack.

    Real combinations, with default_rng(0) coefficients, of the traceless
    parts of the generators, each scaled to unit norm, and of their first
    brackets.
    """
    n = generators.shape[-1]
    traceless = generators - (np.trace(generators, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    norms = np.linalg.norm(traceless, axis=(1, 2))
    # a generator that is a multiple of the identity leaves only roundoff
    keep = norms > tol * np.linalg.norm(generators, axis=(1, 2))
    units = traceless[keep] / norms[keep, None, None]
    stack = np.concatenate([units, ad_images(units, units)])
    coefficients = np.random.default_rng(0).normal(size=(2, len(stack)))
    return np.tensordot(coefficients, stack, axes=1)


def _spectral_margins(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """(separation, its bound, weakest edge, its bound) of the spectral test on X and Y.

    The separation is the smallest transition frequency of H = iX or the
    smallest gap between two of them, whichever is less; its bound is 4r
    (module docstring).  The weakest edge is the largest t for which the
    edges |(V† (iY) V)_jk| > t connect the levels: the weakest edge of a
    maximum spanning tree (Prim, on the dense n x n weights).  Its bound is
    the Davis-Kahan bound, infinite when the levels are not resolved.
    """
    h = 1j * x
    levels, v = np.linalg.eigh(h)
    n = len(levels)
    r = float(np.linalg.norm(h @ v - v * levels, axis=0).max()
              + np.linalg.norm(v.conj().T @ v - np.eye(n), 2) * np.abs(levels).max())
    upper, lower = np.triu_indices(n, 1)
    frequencies = np.sort(levels[lower] - levels[upper])
    separation = float(np.diff(frequencies, prepend=0.0).min())
    gap = frequencies[0]
    edge_bound = 2 * np.linalg.norm(y, 2) * r / (gap - 2 * r) if gap > 2 * r else np.inf
    weights = np.abs(v.conj().T @ (1j * y) @ v)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    best = weights[0]                                      # strongest edge from the tree to each level
    weakest = np.inf
    for _ in range(n - 1):
        j = int(np.argmax(np.where(reached, -1.0, best)))
        weakest = min(weakest, best[j])
        reached[j] = True
        best = np.maximum(best, weights[j])
    return separation, 4 * r, float(weakest), float(edge_bound)


def _generates_su(generators: np.ndarray, tol: float) -> bool:
    """True when the spectral test certifies that the traceless parts of a (k, n, n) stack generate su(n).

    Both margins must exceed their roundoff bounds by _SPECTRAL_FACTOR; a
    refusal does not mean su(n) is not generated.
    """
    separation, separation_bound, edge, edge_bound = _spectral_margins(*_spectral_pair(generators, tol))
    return separation > _SPECTRAL_FACTOR * separation_bound and edge > _SPECTRAL_FACTOR * edge_bound


def _sl_certificate_applies(sys: ControlSystem, tol: float) -> bool:
    """The three conditions under which C~ = sl(n, C) (module docstring)."""
    c = sys.output_op.matrix
    c_norm = np.linalg.norm(c)
    if c_norm == 0.0 or abs(np.trace(c)) > tol * c_norm:
        return False
    h1 = (c + c.conj().T) / 2
    h2 = (c - c.conj().T) / 2j
    return realified_rank([h1, h2], tol=tol) == 2 and _generates_su(sys.generator_stack, tol)


def _sl_basis(n: int) -> np.ndarray:
    """Fixed orthonormal real basis of sl(n, C), as a (2(n^2 - 1), n, n) stack.

    E_kl and i E_kl for k != l (row-major), then d_j and i d_j for the
    orthonormal traceless diagonal d_j = (E_00 + ... + E_{j-1,j-1} - j E_jj)
    / sqrt(j(j + 1)), j = 1..n-1.  The realified rows are orthonormal.
    """
    k, l = np.nonzero(~np.eye(n, dtype=bool))
    off = np.zeros((k.size, n, n), dtype=complex)
    off[np.arange(k.size), k, l] = 1.0
    j = np.arange(1, n)[:, None]
    diag = np.where(np.arange(n) < j, 1.0, 0.0) - j * (np.arange(n) == j)
    diag = diag / np.sqrt(j * (j + 1))
    diag_mats = np.zeros((n - 1, n, n), dtype=complex)
    diag_mats[:, np.arange(n), np.arange(n)] = diag
    pairs = [np.stack([m, 1j * m], axis=1).reshape(-1, n, n) for m in (off, diag_mats)]
    return np.concatenate(pairs)


def build_c_tilde(sys: ControlSystem, tol: float = 1e-9) -> OperatorSpan:
    """C~, the ad-closure of the output under the controls and the drift.

    When the sl(n) certificate of the module docstring applies, returns
    the fixed orthonormal basis _sl_basis(n) with details
    {"method": SL_CERTIFICATE}; no closure runs.  Otherwise returns
    close_c_tilde (details {"method": CLOSURE, "rounds": ...}).  Either way
    the span is the same subspace.
    """
    n = sys.space.total_dim
    if _sl_certificate_applies(sys, tol):
        mats = _sl_basis(n)
        span = RealSpan(2 * n * n, tol=tol)
        span.q = realify(mats.reshape(len(mats), n * n))
        return OperatorSpan(sys.space, span, details={"method": SL_CERTIFICATE})
    return close_c_tilde(sys, tol=tol)


def check_open_loop(sys: ControlSystem, c_tilde: OperatorSpan, tol: float = 1e-9) -> Verdict:
    """Case I: every element of C~ (build_c_tilde(sys)) commutes with the interaction generator.

    Decodes one element at a time and stops at the first that fails.
    """
    a = sys.interaction.matrix
    scale = max(sys.interaction.norm(), 1.0)
    n = sys.space.total_dim
    for k, row in enumerate(c_tilde.span.q):
        b = unrealify(row).reshape(n, n)
        nrm = float(np.linalg.norm(b @ a - a @ b))
        if nrm > tol * scale * max(np.linalg.norm(b), 1.0):
            witness = {"kind": "ctilde_interaction_commutator", "basis_index": k, "norm": nrm}
            return Verdict("open_loop", False, witness=witness)
    return Verdict("open_loop", True)


def check_closed_loop_necessary(sys: ControlSystem, c_tilde: OperatorSpan, tol: float = 1e-9) -> Verdict:
    """Case II necessary conditions: [C, A_I] = 0 and [C~, A_I] subset C~ (c_tilde = build_c_tilde(sys))."""
    a_i = sys.interaction
    c_norm = commutator(sys.output_op, a_i).norm()
    if c_norm > tol * max(a_i.norm(), 1.0):
        return Verdict(
            "closed_loop_necessary",
            False,
            witness={"kind": "output_interaction_commutator", "norm": c_norm},
        )
    if c_tilde.details.get("method") == SL_CERTIFICATE:
        # a commutator is traceless, so [sl(n, C), A_I] lies in sl(n, C) = C~
        return Verdict("closed_loop_necessary", True)
    mats = c_tilde.matrices
    # [B_k, A_I] = -ad_{A_I}(B_k); norms and membership residuals are sign-blind
    brackets = realify(ad_images(a_i.matrix[None], mats).reshape(len(mats), -1))
    live = np.flatnonzero(row_norms(brackets) > tol * max(a_i.norm(), 1.0))
    failing = np.flatnonzero(c_tilde.span.residuals(brackets[live]) > tol)
    if failing.size:
        k = int(live[failing[0]])
        # the witness residual by the per-element formula, so reports keep
        # their bytes; both formulas are ||P_perp [B_k, A_I]|| / ||[B_k, A_I]||
        # against the same orthonormal basis, so the witness can be at most
        # tol only when the failing batched residual was within rounding of tol
        residual = c_tilde.residual(commutator(Operator(sys.space, mats[k]), a_i))
        return Verdict(
            "closed_loop_necessary",
            False,
            witness={"kind": "ctilde_containment", "basis_index": k, "residual": residual},
        )
    return Verdict("closed_loop_necessary", True)
