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
2(n^2 - 1).  build_c_tilde then returns a description, not a basis: an
OperatorSpan with no rows, whose elements are built one n x n matrix at
a time in a fixed orthonormal order (_sl_element).  In every other case
(so(n)-type generators, a traced or a hermitian output, a refused
spectrum) it falls back to the realified closure close_c_tilde, which
stays the oracle.  The closure stops at its fixpoint, inside the 2n^2
real dimensions it runs in; before it starts, build_c_tilde bounds its
peak (_closure_peak_bytes) and raises ClosureTooLarge where that exceeds
the host's physical memory.  On a certified C~ the closed-loop
containment cannot fail, since a commutator is traceless: [sl(n, C),
A_I] lies in sl(n, C) = C~, so only a closed C~ is tested for it.

A family of n x n operators is a complex (k, n, n) stack throughout the
package; Operator is kept for single operators.  C~ is an OperatorSpan.
A closed C~ is one RealSpan over realified 2n^2 coordinates, whose
orthonormal rows are the batches close_real_span decoded and decode to
the (k, n, n) stack; a certified C~ holds no array of C~'s size at all.

C~ also gives the invariant-distribution route its codistribution:
Omega, the closure of C and -iC, is C~ + iC~ (tangent.omega_closure_open).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .algebra import HilbertSpace, Operator, _eigh, commutator
from .models import ControlSystem
from .spans import RealSpan, _serial_blas, ad_images, close_real_span, realified_rank, realify, row_norms, unrealify

# how build_c_tilde found C~, reported per row as c_tilde_method
SL_CERTIFICATE = "sl(n) certificate"
CLOSURE = "closure"

# the spectral su(n) test certifies only when each margin exceeds its
# computed roundoff bound by this factor
_SPECTRAL_FACTOR = 10.0


@dataclass
class OperatorSpan:
    """A real-linear span of n x n operators: C~, or a family of operators.

    With a RealSpan, the span's orthonormal rows are realified row-major
    matrices (2n^2 reals each); matrices decodes them to the (k, n, n)
    complex stack on demand, so no second copy of the basis is held.
    Without one (span None) it is a certified C~ = sl(n, C): it holds no
    rows, its dim is 2(n^2 - 1), and elements builds its orthonormal
    basis one matrix at a time.
    """

    space: HilbertSpace
    span: RealSpan | None
    details: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        if self.span is None:
            n = self.space.total_dim
            return 2 * (n * n - 1)
        return self.span.rank

    @property
    def matrices(self) -> np.ndarray:
        """The orthonormal basis as a (k, n, n) complex stack; a certified C~ has none to decode."""
        if self.span is None:
            raise ValueError("a certified C~ = sl(n, C) holds no rows; iterate elements()")
        n = self.space.total_dim
        return unrealify(self.span.q).reshape(-1, n, n)

    def elements(self) -> Iterator[np.ndarray]:
        """The orthonormal basis, one n x n complex matrix at a time."""
        n = self.space.total_dim
        if self.span is None:
            return (_sl_element(n, k) for k in range(self.dim))
        return (unrealify(row).reshape(n, n) for row in self.span.q)

    def residual(self, op: Operator) -> float:
        """Relative realified least-squares residual of op against the span.

        On sl(n, C) the part outside the span is the trace part, so the
        residual is |tr M| / (sqrt(n) ||M||).
        """
        m = op.matrix
        if self.span is None:
            nrm = float(np.linalg.norm(m))
            return abs(np.trace(m)) / (math.sqrt(self.space.total_dim) * nrm) if nrm else 0.0
        return self.span.residual(realify(m.ravel()))


@dataclass
class Verdict:
    """Outcome of a decouplability check with a machine-checked witness."""

    name: str
    ok: bool
    witness: dict | None = None
    details: dict = field(default_factory=dict)


def unit_output(sys: ControlSystem) -> np.ndarray:
    """The output operator raveled to unit norm, the seed of every closure of C; ValueError when C = 0."""
    c = sys.output_op.matrix.ravel()
    norm = np.linalg.norm(c)
    if norm == 0.0:
        raise ValueError("the output operator vanishes: there is no output to decouple")
    return c / norm


def close_c_tilde(sys: ControlSystem, tol: float = 1e-9) -> OperatorSpan:
    """Stable ad-closure of the output operator under controls and drift.

    Iterates span <- span + [A, span] for A over the control generators and
    the drift until the real span stabilizes (the fixpoint does not depend
    on their order), in realified 2n^2 coordinates, so it stops at most
    2n^2 dimensions in.  The kernel behind build_c_tilde's fallback, and
    the oracle for its certificate.
    """
    span, _, rounds = close_real_span(unit_output(sys)[None, :], sys.generator_stack, tol=tol)
    return OperatorSpan(sys.space, span, details={"method": CLOSURE, "rounds": rounds})


class ClosureTooLarge(MemoryError):
    """build_c_tilde's fallback closure cannot fit in physical memory; raised before it starts."""


def _physical_memory_bytes() -> int | None:
    """The host's physical memory, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _c_tilde_dim_bound(sys: ControlSystem, tol: float) -> int:
    """An upper bound on the real dimension of C~, read off the tensor structure.

    The last tensor factor (dimension f, the rest r = n / f) splits off
    when the output and every generator are local sums M_r (x) I + I (x)
    M_f (within tol * ||M||).  Brackets of local sums are local sums, so
    C~ then lies in gl(r) (x) I + I (x) gl(f): 2(r^2 + f^2 - 1) real
    dimensions; where the output's M_f vanishes (C = C_r (x) I), every
    bracket is [C_r, M_r] (x) I, so C~ lies in gl(r) (x) I: 2r^2, whatever
    f is.  The single- and two-qubit systems split their environment off
    with such an output (8 and 32); the bait and restructured systems
    couple it.  Otherwise the bound is the 2n^2 real dimensions of gl(n, C).
    """
    n = sys.space.total_dim
    f = sys.space.factors[-1][1]
    r = n // f
    stack = np.concatenate([sys.output_op.matrix[None], sys.generator_stack])
    blocks = stack.reshape(-1, r, f, r, f)
    # M_r and M_f from the partial traces; the identity part is split so that
    # M_r (x) I + I (x) M_f keeps tr M
    rest = np.einsum("kajbj->kab", blocks) / f
    last = np.einsum("kiaib->kab", blocks) / r
    last -= (np.trace(stack, axis1=1, axis2=2) / n)[:, None, None] * np.eye(f)
    local = np.einsum("kab,ij->kaibj", rest, np.eye(f)) + np.einsum("ab,kij->kaibj", np.eye(r), last)
    gaps = np.linalg.norm((blocks - local).reshape(len(stack), -1), axis=1)
    if np.all(gaps <= tol * np.linalg.norm(stack, axis=(1, 2))):
        return 2 * r * r if np.linalg.norm(last[0]) <= tol * np.linalg.norm(stack[0]) else 2 * (r * r + f * f - 1)
    return 2 * n * n


def _closure_peak_bytes(sys: ControlSystem, tol: float) -> int:
    """Bytes close_c_tilde can hold at its peak: 5k + 3 realified rows per dimension of C~.

    A row is 2n^2 floats.  Per dimension the closure can reach
    (_c_tilde_dim_bound), a round holds the basis and its stacked copy
    and the frontier (3 rows), and for each of the k generators the
    brackets, their realified copy, the live copy add_batch projects and
    two temporaries of its projection (5 rows).  tracemalloc reads 7.0
    and 8.2 of these C~ units (2(n^2 - 1) rows) for bait at n_env 2 and 3
    (k = 10), 37 for restructured at n_env 4 (k = 25) and 39 for nine
    random generators at n = 16, under the 53, 53, 128 and 48 estimated.
    """
    n = sys.space.total_dim
    return (5 * len(sys.generator_stack) + 3) * _c_tilde_dim_bound(sys, tol) * 2 * n * n * 8


def _spectral_pair(generators: np.ndarray, tol: float) -> np.ndarray:
    """X and Y of the spectral test, as a (2, n, n) stack.

    Real combinations, with default_rng(0) coefficients, of the traceless
    parts of the generators, each scaled to unit norm, and of their first
    brackets: sum_i c_i U_i + sum_ij c_ij [U_i, U_j].  By bilinearity the
    bracket part is sum_i [U_i, sum_j c_ij U_j], k brackets instead of k^2.
    """
    n = generators.shape[-1]
    traceless = generators - (np.trace(generators, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    norms = np.linalg.norm(traceless, axis=(1, 2))
    # a generator that is a multiple of the identity leaves only roundoff
    keep = norms > tol * np.linalg.norm(generators, axis=(1, 2))
    units = traceless[keep] / norms[keep, None, None]
    k = len(units)
    coefficients = np.random.default_rng(0).normal(size=(2, k + k * k))
    pair = np.tensordot(coefficients[:, :k], units, axes=1)
    for x, c in zip(pair, coefficients[:, k:].reshape(2, k, k)):
        for u, w in zip(units, np.tensordot(c, units, axes=1)):
            x += u @ w - w @ u
    return pair


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
    with _serial_blas():                                   # at one thread: spans module docstring
        levels, v = _eigh(h)
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


def _sl_element(n: int, k: int) -> np.ndarray:
    """Element k of the fixed orthonormal real basis of sl(n, C), as an n x n matrix.

    Elements 2p and 2p + 1 are B_p and i B_p, where B_p runs over E_jl for
    j != l (row-major), then over the orthonormal traceless diagonals
    d_j = (E_00 + ... + E_{j-1,j-1} - j E_jj) / sqrt(j(j + 1)),
    j = 1..n-1.  Realified, the elements are orthonormal.
    """
    p, imaginary = divmod(k, 2)
    m = np.zeros((n, n), dtype=complex)
    if p < n * (n - 1):
        j, c = divmod(p, n - 1)
        m[j, c + (c >= j)] = 1.0
    else:
        j = p - n * (n - 1) + 1
        levels = np.arange(n)
        m[levels, levels] = (np.where(levels < j, 1.0, 0.0) - j * (levels == j)) / np.sqrt(j * (j + 1))
    return 1j * m if imaginary else m


def build_c_tilde(sys: ControlSystem, tol: float = 1e-9) -> OperatorSpan:
    """C~, the ad-closure of the output under the controls and the drift.

    When the sl(n) certificate of the module docstring applies, returns
    the rowless OperatorSpan of sl(n, C) with details
    {"method": SL_CERTIFICATE}; no closure runs.  Otherwise returns
    close_c_tilde (details {"method": CLOSURE, "rounds": ...}), after
    raising ClosureTooLarge if its peak bound exceeds physical memory.
    Either way the span is the same subspace.
    """
    if _sl_certificate_applies(sys, tol):
        return OperatorSpan(sys.space, None, details={"method": SL_CERTIFICATE})
    need = _closure_peak_bytes(sys, tol)
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise ClosureTooLarge(
            f"the {sys.scenario} C~ closure (the sl(n) certificate does not apply) needs about "
            f"{need / 2**30:.1f} GiB, more than the {have / 2**30:.1f} GiB of physical memory"
        )
    return close_c_tilde(sys, tol=tol)


def check_open_loop(sys: ControlSystem, c_tilde: OperatorSpan, tol: float = 1e-9) -> Verdict:
    """Case I: every element of C~ (build_c_tilde(sys)) commutes with the interaction generator.

    Builds one element at a time and stops at the first that fails.
    """
    a = sys.interaction.matrix
    scale = max(sys.interaction.norm(), 1.0)
    for k, b in enumerate(c_tilde.elements()):
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
