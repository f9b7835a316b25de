"""Dense complex operator algebra for coupled qubit/oscillator systems.

Conventions
-----------
Basis ordering follows the tensor-factor order of the HilbertSpace.  The
qubit basis is (|0>, |1>) with

    sigma_z = |1><1| - |0><0|,   sigma_x = |0><1| + |1><0|,
    sigma_y = i|0><1| - i|1><0|,

so [sigma_x, sigma_y] = 2i sigma_z and cyclic.  Dynamics generators are
skew-hermitian, A = -iH with hbar = 1; Hamiltonians are kept hermitian and
converted once at system assembly (`Operator.skew`), and is_hermitian
checks each generator where it enters; `Operator.kind` is not propagated.
Truncated ladder operators are the top-left N x N blocks of the infinite
matrices: b|n> = sqrt(n)|n-1>, b†|n> = sqrt(n+1)|n+1>, both cut off at
level N-1.

Real-linear rank ("realified" rank) is used throughout: a complex vector
and its i-multiple count as two independent real directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import zheevd

from .spans import close_real_span, skew_hermitian_coordinates

DEFAULT_TOL = 1e-9

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered tensor product of labeled finite-dimensional factors."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple((str(l), int(d)) for l, d in self.factors))
        labels = [l for l, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels: {labels}")
        if any(d < 1 for _, d in self.factors):
            raise ValueError("factor dimensions must be positive")

    @property
    def total_dim(self) -> int:
        out = 1
        for _, d in self.factors:
            out *= d
        return out

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.factors)


def is_hermitian(matrix: np.ndarray, tol: float = DEFAULT_TOL, skew: bool = False) -> bool:
    """max|M - M†| (max|M + M†| with skew) <= tol * max(1, max|M|).

    The package's one hermiticity decision; the zero matrix passes both tests.
    A (b, q, q) stack is the block-diagonal matrix of its blocks: each block
    is tested, against the largest entry of them all.
    """
    matrix = np.asarray(matrix)
    adjoint = matrix.conj().swapaxes(-1, -2)
    gap = matrix + adjoint if skew else matrix - adjoint
    return bool(np.abs(gap).max() <= tol * max(1.0, np.abs(matrix).max()))


@dataclass
class Operator:
    """Dense operator on a HilbertSpace.

    kind is an assertion checked by is_hermitian at construction ("general"
    asserts nothing).  It is not propagated: derived operators are "general".
    """

    space: HilbertSpace
    matrix: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.space.total_dim
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({n}, {n})")
        if self.kind not in ("hermitian", "skew_hermitian", "general"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind != "general" and not is_hermitian(self.matrix, skew=self.kind == "skew_hermitian"):
            raise ValueError(f"matrix tagged {self.kind} is not {self.kind.replace('_', '-')}")

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def skew(self) -> "Operator":
        """Return -i * self; maps a hermitian Hamiltonian to its generator."""
        return Operator(self.space, -1j * self.matrix)

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def __add__(self, other: "Operator") -> "Operator":
        _require_same_space(self, other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        _require_same_space(self, other)
        return Operator(self.space, self.matrix - other.matrix)

    def __mul__(self, c: float) -> "Operator":
        return Operator(self.space, c * self.matrix)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        _require_same_space(self, other)
        return Operator(self.space, self.matrix @ other.matrix)


def _require_same_space(a: Operator, b: Operator) -> None:
    if a.space != b.space:
        raise ValueError("operators live on different Hilbert spaces")


@dataclass
class StateVector:
    """Unit-norm pure state on a HilbertSpace."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).ravel()
        n = self.space.total_dim
        if self.amplitudes.shape != (n,):
            raise ValueError(f"amplitude length {self.amplitudes.shape} != {n}")
        nrm = np.linalg.norm(self.amplitudes)
        if abs(nrm - 1.0) > 1e-6:
            raise ValueError(f"state norm {nrm} is not 1 (normalize first)")


def normalize(space: HilbertSpace, amplitudes: np.ndarray) -> StateVector:
    amplitudes = np.asarray(amplitudes, dtype=complex).ravel()
    nrm = np.linalg.norm(amplitudes)
    if nrm == 0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(space, amplitudes / nrm)


def basis_state(space: HilbertSpace, occupations: Sequence[int]) -> StateVector:
    """Product basis state |n_1 n_2 ...> in factor order."""
    if len(occupations) != len(space.factors):
        raise ValueError("need one occupation per factor")
    idx = 0
    for (label, d), n in zip(space.factors, occupations):
        if not 0 <= n < d:
            raise ValueError(f"occupation {n} out of range for factor {label!r}")
        idx = idx * d + n
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[idx] = 1.0
    return StateVector(space, amps)


def random_state(space: HilbertSpace, rng: np.random.Generator) -> StateVector:
    z = rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim)
    return normalize(space, z)


def kron_factors(space: HilbertSpace, blocks: dict[str, np.ndarray]) -> np.ndarray:
    """Kronecker product over factors, identity where no block is given."""
    for label in blocks:
        if label not in space.labels:
            raise ValueError(f"unknown factor label {label!r}")
    out = np.array([[1.0 + 0j]])
    for label, d in space.factors:
        blk = blocks.get(label, np.eye(d, dtype=complex))
        blk = np.asarray(blk, dtype=complex)
        if blk.shape != (d, d):
            raise ValueError(f"block for {label!r} has shape {blk.shape}, need ({d}, {d})")
        # np.kron's products, formed by one broadcast multiply
        out = (out[:, None, :, None] * blk[None, :, None, :]).reshape(out.shape[0] * d, -1)
    return out


def embed_product(space: HilbertSpace, blocks: dict[str, np.ndarray], kind: str | None = None) -> Operator:
    """Operator acting as the given blocks on named factors, identity elsewhere; kind as in Operator."""
    return Operator(space, kron_factors(space, blocks), kind or "general")


def commutator(a: Operator, b: Operator) -> Operator:
    """Matrix commutator [a, b] = ab - ba."""
    _require_same_space(a, b)
    return Operator(a.space, a.matrix @ b.matrix - b.matrix @ a.matrix)


def ladder_pair(n_levels: int) -> tuple[Operator, Operator]:
    """Truncated lowering/raising pair (b, b†) on an n_levels oscillator "env".

    b|n> = sqrt(n)|n-1> and b†|n> = sqrt(n+1)|n+1>, zero past the top
    level; b† is exactly the conjugate transpose of b, so [b, b†] = I on
    levels 0..n_levels-2 and the truncation shows up only at the top.
    """
    if n_levels < 2:
        raise ValueError("need at least two oscillator levels")
    space = HilbertSpace((("env", n_levels),))
    b = np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), 1).astype(complex)
    return Operator(space, b), Operator(space, b.conj().T)


def field_quadrature(w: complex, n_levels: int) -> Operator:
    """Hermitian bath quadrature w b† + w* b on an n_levels oscillator."""
    b, bd = ladder_pair(n_levels)
    return Operator(b.space, w * bd.matrix + np.conj(w) * b.matrix)


def number_operator(n_levels: int) -> Operator:
    b, bd = ladder_pair(n_levels)
    return Operator(b.space, bd.matrix @ b.matrix)


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (columns) of a hermitian matrix.

    LAPACK's zheevd on the lower triangle, as np.linalg.eigh runs it, called
    without that wrapper's per-call checks.  v is copied to C order, the
    layout np.linalg.eigh returns: products with a Fortran-ordered v round
    differently.
    """
    w, v, info = zheevd(h, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"zheevd failed (info={info})")
    return w, np.ascontiguousarray(v)


def unitary_stepper(a_mat: np.ndarray) -> Callable[[np.ndarray, float], np.ndarray]:
    """(xi, t) -> exp(t a) xi for a skew-hermitian matrix, from one eigh of i*a; V† and -iw are formed once."""
    w, v = _eigh(1j * a_mat)
    rate, v_h = -1j * w, v.conj().T

    def step(xi: np.ndarray, t: float) -> np.ndarray:
        return v @ (np.exp(rate * t) * (v_h @ xi))

    return step


def unitary_exponential(a_mat: np.ndarray) -> Callable[[float], np.ndarray]:
    """t -> exp(t a) for a skew-hermitian matrix (else ValueError), from one eigh of i*a; exp(-t a) is its adjoint."""
    if not is_hermitian(a_mat, skew=True):
        raise ValueError("unitary_exponential expects a skew-hermitian matrix")
    w, v = _eigh(1j * a_mat)
    return lambda t: (v * np.exp(-1j * w * t)) @ v.conj().T


def lie_closure(generators: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Real basis of the smallest commutator-closed real span of a generator stack.

    generators is a (k, n, n) stack, or a block-diagonal (k, b, q, q) stack
    held as its diagonal blocks; the basis comes back in the same form, as
    a complex (L, n, n) or (L, b, q, q) stack, exactly skew-hermitian and
    orthonormal in the Frobenius inner product; empty when every generator
    is zero.  Closes the span under ad of the generator stack (left-normed
    bracket words span the generated Lie algebra, so this reaches the full
    closure).  The generators are skew-hermitian (each block is checked),
    so the closure stays in u(n) = i*Herm, or in u(q)^b, and runs in the
    n^2 (b q^2) hermitian coordinates of spans.skew_hermitian_coordinates:
    an isometry, so the ranks and the closure order are the realified ones,
    with rows half as long.  A unitary change of basis that makes every
    generator block-diagonal preserves brackets and Frobenius products, so
    the blocks' closure has the dense closure's dimension in b q^2 reals in
    place of n^2 = b^2 q^2.  It stops at its fixpoint, L <= n^2; on a
    truncated environment the growth of L with the truncation is the
    finite-truncation signal.
    """
    shape = generators.shape[1:]
    if not all(is_hermitian(g, tol, skew=True) for g in generators):
        raise ValueError("lie_closure expects skew-hermitian generators")
    seeds = np.array([g.ravel() / nrm for g in generators if (nrm := np.linalg.norm(g)) > 0])
    if seeds.size == 0:
        return np.zeros((0, *shape), dtype=complex)
    coords = skew_hermitian_coordinates(shape[-1], math.prod(shape[:-2]))
    _, batches, _ = close_real_span(seeds, generators, tol=tol, coords=coords)
    return np.vstack(batches).reshape(-1, *shape)
