"""Real-linear span bookkeeping over realified complex vectors.

Complex vectors (states, vectorized operators) are compared for *real*
linear independence: v and i*v count as two directions.  A RealSpan keeps
an orthonormal set of realified rows and answers membership queries with
relative least-squares residuals.  RealSpan keeps new directions by this
rank policy: rows at or below an absolute floor are zero, one Gram-Schmidt
pass rejects rows whose residual relative to their norm is at most tol,
a second pass runs on the survivors only, and a column-pivoted QR of
those keeps the columns before the first |R_jj| <= tol * |R_00|.  That
cut, leading_rank, is the package's one rank decision: every QR or SVD
that decides a rank hands it its diagonal, with its own tol and floor.
The floor and the two passes are one entry projection,
RealSpan._project_entries, shared by add_batch and add_in_order.  _svd
(dgesdd) is the package's one SVD: realified_nullspace (behind
CodistributionBasis's rank and Delta*), row_rank (the rank of real rows,
behind realified_rank and FeedbackLaw.beta_singular) and synthesize.

close_real_span is the one closure routine: it closes a seed set of
n x n matrices under ad of a (k, n, n) generator stack until the span
stabilizes and hands back the new directions round by round, so callers
that need the growth history (derivative chains) and callers that need
one basis (C~, the control Lie algebra) share it.
ad_images is the one bracket kernel behind its rounds and every other
stacked bracket of the package.

The caller picks the real coordinates the span is kept in.  The default
realifies a complex vector to [Re | Im] (2m reals for m complex entries),
which suits any complex span, C~ among them.  A closure that stays inside
u(n) = i*Herm, the Lie closure of skew-hermitian generators, can use
skew_hermitian_coordinates instead: n^2 reals per n x n matrix (the
diagonal of H = -iA, then sqrt(2)*Re and sqrt(2)*Im of its upper
triangle).  That map is an isometry onto R^(n^2), so every residual,
every rank and the closure order are the ones the realified coordinates
give, with rows half as long.  algebra.lie_closure, behind the `rank`
command's control algebra, runs in them.  observation.build_c_tilde
closes no Lie algebra: it certifies C~ = sl(n, C) from one spectrum, and
where the certificate does not apply it runs the realified closure of C~.

close_real_span runs its BLAS on one thread (_serial_blas).  NumPy and
SciPy each bundle an OpenBLAS with its own thread pool; a closure
alternates NumPy's products with SciPy's pivoted QR, whose BLAS-2 calls
gain nothing from threads, and the two pools' waiting workers compete for
the cores: bait's control algebra took 0.20-0.25 s at two threads and
0.05-0.07 s at one on 2 vCPUs, and its kept basis differed in the last
bits with the thread count.  The scope sets both libraries to one thread
and back; nothing is set at import, and where no setter is found it does
nothing.  It also covers the eigh of commutant_basis and of the spectral
su(n) test (SciPy's zheevd at two threads slowed NumPy's products after
it), hsb_generation_search and the `rank` command's per-state data.  The
hand loop of omega_closure_closed (at most a tenth faster at one thread)
and the closed loop's per-step add_batch and eigh (7.6 us per scope) stay
unscoped.

new_direction is the one single-row test: RealSpan.add_in_order runs it
on each survivor of a batch whose order decides what is kept, and
feedback.build_frame on each frame candidate.  hsb_generation_search
selects each word length's bracket words by one add_in_order call, in
skew_hermitian_coordinates.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np
import scipy
from scipy.linalg.lapack import dgeqp3, dgesdd, dgesdd_lwork, dorgqr

# LAPACK block size behind the explicit workspaces of dgeqp3 and dorgqr
_QR_BLOCK = 64


def realify(z: np.ndarray) -> np.ndarray:
    """Map a complex vector (or batch of row vectors) to [Re | Im]."""
    z = np.asarray(z)
    return np.concatenate([z.real, z.imag], axis=-1)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm(rows, axis=1) for real rows: the same reduction, without its dispatch."""
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def unrealify(r: np.ndarray) -> np.ndarray:
    """Inverse of realify on the last axis."""
    r = np.asarray(r, dtype=float)
    m = r.shape[-1] // 2
    return r[..., :m] + 1j * r[..., m:]


class Coordinates(NamedTuple):
    """A real-linear isometry from complex rows to real rows, and its inverse."""

    encode: Callable[[np.ndarray], np.ndarray]    # (B, m) complex -> (B, d) real
    decode: Callable[[np.ndarray], np.ndarray]    # (B, d) real -> (B, m) complex


REALIFIED = Coordinates(realify, unrealify)


def skew_hermitian_coordinates(n: int) -> Coordinates:
    """Coordinates of row-major vectorized n x n skew-hermitian matrices.

    A = iH is encoded as the diagonal of H, then sqrt(2)*Re and sqrt(2)*Im
    of the strict upper triangle of H (row-major), n^2 reals in all.  The
    Euclidean norm of the code equals the Frobenius norm of A, so the map
    is an isometry of u(n) onto R^(n^2); decoding returns exactly
    skew-hermitian matrices.  Only the diagonal and upper triangle are
    read, so the input must be skew-hermitian.
    """
    upper, lower = np.triu_indices(n, 1)
    diag = np.arange(n) * (n + 1)
    up = upper * n + lower
    low = lower * n + upper
    root2 = math.sqrt(2.0)

    def encode(rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(rows)                          # H = -iA = Im A - i Re A, read off A
        z = rows[:, up]
        return np.concatenate([rows[:, diag].imag, root2 * z.imag, -root2 * z.real], axis=1)

    def decode(codes: np.ndarray) -> np.ndarray:
        codes = np.atleast_2d(codes)
        h = np.zeros((codes.shape[0], n * n), dtype=complex)
        h[:, diag] = codes[:, :n]
        z = (codes[:, n:n + up.size] + 1j * codes[:, n + up.size:]) / root2
        h[:, up] = z
        h[:, low] = z.conj()
        return 1j * h

    return Coordinates(encode, decode)


class RealSpan:
    """Growing orthonormal basis of a real subspace of R^dim."""

    def __init__(self, dim: int, tol: float = 1e-9):
        self.dim = dim
        self.tol = tol
        self.q = np.zeros((0, dim))

    @property
    def rank(self) -> int:
        return self.q.shape[0]

    def project_out(self, rows: np.ndarray) -> np.ndarray:
        """Residual of rows after removing their component in the span."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if self.rank == 0:
            return rows.copy()
        # two Gram-Schmidt passes for numerical safety
        res = rows - (rows @ self.q.T) @ self.q
        res = res - (res @ self.q.T) @ self.q
        return res

    def residual(self, row: np.ndarray) -> float:
        """Relative membership residual; 0.0 for a (near-)zero input."""
        row = np.asarray(row, dtype=float).ravel()
        nrm = math.sqrt(np.dot(row, row))                  # np.linalg.norm's formula
        if nrm == 0.0:
            return 0.0
        res = self.project_out(row[None, :])[0]
        return math.sqrt(np.dot(res, res)) / nrm

    def residuals(self, rows: np.ndarray) -> np.ndarray:
        """Relative membership residual of each row of a batch, by one projection; 0.0 for a zero row.

        The same ratio as residual, with the norms reduced by row_norms, so a
        value can differ from residual's in the last bits.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        norms = row_norms(rows)
        return np.divide(row_norms(self.project_out(rows)), norms, out=np.zeros_like(norms), where=norms > 0.0)

    def add(self, row: np.ndarray) -> bool:
        """Add one vector; returns True if it increased the rank."""
        kept = self.add_batch(np.asarray(row, dtype=float)[None, :])
        return kept.shape[0] > 0

    def add_batch(self, rows: np.ndarray, floor: float | None = None) -> np.ndarray:
        """Add a batch of rows; returns the orthonormal new directions kept.

        The rows _project_entries keeps (floor default tol) go to a
        column-pivoted QR, which keeps the columns leading_rank keeps
        (relative, no floor); their Q columns are the new directions.
        """
        _, res, _ = self._project_entries(rows, self.tol if floor is None else floor)
        if not res.shape[0]:
            return np.zeros((0, self.dim))
        new = _pivoted_qr_directions(res.T, self.tol)
        if new.shape[0]:
            self.q = np.vstack([self.q, new])
        return new

    def add_in_order(self, rows: np.ndarray) -> np.ndarray:
        """Add the rows one at a time, in order; returns the indices of the rows kept.

        Keeps what a loop of add over the rows keeps: a row is kept when
        new_direction finds it outside the span so far, the rows kept
        before it included.  Only the survivors of _project_entries are
        tested (a larger span only shrinks a residual), in order, against
        the directions this call has kept.  A survivor kept at a residual of
        r of its length carries about eps / r of the entry basis, so the
        kept directions are projected off it once more, as a block (their
        inner products move by that squared), before one vstack.
        """
        index, res, norms = self._project_entries(rows, self.tol)
        new = np.empty_like(res)
        kept = []
        for i, r, nrm in zip(index, res, norms):
            direction = new_direction(new[:len(kept)], r, self.tol, nrm)
            if direction is not None:
                new[len(kept)] = direction
                kept.append(i)
        if kept:
            new = new[:len(kept)]
            if self.rank:
                new -= (new @ self.q.T) @ self.q
            self.q = np.vstack([self.q, new])
        return np.array(kept, dtype=int)

    def _project_entries(self, rows: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Indices, residuals and (unprojected) norms of the rows that survive the entry projection.

        Rows at or below the absolute floor are zero: a numerically
        vanishing bracket must not inject noise directions.  Each of two
        Gram-Schmidt passes against the span held on entry drops the rows
        whose relative residual is at most tol; the second runs on the
        survivors only.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        norms = row_norms(rows)
        index = np.flatnonzero(norms > floor)
        res, norms = rows[index], norms[index]
        if self.rank:
            for _ in range(2):
                res -= (res @ self.q.T) @ self.q
                keep = row_norms(res) > self.tol * norms
                if not keep.all():
                    index, res, norms = index[keep], res[keep], norms[keep]
        return index, res, norms


def new_direction(basis: np.ndarray, row: np.ndarray, tol: float, norm: float | None = None) -> np.ndarray | None:
    """Unit residual of one row against the orthonormal rows basis, or None if it adds no direction.

    None when norm (default |row|; pass the norm from before an earlier
    projection) is at or below the floor tol, or the residual is at or
    below tol * norm after either of two Gram-Schmidt passes.  A lone row
    is its own direction, so no QR is needed.
    """
    if norm is None:
        norm = math.sqrt(np.dot(row, row))                 # np.linalg.norm's formula, minus its overhead
    if norm <= tol:
        return None
    for _ in range(2):
        row = row - np.dot(np.dot(basis, row), basis)      # np.dot: less call overhead than @ on one row
        size = math.sqrt(np.dot(row, row))
        if size <= tol * norm:
            return None
    return row / size


def leading_rank(magnitudes: np.ndarray, tol: float, floor: float = 0.0) -> int:
    """Index of the first magnitude <= tol * max(first, floor), else their count.

    The magnitudes are singular values or pivoted-QR |R_jj|, in order.  The
    cut stops at the first small one even if a later one is larger (|R_jj|
    need not decrease strictly in floating point).  A floor of 1 keeps a
    stack of pure roundoff from counting as full rank.
    """
    magnitudes = np.asarray(magnitudes)
    if magnitudes.size == 0:
        return 0
    small = magnitudes <= tol * max(magnitudes[0], floor)
    return int(small.argmax()) if small.any() else magnitudes.size


def _pivoted_qr_directions(a: np.ndarray, tol: float) -> np.ndarray:
    """Rows of an orthonormal basis of the numerical column space of a.

    Businger-Golub column-pivoted QR (LAPACK dgeqp3, blocked workspace)
    cut by leading_rank; dorgqr forms only the kept Q columns.
    Overwrites a when it is Fortran-ordered.  The raw LAPACK calls skip
    scipy.linalg.qr's per-call checks, which cost more than the
    factorization on the many one-row batches.
    """
    n = a.shape[1]
    qr, _, tau, _, info = dgeqp3(a, lwork=2 * n + (n + 1) * _QR_BLOCK, overwrite_a=True)
    if info:
        raise np.linalg.LinAlgError(f"dgeqp3 failed (info={info})")
    r = leading_rank(np.abs(qr.diagonal()), tol)
    q, _, info = dorgqr(qr[:, :r], tau[:r], lwork=r * _QR_BLOCK, overwrite_a=True)
    if info:
        raise np.linalg.LinAlgError(f"dorgqr failed (info={info})")
    return q.T


def ad_images(generators: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """[A, X] for every A of a (k, n, n) stack and every X of an (F, n, n) stack, as one (k F, n, n) stack.

    Generator-major: block i holds [A_i, X] for the X in order.  [X, A] is
    the negated image up to the sign of a zero entry, which can steer a
    later Householder reflection: for [X, A]'s bytes pass X as a generator.
    """
    f, n = rows.shape[0], rows.shape[-1]
    out = np.empty((len(generators) * f, n, n), dtype=np.result_type(generators, rows))
    for a, block in zip(generators, out.reshape(len(generators), f, n, n)):
        np.matmul(a, rows, out=block)
        block -= rows @ a
    return out


def unit_generators(generators: np.ndarray) -> np.ndarray:
    """The nonzero matrices of a (k, n, n) stack, each scaled by 1/|A| (Frobenius)."""
    n = generators.shape[-1]
    return np.array([(1.0 / nrm) * g for g in generators if (nrm := np.linalg.norm(g)) > 0]).reshape(-1, n, n)


@functools.cache
def _openblas_libraries() -> tuple[ctypes.CDLL, ...]:
    """The OpenBLAS builds NumPy and SciPy bundle, each where it exports openblas_set_num_threads_local.

    NumPy's wheel ships libscipy_openblas64_ in numpy.libs and SciPy's ships
    libscipy_openblas in scipy.libs; both are loaded by the time spans is
    imported.  Resolved on first use and kept: an empty tuple (another
    BLAS vendor, an older OpenBLAS, a build without bundled libraries)
    makes _serial_blas a no-op.
    """
    found = []
    for package, pattern in ((np, "libscipy_openblas64_*"), (scipy, "libscipy_openblas-*")):
        for path in sorted((Path(package.__file__).parent.parent / f"{package.__name__}.libs").glob(pattern)):
            lib = ctypes.CDLL(str(path))
            setter = getattr(lib, "openblas_set_num_threads_local", None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = ctypes.c_int            # the count it replaced
                found.append(lib)
    return tuple(found)


@contextlib.contextmanager
def _serial_blas() -> Iterator[None]:
    """Run the body with both bundled OpenBLAS libraries at one thread, then restore their counts.

    The counts set back are the ones the setter returned on entry, also
    when the body raises.  The counts are process-wide, so two Python
    threads must not run scopes at the same time; the package runs none.
    """
    libraries = _openblas_libraries()
    previous = [lib.openblas_set_num_threads_local(1) for lib in libraries]
    try:
        yield
    finally:
        for lib, count in zip(libraries, previous):
            lib.openblas_set_num_threads_local(count)


def close_real_span(
    seeds: np.ndarray,
    generators: np.ndarray,
    tol: float = 1e-9,
    coords: Coordinates = REALIFIED,
) -> tuple[RealSpan, list[np.ndarray], int]:
    """Close the real span of vectorized n x n seed matrices under ad of a generator stack.

    seeds is a (k, n^2) complex array of row-major matrices, generators an
    (r, n, n) stack.  Each round brackets the newly found directions X with
    every nonzero generator A, [A/|A|, X] by one ad_images call, and keeps
    what is new, until nothing new appears (frontier strategy, so every
    basis direction meets every generator exactly once).  The span keeps
    orthonormal rows in the coordinates' d reals (default: realified;
    seeds and brackets must lie in the domain of coords.encode), so every
    round that does not stop the closure adds at least one of at most d
    directions: the fixpoint is reached after at most d rounds, and no
    bound is needed.  tol is the relative residual threshold for a new
    direction.

    Returns the RealSpan over the encoded vectors; batches, the (R_k, n^2)
    complex directions accepted in each round (batches[0] from the seeds,
    always present; later rounds only when they added something), which
    together are orthonormal in the real sense, so np.vstack(batches) is
    the basis; and the number of frontier rounds performed.

    The whole closure runs with both bundled OpenBLAS libraries at one
    thread (_serial_blas), restored on return or raise: on 2 vCPUs that
    made bait's control algebra 3-4x faster, and the basis bytes stop
    depending on the host's core count (module docstring).
    """
    with _serial_blas():
        seeds = coords.encode(np.atleast_2d(np.asarray(seeds, dtype=complex)))
        span = RealSpan(seeds.shape[1], tol=tol)
        units = unit_generators(np.asarray(generators))
        frontier = coords.decode(span.add_batch(seeds))
        batches = [frontier]
        rounds = 0
        while frontier.shape[0] and len(units):
            rounds += 1
            candidates = ad_images(units, frontier.reshape(len(frontier), *units.shape[1:]))
            frontier = coords.decode(span.add_batch(coords.encode(candidates.reshape(len(candidates), -1))))
            if frontier.shape[0]:
                batches.append(frontier)
    return span, batches, rounds


@functools.cache
def _svd_lwork(m: int, n: int, compute_uv: bool, full_matrices: bool) -> int:
    """LAPACK's optimal dgesdd workspace for an m x n matrix and this job, asked once."""
    return int(dgesdd_lwork(m, n, compute_uv=compute_uv, full_matrices=full_matrices)[0])


def _svd(a: np.ndarray, compute_uv: bool = True, full_matrices: bool = False) -> tuple[np.ndarray, ...]:
    """u, s, vt with a = u diag(s) vt for a real matrix, s descending, by LAPACK dgesdd with info checked.

    compute_uv=False computes s alone (u and vt are placeholders).  The
    optimal workspace (SciPy's default is the minimal one) and C-ordered
    u and vt give np.linalg.svd's bytes, and the same bytes downstream.
    """
    lwork = _svd_lwork(*a.shape, compute_uv, full_matrices)
    u, s, vt, info = dgesdd(a, compute_uv=compute_uv, full_matrices=full_matrices, lwork=lwork)
    if info:
        raise np.linalg.LinAlgError(f"dgesdd failed (info={info})")
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vt)


def row_rank(rows: np.ndarray, tol: float) -> int:
    """Rank of a 2-d stack of real rows: leading_rank of its singular values at tol (no floor)."""
    return leading_rank(_svd(rows, compute_uv=False)[1], tol) if rows.size else 0


def realified_nullspace(rows: np.ndarray, dim: int, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (rows) of the real null space of a constraint stack.

    The singular values are cut by leading_rank with floor 1: singular
    values at most tol * max(s_max, 1) are not constraints, so a
    numerically-zero stack (pure roundoff) cannot masquerade as full rank.  U is never read, so a stack with at least
    as many rows as columns takes the thin SVD: its vt is already square and
    complete and the cut sees the same singular values.  Only a wide stack
    needs the full vt, whose trailing rows span the rest of the null space.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size == 0 or not np.linalg.norm(rows, axis=1).any():
        return np.eye(dim)
    _, s, vt = _svd(rows, full_matrices=rows.shape[0] < rows.shape[1])
    return vt[leading_rank(s, tol, floor=1.0):]


def realified_rank(vectors: Iterable[np.ndarray], tol: float = 1e-9) -> int:
    """Rank over the reals of complex vectors realified to [Re | Im] rows (no floor)."""
    rows = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    if not rows:
        return 0
    if len({r.shape[0] for r in rows}) != 1:
        raise ValueError("vectors have mixed dimensions")
    return row_rank(realify(np.array(rows)), tol)
