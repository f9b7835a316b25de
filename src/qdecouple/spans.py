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

close_real_span runs its BLAS on one thread.  NumPy and SciPy each
bundle their own OpenBLAS with its own thread pool; a closure alternates
NumPy's products with SciPy's pivoted QR, whose per-column BLAS-2 calls
are too small to gain from threads, and with two threads each the two
pools' waiting workers compete for the same cores.  On a 2-vCPU host,
bait's control-algebra closure took 0.20-0.25 s with two threads and
0.05-0.07 s with one (its dgeqp3 calls 49-85 ms against 6-7 ms), and the
kept basis, so the `rank` report, differed in its last bits with the
thread count.  _serial_blas sets both libraries to one thread for the
closure's whole body and sets back the counts it found; nothing is set
at import, and where no setter is found (another BLAS, an older
OpenBLAS) the scope does nothing.  It also scopes the one eigh of
commutant_basis and of the spectral su(n) test: SciPy's zheevd at two
threads wakes its pool, which then slowed NumPy's products after it
(`check` at n_env 20, max_power 19: 0.71 s against 0.38-0.56 s).
hsb_generation_search runs at one thread as a whole, and so does the
per-state loop of the `rank` command after its closure: with both
unscoped, the benchmark's algebra_reports op (`rank`, `maneuver --chain`
and `synthesize-audit` on bait, 2 vCPUs) read 6.0-6.2 yardsticks, and
4.5-4.9 with both scoped, where its CPU time fell from 5.5-5.9 to 2.9-3.3.
The hand loop of omega_closure_closed stays unscoped (at one thread it
measured at most a tenth faster), and so do the closed loop's per-step
add_batch and eigh (7.6 us per scope).

RealSpan.add_in_order is the kernel for a batch whose order decides
what is kept: it keeps the rows a loop of add would keep, with one GEMM
projection of the batch and one vstack.  hsb_generation_search selects
each word length's bracket words by one call, in skew_hermitian_coordinates:
the search on bait takes 0.05-0.07 s in process, against 0.12-0.17 s
with one add per word over realified rows.
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
from scipy.linalg.lapack import dgeqp3, dorgqr

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

        Rows below the absolute `floor` (default tol) are treated as zero
        -- a numerically vanishing bracket must not inject noise
        directions.  One Gram-Schmidt pass against the current span
        rejects every row whose relative residual is at most tol; the
        second pass runs on the survivors only (it can only shrink a
        residual), and the survivors are tested again.  A column-pivoted
        QR of what is left keeps the columns leading_rank keeps (relative,
        no floor); their Q columns are the new directions.
        """
        if floor is None:
            floor = self.tol
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.size == 0:
            return np.zeros((0, self.dim))
        norms = row_norms(rows)
        live = norms > floor
        if not live.any():
            return np.zeros((0, self.dim))
        res = rows[live]
        norms = norms[live]
        if self.rank:
            for _ in range(2):
                res -= (res @ self.q.T) @ self.q
                keep = row_norms(res) > self.tol * norms
                if not keep.all():
                    res = res[keep]
                    norms = norms[keep]
            if not res.shape[0]:
                return np.zeros((0, self.dim))
        new = _pivoted_qr_directions(res.T, self.tol)
        if new.shape[0]:
            self.q = np.vstack([self.q, new])
        return new

    def add_in_order(self, rows: np.ndarray) -> np.ndarray:
        """Add the rows one at a time, in order; returns the indices of the rows kept.

        Keeps what a loop of add over the rows keeps: a row is kept when it
        lies above the floor (tol) and its relative residual stays above tol
        after each of two Gram-Schmidt passes against the span so far, the
        rows kept before it included; a lone survivor is its own direction,
        so no QR is needed.  The whole batch is projected against the basis
        held on entry by two GEMM passes, and a row that fails there is
        dropped, since in exact arithmetic a larger span only shrinks a
        residual.  Each survivor is then tested, in order, against the
        directions this call has kept so far.  A survivor whose residual
        shrinks to r of its length against those carries about eps / r of
        the entry basis, so the kept directions are projected off it once
        more, as a block (their inner products move by that squared); the
        basis then grows by one vstack.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        norms = row_norms(rows)
        index = np.flatnonzero(norms > self.tol)
        res = rows[index]
        norms = norms[index]
        if self.rank:
            for _ in range(2):
                res -= (res @ self.q.T) @ self.q
                keep = row_norms(res) > self.tol * norms
                index, res, norms = index[keep], res[keep], norms[keep]
        new = np.empty_like(res)
        kept = []
        for i, r, nrm in zip(index, res, norms):
            basis = new[:len(kept)]
            for _ in range(2):
                r = r - (basis @ r) @ basis
                size = math.sqrt(np.dot(r, r))
                if size <= self.tol * nrm:
                    break
            else:
                new[len(kept)] = r / size
                kept.append(i)
        if kept:
            new = new[:len(kept)]
            if self.rank:
                new -= (new @ self.q.T) @ self.q
            self.q = np.vstack([self.q, new])
        return np.array(kept, dtype=int)


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
    _, s, vt = np.linalg.svd(rows, full_matrices=rows.shape[0] < rows.shape[1])
    return vt[leading_rank(s, tol, floor=1.0):]


def realified_rank(vectors: Iterable[np.ndarray], tol: float = 1e-9) -> int:
    """Rank over the reals of complex vectors realified to [Re | Im] rows (no floor)."""
    rows = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    if not rows:
        return 0
    if len({r.shape[0] for r in rows}) != 1:
        raise ValueError("vectors have mixed dimensions")
    return leading_rank(np.linalg.svd(realify(np.array(rows)), compute_uv=False), tol)
