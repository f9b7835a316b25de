"""The span kernel: RealSpan.add_batch against an SVD reference.

add_batch keeps directions by one Gram-Schmidt pass, a second pass on the
survivors and a column-pivoted QR cut at tol * |R_00|.  The reference
below is the full-SVD policy it replaced (two passes over every row, SVD
of the survivors, singular values cut at tol * s_max): both must agree on
the rank and on the subspace kept, for batches of known rank.
realified_nullspace takes the thin SVD of tall stacks; it must return the
rows a full SVD gives, on stacks of every shape.  The skew-hermitian
coordinates must be an isometry of u(n) onto R^(n^2) with an exact inverse,
and of u(q)^b onto R^(b q^2) on block stacks.  ad_images must give the loop's
bytes on (k, n, n) stacks and the diagonal blocks of the dense brackets on
block-diagonal (k, b, q, q) stacks.
add_in_order must keep the rows a loop of add keeps, in order.  The entry
projection must give the indexed path's bytes when every row is live, and
an empty span must adopt the pivoted-QR directions add_batch returns, as
one read-only array.
close_real_span, hsb_generation_search and the per-state loop of the rank
command must run at one BLAS thread in both bundled OpenBLAS libraries and
hand back the counts they found, also when they raise.
"""

import contextlib
import ctypes
import io
import json

import numpy as np
import pytest
import scipy.linalg

import qdecouple.cli
import qdecouple.simulate
import qdecouple.spans
from qdecouple.spans import (RealSpan, _openblas_libraries, _pivoted_qr_directions, ad_images, close_real_span,
                             leading_rank, realified_nullspace, realify, skew_hermitian_coordinates,
                             unit_generators)

from oracles import ad_images_loop, dense_skew_hermitian_codes, project_entries_indexed

TOL = 1e-9


def _svd_reference(q: np.ndarray, rows: np.ndarray, tol: float = TOL, floor: float | None = None) -> np.ndarray:
    """The new directions rows add to the orthonormal rows q, by SVD."""
    floor = tol if floor is None else floor
    norms = np.linalg.norm(rows, axis=1)
    rows, norms = rows[norms > floor], norms[norms > floor]
    res = rows - (rows @ q.T) @ q
    res = res - (res @ q.T) @ q
    res = res[np.linalg.norm(res, axis=1) > tol * norms]
    if not res.shape[0]:
        return np.zeros((0, q.shape[1]))
    _, s, vt = np.linalg.svd(res, full_matrices=False)
    return vt[s > tol * s[0]]


def _directions(rng, k: int, dim: int) -> np.ndarray:
    """k realified random complex directions in R^dim."""
    return realify(rng.normal(size=(k, dim // 2)) + 1j * rng.normal(size=(k, dim // 2)))


def _span_with(rng, dim: int, rank: int) -> RealSpan:
    span = RealSpan(dim, tol=TOL)
    if rank:
        span.add_batch(rng.normal(size=(rank, rank)) @ _directions(rng, rank, dim))
    assert span.rank == rank
    return span


def _batch(rng, span: RealSpan, n_rows: int, new_rank: int, scales=None) -> np.ndarray:
    """n_rows rows spanning new_rank directions outside the span, plus span components."""
    dim = span.dim
    fresh = _directions(rng, new_rank, dim)
    if scales is not None:
        fresh = fresh * np.asarray(scales)[:, None]
    rows = rng.normal(size=(n_rows, new_rank)) @ fresh
    if span.rank:
        rows = rows + rng.normal(size=(n_rows, span.rank)) @ span.q
    return rows


def _subspace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a.T @ a - b.T @ b, 2))


def _check_batch(
    span: RealSpan, rows: np.ndarray, want_rank: int, floor: float | None = None, precision: float = 1e-13
) -> np.ndarray:
    old = span.q.copy()
    ref = _svd_reference(old, rows, floor=floor)
    new = span.add_batch(rows, floor=floor)
    assert new.shape == (want_rank, span.dim)
    assert ref.shape[0] == want_rank
    assert span.rank == old.shape[0] + want_rank
    assert np.array_equal(span.q[: old.shape[0]], old)
    if want_rank:
        assert np.abs(new @ new.T - np.eye(want_rank)).max() < precision
        assert np.abs(new @ old.T).max(initial=0.0) < precision
        assert _subspace_distance(new, ref) < 10 * precision
    return new


@pytest.mark.parametrize(
    "dim, span_rank, n_rows, new_rank",
    [
        (16, 4, 40, 7),        # more rows than dim, mixed with span components
        (16, 0, 40, 16),       # more rows than dim, full rank from an empty span
        (16, 5, 1, 1),         # a single row
        (16, 0, 1, 1),         # a single row into an empty span
        (24, 0, 10, 3),        # empty span, dependent rows
        (24, 9, 30, 6),
    ],
)
def test_add_batch_matches_svd_reference(dim, span_rank, n_rows, new_rank):
    rng = np.random.default_rng(1000 * dim + 10 * span_rank + n_rows)
    span = _span_with(rng, dim, span_rank)
    _check_batch(span, _batch(rng, span, n_rows, new_rank), new_rank)


@pytest.mark.parametrize("seed", range(7, 12))
def test_graded_directions_above_tol_are_all_kept(seed):
    # a direction that only cancellation inside the batch reveals, at
    # relative size s, carries about eps / s of the other directions in
    # either kernel: here s = 1e-7, so the bounds are 1e-8
    rng = np.random.default_rng(seed)
    span = _span_with(rng, 24, 5)
    rows = _batch(rng, span, 20, 4, scales=[1.0, 1e-3, 1e-5, 1e-7])
    _check_batch(span, rows, 4, precision=1e-8)
    rows = _batch(rng, span, 20, 3, scales=[1.0, 0.3, 0.1])
    _check_batch(span, rows, 3)


def test_roundoff_noise_adds_no_direction():
    rng = np.random.default_rng(8)
    span = _span_with(rng, 24, 6)
    rows = _batch(rng, span, 30, 3) + 1e-15 * rng.normal(size=(30, 24))
    _check_batch(span, rows, 3)


def test_batch_inside_span_adds_nothing():
    rng = np.random.default_rng(9)
    span = _span_with(rng, 16, 6)
    rows = rng.normal(size=(25, 6)) @ span.q
    _check_batch(span, rows, 0)


def test_rows_below_floor_are_zero():
    rng = np.random.default_rng(10)
    span = _span_with(rng, 16, 3)
    tiny = 1e-11 * _batch(rng, span, 5, 2)
    _check_batch(span, tiny, 0)                         # default floor: tol
    small = 1e-3 * _batch(rng, span, 5, 2)
    _check_batch(span, small, 0, floor=1.0)             # an explicit floor
    mixed = np.vstack([tiny, _batch(rng, span, 3, 2)])
    _check_batch(span, mixed, 2)


def _ordered_batch(rng, span: RealSpan, n_fresh: int) -> np.ndarray:
    """Rows whose order decides what is kept, shuffled.

    Fresh directions mixed with span components, exact and scaled
    duplicates of them, combinations of two of them with relative noise
    1e-13 (dependent at tol) and 1e-5 (new at tol), a row inside the span,
    a zero row and a row below the floor.
    """
    fresh = _batch(rng, span, n_fresh, n_fresh)
    a, b = fresh[0], fresh[1]
    noise = _directions(rng, 2, span.dim)
    pair = a + 0.5 * b
    extra = [
        fresh[2], -3.0 * fresh[3],
        pair + 1e-13 * np.linalg.norm(pair) * noise[0] / np.linalg.norm(noise[0]),
        pair + 1e-5 * np.linalg.norm(pair) * noise[1] / np.linalg.norm(noise[1]),
        np.zeros(span.dim), 1e-11 * fresh[0],
    ]
    if span.rank:
        extra.append(rng.normal(size=span.rank) @ span.q)
    rows = np.vstack([fresh, *extra])
    return rows[rng.permutation(len(rows))]


@pytest.mark.parametrize("dim, span_rank, n_fresh", [
    (24, 0, 8),            # from an empty span
    (24, 6, 8),
    (24, 6, 30),           # more fresh rows than the span has room for
    (16, 15, 6),           # one direction left
    (16, 16, 4),           # a full span keeps nothing
])
def test_add_in_order_keeps_what_add_keeps_row_by_row(dim, span_rank, n_fresh):
    rng = np.random.default_rng(100 * dim + 10 * span_rank + n_fresh)
    span = _span_with(rng, dim, span_rank)
    rows = _ordered_batch(rng, span, n_fresh)
    one_by_one = RealSpan(dim, tol=TOL)
    one_by_one.q = span.q.copy()
    want = [i for i, row in enumerate(rows) if one_by_one.add(row)]
    old = span.q.copy()
    kept = span.add_in_order(rows)
    assert kept.tolist() == want
    assert span.rank == one_by_one.rank
    assert np.array_equal(span.q[:len(old)], old)
    new = span.q[len(old):]
    assert np.abs(new @ new.T - np.eye(len(new))).max(initial=0.0) < 1e-13
    assert np.abs(new @ old.T).max(initial=0.0) < 1e-13
    # the row with relative noise s = 1e-5 fixes its direction only to about
    # eps / s in either kernel
    assert _subspace_distance(span.q, one_by_one.q) < 1e-10


def test_add_in_order_of_an_empty_or_vanishing_batch_keeps_nothing():
    span = _span_with(np.random.default_rng(12), 8, 3)
    old = span.q.copy()
    for rows in (np.zeros((0, 8)), np.zeros((3, 8)), 1e-11 * np.eye(8)[:2]):
        assert span.add_in_order(rows).tolist() == []
        assert np.array_equal(span.q, old)


def test_empty_span_and_empty_batch():
    span = RealSpan(8, tol=TOL)
    assert span.add_batch(np.zeros((0, 8))).shape == (0, 8)
    assert span.add_batch(np.zeros((3, 8))).shape == (0, 8)
    assert span.rank == 0
    assert span.add(np.eye(8)[2])
    assert not span.add(2.0 * np.eye(8)[2])
    assert span.rank == 1


@pytest.mark.parametrize("span_rank", [0, 5])
@pytest.mark.parametrize("below_floor", [False, True], ids=["all live", "rows below the floor"])
def test_entry_projection_gives_the_indexed_bytes(span_rank, below_floor):
    rng = np.random.default_rng(61 + span_rank)
    span = _span_with(rng, 24, span_rank)
    rows = _batch(rng, span, 6, 4)
    if below_floor:
        rows[[1, 4]] *= 1e-11
    given = rows.copy()
    got = span._project_entries(rows, TOL)
    want = project_entries_indexed(span, rows, TOL)
    assert len(got[0]) == (4 if below_floor else 6)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert rows.tobytes() == given.tobytes()                 # the caller's rows are not projected in place


@pytest.mark.parametrize("n_rows, rank", [(5, 5), (7, 4)])
def test_an_empty_span_adopts_the_pivoted_qr_directions(n_rows, rank):
    rng = np.random.default_rng(70 + n_rows)
    rows = rng.normal(size=(n_rows, rank)) @ _directions(rng, rank, 24)
    given = rows.copy()
    span = RealSpan(24, tol=TOL)
    new = span.add_batch(rows)
    assert span.q is new and span.rank == rank
    assert new.tobytes() == _pivoted_qr_directions(given.copy().T, TOL).tobytes()
    assert rows.tobytes() == given.tobytes()                 # the QR ran on a copy


def test_add_batch_returns_read_only_directions():
    rng = np.random.default_rng(72)
    span = RealSpan(24, tol=TOL)
    for batch in (_directions(rng, 3, 24), _directions(rng, 2, 24)):   # adopted, then stacked on
        new = span.add_batch(batch)
        basis = span.q.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            new[0, 0] = 1.0
        assert span.q.tobytes() == basis
    assert span.rank == 5


def test_bait_c_tilde_basis_is_orthonormal(bait_c_tilde):
    q = bait_c_tilde.span.q
    assert q.shape == (1150, 1152)
    assert np.linalg.norm(q @ q.T - np.eye(q.shape[0]), 2) < 1e-13


def _full_svd_nullspace(rows: np.ndarray, dim: int, tol: float = TOL, floor: float = 1.0) -> np.ndarray:
    """The reference cut: tol * max(s_max, floor) on the full SVD's vt."""
    if rows.size == 0 or not np.linalg.norm(rows, axis=1).any():
        return np.eye(dim)
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    return vt[int(np.sum(s > tol * max(s[0], floor))):]


def _ranked(rng, n_rows: int, n_cols: int, rank: int) -> np.ndarray:
    return rng.normal(size=(n_rows, rank)) @ rng.normal(size=(rank, n_cols))


@pytest.mark.parametrize(
    "shape, rank",
    [
        ((40, 12), 12),          # tall, full column rank: empty null space
        ((40, 12), 7),           # tall, rank-deficient
        ((12, 12), 12),          # square, full rank
        ((12, 12), 5),           # square, rank-deficient
        ((5, 12), 5),            # wide, full row rank
        ((5, 12), 3),            # wide, rank-deficient
        ((6, 9), 0),             # all zero
        ((9, 6), 0),
    ],
)
def test_realified_nullspace_matches_full_svd(shape, rank):
    rng = np.random.default_rng(100 + 10 * rank + shape[0])
    rows = _ranked(rng, *shape, rank) if rank else np.zeros(shape)
    got = realified_nullspace(rows, shape[1])
    ref = _full_svd_nullspace(rows, shape[1])
    assert got.shape == ref.shape == (shape[1] - rank, shape[1])
    assert np.abs(got - ref).max(initial=0.0) <= 1e-15
    assert np.abs(got @ got.T - np.eye(got.shape[0])).max(initial=0.0) < 1e-14
    if rank:
        assert np.abs(rows @ got.T).max(initial=0.0) < 1e-12 * np.abs(rows).max()


def test_realified_nullspace_roundoff_stack_is_all_null():
    # a stack of pure roundoff sits below the absolute floor: nothing is a constraint
    rng = np.random.default_rng(12)
    for shape in ((30, 8), (8, 8), (3, 8)):
        rows = 1e-13 * rng.normal(size=shape)
        got = realified_nullspace(rows, 8)
        assert got.shape == (8, 8)
        assert np.abs(got - _full_svd_nullspace(rows, 8)).max() <= 1e-15
        assert np.abs(got @ got.T - np.eye(8)).max() < 1e-14


@pytest.mark.parametrize("n", [1, 2, 5])
def test_skew_hermitian_coordinates_are_an_isometry_with_exact_inverse(n):
    rng = np.random.default_rng(40 + n)
    z = rng.normal(size=(7, n, n)) + 1j * rng.normal(size=(7, n, n))
    rows = (z - z.conj().transpose(0, 2, 1)).reshape(7, n * n)      # skew-hermitian
    coords = skew_hermitian_coordinates(n)
    codes = coords.encode(rows)
    assert codes.shape == (7, n * n) and codes.dtype == float
    # the realified Gram matrix is preserved: norms, angles and so ranks
    assert np.allclose(codes @ codes.T, realify(rows) @ realify(rows).T, rtol=0, atol=1e-12)
    back = coords.decode(codes)
    assert np.allclose(back, rows, rtol=0, atol=1e-14)
    mats = back.reshape(7, n, n)
    assert np.array_equal(mats, -mats.conj().transpose(0, 2, 1))


def _skew_blocks(rng, k, b, q):
    z = rng.normal(size=(k, b, q, q)) + 1j * rng.normal(size=(k, b, q, q))
    return z - z.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("b, q", [(1, 1), (1, 4), (3, 1), (3, 4), (4, 2)])
def test_skew_hermitian_coordinates_of_blocks_are_the_one_block_codes_in_order(b, q):
    rng = np.random.default_rng(60 + 10 * b + q)
    blocks = _skew_blocks(rng, 6, b, q)
    rows = blocks.reshape(6, b * q * q)
    codes = skew_hermitian_coordinates(q, b).encode(rows)
    assert codes.shape == (6, b * q * q) and codes.dtype == float
    one_block = skew_hermitian_coordinates(q).encode
    want = np.concatenate([one_block(blocks[:, j].reshape(6, q * q)) for j in range(b)], axis=1)
    assert codes.tobytes() == want.tobytes()
    # an isometry of u(q)^b: the realified Gram matrix of the stacks is kept
    assert np.allclose(codes @ codes.T, realify(rows) @ realify(rows).T, rtol=0, atol=1e-12)
    back = skew_hermitian_coordinates(q, b).decode(codes).reshape(6, b, q, q)
    assert np.allclose(back, blocks, rtol=0, atol=1e-14)
    assert np.array_equal(back, -back.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("n", [1, 2, 5, 24])
def test_skew_hermitian_coordinates_of_one_block_keep_the_dense_bytes(n):
    rng = np.random.default_rng(70 + n)
    rows = _skew_blocks(rng, 5, 1, n).reshape(5, n * n)
    assert skew_hermitian_coordinates(n).encode(rows).tobytes() == dense_skew_hermitian_codes(rows, n).tobytes()


def test_ad_images_on_dense_stacks_are_the_bytes_of_the_loop(bait):
    rng = np.random.default_rng(80)
    gens = rng.normal(size=(3, 6, 6)) + 1j * rng.normal(size=(3, 6, 6))
    rows = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
    assert ad_images(gens, rows).tobytes() == ad_images_loop(gens, rows).tobytes()
    controls = bait.control_stack
    assert ad_images(controls, controls).tobytes() == ad_images_loop(controls, controls).tobytes()


@pytest.mark.parametrize("b, q", [(1, 5), (3, 4), (5, 2)])
def test_ad_images_on_blocks_are_the_diagonal_blocks_of_the_lifted_brackets(b, q):
    # lift each block stack to its block-diagonal matrix, rotated by a
    # random unitary U; U† [A, X] U must hold ad_images' blocks on its diagonal
    rng = np.random.default_rng(90 + b)
    gens, rows = _skew_blocks(rng, 3, b, q), rng.normal(size=(4, b, q, q)) + 1j * rng.normal(size=(4, b, q, q))
    u, _ = np.linalg.qr(rng.normal(size=(b * q, b * q)) + 1j * rng.normal(size=(b * q, b * q)))

    def lift(stack):
        return np.array([u @ scipy.linalg.block_diag(*m) @ u.conj().T for m in stack])

    got = ad_images(gens, rows)
    assert got.shape == (12, b, q, q)
    dense = u.conj().T @ ad_images(lift(gens), lift(rows)) @ u
    want = np.array([scipy.linalg.block_diag(*m) for m in got])
    assert np.abs(dense - want).max() <= 1e-13


def test_unit_generators_scale_each_block_stack_and_drop_the_zero_one():
    rng = np.random.default_rng(95)
    gens = _skew_blocks(rng, 3, 2, 3)
    gens[1] = 0.0
    units = unit_generators(gens)
    assert units.shape == (2, 2, 3, 3)
    assert np.allclose(np.linalg.norm(units.reshape(2, -1), axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.allclose(units[1] * np.linalg.norm(gens[2]), gens[2], rtol=0, atol=1e-14)
    assert unit_generators(np.zeros((2, 3, 2, 2))).shape == (0, 3, 2, 2)


def test_leading_rank_empty_and_all_zero():
    assert leading_rank(np.zeros(0), TOL) == 0
    assert leading_rank(np.zeros(4), TOL) == 0
    assert leading_rank(np.zeros(4), TOL, floor=1.0) == 0


def test_leading_rank_floor_makes_the_cut_absolute():
    roundoff = np.array([1e-12, 1e-13, 1e-25])
    assert leading_rank(roundoff, TOL) == 2              # relative to the first magnitude
    assert leading_rank(roundoff, TOL, floor=1.0) == 0   # below tol * 1: nothing counts
    big = np.array([10.0, 5e-8, 5e-9])                  # threshold 1e-8 either way
    assert leading_rank(big, TOL) == leading_rank(big, TOL, floor=1.0) == 2


def test_leading_rank_stops_at_the_first_small_magnitude():
    # pivoted QR's |R_jj| can rise again after the cut; what follows it is dependent
    assert leading_rank(np.array([1.0, 0.5, 1e-12, 1.1e-12, 1e-3]), TOL) == 2
    assert leading_rank(np.array([1.0, 0.99, 1.01, 0.5]), TOL) == 4
    assert leading_rank(np.array([1.0, 1e-9]), TOL) == 1  # at the threshold is small


def _blas_threads(lib) -> int:
    """The thread count a bundled OpenBLAS reports (NumPy's 64-bit-integer build or SciPy's)."""
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        getter = getattr(lib, symbol, None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return getter()
    pytest.skip("no OpenBLAS thread-count getter")


@pytest.mark.parametrize("raises", [False, True])
def test_close_real_span_runs_serial_blas_and_restores_the_counts(monkeypatch, raises):
    libraries = _openblas_libraries()
    if not libraries:
        pytest.skip("no openblas_set_num_threads_local in the bundled BLAS")
    host = [lib.openblas_set_num_threads_local(2) for lib in libraries]   # a count the scope must change
    try:
        before = [_blas_threads(lib) for lib in libraries]
        inside = []
        ad_images = qdecouple.spans.ad_images

        def spy(generators, rows):
            inside.append([_blas_threads(lib) for lib in libraries])
            if raises:
                raise RuntimeError("bracket failed")
            return ad_images(generators, rows)

        monkeypatch.setattr(qdecouple.spans, "ad_images", spy)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        if raises:
            with pytest.raises(RuntimeError, match="bracket failed"):
                close_real_span(sx.ravel()[None, :], 1j * sy[None])
        else:
            _, batches, _ = close_real_span(sx.ravel()[None, :], 1j * sy[None])
            assert sum(len(b) for b in batches) == 2          # sigma_x, sigma_z
        assert inside and all(counts == [1] * len(libraries) for counts in inside)
        assert [_blas_threads(lib) for lib in libraries] == before
    finally:
        for lib, count in zip(libraries, host):
            lib.openblas_set_num_threads_local(count)


def _search_bait(tmp_path):
    return qdecouple.simulate.hsb_generation_search(qdecouple.build_scenario("bait", qdecouple.ScenarioParams(n_env=2)))


def _rank_bait(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"n_env": 2}, "rank_states": 2}))
    with contextlib.redirect_stdout(io.StringIO()):
        return qdecouple.cli.main(["rank", "--scenario", "bait", "--config", str(cfg), "--out", str(tmp_path / "rank")])


@pytest.mark.parametrize("raises", [False, True])
@pytest.mark.parametrize("module, name, run", [
    ("simulate", "ad_images", _search_bait),                # every bracket of hsb_generation_search
    ("cli", "control_field_matrix", _rank_bait),            # once per state of rank's loop
], ids=["hsb_generation_search", "rank_loop"])
def test_bracket_search_and_rank_loop_run_serial_blas_and_restore_the_counts(
    tmp_path, monkeypatch, module, name, run, raises
):
    libraries = _openblas_libraries()
    if not libraries:
        pytest.skip("no openblas_set_num_threads_local in the bundled BLAS")
    host = [lib.openblas_set_num_threads_local(2) for lib in libraries]   # a count the scope must change
    try:
        before = [_blas_threads(lib) for lib in libraries]
        inside = []
        target = getattr(qdecouple, module)
        wrapped = getattr(target, name)

        def spy(*args):
            inside.append([_blas_threads(lib) for lib in libraries])
            if raises:
                raise RuntimeError("body failed")
            return wrapped(*args)

        monkeypatch.setattr(target, name, spy)
        if raises:
            with pytest.raises(RuntimeError, match="body failed"):
                run(tmp_path)
        else:
            run(tmp_path)
        assert inside and all(counts == [1] * len(libraries) for counts in inside)
        assert [_blas_threads(lib) for lib in libraries] == before
    finally:
        for lib, count in zip(libraries, host):
            lib.openblas_set_num_threads_local(count)
