"""Pinned dimensions and round counts of every span closure.

All closures run through spans.close_real_span, whose rounds take their
brackets from the one kernel spans.ad_images; the numbers below are the
ones the Kronecker-matrix implementation produced, so any change to the
closure or its bracket kernel that moves a rank or a round count shows up
here.
"""

import numpy as np
import pytest

import qdecouple as qd
from qdecouple.algebra import is_hermitian
from qdecouple.models import bath_blocks
from qdecouple.observation import close_c_tilde
from qdecouple.spans import ad_images, close_real_span, realify
from qdecouple.report import decouplability_table
from oracles import control_algebra_verdict, omega_generators, operator_span

C_TILDE = {"single_qubit": (6, 3), "two_qubit": (18, 5), "restructured": (286, 8)}
HERMITIAN_CHAIN_ROUNDS = {
    "single_qubit": [2, 1],
    "two_qubit": [2, 4, 3],
    "restructured": [2, 12, 21, 25, 35, 25, 19, 4],
}
OMEGA_RANK_ROUNDS = {"single_qubit": (6, 3), "two_qubit": (18, 5), "restructured": (286, 8)}


def _random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_ad_images_match_commutators_and_the_lie_step():
    # ad_images is generator-major, block i holding [A_i, X] for every X;
    # for skew A the Lie step X -> X A + A† X of the omega closures is
    # -[A, X], so -|A| times the bracket [A/|A|, X] close_real_span takes
    rng = np.random.default_rng(21)
    space = qd.HilbertSpace((("a", 2), ("b", 3)))
    gens = []
    for _ in range(2):
        m = _random_matrix(rng, 6)
        gens.append(qd.Operator(space, m - m.conj().T, "skew_hermitian"))
    xs = np.array([_random_matrix(rng, 6) for _ in range(4)])
    got = ad_images(np.array([a.matrix for a in gens]), xs)
    assert got.shape == (8, 6, 6)
    for i, a in enumerate(gens):
        for j, x in enumerate(xs):
            image = got[i * len(xs) + j]
            want = qd.commutator(a, qd.Operator(space, x)).matrix
            assert np.allclose(image, want, atol=1e-12)
            step = x @ a.matrix + a.matrix.conj().T @ x
            assert np.allclose(image, -step, atol=1e-12)


def test_a_zero_generator_leaves_the_closure_unchanged(two_qubit):
    # close_real_span drops a zero generator before its first round: the
    # basis keeps its bytes and the round count stays
    stack = two_qubit.generator_stack
    seed = two_qubit.output_op.matrix.ravel()[None, :]
    span, batches, rounds = close_real_span(seed, stack)
    with_zero = np.concatenate([stack[:2], np.zeros_like(stack[:1]), stack[2:]])
    span_z, batches_z, rounds_z = close_real_span(seed, with_zero)
    assert rounds_z == rounds
    assert span_z.q.tobytes() == span.q.tobytes()
    assert [b.tobytes() for b in batches_z] == [b.tobytes() for b in batches]


@pytest.mark.parametrize("name", sorted(C_TILDE))
def test_c_tilde_dim_and_rounds(name, params):
    ct = close_c_tilde(qd.build_scenario(name, params))
    assert (ct.dim, ct.details["rounds"]) == C_TILDE[name]


def test_bait_c_tilde_dim_and_rounds(bait_c_tilde):
    assert (bait_c_tilde.dim, bait_c_tilde.details["rounds"]) == (1150, 16)


@pytest.mark.parametrize("name", sorted(HERMITIAN_CHAIN_ROUNDS))
def test_hermitian_chain_round_sizes(name, params):
    chain = qd.hermitian_derivative_chain(qd.build_scenario(name, params))
    assert [len(batch) for batch in chain] == HERMITIAN_CHAIN_ROUNDS[name]
    assert all(is_hermitian(op) for batch in chain for op in batch)


@pytest.mark.parametrize("name", sorted(OMEGA_RANK_ROUNDS))
def test_omega_generator_rank_and_rounds(name, params):
    ops, details = omega_generators(qd.build_scenario(name, params))
    assert (details["generator_rank"], details["rounds"]) == OMEGA_RANK_ROUNDS[name]
    assert len(ops) == details["generator_rank"]


def _assert_lie_closure_spans_the_realified_closure(gens):
    # lie_closure runs in the n^2 skew-hermitian coordinates; the realified
    # 2n^2-coordinate closure of the same generators is its oracle
    n = gens[0].dim
    stack = np.array([g.matrix for g in gens])
    basis = qd.lie_closure(stack)
    seeds = np.array([g.matrix.ravel() / g.norm() for g in gens])
    span, _, _ = close_real_span(seeds, stack)
    rows = realify(basis.reshape(len(basis), -1))
    assert len(basis) == span.rank
    assert np.abs(rows @ rows.T - np.eye(len(basis))).max() < 1e-12
    assert np.linalg.norm(rows - (rows @ span.q.T) @ span.q) < 1e-10


@pytest.mark.parametrize("name,with_drift", [("two_qubit", True), ("restructured", True), ("bait", False)])
def test_lie_closure_spans_the_realified_closure(name, with_drift, params):
    sys_ = qd.build_scenario(name, params)
    _assert_lie_closure_spans_the_realified_closure(
        [*sys_.controls, sys_.drift] if with_drift else sys_.controls
    )


def test_lie_closure_of_a_rotated_so4_spans_the_realified_closure():
    # a proper subalgebra (so(4), dim 6) with no real/imaginary structure left
    rng = np.random.default_rng(17)
    space = qd.HilbertSpace((("a", 4),))
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    gens = []
    for _ in range(2):
        m = rng.normal(size=(4, 4))
        gens.append(qd.Operator(space, u @ (m - m.T) @ u.conj().T, "skew_hermitian"))
    assert len(qd.lie_closure(np.array([g.matrix for g in gens]))) == 6
    _assert_lie_closure_spans_the_realified_closure(gens)


def test_lie_closure_of_traced_generic_generators_is_all_of_u_n():
    # two generic skew-hermitian generators generate su(n); their traces add
    # i*identity, so the closure fills the ambient n^2 dimensions and stops there
    rng = np.random.default_rng(5)
    n = 6
    space = qd.HilbertSpace((("a", n),))
    gens = []
    for _ in range(2):
        m = _random_matrix(rng, n)
        gens.append(qd.Operator(space, m - m.conj().T, "skew_hermitian"))
    assert all(abs(np.trace(g.matrix)) > 0.1 for g in gens)
    assert len(qd.lie_closure(np.array([g.matrix for g in gens]))) == n * n
    _assert_lie_closure_spans_the_realified_closure(gens)


def test_bait_control_lie_algebra_dim(bait):
    n = bait.space.total_dim
    assert len(qd.lie_closure(bait.control_stack.reshape(-1, n, n))) == 189


@pytest.mark.parametrize("w", [0.1, 0.05 + 0.07j], ids=["w-real", "w-complex"])
@pytest.mark.parametrize("n_env", [2, 3, 4])
def test_bait_block_closure_has_the_dense_closure_dimension(n_env, w):
    # I_q (x) V is unitary, so the closure of bait's (9, n_env, 8, 8) bath
    # blocks has the dimension of the closure of its dense controls
    bait = qd.build_bait(qd.ScenarioParams(n_env=n_env, w=w))
    _, blocks = bath_blocks(bait)
    basis = qd.lie_closure(blocks)
    assert basis.shape[1:] == (n_env, 8, 8)
    assert len(basis) == len(qd.lie_closure(bait.control_stack)) == 63 * n_env


@pytest.mark.parametrize("n_env", range(2, 9))
def test_bait_block_closure_is_n_env_copies_of_su8(n_env):
    _, blocks = bath_blocks(qd.build_bait(qd.ScenarioParams(n_env=n_env)))
    assert len(qd.lie_closure(blocks)) == 63 * n_env


def test_control_algebra_sizes():
    sys_ = qd.build_restructured(qd.ScenarioParams(omega_env=0.0))
    ok, _, details = control_algebra_verdict(sys_, operator_span(sys_.space, [sys_.interaction]))
    assert ok
    assert details == {"g_dim": 18, "c_set_size": 72}


# the verdict table at the default tol 1e-9 (criterion 01 and the C~ pins above):
# scenario -> (open, closed, restructured verdict, C~ dim, restructured C~ dim,
#              open-loop witness (kind, basis_index), closed-loop witness (kind, basis_index))
TABLE_AT_DEFAULT_TOL = {
    "single_qubit": ("NO", "NO", "NO", 6, None,
                     ("ctilde_interaction_commutator", 0), ("output_interaction_commutator", None)),
    "two_qubit": ("NO", "NO", "NO", 18, None,
                  ("ctilde_interaction_commutator", 1), ("ctilde_containment", 1)),
    "bait": ("NO", "NO", "YES*", 1150, 286,
             ("ctilde_interaction_commutator", 0), ("bracket_outside_span", None)),
}
# scenario -> (open-loop witness ||[B_k, A_I]||, closed-loop witness ||[C, A_I]|| or None)
WITNESS_NORMS = {
    "single_qubit": (0.28284271247461906, 0.4898979485566357),
    "two_qubit": (0.28284271247461906, None),
    "bait": (0.4, None),
}


@pytest.mark.parametrize("tol", [1e-11, 1e-6])
def test_verdict_table_invariant_under_tol(tol, params):
    table = decouplability_table(params, tol=tol)
    rows = {row["scenario"]: row for row in table["rows"]}
    got = {
        name: (
            row["open_loop"]["verdict"],
            row["closed_loop"]["verdict"],
            row["closed_loop_restructured"]["verdict"],
            row["c_tilde_dim"],
            row["closed_loop_restructured"].get("c_tilde_dim"),
            (row["open_loop"]["witness"]["kind"], row["open_loop"]["witness"]["basis_index"]),
            (row["closed_loop"]["witness"]["kind"], row["closed_loop"]["witness"].get("basis_index")),
        )
        for name, row in rows.items()
    }
    assert got == TABLE_AT_DEFAULT_TOL
    for name, (open_norm, closed_norm) in WITNESS_NORMS.items():
        assert rows[name]["open_loop"]["witness"]["norm"] == pytest.approx(open_norm, rel=1e-12)
        if closed_norm is not None:
            assert rows[name]["closed_loop"]["witness"]["norm"] == pytest.approx(closed_norm, rel=1e-12)
