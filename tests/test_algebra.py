import numpy as np
import pytest

import qdecouple as qd
from qdecouple.algebra import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, _eigh, is_hermitian, unitary_stepper
from qdecouple.spans import realify
from qdecouple.tangent import control_field_matrix
from oracles import operator_span


def op2(mat, kind="general"):
    return qd.Operator(qd.HilbertSpace((("qubit", 2),)), np.asarray(mat, dtype=complex), kind)


def test_pauli_commutation_table():
    # all nine pairwise relations, exact at machine precision
    sig = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
    expected = {
        ("x", "y"): 2j * SIGMA_Z, ("y", "x"): -2j * SIGMA_Z,
        ("y", "z"): 2j * SIGMA_X, ("z", "y"): -2j * SIGMA_X,
        ("z", "x"): 2j * SIGMA_Y, ("x", "z"): -2j * SIGMA_Y,
        ("x", "x"): np.zeros((2, 2)), ("y", "y"): np.zeros((2, 2)), ("z", "z"): np.zeros((2, 2)),
    }
    for (a, b), want in expected.items():
        got = sig[a] @ sig[b] - sig[b] @ sig[a]
        assert np.array_equal(got, np.asarray(want, dtype=complex)), (a, b)


def test_pauli_basis_matches_ketbra_definitions():
    # sigma_z = |1><1| - |0><0|, sigma_x = |0><1| + |1><0|, sigma_y = i|0><1| - i|1><0|
    e0, e1 = np.eye(2, dtype=complex)
    assert np.array_equal(SIGMA_Z, np.outer(e1, e1) - np.outer(e0, e0))
    assert np.array_equal(SIGMA_X, np.outer(e0, e1) + np.outer(e1, e0))
    assert np.array_equal(SIGMA_Y, 1j * np.outer(e0, e1) - 1j * np.outer(e1, e0))


def test_tensor_commutator_identity_200_quadruples():
    # [A x B, C x D] = CA x [B, D] + [A, C] x BD
    rng = np.random.default_rng(42)
    for _ in range(200):
        a, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
        b, d = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
        lhs = np.kron(a, b) @ np.kron(c, d) - np.kron(c, d) @ np.kron(a, b)
        rhs = np.kron(c @ a, b @ d - d @ b) + np.kron(a @ c - c @ a, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestHilbertSpace:
    def test_total_dim_and_labels(self):
        sp = qd.HilbertSpace((("qubit1", 2), ("qubit2", 2), ("env", 3)))
        assert sp.total_dim == 12
        assert sp.labels == ("qubit1", "qubit2", "env")
        assert dict(sp.factors)["env"] == 3

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            qd.HilbertSpace((("q", 2), ("q", 3)))


class TestOperatorValidation:
    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            op2(SIGMA_X, kind="skew_hermitian")

    def test_zero_matrix_accepts_both_kinds(self):
        op2(np.zeros((2, 2)), kind="hermitian")
        op2(np.zeros((2, 2)), kind="skew_hermitian")

    def test_zero_matrix_passes_both_hermiticity_tests(self):
        assert is_hermitian(np.zeros((3, 3)))
        assert is_hermitian(np.zeros((3, 3)), skew=True)

    def test_hermiticity_scale_is_relative(self):
        gap = 1e-6 * (SIGMA_Y @ SIGMA_Z)                    # anti-hermitian part of size 1e-6
        assert is_hermitian(1e4 * SIGMA_X + gap)            # within 1e-9 * max|M| = 1e-5
        assert not is_hermitian(SIGMA_X + gap)              # max|M| = 1: the absolute 1e-9 applies
        assert is_hermitian(-1j * (1e4 * SIGMA_X + gap), skew=True)
        assert not is_hermitian(SIGMA_X, skew=True) and not is_hermitian(-1j * SIGMA_X)

    def test_skew_conversion(self):
        a = op2(SIGMA_X, kind="hermitian").skew()
        assert is_hermitian(a.matrix, skew=True) and not is_hermitian(a.matrix)
        assert np.allclose(a.matrix, -1j * SIGMA_X)


class TestTensorEmbed:
    def test_identity_padding(self):
        sp = qd.HilbertSpace((("qubit1", 2), ("qubit2", 2)))
        emb = qd.embed_product(sp, {"qubit1": SIGMA_Z})
        assert np.allclose(emb.matrix, np.kron(SIGMA_Z, IDENTITY_2))
        assert is_hermitian(emb.matrix)

    def test_identity_operator_gives_identity(self):
        sp = qd.HilbertSpace((("qubit", 2), ("env", 3)))
        emb = qd.embed_product(sp, {"qubit": np.eye(2)})
        assert np.allclose(emb.matrix, np.eye(6))

    def test_action_on_product_state(self):
        # sigma_x on qubit2 of qubit x qubit x env(3): |0>|1>|2> -> |0>|0>|2>
        sp = qd.HilbertSpace((("qubit1", 2), ("qubit2", 2), ("env", 3)))
        emb = qd.embed_product(sp, {"qubit2": SIGMA_X})
        psi = qd.basis_state(sp, (0, 1, 2))
        out = emb.matrix @ psi.amplitudes
        assert np.allclose(out, qd.basis_state(sp, (0, 0, 2)).amplitudes)

    def test_unknown_slot_and_dim_mismatch(self):
        sp = qd.HilbertSpace((("qubit", 2), ("env", 3)))
        with pytest.raises(ValueError):
            qd.embed_product(sp, {"nope": SIGMA_X})
        with pytest.raises(ValueError):
            qd.embed_product(sp, {"env": SIGMA_X})


class TestCommutator:
    def test_sigma_xy(self):
        got = qd.commutator(op2(SIGMA_X, "hermitian"), op2(SIGMA_Y, "hermitian"))
        assert np.allclose(got.matrix, 2j * SIGMA_Z)
        assert is_hermitian(got.matrix, skew=True)  # i times hermitian

    def test_self_commutator_vanishes(self):
        a = op2(SIGMA_X + 0.3 * SIGMA_Z, "hermitian")
        assert qd.commutator(a, a).norm() == 0.0

    def test_space_mismatch(self):
        a = op2(SIGMA_X)
        b = qd.Operator(qd.HilbertSpace((("env", 3),)), np.eye(3, dtype=complex))
        with pytest.raises(ValueError):
            qd.commutator(a, b)


class TestLadder:
    def test_actions(self):
        b, bd = qd.ladder_pair(4)
        for n in range(1, 4):
            e = np.zeros(4); e[n] = 1
            assert np.allclose(b.matrix @ e, np.sqrt(n) * np.eye(4)[n - 1])
        e0 = np.eye(4)[0]
        assert np.allclose(b.matrix @ e0, 0)           # vacuum annihilation
        for n in range(3):
            e = np.eye(4)[n]
            assert np.allclose(bd.matrix @ e, np.sqrt(n + 1) * np.eye(4)[n + 1])
        assert np.allclose(bd.matrix @ np.eye(4)[3], 0)  # truncation boundary

    def test_dagger_relation_and_truncated_ccr(self):
        b, bd = qd.ladder_pair(5)
        assert np.array_equal(bd.matrix, b.matrix.conj().T)
        ccr = b.matrix @ bd.matrix - bd.matrix @ b.matrix
        assert np.allclose(ccr[:4, :4], np.eye(5)[:4, :4])   # identity below the top
        assert not np.allclose(ccr[4, 4], 1.0)               # broken only at the top

    def test_too_few_levels(self):
        with pytest.raises(ValueError):
            qd.ladder_pair(1)


class TestFieldQuadrature:
    def test_w1_n2_is_sigma_x(self):
        f = qd.field_quadrature(1.0, 2)
        assert np.allclose(f.matrix, np.array([[0, 1], [1, 0]]))

    def test_zero_coupling(self):
        assert qd.field_quadrature(0.0, 4).norm() == 0.0

    def test_iw_action_on_level1(self):
        # w=i, N=3: F|1> = i sqrt(2)|2> - i|0>
        f = qd.field_quadrature(1j, 3)
        e1 = np.eye(3)[1]
        assert np.allclose(f.matrix @ e1, np.array([-1j, 0, 1j * np.sqrt(2)]))

    def test_first_power_action_general(self):
        w = 0.3 - 0.7j
        f = qd.field_quadrature(w, 5)
        for n in range(5):
            e = np.zeros(5, dtype=complex); e[n] = 1
            expect = np.zeros(5, dtype=complex)
            if n + 1 < 5:
                expect[n + 1] = w * np.sqrt(n + 1)
            if n - 1 >= 0:
                expect[n - 1] = np.conj(w) * np.sqrt(n)
            assert np.allclose(f.matrix @ e, expect)

    def test_squared_action_on_vacuum(self):
        # F^2|0> = |w|^2 |0> + sqrt(2) w^2 |2>
        w = 0.3 + 0.4j
        f = qd.field_quadrature(w, 3)
        out = f.matrix @ (f.matrix @ np.eye(3)[0])
        assert np.allclose(out, [abs(w) ** 2, 0.0, np.sqrt(2) * w ** 2])


class TestMatrixExpApply:
    """algebra.unitary_stepper, the exp(t a) that propagate steps with."""

    def test_zero_generator(self):
        xi = np.array([1, 1j]) / np.sqrt(2)
        out = unitary_stepper(np.zeros((2, 2)))(xi, 3.7)
        assert np.allclose(out, xi)

    def test_pi_pulse_global_phase(self):
        xi = np.array([0.6, 0.8j])
        out = unitary_stepper(-1j * SIGMA_X)(xi, np.pi)
        assert abs(abs(np.vdot(out, xi)) - 1.0) < 1e-12
        assert np.allclose(out, -xi)

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(7)
        sp = qd.HilbertSpace((("env", 5),))
        for _ in range(100):
            h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            h = h + h.conj().T
            xi = qd.random_state(sp, rng)
            out = unitary_stepper(-1j * h)(xi.amplitudes, rng.uniform(-3, 3))
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    @pytest.mark.parametrize("name", ["bait", "two_qubit", "single_qubit", "restructured", "commutant_toy"])
    def test_eigenpairs_and_steps_are_numpy_eigh_bit_for_bit(self, name, request):
        # the open-loop traces keep their bytes only if the stepper's eigh is
        # np.linalg.eigh's, v in the same (C) order; the commutant basis takes
        # A_I's eigenpairs from the same _eigh, and the stacked control fields
        # are the per-Operator products
        sys_ = request.getfixturevalue(name)
        rng = np.random.default_rng(21)
        xi = qd.random_state(sys_.space, rng).amplitudes
        n = sys_.space.total_dim
        want = np.array([realify(a.matrix @ xi) for a in sys_.controls])
        assert control_field_matrix(sys_, qd.StateVector(sys_.space, xi)).tobytes() == want.tobytes()
        gens = [sys_.generator(rng.normal(size=sys_.n_controls)).matrix,
                sys_.generator(None, include_interaction=False).matrix,
                sys_.interaction.matrix,
                *sys_.control_stack.reshape(-1, n, n)]
        for a in gens:
            w, v = _eigh(1j * a)
            w_ref, v_ref = np.linalg.eigh(1j * a)
            assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
            assert v.flags.c_contiguous
            want = v_ref @ (np.exp(-1j * w_ref * 0.37) * (v_ref.conj().T @ xi))
            assert np.array_equal(unitary_stepper(a)(xi, 0.37), want)


class TestRealifiedRank:
    def test_iv_doubles(self):
        v = np.array([1.0 + 2j, 0.5])
        assert qd.realified_rank([v, 1j * v]) == 2

    def test_real_scaling_collapses(self):
        v = np.array([1.0 + 2j, 0.5])
        assert qd.realified_rank([v, 2 * v]) == 1

    def test_single_qubit_degenerate_point(self):
        # {-i|0>, i|1>, -|1>, i|0>} has real rank 3
        vs = [np.array([-1j, 0]), np.array([0, 1j]), np.array([0, -1]), np.array([1j, 0])]
        assert qd.realified_rank(vs) == 3

    def test_empty_and_monotone_append(self):
        assert qd.realified_rank([]) == 0
        rng = np.random.default_rng(0)
        vs = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3)]
        base = qd.realified_rank(vs)
        for _ in range(5):
            w = rng.normal(size=4) + 1j * rng.normal(size=4)
            grown = qd.realified_rank(vs + [w])
            assert base <= grown <= base + 1

    def test_real_scalar_invariance(self):
        rng = np.random.default_rng(1)
        vs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(4)]
        r = qd.realified_rank(vs)
        scaled = [v * s for v, s in zip(vs, [2.0, -0.3, 7.0, -1.0])]
        assert qd.realified_rank(scaled) == r


class TestLieClosure:
    def _skew(self, mat):
        return qd.Operator(qd.HilbertSpace((("qubit", 2),)), -1j * np.asarray(mat, complex), "skew_hermitian")

    @staticmethod
    def _stack(*ops):
        return np.array([op.matrix for op in ops])

    def test_su2_closure(self):
        basis = qd.lie_closure(self._stack(self._skew(SIGMA_X), self._skew(SIGMA_Y)))
        assert len(basis) == 3
        span = operator_span(self._skew(SIGMA_Z).space, basis)
        assert span.residual(self._skew(SIGMA_Z)) < span.span.tol

    def test_zero_generator_is_accepted(self):
        zero = self._skew(np.zeros((2, 2)))
        assert len(qd.lie_closure(self._stack(zero))) == 0
        gens = self._stack(zero, self._skew(SIGMA_X), self._skew(SIGMA_Y))
        assert len(qd.lie_closure(gens)) == 3

    def test_abelian_single_generator(self):
        basis = qd.lie_closure(self._stack(self._skew(SIGMA_Z)))
        assert len(basis) == 1

    def test_each_block_of_a_block_stack_is_tested_skew(self):
        # is_hermitian tests a (b, q, q) stack block by block, as the
        # block-diagonal matrix; a whole-array .T would pair entries of
        # different blocks (b = q = 2 here) and refuse this skew stack
        skew = np.array([[-1j * SIGMA_X, -1j * SIGMA_Z], [-1j * SIGMA_Y, 2j * SIGMA_Z]])
        assert is_hermitian(skew[0], skew=True)
        assert len(qd.lie_closure(skew)) == 4              # su(2) on the first block, i sigma_z on the second
        one_bad = skew.copy()
        one_bad[1, 1] = SIGMA_Z                                         # hermitian, not skew
        assert not is_hermitian(one_bad[1], skew=True)
        with pytest.raises(ValueError, match="skew-hermitian"):
            qd.lie_closure(one_bad)

    def test_block_closure_comes_back_as_blocks(self):
        blocks = np.array([[-1j * SIGMA_X, -1j * SIGMA_Y], [-1j * SIGMA_Y, -1j * SIGMA_X]])
        basis = qd.lie_closure(blocks)
        assert basis.shape[1:] == (2, 2, 2)
        gram = np.einsum("ibjk,lbjk->il", basis.conj(), basis).real
        assert np.allclose(gram, np.eye(len(basis)), rtol=0, atol=1e-12)
        assert np.array_equal(basis, -basis.conj().swapaxes(-1, -2))
        assert qd.lie_closure(np.zeros((2, 3, 2, 2), dtype=complex)).shape == (0, 3, 2, 2)

    def test_environment_power_growth(self):
        # sigma_{x,y} (x) F closures grow with the quadrature powers
        def closure_dim(n_env):
            sp = qd.HilbertSpace((("qubit", 2), ("env", n_env)))
            f = qd.field_quadrature(0.3 + 0.1j, n_env).matrix
            gens = [
                qd.Operator(sp, -1j * np.kron(s, f), "skew_hermitian") for s in (SIGMA_X, SIGMA_Y)
            ]
            return len(qd.lie_closure(self._stack(*gens)))

        assert closure_dim(6) > closure_dim(3)
