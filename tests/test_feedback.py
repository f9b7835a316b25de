import numpy as np
import pytest

import qdecouple as qd
from qdecouple.algebra import SIGMA_Z
from oracles import fd_field_bracket, operator_span, operators


class TestCommutantBasis:
    def test_single_qubit_sigma_z(self):
        sp = qd.HilbertSpace((("qubit", 2),))
        a_i = qd.Operator(sp, -1j * SIGMA_Z, "skew_hermitian")
        basis = qd.commutant_basis(a_i)
        assert len(basis) == 2
        span = operator_span(sp, basis)
        assert span.residual(qd.Operator(sp, 1j * np.eye(2), "skew_hermitian")) < span.span.tol
        assert span.residual(a_i) < span.span.tol

    def test_zero_interaction_gives_all_skew(self):
        sp = qd.HilbertSpace((("qubit", 2),))
        a_i = qd.Operator(sp, np.zeros((2, 2)), "skew_hermitian")
        basis = qd.commutant_basis(a_i)
        assert len(basis) == 4          # real dimension of u(2)

    def test_defining_property(self, commutant_toy):
        basis = qd.commutant_basis(commutant_toy.interaction)
        for x in operators(commutant_toy.space, basis):
            assert qd.commutator(x, commutant_toy.interaction).norm() < 1e-9


class TestBuildFrame:
    def test_toy_succeeds_at_generic_states(self, commutant_toy):
        rng = np.random.default_rng(0)
        plan = qd.FramePlan.build(commutant_toy)
        for _ in range(3):
            xi = qd.random_state(commutant_toy.space, rng)
            res = qd.build_frame(commutant_toy, xi, plan=plan)
            assert res.ok
            assert res.report["frame_rank"] == commutant_toy.n_controls
            frame = res.frame
            for v_op in operators(commutant_toy.space, frame.generating_ops):
                assert qd.commutator(v_op, commutant_toy.interaction).norm() < 1e-9
            assert np.allclose(frame.vectors[0],
                               commutant_toy.interaction.matrix @ xi.amplitudes)
            # pairwise commutator norms are audit data, not assumptions
            assert frame.pairwise_commutator_norms().shape == (5, 5)

    def test_restructured_reports_deficiency(self, restructured):
        rng = np.random.default_rng(1)
        xi = qd.random_state(restructured.space, rng)
        res = qd.build_frame(restructured, xi)
        assert not res.ok
        assert res.report["required_rank"] == 24
        assert res.report["control_field_rank"] == 12
        assert not res.report["interaction_in_control_span"]
        assert res.report["missing_codim"] > 0

    def test_vanishing_interaction_field_raises(self, commutant_toy):
        xi = qd.dfs_state(commutant_toy)
        with pytest.raises(ValueError):
            qd.build_frame(commutant_toy, xi)


class TestSynthesize:
    def test_two_control_toy_hand_checkable(self, commutant_toy):
        # r = 2 sub-system: controls {H_SB-direction, swap}: d = I at any
        # state where the two fields are independent, J = [[0,1],[0,0]],
        # beta = J.
        sub = qd.ControlSystem(
            commutant_toy.space,
            commutant_toy.drift,
            commutant_toy.controls[:2],
            commutant_toy.interaction,
            commutant_toy.output_op,
            scenario="toy_r2",
            control_labels=["B1", "B2"],
        )
        rng = np.random.default_rng(2)
        xi = qd.random_state(sub.space, rng)
        frame = qd.CommutingFrame(
            xi,
            [qd.eval_field(sub.controls[0], xi), qd.eval_field(sub.controls[1], xi)],
            [sub.controls[0], sub.controls[1]],
        )
        law = qd.synthesize(sub, frame)
        assert np.allclose(law.d_matrix, np.eye(2), atol=1e-9)
        assert np.allclose(law.j_matrix, [[0, 1], [0, 0]])
        assert np.allclose(law.beta, law.j_matrix @ law.d_matrix)
        assert np.allclose(law.s_matrix[:, 0], 0)

    def test_beta_equals_j_times_d_and_new_controls(self, commutant_toy):
        rng = np.random.default_rng(3)
        xi = qd.random_state(commutant_toy.space, rng)
        res = qd.build_frame(commutant_toy, xi)
        law = qd.synthesize(commutant_toy, res.frame)
        assert np.abs(law.beta - law.j_matrix @ law.d_matrix).max() < 1e-10
        k_rows = np.array([a.matrix @ xi.amplitudes for a in commutant_toy.controls])
        r = commutant_toy.n_controls
        for i in range(r - 1):
            kt = law.beta[i] @ k_rows
            # K~_i equals v_{i+1} up to its Delta-component (eq1 structure)
            diff = kt - res.frame.vectors[i + 1]
            v1 = res.frame.vectors[0]
            coeff = np.vdot(v1, diff).real / np.vdot(v1, v1).real
            assert np.linalg.norm(diff - coeff * v1) < 1e-8
        assert np.abs(law.beta[r - 1] @ k_rows).max() < 1e-10

    def test_closed_loop_drift_loses_frame_components(self, commutant_toy):
        rng = np.random.default_rng(4)
        xi = qd.random_state(commutant_toy.space, rng)
        res = qd.build_frame(commutant_toy, xi)
        law = qd.synthesize(commutant_toy, res.frame)
        k0 = commutant_toy.drift.matrix @ xi.amplitudes
        k_rows = np.array([a.matrix @ xi.amplitudes for a in commutant_toy.controls])
        closed = k0 + law.alpha @ k_rows
        v_rows = res.frame.vectors
        from qdecouple.spans import realify
        coeffs, *_ = np.linalg.lstsq(realify(v_rows).T, realify(closed), rcond=None)
        assert np.abs(coeffs[1:]).max() < 1e-8

    def test_literal_beta_singular_regularized_invertible(self, commutant_toy):
        rng = np.random.default_rng(5)
        xi = qd.random_state(commutant_toy.space, rng)
        res = qd.build_frame(commutant_toy, xi)
        lit = qd.synthesize(commutant_toy, res.frame, mode="literal")
        reg = qd.synthesize(commutant_toy, res.frame, mode="regularized")
        assert lit.beta_singular
        assert not reg.beta_singular

    def test_j_is_formed_once_per_shape_and_mode_and_read_only(self, commutant_toy):
        rng = np.random.default_rng(5)
        frames = [qd.build_frame(commutant_toy, qd.random_state(commutant_toy.space, rng)).frame for _ in range(3)]
        laws = [qd.synthesize(commutant_toy, f, mode=m) for f, m in zip(frames, ("literal", "regularized", "literal"))]
        assert laws[0].j_matrix is laws[2].j_matrix and laws[1].j_matrix is not laws[0].j_matrix
        with pytest.raises(ValueError, match="read-only"):
            laws[0].j_matrix[0, 0] = 1.0
        assert laws[1].j_matrix[4, 0] == 1.0 and laws[0].j_matrix[4, 0] == 0.0

    def test_beta_singular_cuts_at_the_synthesis_tol(self, commutant_toy):
        rng = np.random.default_rng(5)
        xi = qd.random_state(commutant_toy.space, rng)
        res = qd.build_frame(commutant_toy, xi)
        law = qd.synthesize(commutant_toy, res.frame, mode="regularized", tol=1e-7)
        assert law.details["tol"] == 1e-7
        s = np.linalg.svd(law.beta, compute_uv=False)
        law.details["tol"] = 0.5 * s[-1] / s[0]
        assert not law.beta_singular
        law.details["tol"] = 2.0 * s[-1] / s[0]             # the cut follows details["tol"], not an eps rule
        assert law.beta_singular

    def test_nearly_singular_d_rejected_at_the_synthesis_tol(self, commutant_toy):
        # v_1 = K_1, v_2 = K_1 + 1e-12 K_2: d = [[1, 0], [1, 1e-12]] expresses the
        # frame exactly, but its singular values are 1e-12 apart in scale
        sub = qd.ControlSystem(
            commutant_toy.space,
            commutant_toy.drift,
            commutant_toy.controls[:2],
            commutant_toy.interaction,
            commutant_toy.output_op,
            scenario="toy_r2",
            control_labels=["B1", "B2"],
        )
        xi = qd.random_state(sub.space, np.random.default_rng(2))
        k1, k2 = (qd.eval_field(a, xi) for a in sub.controls)
        frame = qd.CommutingFrame(
            xi,
            [k1, k1 + 1e-12 * k2],
            [sub.controls[0], sub.controls[0] + sub.controls[1] * 1e-12],
        )
        with pytest.raises(qd.SynthesisError):
            qd.synthesize(sub, frame)

    def test_rank_mismatch_rejected(self, commutant_toy):
        rng = np.random.default_rng(6)
        xi = qd.random_state(commutant_toy.space, rng)
        frame = qd.CommutingFrame(xi, [qd.eval_field(commutant_toy.interaction, xi)],
                                  [commutant_toy.interaction])
        with pytest.raises(qd.SynthesisError):
            qd.synthesize(commutant_toy, frame)

    def test_resynthesis_continuity(self, commutant_toy):
        rng = np.random.default_rng(7)
        xi = qd.random_state(commutant_toy.space, rng)
        res = qd.build_frame(commutant_toy, xi)
        law = qd.synthesize(commutant_toy, res.frame)
        bump = rng.normal(size=12) + 1j * rng.normal(size=12)
        bump = 1e-6 * bump / np.linalg.norm(bump)
        xi2 = qd.normalize(commutant_toy.space, xi.amplitudes + bump)
        law2 = qd.synthesize(commutant_toy, qd.build_frame(commutant_toy, xi2).frame)
        assert np.abs(law.beta - law2.beta).max() < 1e-3

    def test_invariance_audit_fd_bracket(self, commutant_toy):
        # finite-difference bracket of the closed-loop controls with K_I,
        # including beta's state dependence via re-synthesis, stays in
        # span{K_I(xi)}
        rng = np.random.default_rng(8)
        xi = qd.random_state(commutant_toy.space, rng)
        plan = qd.FramePlan.build(commutant_toy)

        def k_tilde(i):
            def field(x):
                st = qd.normalize(commutant_toy.space, x)
                resx = qd.build_frame(commutant_toy, st, plan=plan)
                lawx = qd.synthesize(commutant_toy, resx.frame)
                k_rows = np.array([a.matrix @ x for a in commutant_toy.controls])
                return lawx.beta[i] @ k_rows
            return field

        k_i_field = lambda x: commutant_toy.interaction.matrix @ x
        v1 = commutant_toy.interaction.matrix @ xi.amplitudes
        for i in range(2):
            br = fd_field_bracket(k_tilde(i), k_i_field, xi.amplitudes, h=1e-5)
            coeff = np.vdot(v1, br) / np.vdot(v1, v1)
            assert np.linalg.norm(br - coeff * v1) < 1e-5


class TestClosedLoopGenerator:
    def test_zero_external_zero_alpha_gives_drift(self, commutant_toy):
        rng = np.random.default_rng(9)
        xi = qd.random_state(commutant_toy.space, rng)
        res = qd.build_frame(commutant_toy, xi)
        law = qd.synthesize(commutant_toy, res.frame)
        law.alpha = np.zeros_like(law.alpha)
        gen = qd.closed_loop_generator(commutant_toy, law, np.zeros(5), include_interaction=False)
        assert np.allclose(gen.matrix, commutant_toy.drift.matrix)

    def test_identity_beta_recovers_open_loop(self, commutant_toy):
        rng = np.random.default_rng(10)
        xi = qd.random_state(commutant_toy.space, rng)
        res = qd.build_frame(commutant_toy, xi)
        law = qd.synthesize(commutant_toy, res.frame)
        law.beta = np.eye(5)
        law.j_matrix = np.eye(5)
        law.d_matrix = np.eye(5)
        law.alpha = np.zeros(5)
        v = np.array([0.3, -0.2, 0.5, 0.0, 1.0])
        gen = qd.closed_loop_generator(commutant_toy, law, v, include_interaction=False)
        assert np.allclose(gen.matrix, commutant_toy.generator(v, include_interaction=False).matrix)
