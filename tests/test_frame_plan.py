"""The precompiled feedback plan reproduces the per-state frame and law.

The reference below recomputes everything at the state with the formulas
the plan replaced: one RealSpan per candidate set, one Operator per
candidate, the commutant built per call, and the law by two least-squares
solves (d from V = d K, the drift split from V^T c = K_0), an explicit
inverse and a separate cond(d).  The plan must agree with it on the ranks
and, to 1e-12, on d, alpha, beta, S and cond(d): at seeded states, at every
state of a closed loop, and for frames built by hand, whose control basis
synthesize computes on demand.  Its drift residual outside span(Q) must
stay within the express check's tol of the least-squares one outside
span(V).  The frame's selection must keep the operators that
oracles.frame_one_row_at_a_time, one new_direction test per candidate,
keeps.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import qdecouple as qd
import qdecouple.simulate as simulate
from qdecouple.algebra import SIGMA_X, SIGMA_Y, embed_product
from qdecouple.cli import main as cli_main
from qdecouple.feedback import FramePlan, commutator_norm_table, control_commutant_combos
from qdecouple.spans import RealSpan, realified_nullspace, realify, row_norms
from oracles import frame_one_row_at_a_time, operators

TOL = 1e-9


def reference_frame_and_law(sys_, xi, tol=TOL):
    n, r = sys_.space.total_dim, sys_.n_controls
    k_i = sys_.interaction.matrix @ xi.amplitudes
    k_rows = np.array([realify(a.matrix @ xi.amplitudes) for a in sys_.controls])
    g_span = RealSpan(2 * n, tol=tol)
    g_span.add_batch(k_rows)
    report = {
        "control_field_rank": g_span.rank,
        "interaction_in_control_span": bool(g_span.residual(realify(k_i)) < tol),
    }
    frame_span = RealSpan(2 * n, tol=tol)
    vectors = []

    def try_add(mat):
        val = mat @ xi.amplitudes
        row = realify(val)
        if np.linalg.norm(row) > tol and frame_span.add(row):
            vectors.append(val)

    if report["interaction_in_control_span"]:
        frame_span.add(realify(k_i))
        vectors.append(k_i)
        for cand in control_commutant_combos(sys_, tol=tol):
            if len(vectors) == r:
                break
            try_add(cand)
        if len(vectors) < r:
            commutant = qd.commutant_basis(sys_.interaction, tol=tol)
            w = np.array([realify(op @ xi.amplitudes) for op in commutant])
            combo_basis = realified_nullspace(g_span.project_out(w).T, len(commutant), tol=tol)
            mats = commutant
            for coeffs in combo_basis.T @ combo_basis:
                if len(vectors) == r:
                    break
                if np.linalg.norm(coeffs) > tol:
                    try_add(np.tensordot(coeffs, mats, axes=1))
    report["frame_rank"] = len(vectors)
    if len(vectors) < r:
        return report, None
    return report, reference_law(sys_, xi, vectors)


def reference_law(sys_, xi, vectors, mode="literal"):
    r = sys_.n_controls
    k_rows = np.array([realify(a.matrix @ xi.amplitudes) for a in sys_.controls])
    v_rows = realify(np.array(vectors))
    d = np.linalg.lstsq(k_rows.T, v_rows.T, rcond=None)[0].T
    s_matrix = np.linalg.inv(d)
    s_matrix[:, 0] = 0.0
    j = np.eye(r, k=1)
    if mode == "regularized":
        j[r - 1, 0] = 1.0
    beta = j @ d
    k0 = realify(sys_.drift.matrix @ xi.amplitudes)
    c = np.linalg.lstsq(v_rows.T, k0, rcond=None)[0]
    alpha_tilde = np.zeros(r)
    alpha_tilde[: r - 1] = -c[1:]
    return {"d": d, "alpha": alpha_tilde @ beta, "beta": beta, "S": s_matrix, "cond_d": np.linalg.cond(d),
            "c1": c[0], "drift_outside_frame": np.linalg.norm(k0 - v_rows.T @ c)}


def mixed_toy():
    """The commutant toy's first two controls plus sigma_x, sigma_y on each qubit.

    The single-qubit drives do not commute with the interaction, so the
    control-commutant candidates stop at K_I and the swap field; general
    commutant combinations supply further directions inside span(G(xi)),
    and the frame stays short of rank 6.
    """
    toy = qd.build_commutant_toy()
    drives = [embed_product(toy.space, {q: s}).skew()
              for q in ("qubit1", "qubit2") for s in (SIGMA_X, SIGMA_Y)]
    return qd.ControlSystem(
        toy.space, toy.drift, [*toy.controls[:2], *drives], toy.interaction, toy.output_op,
        scenario="toy_mixed", control_labels=["B1", "B2", "X1", "Y1", "X2", "Y2"],
    )


def assert_matches_reference(sys_, plan, xi):
    ref_report, ref_law = reference_frame_and_law(sys_, xi)
    res = qd.build_frame(sys_, xi, plan=plan)
    for key in ("control_field_rank", "interaction_in_control_span", "frame_rank"):
        assert res.report[key] == ref_report[key], key
    assert res.ok == (ref_law is not None)
    if ref_law is None:
        return res
    assert_law_matches(qd.synthesize(sys_, res.frame), ref_law)
    return res


LAW_KEYS = ("d", "alpha", "beta", "S", "cond_d")


def assert_law_matches(law, ref_law, keys=LAW_KEYS):
    got = {"d": law.d_matrix, "alpha": law.alpha, "beta": law.beta, "S": law.s_matrix, **law.details}
    for key in keys:
        np.testing.assert_allclose(got[key], ref_law[key], rtol=1e-12, atol=1e-12, err_msg=key)


def assert_frame_matches_one_row_loop(sys_, plan, xi):
    # the kept operators (bit for bit where they are plan rows), frame_rank and missing_codim
    res = qd.build_frame(sys_, xi, plan=plan)
    want = frame_one_row_at_a_time(sys_, xi, plan)
    assert (res.report["frame_rank"], res.report["missing_codim"]) == (want["frame_rank"], want["missing_codim"])
    assert res.ok == (want["frame_rank"] == sys_.n_controls)
    if res.ok and "commutant_dim" in res.report:
        np.testing.assert_allclose(res.frame.generating_ops, want["ops"], rtol=0, atol=1e-12)
    elif res.ok:
        assert res.frame.generating_ops.tobytes() == want["ops"].tobytes()
    return res


@pytest.fixture(scope="module")
def toy_trajectories(commutant_toy):
    """Per seed, the plan, the states build_frame meets and the audit rows of a literal decoupling_pair run of the toy.

    Seed 11 runs 2 x 100 steps (two 0.5 segments per trace), seed 31 2 x 50
    (two 0.25 segments).
    """
    real_build_frame = simulate.build_frame
    runs = {}
    for seed, segment in ((11, 0.5), (31, 0.25)):
        plans, states = [], []

        def recording_build_frame(sys_, xi, plan=None):
            plans.append(plan)
            states.append(xi)
            return real_build_frame(sys_, xi, plan=plan)

        xi0 = qd.random_state(commutant_toy.space, np.random.default_rng(seed))
        sched = qd.PulseSchedule(
            [(segment, np.array([0.0, 1.0, 0.4, 0.0, 0.2])), (segment, np.array([0.0, -0.5, 0.2, 0.3, 0.0]))]
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "build_frame", recording_build_frame)
            trace_g, trace_0, _ = qd.decoupling_pair(commutant_toy, sched, xi0, dt=0.01, mode="literal",
                                                     collect_audit=True)
        rows = trace_g.audit + trace_0.audit
        assert len(rows) == len(states) == round(400 * segment) and all(p is plans[0] for p in plans)
        runs[seed] = (plans[0], states, rows)
    return runs


def toy_subsystem(toy, controls, labels):
    return qd.ControlSystem(toy.space, toy.drift, controls, toy.interaction, toy.output_op,
                            scenario="toy_sub", control_labels=labels)


def test_toy_plan_matches_reference_at_seeded_states(commutant_toy):
    plan = FramePlan.build(commutant_toy)
    rng = np.random.default_rng(1234)
    for _ in range(5):
        res = assert_matches_reference(commutant_toy, plan, qd.random_state(commutant_toy.space, rng))
        assert res.ok and "commutant_dim" not in res.report


@pytest.mark.parametrize("build", [qd.build_commutant_toy, mixed_toy, lambda: qd.build_bait(qd.ScenarioParams())],
                         ids=["toy", "mixed_toy", "bait"])
def test_plan_holds_no_copy_of_the_generators(build):
    # A_I, the c control-commutant combinations and the m commutant matrices,
    # plus the (1 + c)^2 commutator table: the drift and controls stay in the system
    sys_ = build()
    plan = FramePlan.build(sys_)
    n = sys_.space.total_dim
    c = len(control_commutant_combos(sys_))
    m = len(qd.commutant_basis(sys_.interaction))
    arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
    assert sum(a.size for a in arrays) == (1 + c + m) * n * n + (1 + c) ** 2
    assert plan.frame_ops.shape == (1 + c, n, n) and plan.commutator_norms.shape == (1 + c, 1 + c)
    assert plan.frame_ops[0].tobytes() == sys_.interaction.matrix.tobytes()


def test_field_rows_are_the_generator_stack_at_the_state(commutant_toy):
    # controls, then the drift, as sys.generator_stack holds them, bit for bit
    sub = toy_subsystem(commutant_toy, commutant_toy.controls[:2], ["B1", "B2"])
    rng = np.random.default_rng(44)
    for sys_ in (commutant_toy, sub):
        plan = FramePlan.build(sys_)
        for _ in range(3):
            xi = qd.random_state(sys_.space, rng)
            res = qd.build_frame(sys_, xi, plan=plan)
            assert res.ok
            assert res.frame.field_rows.tobytes() == realify(sys_.generator_stack @ xi.amplitudes).tobytes()


def test_a_combination_along_the_interaction_is_no_candidate(commutant_toy):
    # K_I enters every frame first, so a control combination along A_I would
    # be tested and rejected at every state; the plan leaves it out, and the
    # literal closed loop keeps its bytes when it is put back
    sys_ = commutant_toy
    a_i = sys_.interaction.matrix
    rows = np.array([realify((a @ a_i - a_i @ a).ravel()) for a in sys_.control_stack])
    combos = np.tensordot(realified_nullspace(rows.T, sys_.n_controls, tol=TOL), sys_.control_stack, axes=1)
    combos /= np.linalg.norm(combos, axis=(1, 2))[:, None, None]
    along = RealSpan(2 * a_i.size, tol=TOL)
    along.add(realify(a_i.ravel()))
    kept = along.residuals(realify(combos.reshape(len(combos), -1))) > TOL
    assert kept.tolist() == [False, True, True, True, True]
    plan = FramePlan.build(sys_)
    assert len(plan.frame_ops) == 1 + 4
    assert plan.frame_ops[1:].tobytes() == combos[kept].tobytes()
    ops = np.concatenate([a_i[None], combos])
    put_back = FramePlan(sys_, plan.tol, ops, plan.commutant, commutator_norm_table(ops), plan.interaction_floor)
    xi0 = qd.random_state(sys_.space, np.random.default_rng(11))
    sched = qd.PulseSchedule([(0.5, np.array([0.0, 1.0, 0.4, 0.0, 0.2])),
                              (0.5, np.array([0.0, -0.5, 0.2, 0.3, 0.0]))])
    for include in (True, False):
        y = [simulate.propagate_closed_loop(sys_, sched, xi0, dt=0.01, mode="literal", include_interaction=include,
                                            plan=p).y_values.tobytes() for p in (plan, put_back)]
        assert y[0] == y[1]


def test_commutant_fallback_matches_reference():
    sys_ = mixed_toy()
    plan = FramePlan.build(sys_)
    assert len(plan.frame_ops) == 1 + 1                  # B1 is A_I, so it is not a candidate
    rng = np.random.default_rng(77)
    for _ in range(3):
        res = assert_matches_reference(sys_, plan, qd.random_state(sys_.space, rng))
        assert res.report["commutant_dim"] == len(plan.commutant)
        assert 2 < res.report["frame_rank"] < 6 and not res.ok


def test_every_audit_row_of_a_closed_loop_matches_reference(commutant_toy, toy_trajectories):
    for _, states, rows in toy_trajectories.values():
        for row, xi in zip(rows, states):
            ref_report, ref_law = reference_frame_and_law(commutant_toy, xi)
            assert row["action"] == "synthesized" and row["frame_rank"] == ref_report["frame_rank"]
            law = SimpleNamespace(d_matrix=np.array(row["d"]), alpha=np.array(row["alpha"]),
                                  beta=np.array(row["beta"]), s_matrix=np.array(row["S"]),
                                  details={"cond_d": row["cond_d"]})
            assert_law_matches(law, ref_law)


def test_hand_built_frames_match_reference(commutant_toy, toy_trajectories):
    # at every state of both closed loops and at five seeded states, the
    # frame as build_frame carries it (field rows and Q) and the same
    # vectors by hand (no field rows and no basis: synthesize computes them
    # on demand) give the least-squares law, its c1 and its drift residual
    # outside span(V); the toy's frames lie in span(Q) to roundoff
    plan = toy_trajectories[11][0]
    rng = np.random.default_rng(41)
    seeded = [qd.random_state(commutant_toy.space, rng) for _ in range(5)]
    for xi in [*seeded, *(xi for _, states, _ in toy_trajectories.values() for xi in states)]:
        built = qd.build_frame(commutant_toy, xi, plan=plan).frame
        by_hand = qd.CommutingFrame(xi, built.vectors, built.generating_ops)
        assert by_hand.control_basis is None
        ref = reference_law(commutant_toy, xi, built.vectors)
        for frame in (built, by_hand):
            assert_law_matches(qd.synthesize(commutant_toy, frame), ref, keys=(*LAW_KEYS, "c1", "drift_outside_frame"))


def test_regularized_laws_along_a_closed_loop_match_reference(commutant_toy, toy_trajectories):
    for plan, states, _ in toy_trajectories.values():
        for xi in states:
            frame = qd.build_frame(commutant_toy, xi, plan=plan).frame
            law = qd.synthesize(commutant_toy, frame, mode="regularized")
            ref = reference_law(commutant_toy, xi, frame.vectors, mode="regularized")
            assert_law_matches(law, ref, keys=(*LAW_KEYS, "c1", "drift_outside_frame"))


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-8])
def test_merged_solve_keeps_the_drift_split_within_cond_d_of_least_squares(commutant_toy, eps):
    # c = d^-T y goes through d^-1, so its rounding error grows as
    # cond(M) cond(d) eps, not cond(v_q) eps: with v_2 = K_1 + eps K_2,
    # d = [[1, 0], [1, eps]] has cond(d) about 2 / eps and passes the 1e-9
    # cut, and c_1 is about -c_2 ~ 1 / eps; c1, alpha and the drift's
    # residual keep a relative error below cond(d) * 1e-14 of least squares
    sub = toy_subsystem(commutant_toy, commutant_toy.controls[:2], ["B1", "B2"])
    xi = qd.random_state(sub.space, np.random.default_rng(2))
    k1, k2 = (qd.eval_field(a, xi) for a in sub.controls)
    vectors = [k1, k1 + eps * k2]
    frame = qd.CommutingFrame(xi, vectors, [sub.controls[0].matrix, (sub.controls[0] + sub.controls[1] * eps).matrix])
    law = qd.synthesize(sub, frame)
    ref = reference_law(sub, xi, vectors)
    cond_d = law.details["cond_d"]
    assert 1.0 / eps < cond_d < 4.0 / eps
    bound = cond_d * 1e-14
    for key, got in (("c1", law.details["c1"]), ("alpha", law.alpha),
                     ("drift_outside_frame", law.details["drift_outside_frame"])):
        assert np.linalg.norm(got - ref[key]) <= bound * np.linalg.norm(ref[key]), key


def test_build_frame_refuses_a_state_on_another_space(commutant_toy):
    # the same dimension on other factors, and another dimension
    rng = np.random.default_rng(44)
    for space in (qd.HilbertSpace((("qubits", 4), ("env", 3))),
                  qd.HilbertSpace((("qubit1", 2), ("qubit2", 2), ("env", 4)))):
        with pytest.raises(ValueError, match="different space"):
            qd.build_frame(commutant_toy, qd.random_state(space, rng))


def test_drift_split_agrees_with_least_squares_to_the_express_tol(commutant_toy):
    # drift_outside_frame is measured against span(Q), the least-squares
    # split against span(V).  Where a frame row lies up to tol outside
    # span(Q) (K_I below the membership tol, a row at the express check's
    # bound) the two differ, by at most tol * sum_j |c_j| max(|v_j|, 1);
    # where the commutant combinations complete the frame they agree to
    # roundoff.  The toy's drift lies in span(Q), so c moves only at second
    # order and d, alpha, beta, S, cond(d) and c1 keep 1e-12 throughout.
    plan = FramePlan.build(commutant_toy)
    n = commutant_toy.space.total_dim
    rng = np.random.default_rng(53)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    x -= x.conj().T
    short = FramePlan(commutant_toy, plan.tol, plan.frame_ops[:3], plan.commutant,
                      commutator_norm_table(plan.frame_ops[:3]), plan.interaction_floor)
    gaps = {}
    for _ in range(3):
        xi = qd.random_state(commutant_toy.space, rng)
        amps = xi.amplitudes
        g_span = RealSpan(2 * n, tol=TOL)
        g_span.add_batch(realify(commutant_toy.control_stack @ amps))
        outside = g_span.project_out(realify(x @ amps)[None])[0]
        plans = {"fallback": short}
        for row in (0, 1):                                 # K_I, the first candidate
            ops = plan.frame_ops.copy()
            ops[row] += 0.9 * TOL * np.linalg.norm(ops[row] @ amps) / np.linalg.norm(outside) * x
            plans[row] = FramePlan(commutant_toy, plan.tol, ops, plan.commutant, commutator_norm_table(ops),
                                   plan.interaction_floor)
        for label, p in plans.items():
            res = qd.build_frame(commutant_toy, xi, plan=p)
            assert res.ok and ("commutant_dim" in res.report) == (label == "fallback"), label
            v_rows = realify(res.frame.vectors)
            if label != "fallback":
                np.testing.assert_allclose(g_span.residual(v_rows[label]), 0.9 * TOL, rtol=1e-3)
            law = qd.synthesize(commutant_toy, res.frame)
            ref = reference_law(commutant_toy, xi, res.frame.vectors)
            assert_law_matches(law, ref, keys=(*LAW_KEYS, "c1"))
            c = np.linalg.lstsq(v_rows.T, realify(commutant_toy.drift.matrix @ amps), rcond=None)[0]
            bound = TOL * np.dot(np.abs(c), np.maximum(row_norms(v_rows), 1.0))
            gap = abs(law.details["drift_outside_frame"] - ref["drift_outside_frame"])
            assert gap <= 1.01 * bound + 1e-14, label
            gaps.setdefault(label, []).append(gap)
    assert max(gaps["fallback"]) < 1e-14 and max(gaps[0]) < 1e-14     # c_1 = 0: K_I carries no drift
    assert min(gaps[1]) > 1e-11                                         # the candidate does: O(tol), not 0


def test_frame_selection_matches_the_one_row_loop_along_a_closed_loop(commutant_toy, toy_trajectories):
    for plan, states, _ in toy_trajectories.values():
        for xi in states:
            assert assert_frame_matches_one_row_loop(commutant_toy, plan, xi).ok


@pytest.mark.parametrize("name", ["single_qubit", "two_qubit", "bait", "restructured", "mixed_toy"])
def test_frame_selection_matches_the_one_row_loop_at_seeded_states(name, params):
    sys_ = mixed_toy() if name == "mixed_toy" else qd.build_scenario(name, params)
    plan = FramePlan.build(sys_)
    rng = np.random.default_rng(51)
    for _ in range(10):
        assert_frame_matches_one_row_loop(sys_, plan, qd.random_state(sys_.space, rng))


def test_frame_selection_drops_a_rejected_candidate_and_factors_again(commutant_toy):
    # a duplicated candidate and a candidate along K_I are rejected among the
    # first r rows, so the rest are factored again and the frame keeps the
    # plain plan's operators; with two candidates only, the commutant
    # combinations complete the frame after the kept rows
    plan = FramePlan.build(commutant_toy)
    a_i, combos = plan.frame_ops[:1], plan.frame_ops[1:]
    plans = {}
    for label, ops in (("duplicate", np.concatenate([a_i, combos[:2], combos[1:2], combos[2:]])),
                       ("along K_I", np.concatenate([a_i, 2.0 * a_i, combos])), ("short", plan.frame_ops[:3])):
        plans[label] = FramePlan(commutant_toy, plan.tol, ops, plan.commutant, commutator_norm_table(ops),
                                 plan.interaction_floor)
    rng = np.random.default_rng(52)
    for _ in range(5):
        xi = qd.random_state(commutant_toy.space, rng)
        plain = qd.build_frame(commutant_toy, xi, plan=plan).frame
        for label, odd in plans.items():
            res = assert_frame_matches_one_row_loop(commutant_toy, odd, xi)
            assert res.ok, label
            assert ("commutant_dim" in res.report) == (label == "short"), label
            if label != "short":
                assert res.frame.generating_ops.tobytes() == plain.generating_ops.tobytes(), label


def test_hand_built_frame_of_a_two_control_subsystem_matches_reference(commutant_toy):
    sub = toy_subsystem(commutant_toy, commutant_toy.controls[:2], ["B1", "B2"])
    rng = np.random.default_rng(42)
    for _ in range(3):
        xi = qd.random_state(sub.space, rng)
        k1, k2 = (qd.eval_field(a, xi) for a in sub.controls)
        vectors = [k1 + 0.3 * k2, -0.5 * k1 + 1.2 * k2]
        frame = qd.CommutingFrame(xi, vectors, [sub.controls[0].matrix, sub.controls[1].matrix])
        law = qd.synthesize(sub, frame)
        np.testing.assert_allclose(law.d_matrix, [[1.0, 0.3], [-0.5, 1.2]], atol=1e-12)
        assert_law_matches(law, reference_law(sub, xi, vectors))


def test_frame_residual_is_reported_before_a_singular_d(commutant_toy):
    # dependent control fields (B1 twice) leave d singular for any frame; a
    # frame outside their span fails on its residual first
    b1 = commutant_toy.controls[0]
    sub = toy_subsystem(commutant_toy, [b1, b1 * 2.0], ["B1", "2B1"])
    xi = qd.random_state(sub.space, np.random.default_rng(43))
    k1 = qd.eval_field(b1, xi)
    outside = qd.CommutingFrame(xi, [k1, qd.eval_field(commutant_toy.controls[1], xi)],
                                [b1.matrix, commutant_toy.controls[1].matrix])
    with pytest.raises(qd.SynthesisError, match="do not express the frame"):
        qd.synthesize(sub, outside)
    inside = qd.CommutingFrame(xi, [k1, 3.0 * k1], [b1.matrix, 3.0 * b1.matrix])
    with pytest.raises(qd.SynthesisError, match="d is singular"):
        qd.synthesize(sub, inside)


def test_table_lookup_equals_commutators(commutant_toy):
    plan = FramePlan.build(commutant_toy)
    xi = qd.random_state(commutant_toy.space, np.random.default_rng(5))
    frame = qd.build_frame(commutant_toy, xi, plan=plan).frame
    by_hand = qd.CommutingFrame(xi, frame.vectors, frame.generating_ops)
    ops = operators(xi.space, frame.generating_ops)
    naive = np.array([[qd.commutator(a, b).norm() for b in ops] for a in ops])
    np.testing.assert_allclose(frame.pairwise_commutator_norms(), naive, atol=1e-12)
    np.testing.assert_allclose(by_hand.pairwise_commutator_norms(), naive, atol=1e-12)
    assert commutator_norm_table([]).shape == (0, 0)


def test_plan_refuses_another_system(commutant_toy):
    plan = FramePlan.build(mixed_toy())
    xi = qd.random_state(commutant_toy.space, np.random.default_rng(6))
    with pytest.raises(ValueError, match="different system"):
        qd.build_frame(commutant_toy, xi, plan=plan)


def test_decoupling_pair_on_toy_stays_decoupled(commutant_toy):
    xi0 = qd.random_state(commutant_toy.space, np.random.default_rng(11))
    sched = qd.PulseSchedule(
        [(0.5, np.array([0.0, 1.0, 0.4, 0.0, 0.2])), (0.5, np.array([0.0, -0.5, 0.2, 0.3, 0.0]))]
    )
    trace_g, trace_0, dev = qd.decoupling_pair(commutant_toy, sched, xi0, dt=0.01, mode="literal")
    assert dev < 1e-9
    assert len(trace_g.times) == len(trace_0.times) == 101


def test_decoupling_pair_synthesizes_at_its_tol(commutant_toy, monkeypatch):
    real_synthesize = simulate.synthesize
    tols = []

    def spy(sys_, frame, mode="literal", tol=1e-9):
        tols.append(tol)
        return real_synthesize(sys_, frame, mode=mode, tol=tol)

    monkeypatch.setattr(simulate, "synthesize", spy)
    xi0 = qd.random_state(commutant_toy.space, np.random.default_rng(12))
    sched = qd.PulseSchedule.constant(0.03, [0.0, 1.0, 0.0, 0.0, 0.0])
    qd.decoupling_pair(commutant_toy, sched, xi0, dt=0.01, mode="literal", tol=1e-7)
    assert tols == [1e-7] * 6


def test_restructured_literal_abort_exit_4_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "restructured", "horizon": 0.5, "initial_state": "random"}))
    code = cli_main(["simulate", "--config", str(cfg), "--feedback-mode", "literal",
                     "--out", str(tmp_path / "out")])
    assert code == 4
    report = json.loads((tmp_path / "out/report.json").read_text())
    assert report["error"] == "rank_deficiency"
    assert report["report"] == {
        "control_commutant_dim": 13,
        "control_field_rank": 12,
        "frame_rank": 0,
        "interaction_in_control_span": False,
        "missing_codim": 24,
        "required_rank": 24,
        "scenario": "restructured",
        "step": 0,
        "t": 0.0,
    }


def test_restructured_open_loop_policy_audit(restructured):
    xi0 = qd.random_state(restructured.space, np.random.default_rng(4))
    sched = qd.PulseSchedule.constant(0.1, np.zeros(24))
    tr = qd.propagate_closed_loop(restructured, sched, xi0, dt=0.05, mode="literal",
                                  policy="open_loop", collect_audit=True)
    assert [row["action"] for row in tr.audit] == ["deficient:open_loop"] * 2
    assert all(row["rank_report"]["frame_rank"] == 0 for row in tr.audit)
