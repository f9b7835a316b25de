from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import qdecouple as qd
from qdecouple.algebra import SIGMA_X, SIGMA_Y
from qdecouple.cli import DEFAULT_CONFIG
from qdecouple.simulate import _bracket_words, _maneuver_unitaries, bait_identity_deviation, maneuver_schedule
from qdecouple.models import bath_basis_blocks
from qdecouple.spans import skew_hermitian_coordinates

import oracles
from oracles import bracket_words_one_add_at_a_time


class TestPulseSchedule:
    def test_positive_durations_enforced(self):
        with pytest.raises(ValueError):
            qd.PulseSchedule([(0.0, [1.0])])
        with pytest.raises(ValueError, match="at least one segment"):
            qd.PulseSchedule([])


class TestPropagate:
    def test_zero_generator_constant_trace(self, params):
        p = qd.ScenarioParams(omega0=0.0, omega_env=0.0, g=0.0)
        sys_ = qd.build_two_qubit(p)
        xi0 = qd.dfs_state(sys_, 0.3 + 0.1j, 0.9)
        tr = qd.propagate(sys_, qd.PulseSchedule.constant(2.0, np.zeros(4)), xi0, dt_max=0.1)
        assert np.abs(tr.y_values - tr.y_values[0]).max() < 1e-14

    def test_single_qubit_decoherence(self):
        p = qd.ScenarioParams(g=0.2 + 0j)
        sys_ = qd.build_single_qubit(p)
        xi0 = qd.normalize(sys_.space, np.kron([1, 1], [1, 0, 0]))
        tr = qd.propagate(sys_, qd.PulseSchedule.constant(20.0, np.zeros(2)), xi0, dt_max=0.02)
        assert abs(tr.y_values[0] - 0.5) < 1e-12
        assert np.abs(np.abs(tr.y_values) - 0.5).max() > 1e-3   # coherence is not preserved

    def test_dfs_immunity(self, two_qubit):
        xi0 = qd.dfs_state(two_qubit)
        tr = qd.propagate(two_qubit, qd.PulseSchedule.constant(20.0, np.zeros(4)), xi0, dt_max=0.02)
        assert np.abs(np.abs(tr.y_values) - 0.5).max() < 1e-9
        assert tr.norm_drift < 1e-8

    def test_propagator_composition(self, two_qubit):
        xi0 = qd.dfs_state(two_qubit)
        seg_a = qd.PulseSchedule.constant(1.3, [1.0, 0.2, 0.0, 0.0])
        seg_b = qd.PulseSchedule.constant(0.7, [0.0, 0.5, -0.3, 0.0])
        joint = qd.PulseSchedule(seg_a.segments + seg_b.segments)
        direct = qd.propagate(two_qubit, joint, xi0, dt_max=0.01).final_state
        mid = qd.propagate(two_qubit, seg_a, xi0, dt_max=0.01).final_state
        two_step = qd.propagate(two_qubit, seg_b, mid, dt_max=0.01).final_state
        assert np.linalg.norm(direct.amplitudes - two_step.amplitudes) < 1e-10


    @pytest.mark.parametrize("dt", [-0.1, 0.0, float("inf"), float("nan")])
    def test_dt_must_be_positive_and_finite(self, commutant_toy, dt):
        # a negative or infinite dt used to take one step per segment, 0 to
        # divide by zero and nan to fail converting the step count
        xi0 = qd.random_state(commutant_toy.space, np.random.default_rng(13))
        sched = qd.PulseSchedule.constant(1.0, [0.0, 1.0, 0.0, 0.0, 0.0])
        runs = [
            lambda: qd.propagate(commutant_toy, sched, xi0, dt_max=dt),
            *(lambda m=mode: qd.propagate_closed_loop(commutant_toy, sched, xi0, dt=dt, mode=m)
              for mode in ("literal", "regularized", "oracle_cancel", "open_loop")),
            lambda: qd.decoupling_pair(commutant_toy, sched, xi0, dt=dt, mode="literal"),
            lambda: qd.decoupling_pair(commutant_toy, sched, xi0, dt=dt, mode="oracle_cancel"),
        ]
        for run in runs:
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                run()


class TestClosedLoop:
    def test_oracle_mode_pairs_exactly(self, commutant_toy):
        rng = np.random.default_rng(0)
        xi0 = qd.random_state(commutant_toy.space, rng)
        sched = qd.PulseSchedule.constant(2.0, [0.0, 1.0, 0.3, 0.0, 0.0])
        _, _, dev = qd.decoupling_pair(commutant_toy, sched, xi0, dt=0.01, mode="oracle_cancel")
        assert dev < 1e-10

    def test_literal_mode_decouples_toy(self, commutant_toy):
        rng = np.random.default_rng(1)
        xi0 = qd.random_state(commutant_toy.space, rng)
        sched = qd.PulseSchedule(
            [(1.0, np.array([0.0, 1.0, 0.4, 0.0, 0.2])), (1.0, np.array([0.0, -0.5, 0.2, 0.3, 0.0]))]
        )
        trace_g, trace_0, dev = qd.decoupling_pair(commutant_toy, sched, xi0, dt=0.01, mode="literal")
        assert dev < 1e-6
        assert trace_g.norm_drift < 1e-8

    def test_g0_closed_loop_equals_interaction_free_run(self, commutant_toy):
        rng = np.random.default_rng(2)
        xi0 = qd.random_state(commutant_toy.space, rng)
        sched = qd.PulseSchedule.constant(1.0, [0.0, 0.7, 0.0, 0.2, 0.0])
        a = qd.propagate_closed_loop(commutant_toy, sched, xi0, dt=0.01,
                                     mode="literal", include_interaction=False)
        b = qd.propagate_closed_loop(commutant_toy, sched, xi0, dt=0.01,
                                     mode="oracle_cancel", include_interaction=False)
        # both runs drop the interaction; literal also applies (alpha, beta)
        assert a.norm_drift < 1e-8 and b.norm_drift < 1e-8

    def test_abort_policy_raises_with_report(self, restructured):
        rng = np.random.default_rng(3)
        xi0 = qd.random_state(restructured.space, rng)
        sched = qd.PulseSchedule.constant(0.5, np.zeros(24))
        with pytest.raises(qd.RankDeficiencyError) as err:
            qd.propagate_closed_loop(restructured, sched, xi0, dt=0.01, mode="literal")
        assert err.value.report["required_rank"] == 24
        assert err.value.report["control_field_rank"] == 12

    def test_open_loop_fallback_policy_runs(self, restructured):
        rng = np.random.default_rng(4)
        xi0 = qd.random_state(restructured.space, rng)
        sched = qd.PulseSchedule.constant(0.2, np.zeros(24))
        tr = qd.propagate_closed_loop(
            restructured, sched, xi0, dt=0.05, mode="literal", policy="open_loop",
            collect_audit=True,
        )
        assert all(row["action"] == "deficient:open_loop" for row in tr.audit)

    def test_audit_rows_contain_matrices(self, commutant_toy):
        rng = np.random.default_rng(5)
        xi0 = qd.random_state(commutant_toy.space, rng)
        sched = qd.PulseSchedule.constant(0.1, [0.0, 1.0, 0.0, 0.0, 0.0])
        tr = qd.propagate_closed_loop(commutant_toy, sched, xi0, dt=0.05,
                                      mode="literal", collect_audit=True)
        row = tr.audit[0]
        assert row["action"] == "synthesized"
        assert np.asarray(row["beta"]).shape == (5, 5)
        assert "cond_d" in row


class TestStepGrid:
    # two segments whose boundary a t accumulated by dt misses: ten additions of 0.01 stay below 0.1
    SEGMENTS = [(0.1, np.array([0.0, 1.0, 0.4, 0.0, 0.2])), (0.3, np.array([0.0, -0.5, 0.2, 0.3, 0.0]))]

    def test_open_loop_mode_is_propagate(self, commutant_toy):
        xi0 = qd.random_state(commutant_toy.space, np.random.default_rng(11))
        sched = qd.PulseSchedule(self.SEGMENTS)
        a = qd.propagate(commutant_toy, sched, xi0, dt_max=0.01)
        b = qd.propagate_closed_loop(commutant_toy, sched, xi0, dt=0.01, mode="open_loop")
        assert a.y_values.tobytes() == b.y_values.tobytes()
        assert a.times.tobytes() == b.times.tobytes()

    def test_oracle_cancel_matches_interaction_free_propagation(self, two_qubit):
        xi0 = qd.random_state(two_qubit.space, np.random.default_rng(12))
        sched = qd.PulseSchedule([(0.1, [1.0, 0.2, 0.0, 0.0]), (0.3, [0.0, -0.5, 0.3, 0.1])])
        ref = qd.propagate(two_qubit, sched, xi0, dt_max=0.01, include_interaction=False)
        tr = qd.propagate_closed_loop(two_qubit, sched, xi0, dt=0.01, mode="oracle_cancel")
        assert len(tr.times) == len(ref.times) == 41
        assert np.abs(tr.times - ref.times).max() < 1e-12
        assert np.abs(tr.y_values - ref.y_values).max() < 1e-12

    def test_closed_loop_ends_at_the_total_duration(self, two_qubit):
        xi0 = qd.random_state(two_qubit.space, np.random.default_rng(13))
        sched = qd.PulseSchedule.constant(0.004, [1.0, 0.0, 0.0, 0.0])
        tr = qd.propagate_closed_loop(two_qubit, sched, xi0, dt=0.01, mode="oracle_cancel")
        assert tr.times.tolist() == [0.0, 0.004]

    def test_feedback_applies_each_segment_on_its_own_steps(self, commutant_toy, monkeypatch):
        import qdecouple.simulate

        seen = []
        generator = qdecouple.simulate.closed_loop_generator

        def spy(sys_, law, v, include_interaction):
            seen.append(tuple(v))
            return generator(sys_, law, v, include_interaction)

        monkeypatch.setattr(qdecouple.simulate, "closed_loop_generator", spy)
        xi0 = qd.random_state(commutant_toy.space, np.random.default_rng(14))
        qd.propagate_closed_loop(commutant_toy, qd.PulseSchedule(self.SEGMENTS), xi0, dt=0.01, mode="literal")
        first, second = (tuple(v) for _, v in self.SEGMENTS)
        assert seen == [first] * 10 + [second] * 30


class TestManeuver:
    def test_schedule_shape(self):
        sched = maneuver_schedule(9, 5, 8, 0.25)
        assert len(sched.segments) == 4
        assert sum(d for d, _ in sched.segments) == 1.0
        signs = [seg[1][5] for seg in sched.segments], [seg[1][8] for seg in sched.segments]
        assert signs == ([1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0])

    def test_degenerate_same_index_is_identity(self, bait):
        sched = maneuver_schedule(9, 5, 5, 0.3)
        rng = np.random.default_rng(6)
        xi0 = qd.random_state(bait.space, rng)
        tr = qd.propagate(bait, sched, xi0, dt_max=0.3, include_interaction=False)
        p0 = qd.ScenarioParams(omega0=0.0, omega_env=0.0)
        frozen = qd.build_bait(p0)
        tr2 = qd.propagate(frozen, sched, xi0, dt_max=0.3, include_interaction=False)
        assert abs(abs(np.vdot(tr2.final_state.amplitudes, xi0.amplitudes)) - 1.0) < 1e-12

    def test_out_of_range_indices(self):
        with pytest.raises(ValueError):
            maneuver_schedule(4, 0, 7, 0.1)

    def test_propagation_matches_exponential_product(self, bait):
        import scipy.linalg
        p0 = qd.ScenarioParams(omega0=0.0, omega_env=0.0)
        frozen = qd.build_bait(p0)
        t = 0.2
        sched = maneuver_schedule(9, 5, 8, t)
        rng = np.random.default_rng(7)
        xi0 = qd.random_state(frozen.space, rng)
        tr = qd.propagate(frozen, sched, xi0, dt_max=t, include_interaction=False)
        a, b = frozen.controls[5].matrix, frozen.controls[8].matrix
        u = (scipy.linalg.expm(-t * b) @ scipy.linalg.expm(-t * a)
             @ scipy.linalg.expm(t * b) @ scipy.linalg.expm(t * a))
        assert np.linalg.norm(tr.final_state.amplitudes - u @ xi0.amplitudes) < 1e-10

    def test_unitaries_match_the_four_expm_product(self, bait):
        # one eigh per generator, inverse legs as adjoints, against scipy's expm of each leg
        a, b = bait.controls[5].matrix, bait.controls[8].matrix
        t_list = DEFAULT_CONFIG["maneuver_t_list"]
        for t, u in zip(t_list, _maneuver_unitaries(bait.controls[5], bait.controls[8], t_list)):
            oracle = (scipy.linalg.expm(-t * b) @ scipy.linalg.expm(-t * a)
                      @ scipy.linalg.expm(t * b) @ scipy.linalg.expm(t * a))
            assert np.linalg.norm(u - oracle) < 1e-12, t


class TestCbh:
    def test_pauli_slope_near_three(self):
        sp = qd.HilbertSpace((("qubit", 2),))
        ax = qd.Operator(sp, -1j * SIGMA_X, "skew_hermitian")
        ay = qd.Operator(sp, -1j * qd.SIGMA_Y, "skew_hermitian")
        rep = qd.cbh_order_check(ax, ay, [1e-1, 5e-2, 2.5e-2, 1.25e-2])
        assert not rep.exact
        assert 2.7 <= rep.slope <= 3.3
        assert rep.exact or rep.slope >= 2.7

    def test_commuting_pair_exact(self):
        sp = qd.HilbertSpace((("qubit", 2),))
        az = qd.Operator(sp, -1j * qd.SIGMA_Z, "skew_hermitian")
        rep = qd.cbh_order_check(az, 0.5 * az, [1e-1, 5e-2, 2.5e-2, 1.25e-2])
        assert rep.exact and (rep.exact or rep.slope >= 2.7)

    def test_needs_enough_points(self):
        sp = qd.HilbertSpace((("qubit", 2),))
        ax = qd.Operator(sp, -1j * SIGMA_X, "skew_hermitian")
        with pytest.raises(ValueError):
            qd.cbh_order_check(ax, ax, [0.1, 0.05])
        with pytest.raises(ValueError):
            qd.cbh_order_check(ax, ax, [0.1] * 4)

    def test_slope_is_the_least_squares_line(self, bait):
        sp = qd.HilbertSpace((("qubit", 2),))
        pauli = (qd.Operator(sp, -1j * SIGMA_X), qd.Operator(sp, -1j * SIGMA_Y))
        for a, b in (pauli, (bait.controls[5], bait.controls[8])):
            rep = qd.cbh_order_check(a, b, DEFAULT_CONFIG["maneuver_t_list"])
            fit = np.polyfit(np.log(rep.t_list), np.log(rep.residuals), 1)[0]
            assert abs(rep.slope - fit) < 1e-12

    def test_generators_must_be_skew_hermitian(self):
        # the exponentials read one triangle of i*A, so a hermitian H would give a wrong U silently
        sp = qd.HilbertSpace((("qubit", 2),))
        hx, ay = qd.Operator(sp, SIGMA_X), qd.Operator(sp, -1j * SIGMA_Y)
        with pytest.raises(ValueError, match="skew-hermitian"):
            qd.cbh_order_check(hx, ay, [1e-1, 5e-2, 2.5e-2, 1.25e-2])
        with pytest.raises(ValueError, match="skew-hermitian"):
            qd.effective_direction_overlap(ay, hx, ay, 1e-3)


class TestCommutatorChain:
    def test_all_identities(self, bait):
        rep = qd.verify_commutator_chain(bait)
        assert rep["comm2"]["residual"] < 1e-10
        for key in ("comm1", "comm3", "comm4", "comm5", "comm6"):
            assert rep[key]["residual"] < 1e-10
        for key in ("comm3", "comm4", "comm5", "comm6"):
            assert rep[key]["bait_identity_deviation"] < 1e-12

    def test_zero_couplings_kill_chain(self):
        p = qd.ScenarioParams(j1=0.0, j2=0.0)
        sys_ = qd.build_bait(p)
        rep = qd.verify_commutator_chain(sys_)
        for key in ("comm1", "comm2", "comm3", "comm4", "comm5", "comm6"):
            assert rep[key]["c"] == 0.0

    def test_requires_bait(self, two_qubit):
        with pytest.raises(ValueError):
            qd.verify_commutator_chain(two_qubit)


class TestBaitIdentityDeviation:
    def test_a_bait_traceless_factor_deviates_by_its_whole_norm(self, bait, params):
        f_w = qd.field_quadrature(params.w, params.n_env).matrix
        off = qd.embed_product(bait.space, {"qubit2": SIGMA_Y, "bait": SIGMA_X, "env": f_w})
        on = qd.embed_product(bait.space, {"qubit2": SIGMA_Y, "env": f_w})
        assert bait_identity_deviation(bait, off) == pytest.approx(off.norm(), rel=1e-15)
        assert bait_identity_deviation(bait, on) == 0.0

    @pytest.mark.parametrize("factors", [
        None,                                              # the bait system's own layout
        (("bait", 2), ("env", 3)),
        (("qubit", 2), ("env", 3), ("bait", 2)),
        (("qubit", 2), ("bait", 3), ("env", 2)),
    ])
    def test_matches_the_kron_oracle(self, bait, factors):
        space = bait.space if factors is None else qd.HilbertSpace(factors)
        n = space.total_dim
        rng = np.random.default_rng(29)
        op = qd.Operator(space, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        got = bait_identity_deviation(SimpleNamespace(space=space), op)
        assert abs(got - oracles.bait_identity_deviation(space, op.matrix)) < 1e-12
        assert got > 1.0


class TestHsbGenerationSearch:
    def test_no_triple_but_closure_contains(self, bait):
        rep = qd.hsb_generation_search(bait)
        assert rep["triple_proportional_matches"] == []
        assert rep["best_triple"]["overlap"] < 1e-6
        assert rep["closure_contains_interaction"]
        assert rep["membership_depth"] is not None
        words = [w["word"] for w in rep["witness_words"]]
        assert words, "witness bracket words must be recorded"

    @pytest.mark.parametrize("n_env", [2, 3, 4, 5])
    def test_a_roundoff_overlap_names_no_best_triple(self, n_env):
        # no triple of the bait controls overlaps A_SB: the largest overlaps
        # are roundoff (1.0e-17 at n_env 3, 1.2e-17 at n_env 5), and they
        # must not pick a triple by their last bits
        rep = qd.hsb_generation_search(qd.build_bait(qd.ScenarioParams(n_env=n_env)))
        assert rep["best_triple"] == {"overlap": 0.0, "triple": None, "residual": 1.0}

    def test_a_proportional_triple_is_named(self):
        # one qubit with controls -i sigma_x, -i sigma_y and interaction
        # -i sigma_y: [[H_1, H_2], H_1] = 4 A_I, so phase 1 finds it
        space = qd.HilbertSpace((("qubit", 2),))
        skew = [qd.Operator(space, -1j * s) for s in (SIGMA_X, SIGMA_Y)]
        sys_ = qd.ControlSystem(space, qd.Operator(space, np.zeros((2, 2))), skew, skew[1],
                                qd.Operator(space, SIGMA_X), scenario="two_level")
        rep = qd.hsb_generation_search(sys_)
        assert rep["best_triple"]["triple"] == "[[H_1,H_2],H_1]"
        assert rep["best_triple"]["overlap"] == pytest.approx(1.0, abs=1e-12)
        assert rep["best_triple"]["residual"] < 1e-12
        assert "[[H_1,H_2],H_1]" in rep["triple_proportional_matches"]

    def test_default_bait_closure_depth_and_witness_words(self, bait):
        rep = qd.hsb_generation_search(bait)
        assert (rep["closure_dim"], rep["membership_depth"]) == (169, 7)
        assert [w["word"] for w in rep["witness_words"]] == [
            "[[[[[[H_1,H_7],H_5],H_9],H_6],H_7],H_2]",
            "[[[[[[H_3,H_8],H_5],H_9],H_6],H_8],H_4]",
        ]
        for w, c in zip(rep["witness_words"], (-0.7071067811865478, -0.7071067811865471)):
            assert w["coefficient"] == pytest.approx(c, rel=1e-12)

    def test_search_stops_at_word_length_8(self):
        # a bait-bath coupling w in phase quadrature with g keeps A_SB out of
        # the words up to length 8, where the search stops
        rep = qd.hsb_generation_search(qd.build_scenario("bait", qd.ScenarioParams(w=0.1j)))
        assert not rep["closure_contains_interaction"]
        assert rep["membership_depth"] is None
        assert rep["closure_dim"] == 184

    @pytest.mark.parametrize("name,kwargs,dim,depth", [
        ("bait", {}, 169, 7),
        ("bait", {"n_env": 2}, 121, 7),
        ("bait", {"n_env": 4}, 201, 7),
        ("bait", {"w": 0.1j}, 184, None),
        ("restructured", {}, 18, 2),
        ("two_qubit", {}, 6, None),
    ], ids=["bait", "bait-n_env-2", "bait-n_env-4", "bait-w-0.1i", "restructured", "two_qubit"])
    def test_per_length_selection_keeps_the_words_of_one_add_at_a_time(self, name, kwargs, dim, depth):
        sys_ = qd.build_scenario(name, qd.ScenarioParams(**kwargs))
        oracle = bracket_words_one_add_at_a_time(sys_)
        assert (oracle["closure_dim"], oracle["membership_depth"]) == (dim, depth)
        n = sys_.space.total_dim
        target = sys_.interaction.matrix
        target_code = skew_hermitian_coordinates(n).encode(target.ravel() / np.linalg.norm(target))[0]
        names, codes, found = _bracket_words(sys_.control_stack, sys_.control_labels, target_code, 1e-9)
        assert names == oracle["words"]
        assert (codes.shape, found) == ((dim, n * n), depth)
        rep = qd.hsb_generation_search(sys_)
        assert (rep["closure_dim"], rep["membership_depth"]) == (dim, depth)
        witness = {w["word"]: w["coefficient"] for w in rep.get("witness_words", [])}
        assert witness.keys() == oracle["witness"].keys()
        # listed in kept order: bait's two coefficients are equal up to their
        # last bits, so an order by magnitude would be one chosen by roundoff
        kept_index = [names.index(word) for word in witness]
        assert kept_index == sorted(kept_index)
        for word, c in oracle["witness"].items():
            assert witness[word] == pytest.approx(c, abs=1e-12)

    @pytest.mark.parametrize("n_env", [2, 3, 4])
    def test_block_search_keeps_the_words_of_one_add_at_a_time(self, n_env):
        # bait's controls and A_SB are block-diagonal in the bath basis, so
        # both phases and the witness fit run on their (n_env, 8, 8) blocks
        bait = qd.build_bait(qd.ScenarioParams(n_env=n_env))
        target = bait.interaction.matrix
        _, blocks = bath_basis_blocks(np.concatenate([bait.control_stack, target[None]]), bait.params)
        assert blocks.shape == (10, n_env, 8, 8)
        coords = skew_hermitian_coordinates(8, n_env)
        target_code = coords.encode(blocks[-1].ravel() / np.linalg.norm(blocks[-1]))[0]
        names, codes, found = _bracket_words(blocks[:-1], bait.control_labels, target_code, 1e-9)
        oracle = bracket_words_one_add_at_a_time(bait)
        assert names == oracle["words"]
        assert (codes.shape, found) == ((oracle["closure_dim"], 64 * n_env), oracle["membership_depth"])
        rep = qd.hsb_generation_search(bait)
        assert (rep["closure_dim"], rep["membership_depth"]) == (oracle["closure_dim"], oracle["membership_depth"])
        witness = {w["word"]: w["coefficient"] for w in rep["witness_words"]}
        assert witness.keys() == oracle["witness"].keys()
        for word, c in oracle["witness"].items():
            assert witness[word] == pytest.approx(c, abs=1e-12)

    def test_a_target_out_of_phase_with_the_bath_basis_keeps_the_dense_search(self):
        # at w = 0.1i the controls are block-diagonal in F_w's eigenbasis but
        # A_SB = sigma_z (x) F_g is not, so the search runs on n x n matrices
        bait = qd.build_scenario("bait", qd.ScenarioParams(w=0.1j))
        assert bath_basis_blocks(bait.control_stack, bait.params) is not None
        stack = np.concatenate([bait.control_stack, bait.interaction.matrix[None]])
        assert bath_basis_blocks(stack, bait.params) is None

    def test_zero_interaction_is_refused(self):
        # without the guard the target direction is 0/0 and all 84 triples
        # pass as proportional
        sys0 = qd.build_scenario("bait", qd.ScenarioParams(g=0.0))
        with pytest.raises(ValueError, match="interaction generator vanishes"):
            qd.hsb_generation_search(sys0)


class TestEscalation:
    def test_power_escalation_threshold(self, params):
        # [K_I, sigma_x(1) F field] leaves span(G) at max_power=1 and
        # enters it exactly at max_power=2
        from qdecouple.spans import RealSpan, realify
        sys1 = qd.build_restructured(params, max_power=1)
        sys2 = qd.build_restructured(params, max_power=2)
        rng = np.random.default_rng(8)
        xi = qd.random_state(sys1.space, rng)
        tau = qd.bracket_linear_fields(sys1.interaction, sys1.controls[1])
        val = realify(tau.matrix @ xi.amplitudes)
        span1 = RealSpan(24)
        span1.add_batch(np.array([realify(a.matrix @ xi.amplitudes) for a in sys1.controls]))
        span2 = RealSpan(24)
        span2.add_batch(np.array([realify(a.matrix @ xi.amplitudes) for a in sys2.controls]))
        assert span1.residual(val) > 0.1
        assert span2.residual(val) < 1e-9
