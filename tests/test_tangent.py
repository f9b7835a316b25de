import dataclasses

import numpy as np
import pytest

import qdecouple as qd
from qdecouple import observation, spans
from qdecouple.algebra import SIGMA_X, SIGMA_Y, SIGMA_Z
from qdecouple.spans import RealSpan, realify
from qdecouple.models import build_commutant_toy
from qdecouple.report import controlled_invariance_at_states
from qdecouple.tangent import control_field_matrix
from oracles import controlled_invariance_per_pair, fd_field_bracket, omega_at, omega_generators


class TestEvalField:
    def test_zero_field(self, single_qubit):
        rng = np.random.default_rng(0)
        xi = qd.random_state(single_qubit.space, rng)
        zero = qd.Operator(single_qubit.space, np.zeros((6, 6)), "skew_hermitian")
        assert np.linalg.norm(qd.eval_field(zero, xi)) == 0.0

    def test_rank_deficiency_at_basis_state(self):
        # {iI, -i sigma_z, -i sigma_x, -i sigma_y} evaluate to rank 3 at |0>
        sp = qd.HilbertSpace((("qubit", 2),))
        xi = qd.basis_state(sp, (0,))
        ops = [
            qd.Operator(sp, 1j * np.eye(2), "skew_hermitian"),
            qd.Operator(sp, -1j * SIGMA_Z, "skew_hermitian"),
            qd.Operator(sp, -1j * SIGMA_X, "skew_hermitian"),
            qd.Operator(sp, -1j * SIGMA_Y, "skew_hermitian"),
        ]
        fields = [qd.eval_field(a, xi) for a in ops]
        assert qd.realified_rank(fields) == 3

    def test_sigma_z_on_plus_state(self):
        sp = qd.HilbertSpace((("qubit", 2),))
        xi = qd.normalize(sp, [1, 1])
        out = qd.eval_field(qd.Operator(sp, -1j * SIGMA_Z, "skew_hermitian"), xi)
        assert np.allclose(out, np.array([1j, -1j]) / np.sqrt(2))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_requires_skew(self, single_qubit):
        rng = np.random.default_rng(0)
        xi = qd.random_state(single_qubit.space, rng)
        herm = qd.Operator(single_qubit.space, np.kron(SIGMA_X, np.eye(3)), "hermitian")
        with pytest.raises(ValueError):
            qd.eval_field(herm, xi)


class TestBracketLinearFields:
    def test_self_bracket_vanishes(self, single_qubit):
        a = single_qubit.controls[0]
        assert qd.bracket_linear_fields(a, a).norm() == 0.0

    def test_matches_finite_difference(self, two_qubit):
        rng = np.random.default_rng(3)
        xi = qd.random_state(two_qubit.space, rng)
        a, b = two_qubit.controls[0], two_qubit.interaction
        alg = qd.bracket_linear_fields(a, b).matrix @ xi.amplitudes
        fd = fd_field_bracket(
            lambda x: a.matrix @ x, lambda x: b.matrix @ x, xi.amplitudes, h=1e-5
        )
        assert np.linalg.norm(alg - fd) < 1e-6

    def test_jacobi_identity(self):
        rng = np.random.default_rng(5)
        sp = qd.HilbertSpace((("env", 4),))
        ops = []
        for _ in range(3):
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            ops.append(qd.Operator(sp, -1j * (h + h.conj().T), "skew_hermitian"))
        a, b, c = ops
        j = (
            qd.bracket_linear_fields(a, qd.bracket_linear_fields(b, c)).matrix
            + qd.bracket_linear_fields(b, qd.bracket_linear_fields(c, a)).matrix
            + qd.bracket_linear_fields(c, qd.bracket_linear_fields(a, b)).matrix
        )
        assert np.abs(j).max() < 1e-12


class TestKernelDy:
    def test_zero_output_full_tangent(self, two_qubit):
        rng = np.random.default_rng(1)
        xi = qd.random_state(two_qubit.space, rng)
        zero_c = qd.Operator(two_qubit.space, np.zeros((12, 12)))
        ker = qd.kernel_dy(xi, zero_c)
        assert ker.dim == 24

    def test_codimension_at_most_two(self, two_qubit):
        rng = np.random.default_rng(2)
        for _ in range(5):
            xi = qd.random_state(two_qubit.space, rng)
            ker = qd.kernel_dy(xi, two_qubit.output_op)
            assert ker.dim >= 22

    def test_interaction_field_in_kernel_everywhere(self, two_qubit):
        rng = np.random.default_rng(3)
        for _ in range(5):
            xi = qd.random_state(two_qubit.space, rng)
            ker = qd.kernel_dy(xi, two_qubit.output_op)
            k_i = qd.eval_field(two_qubit.interaction, xi)
            assert ker.residual(k_i) < 1e-9

    def test_listed_kernel_members(self, restructured, params):
        # (I x I) F^i xi and (sigma_z(1)+sigma_z(2)) F^i xi lie in ker(dy)
        rng = np.random.default_rng(4)
        xi = qd.random_state(restructured.space, rng)
        ker = qd.kernel_dy(xi, restructured.output_op)
        f_w = qd.field_quadrature(params.w, params.n_env).matrix
        for i in range(1, 6):
            f_i = np.linalg.matrix_power(f_w, i)
            ident = qd.embed_product(restructured.space, {"env": f_i}, kind=None).skew()
            zsum = (
                qd.embed_product(restructured.space, {"qubit1": SIGMA_Z, "env": f_i})
                + qd.embed_product(restructured.space, {"qubit2": SIGMA_Z, "env": f_i})
            ).skew()
            assert ker.residual(ident.matrix @ xi.amplitudes) < 1e-9
            assert ker.residual(zsum.matrix @ xi.amplitudes) < 1e-9


def _two_qubit_with_output(output_terms: dict) -> qd.ControlSystem:
    base = qd.build_two_qubit(qd.ScenarioParams())
    output = sum((qd.embed_product(base.space, {label: m}) for label, m in output_terms.items()),
                 qd.Operator(base.space, np.zeros((12, 12))))
    return dataclasses.replace(base, output_op=output, scenario="output")


# (C~ dim, Omega dim) of the systems whose C~ is not closed under i: with a
# hermitian output every -iM is skew and realizes a zero covector, with the
# mixed output sigma_z(1) + i sigma_x(2) the covectors of -iM carry qubit 2
OUTPUT_SYSTEMS = {
    "hermitian_output": ({"qubit1": SIGMA_Z}, (3, 6)),
    "mixed_output": ({"qubit1": SIGMA_Z, "qubit2": 1j * SIGMA_X}, (6, 12)),
}


class TestOmegaAndBruteForce:
    @pytest.mark.parametrize("name,changes", [
        ("single_qubit", {}), ("two_qubit", {}), ("restructured", {}), ("bait", {"n_env": 2}),
        ("two_qubit", {"omega0": 0.0}), ("bait", {"n_env": 2, "g": 0.3 + 0.2j, "w": 0.1j}),
        *((name, {}) for name in OUTPUT_SYSTEMS),
    ], ids=["single_qubit", "two_qubit", "restructured", "bait-n_env2", "two_qubit-omega0_0",
            "bait-n_env2-complex_g_w", *OUTPUT_SYSTEMS])
    def test_omega_is_c_tilde_plus_i_c_tilde(self, name, changes):
        # omega_closure_open reads Omega off C~; the oracle closes {C, -iC}
        # itself, and both must give the same rank and Delta*
        if name in OUTPUT_SYSTEMS:
            terms, dims = OUTPUT_SYSTEMS[name]
            sys_ = _two_qubit_with_output(terms)
        else:
            sys_ = qd.build_scenario(name, qd.ScenarioParams(**changes))
        gens, details = omega_generators(sys_)
        if name in OUTPUT_SYSTEMS:
            assert (qd.build_c_tilde(sys_).dim, details["generator_rank"]) == dims
        rng = np.random.default_rng(16)
        for _ in range(3):
            xi = qd.random_state(sys_.space, rng)
            om, ref = qd.omega_closure_open(sys_, xi), omega_at(xi, gens)
            ds, ds_ref = om.delta_star(), ref.delta_star()
            assert (om.rank, ds.dim) == (ref.rank, ds_ref.dim)
            assert max(ds_ref.residual(v) for v in ds.vectors) < 1e-10
            assert max(ds.residual(v) for v in ds_ref.vectors) < 1e-10

    def test_trivial_closure_without_dynamics(self, two_qubit):
        zero = qd.Operator(two_qubit.space, np.zeros((12, 12)), "skew_hermitian")
        frozen = qd.ControlSystem(two_qubit.space, zero, [], two_qubit.interaction,
                                  two_qubit.output_op, scenario="frozen")
        rng = np.random.default_rng(0)
        xi = qd.random_state(frozen.space, rng)
        om = qd.omega_closure_open(frozen, xi)
        ker = qd.kernel_dy(xi, frozen.output_op)
        ds = om.delta_star()
        assert om.rank == 2
        assert ds.dim == ker.dim
        assert all(ker.residual(v) < 1e-9 for v in ds.vectors)

    @pytest.mark.parametrize("name", ["single_qubit", "two_qubit", "restructured"])
    def test_oracle_equivalence_and_duality(self, name, params):
        sys_ = qd.build_scenario(name, params)
        n = sys_.space.total_dim
        chains = qd.hermitian_derivative_chain(sys_)
        rng = np.random.default_rng(11)
        for _ in range(5):
            xi = qd.random_state(sys_.space, rng)
            om = qd.omega_closure_open(sys_, xi)
            ds = om.delta_star()
            bf = qd.bruteforce_invariant_distribution(sys_, xi, chains=chains)
            assert ds.dim + om.rank == 2 * n
            assert ds.dim == bf.dim
            if ds.dim:
                assert max(bf.residual(v) for v in ds.vectors) < 1e-9
                assert max(ds.residual(v) for v in bf.vectors) < 1e-9

    def test_rank_and_delta_star_share_one_factorization(self, two_qubit, monkeypatch):
        # the covectors' null space is factored once, when the basis is made
        xi = qd.random_state(two_qubit.space, np.random.default_rng(8))
        covs = qd.omega_closure_open(two_qubit, xi).realized_covectors
        shapes = []
        svd = spans._svd

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(spans, "_svd", spy)
        om = qd.CodistributionBasis(xi, covs)
        rank, ds = om.rank, om.delta_star()
        assert shapes == [covs.shape]
        assert rank + ds.dim == 2 * two_qubit.space.total_dim and ds.dim > 0

    def test_certified_omega_builds_no_element(self, bait, monkeypatch):
        # on C~ = sl(n, C), Omega at xi is the real hyperplane orthogonal to i xi
        def tripwire(n, k):
            raise AssertionError("an sl(n) element was built")

        monkeypatch.setattr(observation, "_sl_element", tripwire)
        xi = qd.random_state(bait.space, np.random.default_rng(9))
        om = qd.omega_closure_open(bait, xi)
        ds = om.delta_star()
        assert om.details["method"] == observation.SL_CERTIFICATE
        assert (om.rank, ds.dim) == (2 * bait.space.total_dim - 1, 1)
        assert ds.residual(1j * xi.amplitudes) < 1e-12

    def test_single_qubit_interaction_not_in_delta_star(self, single_qubit):
        rng = np.random.default_rng(6)
        xi = qd.random_state(single_qubit.space, rng)
        ds = qd.omega_closure_open(single_qubit, xi).delta_star()
        k_i = qd.eval_field(single_qubit.interaction, xi)
        assert ds.residual(k_i) > 1e-3

    def test_removal_monotone(self, two_qubit):
        rng = np.random.default_rng(8)
        xi = qd.random_state(two_qubit.space, rng)
        bf = qd.bruteforce_invariant_distribution(two_qubit, xi)
        dims = bf.details["iteration_dims"]
        assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_fixpoint_in_one_round_when_everything_commutes(self, params):
        # controls commuting with C and H_SB = 0: Delta* = Delta_0 at once
        base = qd.build_two_qubit(params)
        zsum = (
            qd.embed_product(base.space, {"qubit1": SIGMA_Z})
            + qd.embed_product(base.space, {"qubit2": SIGMA_Z})
        ).skew()
        envf = qd.embed_product(base.space, {"env": qd.field_quadrature(0.3, 3).matrix}).skew()
        zero = qd.Operator(base.space, np.zeros((12, 12)), "skew_hermitian")
        sys_ = qd.ControlSystem(base.space, base.drift, [zsum, envf], zero,
                                base.output_op, scenario="commuting")
        rng = np.random.default_rng(9)
        xi = qd.random_state(sys_.space, rng)
        bf = qd.bruteforce_invariant_distribution(sys_, xi)
        ker = qd.kernel_dy(xi, sys_.output_op)
        assert len(bf.details["iteration_dims"]) == 1
        assert bf.dim == ker.dim

    def test_monotone_termination_bound(self, two_qubit):
        n = two_qubit.space.total_dim
        _, details = omega_generators(two_qubit)
        assert details["rounds"] <= 2 * n * n
        chains = qd.hermitian_derivative_chain(two_qubit)
        assert len(chains) <= 2 * n * n


class TestObservationCorrespondence:
    def test_covector_pairing_equals_commutator_form(self, two_qubit):
        # <d(phi_M), A xi> = <xi|(A† M + M A)|xi> for the elements of C~,
        # whose covectors omega_closure_open realizes
        rng = np.random.default_rng(10)
        xi = qd.random_state(two_qubit.space, rng)
        ct = qd.build_c_tilde(two_qubit)
        gens = [two_qubit.drift, *two_qubit.controls]
        for m_op in ct.matrices[:6]:
            for a in gens:
                field = a.matrix @ xi.amplitudes
                w = qd.tangent.covector_of(m_op, xi.amplitudes)
                pair = float(w @ realify(field))
                form = a.matrix.conj().T @ m_op + m_op @ a.matrix
                want = np.real(np.vdot(xi.amplitudes, form @ xi.amplitudes))
                assert abs(pair - want) < 1e-9

    def test_invariance_lemma(self, two_qubit):
        # tau in O^perp implies [tau, K_i] in O^perp, for linear-field tau
        rng = np.random.default_rng(12)
        xi = qd.random_state(two_qubit.space, rng)
        om = qd.omega_closure_open(two_qubit, xi)
        ds = om.delta_star()
        bf = qd.bruteforce_invariant_distribution(two_qubit, xi)
        covs = om.realized_covectors
        # global linear sections of Delta*: I x env ops commute with C and
        # close under the dynamics, so they are honest tau fields
        f = qd.field_quadrature(0.3 + 0.1j, 3).matrix
        taus = [
            qd.embed_product(two_qubit.space, {"env": f}).skew(),
            qd.Operator(two_qubit.space, 1j * np.eye(12), "skew_hermitian"),
        ]
        for tau in taus:
            val = tau.matrix @ xi.amplitudes
            assert np.abs(covs @ realify(val)).max() < 1e-9      # tau in O^perp
            for k in [two_qubit.drift, *two_qubit.controls]:
                br = qd.bracket_linear_fields(tau, k).matrix @ xi.amplitudes
                assert np.abs(covs @ realify(br)).max() < 1e-9   # bracket too


class TestOmegaClosedLoop:
    def test_full_rank_g_terminates_first_round(self, restructured):
        rng = np.random.default_rng(13)
        xi = qd.random_state(restructured.space, rng)
        gf = control_field_matrix(restructured, xi)
        span = RealSpan(24); span.add_batch(gf)
        assert span.rank == 12     # saturated control-field rank at N_env=3
        om = qd.omega_closure_closed(restructured, xi)
        assert om.details["rounds"] == 1
        ds = om.delta_star()
        ker = qd.kernel_dy(xi, restructured.output_op)
        assert ds.dim == ker.dim
        assert max(ker.residual(v) for v in ds.vectors) < 1e-9

    def test_non_regular_point_detected_at_dfs_state(self, two_qubit):
        # the dy-covector pairing with G vanishes exactly on the DFS but
        # not nearby: the algorithm must flag this instead of answering
        xi = qd.dfs_state(two_qubit)
        with pytest.raises(qd.NonRegularPointError):
            qd.omega_closure_closed(two_qubit, xi)

    def test_zero_controls_reduces_to_open(self, two_qubit):
        stripped = qd.ControlSystem(two_qubit.space, two_qubit.drift, [],
                                    two_qubit.interaction, two_qubit.output_op,
                                    scenario="nc")
        rng = np.random.default_rng(14)
        xi = qd.random_state(stripped.space, rng)
        oc = qd.omega_closure_closed(stripped, xi)
        oo = qd.omega_closure_open(stripped, xi)
        assert oc.rank == oo.rank
        d1, d2 = oc.delta_star(), oo.delta_star()
        assert d1.dim == d2.dim
        assert max(d2.residual(v) for v in d1.vectors) < 1e-9

    def test_two_qubit_bracket_three_part_claim(self, two_qubit):
        # [K_1, K_I] lies in none of: span G, the realized control algebra,
        # ker dy
        rng = np.random.default_rng(15)
        xi = qd.random_state(two_qubit.space, rng)
        br = qd.bracket_linear_fields(two_qubit.controls[0], two_qubit.interaction)
        val = br.matrix @ xi.amplitudes
        g_span = RealSpan(24); g_span.add_batch(control_field_matrix(two_qubit, xi))
        assert g_span.residual(realify(val)) > 1e-3
        algebra = qd.lie_closure(two_qubit.control_stack.reshape(-1, 12, 12))
        a_span = RealSpan(24)
        a_span.add_batch(np.array([realify(a @ xi.amplitudes) for a in algebra]))
        assert a_span.residual(realify(val)) > 1e-3
        assert qd.kernel_dy(xi, two_qubit.output_op).residual(val) > 1e-3


class TestControlledInvariance:
    def test_restructured_minimal_delta_passes(self, restructured):
        rng = np.random.default_rng(16)
        for _ in range(3):
            xi = qd.random_state(restructured.space, rng)
            delta = qd.minimal_interaction_distribution(restructured, xi)
            assert qd.check_controlled_invariance(delta, restructured).details["controls_ok"]

    def test_two_qubit_fails_with_bracket_witness(self, two_qubit):
        rng = np.random.default_rng(17)
        xi = qd.random_state(two_qubit.space, rng)
        delta = qd.minimal_interaction_distribution(two_qubit, xi)
        v = qd.check_controlled_invariance(delta, two_qubit)
        assert not v.details["controls_ok"]
        assert v.witness["kind"] == "bracket_outside_span"
        assert v.witness["generator"] == "H_1"

    def test_empty_delta_vacuous(self, two_qubit):
        rng = np.random.default_rng(18)
        xi = qd.random_state(two_qubit.space, rng)
        delta = qd.DistributionBasis(xi, [], generating_ops=np.zeros((0, 12, 12), dtype=complex))
        assert qd.check_controlled_invariance(delta, two_qubit).ok

    def test_interaction_field_vanishing_raises(self, two_qubit):
        xi = qd.dfs_state(two_qubit)
        with pytest.raises(ValueError):
            qd.minimal_interaction_distribution(two_qubit, xi)

    def test_drift_bracket_escalation_diagnostic(self, restructured):
        # the environment self-energy escalates anti-quadrature directions
        # outside every finite control family: recorded, not hidden
        rng = np.random.default_rng(19)
        xi = qd.random_state(restructured.space, rng)
        delta = qd.minimal_interaction_distribution(restructured, xi)
        v = qd.check_controlled_invariance(delta, restructured)
        assert v.details["controls_ok"]
        assert not v.ok
        assert v.witness["generator"] == "drift"


class TestDistributionBasis:
    def test_refuses_dependent_zero_and_foreign_vectors(self, two_qubit):
        xi = qd.random_state(two_qubit.space, np.random.default_rng(20))
        v = qd.eval_field(two_qubit.interaction, xi)
        w = qd.eval_field(two_qubit.controls[0], xi)
        assert qd.DistributionBasis(xi, [v, 1j * v, w]).dim == 3       # i v is a new real direction
        for vectors in ([v, 2 * v], [v, w, v - 0.5 * w], [v, np.zeros_like(v)], [np.zeros_like(v)],
                        [np.append(v, 0.0)], [v[:-1]]):
            with pytest.raises(ValueError):
                qd.DistributionBasis(xi, vectors)

    def test_small_nonzero_vectors_are_kept(self, two_qubit):
        # independence has no absolute floor: only an exactly zero vector is refused
        xi = qd.random_state(two_qubit.space, np.random.default_rng(22))
        v = qd.eval_field(two_qubit.interaction, xi)
        w = qd.eval_field(two_qubit.controls[0], xi)
        assert qd.DistributionBasis(xi, [1e-12 * v, 1e-12 * w]).dim == 2

    def test_weak_coupling_below_the_default_tol(self):
        # g = 1e-10 clears the interaction floor at tol 1e-11; the check must run to a verdict
        sys_ = qd.build_scenario("two_qubit", qd.ScenarioParams(g=1e-10))
        xi = qd.random_state(sys_.space, np.random.default_rng(23))
        delta = qd.minimal_interaction_distribution(sys_, xi, tol=1e-11)
        assert delta.dim == 1
        assert not qd.check_controlled_invariance(delta, sys_, tol=1e-11).details["controls_ok"]


def _invariance_systems():
    for n_env in (2, 3):
        params = qd.ScenarioParams(n_env=n_env)
        for name in qd.SCENARIOS:
            yield pytest.param(qd.build_scenario(name, params), id=f"{name}-{n_env}")
        yield pytest.param(build_commutant_toy(n_env=n_env), id=f"toy-{n_env}")


@pytest.mark.parametrize("sys_", list(_invariance_systems()))
def test_controlled_invariance_matches_the_per_pair_oracle(sys_):
    rng = np.random.default_rng(21)
    for _ in range(5):
        xi = qd.random_state(sys_.space, rng)
        minimal = qd.minimal_interaction_distribution(sys_, xi)
        # two generating operators, so that a witness can sit at delta_index 1
        ops = [sys_.controls[-1], sys_.interaction]
        pair = qd.DistributionBasis(xi, [qd.eval_field(a, xi) for a in ops],
                                    generating_ops=np.array([a.matrix for a in ops]))
        for delta in (minimal, pair):
            got = qd.check_controlled_invariance(delta, sys_)
            for include_drift in (False, True):
                want = controlled_invariance_per_pair(delta, sys_, include_drift=include_drift)
                # without the drift the oracle decides the control part alone
                assert (got.ok if include_drift else got.details["controls_ok"]) == want.ok
                if want.ok and include_drift:
                    assert abs(got.details["max_residual"] - want.details["max_residual"]) < 1e-12
                elif not want.ok:
                    for key in ("kind", "generator", "delta_index"):
                        assert got.witness[key] == want.witness[key]
                    assert abs(got.witness["residual"] - want.witness["residual"]) < 1e-12


@pytest.mark.parametrize("name", [*qd.SCENARIOS, "toy"])
def test_one_pass_at_states_equals_two_separate_passes(name, params):
    sys_ = build_commutant_toy() if name == "toy" else qd.build_scenario(name, params)
    one = controlled_invariance_at_states(sys_, n_states=5, seed=0)
    for part, include_drift in (("closed_loop", False), ("drift", True)):
        rng = np.random.default_rng(0)
        verdicts = []
        for _ in range(5):
            xi = qd.random_state(sys_.space, rng)
            delta = qd.minimal_interaction_distribution(sys_, xi)
            verdicts.append(controlled_invariance_per_pair(delta, sys_, include_drift=include_drift))
        got = one[part]
        assert got["per_state"] == [v.ok for v in verdicts]
        assert got["ok"] == all(v.ok for v in verdicts)
        assert got["stable"] == (len({v.ok for v in verdicts}) == 1)
        first = next((v.witness for v in verdicts if not v.ok), None)
        if first is None:
            assert got["witness"] is None
        else:
            assert {k: got["witness"][k] for k in ("kind", "generator", "delta_index")} == \
                {k: first[k] for k in ("kind", "generator", "delta_index")}
            assert abs(got["witness"]["residual"] - first["residual"]) < 1e-12
