import dataclasses
import tracemalloc

import numpy as np
import pytest

import qdecouple as qd
from qdecouple.algebra import SIGMA_X
from qdecouple.observation import SL_CERTIFICATE, OperatorSpan, _generates_su
from qdecouple.spans import RealSpan
from oracles import control_algebra_verdict, materialized, operator_span, operators


def _without_interaction(sys_):
    zero = qd.Operator(sys_.space, np.zeros_like(sys_.interaction.matrix))
    return dataclasses.replace(sys_, interaction=zero)


def test_c_tilde_contains_output_and_is_bracket_stable(single_qubit):
    ct = qd.build_c_tilde(single_qubit)
    assert ct.residual(single_qubit.output_op) < ct.span.tol
    # one more closure round adds no rank
    for op in operators(single_qubit.space, ct.matrices):
        for gen in [single_qubit.drift, *single_qubit.controls]:
            assert ct.residual(qd.commutator(op, gen)) < 1e-9 or \
                qd.commutator(op, gen).norm() < 1e-9


def test_c_tilde_trivial_without_dynamics(two_qubit):
    zero = qd.Operator(two_qubit.space, np.zeros((12, 12)), "skew_hermitian")
    frozen = qd.ControlSystem(
        two_qubit.space, zero, [], two_qubit.interaction, two_qubit.output_op, scenario="frozen"
    )
    ct = qd.build_c_tilde(frozen)
    assert ct.dim == 1            # span{C}: nothing to close over
    assert ct.residual(frozen.output_op) < ct.span.tol


def test_a_zero_output_is_refused(two_qubit):
    # C = 0 used to seed C~ with NaNs (0 / 0) and crash the closed-loop check
    silent = dataclasses.replace(two_qubit, output_op=qd.Operator(two_qubit.space, np.zeros((12, 12))))
    xi = qd.random_state(silent.space, np.random.default_rng(0))
    for call in (lambda: qd.build_c_tilde(silent), lambda: qd.omega_closure_open(silent, xi),
                 lambda: qd.omega_closure_closed(silent, xi)):
        with pytest.raises(ValueError, match="the output operator vanishes"):
            call()


def test_single_qubit_c_tilde_interaction_noncommuting(single_qubit):
    ct = qd.build_c_tilde(single_qubit)
    bad = [op for op in operators(single_qubit.space, ct.matrices)
           if qd.commutator(op, single_qubit.interaction).norm() > 1e-6]
    assert bad, "some C~ element must fail to commute with H_SB"


def test_bait_c_tilde_contains_env_coupled_qubit_terms(bait, bait_c_tilde, params):
    # sigma_x(1) x I x (g b† + g* b) shows up in the closed span
    f_g = qd.field_quadrature(params.g, params.n_env).matrix
    probe = qd.embed_product(bait.space, {"qubit1": SIGMA_X, "env": f_g}, kind="hermitian").skew()
    assert bait_c_tilde.residual(probe) < bait_c_tilde.span.tol


class TestOpenLoop:
    def test_three_scenarios_fail(self, single_qubit, two_qubit, bait, bait_c_tilde):
        assert not qd.check_open_loop(single_qubit, qd.build_c_tilde(single_qubit)).ok
        assert not qd.check_open_loop(two_qubit, qd.build_c_tilde(two_qubit)).ok
        v = qd.check_open_loop(bait, bait_c_tilde)
        assert not v.ok and v.witness["kind"] == "ctilde_interaction_commutator"

    def test_no_interaction_is_decoupled(self, two_qubit):
        free = _without_interaction(two_qubit)
        assert qd.check_open_loop(free, qd.build_c_tilde(free)).ok

    def test_open_implies_closed_necessary(self, single_qubit, two_qubit, restructured):
        for sys_ in (single_qubit, two_qubit, restructured,
                     _without_interaction(single_qubit), _without_interaction(two_qubit)):
            ct = qd.build_c_tilde(sys_)
            if qd.check_open_loop(sys_, ct).ok:
                assert qd.check_closed_loop_necessary(sys_, ct).ok


class TestClosedLoopNecessary:
    def test_single_qubit_fails_first_condition(self, single_qubit):
        v = qd.check_closed_loop_necessary(single_qubit, qd.build_c_tilde(single_qubit))
        assert not v.ok
        assert v.witness["kind"] == "output_interaction_commutator"

    def test_two_qubit_fails_containment(self, two_qubit):
        v = qd.check_closed_loop_necessary(two_qubit, qd.build_c_tilde(two_qubit))
        assert not v.ok
        assert v.witness["kind"] == "ctilde_containment"

    def test_bait_passes_both(self, bait, bait_c_tilde):
        assert qd.check_closed_loop_necessary(bait, bait_c_tilde).ok

    def test_verdicts_invariant_under_control_rescaling(self, two_qubit):
        scaled = qd.ControlSystem(
            two_qubit.space,
            two_qubit.drift,
            [a * 3.7 for a in two_qubit.controls],
            two_qubit.interaction,
            two_qubit.output_op,
            scenario="scaled",
        )
        ct_a = qd.build_c_tilde(two_qubit)
        ct_b = qd.build_c_tilde(scaled)
        assert qd.check_open_loop(two_qubit, ct_a).ok == qd.check_open_loop(scaled, ct_b).ok
        assert (
            qd.check_closed_loop_necessary(two_qubit, ct_a).ok
            == qd.check_closed_loop_necessary(scaled, ct_b).ok
        )


@pytest.fixture(scope="module")
def certified_bait_c_tilde(bait):
    ct = qd.build_c_tilde(bait)
    assert ct.details["method"] == SL_CERTIFICATE
    return ct


@pytest.mark.parametrize("check", [qd.check_open_loop, qd.check_closed_loop_necessary])
def test_checks_on_the_certified_bait_c_tilde_allocate_little(bait, certified_bait_c_tilde, check):
    # bait fails the open loop at element 0, and on sl(n, C) containment
    # holds by the trace argument: neither check needs C~ built or bracketed
    ct = certified_bait_c_tilde
    n = bait.space.total_dim
    limit = 8 * n * n * 16                                # eight complex n x n matrices
    tracemalloc.start()
    try:
        check(bait, ct)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit


def test_certified_bait_c_tilde_and_both_checks_hold_no_c_tilde_sized_array(bait):
    # the spectral su(n) test's 2k^2 + 3k = 230 matrices (k = 10 generators)
    # are the peak; the certified C~ holds no rows: 0.21 U at n_env 3
    n = bait.space.total_dim
    tracemalloc.start()
    try:
        ct = qd.build_c_tilde(bait)
        open_v = qd.check_open_loop(bait, ct)
        closed_v = qd.check_closed_loop_necessary(bait, ct)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ct.details["method"] == SL_CERTIFICATE and ct.dim == 1150
    assert not open_v.ok and open_v.witness["basis_index"] == 0 and closed_v.ok
    assert peak < 300 * n * n * 16


def test_bait_omega_reads_the_certified_c_tilde_without_a_c_tilde_sized_array(bait):
    # Omega = C~ + iC~ takes its covectors from the rowless certified C~ one
    # element at a time: 0.21 U at n_env 3, where closing Omega took 7.97 U
    n = bait.space.total_dim
    unit = 2 * (n * n - 1) * 2 * n * n * 8                # one C~-sized array
    xi = qd.random_state(bait.space, np.random.default_rng(0))
    tracemalloc.start()
    try:
        ds = qd.omega_closure_open(bait, xi).delta_star()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.dim == 1 and ds.residual(1j * xi.amplitudes) < 1e-12
    assert peak < 0.5 * unit


def test_su_n_certificate_closure_peaks_below_three_c_tilde_arrays(bait):
    # the spectral su(n) test behind the certificate holds n x n matrices
    # only, the unit generators and their first brackets: 0.21 U at n_env 3
    n = bait.space.total_dim
    unit = 2 * (n * n - 1) * 2 * n * n * 8                # one C~-sized array
    tracemalloc.start()
    try:
        assert _generates_su(bait.generator_stack, 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.3 * unit


class TestBatchedWitnessParity:
    """The checks return the per-element loop's verdict and witness."""

    @staticmethod
    def _naive_open(sys_, ct, tol=1e-9):
        a_i = sys_.interaction
        scale = max(a_i.norm(), 1.0)
        for k, op in enumerate(operators(sys_.space, ct.matrices)):
            nrm = qd.commutator(op, a_i).norm()
            if nrm > tol * scale * max(op.norm(), 1.0):
                return False, {"kind": "ctilde_interaction_commutator", "basis_index": k, "norm": nrm}
        return True, None

    @staticmethod
    def _naive_closed(sys_, ct, tol=1e-9):
        a_i = sys_.interaction
        c_norm = qd.commutator(sys_.output_op, a_i).norm()
        if c_norm > tol * max(a_i.norm(), 1.0):
            return False, {"kind": "output_interaction_commutator", "norm": c_norm}
        for k, op in enumerate(operators(sys_.space, ct.matrices)):
            br = qd.commutator(op, a_i)
            if br.norm() <= tol * max(a_i.norm(), 1.0):
                continue
            res = ct.residual(br)
            if res > tol:
                return False, {"kind": "ctilde_containment", "basis_index": k, "residual": res}
        return True, None

    def _assert_parity(self, sys_, ct):
        got_open = qd.check_open_loop(sys_, ct)
        got_closed = qd.check_closed_loop_necessary(sys_, ct)
        # the per-element loops run on C~'s basis held as rows
        assert (got_open.ok, got_open.witness) == self._naive_open(sys_, materialized(ct))
        assert (got_closed.ok, got_closed.witness) == self._naive_closed(sys_, materialized(ct))
        return got_open, got_closed

    def test_single_qubit(self, single_qubit):
        _, closed = self._assert_parity(single_qubit, qd.build_c_tilde(single_qubit))
        assert closed.witness["kind"] == "output_interaction_commutator"

    def test_two_qubit_fails_containment_at_index_1(self, two_qubit):
        _, closed = self._assert_parity(two_qubit, qd.build_c_tilde(two_qubit))
        assert closed.witness == {"kind": "ctilde_containment", "basis_index": 1, "residual": 1.0}

    def test_restructured_passes_containment(self, restructured):
        _, closed = self._assert_parity(restructured, qd.build_c_tilde(restructured))
        assert closed.ok

    def test_later_failing_index(self, two_qubit):
        # the restructured and bait C~ are all of sl(n), so no interaction
        # fails containment there, and on two_qubit every interaction that
        # keeps [C, A_I] = 0 and passes element 1 passes them all; the
        # elements whose bracket with A_I vanishes go first instead
        ct = qd.build_c_tilde(two_qubit)
        a_i = two_qubit.interaction
        basis = ct.matrices
        zero = [qd.commutator(op, a_i).norm() <= 1e-9 for op in operators(two_qubit.space, basis)]
        order = sorted(range(len(basis)), key=lambda k: not zero[k])
        # the same orthonormal rows, permuted (an add_batch would re-pivot them)
        permuted = RealSpan(ct.span.dim, tol=ct.span.tol)
        permuted.q = ct.span.q[order]
        reordered = OperatorSpan(two_qubit.space, permuted)
        got_open, got_closed = self._assert_parity(two_qubit, reordered)
        assert got_open.witness["basis_index"] == got_closed.witness["basis_index"] == sum(zero) == 5


class TestControlAlgebra:
    def test_interaction_inside_algebra_passes(self, params):
        # drift inside the control span (omega_env = 0): the trivially
        # satisfied scenario with Delta = span{H_SB}
        p = qd.ScenarioParams(omega_env=0.0)
        sys_ = qd.build_restructured(p)
        delta = operator_span(sys_.space, [sys_.interaction])
        assert control_algebra_verdict(sys_, delta)[0]

    def test_output_violating_delta_fails(self, single_qubit, params):
        f_g = qd.field_quadrature(params.g, params.n_env).matrix
        bad = qd.embed_product(single_qubit.space, {"qubit": SIGMA_X, "env": f_g}, kind="hermitian").skew()
        delta = operator_span(single_qubit.space, [bad])
        ok, witness, _ = control_algebra_verdict(single_qubit, delta)
        assert not ok and witness["kind"] == "control_algebra"

    def test_empty_delta_vacuous(self, single_qubit):
        delta = operator_span(single_qubit.space, [])
        assert control_algebra_verdict(single_qubit, delta)[0]


class TestVerifyDfs:
    """The interaction annihilates span{|01>, |10>} (x) env, but not |00> or |11> (x) env."""

    @staticmethod
    def _image_norms(sys_, qubit_index):
        # the interaction applied to |q1 q2> (x) |e> for every environment level e
        n_env = sys_.space.total_dim // 4
        cols = [qubit_index * n_env + e for e in range(n_env)]
        return np.linalg.norm(sys_.interaction.matrix[:, cols], axis=0)

    def test_dfs_passes(self, two_qubit):
        for k in (1, 2):                       # |01>, |10>
            assert self._image_norms(two_qubit, k).max() < 1e-12

    def test_wrong_subspace_fails(self, two_qubit):
        for k in (0, 3):                       # |00>, |11>
            assert self._image_norms(two_qubit, k).min() > 1e-3

    def test_everything_passes_at_g0(self):
        sys0 = qd.build_two_qubit(qd.ScenarioParams(g=0.0))
        for k in range(4):
            assert self._image_norms(sys0, k).max() == 0.0
