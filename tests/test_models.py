import tracemalloc

import numpy as np
import pytest

import qdecouple as qd
from qdecouple import cli
from qdecouple.algebra import SIGMA_X, SIGMA_Y, SIGMA_Z, is_hermitian
from qdecouple.models import bath_blocks, build_commutant_toy

from oracles import scenario_matrices


def _y(xi, c_op):
    """The coherence output <xi|C|xi>, bra side conjugated."""
    return np.vdot(xi.amplitudes, c_op.matrix @ xi.amplitudes)


def test_params_defaults_and_validation():
    p = qd.ScenarioParams()
    assert p.w == p.g                    # w = c1 * g with c1 = 1
    assert p.n_env == 3
    with pytest.raises(ValueError):
        qd.ScenarioParams(n_env=1)
    with pytest.raises(ValueError):
        qd.ScenarioParams(omega0=np.inf)


@pytest.mark.parametrize("name", ["g", "w"])
@pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0),
                                   complex(0.0, -np.inf)], ids=["nan_re", "nan_im", "inf_re", "inf_im"])
def test_params_refuse_a_non_finite_coupling(name, value):
    # refused where it is given, not later as a generator that is not skew-hermitian
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        qd.build_bait(qd.ScenarioParams(**{name: value}))


@pytest.mark.parametrize("name", [*qd.SCENARIOS, "toy"])
def test_generators_are_rows_of_one_read_only_stack(name, params):
    sys_ = build_commutant_toy() if name == "toy" else qd.build_scenario(name, params)
    stack = sys_.generator_stack
    n, r = sys_.space.total_dim, sys_.n_controls
    assert stack.shape == (r + 1, n, n)
    assert not stack.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 0, 0] = 0.0
    for i, a in enumerate(sys_.controls):
        assert np.shares_memory(a.matrix, stack[i])
    assert np.shares_memory(sys_.drift.matrix, stack[r])
    assert np.shares_memory(sys_.control_stack, stack[:r]) and sys_.control_stack.shape == (r, n, n)


@pytest.mark.parametrize("name", [*qd.SCENARIOS, "toy"])
def test_generator_keeps_the_bits_of_the_drift_first_sum(name, params):
    # summed in place as sum u_i A_i + A_0 (+ A_I): IEEE addition commutes,
    # so the bytes are those of A_0 + sum u_i A_i (+ A_I), and the drift is untouched
    sys_ = build_commutant_toy() if name == "toy" else qd.build_scenario(name, params)
    u = np.random.default_rng(81).normal(size=sys_.n_controls)
    drift = sys_.drift.matrix.copy()
    for interaction in (True, False):
        want = sys_.drift.matrix.copy()
        want += np.tensordot(u, sys_.control_stack.reshape(sys_.n_controls, -1), axes=1).reshape(want.shape)
        if interaction:
            want = want + sys_.interaction.matrix
        assert sys_.generator(u, include_interaction=interaction).matrix.tobytes() == want.tobytes()
        bare = sys_.generator(None, include_interaction=interaction).matrix
        assert bare.tobytes() == (drift + sys_.interaction.matrix if interaction else drift).tobytes()
    assert sys_.drift.matrix.tobytes() == drift.tobytes()


def test_a_built_system_holds_each_generator_once(monkeypatch):
    # restructured at n_env 20 with max_power 19: k = 80 controls of n = 80,
    # each held once in generator_stack; the controls' skew list and the stack
    # are alive together only while the system is built
    refused = []
    params = qd.ScenarioParams(n_env=20)
    monkeypatch.setattr(cli, "_refuse_beyond_memory", lambda need, *args: refused.append(need))
    cli._refuse_oversized_restructured({"max_power": 19}, params)
    unit = 80 * 80 * 16
    k = 80
    assert refused == [2 * k * unit]
    tracemalloc.start()
    try:
        sys_ = qd.build_restructured(params, max_power=19)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sys_.n_controls == k
    assert held <= (k + 8) * unit
    assert peak <= refused[0] + 16 * unit


def test_every_scenario_passes_system_invariants(params):
    for name in qd.SCENARIOS:
        sys_ = qd.build_scenario(name, params)
        assert is_hermitian(sys_.drift.matrix, skew=True)
        assert is_hermitian(sys_.interaction.matrix, skew=True)
        assert all(is_hermitian(a.matrix, skew=True) for a in sys_.controls)
        assert all(a.space == sys_.space for a in sys_.controls)
        # the coherence monitor is non-hermitian by construction
        assert not np.allclose(sys_.output_op.matrix, sys_.output_op.matrix.conj().T)


def _assert_matches(sys_, want):
    assert sys_.space.factors == want["factors"]
    assert sys_.scenario == want["scenario"]
    assert sys_.control_labels == want["labels"]
    assert np.array_equal(sys_.drift.matrix, want["drift"])
    assert np.array_equal(np.array([a.matrix for a in sys_.controls]), want["controls"])
    assert np.array_equal(sys_.interaction.matrix, want["interaction"])
    assert np.array_equal(sys_.output_op.matrix, want["output"])


# defaults, then a complex (g, w) with every other parameter moved off its default
_SETTINGS = [{}, {"g": 0.2 + 0.1j, "w": -0.3 + 0.05j, "omega0": 0.7, "omega_env": 1.3, "j1": 0.6, "j2": -1.1}]


@pytest.mark.parametrize("setting", range(len(_SETTINGS)))
@pytest.mark.parametrize("n_env", [2, 3, 5])
@pytest.mark.parametrize("name,max_power", [("single_qubit", 5), ("two_qubit", 5), ("bait", 5),
                                            ("restructured", 0), ("restructured", 4)])
def test_scenarios_equal_their_kron_assembly_bit_for_bit(name, max_power, n_env, setting):
    p = qd.ScenarioParams(n_env=n_env, **_SETTINGS[setting])
    _assert_matches(qd.build_scenario(name, p, max_power), scenario_matrices(name, p, max_power))


@pytest.mark.parametrize("n_env", [2, 3, 5])
@pytest.mark.parametrize("g,omega0", [(0.15 + 0j, 1.0), (0.2 + 0.1j, 0.7)])
def test_commutant_toy_equals_its_kron_assembly_bit_for_bit(g, omega0, n_env):
    p = qd.ScenarioParams(g=g, omega0=omega0, n_env=n_env)
    _assert_matches(build_commutant_toy(g, omega0, n_env), scenario_matrices("toy_commutant", p))


def test_control_system_refuses_a_hermitian_control(single_qubit):
    # a Hamiltonian assembled by arithmetic and never passed through .skew()
    sp = single_qubit.space
    ham = qd.embed_product(sp, {"qubit": SIGMA_X}) + 0.5 * qd.embed_product(sp, {"qubit": SIGMA_Y})
    with pytest.raises(ValueError, match="skew-hermitian"):
        qd.ControlSystem(sp, single_qubit.drift, [single_qubit.controls[0], ham],
                         single_qubit.interaction, single_qubit.output_op, scenario="bad")
    qd.ControlSystem(sp, single_qubit.drift, [single_qubit.controls[0], ham.skew()],
                     single_qubit.interaction, single_qubit.output_op, scenario="ok")


class TestSingleQubit:
    def test_layout_and_controls(self, single_qubit):
        assert single_qubit.space.total_dim == 6
        assert single_qubit.control_labels == ["H_1", "H_2"]
        assert np.allclose(single_qubit.controls[0].matrix, -1j * np.kron(SIGMA_X, np.eye(3)))

    def test_coherence_on_plus_state(self, single_qubit):
        xi = qd.normalize(single_qubit.space, np.kron([1, 1], [1, 0, 0]))
        assert abs(_y(xi, single_qubit.output_op) - 0.5) < 1e-12

    def test_output_z_commutator_breaks_case_two(self, single_qubit):
        # [C, sigma_z] = 2C with sigma_z = |1><1| - |0><0|, so [C, H_SB] != 0
        c4 = np.zeros((2, 2), dtype=complex); c4[0, 1] = 1
        comm = c4 @ SIGMA_Z - SIGMA_Z @ c4
        assert np.allclose(comm, 2 * c4)
        a_i = single_qubit.interaction
        c_full = single_qubit.output_op
        assert qd.commutator(c_full, a_i).norm() > 1e-3

    def test_env_drift_commutes_with_output_at_g0(self):
        p = qd.ScenarioParams(g=0.0)
        sys_ = qd.build_single_qubit(p)
        env_only = qd.embed_product(sys_.space, {"env": qd.number_operator(3).matrix}).skew()
        assert qd.commutator(env_only, sys_.output_op).norm() < 1e-12


class TestTwoQubit:
    def test_interaction_annihilates_dfs_and_commutes_with_output(self, two_qubit):
        assert qd.commutator(two_qubit.output_op, two_qubit.interaction).norm() < 1e-12
        for c1, c2 in [(1, 0), (0, 1)]:
            xi = qd.dfs_state(two_qubit, c1, c2)
            assert np.linalg.norm(two_qubit.interaction.matrix @ xi.amplitudes) < 1e-12

    def test_collective_z_annihilates_dfs_vectors(self):
        zsum = np.kron(SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z)
        e01 = np.eye(4)[1]
        e10 = np.eye(4)[2]
        assert np.allclose(zsum @ e01, 0)
        assert np.allclose(zsum @ e10, 0)

    def test_coherence_dfs_half(self, two_qubit):
        xi = qd.dfs_state(two_qubit)
        assert abs(_y(xi, two_qubit.output_op) - 0.5) < 1e-12


class TestBait:
    def test_nine_controls_with_ising_couplings(self, bait):
        assert bait.n_controls == 9
        assert bait.space.total_dim == 24
        j1 = qd.embed_product(bait.space, {"qubit1": SIGMA_Z, "bait": SIGMA_Z}).skew()
        assert qd.commutator(bait.controls[6], j1).norm() < 1e-12  # parallel generators commute

    def test_bait_bath_control_vanishes_at_w0(self):
        p = qd.ScenarioParams(w=0.0)
        sys_ = qd.build_bait(p)
        assert sys_.controls[8].norm() == 0.0

    def test_h6_h9_bracket_direction(self, bait, params):
        # [H_6, H_9] = c sigma_x(bait) x F(w) with real c for skew inputs
        br = qd.commutator(bait.controls[5], bait.controls[8])
        f_w = qd.field_quadrature(params.w, params.n_env).matrix
        target = qd.embed_product(bait.space, {"bait": SIGMA_X, "env": f_w}, kind="hermitian").skew()
        c = np.real(np.trace(target.matrix.conj().T @ br.matrix)) / target.norm() ** 2
        assert np.linalg.norm(br.matrix - c * target.matrix) < 1e-12
        assert abs(c - 2.0) < 1e-12


class TestRestructured:
    def test_max_power_zero_recovers_two_qubit_controls(self, params, two_qubit):
        sys_ = qd.build_restructured(params, max_power=0)
        assert sys_.n_controls == 4
        for a, b in zip(sys_.controls, two_qubit.controls):
            assert np.allclose(a.matrix, b.matrix)

    def test_24_generators_at_max_power_5(self, restructured):
        assert restructured.n_controls == 24

    def test_power2_generator_matches_quadrature_expansion(self, params):
        # interior of the truncation: F^2|n> = (2n+1)|w|^2 |n> +
        # w^2 sqrt((n+1)(n+2)) |n+2> + w*^2 sqrt(n(n-1)) |n-2>
        w = params.w
        n_env = 6
        p = qd.ScenarioParams(n_env=n_env)
        sys_ = qd.build_restructured(p, max_power=2)
        gen = sys_.controls[2]          # sigma_x(1) F^2, skew
        f2 = qd.field_quadrature(w, n_env).matrix @ qd.field_quadrature(w, n_env).matrix
        for n in range(2, n_env - 2):
            e = np.zeros(n_env, dtype=complex); e[n] = 1
            out = f2 @ e
            expect = np.zeros(n_env, dtype=complex)
            expect[n] = (2 * n + 1) * abs(w) ** 2
            expect[n + 2] = w ** 2 * np.sqrt((n + 1) * (n + 2))
            expect[n - 2] = np.conj(w) ** 2 * np.sqrt(n * (n - 1))
            assert np.allclose(out, expect)
        # the generator embeds exactly this block
        expect_mat = -1j * np.kron(np.kron(SIGMA_X, np.eye(2)), f2)
        assert np.allclose(gen.matrix, expect_mat)

    def test_w_wstar_relabeling_invariance(self):
        # swapping the roles of w and w* is the conjugate quadrature; the
        # control span is unchanged
        w = 0.2 + 0.5j
        f = qd.field_quadrature(w, 4).matrix
        f_swapped = qd.field_quadrature(np.conj(w), 4).matrix
        assert np.allclose(f_swapped, f.conj())
        assert np.linalg.norm(f_swapped) == pytest.approx(np.linalg.norm(f))


@pytest.mark.parametrize("n_env", [4, 6])
def test_bath_blocks_rebuild_the_bait_controls(n_env):
    # at n_env 4 and 6, sqrt(||G||^2 - ||blocks||^2) cancels to about 1e-8,
    # above tol ||G||: the off-block part must be taken directly
    bait = qd.build_bait(qd.ScenarioParams(n_env=n_env))
    v, blocks = bath_blocks(bait, 1e-9)
    assert blocks.shape == (9, n_env, 8, 8)
    u = np.kron(np.eye(8), v)
    for g, g_blocks in zip(bait.control_stack, blocks):
        block_diagonal = np.zeros((8, n_env, 8, n_env), dtype=complex)
        for j, block in enumerate(g_blocks):
            block_diagonal[:, j, :, j] = block
        assert np.allclose(u @ block_diagonal.reshape(8 * n_env, -1) @ u.conj().T, g, atol=1e-13)


def test_bath_blocks_refuse_controls_not_block_diagonal_in_the_bath_eigenbasis():
    # the same controls in a seeded random basis of the env factor are
    # block-diagonal there, not in F_w's eigenbasis
    bait = qd.build_bait(qd.ScenarioParams())
    rng = np.random.default_rng(5)
    w, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    u = np.kron(np.eye(8), w)

    def rotate(op):
        return qd.Operator(bait.space, u @ op.matrix @ u.conj().T)

    rotated = qd.ControlSystem(bait.space, rotate(bait.drift), [rotate(a) for a in bait.controls],
                               rotate(bait.interaction), rotate(bait.output_op), "bait", params=bait.params)
    assert bath_blocks(rotated, 1e-9) is None
    assert bath_blocks(build_commutant_toy(), 1e-9) is None       # no params, no F_w


class TestCoherence:
    def test_identity_output_gives_norm(self, two_qubit):
        rng = np.random.default_rng(0)
        xi = qd.random_state(two_qubit.space, rng)
        ident = qd.Operator(two_qubit.space, np.eye(12, dtype=complex), "hermitian")
        assert abs(_y(xi, ident) - 1.0) < 1e-12

    def test_basis_state_has_no_coherence(self, two_qubit):
        xi = qd.dfs_state(two_qubit, 1.0, 0.0)
        assert abs(_y(xi, two_qubit.output_op)) < 1e-12

    def test_convention_conj_c1_c2(self, two_qubit):
        c1, c2 = 0.3 + 0.4j, 0.5 - 0.2j
        xi = qd.dfs_state(two_qubit, c1, c2)
        nrm2 = abs(c1) ** 2 + abs(c2) ** 2
        want = np.conj(c1) * c2 / nrm2
        assert abs(_y(xi, two_qubit.output_op) - want) < 1e-12

    def test_dimension_mismatch(self, single_qubit, two_qubit):
        # y is only ever sampled from a state of the system's own space
        xi = qd.dfs_state(two_qubit)
        with pytest.raises(ValueError, match="different space"):
            qd.propagate(single_qubit, qd.PulseSchedule.constant(1.0, np.zeros(2)), xi)
