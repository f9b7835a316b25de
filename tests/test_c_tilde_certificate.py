"""The sl(n) certificate of build_c_tilde against the closure kernel.

build_c_tilde returns sl(n, C), an OperatorSpan that holds no rows, when
the generators give su(n), tr C = 0 and C's hermitian parts are
independent; otherwise it runs close_c_tilde.  The kernel is the oracle:
wherever the certificate fires, its span (the oracle basis sl_basis,
which its elements equal bit for bit) must be the kernel's, and wherever one of the
three conditions fails, the kernel's dimension must come back unchanged.
The spectral su(n) test behind the first condition has its own oracle,
the dimension of the Lie closure of the traceless generators.
"""

import tracemalloc

import numpy as np
import pytest

import qdecouple as qd
from qdecouple import algebra, observation
from qdecouple.cli import _spectral_peak_bytes
from qdecouple.observation import (
    CLOSURE, SL_CERTIFICATE, OperatorSpan, _c_tilde_dim_bound, _closure_peak_bytes, _generates_su,
    _spectral_margins, _spectral_pair, close_c_tilde
)
from qdecouple.report import (
    closed_loop_verdict, controlled_invariance_at_states, decouplability_table
)
from oracles import closure_generates_su, materialized, sl_basis, traceless_generators


def _subspace_distance(a: qd.OperatorSpan, b: qd.OperatorSpan) -> float:
    """Frobenius norm of a's orthonormal rows minus their projection onto b
    (an upper bound on the sine of the largest principal angle)."""
    qa, qb = a.span.q, b.span.q
    return float(np.linalg.norm(qa - (qa @ qb.T) @ qb))


def _with(sys_, **changes) -> qd.ControlSystem:
    fields = {
        "drift": sys_.drift,
        "controls": sys_.controls,
        "interaction": sys_.interaction,
        "output_op": sys_.output_op,
    }
    fields.update(changes)
    return qd.ControlSystem(sys_.space, scenario=f"{sys_.scenario}_variant", **fields)


def _conjugated(sys_, u) -> qd.ControlSystem:
    def rot(op):
        return qd.Operator(op.space, u @ op.matrix @ u.conj().T, op.kind)

    return _with(sys_, drift=rot(sys_.drift), controls=[rot(a) for a in sys_.controls],
                 interaction=rot(sys_.interaction), output_op=rot(sys_.output_op))


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture(scope="module")
def bait2():
    return qd.build_bait(qd.ScenarioParams(n_env=2))


@pytest.mark.parametrize("name,n_env", [("bait", 2), ("restructured", 3)])
def test_certificate_span_equals_kernel(name, n_env):
    sys_ = qd.build_scenario(name, qd.ScenarioParams(n_env=n_env))
    n = sys_.space.total_dim
    cert = materialized(qd.build_c_tilde(sys_))
    kernel = close_c_tilde(sys_)
    assert cert.details["method"] == SL_CERTIFICATE
    assert cert.dim == kernel.dim == 2 * (n * n - 1)
    assert _subspace_distance(cert, kernel) < 1e-10
    assert _subspace_distance(kernel, cert) < 1e-10


def test_bait_certificate_equals_kernel_at_default_truncation(bait, bait_c_tilde):
    cert = materialized(qd.build_c_tilde(bait))
    assert cert.details["method"] == SL_CERTIFICATE
    assert cert.dim == bait_c_tilde.dim == 1150
    assert _subspace_distance(cert, bait_c_tilde) < 1e-10
    assert cert.residual(bait.output_op) < cert.span.tol


def test_certificate_basis_is_orthonormal_and_traceless(bait2):
    ct = materialized(qd.build_c_tilde(bait2))
    q = ct.span.q
    assert np.abs(q @ q.T - np.eye(ct.dim)).max() < 1e-15
    mats = ct.matrices
    assert np.abs(np.trace(mats, axis1=1, axis2=2)).max() < 1e-15
    assert len(ct.matrices) == ct.dim


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_certificate_elements_are_the_oracle_basis_bit_for_bit(n):
    ct = OperatorSpan(qd.HilbertSpace((("a", n),)), None, details={"method": SL_CERTIFICATE})
    elements = np.array(list(ct.elements()))
    assert ct.dim == len(elements) == 2 * (n * n - 1)
    assert elements.dtype == np.complex128
    assert elements.tobytes() == sl_basis(n).tobytes()


def test_certificate_residual_is_the_trace_share(bait2):
    # the closed form |tr M| / (sqrt(n) ||M||) against the projection onto the rows
    ct = qd.build_c_tilde(bait2)
    full = materialized(ct)
    n = bait2.space.total_dim
    rng = np.random.default_rng(2)
    probes = [bait2.output_op, bait2.drift, qd.Operator(bait2.space, np.eye(n)),
              qd.Operator(bait2.space, np.zeros((n, n)))]
    probes += [qd.Operator(bait2.space, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) for _ in range(3)]
    for op in probes:
        assert abs(ct.residual(op) - full.residual(op)) < 1e-12
    assert ct.residual(qd.Operator(bait2.space, np.eye(n))) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "name,n_env,split",
    [("single_qubit", 3, True), ("two_qubit", 3, True), ("two_qubit", 30, True), ("bait", 2, False),
     ("restructured", 2, False)],
)
def test_closure_peak_bound_covers_the_closure(name, n_env, split):
    # the single- and two-qubit systems split their environment off, and
    # their output C_r (x) I brackets only into gl(r) (x) I: 2r^2 real
    # dimensions whatever n_env is; bait and restructured couple it
    sys_ = qd.build_scenario(name, qd.ScenarioParams(n_env=n_env))
    n = sys_.space.total_dim
    bound = _c_tilde_dim_bound(sys_, 1e-9)
    assert (bound < 2 * n * n) == split
    if split:
        assert bound == {"single_qubit": 8, "two_qubit": 32}[name]
    tracemalloc.start()
    try:
        ct = close_c_tilde(sys_)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ct.dim <= bound
    assert peak <= _closure_peak_bytes(sys_, 1e-9)


def test_two_qubit_closure_fits_beyond_n_env_27(monkeypatch):
    # bounded by gl(r) (x) I + I (x) gl(f), 2(r^2 + f^2 - 1) = 1598 real
    # dimensions at n_env 28, the closure would be estimated at 8.4 GiB and
    # refused on a 7.8 GiB host; C~ has 18
    monkeypatch.setattr(observation, "_physical_memory_bytes", lambda: int(7.8 * 2**30))
    ct = qd.build_c_tilde(qd.build_scenario("two_qubit", qd.ScenarioParams(n_env=28)))
    assert (ct.details["method"], ct.dim) == (CLOSURE, 18)


@pytest.mark.parametrize(
    "name,n_env,dim",
    [("single_qubit", 3, 6), ("two_qubit", 3, 18), ("restructured", 2, 70)],
)
def test_falls_back_to_kernel(name, n_env, dim):
    sys_ = qd.build_scenario(name, qd.ScenarioParams(n_env=n_env))
    ct = qd.build_c_tilde(sys_)
    assert ct.details["method"] == CLOSURE
    assert ct.dim == close_c_tilde(sys_).dim == dim


def test_so_n_generators_fall_back():
    # real antisymmetric generators close to so(4), a proper subalgebra of
    # su(4); they keep a real output real, so C~ is sl(4, R), not sl(4, C)
    rng = np.random.default_rng(11)
    space = qd.HilbertSpace((("a", 2), ("b", 2)))

    def so4():
        m = rng.normal(size=(4, 4))
        return qd.Operator(space, m - m.T, "skew_hermitian")

    c = rng.normal(size=(4, 4))
    c -= np.trace(c) / 4 * np.eye(4)
    sys_ = qd.ControlSystem(space, so4(), [so4(), so4()], so4(), qd.Operator(space, c), scenario="so4")
    assert len(qd.lie_closure(np.array([a.matrix for a in (sys_.drift, *sys_.controls)]))) == 6
    ct = qd.build_c_tilde(sys_)
    assert ct.details["method"] == CLOSURE
    assert ct.dim == close_c_tilde(sys_).dim == 15


def test_traced_output_falls_back(bait2):
    n = bait2.space.total_dim
    sys_ = _with(bait2, output_op=bait2.output_op + qd.Operator(bait2.space, 0.3 * np.eye(n)))
    ct = qd.build_c_tilde(sys_)
    assert ct.details["method"] == CLOSURE
    # C + 0.3 I adds the identity direction to sl(n, C)
    assert ct.dim == close_c_tilde(sys_).dim == 2 * (n * n - 1) + 1


@pytest.mark.parametrize("phase", [1.0, 1.0 + 2.0j, 1.0j])
def test_dependent_hermitian_parts_fall_back(bait2, phase):
    # C = phase * H with H hermitian: H1 and H2 are both multiples of H
    n = bait2.space.total_dim
    c = bait2.output_op.matrix
    h = qd.Operator(bait2.space, phase * (c + c.conj().T))
    ct = qd.build_c_tilde(_with(bait2, output_op=h))
    assert ct.details["method"] == CLOSURE
    # the closure of a hermitian traceless seed under su(n) is i*su(n)
    assert ct.dim == n * n - 1


def _block_diagonal_system(rng):
    # generators in u(2) (+) u(3): distinct levels, but no generator couples
    # the blocks, so the graph of Y has two components; C couples them
    space = qd.HilbertSpace((("a", 5),))

    def block_skew():
        m = np.zeros((5, 5), dtype=complex)
        for sl in (slice(0, 2), slice(2, 5)):
            k = sl.stop - sl.start
            h = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            m[sl, sl] = -0.5j * (h + h.conj().T)
        return qd.Operator(space, m, "skew_hermitian")

    c = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    c -= np.trace(c) / 5 * np.eye(5)
    return qd.ControlSystem(space, block_skew(), [block_skew()], block_skew(), qd.Operator(space, c),
                            scenario="blocks")


def test_a_refused_spectrum_falls_back_to_the_kernel():
    sys_ = _block_diagonal_system(np.random.default_rng(4))
    separation, separation_bound, _, _ = _spectral_margins(*_spectral_pair(sys_.generator_stack, 1e-9))
    assert separation > 1e6 * separation_bound          # so the graph is what refuses
    assert not _generates_su(sys_.generator_stack, 1e-9)
    assert not closure_generates_su(sys_.generator_stack)
    ct = qd.build_c_tilde(sys_)
    assert ct.details["method"] == CLOSURE
    assert ct.dim == close_c_tilde(sys_).dim < 2 * (5 * 5 - 1)


def test_certified_c_tilde_runs_no_closure(bait, monkeypatch):
    def tripwire(*args, **kwargs):
        raise AssertionError("a closure ran behind the sl(n) certificate")

    monkeypatch.setattr(algebra, "lie_closure", tripwire)
    monkeypatch.setattr(observation, "close_real_span", tripwire)
    assert not hasattr(observation, "lie_closure")
    assert qd.build_c_tilde(bait).details["method"] == SL_CERTIFICATE


@pytest.mark.parametrize(
    "name,n_env,params",
    [("bait", 2, {}), ("bait", 3, {}), ("bait", 4, {}), ("bait", 2, {"omega0": 0.0}),
     ("restructured", 2, {}), ("restructured", 3, {}), ("restructured", 4, {}),
     ("single_qubit", 3, {}), ("two_qubit", 3, {})],
)
def test_spectral_test_agrees_with_the_lie_closure(name, n_env, params):
    # bait at omega0 = 0 repeats frequencies on every combination of its
    # generators alone: the first brackets in X and Y are what certify it
    gens = qd.build_scenario(name, qd.ScenarioParams(n_env=n_env, **params)).generator_stack
    assert _generates_su(gens, 1e-9) == closure_generates_su(gens)


def _random_su(rng, n, count):
    h = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    h = h + h.conj().transpose(0, 2, 1)
    h -= (np.trace(h, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    return -1j * h


@pytest.mark.parametrize("n", [8, 16, 24])
def test_spectral_test_certifies_random_su_n_pairs(n):
    gens = _random_su(np.random.default_rng(n), n, 2)
    assert _generates_su(gens, 1e-9)
    assert closure_generates_su(gens)


def test_spectral_test_refuses_so_n_and_sp_n():
    # both have spectra symmetric about 0, so frequencies repeat exactly
    rng = np.random.default_rng(6)
    m = rng.normal(size=(3, 6, 6))
    so6 = m - m.transpose(0, 2, 1)
    a = _random_su(rng, 3, 3)
    b = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    b = b + b.transpose(0, 2, 1)
    sp6 = np.block([[a, b], [-b.conj(), a.conj()]])       # sp(6, C) inside u(6): sp(3)
    for gens, dim in ((so6, 15), (sp6, 21)):
        assert not _generates_su(gens, 1e-9)
        assert len(qd.lie_closure(gens)) == dim


def test_spectral_test_certifies_where_the_closure_over_counts():
    # two random combinations of the traceless bait generators at n_env 3:
    # lie_closure returns 576 > 575 = dim su(24) on this stack
    traceless = traceless_generators(qd.build_bait(qd.ScenarioParams(n_env=3)).generator_stack)
    rng = np.random.default_rng(0)
    pair = np.array([np.tensordot(rng.normal(size=len(traceless)), traceless, axes=1) for _ in range(2)])
    assert _generates_su(pair, 1e-9)


def test_spectral_pair_holds_k_brackets_not_k_squared():
    # restructured at n_env 20 with max_power 19: k = 81 generators of n = 80
    gens = qd.build_restructured(qd.ScenarioParams(n_env=20), max_power=19).generator_stack
    k, n = gens.shape[0], gens.shape[-1]
    tracemalloc.start()
    try:
        _generates_su(gens, 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert k == 81
    assert peak <= 10 * k * n * n * 16                     # k^2 brackets alone would be 81k
    assert peak <= _spectral_peak_bytes(n, k)


@pytest.mark.parametrize("name,n_env", [("bait", 2), ("restructured", 3)])
def test_spectral_margins_invariant_under_unitary_change_of_basis(name, n_env):
    gens = qd.build_scenario(name, qd.ScenarioParams(n_env=n_env)).generator_stack
    u = _random_unitary(np.random.default_rng(9), gens.shape[-1])
    a = _spectral_margins(*_spectral_pair(gens, 1e-9))
    b = _spectral_margins(*_spectral_pair(u @ gens @ u.conj().T, 1e-9))
    # each margin moves by at most the two computations' roundoff bounds
    for margin, bound in ((0, 1), (2, 3)):
        assert abs(a[margin] - b[margin]) <= a[bound] + b[bound]
        assert a[margin] > 1e6 * a[bound]


def _verdicts(sys_):
    ct = qd.build_c_tilde(sys_)
    closed = closed_loop_verdict(sys_, controlled_invariance_at_states(sys_, n_states=2, seed=3)["closed_loop"], ct)
    return (
        ct.dim,
        ct.details["method"],
        qd.check_open_loop(sys_, ct).ok,
        qd.check_closed_loop_necessary(sys_, ct).ok,
        closed["ok"],
    )


def test_dims_and_verdicts_invariant_under_unitary_change_of_basis(bait2):
    want = _verdicts(bait2)
    assert want == (510, SL_CERTIFICATE, False, True, False)
    rng = np.random.default_rng(5)
    u = _random_unitary(rng, bait2.space.total_dim)
    assert _verdicts(_conjugated(bait2, u)) == want


def test_dims_and_verdicts_invariant_under_control_permutation(bait2, two_qubit):
    rng = np.random.default_rng(8)
    order = rng.permutation(bait2.n_controls)
    permuted = _with(bait2, controls=[bait2.controls[k] for k in order])
    assert _verdicts(permuted) == _verdicts(bait2)
    # two_qubit takes the closure path, whose rounds see the generators in order
    reversed_controls = _with(two_qubit, controls=two_qubit.controls[::-1])
    assert _verdicts(reversed_controls) == _verdicts(two_qubit) == (18, CLOSURE, False, False, False)


def test_verdict_table_at_n_env_4():
    # the YES* footnote at a larger truncation: bait C~ = sl(32, C)
    table = decouplability_table(qd.ScenarioParams(n_env=4))
    got = {
        row["scenario"]: (
            row["open_loop"]["verdict"],
            row["closed_loop"]["verdict"],
            row["closed_loop_restructured"]["verdict"],
            row["c_tilde_dim"],
            row["c_tilde_method"],
            row["closed_loop_restructured"].get("c_tilde_dim"),
            row["closed_loop_restructured"].get("c_tilde_method"),
        )
        for row in table["rows"]
    }
    assert got == {
        "single_qubit": ("NO", "NO", "NO", 6, CLOSURE, None, None),
        "two_qubit": ("NO", "NO", "NO", 18, CLOSURE, None, None),
        "bait": ("NO", "NO", "YES*", 2046, SL_CERTIFICATE, 510, SL_CERTIFICATE),
    }
