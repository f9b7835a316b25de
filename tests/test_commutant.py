"""The closed-form commutant basis against a null-space loop.

commutant_basis reads A_I's commutant off one eigh of iA_I: every
i v_k v_k^dagger, plus the two skew-hermitian combinations of v_k v_l^dagger
for each eigenvalue pair whose gap falls under the cut.  The oracle below
knows nothing of eigenvalues: one matmul per skew-hermitian basis element
for the constraints, an SVD null space, and a sum over all basis elements
per null vector.  Both must find the same commutant, element by element
where they agree bitwise and as a subspace otherwise.
"""

import numpy as np
import pytest

import qdecouple as qd
from qdecouple.algebra import is_hermitian
from qdecouple.spans import realify
from oracles import operator_span


def _loop_commutant(a_i: qd.Operator, tol: float = 1e-9) -> list[np.ndarray]:
    n = a_i.dim
    basis_mats = []
    for k in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[k, k] = 1j
        basis_mats.append(m)
    for k in range(n):
        for l in range(k + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[k, l] = 1.0
            m[l, k] = -1.0
            basis_mats.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[k, l] = 1j
            m[l, k] = 1j
            basis_mats.append(m)
    constraints = np.array(
        [realify((m @ a_i.matrix - a_i.matrix @ m).ravel()) for m in basis_mats]
    ).T
    _, s, vt = np.linalg.svd(constraints, full_matrices=True)
    null = vt[int(np.sum(s > tol * max(s[0], 1.0))):]
    out = []
    for coeffs in null:
        mat = sum(c * m for c, m in zip(coeffs, basis_mats))
        nrm = np.linalg.norm(mat)
        if nrm > tol:
            out.append(mat * (1.0 / nrm))
    return out


def _degenerate_interaction() -> qd.Operator:
    """A random skew-hermitian A on C^6 with eigenvalue multiplicities 3, 2, 1."""
    space = qd.HilbertSpace((("a", 2), ("b", 3)))
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    a = u @ np.diag(1j * np.array([0.7, 0.7, 0.7, -1.3, -1.3, 0.2])) @ u.conj().T
    return qd.Operator(space, 0.5 * (a - a.conj().T), "skew_hermitian")


def _projector_distance(a: np.ndarray, b: np.ndarray) -> float:
    qa, _ = np.linalg.qr(realify(a.reshape(a.shape[0], -1)).T)
    qb, _ = np.linalg.qr(realify(b.reshape(b.shape[0], -1)).T)
    return float(np.linalg.norm(qa @ qa.T - qb @ qb.T, 2))


# commutant dimension per system: the sum of A_I's squared eigenvalue multiplicities
DIMS = {"two_qubit": 72, "restructured": 72, "bait": 288, "commutant_toy": 72, "degenerate": 14}


@pytest.fixture(params=sorted(DIMS))
def case(request):
    if request.param == "degenerate":
        return request.param, _degenerate_interaction()
    return request.param, request.getfixturevalue(request.param).interaction


def test_batched_commutant_matches_the_loop(case):
    name, interaction = case
    new = qd.commutant_basis(interaction)
    old = _loop_commutant(interaction)
    assert len(new) == len(old) == DIMS[name]
    new_mats = new
    old_mats = np.array(old)
    if np.abs(new_mats - old_mats).max() > 1e-15:
        assert _projector_distance(new_mats, old_mats) < 1e-12


def test_batched_commutant_elements(case):
    _, interaction = case
    basis = qd.commutant_basis(interaction)
    a = interaction.matrix
    for m in basis:
        assert is_hermitian(m, skew=True)
        assert abs(np.linalg.norm(m) - 1.0) < 1e-14
        assert np.abs(m + m.conj().T).max() == 0.0
        assert np.linalg.norm(m @ a - a @ m) < 1e-12
    span = operator_span(interaction.space, basis)
    assert span.dim == len(basis)
    assert span.residual(interaction) < span.span.tol
    identity = qd.Operator(interaction.space, 1j * np.eye(interaction.dim), "skew_hermitian")
    assert span.residual(identity) < span.span.tol


def test_closed_form_cuts_the_eigenvalue_gaps_where_the_loop_cuts_the_singular_values():
    # one eigenvalue gap 10x below the cut tol * max(largest gap, 1) = tol
    # (the largest gap is 1.0) and one 10x above it: the closed form keeps
    # the first pair and drops the second, as the loop's SVD cut does
    tol = 1e-9
    space = qd.HilbertSpace((("a", 5),))
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    a = u @ np.diag(1j * np.array([0.3, 0.3 + 0.1 * tol, -0.4, -0.4 + 10 * tol, 0.6])) @ u.conj().T
    interaction = qd.Operator(space, 0.5 * (a - a.conj().T), "skew_hermitian")
    new = qd.commutant_basis(interaction, tol)
    old = np.array(_loop_commutant(interaction, tol))
    assert len(new) == len(old) == 5 + 2
    a = interaction.matrix
    assert max(np.linalg.norm(m @ a - a @ m) for m in new) < tol
    # the loop's basis elements off the diagonal have norm sqrt(2), so its
    # singular vectors below the cut tilt off the kept eigenvalue block by
    # about (gap below / gap above)^2 = 1e-4; the closed form takes the block
    assert _projector_distance(new, old) < (0.1 / 10) ** 2
