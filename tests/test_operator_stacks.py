"""Every operator family the package computes is one complex (k, n, n) array."""

import numpy as np
import pytest

import qdecouple as qd
from qdecouple.feedback import control_commutant_combos
from qdecouple.observation import CLOSURE, SL_CERTIFICATE
from qdecouple.spans import realify
from oracles import materialized


def _c_tilde(name, n_env, method):
    ct = qd.build_c_tilde(qd.build_scenario(name, qd.ScenarioParams(n_env=n_env)))
    assert ct.details["method"] == method
    return ct


FAMILIES = {
    "lie_closure": lambda s: [qd.lie_closure(s.generator_stack)],
    "commutant_basis": lambda s: [qd.commutant_basis(s.interaction)],
    "control_commutant_combos": lambda s: [control_commutant_combos(s)],
    "hermitian_derivative_chain": lambda s: qd.hermitian_derivative_chain(s),
}


@pytest.mark.parametrize("family", [*FAMILIES, "c_tilde_certificate", "c_tilde_closure"])
def test_operator_families_are_complex_stacks(family, commutant_toy):
    n = commutant_toy.space.total_dim
    if family.startswith("c_tilde"):
        ct = (_c_tilde("bait", 2, SL_CERTIFICATE) if family == "c_tilde_certificate"
              else _c_tilde("two_qubit", 3, CLOSURE))
        n = ct.space.total_dim
        stacks = [np.array(list(ct.elements()))]
    else:
        stacks = FAMILIES[family](commutant_toy)
    assert stacks
    for stack in stacks:
        assert isinstance(stack, np.ndarray)
        assert stack.dtype == np.complex128
        assert stack.ndim == 3 and stack.shape[1:] == (n, n) and len(stack) > 0
    if family.startswith("c_tilde"):
        mats = stacks[0]
        assert len(mats) == ct.dim
        assert np.abs(realify(mats.reshape(len(mats), n * n)) - materialized(ct).span.q).max() <= 1e-15
