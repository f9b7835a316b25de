import pytest

import qdecouple as qd
from qdecouple.models import build_commutant_toy
from qdecouple.observation import close_c_tilde


@pytest.fixture(scope="session")
def params():
    return qd.ScenarioParams()


@pytest.fixture(scope="session")
def single_qubit(params):
    return qd.build_single_qubit(params)


@pytest.fixture(scope="session")
def two_qubit(params):
    return qd.build_two_qubit(params)


@pytest.fixture(scope="session")
def bait(params):
    return qd.build_bait(params)


@pytest.fixture(scope="session")
def restructured(params):
    return qd.build_restructured(params)


@pytest.fixture(scope="session")
def bait_c_tilde(bait):
    # the heavy 24-dimensional closure, by the kernel (the oracle for the
    # sl(n) certificate); shared across the suite
    return close_c_tilde(bait)


@pytest.fixture(scope="session")
def commutant_toy():
    return build_commutant_toy()
