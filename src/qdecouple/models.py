"""The four benchmark decoherence-control systems and the coherence output.

Every system is a bilinear control problem

    d xi/dt = (A_0 + sum_i u_i(t) A_i + A_I) xi,

stored entirely in skew-hermitian generator form (A = -iH).  The four
scenarios are assembled one way (the commutant toy keeps only its own
drift and controls): the space is the qubit factors, then the
bath mode "env" (scenario_space); the drift is (omega0/2) sigma_z on each
qubit in factor order, then omega_env b†b; the interaction is sigma_z (x)
(g b† + g* b) on each data qubit (not the bait); the drives are sigma_x,
then sigma_y, on each qubit in factor order.  Each operator is summed
left to right from embed_product terms, and each Hamiltonian H becomes
its generator -iH in one place (_system), each control as it is built.
A system holds each generator matrix once, in a read-only (r + 1, n, n)
generator_stack (the controls, then the drift) whose rows drift, controls
and control_stack view.  The output operator C, the coherence monitor
|01><10| (x) I (|0><1| (x) I on one qubit), is not hermitian and is kept
as it is; the coherence functional is

    y(t) = <xi|C|xi> = vdot(xi, C @ xi),

i.e. conjugation on the bra side, so for xi = (c1|01> + c2|10>) (x) |e>
one gets y = conj(c1) * c2.

bath_blocks splits a system's controls into blocks over the eigenbasis of
the bath quadrature F_w; in bait they are block-diagonal there, and the
`rank` command reads its per-state data off the blocks.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    HilbertSpace,
    Operator,
    StateVector,
    _eigh,
    embed_product,
    field_quadrature,
    is_hermitian,
    normalize,
    number_operator,
)


@dataclass
class ScenarioParams:
    """Physical parameters shared by the benchmark systems.

    One bath mode of dimension n_env is retained (the k-sum collapses to a
    single term); w defaults to the bait-bath coupling w = g.
    """

    omega0: float = 1.0
    omega_env: float = 1.0
    g: complex = 0.1 + 0.0j
    w: complex | None = None
    j1: float = 1.0
    j2: float = 1.0
    n_env: int = 3

    def __post_init__(self):
        if self.n_env < 2:
            raise ValueError("environment needs at least 2 levels")
        if self.w is None:
            self.w = complex(self.g)
        for name in ("omega0", "omega_env", "j1", "j2", "g", "w"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass
class ControlSystem:
    """Assembled bilinear system; its generators are checked skew-hermitian here."""

    space: HilbertSpace
    drift: Operator
    controls: list[Operator]
    interaction: Operator
    output_op: Operator
    scenario: str
    control_labels: list[str] = field(default_factory=list)
    params: ScenarioParams | None = None
    # (r + 1, n, n), read-only: the control generators A_1..A_r, then the drift A_0
    generator_stack: np.ndarray = field(init=False, repr=False, compare=False)
    # (r, n, n): generator_stack[:-1]
    control_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(op.space != self.space for op in [self.drift, *self.controls, self.interaction, self.output_op]):
            raise ValueError("all system operators must share the space")
        if not all(is_hermitian(op.matrix, skew=True) for op in [self.drift, *self.controls, self.interaction]):
            raise ValueError("dynamics generators must be skew-hermitian")
        if not self.control_labels:
            self.control_labels = [f"H_{i+1}" for i in range(len(self.controls))]
        if len(self.control_labels) != len(self.controls):
            raise ValueError("one label per control")
        self.generator_stack = np.array([*(a.matrix for a in self.controls), self.drift.matrix], dtype=complex)
        self.generator_stack.flags.writeable = False
        self.control_stack = self.generator_stack[:-1]
        self.controls = [Operator(self.space, m) for m in self.control_stack]
        self.drift = Operator(self.space, self.generator_stack[-1])

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    def generator(self, u: np.ndarray | None = None, include_interaction: bool = True) -> Operator:
        """Total skew generator A_0 + sum u_i A_i (+ A_I)."""
        mat = self.drift.matrix.copy()
        if u is not None:
            u = np.asarray(u, dtype=float)
            if u.shape != (self.n_controls,):
                raise ValueError(f"need {self.n_controls} control values")
            flat = self.generator_stack.reshape(len(self.generator_stack), -1)      # (r + 1, n^2), a view
            mat += (u @ flat[:-1]).reshape(mat.shape)
        if include_interaction:
            mat = mat + self.interaction.matrix
        return Operator(self.space, mat)

    def interaction_floor(self, tol: float = DEFAULT_TOL) -> float:
        """Norm at or below which K_I(xi) counts as vanishing: no frame exists there."""
        return tol * max(self.interaction.norm(), 1.0)


_QUBITS = {
    "single_qubit": ("qubit",),
    "two_qubit": ("qubit1", "qubit2"),
    "bait": ("qubit1", "qubit2", "bait"),
    "restructured": ("qubit1", "qubit2"),
}


def scenario_space(name: str, n_env: int) -> HilbertSpace:
    """A scenario's layout: its qubit factors (dimension 2), then "env" with n_env levels."""
    if name not in _QUBITS:
        raise ValueError(f"unknown scenario {name!r}")
    return HilbertSpace(tuple((q, 2) for q in _QUBITS[name]) + (("env", n_env),))


def _data_qubits(space: HilbertSpace) -> list[str]:
    return [q for q in space.labels if q not in ("bait", "env")]


def _sum(space: HilbertSpace, *terms: dict[str, np.ndarray]) -> Operator:
    """embed_product of each term, added left to right."""
    return functools.reduce(operator.add, (embed_product(space, t) for t in terms))


def _collective_dephasing(space: HilbertSpace, f_env: np.ndarray) -> Operator:
    return _sum(space, *({q: SIGMA_Z, "env": f_env} for q in _data_qubits(space)))


def _coherence_output(space: HilbertSpace) -> Operator:
    """|01><10| on the two data qubits (|0><1| on a single one), identity on the rest."""
    d = 2 ** len(_data_qubits(space))
    block = np.zeros((d, d), dtype=complex)
    block[d // 2 - 1, d // 2] = 1.0
    return Operator(space, np.kron(block, np.eye(space.total_dim // d, dtype=complex)))


def _drives(name: str) -> list[dict[str, np.ndarray]]:
    """sigma_x, then sigma_y, on each qubit of the scenario in factor order."""
    return [{q: s} for q in _QUBITS[name] for s in (SIGMA_X, SIGMA_Y)]


def _system(space, drift, controls, interaction, scenario, labels=None, params=None) -> ControlSystem:
    """The ControlSystem of these Hamiltonians, each taken to -iH here; an iterator of controls holds one H at once."""
    controls = [c.skew() for c in controls]
    output = _coherence_output(space)
    return ControlSystem(space, drift.skew(), controls, interaction.skew(), output, scenario, labels or [], params)


def _scenario(name: str, p: ScenarioParams, controls: list[dict[str, np.ndarray]], labels=None) -> ControlSystem:
    """A scenario with these control Hamiltonians and the shared drift, interaction and output."""
    space = scenario_space(name, p.n_env)
    nhat = number_operator(p.n_env).matrix
    drift = _sum(space, *({q: 0.5 * p.omega0 * SIGMA_Z} for q in _QUBITS[name]), {"env": p.omega_env * nhat})
    interaction = _collective_dephasing(space, field_quadrature(p.g, p.n_env).matrix)
    return _system(space, drift, (embed_product(space, c) for c in controls), interaction, name, labels, p)


def build_single_qubit(p: ScenarioParams) -> ControlSystem:
    """Spin-boson qubit: controls sigma_x, sigma_y; interaction sigma_z (x) (g b† + g* b); C = |0><1|."""
    return _scenario("single_qubit", p, _drives("single_qubit"))


def build_two_qubit(p: ScenarioParams) -> ControlSystem:
    """Two qubits under collective dephasing; controls sigma_x/sigma_y on
    each qubit; C = |01><10| (x) I_env.  span{|01>, |10>} is a DFS."""
    return _scenario("two_qubit", p, _drives("two_qubit"))


def build_bait(p: ScenarioParams) -> ControlSystem:
    """Two qubits plus a bait qubit with controllable bath coupling.

    Controls H_1..H_9: sigma_x/y on each data qubit, sigma_x/y on the bait,
    the two Ising couplings J1 sigma_z(1) sigma_z(b), J2 sigma_z(2) sigma_z(b),
    and the switchable bait-bath quadrature sigma_z(b) (x) (w b† + w* b).
    """
    f_w = field_quadrature(p.w, p.n_env).matrix
    couplings = [
        {"qubit1": p.j1 * SIGMA_Z, "bait": SIGMA_Z},
        {"qubit2": p.j2 * SIGMA_Z, "bait": SIGMA_Z},
        {"bait": SIGMA_Z, "env": f_w},
    ]
    return _scenario("bait", p, _drives("bait") + couplings)


def build_restructured(p: ScenarioParams, max_power: int = 5) -> ControlSystem:
    """Bait-eliminated system whose controls carry bath-quadrature powers.

    Controls are sigma_x/y on each data qubit multiplied by (w b† + w* b)^i
    for i = 0..max_power (4*(max_power+1) generators, ordered qubit-major);
    drift, interaction and C are those of the plain two-qubit system.
    """
    if max_power < 0:
        raise ValueError("max_power must be >= 0")
    f_w = field_quadrature(p.w, p.n_env).matrix
    powers = [np.linalg.matrix_power(f_w, i) for i in range(max_power + 1)]
    drives = _drives("restructured")
    labels = [f"K_{axis}{q}F{i}" for q in "12" for axis in "xy" for i in range(max_power + 1)]
    return _scenario("restructured", p, [{**drive, "env": f} for drive in drives for f in powers], labels)


def build_commutant_toy(g: complex = 0.15 + 0j, omega0: float = 1.0, n_env: int = 3) -> ControlSystem:
    """12-dimensional system whose controls all commute with the interaction.

    Two data qubits under collective dephasing; controls: the dephasing
    direction itself (the bait idea: the interaction direction is
    available as a control), the DFS-internal swap, the z-difference, and
    two environment drives.  The drift is a combination of control
    Hamiltonians, so the commuting-frame synthesis is exact and the
    closed loop decouples y from the coupling exactly.  Backs demo 06 and
    the feedback tests; not a CLI scenario.
    """
    space = scenario_space("two_qubit", n_env)
    fg = field_quadrature(g, n_env).matrix
    h_sb = _collective_dephasing(space, fg)
    swap = 0.5 * _sum(space, {"qubit1": SIGMA_X, "qubit2": SIGMA_X}, {"qubit1": SIGMA_Y, "qubit2": SIGMA_Y})
    zdiff = embed_product(space, {"qubit1": SIGMA_Z}) - embed_product(space, {"qubit2": SIGMA_Z})
    envf = embed_product(space, {"env": fg})
    controls = [h_sb, swap, zdiff, envf, swap @ envf]
    drift = 0.4 * omega0 * swap + 0.25 * omega0 * zdiff
    return _system(space, drift, controls, h_sb, "toy_commutant", ["B1", "B2", "B3", "B4", "B5"])


def bath_blocks(sys: ControlSystem, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray] | None:
    """F_w's eigenbasis V and the control stack's diagonal blocks in I_q (x) V, or None.

    V holds the eigenvectors (columns) of the bath quadrature F_w =
    field_quadrature(w, n_env).  With the env factor last, I_q (x) V
    carries each control G_k to n_env x n_env blocks of size q = n / n_env;
    the blocks come back as a (k, n_env, q, q) array, block j the qubit
    operator at F_w's eigenvalue j.  Bait's controls are qubit operators
    times I or F_w, so they are block-diagonal there with traceless blocks.
    None when the system has no params, or when some G_k has an off-block
    part, or a block trace, above tol * ||G_k||.  The off-block part is
    the norm of the transformed G_k with its diagonal blocks zeroed, not
    sqrt(||G_k||^2 - ||blocks||^2): that difference cancels to about 1e-8
    and would refuse bait at n_env 4 and 6.
    """
    if sys.params is None:
        return None
    n_env = sys.params.n_env
    _, v = _eigh(field_quadrature(sys.params.w, n_env).matrix)
    stack = sys.control_stack
    k, n = stack.shape[:2]
    q = n // n_env
    # (I_q (x) V)† G (I_q (x) V): V† on the row env index, V on the column one
    h = (v.conj().T @ stack.reshape(k, q, n_env, n)).reshape(k, q, n_env, q, n_env) @ v
    h = h.transpose(0, 2, 4, 1, 3)                          # (k, row block, column block, q, q)
    diag = np.arange(n_env)
    blocks = h[:, diag, diag]
    off = h.copy()
    off[:, diag, diag] = 0.0
    bound = tol * np.linalg.norm(stack.reshape(k, -1), axis=1)
    if np.any(np.linalg.norm(off.reshape(k, -1), axis=1) > bound):
        return None
    if np.any(np.abs(np.trace(blocks, axis1=2, axis2=3)) > bound[:, None]):
        return None
    return v, blocks


SCENARIOS = ("single_qubit", "two_qubit", "bait", "restructured")


def build_scenario(name: str, p: ScenarioParams, max_power: int = 5) -> ControlSystem:
    if name == "single_qubit":
        return build_single_qubit(p)
    if name == "two_qubit":
        return build_two_qubit(p)
    if name == "bait":
        return build_bait(p)
    if name == "restructured":
        return build_restructured(p, max_power)
    raise ValueError(f"unknown scenario {name!r}")


def dfs_state(sys: ControlSystem, c1: complex = 1.0, c2: complex = 1.0) -> StateVector:
    """(c1|01> + c2|10>)/norm (x) |0...>, matching the system layout."""
    if sys.scenario == "single_qubit":
        raise ValueError("single-qubit system has no two-qubit DFS")
    amps = np.zeros(sys.space.total_dim, dtype=complex)
    tail_dim = sys.space.total_dim // 4    # everything after the two data qubits
    amps[1 * tail_dim] = c1                # |01> (x) |0...>
    amps[2 * tail_dim] = c2                # |10> (x) |0...>
    return normalize(sys.space, amps)
