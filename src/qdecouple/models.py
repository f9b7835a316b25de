"""The four benchmark decoherence-control systems and the coherence output.

Every system is a bilinear control problem

    d xi/dt = (A_0 + sum_i u_i(t) A_i + A_I) xi,

stored entirely in skew-hermitian generator form (A = -iH).  The output
operator C is kept as given (the coherence monitor |01><10| is not
hermitian); the coherence functional is

    y(t) = <xi|C|xi> = vdot(xi, C @ xi),

i.e. conjugation on the bra side, so for xi = (c1|01> + c2|10>) (x) |e>
one gets y = conj(c1) * c2.
"""

from __future__ import annotations

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
        for name in ("omega0", "omega_env", "j1", "j2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.w is None:
            self.w = complex(self.g)


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
    # the control matrices flattened to rows, (r, n^2): sum_i u_i A_i is one product
    control_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ops = [self.drift, *self.controls, self.interaction, self.output_op]
        for op in ops:
            if op.space != self.space:
                raise ValueError("all system operators must share the space")
        for op in [self.drift, *self.controls, self.interaction]:
            if not is_hermitian(op.matrix, skew=True):
                raise ValueError("dynamics generators must be skew-hermitian")
        if not self.control_labels:
            self.control_labels = [f"H_{i+1}" for i in range(len(self.controls))]
        if len(self.control_labels) != len(self.controls):
            raise ValueError("one label per control")
        n = self.space.total_dim
        self.control_stack = np.array([a.matrix for a in self.controls], dtype=complex).reshape(-1, n * n)

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    @property
    def generator_stack(self) -> np.ndarray:
        """(r + 1, n, n): the control generators A_1..A_r, then the drift A_0."""
        n = self.space.total_dim
        return np.concatenate([self.control_stack.reshape(-1, n, n), self.drift.matrix[None]])

    def generator(self, u: np.ndarray | None = None, include_interaction: bool = True) -> Operator:
        """Total skew generator A_0 + sum u_i A_i (+ A_I)."""
        mat = self.drift.matrix.copy()
        if u is not None:
            u = np.asarray(u, dtype=float)
            if u.shape != (self.n_controls,):
                raise ValueError(f"need {self.n_controls} control values")
            mat += (u @ self.control_stack).reshape(mat.shape)
        if include_interaction:
            mat = mat + self.interaction.matrix
        return Operator(self.space, mat)

    def interaction_floor(self, tol: float = DEFAULT_TOL) -> float:
        """Norm at or below which K_I(xi) counts as vanishing: no frame exists there."""
        return tol * max(self.interaction.norm(), 1.0)


def _coherence_block(ket: int, bra: int, dim: int = 2) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[ket, bra] = 1.0
    return m


def _two_qubit_coherence() -> np.ndarray:
    # |01><10| on qubit1 (x) qubit2, basis index 2*q1 + q2
    m = np.zeros((4, 4), dtype=complex)
    m[1, 2] = 1.0
    return m


def build_single_qubit(p: ScenarioParams) -> ControlSystem:
    """Spin-boson qubit: drift (omega0/2) sigma_z + omega_env b†b, controls
    sigma_x, sigma_y, dephasing interaction sigma_z (x) (g b† + g* b),
    output C = |0><1|."""
    space = HilbertSpace((("qubit", 2), ("env", p.n_env)))
    f_g = field_quadrature(p.g, p.n_env).matrix
    nhat = number_operator(p.n_env).matrix
    drift = embed_product(space, {"qubit": 0.5 * p.omega0 * SIGMA_Z}) + embed_product(
        space, {"env": p.omega_env * nhat}
    )
    controls = [
        embed_product(space, {"qubit": SIGMA_X}),
        embed_product(space, {"qubit": SIGMA_Y}),
    ]
    interaction = embed_product(space, {"qubit": SIGMA_Z, "env": f_g})
    output = embed_product(space, {"qubit": _coherence_block(0, 1)})
    return ControlSystem(
        space,
        drift.skew(),
        [c.skew() for c in controls],
        interaction.skew(),
        output,
        scenario="single_qubit",
        control_labels=["H_1", "H_2"],
        params=p,
    )


def _collective_dephasing(space: HilbertSpace, f_env: np.ndarray) -> Operator:
    return embed_product(space, {"qubit1": SIGMA_Z, "env": f_env}) + embed_product(
        space, {"qubit2": SIGMA_Z, "env": f_env}
    )


def build_two_qubit(p: ScenarioParams) -> ControlSystem:
    """Two qubits under collective dephasing; controls sigma_x/sigma_y on
    each qubit; C = |01><10| (x) I_env.  span{|01>, |10>} is a DFS."""
    space = HilbertSpace((("qubit1", 2), ("qubit2", 2), ("env", p.n_env)))
    f_g = field_quadrature(p.g, p.n_env).matrix
    nhat = number_operator(p.n_env).matrix
    drift = (
        embed_product(space, {"qubit1": 0.5 * p.omega0 * SIGMA_Z})
        + embed_product(space, {"qubit2": 0.5 * p.omega0 * SIGMA_Z})
        + embed_product(space, {"env": p.omega_env * nhat})
    )
    controls = [
        embed_product(space, {"qubit1": SIGMA_X}),
        embed_product(space, {"qubit1": SIGMA_Y}),
        embed_product(space, {"qubit2": SIGMA_X}),
        embed_product(space, {"qubit2": SIGMA_Y}),
    ]
    interaction = _collective_dephasing(space, f_g)
    output = Operator(space, np.kron(_two_qubit_coherence(), np.eye(p.n_env, dtype=complex)))
    return ControlSystem(
        space,
        drift.skew(),
        [c.skew() for c in controls],
        interaction.skew(),
        output,
        scenario="two_qubit",
        control_labels=["H_1", "H_2", "H_3", "H_4"],
        params=p,
    )


def build_bait(p: ScenarioParams) -> ControlSystem:
    """Two qubits plus a bait qubit with controllable bath coupling.

    Controls H_1..H_9: sigma_x/y on each data qubit, sigma_x/y on the bait,
    the two Ising couplings J1 sigma_z(1) sigma_z(b), J2 sigma_z(2) sigma_z(b),
    and the switchable bait-bath quadrature sigma_z(b) (x) (w b† + w* b).
    """
    space = HilbertSpace((("qubit1", 2), ("qubit2", 2), ("bait", 2), ("env", p.n_env)))
    f_g = field_quadrature(p.g, p.n_env).matrix
    f_w = field_quadrature(p.w, p.n_env).matrix
    nhat = number_operator(p.n_env).matrix
    drift = (
        embed_product(space, {"qubit1": 0.5 * p.omega0 * SIGMA_Z})
        + embed_product(space, {"qubit2": 0.5 * p.omega0 * SIGMA_Z})
        + embed_product(space, {"bait": 0.5 * p.omega0 * SIGMA_Z})
        + embed_product(space, {"env": p.omega_env * nhat})
    )
    controls = [
        embed_product(space, {"qubit1": SIGMA_X}),
        embed_product(space, {"qubit1": SIGMA_Y}),
        embed_product(space, {"qubit2": SIGMA_X}),
        embed_product(space, {"qubit2": SIGMA_Y}),
        embed_product(space, {"bait": SIGMA_X}),
        embed_product(space, {"bait": SIGMA_Y}),
        embed_product(space, {"qubit1": p.j1 * SIGMA_Z, "bait": SIGMA_Z}),
        embed_product(space, {"qubit2": p.j2 * SIGMA_Z, "bait": SIGMA_Z}),
        embed_product(space, {"bait": SIGMA_Z, "env": f_w}),
    ]
    interaction = embed_product(space, {"qubit1": SIGMA_Z, "env": f_g}) + embed_product(
        space, {"qubit2": SIGMA_Z, "env": f_g}
    )
    output = Operator(space, np.kron(_two_qubit_coherence(), np.eye(2 * p.n_env, dtype=complex)))
    return ControlSystem(
        space,
        drift.skew(),
        [c.skew() for c in controls],
        interaction.skew(),
        output,
        scenario="bait",
        control_labels=[f"H_{i}" for i in range(1, 10)],
        params=p,
    )


def build_restructured(p: ScenarioParams, max_power: int = 5) -> ControlSystem:
    """Bait-eliminated system whose controls carry bath-quadrature powers.

    Controls are sigma_x/y on each data qubit multiplied by (w b† + w* b)^i
    for i = 0..max_power (4*(max_power+1) generators, ordered qubit-major);
    drift, interaction and C are those of the plain two-qubit system.
    """
    if max_power < 0:
        raise ValueError("max_power must be >= 0")
    space = HilbertSpace((("qubit1", 2), ("qubit2", 2), ("env", p.n_env)))
    f_w = field_quadrature(p.w, p.n_env).matrix
    f_g = field_quadrature(p.g, p.n_env).matrix
    nhat = number_operator(p.n_env).matrix
    drift = (
        embed_product(space, {"qubit1": 0.5 * p.omega0 * SIGMA_Z})
        + embed_product(space, {"qubit2": 0.5 * p.omega0 * SIGMA_Z})
        + embed_product(space, {"env": p.omega_env * nhat})
    )
    controls = []
    labels = []
    for j, (qubit, sigma, sname) in enumerate(
        [("qubit1", SIGMA_X, "x1"), ("qubit1", SIGMA_Y, "y1"), ("qubit2", SIGMA_X, "x2"), ("qubit2", SIGMA_Y, "y2")]
    ):
        for i in range(max_power + 1):
            f_pow = np.linalg.matrix_power(f_w, i)
            controls.append(embed_product(space, {qubit: sigma, "env": f_pow}))
            labels.append(f"K_{sname}F{i}")
    interaction = _collective_dephasing(space, f_g)
    output = Operator(space, np.kron(_two_qubit_coherence(), np.eye(p.n_env, dtype=complex)))
    return ControlSystem(
        space,
        drift.skew(),
        [c.skew() for c in controls],
        interaction.skew(),
        output,
        scenario="restructured",
        control_labels=labels,
        params=p,
    )


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
    space = HilbertSpace((("qubit1", 2), ("qubit2", 2), ("env", n_env)))
    fg = field_quadrature(g, n_env).matrix
    h_sb = embed_product(space, {"qubit1": SIGMA_Z, "env": fg}) + embed_product(
        space, {"qubit2": SIGMA_Z, "env": fg}
    )
    swap = 0.5 * (
        embed_product(space, {"qubit1": SIGMA_X, "qubit2": SIGMA_X})
        + embed_product(space, {"qubit1": SIGMA_Y, "qubit2": SIGMA_Y})
    )
    zdiff = embed_product(space, {"qubit1": SIGMA_Z}) - embed_product(space, {"qubit2": SIGMA_Z})
    envf = embed_product(space, {"env": fg})
    swapf = Operator(space, swap.matrix @ envf.matrix)
    controls = [h_sb, swap, zdiff, envf, swapf]
    drift = 0.4 * omega0 * swap + 0.25 * omega0 * zdiff
    output = Operator(space, np.kron(_two_qubit_coherence(), np.eye(n_env, dtype=complex)))
    return ControlSystem(
        space,
        drift.skew(),
        [h.skew() for h in controls],
        h_sb.skew(),
        output,
        scenario="toy_commutant",
        control_labels=["B1", "B2", "B3", "B4", "B5"],
    )


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
