"""Reference oracles for the tests: naive on purpose, one difference, bracket or residual at a time."""

from typing import Callable

import numpy as np

import qdecouple as qd
from qdecouple.observation import OperatorSpan, Verdict
from qdecouple.simulate import _MAX_DEPTH
from qdecouple.spans import RealSpan, ad_images, close_real_span, realify, unrealify
from qdecouple.tangent import CodistributionBasis, covector_of


def operator_span(space: qd.HilbertSpace, family, tol: float = 1e-9) -> OperatorSpan:
    """The OperatorSpan of a (k, n, n) stack or a list of Operators, by one add_batch of realified rows."""
    n = space.total_dim
    mats = np.array([getattr(m, "matrix", m) for m in family], dtype=complex).reshape(-1, n * n)
    span = RealSpan(2 * n * n, tol=tol)
    span.add_batch(realify(mats))
    return OperatorSpan(space, span)


def sl_basis(n: int) -> np.ndarray:
    """The orthonormal real basis of sl(n, C) in observation._sl_element's order, as a (2(n^2 - 1), n, n) stack.

    E_kl and i E_kl for k != l (row-major), then d_j and i d_j for the
    orthonormal traceless diagonal d_j = (E_00 + ... + E_{j-1,j-1} - j E_jj)
    / sqrt(j(j + 1)), j = 1..n-1, built for all elements at once.
    """
    k, l = np.nonzero(~np.eye(n, dtype=bool))
    off = np.zeros((k.size, n, n), dtype=complex)
    off[np.arange(k.size), k, l] = 1.0
    j = np.arange(1, n)[:, None]
    diag = np.where(np.arange(n) < j, 1.0, 0.0) - j * (np.arange(n) == j)
    diag = diag / np.sqrt(j * (j + 1))
    diag_mats = np.zeros((n - 1, n, n), dtype=complex)
    diag_mats[:, np.arange(n), np.arange(n)] = diag
    pairs = [np.stack([m, 1j * m], axis=1).reshape(-1, n, n) for m in (off, diag_mats)]
    return np.concatenate(pairs)


def materialized(c_tilde: OperatorSpan) -> OperatorSpan:
    """C~ with its orthonormal basis held as realified rows.

    A certified C~ = sl(n, C) holds none: its rows become realify(sl_basis(n)).
    A closed C~ already holds its rows and is returned as it is.
    """
    if c_tilde.span is not None:
        return c_tilde
    n = c_tilde.space.total_dim
    mats = sl_basis(n)
    span = RealSpan(2 * n * n)
    span.q = realify(mats.reshape(len(mats), n * n))
    return OperatorSpan(c_tilde.space, span, dict(c_tilde.details))


def operators(space: qd.HilbertSpace, mats) -> list[qd.Operator]:
    """One Operator per matrix of a (k, n, n) stack, for the one-at-a-time oracles."""
    return [qd.Operator(space, m) for m in mats]


def traceless_generators(generators: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """The traceless parts of a (k, n, n) stack, less those of the multiples of the identity."""
    n = generators.shape[-1]
    traceless = generators - (np.trace(generators, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    return traceless[np.linalg.norm(traceless, axis=(1, 2)) > tol * np.linalg.norm(generators, axis=(1, 2))]


def closure_generates_su(generators: np.ndarray, tol: float = 1e-9) -> bool:
    """dim lie_closure(traceless_generators) = n^2 - 1: the oracle for the spectral su(n) test."""
    n = generators.shape[-1]
    return len(qd.lie_closure(traceless_generators(generators, tol), tol=tol)) == n * n - 1


def omega_generators(sys_: qd.ControlSystem, tol: float = 1e-9) -> tuple[np.ndarray, dict]:
    """Omega's quadratic generators by a closure of their own, as a (k, n, n) stack and {"rounds", "generator_rank"}.

    close_real_span of {C, -iC} (C scaled to unit norm) under the drift,
    then the controls: the reference for omega_closure_open, which reads
    Omega = C~ + iC~ off build_c_tilde instead.
    """
    n = sys_.space.total_dim
    c = sys_.output_op.matrix.ravel()
    c = c / np.linalg.norm(c)
    drift_first = np.roll(sys_.generator_stack, 1, axis=0)
    span, batches, rounds = close_real_span(np.array([c, -1j * c]), drift_first, tol=tol)
    return np.vstack(batches).reshape(-1, n, n), {"rounds": rounds, "generator_rank": span.rank}


def omega_at(xi: qd.StateVector, generators: np.ndarray, tol: float = 1e-9) -> CodistributionBasis:
    """The codistribution of omega_generators' stack at xi: one covector per generator."""
    return CodistributionBasis(xi, covector_of(generators, xi.amplitudes), tol=tol)


def fd_field_bracket(
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    h: float = 1e-5,
) -> np.ndarray:
    """Central-difference Lie bracket [f, g](x) = Dg f - Df g on the realified state.

    The finite-difference oracle for bracket_linear_fields.
    """
    xr = realify(np.asarray(x, dtype=complex))

    def lift(fun):
        return lambda r: realify(fun(unrealify(r)))

    fr, gr = lift(f), lift(g)

    def jtimes(fun, direction):
        return (fun(xr + h * direction) - fun(xr - h * direction)) / (2 * h)

    out = jtimes(gr, fr(xr)) - jtimes(fr, gr(xr))
    return unrealify(out)


def drift_chain(drift: qd.Operator, by: qd.Operator, tol: float = 1e-9) -> list[qd.Operator]:
    """drift, [by, drift], [by, [by, drift]], ... (normalized) until a bracket adds no direction."""
    span = RealSpan(2 * drift.dim * drift.dim, tol=tol)
    chain = []
    op = drift
    while op.norm() > tol and span.add(realify(op.matrix.ravel())):
        op = op * (1.0 / op.norm())
        chain.append(op)
        op = qd.commutator(by, op)
    return chain


def control_algebra_verdict(sys_: qd.ControlSystem, delta: qd.OperatorSpan, tol: float = 1e-9):
    """The control-algebra decouplability condition, one pair at a time.

    [Delta, G] and [Delta, C] must land in span(Delta (+) G), where G is the
    Lie closure of the controls and C the drift chains ad^j_{K_i} K_0.
    Returns (ok, witness, details) with details {"g_dim", "c_set_size"}.
    """
    n = sys_.space.total_dim
    algebra = qd.lie_closure(sys_.control_stack.reshape(-1, n, n), tol=tol)
    g_alg = operators(sys_.space, algebra)
    c_set = [op for k_i in sys_.controls for op in drift_chain(sys_.drift, k_i, tol)]
    details = {"g_dim": len(g_alg), "c_set_size": len(c_set)}
    basis = operators(sys_.space, delta.matrices)
    combined = operator_span(sys_.space, [*basis, *g_alg], tol=tol)
    for tag, family in (("control_algebra", g_alg), ("drift_chain", c_set)):
        for k, other in enumerate(family):
            for d_idx, d_op in enumerate(basis):
                br = qd.commutator(d_op, other)
                if br.norm() <= tol:
                    continue
                res = combined.residual(br)
                if res > tol:
                    return False, {"kind": tag, "member_index": k, "delta_index": d_idx, "residual": res}, details
    return True, None, details


def controlled_invariance_per_pair(
    delta: qd.DistributionBasis,
    sys: qd.ControlSystem,
    include_drift: bool = False,
    tol: float = 1e-9,
):
    """The pointwise controlled-invariance test, one bracket Operator and one residual per pair.

    The reference for tangent.check_controlled_invariance: the span grows one
    row at a time, each (generator, generating op) pair gets its own bracket
    operator and residual, and the first failing pair in (controls, then
    drift; delta_index) order is the witness.
    """
    if delta.generating_ops is None:
        raise ValueError("controlled-invariance test needs generating operators")
    if not len(delta.generating_ops):
        return Verdict("controlled_invariance", True, details={"vacuous": True})
    xi = delta.base
    n = sys.space.total_dim
    span = RealSpan(2 * n, tol=tol)
    for row in realify(delta.vectors):
        span.add(row)
    for a in sys.controls:
        span.add(realify(a.matrix @ xi.amplitudes))
    gens = list(zip(sys.control_labels, sys.controls))
    if include_drift:
        gens = gens + [("drift", sys.drift)]
    worst = 0.0
    for label, a in gens:
        for d_idx, d_op in enumerate(operators(sys.space, delta.generating_ops)):
            br = qd.bracket_linear_fields(d_op, a)
            val = br.matrix @ xi.amplitudes
            nrm = np.linalg.norm(val)
            if nrm <= tol * max(d_op.norm() * a.norm(), 1.0):
                continue
            res = span.residual(realify(val))
            worst = max(worst, res)
            if res > tol:
                return Verdict(
                    "controlled_invariance",
                    False,
                    witness={"kind": "bracket_outside_span", "generator": label, "delta_index": d_idx, "residual": res},
                )
    return Verdict("controlled_invariance", True, details={"max_residual": worst})


_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
    "z": np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex),
}


def _kron(blocks: list) -> np.ndarray:
    """blocks[0] (x) blocks[1] (x) ..., by nested np.kron."""
    out = blocks[0]
    for blk in blocks[1:]:
        out = np.kron(out, blk)
    return out


def _bath(w: complex, n_env: int) -> tuple[np.ndarray, np.ndarray]:
    """(w b† + w* b, b†b) on n_env levels, from b|n> = sqrt(n)|n-1>."""
    b = np.diag(np.sqrt(np.arange(1, n_env, dtype=float)), 1).astype(complex)
    bd = b.conj().T
    return w * bd + np.conj(w) * b, bd @ b


def scenario_matrices(name: str, p: qd.ScenarioParams | None = None, max_power: int = 5) -> dict:
    """A scenario's (or, for name "toy_commutant", the commutant toy's) matrices by nested np.kron.

    The reference for models: every operator is spelled out factor by
    factor (the qubits in order, then env) and summed left to right, so it
    runs the products and sums models runs.  For the toy, p carries g,
    omega0 and n_env; its other fields are unused.  Returns {"factors",
    "drift", "controls" (k, n, n), "interaction", "output", "labels",
    "scenario"}, the generators as -iH.
    """
    p = p or qd.ScenarioParams()
    qubits = {"single_qubit": ["qubit"], "bait": ["qubit1", "qubit2", "bait"]}.get(name, ["qubit1", "qubit2"])
    factors = tuple((q, 2) for q in qubits) + (("env", p.n_env),)
    eye = [np.eye(d, dtype=complex) for _, d in factors]

    def on(**blocks):
        return _kron([blocks.get(label, eye[i]) for i, (label, _) in enumerate(factors)])

    f_g, nhat = _bath(p.g, p.n_env)
    f_w, _ = _bath(p.w, p.n_env)
    sx, sy, sz = _PAULI["x"], _PAULI["y"], _PAULI["z"]
    data = qubits[:2]
    coherence = np.zeros((2 ** len(data),) * 2, dtype=complex)
    coherence[len(coherence) // 2 - 1, len(coherence) // 2] = 1.0        # |0><1|, or |01><10|
    output = np.kron(coherence, np.eye(len(on()) // len(coherence), dtype=complex))
    interaction = on(**{data[0]: sz, "env": f_g})
    if len(data) == 2:
        interaction = interaction + on(**{data[1]: sz, "env": f_g})
    drift = on(**{qubits[0]: 0.5 * p.omega0 * sz})
    for q in qubits[1:]:
        drift = drift + on(**{q: 0.5 * p.omega0 * sz})
    drift = drift + on(env=p.omega_env * nhat)
    labels = []
    if name == "single_qubit":
        controls = [on(qubit=sx), on(qubit=sy)]
    elif name == "two_qubit":
        controls = [on(qubit1=sx), on(qubit1=sy), on(qubit2=sx), on(qubit2=sy)]
    elif name == "bait":
        controls = [on(qubit1=sx), on(qubit1=sy), on(qubit2=sx), on(qubit2=sy), on(bait=sx), on(bait=sy),
                    on(qubit1=p.j1 * sz, bait=sz), on(qubit2=p.j2 * sz, bait=sz), on(bait=sz, env=f_w)]
    elif name == "restructured":
        controls = []
        for q, axis in (("qubit1", "x"), ("qubit1", "y"), ("qubit2", "x"), ("qubit2", "y")):
            for i in range(max_power + 1):
                controls.append(on(**{q: _PAULI[axis], "env": np.linalg.matrix_power(f_w, i)}))
                labels.append(f"K_{axis}{q[-1]}F{i}")
    elif name == "toy_commutant":
        swap = 0.5 * (on(qubit1=sx, qubit2=sx) + on(qubit1=sy, qubit2=sy))
        zdiff = on(qubit1=sz) - on(qubit2=sz)
        envf = on(env=f_g)
        controls = [interaction, swap, zdiff, envf, swap @ envf]
        drift = 0.4 * p.omega0 * swap + 0.25 * p.omega0 * zdiff
        labels = ["B1", "B2", "B3", "B4", "B5"]
    else:
        raise ValueError(f"unknown scenario {name!r}")
    return {
        "factors": factors,
        "drift": -1j * drift,
        "controls": np.array([-1j * c for c in controls]),
        "interaction": -1j * interaction,
        "output": output,
        "labels": labels or [f"H_{i + 1}" for i in range(len(controls))],
        "scenario": name,
    }


def bracket_words_one_add_at_a_time(sys_: qd.ControlSystem, tol: float = 1e-9) -> dict:
    """hsb_generation_search's phase 2, one RealSpan.add per word over realified rows.

    The reference for simulate._bracket_words: the left-normed words
    [[...[H_a, H_b], ...], H_c] of each length, word-major, each scaled to
    unit norm and kept when add raises the rank, until the unit interaction
    enters their span, a length adds no word or the words reach length
    simulate._MAX_DEPTH.  Returns {"words" (labels of every kept word),
    "closure_dim", "membership_depth", "witness" ({label: coefficient} of
    the top eight words, by a least-squares fit over the 2n^2 realified
    rows)}.
    """
    n = sys_.space.total_dim
    controls = sys_.control_stack
    labels = sys_.control_labels
    target = sys_.interaction.matrix
    tvec = realify(target.ravel() / np.linalg.norm(target))
    span = RealSpan(2 * n * n, tol=tol)
    words: list[tuple[str, np.ndarray]] = []               # words[start:] is the frontier
    for lbl, op in zip(labels, controls):
        nrm = float(np.linalg.norm(op))
        if nrm < tol:
            continue
        unit = (1.0 / nrm) * op
        if span.add(realify(unit.ravel())):
            words.append((lbl, unit))
    found_depth = None
    start = 0
    for depth in range(2, _MAX_DEPTH + 1):
        frontier, start = words[start:], len(words)
        images = ad_images(np.array([w for _, w in frontier]).reshape(-1, n, n), controls)
        for lbl, cand in zip([f"[{wl},{gl}]" for wl, _ in frontier for gl in labels], images):
            nrm = float(np.linalg.norm(cand))
            if nrm < tol:
                continue
            cand = (1.0 / nrm) * cand
            if span.add(realify(cand.ravel())):
                words.append((lbl, cand))
        if span.residual(tvec) < tol:
            found_depth = depth
            break
        if len(words) == start:
            break
    witness = {}
    if found_depth is not None:
        mat = np.array([realify(w.ravel()) for _, w in words])
        coeffs, *_ = np.linalg.lstsq(mat.T, tvec, rcond=None)
        top = sorted(((abs(c), lbl, float(c)) for c, (lbl, _) in zip(coeffs, words)), reverse=True)
        witness = {lbl: c for mag, lbl, c in top[:8] if mag > 1e-6}
    return {
        "words": [lbl for lbl, _ in words],
        "closure_dim": span.rank,
        "membership_depth": found_depth,
        "witness": witness,
    }
