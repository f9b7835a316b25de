"""Scenario-driven command line: verdict tables, traces, rank and CBH reports.

Subcommands
-----------
check             reproduce the three-row decouplability table
simulate          open- or closed-loop traces; feedback modes run the
                  paired (coupled / uncoupled) comparison
rank              control-field rank histogram and K_I-membership report
maneuver          four-segment commutator maneuver: CBH slope fit and
                  effective-direction overlap; --chain runs the
                  commutator-chain identity table instead
synthesize-audit  frame construction and (alpha, beta) synthesis report
                  at sampled states

All defaults live in DEFAULT_CONFIG and are echoed into every report.
Outputs are byte-deterministic for a fixed config and seed.  Exit codes:
0 success, 2 config error, 3 numerical abort, 4 synthesis rank
deficiency under the abort policy.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys as _sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import (
    SIGMA_X, embed_product, field_quadrature, lie_closure, normalize, random_state
)
from .feedback import SYNTHESIS_MODES, FramePlan, RankDeficiencyError, build_frame, synthesize
from .models import SCENARIOS, ScenarioParams, bath_blocks, build_scenario, dfs_state, scenario_space
from .observation import ClosureTooLarge, _physical_memory_bytes
from .report import decouplability_table, format_table
from .simulate import (
    FEEDBACK_MODES,
    RANK_POLICIES,
    NormDriftError,
    PulseSchedule,
    cbh_order_check,
    decoupling_pair,
    effective_direction_overlap,
    hsb_generation_search,
    maneuver_schedule,
    propagate,
    verify_commutator_chain,
)
from .spans import RealSpan, _serial_blas, realify
from .tangent import control_field_matrix

DEFAULT_CONFIG = {
    "schema_version": 1,
    "scenario": "two_qubit",
    "params": {
        "omega0": 1.0,
        "omega_env": 1.0,
        "g": [0.1, 0.0],
        "w": None,
        "j1": 1.0,
        "j2": 1.0,
        "n_env": 3,
    },
    "tol": 1e-9,
    "seed": 0,
    "horizon": 10.0,
    "dt": 0.01,
    "feedback_mode": "open_loop",
    "rank_policy": "abort",
    "max_power": 5,
    "eval_states": 5,
    "rank_states": 100,
    "initial_state": "dfs",
    "schedule": None,
    "maneuver_t_list": [0.1, 0.05, 0.025, 0.0125],
    "maneuver_overlap_t": 1e-3,
}


class ConfigError(ValueError):
    pass


def _finite_number(val) -> bool:
    """A JSON number that is not a boolean, Infinity, NaN or an integer beyond float range."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    user = {}
    if path:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        for key, val in user.items():
            if key not in DEFAULT_CONFIG:
                raise ConfigError(f"unknown config key {key!r}")
            if key == "params" and isinstance(val, dict):
                unknown = sorted(set(val) - set(DEFAULT_CONFIG["params"]))
                if unknown:
                    raise ConfigError(f"unknown params key {unknown[0]!r}")
                cfg["params"].update(val)
            else:
                cfg[key] = val
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    if type(cfg["schema_version"]) is not int or cfg["schema_version"] != 1:
        raise ConfigError(f"schema_version must be the integer 1, got {cfg['schema_version']!r}")
    if cfg["scenario"] not in SCENARIOS:
        raise ConfigError(f"unknown scenario {cfg['scenario']!r}")
    seed = cfg["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    for key in ("tol", "horizon", "dt"):
        val = cfg[key]
        if not _finite_number(val):
            raise ConfigError(f"{key} must be a finite number, got {val!r}")
    if not 0 < cfg["tol"] <= 1e-3:
        raise ConfigError("tol must lie in (0, 1e-3]")
    if cfg["horizon"] <= 0:
        raise ConfigError("horizon must be positive")
    if cfg["schedule"] is not None:
        # a schedule fixes the run's length; horizon only echoes it
        total = sum(d for d, _ in _parse_schedule(cfg["schedule"]).segments)
        if not math.isfinite(total):
            raise ConfigError(f"the schedule's total duration overflows to {total!r}")
        if "horizon" not in user:
            cfg["horizon"] = total
        elif not math.isclose(cfg["horizon"], total, rel_tol=1e-12):
            raise ConfigError(
                f"horizon {cfg['horizon']!r} differs from the schedule's total duration {total!r}; "
                "leave horizon out or set it to that total"
            )
    if cfg["feedback_mode"] not in FEEDBACK_MODES:
        raise ConfigError(f"unknown feedback_mode {cfg['feedback_mode']!r}")
    if cfg["rank_policy"] not in RANK_POLICIES:
        raise ConfigError(f"unknown rank_policy {cfg['rank_policy']!r}")
    if cfg["dt"] <= 0:
        raise ConfigError("dt must be positive")
    # zero sampled states would turn the verdicts' all() into a vacuous pass
    for key, low in (("eval_states", 1), ("rank_states", 1), ("max_power", 0)):
        if isinstance(cfg[key], bool) or not isinstance(cfg[key], int) or cfg[key] < low:
            raise ConfigError(f"{key} must be an integer >= {low}")
    # the CBH slope fit needs four points; a duration of 0 or less has no logarithm
    t_list = cfg["maneuver_t_list"]
    if not isinstance(t_list, list) or len(t_list) < 4 or not all(_finite_number(t) and t > 0 for t in t_list):
        raise ConfigError(f"maneuver_t_list must hold at least 4 positive finite numbers, got {t_list!r}")
    if not (_finite_number(cfg["maneuver_overlap_t"]) and cfg["maneuver_overlap_t"] > 0):
        raise ConfigError(f"maneuver_overlap_t must be a positive finite number, got {cfg['maneuver_overlap_t']!r}")
    return cfg


def _param_complex(value, key: str) -> complex:
    """params.<key> as a complex number: a finite number or a [re, im] pair of them."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if not all(_finite_number(v) for v in parts):
        raise ConfigError(f"params.{key} must be a finite number or a [re, im] pair of them, got {value!r}")
    return complex(*parts)


def scenario_params(cfg: dict) -> ScenarioParams:
    p = cfg["params"]
    if not isinstance(p, dict):
        raise ConfigError(f"params must be a JSON object, got {p!r}")
    n_env = p["n_env"]
    if isinstance(n_env, bool) or not isinstance(n_env, int):
        raise ConfigError(f"params.n_env must be an integer, got {n_env!r}")
    g = _param_complex(p["g"], "g")
    w = None if p["w"] is None else _param_complex(p["w"], "w")
    for key in ("omega0", "omega_env", "j1", "j2"):
        if not _finite_number(p[key]):
            raise ConfigError(f"params.{key} must be a finite number, got {p[key]!r}")
    try:
        return ScenarioParams(
            omega0=float(p["omega0"]),
            omega_env=float(p["omega_env"]),
            g=g,
            w=w,
            j1=float(p["j1"]),
            j2=float(p["j2"]),
            n_env=n_env,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params: {exc}") from exc


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def write_report(out_dir: Path, payload: dict, name: str = "report.json") -> Path:
    return _write(out_dir, name, json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n")


def write_trace_csv(out_dir: Path, trace, name: str) -> Path:
    lines = (f"{t:.17g},{y.real:.17g},{y.imag:.17g},{abs(y):.17g},{d:.17g}\n"
             for t, y, d in zip(trace.times, trace.y_values, trace.norm_drifts))
    return _write(out_dir, name, "t,re_y,im_y,abs_y,norm_drift\n" + "".join(lines))


def write_audit_jsonl(out_dir: Path, rows: list, name: str) -> Path:
    return _write(out_dir, name, "".join(json.dumps(_sanitize(row), sort_keys=True) + "\n" for row in rows))


def initial_state(sys, cfg):
    kind = cfg["initial_state"]
    if kind == "dfs":
        if sys.scenario == "single_qubit":
            kind = "plus"
        else:
            return dfs_state(sys)
    if kind == "plus":
        amps = np.zeros(sys.space.total_dim, dtype=complex)
        tail = sys.space.total_dim // 2
        amps[0] = 1.0
        amps[tail] = 1.0
        return normalize(sys.space, amps)
    if kind == "random":
        rng = np.random.default_rng(cfg["seed"])
        return random_state(sys.space, rng)
    raise ConfigError(f"unknown initial_state {kind!r}")


def _parse_schedule(raw) -> PulseSchedule:
    try:
        segments = [(seg["duration"], seg["values"]) for seg in raw]
        for duration, values in segments:
            # PulseSchedule would coerce a string or a boolean through float()
            if not (_finite_number(duration) and all(map(_finite_number, values))):
                raise ValueError(f"a segment's duration and values must be finite numbers, got {duration!r}, {values!r}")
        return PulseSchedule(segments)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc


def schedule_from_config(sys, cfg) -> PulseSchedule:
    raw = cfg.get("schedule")
    if raw is None:
        return PulseSchedule.constant(cfg["horizon"], np.zeros(sys.n_controls))
    sched = _parse_schedule(raw)
    for _, vals in sched.segments:
        if vals.shape != (sys.n_controls,):
            raise ConfigError(f"bad schedule: a segment needs {sys.n_controls} control values, got {vals.shape}")
    return sched


# what a command holds besides the arrays its estimate counts: measured at
# 65-101 MiB for `check` at n_env 2-5, 58 MiB of it the interpreter with
# NumPy, SciPy and OpenBLAS loaded
_BASELINE_BYTES = 128 << 20


def _spectral_peak_bytes(n: int, k: int) -> int:
    """Bytes the spectral su(n) test holds for k generators of dimension n.

    The k traceless generators, their k unit multiples, the k combinations
    a bracket pairs with, and temporaries: 5k + 8 complex n x n matrices
    (tracemalloc reads 21 to 24 at k = 3 and 5, and 4.0k to 4.5k at k = 10,
    25 and 81).
    """
    return (5 * k + 8) * n * n * 16


def _check_peak_bytes(n_env: int, max_power: int) -> int:
    """Bytes `check` holds at its peak at this n_env and max_power.

    No array of C~'s size: a certified C~ holds no rows, and
    build_c_tilde refuses a fallback closure that cannot fit before it
    starts.  The bait row holds the most: the bait system (n = 8 n_env,
    10 generators) and the restructured one (n = 4 n_env, k = 4(max_power
    + 1) + 1 generators, its controls twice while it is built), and the
    spectral su(n) test of one of them.  ru_maxrss of `check` is 63.8,
    64.4, 65.4, 70.1 and 89.5 MiB at n_env 4, 5, 6, 10 and 20, and 117.5 MiB
    at n_env 20 with max_power 19.
    """
    n_bait, n_restructured = (scenario_space(name, n_env).total_dim for name in ("bait", "restructured"))
    k = 4 * (max_power + 1) + 1
    systems = _system_peak_bytes(n_bait) + _system_peak_bytes(n_restructured) + 2 * k * n_restructured**2 * 16
    spectral = max(_spectral_peak_bytes(n_bait, 10), _spectral_peak_bytes(n_restructured, k))
    return _BASELINE_BYTES + systems + spectral


def _system_peak_bytes(n: int) -> int:
    """Bytes a scenario system of dimension n peaks at while it is built.

    tracemalloc shows 13 to 25 complex n x n matrices at n_env 3-5, the bait
    system the most: built, it holds 12 (the drift and its nine controls
    once, in generator_stack, the interaction and the output); while it is
    built, the list of control generators the stack is copied from and
    embed_product's products and sums add the rest.  The restructured
    system's controls beyond the first four are the max_power estimate's.
    """
    return 36 * n * n * 16


def _plan_peak_bytes(n: int) -> int:
    """Bytes a command holds at its peak with the system of dimension n and its FramePlan.

    commutant_basis dominates.  Its worst case is A_I = 0 (g = 0), where the
    commutant is all of u(n): it then holds two n^2 x n^2 complex arrays,
    the stack and the conjugate transpose Y - Y† subtracts.  ru_maxrss of
    `synthesize-audit --scenario bait` at g = 0 is 60 MiB + 2.0 x 16 n^4
    bytes (93.2 and 139.4 MiB at n_env 4 and 5).
    """
    return _BASELINE_BYTES + _system_peak_bytes(n) + 2 * 16 * n**4


def _chain_peak_bytes(n: int) -> int:
    """Bytes `maneuver --chain` holds at its peak for the bait system of dimension n.

    The bait system, and hsb_generation_search's two phases: phase 1's
    k^2(k - 1) triple brackets (648 complex n x n matrices for the k = 9
    controls), and phase 2's candidates, the largest frontier of kept
    words times k.  Each candidate is held as a matrix and its unit
    multiple, and as half-size real rows (its code, its residual, its new
    direction): 3.5 matrices, counted as 4 to cover the kept words' codes
    and basis (at most 8n half-size rows each).  Every kept word lies in
    the control algebra, which is block-diagonal in the eigenbasis of F_w
    (n_env blocks of u(8)), so a frontier holds at most 64 n_env = 8n
    words.  tracemalloc reads the
    search's peak at 992, 1286, 1560 and 1676 matrices (3.9, 11.3, 24.4 and
    40.9 MiB) at n_env 2-5, where the largest frontier is 25, 37, 49 and 56
    words.
    """
    k = 9
    return _BASELINE_BYTES + _system_peak_bytes(n) + (k * k * (k - 1) + 4 * k * 8 * n) * n * n * 16


def _rank_peak_bytes(name: str, n_env: int, max_power: int) -> int:
    """Bytes `rank` holds at its peak: its system, and k n x n matrices per dimension of its control algebra.

    Each control is a qubit operator times a function of the bath
    quadrature, so the k controls' algebra has n_env blocks of u(q), q =
    n / n_env: at most q n dimensions (q^2 for single_qubit, whose controls
    leave the bath alone).  The closure holds the peak: tracemalloc reads
    the command's peak at 0.51 to 0.65 of k q n matrices for bait (k = 9)
    at n_env 2-6, with the per-state data read off the bath blocks or by
    the span loop alike, and 0.36 to 0.75 for restructured (k = 24) at
    n_env 3-12, at the default 100 rank states.  A 7.8 GiB host refuses
    bait from n_env 24 on.
    """
    n = scenario_space(name, n_env).total_dim
    q = n // n_env
    if name == "single_qubit":
        k, dim = 2, q * q
    else:
        k, dim = (9 if name == "bait" else 4 * (max_power + 1)), q * n
    return _BASELINE_BYTES + _system_peak_bytes(n) + k * dim * n * n * 16


def _refuse_beyond_memory(need: int, key: str, value, what: str) -> None:
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise ConfigError(
            f"{key}={value} needs about {need / 2**30:.1f} GiB for {what}, "
            f"more than the {have / 2**30:.1f} GiB of physical memory; lower {key}"
        )


def _refuse_oversized_restructured(cfg: dict, params: ScenarioParams) -> None:
    """4(max_power + 1) = k complex n x n controls, twice while built (2k + 8 matrices at n_env 20, k = 80)."""
    n = scenario_space("restructured", params.n_env).total_dim
    need = 2 * 4 * (cfg["max_power"] + 1) * n * n * 16
    _refuse_beyond_memory(need, "max_power", cfg["max_power"], "the restructured system's control matrices")


def build_system(cfg: dict, name: str, params: ScenarioParams, peak=_system_peak_bytes, what: str | None = None):
    """build_scenario, after the only refusals a command makes before it builds.

    First the restructured controls, on max_power; then, on n_env, peak(n),
    the bytes the command holds at its peak with the system of dimension n
    (by default the system alone), named in the message by what.
    """
    if name == "restructured":
        _refuse_oversized_restructured(cfg, params)
    n = scenario_space(name, params.n_env).total_dim
    _refuse_beyond_memory(peak(n), "n_env", params.n_env, what or f"the {name} system's matrices")
    return build_scenario(name, params, cfg["max_power"])


def _refuse_zero_interaction(params: ScenarioParams) -> None:
    if params.g == 0:                      # check, rank and maneuver --chain ask about A_I
        raise ConfigError("g = 0 switches the interaction off: there is nothing to decouple from")


def cmd_check(cfg: dict, out_dir: Path) -> int:
    params = scenario_params(cfg)
    _refuse_zero_interaction(params)
    # refuse before building anything: the bait row's systems and their
    # spectral su(n) tests are the largest arrays `check` holds
    _refuse_oversized_restructured(cfg, params)
    _refuse_beyond_memory(
        _check_peak_bytes(params.n_env, cfg["max_power"]), "n_env", params.n_env,
        "the bait and restructured systems and their spectral su(n) tests",
    )
    try:
        report = decouplability_table(
            params,
            tol=cfg["tol"],
            eval_states=cfg["eval_states"],
            seed=cfg["seed"],
            max_power=cfg["max_power"],
        )
    except ClosureTooLarge as exc:
        raise ConfigError(f"n_env={params.n_env}: {exc}; lower n_env") from exc
    payload = {"command": "check", "config": cfg, "version": __version__, **report}
    write_report(out_dir, payload)
    table = format_table(report)
    (out_dir / "table.txt").write_text(table)
    print(table, end="")
    return 0


def cmd_simulate(cfg: dict, out_dir: Path, audit: bool) -> int:
    params = scenario_params(cfg)
    mode = cfg["feedback_mode"]
    if mode in SYNTHESIS_MODES:
        sys_ = build_system(cfg, cfg["scenario"], params, _plan_peak_bytes, "the feedback frame plan's commutant basis")
    else:
        sys_ = build_system(cfg, cfg["scenario"], params)
    xi0 = initial_state(sys_, cfg)
    sched = schedule_from_config(sys_, cfg)
    if mode in SYNTHESIS_MODES:
        k_i = sys_.interaction.matrix @ xi0.amplitudes
        if np.linalg.norm(k_i) <= sys_.interaction_floor(cfg["tol"]):
            raise ConfigError(
                f"initial_state {cfg['initial_state']!r} is a state where the interaction field "
                f"K_I vanishes, so feedback_mode {mode!r} has no frame to build there; "
                "choose another initial_state (for example 'random')"
            )
    payload = {"command": "simulate", "config": cfg, "version": __version__, "scenario": cfg["scenario"]}
    if mode == "open_loop":
        trace = propagate(sys_, sched, xi0, dt_max=cfg["dt"])
        write_trace_csv(out_dir, trace, "trace.csv")
        payload["trace"] = {"samples": len(trace.times), "norm_drift": trace.norm_drift,
                            "final_abs_y": float(abs(trace.y_values[-1]))}
    else:
        trace_g, trace_0, dev = decoupling_pair(
            sys_, sched, xi0, dt=cfg["dt"], mode=mode, policy=cfg["rank_policy"],
            collect_audit=audit, tol=cfg["tol"],
        )
        write_trace_csv(out_dir, trace_g, "trace_g.csv")
        write_trace_csv(out_dir, trace_0, "trace_g0.csv")
        if audit:
            write_audit_jsonl(out_dir, trace_g.audit, "audit_g.jsonl")
            write_audit_jsonl(out_dir, trace_0.audit, "audit_g0.jsonl")
        payload["paired"] = {
            "max_abs_y_deviation": dev,
            "norm_drift_g": trace_g.norm_drift,
            "norm_drift_g0": trace_0.norm_drift,
            "mode": mode,
        }
        print(f"paired max |y_g - y_0| = {dev:.3e}")
    write_report(out_dir, payload)
    return 0


def _algebra_membership(sys_, algebra: np.ndarray, states: np.ndarray, k_is: np.ndarray,
                        tol: float) -> tuple[str, list[int], list[float]]:
    """The method, and per state the real rank of algebra @ xi and K_I xi's relative residual in it.

    states and k_is hold one xi and one K_I xi per row.  "bath blocks":
    bath_blocks finds the controls block-diagonal with traceless q x q
    blocks in I_q (x) V, so their algebra L lies in the direct sum of n_env
    copies of su(q), and L's dimension n_env (q^2 - 1) makes L that whole
    sum.  For x_b != 0, su(q) x_b is the real hyperplane Re<x_b, .> = 0 of
    C^q.  So with x = xi and w = K_I xi in V's basis, the rank is 2q - 1 per
    block with |x_b| > tol, and the residual is the square root of the sum
    of Re<x_b, w_b>^2 / |x_b|^2 over those blocks and of |w_b|^2 over the
    others, over |w|.  "closure": any other system runs one RealSpan of L's
    images per state.
    """
    bath = bath_blocks(sys_, tol)
    if bath is None or len(algebra) != bath[1].shape[1] * (bath[1].shape[2] ** 2 - 1):
        ranks, residuals = [], []
        for xi, k_i in zip(states, k_is):
            span = RealSpan(2 * len(xi), tol=tol)
            span.add_batch(realify(algebra @ xi))
            ranks.append(span.rank)
            residuals.append(span.residual(realify(k_i)))
        return "closure", ranks, residuals
    v, blocks = bath
    _, n_env, q, _ = blocks.shape
    x = states.reshape(-1, q, n_env) @ v.conj()            # (states, q, n_env): column b is x_b
    w = k_is.reshape(-1, q, n_env) @ v.conj()
    x2 = (x.conj() * x).real.sum(axis=1)
    live = np.sqrt(x2) > tol
    along2 = (x.conj() * w).real.sum(axis=1) ** 2 / np.where(live, x2, 1.0)
    out2 = np.where(live, along2, (w.conj() * w).real.sum(axis=1)).sum(axis=1)
    w_norm = np.linalg.norm(k_is, axis=1)
    residuals = np.divide(np.sqrt(out2), w_norm, out=np.zeros_like(w_norm), where=w_norm > 0.0)
    return "bath blocks", ((2 * q - 1) * live.sum(axis=1)).tolist(), residuals.tolist()


def cmd_rank(cfg: dict, out_dir: Path) -> int:
    """Control-field and control-algebra ranks, and K_I's membership in each, at rank_states random states.

    The control algebra's lie_closure runs on every system.  Its dimension
    is the certificate that lets _algebra_membership read the per-state
    data off the bath blocks, and it is control_algebra_dim.  Dropping it
    for bait needs a certificate from the blocks alone: a spectral su(q)
    test per block, and a test that no two blocks are equivalent.
    """
    params = scenario_params(cfg)
    _refuse_zero_interaction(params)
    name = cfg["scenario"] if cfg["scenario"] != "two_qubit" else "restructured"
    sys_ = build_system(cfg, name, params, lambda n: _rank_peak_bytes(name, params.n_env, cfg["max_power"]),
                        "the control algebra's closure")
    rng = np.random.default_rng(cfg["seed"])
    tol = cfg["tol"]
    n = sys_.space.total_dim
    algebra = lie_closure(sys_.control_stack, tol=tol)
    field_ranks, res_fields, states, k_is = [], [], [], []
    # at one BLAS thread, like the closure, also for bath_blocks' products:
    # at two, NumPy's and SciPy's thread pools compete for the cores after
    # it (spans module docstring)
    with _serial_blas():
        for _ in range(cfg["rank_states"]):
            xi = random_state(sys_.space, rng)
            span = RealSpan(2 * n, tol=tol)
            span.add_batch(control_field_matrix(sys_, xi))
            field_ranks.append(span.rank)
            k_i = sys_.interaction.matrix @ xi.amplitudes
            res_fields.append(span.residual(realify(k_i)))
            states.append(xi.amplitudes)
            k_is.append(k_i)
        method, algebra_ranks, res_algebra = _algebra_membership(sys_, algebra, np.array(states), np.array(k_is), tol)
    payload = {
        "command": "rank",
        "config": cfg,
        "version": __version__,
        "scenario": name,
        "n_controls": sys_.n_controls,
        "control_field_rank_histogram": dict(Counter(map(str, field_ranks))),
        "interaction_membership_in_fields": {
            "below_tol_fraction": float(np.mean([r < tol for r in res_fields])),
            "median_residual": float(np.median(res_fields)),
        },
        "control_algebra_dim": len(algebra),
        "control_algebra_method": method,
        "control_algebra_rank_histogram": dict(Counter(map(str, algebra_ranks))),
        "interaction_membership_in_algebra": {
            "below_tol_fraction": float(np.mean([r < tol for r in res_algebra])),
            "median_residual": float(np.median(res_algebra)),
        },
    }
    write_report(out_dir, payload)
    frac = payload["interaction_membership_in_algebra"]["below_tol_fraction"]
    print(f"control-field ranks: {payload['control_field_rank_histogram']}; "
          f"K_I in control algebra at {frac} of states")
    return 0


def cmd_maneuver(cfg: dict, out_dir: Path, i: int | None, j: int | None, chain: bool) -> int:
    params = scenario_params(cfg)
    name = cfg["scenario"] if cfg["scenario"] in ("bait", "restructured") else "bait"
    if chain:
        if name != "bait":
            raise ConfigError(f"maneuver --chain needs the bait system; scenario {name!r} has no bait")
        _refuse_zero_interaction(params)
        sys_ = build_system(cfg, name, params, _chain_peak_bytes, "the chain search's bracket words")
    else:
        sys_ = build_system(cfg, name, params)
    payload = {"command": "maneuver", "config": cfg, "version": __version__, "scenario": name}
    if chain:
        payload["chain"] = verify_commutator_chain(sys_)
        payload["hsb_generation"] = hsb_generation_search(sys_, tol=cfg["tol"])
        write_report(out_dir, payload)
        for key, row in payload["chain"].items():
            residual = "n/a" if row["residual"] is None else f"{row['residual']:.2e}"
            print(f"{key}: c={row['c']:+.4f} residual={residual}"
                  + (f" bait-identity dev={row['bait_identity_deviation']:.2e}"
                     if "bait_identity_deviation" in row else ""))
        return 0
    if i is None or j is None:
        raise ConfigError("maneuver needs --i and --j control indices (1-based) or --chain")
    if not (1 <= i <= sys_.n_controls and 1 <= j <= sys_.n_controls):
        raise ConfigError(f"control indices must lie in 1..{sys_.n_controls}")
    a, b = sys_.controls[i - 1], sys_.controls[j - 1]
    sched = maneuver_schedule(sys_.n_controls, i - 1, j - 1, cfg["maneuver_t_list"][0])
    rep = cbh_order_check(a, b, cfg["maneuver_t_list"])
    payload["maneuver"] = {
        "i": i,
        "j": j,
        "segments": [
            {"duration": d, "values": v.tolist()} for d, v in sched.segments
        ],
        "residuals": rep.residuals,
        "slope": rep.slope,
        "exact": rep.exact,
    }
    if name == "bait" and {i, j} == {6, 9}:
        f_w = field_quadrature(params.w, params.n_env).matrix
        target = embed_product(sys_.space, {"bait": SIGMA_X, "env": f_w}).skew()
        payload["maneuver"]["direction_overlap"] = effective_direction_overlap(
            a, b, target, cfg["maneuver_overlap_t"]
        )
        payload["maneuver"]["direction_label"] = "sigma_x(bait) x (w b† + w* b)"
    write_report(out_dir, payload)
    slope = "exact" if rep.exact else f"{rep.slope:.3f}"
    print(f"maneuver ({i},{j}): slope {slope}"
          + (f", overlap {payload['maneuver'].get('direction_overlap'):.6f}"
             if "direction_overlap" in payload["maneuver"] else ""))
    return 0


def cmd_synthesize_audit(cfg: dict, out_dir: Path) -> int:
    params = scenario_params(cfg)
    sys_ = build_system(cfg, cfg["scenario"], params, _plan_peak_bytes, "the feedback frame plan's commutant basis")
    rng = np.random.default_rng(cfg["seed"])
    plan = FramePlan.build(sys_, tol=cfg["tol"])
    rows = []
    for k in range(cfg["eval_states"]):
        xi = random_state(sys_.space, rng)
        try:
            res = build_frame(sys_, xi, plan=plan)
        except ValueError as exc:
            rows.append({"state": k, "error": str(exc)})
            continue
        row = {"state": k, "ok": res.ok, **res.report}
        if res.ok:
            mode = cfg["feedback_mode"] if cfg["feedback_mode"] in SYNTHESIS_MODES else "literal"
            law = synthesize(sys_, res.frame, mode=mode, tol=plan.tol)
            row.update(cond_d=law.details["cond_d"], **law.audit_fields())
        rows.append(row)
    payload = {"command": "synthesize-audit", "config": cfg, "version": __version__, "states": rows}
    write_report(out_dir, payload)
    write_audit_jsonl(out_dir, rows, "audit_synthesis.jsonl")
    ok = sum(1 for r in rows if r.get("ok"))
    print(f"synthesis succeeded at {ok}/{len(rows)} sampled states")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdecouple",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Config defaults:\n" + json.dumps(DEFAULT_CONFIG, indent=2, sort_keys=True),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "simulate", "rank", "maneuver", "synthesize-audit"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file (defaults otherwise)")
        sp.add_argument("--out", default="out", help="output directory (default: ./out)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        # each subcommand takes only the overrides it reads
        if name == "simulate":
            sp.add_argument("--audit", action="store_true", help="write per-step JSON audit rows")
        if name in ("simulate", "synthesize-audit"):
            sp.add_argument(
                "--feedback-mode",
                choices=FEEDBACK_MODES,
                default=None,
            )
        if name != "check":
            sp.add_argument("--scenario", choices=SCENARIOS, default=None)
        if name == "maneuver":
            sp.add_argument("--i", type=int, default=None, help="first control index (1-based)")
            sp.add_argument("--j", type=int, default=None, help="second control index (1-based)")
            sp.add_argument("--chain", action="store_true", help="run the commutator-chain table")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {
            "seed": args.seed,
            "feedback_mode": getattr(args, "feedback_mode", None),
            "scenario": getattr(args, "scenario", None),
        }
        cfg = load_config(args.config, overrides)
        out_dir = Path(args.out)
        if args.command == "check":
            return cmd_check(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, args.audit)
        if args.command == "rank":
            return cmd_rank(cfg, out_dir)
        if args.command == "maneuver":
            return cmd_maneuver(cfg, out_dir, args.i, args.j, args.chain)
        if args.command == "synthesize-audit":
            return cmd_synthesize_audit(cfg, out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except NormDriftError as exc:
        print(f"numerical abort: {exc}", file=_sys.stderr)
        return 3
    except RankDeficiencyError as exc:
        out_dir = Path(args.out)
        write_report(out_dir, {
            "command": args.command,
            "error": "rank_deficiency",
            "report": exc.report,
        }, name="report.json")
        print(f"synthesis rank deficiency: {exc}", file=_sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
