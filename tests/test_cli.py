import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qdecouple.cli
import qdecouple.feedback
import qdecouple.models
import qdecouple.observation
from qdecouple.algebra import lie_closure, random_state
from qdecouple.cli import (_algebra_membership, _chain_peak_bytes, _check_peak_bytes, _physical_memory_bytes,
                           _plan_peak_bytes, _rank_peak_bytes, main)
from qdecouple.models import ScenarioParams, build_bait
from qdecouple.feedback import commutant_basis
from qdecouple.spans import _openblas_libraries, close_real_span


def run_cli(args):
    return main(list(args))


def test_check_writes_table_and_report(tmp_path, capsys):
    code = run_cli(["check", "--out", str(tmp_path)])
    assert code == 0
    table = (tmp_path / "table.txt").read_text()
    assert "single_qubit" in table and "YES*" in table
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["command"] == "check"
    assert report["config"]["seed"] == 0          # defaults echoed for provenance
    methods = {row["scenario"]: row["c_tilde_method"] for row in report["rows"]}
    assert methods == {"single_qubit": "closure", "two_qubit": "closure", "bait": "sl(n) certificate"}
    assert report["rows"][2]["closed_loop_restructured"]["c_tilde_method"] == "sl(n) certificate"


def test_check_byte_identical_reruns(tmp_path):
    run_cli(["check", "--out", str(tmp_path / "a")])
    run_cli(["check", "--out", str(tmp_path / "b")])
    assert (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()
    assert (tmp_path / "a/table.txt").read_bytes() == (tmp_path / "b/table.txt").read_bytes()


def test_simulate_open_loop_csv_format(tmp_path):
    cfg = {
        "scenario": "two_qubit",
        "horizon": 1.0,
        "schedule": [{"duration": 1.0, "values": [1, 0, 0, 0]}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out/trace.csv").read_text().splitlines()
    assert lines[0] == "t,re_y,im_y,abs_y,norm_drift"
    cells = lines[1].split(",")
    assert len(cells) == 5
    assert "." in cells[1] or cells[1] == "0"      # plain decimal, no locale


def test_schedule_sets_the_echoed_horizon(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    segments = [{"duration": 0.1, "values": [1, 0, 0, 0]}, {"duration": 0.2, "values": [0, 1, 0, 0]}]
    # no horizon: the report echoes the schedule's total
    cfg_path.write_text(json.dumps({"schedule": segments}))
    assert run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    report = json.loads((tmp_path / "a/report.json").read_text())
    assert report["config"]["horizon"] == 0.1 + 0.2
    # a horizon equal to the total up to rounding is accepted and echoed as given
    cfg_path.write_text(json.dumps({"horizon": 0.3, "schedule": segments}))
    assert run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    assert json.loads((tmp_path / "b/report.json").read_text())["config"]["horizon"] == 0.3
    # any other horizon is a config error that names both keys
    cfg_path.write_text(json.dumps({"horizon": 1.0, "schedule": segments}))
    capsys.readouterr()
    assert run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "horizon" in err and "schedule" in err


def test_simulate_paired_feedback_outputs(tmp_path, commutant_toy):
    # the oracle mode runs through the CLI on a benchmark scenario
    cfg = {"scenario": "two_qubit", "horizon": 0.5, "initial_state": "random",
           "schedule": [{"duration": 0.5, "values": [1, 0, 0, 0]}]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli([
        "simulate", "--config", str(cfg_path), "--feedback-mode", "oracle_cancel",
        "--out", str(tmp_path / "out"), "--audit",
    ])
    assert code == 0
    report = json.loads((tmp_path / "out/report.json").read_text())
    assert report["paired"]["max_abs_y_deviation"] < 1e-10
    assert (tmp_path / "out/trace_g.csv").exists()
    assert (tmp_path / "out/trace_g0.csv").exists()


def test_simulate_rank_deficiency_exit_code_4(tmp_path):
    cfg = {"scenario": "restructured", "horizon": 0.5, "initial_state": "random"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli([
        "simulate", "--config", str(cfg_path), "--feedback-mode", "literal",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 4
    report = json.loads((tmp_path / "out/report.json").read_text())
    assert report["error"] == "rank_deficiency"
    assert report["report"]["required_rank"] == 24
    assert report["report"]["control_field_rank"] == 12


@pytest.mark.parametrize("scenario", ["bait", "restructured"])
def test_simulate_refuses_feedback_where_interaction_vanishes(tmp_path, capsys, scenario):
    # the default initial_state "dfs" is annihilated by A_I: no frame exists there
    out = tmp_path / "out"
    code = run_cli(["simulate", "--scenario", scenario, "--feedback-mode", "literal", "--out", str(out)])
    assert code == 2
    assert "initial_state 'dfs'" in capsys.readouterr().err
    assert not out.exists()                        # refused before any propagation


def test_check_refuses_n_env_beyond_physical_memory(tmp_path, capsys):
    # the bait C~ basis at n_env 400 (n = 3200) would need petabytes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"n_env": 400}}))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = run_cli(["check", "--config", str(cfg), "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "n_env=400" in capsys.readouterr().err
    assert peak < 1 << 20                          # refused before any system was built
    assert not out.exists()


@pytest.mark.parametrize("n_env,rss_mib", [(4, 68.9), (5, 72.5), (6, 77.0), (10, 101.8), (20, 95.5)])
def test_check_memory_estimate_covers_the_measured_peak(n_env, rss_mib):
    # at least the ru_maxrss of `qdecouple check` at these n_env (bait n =
    # 8 n_env) and the default max_power 5, one process each, NumPy 2.4 with
    # OpenBLAS on x86-64 Linux: 63.2, 63.8, 65.2, 71.0 and 95.5 MiB
    assert _check_peak_bytes(n_env, 5) >= rss_mib * 2**20


def test_check_memory_estimate_covers_the_measured_peak_at_max_power_19():
    # ru_maxrss of `qdecouple check` at n_env 20 with max_power 19 (k = 81
    # restructured generators), measured as above
    assert _check_peak_bytes(20, 19) >= 135.5 * 2**20


def test_check_refuses_a_closure_beyond_physical_memory(tmp_path, capsys, monkeypatch):
    # were the sl(n) certificate to refuse the bait system at n_env 20
    # (n = 160), its closure could reach 2n^2 real dimensions: about 1 TiB
    # by the closure's bound.  The single- and two-qubit closures, bounded
    # by their tensor structure, still run; the bait closure never starts.
    seeds = []

    def spy(seed, *args, **kwargs):
        seeds.append(seed.shape)
        return close_real_span(seed, *args, **kwargs)

    monkeypatch.setattr(qdecouple.observation, "_generates_su", lambda generators, tol: False)
    monkeypatch.setattr(qdecouple.observation, "close_real_span", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"n_env": 20}, "eval_states": 1}))
    out = tmp_path / "out"
    code = run_cli(["check", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "n_env=20" in err and "bait C~ closure" in err
    assert seeds == [(1, 40 * 40), (1, 80 * 80)]           # single_qubit, two_qubit
    assert not out.exists()


@pytest.mark.parametrize("n_env,rss_mib", [(4, 93.2), (5, 139.4)])
def test_frame_plan_memory_estimate_covers_the_measured_peak(n_env, rss_mib):
    # ru_maxrss of `qdecouple synthesize-audit --scenario bait` at g = 0 with
    # one sampled state at these n_env (n = 8 n_env), one process each, NumPy
    # 2.4 with OpenBLAS on x86-64 Linux; FramePlan.build's commutant basis is
    # the peak, and at g = 0 it is all of u(n), n^2 elements
    assert _plan_peak_bytes(8 * n_env) >= rss_mib * 2**20


def test_synthesize_audit_without_interaction_builds_the_full_commutant(tmp_path, monkeypatch):
    # g = 0 makes A_I = 0: the plan's commutant is all of u(24), the worst
    # case the plan estimate is measured on, and K_I vanishes at every state
    dims = []

    def spy(a_i, tol):
        basis = commutant_basis(a_i, tol)
        dims.append(len(basis))
        return basis

    monkeypatch.setattr(qdecouple.feedback, "commutant_basis", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"g": 0}}))
    out = tmp_path / "out"
    assert run_cli(["synthesize-audit", "--scenario", "bait", "--config", str(cfg), "--out", str(out)]) == 0
    assert dims == [24 * 24]
    states = json.loads((out / "report.json").read_text())["states"]
    assert [set(row) for row in states] == [{"state", "error"}] * 5


def _run_refused(tmp_path, monkeypatch, command, config):
    """Run a command that must be refused; the exit code, whether out/ exists and the tracemalloc peak."""
    assert _physical_memory_bytes() is not None           # without it the guard cannot refuse

    def tripwire(*args, **kwargs):
        raise AssertionError("a system was built before the memory guard refused")

    monkeypatch.setattr(qdecouple.models, "embed_product", tripwire)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = run_cli([*command, "--config", str(cfg), "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, out.exists(), peak


@pytest.mark.parametrize("command", [
    ["check"], ["simulate"], ["rank"], ["maneuver", "--i", "1", "--j", "2"], ["synthesize-audit"],
])
def test_max_power_beyond_physical_memory_is_refused(tmp_path, capsys, monkeypatch, command):
    # 4 * 10^12 controls of 12 x 12 complex entries would need petabytes
    code, wrote, peak = _run_refused(tmp_path, monkeypatch, command, {"scenario": "restructured", "max_power": 10**12})
    assert code == 2
    assert "max_power=1000000000000" in capsys.readouterr().err
    assert peak < 1 << 20                          # refused before the system was built
    assert not wrote


@pytest.mark.parametrize("command,n_env,refused", [
    # the bait system at n_env 10000 (n = 80000) would need terabytes
    *((command, 10000, "n_env=10000") for command in
      (["simulate"], ["rank"], ["maneuver", "--chain"], ["synthesize-audit"])),
    # at n_env 200 the bait system (n = 1600) needs about 1.4 GiB, the
    # frame plan's commutant basis (n^4 complex entries) hundreds of terabytes
    (["simulate", "--feedback-mode", "literal"], 200, "commutant basis"),
    (["synthesize-audit"], 200, "commutant basis"),
])
def test_n_env_beyond_physical_memory_is_refused(tmp_path, capsys, monkeypatch, command, n_env, refused):
    code, wrote, peak = _run_refused(tmp_path, monkeypatch, command, {"scenario": "bait", "params": {"n_env": n_env}})
    assert code == 2
    assert refused in capsys.readouterr().err
    assert peak < 1 << 20                          # refused before the system was built
    assert not wrote


def test_chain_beyond_physical_memory_is_refused(tmp_path, capsys, monkeypatch):
    # a host with one byte less than the search's estimate at the default
    # n_env 3 (n = 24) holds the bait system but not the bracket words
    monkeypatch.setattr(qdecouple.cli, "_physical_memory_bytes", lambda: _chain_peak_bytes(24) - 1)
    code, wrote, _ = _run_refused(tmp_path, monkeypatch, ["maneuver", "--chain"], {})
    assert code == 2
    err = capsys.readouterr().err
    assert "n_env=3" in err and "bracket words" in err
    assert not wrote


@pytest.mark.parametrize("n_env", [2, 3])
def test_chain_memory_estimate_covers_the_measured_peak(n_env):
    # tracemalloc peak of building the bait system and searching its bracket
    # words; _BASELINE_BYTES covers the interpreter and its libraries
    tracemalloc.start()
    try:
        sys_ = qdecouple.build_scenario("bait", qdecouple.ScenarioParams(n_env=n_env))
        qdecouple.hsb_generation_search(sys_)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _chain_peak_bytes(8 * n_env) - qdecouple.cli._BASELINE_BYTES >= peak


def test_rank_beyond_physical_memory_is_refused(tmp_path, capsys, monkeypatch):
    # a host with one byte less than the estimate at the default n_env 3
    # (n = 24) holds the bait system but not its control algebra's closure
    monkeypatch.setattr(qdecouple.cli, "_physical_memory_bytes", lambda: _rank_peak_bytes("bait", 3, 5) - 1)
    code, wrote, _ = _run_refused(tmp_path, monkeypatch, ["rank", "--scenario", "bait"], {})
    assert code == 2
    err = capsys.readouterr().err
    assert "n_env=3" in err and "control algebra's closure" in err
    assert not wrote


@pytest.mark.parametrize("n_env", [2, 3, 4])
def test_rank_memory_estimate_covers_the_measured_peak(tmp_path, n_env):
    # tracemalloc peak of the whole `rank` command on bait (its system, the
    # control algebra's closure and five sampled states); _BASELINE_BYTES
    # covers the interpreter and its libraries
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"n_env": n_env}, "rank_states": 5}))
    tracemalloc.start()
    try:
        code = run_cli(["rank", "--scenario", "bait", "--config", str(cfg), "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert _rank_peak_bytes("bait", n_env, 5) - qdecouple.cli._BASELINE_BYTES >= peak


@pytest.mark.parametrize("scenario", ["bait", "restructured"])
def test_each_command_evaluates_one_refusal_per_key(tmp_path, monkeypatch, scenario):
    # build_system refuses max_power, then the command's whole peak on n_env;
    # a hand refusal besides would evaluate a key twice
    keys = []
    refuse = qdecouple.cli._refuse_beyond_memory

    def spy(need, key, *args):
        keys.append(key)
        refuse(need, key, *args)

    monkeypatch.setattr(qdecouple.cli, "_refuse_beyond_memory", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario, "params": {"n_env": 2}, "max_power": 1, "eval_states": 1,
                               "rank_states": 1, "horizon": 0.1, "initial_state": "random"}))
    commands = [["check"], ["simulate"], ["simulate", "--feedback-mode", "literal"], ["rank"],
                ["maneuver", "--i", "1", "--j", "2"], ["synthesize-audit"]]
    if scenario == "bait":
        commands.append(["maneuver", "--chain"])
    for command in commands:
        keys.clear()
        assert run_cli([*command, "--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 4), command
        expected = {"n_env"} if scenario == "bait" and command != ["check"] else {"max_power", "n_env"}
        assert sorted(keys) == sorted(expected), (command, keys)


def test_chain_refuses_a_scenario_without_bait(tmp_path, capsys):
    # used to die with a ValueError traceback and exit 1
    out = tmp_path / "out"
    assert run_cli(["maneuver", "--chain", "--scenario", "restructured", "--out", str(out)]) == 2
    assert "has no bait" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("params", [{"j1": 0}, {"w": 0}])
def test_zero_control_runs_rank_and_chain(tmp_path, params):
    # j1 = 0 zeroes the H_7 Ising control, w = 0 the H_9 bait-bath control
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params, "rank_states": 3}))
    assert run_cli(["rank", "--scenario", "bait", "--config", str(cfg), "--out", str(tmp_path / "rank")]) == 0
    assert run_cli(["maneuver", "--chain", "--config", str(cfg), "--out", str(tmp_path / "chain")]) == 0

    def refuse(constant):
        raise ValueError(f"report.json holds {constant}")

    report = json.loads((tmp_path / "chain/report.json").read_text(), parse_constant=refuse)
    residuals = [row["residual"] for row in report["chain"].values()]
    if "w" in params:
        assert None in residuals                   # a zero target has no direction to fit
    else:
        # the brackets through H_7 vanish, and a vanished bracket is no fit
        assert [key for key, row in report["chain"].items() if row["residual"] is None] == ["comm5", "comm6"]


def test_config_error_exit_code_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "nope"}))
    assert run_cli(["check", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_text("{not json")
    assert run_cli(["check", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_text(json.dumps({"tol": 1.0}))
    assert run_cli(["check", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert run_cli(["check", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    # each of these used to crash with a traceback or flip a verdict
    for command, cfg in (
        ("check", {"eval_states": 0}),
        ("rank", {"rank_states": 0}),
        ("check", {"max_power": -1}),
        ("simulate", {"dt": 0}),
        ("simulate", {"rank_policy": "bogus", "feedback_mode": "literal"}),
        ("check", {"tol": "x"}),
        ("check", {"horizon": None}),
        ("simulate", {"dt": True}),
        ("check", {"tol": False}),
        ("simulate", {"horizon": "10"}),
        ("simulate", {"horizon": float("nan")}),
        ("check", {"params": {"g": 0}}),
        ("check", {"scenario": "all"}),
        ("check", {"maneuver_t_list": [0.1, 0.05, 0.025]}),
        ("check", {"maneuver_t_list": [0.1, 0.05, 0.025, 0.0]}),
        ("check", {"maneuver_t_list": [0.1, 0.05, 0.025, -0.0125]}),
        ("check", {"maneuver_overlap_t": 0.0}),
        ("simulate", {"schedule": [{"duration": -1.0, "values": [0, 0, 0, 0]}]}),
        ("simulate", {"schedule": [{"duration": float("inf"), "values": [0, 0, 0, 0]}]}),
        ("simulate", {"schedule": [{"duration": float("nan"), "values": [0, 0, 0, 0]}]}),
        ("simulate", {"schedule": [{"duration": 1.0, "values": [float("nan"), 0, 0, 0]}]}),
        ("check", {"params": {"nenv": 4}}),
        ("check", {"horizn": 10.0}),
        ("simulate", {"horizon": 10**400}),
        ("simulate", {"horizon": 1.0, "schedule": [{"duration": 5.0, "values": [0, 0, 0, 0]}]}),
        ("simulate", {"schedule": []}),
        ("check", {"seed": "x"}),
        ("rank", {"seed": 1.5}),
        ("check", {"seed": -1}),
        ("check", {"params": {"g": float("nan")}}),
        ("rank", {"params": {"g": float("inf")}}),
        ("check", {"params": {"g": [0.1, float("nan")]}}),
        ("check", {"params": {"w": float("inf")}}),
        ("rank", {"params": {"w": float("nan")}}),
        ("check", {"params": {"n_env": 2.7}}),
        ("rank", {"params": {"n_env": 2.7}}),
        ("rank", {"params": {"omega0": "1.0"}}),
        ("rank", {"params": {"j1": True}}),
        ("simulate", {"schedule": [{"duration": "0.5", "values": [0, 0, 0, 0]}]}),
        ("simulate", {"schedule": [{"duration": 0.5, "values": ["1", 0, 0, 0]}]}),
        ("simulate", {"schedule": [{"duration": 0.5, "values": [1, 0, True, 0]}]}),
        ("rank", {"schema_version": 2}),
        ("rank", {"schema_version": True}),
        ("rank", {"rank_states": 2, "schedule": [{"duration": 1e308, "values": [0, 0, 0, 0]}] * 2}),
        ("rank", {"params": {"g": 0}}),
    ):
        bad.write_text(json.dumps(cfg))
        assert run_cli([command, "--config", str(bad), "--out", str(tmp_path / "o")]) == 2, cfg
    bad.write_text(json.dumps({"params": {"g": 0}}))
    assert run_cli(["maneuver", "--chain", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_zero_interaction_is_refused_only_where_a_command_asks_about_it(tmp_path, capsys):
    # check, rank and maneuver --chain decide something about A_I, which g = 0
    # makes zero; a single maneuver does not use it
    cfg = tmp_path / "g0.json"
    cfg.write_text(json.dumps({"params": {"g": 0}}))
    for argv in (["check"], ["rank"], ["maneuver", "--chain"]):
        assert run_cli([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "g = 0 switches the interaction off" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert run_cli(["maneuver", "--i", "6", "--j", "9", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 0


@pytest.mark.parametrize("argv", [
    ["check", "--audit"],
    ["check", "--feedback-mode", "literal"],
    ["check", "--scenario", "bait"],
    ["rank", "--audit"],
    ["rank", "--feedback-mode", "literal"],
    ["maneuver", "--chain", "--audit"],
    ["maneuver", "--chain", "--feedback-mode", "literal"],
    ["synthesize-audit", "--audit"],
    ["simulate", "--scenario", "all"],
    ["rank", "--scenario", "all"],
    ["maneuver", "--scenario", "all"],
    ["synthesize-audit", "--scenario", "all"],
])
def test_subcommands_refuse_flags_they_do_not_read(tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_rank_command_reports_histograms(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "restructured", "rank_states": 20}))
    code = run_cli(["rank", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out/report.json").read_text())
    assert report["control_field_rank_histogram"] == {"12": 20}
    assert report["interaction_membership_in_algebra"]["below_tol_fraction"] == 1.0
    # the literal 24 fields never contain K_I pointwise: recorded honestly
    assert report["interaction_membership_in_fields"]["below_tol_fraction"] == 0.0


def test_rank_max_power_zero_far_below_saturation(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "restructured", "rank_states": 10, "max_power": 0}))
    run_cli(["rank", "--config", str(cfg), "--out", str(tmp_path / "out")])
    report = json.loads((tmp_path / "out/report.json").read_text())
    ranks = {int(k) for k in report["control_field_rank_histogram"]}
    assert max(ranks) <= 4


def test_maneuver_command(tmp_path):
    code = run_cli(["maneuver", "--i", "6", "--j", "9", "--out", str(tmp_path / "out"),
                    "--scenario", "bait"])
    assert code == 0
    report = json.loads((tmp_path / "out/report.json").read_text())
    man = report["maneuver"]
    assert man["slope"] >= 2.7
    assert man["direction_overlap"] > 0.999
    assert len(man["segments"]) == 4


def test_maneuver_chain_mode(tmp_path):
    code = run_cli(["maneuver", "--chain", "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out/report.json").read_text())
    assert set(report["chain"]) == {f"comm{i}" for i in range(1, 7)}
    assert report["hsb_generation"]["closure_contains_interaction"]


def test_synthesize_audit_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "restructured", "eval_states": 2}))
    code = run_cli(["synthesize-audit", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out/report.json").read_text())
    assert all(not row["ok"] for row in report["states"])
    assert (tmp_path / "out/audit_synthesis.jsonl").exists()


def test_feedback_commands_build_the_plan_at_the_configured_tol(tmp_path, monkeypatch):
    from qdecouple.feedback import FramePlan

    seen = []
    build = FramePlan.build.__func__

    def spy(cls, sys_, tol=1e-9):
        seen.append(tol)
        return build(cls, sys_, tol=tol)

    monkeypatch.setattr(FramePlan, "build", classmethod(spy))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "restructured", "horizon": 0.1, "initial_state": "random",
                               "eval_states": 1, "tol": 1e-7}))
    code = run_cli(["simulate", "--config", str(cfg), "--feedback-mode", "literal",
                    "--out", str(tmp_path / "sim")])
    assert code == 4
    assert run_cli(["synthesize-audit", "--config", str(cfg), "--out", str(tmp_path / "audit")]) == 0
    assert seen == [1e-7, 1e-7]


def test_maneuver_chain_searches_at_the_configured_tol(tmp_path, monkeypatch):
    import qdecouple.cli

    seen = []
    search = qdecouple.cli.hsb_generation_search

    def spy(sys_, tol=1e-9):
        seen.append(tol)
        return search(sys_, tol=tol)

    monkeypatch.setattr(qdecouple.cli, "hsb_generation_search", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-7}))
    assert run_cli(["maneuver", "--chain", "--config", str(cfg), "--out", str(tmp_path / "chain")]) == 0
    assert seen == [1e-7]


@pytest.mark.parametrize("params", [{"n_env": 2}, {"n_env": 3}, {"n_env": 4}, {"w": 0.05 + 0.07j}],
                         ids=["n_env2", "n_env3", "n_env4", "complex_w"])
def test_bath_block_membership_matches_the_span_loop(monkeypatch, params):
    # the RealSpan loop over the algebra's images is the oracle; at the
    # complex w, K_I = sigma_z (x) F_g lies outside the algebra (median 0.161)
    bait = build_bait(ScenarioParams(**params))
    algebra = lie_closure(bait.control_stack)
    assert len(algebra) == 63 * bait.params.n_env
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        states = np.array([random_state(bait.space, rng).amplitudes for _ in range(20)])
        k_is = states @ bait.interaction.matrix.T
        method, ranks, residuals = _algebra_membership(bait, algebra, states, k_is, 1e-9)
        with monkeypatch.context() as m:
            m.setattr(qdecouple.cli, "bath_blocks", lambda *args: None)
            loop_method, loop_ranks, loop_residuals = _algebra_membership(bait, algebra, states, k_is, 1e-9)
        assert (method, loop_method) == ("bath blocks", "closure")
        assert ranks == loop_ranks == [15 * bait.params.n_env] * 20
        assert [r < 1e-9 for r in residuals] == [r < 1e-9 for r in loop_residuals]
        assert np.allclose(residuals, loop_residuals, rtol=0.0, atol=1e-12)
        if "w" in params:
            assert 0.1 < np.median(residuals) < 0.2


def _rank_report(tmp_path, monkeypatch, argv, cfg, out, loop=False):
    path = tmp_path / f"{out}.json"
    path.write_text(json.dumps(cfg))
    with monkeypatch.context() as m:
        if loop:
            m.setattr(qdecouple.cli, "bath_blocks", lambda *args: None)
        assert run_cli(["rank", *argv, "--config", str(path), "--out", str(tmp_path / out)]) == 0
    return json.loads((tmp_path / out / "report.json").read_text())


def test_rank_on_bait_differs_from_the_span_loop_only_in_the_median_residual(tmp_path, monkeypatch):
    cfg = {"params": {"n_env": 2}, "rank_states": 20}
    report = _rank_report(tmp_path, monkeypatch, ["--scenario", "bait"], cfg, "blocks")
    loop = _rank_report(tmp_path, monkeypatch, ["--scenario", "bait"], cfg, "loop", loop=True)
    assert (report.pop("control_algebra_method"), loop.pop("control_algebra_method")) == ("bath blocks", "closure")
    assert report["interaction_membership_in_algebra"].pop("median_residual") < 1e-15
    assert loop["interaction_membership_in_algebra"].pop("median_residual") < 1e-15
    assert report == loop


@pytest.mark.parametrize("scenario, params, dim", [
    ("bait", {"j1": 0}, 48), ("bait", {"w": 0}, 63), ("restructured", {}, 18), ("single_qubit", {}, 3),
])
def test_rank_falls_back_to_the_span_loop(tmp_path, monkeypatch, scenario, params, dim):
    # no bath-block certificate: j1 = 0 and w = 0 zero a control (dimension
    # below 63 n_env), restructured's and single_qubit's blocks are not su(q)
    cfg = {"params": params, "rank_states": 5}
    report = _rank_report(tmp_path, monkeypatch, ["--scenario", scenario], cfg, "rank")
    assert (report["control_algebra_method"], report["control_algebra_dim"]) == ("closure", dim)
    _rank_report(tmp_path, monkeypatch, ["--scenario", scenario], cfg, "loop", loop=True)
    assert (tmp_path / "rank/report.json").read_bytes() == (tmp_path / "loop/report.json").read_bytes()


def test_rank_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the control-algebra closure runs at one BLAS thread whatever the host
    # default, so report.json is the same bytes on a 1-core and a 4-core host
    if not _openblas_libraries():
        pytest.skip("no openblas_set_num_threads_local in the bundled BLAS")
    for threads in ("1", "2"):
        subprocess.run(
            [sys.executable, "-m", "qdecouple.cli", "rank", "--scenario", "bait", "--seed", "0",
             "--out", str(tmp_path / threads)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, check=True,
        )
    assert (tmp_path / "1/report.json").read_bytes() == (tmp_path / "2/report.json").read_bytes()


def test_console_script_entrypoint():
    out = subprocess.run(
        [sys.executable, "-m", "qdecouple.cli", "--version"], capture_output=True, text=True
    )
    assert out.returncode == 0
