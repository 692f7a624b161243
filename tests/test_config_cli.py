import hashlib
import json
import math
import os
import stat

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeadmit import cli, config as cfgmod, evaluate as evaluate_module, learners, salmut
from edgeadmit.artifacts import _file_mode, chain_hash
from edgeadmit.cli import _load_policy, main
from edgeadmit.config import ConfigError, Experiment
from edgeadmit.model import MAX_POPULATION, ChainTables, ModelParams, policy_table
from edgeadmit.scenarios import Scenario

from oracles import trace_draws, windowed_replay


def test_default_config_validates_and_builds():
    cfg = cfgmod.load_config()
    exp = Experiment.from_config(cfg)
    assert exp.chain.params.buffer_capacity == 20
    assert exp.scenario.initial_aggregate_rate() == pytest.approx(6.0)
    assert exp.chain.cm.running[6] == pytest.approx(-0.2)
    assert exp.chain.cm.penalty[2] == pytest.approx(10.0)
    assert exp.chain.cm.penalty[3] == pytest.approx(1.0)


# SHA-256 of the default config's sorted JSON.  Its keys and defaults come
# from the section dataclasses' fields, so a new field, a renamed one or a
# changed default moves this digest and every run's config_sha256 with it
DEFAULT_CONFIG_DIGEST = "203bc3932e42a0d2d333a84757e4bfa33f8413f72d8ba069f8d02d58be78eaf1"


def test_default_config_pinned_and_equal_to_field_defaults():
    canon = json.dumps(cfgmod.default_config(), sort_keys=True)
    assert hashlib.sha256(canon.encode()).hexdigest() == DEFAULT_CONFIG_DIGEST
    exp = Experiment.from_config(cfgmod.load_config())
    assert exp.chain.params == ModelParams()
    assert exp.scenario == Scenario()
    assert exp.eval_config == evaluate_module.EvalConfig()
    assert exp.salmut == salmut.SalmutConfig()
    assert exp.qlearning == learners.QLearningConfig()
    assert exp.baseline == learners.BaselinePolicy()


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"modle": {}}))
    with pytest.raises(ConfigError, match="unknown key"):
        cfgmod.load_config(path)


def test_nested_unknown_key_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"bufefr": 3}}))
    with pytest.raises(ConfigError, match="model.bufefr"):
        cfgmod.load_config(path)


def test_malformed_cost_table_names_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"costs": {"running": [0.0, 1.0]}}))
    with pytest.raises(ConfigError, match="costs.running"):
        Experiment.from_config(cfgmod.load_config(path))


def test_cli_solve_and_structure_flags(tmp_path):
    runner = CliRunner()
    out = tmp_path / "runs"
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"solver": {"tol": 1e-9}}))
    result = runner.invoke(main, ["solve", "--out", str(out), "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    assert "iterations=" in result.output and "V(0,0)=" in result.output
    sol_path = out / "dp" / "solution.json"
    sol = json.loads(sol_path.read_text())
    assert sol["schema"] == "edgeadmit/solution/1"
    assert sol["residual"] <= 1e-9
    assert len(sol["tau"]) == 21
    # structure verdicts reflect the known behavior of the canonical tables
    check = runner.invoke(main, ["evaluate", "--check-structure", str(sol_path)])
    assert check.exit_code == 0
    assert "value monotone in load: FAIL" in check.output
    assert "threshold policy: FAIL" in check.output


@pytest.mark.parametrize("v", ["missing", "x", "ragged"])
def test_cli_check_structure_malformed_value_table_is_input_error(tmp_path, v):
    runner = CliRunner()
    out = tmp_path / "runs"
    assert runner.invoke(main, ["solve", "--out", str(out)]).exit_code == 0
    sol = json.loads((out / "dp" / "solution.json").read_text())
    if v == "missing":
        del sol["v"]
    else:
        sol["v"] = v if v == "x" else sol["v"][:-1] + [sol["v"][-1][:-1]]
    path = tmp_path / "solution.json"
    path.write_text(json.dumps(sol))
    result = runner.invoke(main, ["evaluate", "--check-structure", str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output == (f"{path}: solution artifact field 'v' must be a (21, 21) table "
                             "of finite numbers\n")


def test_cli_solve_reports_config_error(tmp_path):
    runner = CliRunner()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"costs": {"running": [1, 2, 3]}}))
    result = runner.invoke(main, ["solve", "--config", str(bad)])
    assert result.exit_code == 2
    assert "costs.running" in result.output


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_artifacts_get_the_mode_open_would_give(tmp_path, umask):
    # mkstemp makes owner-only files; an artifact gets 0o666 less the umask
    old = os.umask(umask)
    _file_mode.cache_clear()
    try:
        result = CliRunner().invoke(main, ["solve", "--out", str(tmp_path / "runs")])
        (tmp_path / "plain").touch()
    finally:
        os.umask(old)
        _file_mode.cache_clear()
    assert result.exit_code == 0, result.output
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in (tmp_path / "runs" / "dp").iterdir()}
    assert modes == dict.fromkeys(["manifest.json", "policy.json", "solution.json"],
                                  0o666 & ~umask)
    assert stat.S_IMODE((tmp_path / "plain").stat().st_mode) == 0o666 & ~umask


def test_cli_solve_numeric_failure_exit_code(tmp_path):
    runner = CliRunner()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"max_iter": 3}}))
    result = runner.invoke(main, ["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 3
    assert "numeric failure" in result.output


def _desk_config(tmp_path, horizon=4000, kind=1):
    cfg = {
        "learner": {"horizon": horizon, "eval_every": 2000},
        "scenario": {"kind": kind},
        "eval": {"rollout_length": 200, "n_rollouts": 8, "window": 50},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "runs"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def _chain_sha(cfg_path) -> str:
    """The ``chain_sha256`` of artifacts built under the config at ``cfg_path``."""
    return chain_hash(cfgmod.load_config(cfg_path))


def test_cli_train_outputs_and_determinism(tmp_path):
    runner = CliRunner()
    cfg_path = _desk_config(tmp_path)
    args = ["train", "--config", str(cfg_path), "--learner", "salmut"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    root = tmp_path / "runs" / "salmut"
    log0 = (root / "seed_0" / "log.csv").read_bytes()
    policy0 = (root / "seed_0" / "policy.json").read_bytes()
    curve = (root / "training_curve.csv").read_bytes()
    manifest = (root / "manifest.json").read_bytes()
    # rerun: byte-identical outputs
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert (root / "seed_0" / "log.csv").read_bytes() == log0
    assert (root / "seed_0" / "policy.json").read_bytes() == policy0
    assert (root / "training_curve.csv").read_bytes() == curve
    assert (root / "manifest.json").read_bytes() == manifest
    art = json.loads(policy0)
    assert art["kind"] == "salmut" and len(art["tau"]) == 21
    header = log0.decode().splitlines()[0]
    assert header == (
        "step,policy_hash,eval_mean,eval_q1,eval_median,eval_q3,"
        "grad_abs_window,grad_step_window"
    )


def test_cli_curves_aggregation_parses_logs(tmp_path):
    runner = CliRunner()
    cfg_path = _desk_config(tmp_path)
    result = runner.invoke(main, ["train", "--config", str(cfg_path), "--learner", "salmut"])
    assert result.exit_code == 0, result.output
    root = tmp_path / "runs" / "salmut"
    result = runner.invoke(main, ["evaluate", "--curves-from", str(root)])
    assert result.exit_code == 0, result.output
    curve = (root / "training_curve.csv").read_text().splitlines()
    assert curve[0] == "step,median,q1,q3"
    # every cell must round-trip through float()
    for line in curve[1:]:
        step, med, q1, q3 = line.split(",")
        assert int(step) > 0
        assert float(q1) <= float(med) <= float(q3)
    # and the raw per-seed logs hold plain parseable numbers
    for log_path in root.glob("seed_*/log.csv"):
        for line in log_path.read_text().splitlines()[1:]:
            cells = line.split(",")
            float(cells[6])
            float(cells[7])


@pytest.mark.parametrize("log,message", [
    ("step,eval_mean\n100,x\n", "could not convert"),
    ("step,eval_q1\n100,1.0\n", "no column 'eval_mean'"),
    ("eval_mean,step\n1.0\n", "int()"),
])
def test_cli_curves_from_malformed_log_is_input_error(tmp_path, log, message):
    log_path = tmp_path / "salmut" / "seed_0" / "log.csv"
    log_path.parent.mkdir(parents=True)
    log_path.write_text(log)
    result = CliRunner().invoke(main, ["evaluate", "--curves-from", str(tmp_path / "salmut")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert str(log_path) in result.output and message in result.output


def test_cli_train_qlearning_same_log_schema(tmp_path):
    runner = CliRunner()
    cfg_path = _desk_config(tmp_path)
    result = CliRunner().invoke(
        main, ["train", "--config", str(cfg_path), "--learner", "qlearning",
               "--no-periodic-eval"]
    )
    assert result.exit_code == 0, result.output
    root = tmp_path / "runs" / "qlearning"
    header = (root / "seed_0" / "log.csv").read_text().splitlines()[0]
    assert header == (
        "step,policy_hash,eval_mean,eval_q1,eval_median,eval_q3,"
        "grad_abs_window,grad_step_window"
    )
    art = json.loads((root / "seed_0" / "policy.json").read_text())
    assert art["kind"] == "qlearning"
    assert len(art["policy"]) == 21


def test_cli_horizon_scale_scales_change_points(tmp_path):
    runner = CliRunner()
    cfg_path = _desk_config(tmp_path, horizon=9000, kind=2)
    result = runner.invoke(
        main,
        ["train", "--config", str(cfg_path), "--learner", "salmut",
         "--no-periodic-eval", "--seed", "0"],
    )
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "runs" / "salmut" / "seed_0" / "trajectory.csv").read_text()
    steps = [int(line.split(",")[0]) for line in rows.splitlines()[1:]]
    assert steps == [0, 3000, 6000]

    result = runner.invoke(
        main,
        ["train", "--config", str(cfg_path), "--learner", "salmut",
         "--no-periodic-eval", "--seed", "0", "--horizon-scale", "0.2",
         "--out", str(tmp_path / "scaled")],
    )
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "scaled" / "salmut" / "seed_0" / "trajectory.csv").read_text()
    steps = [int(line.split(",")[0]) for line in rows.splitlines()[1:]]
    assert steps == [0, 600, 1200]


def test_cli_horizon_scale_reaches_every_command(tmp_path):
    # evaluate hashes the scaled config, as solve does
    runner = CliRunner()
    cfg_path = _desk_config(tmp_path)
    scale = ["--config", str(cfg_path), "--horizon-scale", "0.5"]
    assert runner.invoke(main, ["solve", *scale]).exit_code == 0
    art = tmp_path / "runs" / "dp" / "policy.json"
    result = runner.invoke(main, ["evaluate", *scale, "--artifact", str(art)])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "runs" / "eval" / "report.json").read_text())
    manifest = json.loads((tmp_path / "runs" / "eval" / "manifest.json").read_text())
    assert report["config_sha256"] == json.loads(art.read_text())["config_sha256"]
    assert manifest["config"]["learner"]["horizon"] == 2000


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-3"])
def test_cli_horizon_scale_must_be_finite_and_positive(tmp_path, scale):
    result = CliRunner().invoke(
        main, ["solve", "--out", str(tmp_path / "runs"), "--horizon-scale", scale]
    )
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "--horizon-scale: must be finite and > 0" in result.output
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("scale", ["1e10", "1e300"])
def test_cli_scaled_horizon_above_2_53_is_input_error(tmp_path, scale):
    # the scaled horizon meets the configured one's cap
    result = CliRunner().invoke(
        main, ["solve", "--out", str(tmp_path / "runs"), "--horizon-scale", scale]
    )
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == ("config error at --horizon-scale: "
                             "horizon must be an integer in [1, 2**53]\n")
    assert not (tmp_path / "runs").exists()


def test_cli_compare_trace_length_must_be_positive(tmp_path):
    # and the trace seed must be >= 0, as a config's seeds must
    runner = CliRunner()
    cfg_path = _desk_config(tmp_path)
    for args in (
        ["solve", "--config", str(cfg_path)],
        ["train", "--config", str(cfg_path), "--learner", "salmut", "--no-periodic-eval"],
        ["train", "--config", str(cfg_path), "--learner", "qlearning", "--no-periodic-eval"],
    ):
        assert runner.invoke(main, args).exit_code == 0
    for flag, value in (("--trace-length", "-5"), ("--trace-length", "0"),
                        ("--trace-length", str(2**53 + 1)), ("--trace-seed", "-5")):
        result = runner.invoke(main, ["compare", "--config", str(cfg_path), flag, value])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert flag in result.output
        assert not (tmp_path / "runs" / "compare").exists()
    # the longest trace passes the parse, and its 64 PiB of draws is refused
    # at once: one line, and nothing written
    result = runner.invoke(main, ["compare", "--config", str(cfg_path),
                                  "--trace-length", str(2**53)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    [line] = result.output.splitlines()
    assert line.startswith("out of memory: ")
    assert not (tmp_path / "runs" / "compare").exists()


@pytest.mark.parametrize("learner", ["salmut", "qlearning"])
def test_cli_train_fills_every_eval_point(tmp_path, monkeypatch, segments, learner):
    # the CLI scores a seed's eval points in one call; with 12 lanes a batch
    # ends inside a point's 8 rollouts, and every log row must still hold the
    # one-point evaluation of that row's eval point and seed
    monkeypatch.setattr(evaluate_module, "BATCH_LANES", 12)
    cfg_path = _desk_config(tmp_path, horizon=5000)
    cfg = json.loads(cfg_path.read_text())
    cfg["learner"]["eval_every"] = 1000
    cfg_path.write_text(json.dumps(cfg))
    result = CliRunner().invoke(main, ["train", "--config", str(cfg_path), "--learner", learner])
    assert result.exit_code == 0, result.output

    exp = Experiment.from_config(cfgmod.load_config(cfg_path, {"learner": {"kind": learner}}))
    assert exp.eval_config.n_rollouts == 8
    for seed in exp.seeds:
        args = (segments(exp.scenario, 5000, seed), exp.chain)
        if learner == "salmut":
            trained = salmut.train(*args, exp.salmut, seed)
        else:
            trained = learners.qlearning_train(*args, exp.qlearning, seed)
        log = (tmp_path / "runs" / learner / f"seed_{seed}" / "log.csv").read_text()
        rows = [line.split(",") for line in log.splitlines()[1:]]
        assert [int(row[0]) for row in rows] == [r.step for r in trained.log]
        assert len(rows) == len(trained.evals) == 5
        for row, (lam, table) in zip(rows, trained.evals):
            report = evaluate_module.evaluate(
                table, exp.eval_config, lam, exp.chain,
                seed=(seed << 20) + int(row[0]),
            )
            assert [float(cell) for cell in row[2:6]] == [
                report.mean, report.q1, report.median, report.q3
            ]


# a placeholder for the JSON literal 1e400 in a config file's text
OVERFLOW = "<1e400>"


# each value is a wrong type or shape for its field, or out of its range
@pytest.mark.parametrize("section,field,value", [
    ("resources", "pmf", ["a"]),
    ("costs", "holding", "x"),
    ("costs", "holding", None),
    ("model", "cores", "2"),
    ("eval", "n_rollouts", "5"),
    ("learner", "eval_every", "5"),
    ("learner.salmut", "temperature", "5"),
    ("solver", "tol", "1"),
    ("solver", "tol", -1),
    ("solver", "max_iter", "x"),
    ("learner", "start_state", [0]),
    ("learner", "start_state", 5),
    ("learner", "start_state", [99, 0]),
    ("eval", "initial_state", [0]),
    pytest.param("learner", "horizon", 10**400, id="learner-horizon-1e400"),
    pytest.param("model", "buffer_capacity", 10**400, id="model-buffer-capacity-1e400"),
    ("model", "buffer_capacity", 10_001),
    ("model", "buffer_capacity", 0),
    ("model", "buffer_capacity", True),
    ("model", "cpu_levels", True),
    ("model", "cores", 2.5),
    ("scenario", "kind", True),
    ("scenario", "n_users", 2.5),
    ("scenario", "n_users", True),
    ("learner", "eval_every", 2.5),
    ("learner.baseline", "accept_below", 2.5),
    ("eval", "n_rollouts", 2.5),
    ("eval", "rollout_length", 2.5),
    ("eval", "window", 2.5),
    ("eval", "overload_level", 2.5),
    ("", "seeds", [True]),
    ("", "seeds", [-1]),
    # non-finite numbers: json.dumps writes NaN, Infinity and -Infinity
    pytest.param("costs", "running", [None] * 21, id="costs-running-null"),
    pytest.param("costs", "penalty", [1.0] * 20 + [math.nan], id="costs-penalty-nan"),
    pytest.param("costs", "running", [True] * 21, id="costs-running-true"),
    pytest.param("learner.salmut", "decay_n0", -math.inf, id="salmut-decay-n0-minus-inf"),
    pytest.param("model", "service_rate", OVERFLOW, id="model-service-rate-1e400"),
    pytest.param("model", "service_rate", math.nan, id="model-service-rate-nan"),
    pytest.param("learner.salmut", "temperature", math.nan, id="salmut-temperature-nan"),
    pytest.param("", "scenario", {"kind": 2, "lambda_high": math.inf},
                 id="scenario-2-lambda-high-inf"),
    pytest.param("", "scenario", {"kind": 3, "toggle_period_fraction": math.nan},
                 id="scenario-3-toggle-period-nan"),
    # wrong types and ranges, each checked by the dataclass that reads it
    pytest.param("", "scenario", {"kind": 4, "population_period_fraction": "x"},
                 id="scenario-4-population-period-x"),
    ("learner.salmut", "critic_epsilon", "x"),
    ("learner.salmut", "critic_epsilon", 0),
    ("learner.salmut", "critic_epsilon", -1),
    ("learner.salmut", "actor_epsilon", -1),
    ("learner.salmut", "initial_tau", 99),
    ("learner.salmut", "paper_literal_sign", "no"),
    ("learner.qlearning", "decay_kappa", "x"),
    ("learner.qlearning", "decay_kappa", -1),
    ("learner.qlearning", "decay_n0", 0),
    ("", "output_dir", 5),
    ("learner", "kind", "dp"),
    # values each dataclass must refuse before from_config reads them
    ("costs", "running", 5),
    ("costs", "holding", True),
    ("resources", "pmf", [True]),
    ("learner", "horizon", "x"),
    ("", "model", 5),
    ("learner", "salmut", 5),
    # tables that meet the monotone hypotheses, so that only the flag is wrong
    pytest.param("", "costs", {"running": [0.0] * 21, "penalty": [1.0] * 21,
                               "strict_monotone": "no"}, id="costs-strict-monotone-no"),
    # more users than a drifting population may reach, on a constant scenario
    ("scenario", "n_users", 100_001),
])
def test_cli_wrong_config_value_is_input_error(tmp_path, section, field, value):
    cfg = json.loads(_desk_config(tmp_path).read_text())
    owner = cfg
    for key in filter(None, section.split(".")):
        owner = owner.setdefault(key, {})
    owner[field] = value
    cfg_path = tmp_path / "bad.json"
    # json.dumps cannot write 1e400, which json.loads reads as inf
    cfg_path.write_text(json.dumps(cfg).replace(json.dumps(OVERFLOW), "1e400"))
    # the error names the section, the field or, for a literal that
    # load_config refuses, the file
    where = ".".join(filter(None, (section, field)))
    named = {section or where, where, str(cfg_path)}
    # train scales the horizon, which it may do only once the horizon is checked
    for args in (["solve"], ["train", "--no-periodic-eval", "--horizon-scale", "2"]):
        result = CliRunner().invoke(main, [*args, "--config", str(cfg_path)])
        assert result.exit_code == 2, (args, result.output)
        assert isinstance(result.exception, SystemExit), result.exception
        assert "config error at " in result.output
        path = result.output.split("config error at ", 1)[1].split(": ", 1)[0]
        assert path in named, (args, result.output)
    assert not (tmp_path / "runs").exists()


def test_cli_unreadable_config_and_unwritable_output_are_input_errors(tmp_path):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"output_dir": "r\xe9sultats"}')
    out_file = tmp_path / "file"
    out_file.write_text("")
    for args, message in (
        (["--config", str(tmp_path)], f"config error at {tmp_path}: cannot read: "),
        (["--config", str(not_utf8)], f"config error at {not_utf8}: cannot read: "),
        (["--out", str(out_file)], "Not a directory"),
    ):
        result = CliRunner().invoke(main, ["solve", *args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        [line] = result.output.splitlines()
        assert message in line


def test_cli_compare_missing_artifact_is_file_error(tmp_path):
    runner = CliRunner()
    cfg_path = _desk_config(tmp_path)
    result = runner.invoke(main, ["compare", "--config", str(cfg_path)])
    assert result.exit_code == 2
    assert "missing artifact" in result.output


def test_cli_artifacts_from_another_chain_are_input_errors(tmp_path):
    # artifacts built under one config, read under another whose costs differ:
    # compare, evaluate --artifact and evaluate --check-structure name the
    # artifact and exit 2
    runner = CliRunner()
    cfg_path = _desk_config(tmp_path)
    for args in (
        ["solve"],
        ["train", "--learner", "salmut", "--no-periodic-eval"],
        ["train", "--learner", "qlearning", "--no-periodic-eval"],
    ):
        assert runner.invoke(main, [*args, "--config", str(cfg_path)]).exit_code == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**json.loads(cfg_path.read_text()), "costs": {"holding": 5.0}}))
    runs = tmp_path / "runs"
    salmut_policy = runs / "salmut" / "seed_0" / "policy.json"
    solution = runs / "dp" / "solution.json"
    for args, artifact in (
        (["compare"], runs / "dp" / "policy.json"),
        (["evaluate", "--artifact", str(salmut_policy)], salmut_policy),
        (["evaluate", "--check-structure", str(solution)], solution),
    ):
        result = runner.invoke(main, [*args, "--config", str(other)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        [line] = result.output.splitlines()
        assert line.startswith(f"{artifact}: chain_sha256 ")
    assert not (runs / "compare").exists() and not (runs / "eval").exists()
    # an artifact without the field is rejected the same way
    art = json.loads(salmut_policy.read_text())
    del art["chain_sha256"]
    salmut_policy.write_text(json.dumps(art))
    result = runner.invoke(main, ["compare", "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert result.output == (f"{salmut_policy}: chain_sha256 None is not this config's "
                             f"model, costs and resources ({_chain_sha(cfg_path)})\n")


def test_cli_commands_build_the_chain_once(tmp_path, monkeypatch, step_builds):
    # one ChainTables per command: train's two seeds run in this process; and
    # its step at most once, by the commands that step it (the rollouts of
    # evaluate run on its tables)
    built = []
    init = ChainTables.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ChainTables, "__init__", counting_init)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    cfg_path = _desk_config(tmp_path)
    dp_policy = str(tmp_path / "runs" / "dp" / "policy.json")
    for args, steps in ((["solve"], 0), (["train", "--learner", "salmut"], 1),
                        (["train", "--learner", "qlearning"], 1), (["compare"], 1),
                        (["evaluate", "--artifact", dp_policy], 0)):
        built.clear()
        step_builds.clear()
        result = CliRunner().invoke(main, [*args, "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert len(built) == 1, args
        assert len(step_builds) == steps, args


def test_cli_compare_end_to_end(tmp_path):
    runner = CliRunner()
    cfg_path = _desk_config(tmp_path, horizon=4000)
    for args in (
        ["solve", "--config", str(cfg_path)],
        ["train", "--config", str(cfg_path), "--learner", "salmut", "--no-periodic-eval"],
        ["train", "--config", str(cfg_path), "--learner", "qlearning", "--no-periodic-eval"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    args = ["compare", "--config", str(cfg_path), "--trace-length", "2000"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    out = tmp_path / "runs" / "compare"
    costs = (out / "compare_costs.csv").read_text().splitlines()
    assert costs[0] == "policy,mean,q1,median,q3"
    rows = {line.split(",")[0]: float(line.split(",")[1]) for line in costs[1:]}
    assert set(rows) == {"baseline", "dp", "qlearning", "salmut"}
    # the planner policy robustly beats the static baseline; learned policies
    # can legitimately tie or edge it on the simulated chain, so no total
    # ordering is asserted
    assert rows["dp"] < rows["baseline"]
    behavioral = (out / "behavioral.csv").read_text().splitlines()
    assert behavioral[0] == "window,policy,c_ov,c_off,cost_discounted,cost_undiscounted"
    assert len(behavioral) == 1 + 4 * 40  # 2000 steps / window 50 per policy
    scatter = (out / "scatter.csv").read_text().splitlines()
    assert len(scatter) == len(behavioral)
    # each policy's trap step is where a plain replay first sits at x = 0 in
    # a state its table offloads from
    exp = Experiment.from_config(cfgmod.load_config(cfg_path))
    trace = evaluate_module.EventTrace.generate(1234, 2000)
    runs = tmp_path / "runs"
    tables = {
        "baseline": policy_table(exp.chain.params, accept_below=exp.baseline.accept_below),
    }
    for path in (runs / "dp", runs / "salmut" / "seed_0", runs / "qlearning" / "seed_0"):
        kind, tables[kind] = _load_policy(path / "policy.json", exp)
    totals = json.loads((out / "summary.json").read_text())["totals"]
    for name, table in tables.items():
        _, _, trap_step = windowed_replay(
            table, trace_draws(exp.scenario, trace, exp.chain), exp.chain, exp.eval_config.initial_state,
        )
        assert totals[name]["trap_step"] == trap_step, name
        assert set(totals[name]) == {"c_ov", "c_off", "trap_step"}
    # byte-identical rerun
    before = {p: p.read_bytes() for p in out.iterdir()}
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    for p, data in before.items():
        assert p.read_bytes() == data


def test_cli_evaluate_artifact(tmp_path):
    runner = CliRunner()
    cfg_path = _desk_config(tmp_path)
    assert CliRunner().invoke(main, ["solve", "--config", str(cfg_path)]).exit_code == 0
    art = tmp_path / "runs" / "dp" / "policy.json"
    result = runner.invoke(main, ["evaluate", "--config", str(cfg_path),
                                  "--artifact", str(art)])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "runs" / "eval" / "report.json").read_text())
    assert report["kind"] == "dp"
    assert report["n_rollouts"] == 8


def test_cli_policy_artifacts_carry_their_action_tables(tmp_path):
    # every policy.json carries the table its learner or the planner acts by,
    # and evaluate --artifact scores a SALMUT artifact as its threshold vector
    runner = CliRunner()
    cfg_path = _desk_config(tmp_path)
    for args in (["solve"], ["train", "--learner", "salmut", "--no-periodic-eval"],
                 ["train", "--learner", "qlearning", "--no-periodic-eval"]):
        assert runner.invoke(main, [*args, "--config", str(cfg_path)]).exit_code == 0
    runs = tmp_path / "runs"
    exp = Experiment.from_config(cfgmod.load_config(cfg_path))
    params = exp.chain.params
    sol = json.loads((runs / "dp" / "solution.json").read_text())
    assert json.loads((runs / "dp" / "policy.json").read_text())["policy"] == sol["policy"]
    for s in exp.seeds:
        art = json.loads((runs / "salmut" / f"seed_{s}" / "policy.json").read_text())
        assert art["policy"] == policy_table(params, tau=art["tau"]).tolist()
        art = json.loads((runs / "qlearning" / f"seed_{s}" / "policy.json").read_text())
        q = np.array(art["q"])
        greedy = policy_table(params, actions=q[..., 1] < q[..., 0])
        assert art["policy"] == greedy.tolist()
    salmut_path = runs / "salmut" / "seed_0" / "policy.json"
    result = runner.invoke(main, ["evaluate", "--config", str(cfg_path),
                                  "--artifact", str(salmut_path)])
    assert result.exit_code == 0, result.output
    report = json.loads((runs / "eval" / "report.json").read_text())
    tau = json.loads(salmut_path.read_text())["tau"]
    lam = exp.scenario.initial_aggregate_rate()
    expected = evaluate_module.evaluate(policy_table(params, tau=tau),
                                        exp.eval_config, lam, exp.chain, seed=exp.seeds[0])
    assert (report["kind"], report["mean"]) == ("salmut", expected.mean)


def test_cli_evaluate_baseline_artifact_is_input_error(tmp_path):
    # the baseline is no artifact kind: compare builds it from learner.baseline
    cfg_path = _desk_config(tmp_path)
    art = tmp_path / "policy.json"
    art.write_text(json.dumps({"schema": "edgeadmit/policy/1", "kind": "baseline",
                               "config_sha256": "", "chain_sha256": _chain_sha(cfg_path),
                               "accept_below": 18}))
    result = CliRunner().invoke(main, ["evaluate", "--config", str(cfg_path),
                                       "--artifact", str(art)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"{art}: unknown policy kind 'baseline'\n"


def test_cli_train_population_extinction_is_numeric_failure(tmp_path):
    # every user leaves at the first population step and none arrive, so the
    # chain reaches lam == 0 with an empty queue
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": {"kind": 4, "n_users": 1, "leave_prob": 1.0, "stay_prob": 0.0,
                     "add_prob": 0.0},
        "learner": {"horizon": 5000, "eval_every": 1000},
        "seeds": [0],
        "output_dir": str(tmp_path / "runs"),
    }))
    result = CliRunner().invoke(main, ["train", "--config", str(cfg)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "numeric failure: no event possible" in result.output


def test_cli_train_runaway_population_is_input_error(tmp_path):
    # every user spawns a device at every step, so the population doubles
    # each step: past MAX_POPULATION users train stops with one line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": {"kind": 4, "leave_prob": 0.0, "stay_prob": 0.0, "add_prob": 1.0,
                     "population_period_fraction": 0.001},
        "learner": {"horizon": 60},
        "seeds": [0],
        "output_dir": str(tmp_path / "runs"),
    }))
    result = CliRunner().invoke(main, ["train", "--config", str(cfg), "--no-periodic-eval"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == (
        f"config error at scenario: the population reached {24 * 2**13} users by step 14, "
        f"above the cap of {MAX_POPULATION}\n"
    )


def test_cli_evaluate_wrong_schema_is_input_error(tmp_path):
    runner = CliRunner()
    cfg_path = _desk_config(tmp_path)
    assert runner.invoke(main, ["solve", "--config", str(cfg_path)]).exit_code == 0
    sol = tmp_path / "runs" / "dp" / "solution.json"
    result = runner.invoke(main, ["evaluate", "--config", str(cfg_path),
                                  "--artifact", str(sol)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "expected schema edgeadmit/policy/1" in result.output


def test_cli_evaluate_wrong_shape_is_input_error(tmp_path):
    cfg_path = _desk_config(tmp_path)
    art = tmp_path / "policy.json"
    art.write_text(json.dumps({"schema": "edgeadmit/policy/1", "kind": "dp",
                               "config_sha256": "", "chain_sha256": _chain_sha(cfg_path),
                               "policy": [[0] * 21] * 5}))
    result = CliRunner().invoke(main, ["evaluate", "--config", str(cfg_path),
                                       "--artifact", str(art)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "policy table shape (5, 21) does not match (21, 21)" in result.output


def test_cli_evaluate_invalid_json_is_input_error(tmp_path):
    cfg_path = _desk_config(tmp_path)
    art = tmp_path / "policy.json"
    art.write_text("{")
    result = CliRunner().invoke(main, ["evaluate", "--config", str(cfg_path),
                                       "--artifact", str(art)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"{art}: not a JSON artifact" in result.output


@pytest.mark.parametrize("policy", ["missing", None])
def test_cli_evaluate_missing_policy_field_is_input_error(tmp_path, policy):
    # a null field counts as missing; a salmut artifact that carries only its
    # threshold vector `tau` is refused the same way
    cfg_path = _desk_config(tmp_path)
    art = tmp_path / "policy.json"
    fields = {"tau": [10.5] * 21} if policy == "missing" else {"policy": policy}
    art.write_text(json.dumps({"schema": "edgeadmit/policy/1", "kind": "salmut",
                               "config_sha256": "", "chain_sha256": _chain_sha(cfg_path),
                               **fields}))
    result = CliRunner().invoke(main, ["evaluate", "--config", str(cfg_path),
                                       "--artifact", str(art)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "salmut policy artifact lacks its field 'policy'" in result.output


# the kinds of policy artifact, each read from its action table `policy`
_POLICY_KINDS = ("dp", "qlearning", "salmut")
_VALID_TABLE = [[0] * 18 + [1] * 3] * 21

# right-shaped action tables whose entries are no action: none may score as offload
_MALFORMED_TABLES = [
    [[entry] * 21] * 21 for entry in (None, "a", 2, -1, float("nan"), True)
] + [[[0] * 20 + [None]] * 21]

_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_json_values = st.one_of(
    st.recursive(
        _json_scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=12,
    ),
    # the right lengths, arbitrary entries
    st.lists(_json_scalars, min_size=21, max_size=21),
    st.lists(st.lists(_json_scalars, min_size=21, max_size=21), min_size=21, max_size=21),
)


def _evaluate_policy_artifact(root, kind, value):
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"eval": {"rollout_length": 10, "n_rollouts": 2},
                               "output_dir": str(root / "runs")}))
    art = root / "policy.json"
    art.write_text(json.dumps({"schema": "edgeadmit/policy/1", "kind": kind,
                               "config_sha256": "", "chain_sha256": _chain_sha(cfg),
                               "policy": value}))
    return CliRunner().invoke(main, ["evaluate", "--config", str(cfg), "--artifact", str(art)])


@pytest.mark.parametrize("kind", _POLICY_KINDS)
def test_cli_evaluate_valid_policy_fields(tmp_path, kind):
    result = _evaluate_policy_artifact(tmp_path, kind, _VALID_TABLE)
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("kind, value", [
    # values that are no table: threshold vectors and accept-below integers
    ("salmut", 5), ("salmut", {"a": 1}), ("salmut", [1.0] * 20 + [True]),
    ("salmut", [float("nan")] * 21), ("salmut", [10**400] * 21),
    ("dp", "x"), ("dp", [1]), ("qlearning", 2.5), ("qlearning", True),
    *((kind, table) for kind in ("dp", "qlearning") for table in _MALFORMED_TABLES),
    *(("salmut", table) for table in _MALFORMED_TABLES),
])
def test_cli_evaluate_malformed_policy_field_is_input_error(tmp_path, kind, value):
    result = _evaluate_policy_artifact(tmp_path, kind, value)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "'policy'" in result.output


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(_POLICY_KINDS), value=_json_values)
@example(kind="salmut", value=5)
@example(kind="salmut", value={"a": 1})
@example(kind="salmut", value=[float("nan")] * 21)
@example(kind="salmut", value=[10**400] * 21)
@example(kind="salmut", value=_MALFORMED_TABLES[2])
@example(kind="dp", value="x")
@example(kind="dp", value=[1])
@example(kind="qlearning", value=2.5)
@example(kind="qlearning", value=True)
@example(kind="dp", value=_MALFORMED_TABLES[0])
@example(kind="dp", value=_MALFORMED_TABLES[2])
@example(kind="qlearning", value=_MALFORMED_TABLES[0])
@example(kind="qlearning", value=_MALFORMED_TABLES[2])
def test_cli_evaluate_any_policy_field_exits_cleanly(tmp_path_factory, kind, value):
    # whatever JSON value stands in a policy artifact's `policy` field,
    # evaluate either scores the policy or rejects the artifact as an input error
    result = _evaluate_policy_artifact(tmp_path_factory.mktemp("artifact"), kind, value)
    assert result.exit_code in (0, 2), (result.output, result.exception)
    if result.exit_code == 2:
        assert isinstance(result.exception, SystemExit)
    else:
        # a table is scored only when every entry is an action
        assert all(type(a) is int and a in (0, 1) for row in value for a in row)


@st.composite
def _small_configs(draw):
    """A small valid config: any chain shape up to 7 x 7 states, short runs."""
    X, L = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    table = st.lists(st.floats(-10.0, 10.0), min_size=L + 1, max_size=L + 1)
    weights = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3).filter(any))
    horizon = draw(st.integers(1, 2000))
    return {
        "model": {"buffer_capacity": X, "cpu_levels": L, "cores": draw(st.integers(1, 3)),
                  "service_rate": draw(st.floats(0.1, 10.0))},
        "costs": {"holding": draw(st.floats(0.0, 2.0)), "running": draw(table),
                  "penalty": draw(table)},
        "resources": {"pmf": [w / sum(weights) for w in weights]},
        "scenario": {"kind": draw(st.integers(1, 6)), "n_users": draw(st.integers(0, 4))},
        "learner": {"horizon": horizon, "eval_every": draw(st.integers(100, 2000))},
        "eval": {"n_rollouts": draw(st.integers(1, 3)), "rollout_length": draw(st.integers(1, 50)),
                 "window": draw(st.integers(1, 500))},
        "seeds": [0],
    }


@settings(max_examples=25, deadline=None)
@given(cfg=_small_configs())
def test_cli_pipeline_on_small_configs_exits_cleanly(tmp_path_factory, cfg):
    # the whole pipeline on one chain of any small shape: every command
    # succeeds, or fails with an input (2) or numeric (3) error, never a traceback
    root = tmp_path_factory.mktemp("pipeline")
    path = root / "cfg.json"
    path.write_text(json.dumps({**cfg, "output_dir": str(root / "runs")}))
    runner = CliRunner()
    for args in (
        ["solve"],
        ["train", "--learner", "salmut"],
        ["train", "--learner", "qlearning"],
        ["compare"],
        ["evaluate", "--artifact", str(root / "runs" / "salmut" / "seed_0" / "policy.json")],
    ):
        result = runner.invoke(main, [*args, "--config", str(path)])
        assert result.exit_code in (0, 2, 3), (args, result.output, result.exception)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            args, result.output, result.exception)
