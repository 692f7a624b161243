"""scripts/run_study.py rejects bad flags at parse time and stops at a failing command."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_study.py"


@pytest.fixture
def run_study(monkeypatch):
    spec = importlib.util.spec_from_file_location("run_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # each command is recorded, without the interpreter, and exits with the
    # next code of ``exit_codes``
    module.calls, module.exit_codes = [], []

    def fake_run(cmd):
        module.calls.append(cmd[3:])
        return subprocess.CompletedProcess(cmd, module.exit_codes.pop(0))

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    return module


@pytest.mark.parametrize("length", ["0", "-3", "x"])
def test_trace_length_below_one_is_rejected_at_parse_time(run_study, monkeypatch, capsys, length):
    monkeypatch.setattr(sys, "argv", ["run_study.py", "--trace-length", length])
    with pytest.raises(SystemExit) as exit_info:
        run_study.main()
    assert exit_info.value.code == 2
    assert "--trace-length" in capsys.readouterr().err
    assert run_study.calls == []


def test_trace_length_above_the_horizon_cap_is_rejected_at_parse_time(run_study, monkeypatch,
                                                                      capsys, tmp_path):
    # compare would refuse it, but only after solve and both trains had run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "runs")}))
    monkeypatch.setattr(sys, "argv", ["run_study.py", "--config", str(cfg),
                                      "--trace-length", str(2**53 + 1)])
    with pytest.raises(SystemExit) as exit_info:
        run_study.main()
    assert exit_info.value.code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.endswith(f"argument --trace-length: must be in [1, 2**53], got {2**53 + 1}")
    assert run_study.calls == []
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("kinds", [["9"], ["1", "0"], ["x"]])
def test_scenario_outside_1_to_6_is_rejected_at_parse_time(run_study, monkeypatch, capsys,
                                                          tmp_path, kinds):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "runs")}))
    monkeypatch.setattr(sys, "argv", ["run_study.py", "--config", str(cfg), "--scenarios", *kinds])
    run_study.exit_codes = [2]  # as `solve --scenario 9` would exit
    with pytest.raises(SystemExit) as exit_info:
        run_study.main()
    assert exit_info.value.code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert "argument --scenarios: invalid" in line
    assert run_study.calls == []
    assert not (tmp_path / "runs").exists()


def test_failing_command_ends_the_study_with_its_code(run_study, monkeypatch, capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "runs")}))
    monkeypatch.setattr(sys, "argv", ["run_study.py", "--config", str(cfg), "--scenarios", "3",
                                      "--trace-length", "1"])
    run_study.exit_codes = [0, 0, 3]  # solve, train salmut, then train qlearning fails
    with pytest.raises(SystemExit) as exit_info:
        run_study.main()
    assert exit_info.value.code == 3
    assert [args[0] for args in run_study.calls] == ["solve", "train", "train"]
    [line] = capsys.readouterr().err.splitlines()
    out = tmp_path / "runs" / "scenario_3"
    assert line == (f"run_study: `edgeadmit train --config {cfg} --scenario 3 --out {out} "
                    "--learner qlearning` exited 3")


def test_each_command_prints_its_wall_time_on_stdout(run_study, monkeypatch, capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "runs")}))
    monkeypatch.setattr(sys, "argv", ["run_study.py", "--config", str(cfg), "--scenarios", "2"])
    run_study.exit_codes = [0] * 5
    run_study.main()
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split()[4] for line in lines[0:10:2]] == [
        "solve", "train", "train", "compare", "evaluate"]
    assert all(re.fullmatch(r"  wall \d+\.\d{3} s", line) for line in lines[1:10:2])
    assert lines[10:] == [f"scenario 2: outputs under {tmp_path / 'runs' / 'scenario_2'}"]
    assert captured.err == ""
    assert not (tmp_path / "runs").exists()  # no timing goes into the outputs


@pytest.mark.parametrize("config, error", [
    ({"modle": {}}, "config error at modle: unknown key"),
    ({"output_dir": 5}, "config error at output_dir: must be a string"),
    # a config that loads but does not build
    pytest.param({"model": {"cores": 0}}, "config error at model: cores must be an integer >= 1",
                 id="model-cores-0"),
])
def test_config_that_does_not_load_ends_the_study_before_any_command(run_study, monkeypatch,
                                                                     capsys, tmp_path,
                                                                     config, error):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.setattr(sys, "argv", ["run_study.py", "--config", str(cfg)])
    with pytest.raises(SystemExit) as exit_info:
        run_study.main()
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"run_study: {error}\n"
    assert run_study.calls == []


@pytest.mark.parametrize("scale, error", [
    ("-1", "must be finite and > 0"),
    ("nan", "must be finite and > 0"),
    (str(2.0**53), "horizon must be an integer in [1, 2**53]"),  # the horizon past 2**53
])
def test_bad_horizon_scale_ends_the_study_before_any_command(run_study, monkeypatch, capsys,
                                                             tmp_path, scale, error):
    # checked before any command runs, as --trace-length is; solve used to
    # start before refusing it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "runs")}))
    monkeypatch.setattr(sys, "argv", ["run_study.py", "--config", str(cfg),
                                      "--horizon-scale", scale])
    run_study.exit_codes = [0] * 5
    with pytest.raises(SystemExit) as exit_info:
        run_study.main()
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"run_study: config error at --horizon-scale: {error}\n"
    assert captured.out == ""
    assert run_study.calls == []
    assert not (tmp_path / "runs").exists()
