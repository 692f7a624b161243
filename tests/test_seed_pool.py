"""`train` runs its seeds in worker processes: same bytes, clean failures."""

import json
import os
import pickle
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

from edgeadmit import cli, config as cfgmod
from edgeadmit.cli import main
from edgeadmit.config import ConfigError, Experiment
from edgeadmit.dp import SolverError
from edgeadmit.model import CostTableWarning, NoEventError

SRC = Path(cli.__file__).resolve().parents[1]


@pytest.mark.parametrize("exc", [
    NoEventError(),
    ConfigError("learner.horizon", "must be an integer in [1, 2**53]"),
    SolverError("value iteration did not converge", 0.25),
])
def test_cli_errors_round_trip_through_pickle(exc):
    # a worker's error reaches the parent pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.__dict__ == exc.__dict__
    if isinstance(exc, ConfigError):
        assert back.path == "learner.horizon"
    if isinstance(exc, SolverError):
        assert back.residual == 0.25


def _train_config(tmp_path, seeds, horizon=3000, **extra):
    cfg = {
        "learner": {"horizon": horizon, "eval_every": 1000},
        "eval": {"rollout_length": 200, "n_rollouts": 8},
        "seeds": seeds,
        "output_dir": str(tmp_path / "runs"),
        **extra,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def _workers(monkeypatch, n):
    monkeypatch.setattr(cli, "_cpu_count", lambda: n)


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _assert_no_children():
    # every worker was reaped: this process has no child left, running or not
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("flags", [[], ["--no-periodic-eval"]])
def test_cli_train_pool_writes_the_serial_bytes(tmp_path, monkeypatch, flags):
    cfg_path = _train_config(tmp_path, [0, 1, 2])
    runs = tmp_path / "runs"
    trees, outputs = [], []
    for n in (1, 2):
        _workers(monkeypatch, n)
        result = CliRunner().invoke(main, ["train", "--config", str(cfg_path), *flags])
        assert result.exit_code == 0, result.output
        trees.append(_tree(runs))
        outputs.append(result.output)
        for p in sorted(runs.rglob("*"), reverse=True):
            p.unlink() if p.is_file() else p.rmdir()
    assert trees[0] == trees[1]
    assert len(trees[0]) == 3 * 3 + 1 + (not flags)  # per seed 3 files, manifest, curve
    assert outputs[0] == outputs[1]
    assert outputs[1].splitlines()[-3:] == [
        f"salmut seed {s}: done (3000 steps)" for s in (0, 1, 2)
    ]
    _assert_no_children()


def test_cli_train_pool_seed_failure_is_one_line_exit_3(tmp_path, monkeypatch):
    # the population dies out, so the chain reaches lam == 0 with an empty
    # queue in every seed's worker
    _workers(monkeypatch, 2)
    cfg_path = _train_config(
        tmp_path, [0, 1], horizon=5000,
        scenario={"kind": 4, "n_users": 1, "leave_prob": 1.0, "stay_prob": 0.0,
                  "add_prob": 0.0},
    )
    result = CliRunner().invoke(main, ["train", "--config", str(cfg_path)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip().splitlines() == [
        "numeric failure: no event possible: lam == 0 and empty queue"
    ]
    _assert_no_children()


def test_cli_train_pool_tasks_carry_only_the_seed(tmp_path, monkeypatch):
    # the forked workers inherit the experiment, so nothing pickles it: with
    # pickling refused, two workers still write the serial bytes
    cfg_path = _train_config(tmp_path, [0, 1, 2], horizon=1000)
    runs, trees = tmp_path / "runs", []
    args = ["train", "--config", str(cfg_path), "--no-periodic-eval"]
    _workers(monkeypatch, 1)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    trees.append(_tree(runs))
    shutil.rmtree(runs)

    def refuse(self, protocol):
        raise pickle.PicklingError("an experiment was pickled")

    monkeypatch.setattr(Experiment, "__reduce_ex__", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(pickle.PicklingError):
            pickle.dumps(Experiment.from_config(cfgmod.load_config(cfg_path)))
    _workers(monkeypatch, 2)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    trees.append(_tree(runs))
    assert trees[0] == trees[1]
    _assert_no_children()


def _die(*args):
    os._exit(1)


def test_cli_train_pool_worker_death_is_one_line_exit_3(tmp_path, monkeypatch):
    _workers(monkeypatch, 2)
    monkeypatch.setattr(cli, "_train_seed", _die)
    cfg_path = _train_config(tmp_path, [0, 1, 2])
    result = CliRunner().invoke(main, ["train", "--config", str(cfg_path)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip().splitlines() == [
        "worker failure: a worker process training a seed ended abruptly"
    ]
    assert "Traceback" not in result.output
    _assert_no_children()


def test_cli_import_loads_neither_numpy_random_nor_a_pool_library():
    # a command's setup time and peak memory are its own process's, and a
    # command that draws nothing or runs one seed never needs these
    code = ("import sys, edgeadmit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('numpy', 'multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split("'")[1::2]
    assert "numpy" in loaded
    assert [m for m in loaded if m.startswith(("numpy.random", "multiprocessing", "concurrent"))] \
        == []


def test_cost_table_warning_names_the_costs_section():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Experiment.from_config(cfgmod.load_config())
    assert [(w.category, str(w.message)) for w in caught] == [(
        CostTableWarning,
        "config warning at costs: running cost is not weakly increasing in load; "
        "running + penalty is not weakly increasing in load",
    )]
    # attributed to the line that built the experiment, not to config.py
    assert caught[0].filename == __file__


def test_cli_train_pool_warns_once(tmp_path):
    # workers rebuild nothing from the config, so the command warns once
    cfg_path = _train_config(tmp_path, [0, 1], horizon=1000)
    code = "from edgeadmit import cli; cli._cpu_count = lambda: 2; cli.main()"
    proc = subprocess.run(
        [sys.executable, "-c", code, "train", "--config", str(cfg_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("CostTableWarning") == 1
    assert "config warning at costs:" in proc.stderr
    assert proc.stdout.splitlines() == [f"salmut seed {s}: done (1000 steps)" for s in (0, 1)]


def test_cli_config_warning_is_one_stderr_line(tmp_path):
    # the category and the message, without a line of the program's source
    code = "from edgeadmit import cli; cli.main()"
    proc = subprocess.run(
        [sys.executable, "-c", code, "solve", "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "CostTableWarning: config warning at costs: running cost is not weakly increasing in "
        "load; running + penalty is not weakly increasing in load"
    ]


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")  # an orphan's zombie waits for init to reap it


def test_cli_train_pool_workers_die_with_a_killed_command(tmp_path):
    # a command killed from outside runs no cleanup of its own; the kernel
    # kills its workers with it
    cfg_path = _train_config(tmp_path, [0, 1], horizon=10**6)
    code = "from edgeadmit import cli; cli._cpu_count = lambda: 2; cli.main()"
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "train", "--config", str(cfg_path), "--no-periodic-eval"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    try:
        if not children.exists():
            pytest.skip("no /proc children list on this system")
        deadline = time.monotonic() + 60
        while len(workers := children.read_text().split()) < 2:
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.01)
    finally:
        proc.kill()
        proc.wait(timeout=60)
    deadline = time.monotonic() + 10
    while any(_alive(int(w)) for w in workers):
        assert time.monotonic() < deadline, f"workers {workers} outlived the command"
        time.sleep(0.01)
