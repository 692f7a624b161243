#!/usr/bin/env python3
"""Benchmark of the edgeadmit CLI: three workloads, timed end to end or traced per layer.

    python3 bench/run.py --workload desk-s1 --seed 0 --seconds 36 --trace 0

Run from the root of a checkout.  With ``--trace 0`` each round runs the
workload's commands as separate processes that run ``edgeadmit.cli``, one
at a time, like ``scripts/run_study.py``, and the end-to-end metrics are
reported.  With ``--trace 1`` each round runs the same commands in this
process twice, untraced and then with spans around the layers' public
functions, and the per-layer metrics are reported.  Rounds repeat while
the next one is expected to end within ``--seconds``; at least one round
runs.  End-to-end times are given at a fixed reference CPU speed, which
every timed process samples while it runs (see ``PROBE_CODE``).  Every
round's outputs are checked by ``checks.py``; the spans are recorded by
``spans.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units are those of ``BENCHMARK.json``.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = Path("bench") / "out"   # relative to ROOT, which is the working directory

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import spans  # noqa: E402

# fresh processes timed for setup_s, after one untimed warm-up that also
# leaves the bytecode cache written
SETUP_REPS = 9

# A shared host's vCPU changes speed by up to 1.8 times, from one second to
# the next, and a slow or fast spell can last minutes.  So every timed
# process samples its own speed while it runs: a timer interrupts it every
# PROBE_EVERY_S, and each probe runs two loops for PROBE_SPIN_S each,
# counting the rounds each gets through: pure-Python arithmetic, and, once
# the program has finished importing numpy, calls to numpy.searchsorted on
# a small array.  PROBE_TAIL more probes run as the process exits.  A
# process's speed factor is a loop's mean rate divided by its nominal rate.
# Its wall time, less the probes' own time, times that factor is its time
# at the reference speed.  End-to-end times are these: they follow the
# work the program does, not the host's load.  Commands are scaled by the
# numpy loop, since numpy calls from Python are what their hot loops are
# made of; setup_s is scaled by the Python loop, since importing is pure
# Python.  Each tracks its own kind of work more closely than the other
# does.  The probes import nothing, so they take no import off the timed
# part.
PROBE_EVERY_S = 0.025
PROBE_SPIN_S = 0.00025
PROBE_TAIL = 8
PY_NOMINAL_RATE = 700_000.0   # pure-Python rounds per second at the reference speed
NP_NOMINAL_RATE = 550_000.0   # numpy calls per second at the reference speed
PROBE_CODE = f"""\
import _signal, sys as _sys, time as _time

# probes of each loop, sums of their rates, seconds spent in probes
_probe = {{"py": 0, "py_rate": 0.0, "np": 0, "np_rate": 0.0, "s": 0.0}}
_cdf = []

def _on_probe(signum=None, frame=None):
    clock = _time.perf_counter
    t0 = t = clock()
    n = 0
    while t - t0 < {PROBE_SPIN_S}:
        s = 0
        for i in range(25):
            s += (i * i) % 7
        n += 1
        t = clock()
    _probe["py"] += 1
    _probe["py_rate"] += n / (t - t0)
    np = _sys.modules.get("numpy")
    if np is not None and not getattr(np.__spec__, "_initializing", False):
        if not _cdf:
            _cdf.append(np.linspace(0.0, 1.0, 9))
        search, cdf, n = np.searchsorted, _cdf[0], 0
        t1 = t = clock()
        while t - t1 < {PROBE_SPIN_S}:
            search(cdf, n % 7 * 0.125, side="right")
            n += 1
            t = clock()
        _probe["np"] += 1
        _probe["np_rate"] += n / (t - t1)
    _probe["s"] += clock() - t0

_signal.signal(_signal.SIGALRM, _on_probe)
_signal.setitimer(_signal.ITIMER_REAL, {PROBE_EVERY_S}, {PROBE_EVERY_S})
"""


@dataclass
class Plan:
    """One round of a workload: config files, CLI commands in order, and its checks."""

    configs: dict[Path, dict]
    commands: list[tuple[str, list[str]]]   # (layer span name, CLI arguments)
    sim_steps: int                          # uniformized steps the commands simulate
    check: Callable[[], None]


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        out[key] = _merge(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


def _overlay(base: str, extra: dict) -> dict:
    """A repository config file with ``extra`` merged over it."""
    return _merge(json.loads((ROOT / base).read_text()), extra)


def _train_steps(cfg: dict, horizon: int, periodic_eval: bool) -> int:
    """Training steps plus the periodic-eval rollout steps of one `train` command."""
    steps = horizon
    if periodic_eval:
        ev = cfg["eval"]
        steps += horizon // cfg["learner"]["eval_every"] * ev["n_rollouts"] * ev["rollout_length"]
    return steps


def desk_s1(out: Path, seed: int) -> Plan:
    cfg = _overlay("configs/desk_scale.json", {"scenario": {"kind": 1}, "output_dir": str(out)})
    path = out / "config.json"
    base = ["--config", str(path), "--seed", str(seed)]
    horizon, ev = cfg["learner"]["horizon"], cfg["eval"]
    policies = 4   # dp, salmut, qlearning, baseline
    steps = (2 * _train_steps(cfg, horizon, True)
             + policies * horizon + policies * ev["n_rollouts"] * ev["rollout_length"])

    def check() -> None:
        checks.check_solution(out)
        checks.check_compare(out, seed, trace_seed=seed)
        checks.check_curve(out / "salmut", seed)

    return Plan(
        {path: cfg},
        [
            ("solve", ["solve", *base]),
            ("train", ["train", *base, "--learner", "salmut"]),
            ("train", ["train", *base, "--learner", "qlearning"]),
            ("compare", ["compare", *base, "--trace-seed", str(seed)]),
            ("curves", ["evaluate", *base, "--curves-from", str(out / "salmut")]),
        ],
        steps,
        check,
    )


FULLSCALE_HORIZON_SCALE = 0.01
# Each command trains this many consecutive seeds.  A trained policy's
# accept rate sets what its rollouts cost, and it varies with the seed: one
# seed's round time moves by about 6 % from seed to seed; two seeds per
# command shrink that spread by about sqrt(2).
FULLSCALE_SEEDS = 2


def fullscale_eval_s2(out: Path, seed: int) -> Plan:
    seeds = [(seed + i) % 2**32 for i in range(FULLSCALE_SEEDS)]
    cfg = _overlay("configs/full_scale.json",
                   {"scenario": {"kind": 2}, "seeds": seeds, "output_dir": str(out)})
    path = out / "config.json"
    base = ["--config", str(path), "--horizon-scale", str(FULLSCALE_HORIZON_SCALE)]
    horizon = max(1, round(cfg["learner"]["horizon"] * FULLSCALE_HORIZON_SCALE))

    def check() -> None:
        for s in seeds:
            checks.check_final_eval(out / "salmut", s)
            checks.check_final_eval(out / "qlearning", s)

    return Plan(
        {path: cfg},
        [
            ("train", ["train", *base, "--learner", "salmut"]),
            ("train", ["train", *base, "--learner", "qlearning"]),
        ],
        2 * len(seeds) * _train_steps(cfg, horizon, True),
        check,
    )


def learn_s6(out: Path, seed: int) -> Plan:
    configs, commands, steps = {}, [], 0
    for mode, learner in (("adam", "salmut"), ("decay", "salmut"), ("adam", "qlearning")):
        cfg = _overlay("configs/desk_scale.json", {
            "scenario": {"kind": 6},
            "learner": {"salmut": {"mode": mode}},
            "output_dir": str(out / mode),
        })
        path = out / f"{mode}.json"
        configs[path] = cfg
        commands.append(("train", ["train", "--config", str(path), "--seed", str(seed),
                                   "--learner", learner, "--no-periodic-eval"]))
        steps += _train_steps(cfg, cfg["learner"]["horizon"], False)

    def check() -> None:
        checks.check_learner(out / "adam" / "salmut", seed)
        checks.check_learner(out / "decay" / "salmut", seed)
        checks.check_learner(out / "adam" / "qlearning", seed)

    return Plan(configs, commands, steps, check)


WORKLOADS = {
    "desk-s1": desk_s1,
    "fullscale-eval-s2": fullscale_eval_s2,
    "learn-s6": learn_s6,
}


def prepare(workload: str, seed: int) -> tuple[Path, Plan]:
    """A clean output directory holding the round's config files."""
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    plan = WORKLOADS[workload](out, seed)
    for path, cfg in plan.configs.items():
        path.write_text(json.dumps(cfg, indent=2) + "\n")
    return out, plan


# ---------------------------------------------------------------------------
# untraced: one process per command


def _child_env(peak_file: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # commands use the bytecode cache, as an installed package would; the
    # untimed warm-up process of measure_setup writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["BENCH_PEAK_FILE"] = str(peak_file)
    return env


# A child's rusage ru_maxrss also counts the memory of this process, which
# the child starts as a copy of, so each command reports its own high-water
# mark (VmHWM) on exit instead, with its speed probes.
RECORD_CODE = f"""\
import atexit, json, os

def _record():
    _signal.setitimer(_signal.ITIMER_REAL, 0)
    for _ in range({PROBE_TAIL}):
        _on_probe()
    with open("/proc/self/status") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(os.environ["BENCH_PEAK_FILE"], "w") as fh:
        json.dump({{"peak_kib": int(kib), **_probe}}, fh)

atexit.register(_record)
"""

CLI_CODE = PROBE_CODE + RECORD_CODE + """\
import runpy
runpy.run_module("edgeadmit.cli", run_name="__main__", alter_sys=True)
"""

SETUP_CODE = PROBE_CODE + RECORD_CODE + """\
import sys
from edgeadmit import cli, config
config.Experiment.from_config(config.load_config(sys.argv[1]))
"""


@dataclass
class Proc:
    """One finished process: exit code, wall seconds less its probes' time,
    peak RSS in MB, and its speed factors by the Python and the numpy loop."""

    rc: int
    wall: float
    peak_mb: float
    py_speed: float
    np_speed: float


def run_process(code: str, args: list[str], out: Path) -> Proc:
    """Run ``python -c code args`` to its end."""
    peak_file = out / "peak.json"
    peak_file.unlink(missing_ok=True)
    with open(out / "commands.log", "ab") as log:
        t0 = time.perf_counter()
        rc = subprocess.run([sys.executable, "-c", code, *args], stdout=log, stderr=log,
                            stdin=subprocess.DEVNULL, cwd=ROOT, env=_child_env(peak_file)).returncode
        wall = time.perf_counter() - t0
    if not peak_file.is_file():
        return Proc(rc or 1, wall, 0.0, 1.0, 1.0)
    rec = json.loads(peak_file.read_text())
    if not rec["np"]:   # numpy never loaded: the command failed early
        return Proc(rc or 1, wall, rec["peak_kib"] / 1024.0, 1.0, 1.0)
    return Proc(rc, wall - rec["s"], rec["peak_kib"] / 1024.0,
                rec["py_rate"] / rec["py"] / PY_NOMINAL_RATE,
                rec["np_rate"] / rec["np"] / NP_NOMINAL_RATE)


def measure_setup(workload: str, seed: int) -> list[Proc]:
    """Fresh processes that import the CLI and build the Experiment."""
    out, plan = prepare(workload, seed)
    cfg_path = str(next(iter(plan.configs)))
    procs = []
    for i in range(SETUP_REPS + 1):
        proc = run_process(SETUP_CODE, [cfg_path], out)
        if proc.rc != 0:
            sys.exit(f"bench: setup process failed (exit {proc.rc}); see {out / 'commands.log'}")
        if i:
            procs.append(proc)
    return procs


class Tally:
    def __init__(self) -> None:
        self.attempted = self.failed = self.checked = 0
        self.problems: list[str] = []

    def check(self, plan: Plan, round_failed: bool) -> None:
        if round_failed:
            return
        try:
            plan.check()
            self.checked += 1
        except checks.CheckFailed as exc:
            self.problems.append(str(exc))
        except Exception:  # malformed outputs fail the check; the run goes on
            self.problems.append(traceback.format_exc())

    @property
    def correct(self) -> bool:
        return self.checked > 0 and not self.problems


def another_round(start: float, round_s: list[float], seconds: float) -> bool:
    """Whether a round should start, given the seconds each earlier one took:
    the first always does, a later one only if a round as long as the
    longest so far would end within ``seconds`` of ``start``."""
    return not round_s or time.perf_counter() - start + max(round_s) <= seconds


def run_untraced(workload: str, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    start = time.perf_counter()
    setup = measure_setup(workload, seed)
    rounds, round_s, peak, steps = [], [], 0.0, 0
    while another_round(start, round_s, seconds):
        t0 = time.perf_counter()
        out, plan = prepare(workload, seed)
        procs, round_failed = [], False
        for _, args in plan.commands:
            proc = run_process(CLI_CODE, args, out)
            procs.append(proc)
            peak = max(peak, proc.peak_mb)
            tally.attempted += 1
            if proc.rc != 0:
                tally.failed += 1
                round_failed = True
                print(f"bench: `edgeadmit {' '.join(args)}` exited {proc.rc}", file=sys.stderr)
        rounds.append(procs)
        print(f"bench: round {len(rounds)}: {sum(p.wall for p in procs):.3f} s measured, "
              f"{sum(p.wall * p.np_speed for p in procs):.3f} s at the reference speed",
              file=sys.stderr)
        steps = plan.sim_steps
        tally.check(plan, round_failed)
        round_s.append(time.perf_counter() - t0)
    wall = statistics.median(sum(p.wall * p.np_speed for p in procs) for procs in rounds)
    print(f"bench: measured setup {statistics.median(p.wall for p in setup):.4f} s, speed "
          f"{statistics.median(p.py_speed for p in setup):.3f}; measured wall "
          f"{statistics.median(sum(p.wall for p in procs) for procs in rounds):.4f} s, speed "
          f"{statistics.median(p.np_speed for procs in rounds for p in procs):.3f}", file=sys.stderr)
    return {
        "setup_s": statistics.median(p.wall * p.py_speed for p in setup),
        "wall_s": wall,
        "sim_steps_per_s": steps / wall,
        "peak_rss_mb": peak,
    }


# ---------------------------------------------------------------------------
# traced: in this process, with and without spans


def _call_cli(args: list[str]) -> int:
    """One CLI command in this process; its exit code, as a process would return it."""
    import click
    from edgeadmit import cli

    try:
        cli.main.main(args=args, prog_name="edgeadmit", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        return exc.exit_code
    except Exception:  # a traceback, as the process would print it
        traceback.print_exc()
        return 1
    return 0


def run_inprocess(plan: Plan, out: Path, tally: Tally, tracer=None) -> tuple[float, bool]:
    round_failed = False
    t0 = time.perf_counter()
    with open(out / "commands.log", "a") as log, contextlib.redirect_stdout(log):
        for name, args in plan.commands:
            tally.attempted += 1
            with tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext():
                rc = _call_cli(args)
            if rc != 0:
                tally.failed += 1
                round_failed = True
                print(f"bench: `edgeadmit {' '.join(args)}` exited {rc}", file=sys.stderr)
    return time.perf_counter() - t0, round_failed


def run_traced(workload: str, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    sys.path.insert(0, str(SRC))
    import edgeadmit

    if Path(edgeadmit.__file__).resolve().parent != SRC / "edgeadmit":
        sys.exit(f"bench: imported edgeadmit from {edgeadmit.__file__}, not {SRC}")
    rounds, round_s = [], []
    start = time.perf_counter()
    while another_round(start, round_s, seconds):
        t0 = time.perf_counter()
        out, plan = prepare(workload, seed)
        plain, failed = run_inprocess(plan, out, tally)
        tally.check(plan, failed)
        out, plan = prepare(workload, seed)
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            traced, failed = run_inprocess(plan, out, tally, tracer)
        tally.check(plan, failed)
        metrics = spans.layer_metrics(tracer)
        metrics["trace.wall_s"] = traced
        metrics["trace.overhead_s"] = traced - plain
        rounds.append(metrics)
        round_s.append(time.perf_counter() - t0)
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "edgeadmit" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        sys.exit(f"bench: no edgeadmit sources under {SRC}; run from a checkout of the repository")
    os.chdir(ROOT)
    spec = json.loads(spec_path.read_text())
    seed = ns.seed % 2**32   # the CLI's substreams need a non-negative seed

    tally = Tally()
    if ns.trace:
        values = run_traced(ns.workload, seed, ns.seconds, tally)
        wanted = spec["per_layer"]
    else:
        values = run_untraced(ns.workload, seed, ns.seconds, tally)
        wanted = spec["end_to_end"]
    for problem in tally.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{ns.workload} {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
