"""Config-driven experiment commands: solve, train, evaluate, compare.

Exit codes: 0 success, 2 input error (config or artifact), 3 numeric failure
(or a `train` worker process that ended abruptly).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import artifacts, config as cfgmod, dp, evaluate as ev, learners, salmut
from .artifacts import ArtifactError
from .config import ConfigError, Experiment
from .dp import SolverError
from .model import NoEventError
from .scenarios import rate_segments, trajectory


def _load_experiment(config_path, seed, out, scenario, horizon_scale, learner=None) -> Experiment:
    """The config file overlaid by the command's options, built into an ``Experiment``."""
    ov: dict = {}
    if seed is not None:
        ov["seeds"] = [seed]
    if out is not None:
        ov["output_dir"] = out
    if scenario is not None:
        ov["scenario"] = {"kind": scenario}
    if learner is not None:
        ov["learner"] = {"kind": learner}
    cfg = cfgmod.load_config(config_path, ov)
    if horizon_scale is not None:
        horizon = cfg["learner"]["horizon"] * horizon_scale
        if not (horizon_scale > 0 and math.isfinite(horizon)):
            raise ConfigError("--horizon-scale", "must be finite and > 0")
        cfg["learner"]["horizon"] = max(1, round(horizon))
    return Experiment.from_config(cfg)


def config_option(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="JSON config file; defaults cover the canonical setup.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Single seed override.")(fn)
    fn = click.option("--out", type=click.Path(), default=None, help="Output directory.")(fn)
    fn = click.option("--scenario", type=click.IntRange(1, 6), default=None,
                      help="Traffic scenario kind.")(fn)
    fn = click.option("--horizon-scale", type=float, default=None,
                      help="Scale the training horizon (change points scale with it).")(fn)
    return fn


@click.group()
def main():
    """Edge-server admission control: planning, learning, evaluation."""


class WorkerError(RuntimeError):
    """A worker process ended without returning its seed's result."""


def _run(body) -> None:
    try:
        body()
    except (ConfigError, ArtifactError, FileNotFoundError) as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)
    except SolverError as exc:
        click.echo(f"numeric failure: {exc} (residual {exc.residual!r})", err=True)
        sys.exit(3)
    except NoEventError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(3)
    except WorkerError as exc:
        click.echo(f"worker failure: {exc}", err=True)
        sys.exit(3)


@main.command()
@config_option
def solve(config_path, seed, out, scenario, horizon_scale):
    """Solve the planning problem and write the solution artifact."""

    def body():
        exp = _load_experiment(config_path, seed, out, scenario, horizon_scale)
        sol = dp.value_iteration(
            exp.scenario.initial_aggregate_rate(), exp.chain, **exp.raw["solver"]
        )
        out_dir = exp.output_dir / "dp"
        artifacts.write_json(out_dir / "solution.json", artifacts.solution_to_dict(sol, exp.raw))
        artifacts.write_json(
            out_dir / "policy.json",
            artifacts.policy_artifact("dp", exp.raw, policy=sol.policy.tolist()),
        )
        artifacts.write_manifest(out_dir / "manifest.json", "solve", exp.raw, exp.seeds)
        x0, l0 = exp.eval_config.initial_state
        click.echo(
            f"iterations={sol.iterations} residual={sol.residual!r} "
            f"V({x0},{l0})={float(sol.v[x0, l0])!r}"
        )

    _run(body)


@main.command()
@config_option
@click.option("--learner", type=click.Choice(["salmut", "qlearning"]), default=None)
@click.option("--no-periodic-eval", is_flag=True, default=False,
              help="Skip rollout evaluation at eval points (faster).")
def train(config_path, seed, out, scenario, horizon_scale, learner, no_periodic_eval):
    """Train the configured learner for every seed; write logs and artifacts."""

    def body():
        exp = _load_experiment(config_path, seed, out, scenario, horizon_scale, learner)
        kind = exp.raw["learner"]["kind"]
        out_dir = exp.output_dir / kind
        horizon = exp.raw["learner"]["horizon"]
        curves = []
        train_seed = functools.partial(_train_seed, exp, kind, not no_periodic_eval)
        with _seed_results(train_seed, exp.seeds) as results:
            for s, (art, log, rows, curve) in zip(exp.seeds, results):
                seed_dir = out_dir / f"seed_{s}"
                artifacts.write_json(seed_dir / "policy.json", art)
                artifacts.log_rows_to_csv(seed_dir / "log.csv", log)
                artifacts.write_csv(seed_dir / "trajectory.csv", ("step", "lambda", "n_users"),
                                    rows)
                if curve is not None:
                    curves.append(curve)
                click.echo(f"{kind} seed {s}: done ({horizon} steps)")
        curve = ev.aggregate_training_curves(curves)
        if curve:
            artifacts.write_csv(
                out_dir / "training_curve.csv", ("step", "median", "q1", "q3"), curve
            )
        artifacts.write_manifest(out_dir / "manifest.json", "train", exp.raw, exp.seeds)

    _run(body)


def _train_seed(exp: Experiment, kind: str, periodic_eval: bool, s: int):
    """Train ``kind`` on seed ``s``: its policy artifact, log rows (scored at
    their eval points when ``periodic_eval``), trajectory rows and training
    curve (None without periodic eval)."""
    horizon = exp.raw["learner"]["horizon"]
    rows = trajectory(exp.scenario, horizon, s)
    segments = rate_segments(rows, horizon)
    if kind == "salmut":
        result = salmut.train(segments, exp.chain, exp.salmut, s)
        art = artifacts.policy_artifact(
            "salmut", exp.raw, seed=s,
            tau=result.tau.tolist(), temperature=exp.salmut.temperature,
            policy=ev.policy_table(exp.chain.params, tau=result.tau).tolist(),
        )
    else:
        result = learners.qlearning_train(segments, exp.chain, exp.qlearning, s)
        art = artifacts.policy_artifact(
            "qlearning", exp.raw, seed=s,
            q=result.q.tolist(), policy=result.policy.tolist(),
        )
    log, curve = result.log, None
    if periodic_eval:
        reports = ev.evaluate_batch(
            [(table, lam, (s << 20) + row.step)
             for row, (lam, table) in zip(log, result.evals)],
            exp.eval_config, exp.chain,
        )
        log = [
            dataclasses.replace(row, eval_mean=r.mean, eval_q1=r.q1,
                                eval_median=r.median, eval_q3=r.q3)
            for row, r in zip(log, reports)
        ]
        curve = [(row.step, row.eval_mean) for row in log]
    return art, log, rows, curve


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity: run serially
        return 1


# a worker's ``fn``, set by ``_init_worker`` in the worker process
_worker_fn = None


def _init_worker(parent: int, fn) -> None:
    """Worker initializer: keep ``fn`` for ``_run_seed``, and ask Linux to kill
    this worker when the command's process dies, so that a killed command
    leaves no worker behind."""
    import ctypes
    import signal

    global _worker_fn
    _worker_fn = fn
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:  # the command died before the request took effect
        os._exit(1)


def _run_seed(s: int):
    """A worker's task: its ``fn`` on seed ``s``."""
    return _worker_fn(s)


@contextlib.contextmanager
def _seed_results(fn, seeds):
    """``fn(s)`` for each seed, yielded in seed order as the results arrive.

    With more than one seed and more than one CPU, the seeds run in forked
    worker processes, one per CPU up to one per seed; else in this process.
    Seeds draw only from their own substreams, so a seed's result is the
    same either way.  When a seed fails, the queued ones are cancelled and
    the running ones joined before the error reaches the caller.
    """
    workers = min(len(seeds), _cpu_count())
    if workers == 1:
        yield map(fn, seeds)
        return
    # imported here, so that a command that starts no pool does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # forked, the workers start with numpy and this package imported; spawned
    # ones would import them again, which costs about a seed's work at a
    # small horizon.  The command runs no thread of its own, and the
    # executor starts its manager thread after it has forked the workers.
    # A forked worker inherits its initializer's arguments unpickled, so
    # ``fn`` and the experiment it holds reach it without a copy, and each
    # task carries only its seed.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(os.getpid(), fn))
    try:
        futures = [pool.submit(_run_seed, s) for s in seeds]
        yield (f.result() for f in futures)
    except BrokenProcessPool:
        raise WorkerError("a worker process training a seed ended abruptly") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _load_policy(path: Path, exp: Experiment) -> tuple[str, np.ndarray]:
    """The kind and action table of the policy artifact at ``path``, which
    must be of ``exp``'s chain and carry a ``policy`` table of 0s and 1s."""
    art = artifacts.load_artifact(path, artifacts.POLICY_SCHEMA,
                                  chain_sha=artifacts.chain_hash(exp.raw))
    kind, value = art.get("kind"), art.get("policy")
    if kind not in ("dp", "salmut", "qlearning"):
        raise ArtifactError(f"{path}: unknown policy kind {kind!r}")
    # a null field would leave the table without its source
    if value is None:
        raise ArtifactError(f"{path}: {kind} policy artifact lacks its field 'policy'")
    if not (isinstance(value, list)
            and all(isinstance(row, list) and all(type(a) is int and a in (0, 1) for a in row)
                    for row in value)):
        raise ArtifactError(f"{path}: {kind} policy artifact field 'policy' must be a table "
                            "of 0s and 1s")
    try:
        return kind, ev.policy_table(exp.chain.params, actions=value)
    except ValueError as exc:
        raise ArtifactError(f"{path}: {exc}") from None


@main.command()
@config_option
@click.option("--artifact", "artifact_path", type=click.Path(), default=None,
              help="Policy artifact to evaluate.")
@click.option("--check-structure", "structure_path", type=click.Path(), default=None,
              help="Print monotone-value / threshold-policy verdicts for a solution artifact.")
@click.option("--curves-from", "curves_dir", type=click.Path(), default=None,
              help="Aggregate per-seed training logs under DIR into a training curve.")
def evaluate(config_path, seed, out, scenario, horizon_scale, artifact_path,
             structure_path, curves_dir):
    """Evaluate a policy artifact, check structure, or aggregate training curves."""

    def body():
        exp = _load_experiment(config_path, seed, out, scenario, horizon_scale)
        did_something = False
        if structure_path is not None:
            sol = artifacts.load_artifact(Path(structure_path), artifacts.SOLUTION_SCHEMA)
            v = np.array(sol["v"])
            policy = np.array(sol["policy"])
            mono = dp.check_value_monotone(v)
            thr = dp.check_threshold_structure(policy)
            click.echo(
                "value monotone in load: "
                + ("PASS" if mono.passed else f"FAIL ({len(mono.violations)} violations)")
            )
            click.echo(
                "threshold policy: "
                + ("PASS" if thr.passed else f"FAIL (first violation {thr.violation})")
            )
            did_something = True
        if curves_dir is not None:
            rows = _aggregate_curves_from_dir(Path(curves_dir))
            artifacts.write_csv(
                Path(curves_dir) / "training_curve.csv",
                ("step", "median", "q1", "q3"),
                rows,
            )
            click.echo(f"training_curve.csv: {len(rows)} points")
            did_something = True
        if artifact_path is not None:
            kind, policy = _load_policy(Path(artifact_path), exp)
            lam = exp.scenario.initial_aggregate_rate()
            report = ev.evaluate(policy, exp.eval_config, lam, exp.chain, seed=exp.seeds[0])
            out_dir = exp.output_dir / "eval"
            artifacts.write_json(out_dir / "report.json", {
                "kind": kind, **dataclasses.asdict(report), "lambda": lam,
                "config_sha256": artifacts.config_hash(exp.raw),
            })
            artifacts.write_manifest(out_dir / "manifest.json", "evaluate", exp.raw, exp.seeds)
            click.echo(
                f"{kind}: mean={report.mean!r} median={report.median!r} "
                f"q1={report.q1!r} q3={report.q3!r}"
            )
            did_something = True
        if not did_something:
            raise ConfigError("evaluate", "nothing to do: pass --artifact, "
                                          "--check-structure or --curves-from")

    _run(body)


def _aggregate_curves_from_dir(root: Path):
    import csv

    curves = []
    for log_path in sorted(root.glob("seed_*/log.csv")):
        with open(log_path, newline="") as fh:
            try:
                curves.append([(int(rec["step"]), float(rec["eval_mean"]))
                               for rec in csv.DictReader(fh) if rec["eval_mean"]])
            except KeyError as exc:
                raise ArtifactError(f"{log_path}: no column {exc}") from None
            except (TypeError, ValueError) as exc:  # a short row reads None
                raise ArtifactError(f"{log_path}: {exc}") from None
    if not curves:
        raise FileNotFoundError(f"no seed_*/log.csv under {root}")
    return ev.aggregate_training_curves(curves)


@main.command()
@config_option
@click.option("--trace-seed", type=int, default=1234, show_default=True,
              help="Seed of the shared event trace.")
@click.option("--trace-length", type=click.IntRange(min=1), default=None,
              help="Trace length; defaults to the configured horizon.")
def compare(config_path, seed, out, scenario, horizon_scale, trace_seed, trace_length):
    """Run planner, learners and baseline on one shared trace; emit metrics CSVs.

    Reads the policy artifacts dp/policy.json (from `solve`) and
    salmut/seed_<s>/policy.json and qlearning/seed_<s>/policy.json (from
    `train`, ``s`` the first seed) under the output directory; the baseline
    comes from the config's learner.baseline.
    """

    def body():
        exp = _load_experiment(config_path, seed, out, scenario, horizon_scale)
        root = exp.output_dir
        seed_dir = f"seed_{exp.seeds[0]}"
        policies = {kind: _load_policy(root / path, exp)[1] for kind, path in (
            ("dp", "dp/policy.json"),
            ("salmut", f"salmut/{seed_dir}/policy.json"),
            ("qlearning", f"qlearning/{seed_dir}/policy.json"),
        )}
        policies["baseline"] = ev.policy_table(
            exp.chain.params, accept_below=exp.baseline.accept_below
        )

        horizon = trace_length or exp.raw["learner"]["horizon"]
        trace = ev.EventTrace.generate(trace_seed, horizon)
        series = ev.behavioral_compare(policies, exp.scenario, exp.chain, trace, exp.eval_config)
        out_dir = root / "compare"
        artifacts.write_csv(
            out_dir / "behavioral.csv",
            ("window", "policy", "c_ov", "c_off", "cost_discounted", "cost_undiscounted"),
            (
                (w.index, name, w.c_ov, w.c_off, w.cost_discounted, w.cost_undiscounted)
                for name in sorted(series)
                for w in series[name].windows
            ),
        )
        artifacts.write_csv(
            out_dir / "scatter.csv",
            ("policy", "window", "c_off", "c_ov"),
            (
                (name, w.index, w.c_off, w.c_ov)
                for name in sorted(series)
                for w in series[name].windows
            ),
        )
        names = sorted(policies)
        reports = ev.evaluate_batch(
            [(policies[name], exp.scenario.initial_aggregate_rate(), exp.seeds[0])
             for name in names],
            exp.eval_config,
            exp.chain,
        )
        cost_rows = []
        for name, report in zip(names, reports):
            cost_rows.append((name, report.mean, report.q1, report.median, report.q3))
            click.echo(f"{name}: mean={report.mean!r}")
        artifacts.write_csv(
            out_dir / "compare_costs.csv",
            ("policy", "mean", "q1", "median", "q3"),
            cost_rows,
        )
        artifacts.write_json(
            out_dir / "summary.json",
            {
                "trace_seed": trace_seed,
                "trace_length": horizon,
                "totals": {
                    name: {
                        "c_ov": sum(w.c_ov for w in ps.windows),
                        "c_off": sum(w.c_off for w in ps.windows),
                        "trap_step": ps.trap_step,
                    }
                    for name, ps in sorted(series.items())
                },
                "config_sha256": artifacts.config_hash(exp.raw),
            },
        )
        artifacts.write_manifest(out_dir / "manifest.json", "compare", exp.raw, exp.seeds)

    _run(body)


if __name__ == "__main__":
    main()
