"""Config-driven experiment commands: solve, train, evaluate, compare.

Exit codes: 0 success, 2 input error (config, artifact, a file that cannot
be read or written, or a size too large to allocate), 3 numeric failure (or
a `train` worker process that ended abruptly).

``run`` is the process's entry point (``python -m edgeadmit.cli`` and the
``edgeadmit`` script); ``main``, the click group, is what tests call
in-process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import os
import pickle
import signal
import sys
import warnings
from pathlib import Path

import click
import numpy as np

from . import artifacts, config as cfgmod, dp, evaluate as ev, learners, salmut
from .artifacts import ArtifactError
from .config import ConfigError, Experiment
from .dp import SolverError
from .model import NoEventError, finite, policy_table
from .scenarios import PopulationError, rate_segments, trajectory


def _load_experiment(config_path, seed, out, scenario, horizon_scale, learner) -> Experiment:
    """The config file overlaid by the command's options, built into an
    ``Experiment`` whose horizon is scaled by ``horizon_scale``; each config
    warning is one line on stderr, with no line of source."""
    ov: dict = {}
    if seed is not None:
        ov["seeds"] = [seed]
    if out is not None:
        ov["output_dir"] = out
    if scenario is not None:
        ov["scenario"] = {"kind": scenario}
    if learner is not None:
        ov["learner"] = {"kind": learner}
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, category, *_: click.echo(
            f"{category.__name__}: {message}", err=True)
        return Experiment.from_config(cfgmod.load_config(config_path, ov), horizon_scale)


@click.group()
def main():
    """Edge-server admission control: planning, learning, evaluation."""


def run() -> None:
    """The ``edgeadmit`` process's entry point: ``main``, then ``gc.freeze()``.

    A frozen heap is out of the cyclic collector's reach, so the process's
    exit skips a final collection of memory that the OS takes back anyway
    (about 20 ms a command).  The atexit handlers and the flushes of stdout
    and stderr still run, and every output file is closed before ``main``
    returns.  Tests call ``main`` in-process, where the heap keeps being
    collected.
    """
    try:
        main()
    finally:
        gc.freeze()


class WorkerError(RuntimeError):
    """A worker process ended without returning its seed's result."""


# every command's options, the overlays and the scale its experiment is built with
_COMMON_OPTIONS = (
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="JSON config file; defaults cover the canonical setup."),
    click.option("--seed", type=int, default=None, help="Single seed override."),
    click.option("--out", type=click.Path(), default=None, help="Output directory."),
    click.option("--scenario", type=click.IntRange(1, 6), default=None,
                 help="Traffic scenario kind."),
    click.option("--horizon-scale", type=float, default=None,
                 help="Scale the training horizon (change points scale with it)."),
)


def command(*options):
    """A subcommand ``fn(exp, **options)`` of ``main``.

    It takes the common options, then ``options``; its experiment is built
    from the config and the overlays (``--learner`` among them, where a
    command declares it); and each config warning and every failure is one
    line on stderr, a failure with exit 2 (input, or a size this host cannot
    allocate) or 3 (numeric, or a worker that ended abruptly).
    """

    def decorate(fn):
        @functools.wraps(fn)
        def run(config_path, seed, out, scenario, horizon_scale, learner=None, **kwargs):
            try:
                exp = _load_experiment(config_path, seed, out, scenario, horizon_scale, learner)
                fn(exp, **kwargs)
            except (ConfigError, ArtifactError, PopulationError, OSError) as exc:
                click.echo(str(exc), err=True)
                sys.exit(2)
            except MemoryError as exc:  # a size asked for that this host cannot hold
                click.echo(f"out of memory: {exc}", err=True)
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

        for option in (*reversed(options), *_COMMON_OPTIONS):
            run = option(run)
        return main.command()(run)

    return decorate


@command()
def solve(exp):
    """Solve the planning problem and write the solution artifact."""
    sol = dp.value_iteration(exp.scenario.initial_aggregate_rate(), exp.chain, **exp.raw["solver"])
    out_dir = exp.output_dir / "dp"
    artifacts.write_json(out_dir / "solution.json", artifacts.solution_to_dict(sol, exp.raw))
    artifacts.write_json(out_dir / "policy.json",
                         artifacts.policy_artifact("dp", exp.raw, policy=sol.policy.tolist()))
    artifacts.write_manifest(out_dir / "manifest.json", "solve", exp.raw, exp.seeds)
    x0, l0 = exp.eval_config.initial_state
    click.echo(f"iterations={sol.iterations} residual={sol.residual!r} "
               f"V({x0},{l0})={float(sol.v[x0, l0])!r}")


@command(
    click.option("--learner", type=click.Choice(["salmut", "qlearning"]), default=None),
    click.option("--no-periodic-eval", is_flag=True, default=False,
                 help="Skip rollout evaluation at eval points (faster)."),
)
def train(exp, no_periodic_eval):
    """Train the configured learner for every seed; write logs and artifacts."""
    kind = exp.raw["learner"]["kind"]
    out_dir = exp.output_dir / kind
    curves = []
    train_seed = functools.partial(_train_seed, exp, kind, not no_periodic_eval)
    with _seed_results(train_seed, exp.seeds) as results:
        for s, (art, log, rows, curve) in zip(exp.seeds, results):
            seed_dir = out_dir / f"seed_{s}"
            artifacts.write_json(seed_dir / "policy.json", art)
            artifacts.log_rows_to_csv(seed_dir / "log.csv", log)
            artifacts.write_csv(seed_dir / "trajectory.csv", ("step", "lambda", "n_users"), rows)
            if curve is not None:
                curves.append(curve)
            click.echo(f"{kind} seed {s}: done ({exp.run.horizon} steps)")
    curve = ev.aggregate_training_curves(curves)
    if curve:
        artifacts.write_csv(out_dir / "training_curve.csv", ("step", "median", "q1", "q3"), curve)
    artifacts.write_manifest(out_dir / "manifest.json", "train", exp.raw, exp.seeds)


def _train_seed(exp: Experiment, kind: str, periodic_eval: bool, s: int):
    """Train ``kind`` on seed ``s``: its policy artifact, log rows (scored at
    their eval points when ``periodic_eval``), trajectory rows and training
    curve (None without periodic eval)."""
    rows = trajectory(exp.scenario, exp.run.horizon, s)
    segments = rate_segments(rows, exp.run.horizon)
    if kind == "salmut":
        result = salmut.train(segments, exp.chain, exp.salmut, s)
        art = artifacts.policy_artifact(
            "salmut", exp.raw, seed=s,
            tau=result.tau.tolist(), temperature=exp.salmut.temperature,
            policy=policy_table(exp.chain.params, tau=result.tau).tolist(),
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


def _init_worker(parent: int) -> None:
    """Ask Linux to kill this worker when the command's process dies, so that
    a killed command leaves no worker behind."""
    import ctypes

    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:  # the command died before the request took effect
        os._exit(1)


def _work(parent: int, fn, seeds, fd: int) -> None:
    """A worker's life: ``fn`` on each seed in order, each outcome pickled to
    ``fd`` as ``(True, result)`` or ``(False, exception)``, up to the first
    failure."""
    _init_worker(parent)
    with open(fd, "wb") as pipe:
        for s in seeds:
            try:
                outcome = (True, fn(s))
            except Exception as exc:
                outcome = (False, exc)
            pipe.write(pickle.dumps(outcome))  # whole, or not at all if it cannot pickle
            pipe.flush()
            if not outcome[0]:
                return


def _gather(pipes, count: int):
    """``count`` results in seed order: seed ``n`` from the pipe of worker
    ``n % len(pipes)``; a seed's exception is raised as it comes."""
    for n in range(count):
        try:
            ok, value = pickle.load(pipes[n % len(pipes)])
        except (EOFError, pickle.UnpicklingError):  # the pipe's end, or a result cut short
            raise WorkerError("a worker process training a seed ended abruptly") from None
        if not ok:
            raise value
        yield value


@contextlib.contextmanager
def _seed_results(fn, seeds):
    """``fn(s)`` for each seed, yielded in seed order as the results arrive.

    With more than one seed and more than one CPU, the seeds run in forked
    worker processes, one per CPU up to one per seed; else in this process.
    Worker ``w`` runs ``seeds[w::workers]`` in order and sends each outcome
    down its own pipe, pickled.  Forked, a worker starts with numpy, this
    package and ``fn`` with the experiment it holds, so nothing is sent to
    it; the command runs no thread that a fork could cut.  Seeds draw only
    from their own substreams, so a seed's result is the same either way.
    When a seed fails or a worker ends without its result, every worker is
    killed and reaped before the error reaches the caller; every worker is
    reaped in any case, so none is left running.
    """
    workers = min(len(seeds), _cpu_count())
    if workers == 1:
        yield map(fn, seeds)
        return
    parent, children, pipes = os.getpid(), [], []
    try:
        for w in range(workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker: it never returns into the command's code
                code = 1
                try:
                    os.close(read)
                    _work(parent, fn, seeds[w::workers], write)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
            os.close(write)
            pipes.append(open(read, "rb"))
        yield _gather(pipes, len(seeds))
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _is_action(a) -> bool:
    return type(a) is int and a in (0, 1)


def _is_table(value, entry) -> bool:
    """Whether ``value`` is a list of lists whose entries all pass ``entry``."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(map(entry, row)) for row in value)


def _load_policy(path: Path, exp: Experiment) -> tuple[str, int | None, np.ndarray]:
    """The kind, seed (None if it carries none) and action table of the policy
    artifact at ``path``, which must be of ``exp``'s chain and carry a
    ``policy`` table of 0s and 1s."""
    art = artifacts.load_artifact(path, artifacts.POLICY_SCHEMA,
                                  chain_sha=artifacts.chain_hash(exp.raw))
    kind, seed, value = art.get("kind"), art.get("seed"), art.get("policy")
    if kind not in ("dp", "salmut", "qlearning"):
        raise ArtifactError(f"{path}: unknown policy kind {kind!r}")
    if seed is not None and not (type(seed) is int and seed >= 0):
        raise ArtifactError(f"{path}: policy artifact field 'seed' must be an integer >= 0")
    # a null field would leave the table without its source
    if value is None:
        raise ArtifactError(f"{path}: {kind} policy artifact lacks its field 'policy'")
    if not _is_table(value, _is_action):
        raise ArtifactError(f"{path}: {kind} policy artifact field 'policy' must be a table "
                            "of 0s and 1s")
    try:
        return kind, seed, policy_table(exp.chain.params, actions=value)
    except ValueError as exc:
        raise ArtifactError(f"{path}: {exc}") from None


def _load_solution(path: Path, exp: Experiment) -> tuple[np.ndarray, np.ndarray]:
    """The value and policy tables of the solution artifact at ``path``, which
    must be of ``exp``'s chain and carry both as ``(X+1, L+1)`` tables: ``v``
    of finite numbers and ``policy`` of 0s and 1s."""
    sol = artifacts.load_artifact(path, artifacts.SOLUTION_SCHEMA,
                                  chain_sha=artifacts.chain_hash(exp.raw))
    rows, cols = exp.chain.params.buffer_capacity + 1, exp.chain.params.cpu_levels + 1
    for name, entry, entries in (("v", finite, "finite numbers"),
                                 ("policy", _is_action, "0s and 1s")):
        table = sol.get(name)
        if not (_is_table(table, entry) and len(table) == rows
                and all(len(row) == cols for row in table)):
            raise ArtifactError(f"{path}: solution artifact field {name!r} must be a "
                                f"({rows}, {cols}) table of {entries}")
    return np.array(sol["v"]), np.array(sol["policy"])


@command(
    click.option("--artifact", "artifact_path", type=click.Path(), default=None,
                 help="Policy artifact to evaluate."),
    click.option("--check-structure", "structure_path", type=click.Path(), default=None,
                 help="Print monotone-value / threshold-policy verdicts for a solution artifact."),
    click.option("--curves-from", "curves_dir", type=click.Path(), default=None,
                 help="Aggregate per-seed training logs under DIR into a training curve."),
)
def evaluate(exp, artifact_path, structure_path, curves_dir):
    """Evaluate a policy artifact, check structure, or aggregate training curves."""
    if structure_path is None and curves_dir is None and artifact_path is None:
        raise ConfigError("evaluate", "nothing to do: pass --artifact, "
                                      "--check-structure or --curves-from")
    if structure_path is not None:
        v, policy = _load_solution(Path(structure_path), exp)
        mono = dp.check_value_monotone(v)
        thr = dp.check_threshold_structure(policy)
        click.echo("value monotone in load: "
                   + ("PASS" if mono.passed else f"FAIL ({len(mono.violations)} violations)"))
        click.echo("threshold policy: "
                   + ("PASS" if thr.passed else f"FAIL (first violation {thr.violation})"))
    if curves_dir is not None:
        rows = _aggregate_curves_from_dir(Path(curves_dir))
        artifacts.write_csv(Path(curves_dir) / "training_curve.csv",
                            ("step", "median", "q1", "q3"), rows)
        click.echo(f"training_curve.csv: {len(rows)} points")
    if artifact_path is not None:
        kind, seed, policy = _load_policy(Path(artifact_path), exp)
        lam = exp.scenario.initial_aggregate_rate()
        report = ev.evaluate(policy, exp.eval_config, lam, exp.chain, seed=exp.seeds[0])
        # keyed as the artifacts are, so that scoring several keeps every report
        out_dir = exp.output_dir / "eval" / kind
        if seed is not None:
            out_dir /= f"seed_{seed}"
        artifacts.write_json(out_dir / "report.json", {
            "kind": kind, **dataclasses.asdict(report), "lambda": lam,
            "config_sha256": artifacts.config_hash(exp.raw),
        })
        artifacts.write_manifest(out_dir / "manifest.json", "evaluate", exp.raw, exp.seeds)
        click.echo(f"{kind}: mean={report.mean!r} median={report.median!r} "
                   f"q1={report.q1!r} q3={report.q3!r}")


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


@command(
    click.option("--trace-seed", type=click.IntRange(min=0), default=1234, show_default=True,
                 help="Seed of the shared event trace."),
    click.option("--trace-length", type=click.IntRange(1, learners.MAX_HORIZON), default=None,
                 help="Trace length; defaults to the configured horizon."),
)
def compare(exp, trace_seed, trace_length):
    """Run planner, learners and baseline on one shared trace; emit metrics CSVs.

    Reads the policy artifacts dp/policy.json (from `solve`) and
    salmut/seed_<s>/policy.json and qlearning/seed_<s>/policy.json (from
    `train`, ``s`` the first seed) under the output directory; the baseline
    comes from the config's learner.baseline.
    """
    root = exp.output_dir
    seed_dir = f"seed_{exp.seeds[0]}"
    policies = {kind: _load_policy(root / path, exp)[2] for kind, path in (
        ("dp", "dp/policy.json"),
        ("salmut", f"salmut/{seed_dir}/policy.json"),
        ("qlearning", f"qlearning/{seed_dir}/policy.json"),
    )}
    policies["baseline"] = policy_table(exp.chain.params, accept_below=exp.baseline.accept_below)
    horizon = trace_length or exp.run.horizon
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
        out_dir / "scatter.csv", ("policy", "window", "c_off", "c_ov"),
        ((name, w.index, w.c_off, w.c_ov) for name in sorted(series) for w in series[name].windows)
    )
    names = sorted(policies)
    lam = exp.scenario.initial_aggregate_rate()
    reports = ev.evaluate_batch([(policies[name], lam, exp.seeds[0]) for name in names],
                                exp.eval_config, exp.chain)
    cost_rows = []
    for name, report in zip(names, reports):
        cost_rows.append((name, report.mean, report.q1, report.median, report.q3))
        click.echo(f"{name}: mean={report.mean!r}")
    artifacts.write_csv(out_dir / "compare_costs.csv", ("policy", "mean", "q1", "median", "q3"),
                        cost_rows)
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


if __name__ == "__main__":
    run()
