"""JSON experiment configuration: schema, defaults, and the built experiment.

``load_config`` reads a config and merges it over the defaults, rejecting
unknown keys; ``Experiment.from_config`` checks every value while it builds
the sections.  Errors carry the dotted path of the offending field.  A
section that a dataclass reads (``model``, ``scenario``, ``eval`` and the
three learner sections) takes its keys and defaults from that class's
fields; ``learner`` holds ``learners.RunConfig``'s run fields ``horizon``,
``eval_every`` and ``start_state`` once, and both learner configs inherit them.
The defaults reproduce the canonical simulation setup: a 20-slot buffer, 21
load levels, 2 cores at rate 3, holding cost 0.12, discount 0.95, 24 users
at per-user rate 0.25, the banded running-cost and penalty tables, and the
{1: 0.6, 2: 0.4} resource distribution.
"""

from __future__ import annotations

import copy
import json
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any

from .evaluate import EvalConfig
from .learners import BaselinePolicy, QLearningConfig, RunConfig
from .model import ChainTables, CostModel, ModelParams, ResourceDist, finite
from .salmut import SalmutConfig
from .scenarios import Scenario


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path = path
        self.message = message

    def __reduce__(self):
        return type(self), (self.path, self.message)


def default_running_table() -> list[float]:
    """Zero when idle, a small reward band at moderate load, high when overloaded."""
    return [0.0] * 6 + [-0.2] * 12 + [10.0] * 3


def default_penalty_table() -> list[float]:
    """Offloading is cheap once moderately loaded, expensive when nearly idle."""
    return [10.0] * 3 + [1.0] * 18


def _defaults(cls, skip=()) -> dict[str, Any]:
    """``cls``'s field defaults by name, tuples as lists, without the fields in ``skip``."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in fields(cls) if f.name not in skip}


def default_config() -> dict[str, Any]:
    run = _defaults(RunConfig)
    return {
        "model": _defaults(ModelParams),
        "costs": {
            "holding": 0.12,
            "running": default_running_table(),
            "penalty": default_penalty_table(),
            "strict_monotone": False,
        },
        "resources": {"pmf": [0.6, 0.4]},
        "scenario": _defaults(Scenario),
        "learner": {
            "kind": "salmut",
            **run,
            "salmut": _defaults(SalmutConfig, skip=run),
            "qlearning": _defaults(QLearningConfig, skip=run),
            "baseline": _defaults(BaselinePolicy),
        },
        "solver": {"tol": 1e-9, "max_iter": 100_000, "self_loop": False},
        "eval": _defaults(EvalConfig),
        "seeds": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
        "output_dir": "runs",
    }


def _merge(base: dict, override: dict, path: str) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(here, "unknown key")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(here, "must be an object")
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid by a JSON file, overlaid by CLI-style overrides.

    This only reads and merges: it rejects unknown keys and non-finite
    literals, and ``Experiment.from_config`` checks every value.
    """
    cfg = default_config()
    if path is not None:

        def number(text: str) -> float:
            # json reads NaN, Infinity, -Infinity and overflowing literals (1e400)
            value = float(text)
            if not finite(value):
                raise ConfigError(str(path), f"non-finite number {text}")
            return value

        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"), parse_float=number,
                             parse_constant=number)
        except FileNotFoundError:
            raise ConfigError(str(path), "file not found")
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"invalid JSON: {exc}")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(str(path), f"cannot read: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError(str(path), "top level must be an object")
        cfg = _merge(cfg, raw, "")
    if overrides:
        cfg = _merge(cfg, overrides, "")
    return cfg


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _wrap(path: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with its errors and warnings naming the config ``path``.

    A warning is issued again with ``path`` in its text, attributed to the
    caller of ``Experiment.from_config``.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args, **kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(path, str(exc))
    for w in caught:
        warnings.warn(f"config warning at {path}: {w.message}", w.category, stacklevel=3)
    return out


@dataclass(frozen=True)
class Experiment:
    """Everything a subcommand needs, assembled from one validated config."""

    raw: dict
    chain: ChainTables
    scenario: Scenario
    eval_config: EvalConfig
    run: RunConfig
    salmut: SalmutConfig
    qlearning: QLearningConfig
    baseline: BaselinePolicy
    seeds: tuple[int, ...]
    output_dir: Path

    @classmethod
    def from_config(cls, cfg: dict, horizon_scale: float | None = None) -> "Experiment":
        """Build every section and the chain, so each command rejects any malformed one.

        A section's dataclass checks its own fields; the rules that no
        dataclass holds are checked here, each before its value is first used.
        A ``horizon_scale`` scales the checked horizon, in ``raw`` and ``run`` alike.
        """
        c, lrn, solver = cfg["costs"], cfg["learner"], cfg["solver"]
        run = _wrap("learner", RunConfig, **{f.name: lrn[f.name] for f in fields(RunConfig)})
        if horizon_scale is not None:
            horizon = run.horizon * horizon_scale
            _expect(horizon_scale > 0 and finite(horizon), "--horizon-scale",
                    "must be finite and > 0")
            run = _wrap("--horizon-scale", replace, run, horizon=max(1, round(horizon)))
            cfg = {**cfg, "learner": {**lrn, "horizon": run.horizon}}
        _expect(lrn["kind"] in ("salmut", "qlearning"), "learner.kind",
                "must be one of salmut|qlearning")
        seeds = cfg["seeds"]
        _expect(isinstance(seeds, list) and seeds
                and all(type(s) is int and s >= 0 for s in seeds),
                "seeds", "must be a non-empty list of integers >= 0")
        _expect(finite(solver["tol"]) and solver["tol"] > 0, "solver.tol", "must be a number > 0")
        _expect(type(solver["max_iter"]) is int and solver["max_iter"] >= 1, "solver.max_iter",
                "must be an integer >= 1")
        _expect(type(solver["self_loop"]) is bool, "solver.self_loop", "must be a boolean")
        _expect(isinstance(cfg["output_dir"], str), "output_dir", "must be a string")
        params = _wrap("model", ModelParams, **cfg["model"])
        X, L = params.buffer_capacity, params.cpu_levels
        for name in ("running", "penalty"):
            # a table that is no list is CostModel's to refuse
            if isinstance(c[name], list):
                _expect(len(c[name]) == L + 1, f"costs.{name}",
                        f"must have length cpu_levels + 1 = {L + 1}, got {len(c[name])}")
        sc = dict(cfg["scenario"])
        sc["phase_fractions"] = _wrap("scenario.phase_fractions", tuple, sc["phase_fractions"])
        exp = cls(
            raw=cfg,
            chain=ChainTables(
                params,
                _wrap("costs", CostModel, holding=c["holding"], running=c["running"],
                      penalty=c["penalty"], strict=c["strict_monotone"]),
                _wrap("resources", ResourceDist, pmf=cfg["resources"]["pmf"]),
            ),
            scenario=_wrap("scenario", Scenario, **sc),
            eval_config=_wrap("eval", EvalConfig, **cfg["eval"]),
            run=run,
            salmut=_wrap("learner.salmut", SalmutConfig, **asdict(run), **lrn["salmut"]),
            qlearning=_wrap("learner.qlearning", QLearningConfig, **asdict(run),
                            **lrn["qlearning"]),
            baseline=_wrap("learner.baseline", BaselinePolicy, **lrn["baseline"]),
            seeds=tuple(seeds),
            output_dir=Path(cfg["output_dir"]),
        )
        for path, (x, ell) in (("learner.start_state", run.start_state),
                               ("eval.initial_state", exp.eval_config.initial_state)):
            _expect(0 <= x <= X and 0 <= ell <= L, path, f"must lie in [0, {X}] x [0, {L}]")
        tau = exp.salmut.initial_tau
        _expect(tau is None or 0 <= tau <= L, "learner.salmut.initial_tau", f"must lie in [0, {L}]")
        return exp
