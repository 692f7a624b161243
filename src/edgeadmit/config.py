"""JSON experiment configuration: schema, defaults, validation.

Unknown keys are rejected and errors carry the dotted path of the offending
field.  All defaults reproduce the canonical simulation setup: a 20-slot
buffer, 21 load levels, 2 cores at rate 3, holding cost 0.12, discount 0.95,
24 users at per-user rate 0.25, the banded running-cost and penalty tables,
and the {1: 0.6, 2: 0.4} resource distribution.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .evaluate import EvalConfig
from .learners import BaselinePolicy, QLearningConfig
from .model import CostModel, ModelParams, ResourceDist
from .salmut import SalmutConfig
from .scenarios import Scenario


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


def default_running_table(levels: int = 20) -> list[float]:
    """Zero when idle, a small reward band at moderate load, high when overloaded."""
    table = []
    for ell in range(levels + 1):
        if ell <= 5:
            table.append(0.0)
        elif ell <= 17:
            table.append(-0.2)
        else:
            table.append(10.0)
    return table


def default_penalty_table(levels: int = 20) -> list[float]:
    """Offloading is cheap once moderately loaded, expensive when nearly idle."""
    return [10.0 if ell < 3 else 1.0 for ell in range(levels + 1)]


def default_config() -> dict[str, Any]:
    return {
        "model": {
            "buffer_capacity": 20,
            "cpu_levels": 20,
            "cores": 2,
            "service_rate": 3.0,
            "discount_beta": 0.95,
            "discount_rate": None,
            "uniformization_rate": None,
        },
        "costs": {
            "holding": 0.12,
            "running": default_running_table(),
            "penalty": default_penalty_table(),
            "strict_monotone": False,
        },
        "resources": {"pmf": [0.6, 0.4]},
        "scenario": {
            "kind": 1,
            "n_users": 24,
            "lambda_low": 0.25,
            "lambda_high": 0.375,
            "phase_fractions": [1.0 / 3.0, 2.0 / 3.0],
            "toggle_period_fraction": 0.01,
            "toggle_prob": 0.1,
            "population_period_fraction": 0.1,
            "leave_prob": 0.05,
            "stay_prob": 0.9,
            "add_prob": 0.05,
        },
        "learner": {
            "kind": "salmut",
            "horizon": 1_000_000,
            "eval_every": 1000,
            "start_state": [0, 0],
            "salmut": {
                "temperature": 5.0,
                "mode": "adam",
                "critic_rate": None,
                "actor_rate": None,
                "adam_beta1": 0.9,
                "adam_beta2": 0.999,
                "critic_epsilon": 1e-8,
                "actor_epsilon": 1e-2,
                "decay_n0": 3000.0,
                "decay_kappa_critic": 0.6,
                "decay_kappa_actor": 1.0,
                "initial_tau": None,
                "paper_literal_sign": False,
            },
            "qlearning": {
                "rate": 0.2,
                "rate_mode": "decay",
                "decay_n0": 50_000.0,
                "decay_kappa": 0.7,
                "epsilon_start": 0.2,
                "epsilon_end": 0.2,
                "epsilon_decay_fraction": 0.5,
            },
            "baseline": {"accept_below": 18},
        },
        "solver": {"tol": 1e-9, "max_iter": 100_000, "self_loop": False},
        "eval": {
            "rollout_length": 1000,
            "n_rollouts": 100,
            "initial_state": [0, 0],
            "window": 1000,
            "overload_level": 18,
        },
        "seeds": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
        "output_dir": "runs",
    }


def _merge(base: dict, override: dict, path: str) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(here, "unknown key")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid by a JSON file, overlaid by CLI-style overrides."""
    cfg = default_config()
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(str(path), "file not found")
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"invalid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError(str(path), "top level must be an object")
        cfg = _merge(cfg, raw, "")
    if overrides:
        cfg = _merge(cfg, overrides, "")
    validate_config(cfg)
    return cfg


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


# the grid has (X + 1) * (L + 1) states and the planner holds several arrays
# over it, so an unbounded buffer would ask numpy for an unallocatable grid
MAX_BUFFER_CAPACITY = 10_000


def validate_config(cfg: dict) -> None:
    buffer = cfg["model"]["buffer_capacity"]
    _expect(type(buffer) is int and 1 <= buffer <= MAX_BUFFER_CAPACITY, "model.buffer_capacity",
            f"must be an integer in [1, {MAX_BUFFER_CAPACITY}]")
    levels = cfg["model"]["cpu_levels"]
    _expect(isinstance(levels, int) and levels >= 1, "model.cpu_levels", "must be an integer >= 1")
    for name in ("running", "penalty"):
        table = cfg["costs"][name]
        _expect(isinstance(table, list), f"costs.{name}", "must be a list")
        _expect(
            len(table) == levels + 1,
            f"costs.{name}",
            f"must have length cpu_levels + 1 = {levels + 1}, got {len(table)}",
        )
    _expect(_finite(cfg["costs"]["holding"]), "costs.holding", "must be a finite number")
    pmf = cfg["resources"]["pmf"]
    _expect(isinstance(pmf, list) and len(pmf) >= 1 and all(map(_finite, pmf)),
            "resources.pmf", "must be a non-empty list of finite numbers")
    _expect(abs(sum(pmf) - 1.0) <= 1e-12, "resources.pmf", "must sum to 1")
    _expect(all(p >= 0 for p in pmf), "resources.pmf", "entries must be >= 0")
    kind = cfg["scenario"]["kind"]
    _expect(kind in range(1, 7), "scenario.kind", "must be 1..6")
    lk = cfg["learner"]["kind"]
    _expect(
        lk in ("salmut", "qlearning", "baseline", "dp"),
        "learner.kind",
        "must be one of salmut|qlearning|baseline|dp",
    )
    seeds = cfg["seeds"]
    _expect(
        isinstance(seeds, list) and seeds and all(isinstance(s, int) for s in seeds),
        "seeds",
        "must be a non-empty list of integers",
    )
    horizon = cfg["learner"]["horizon"]
    # the learners and the horizon scale compute with the horizon as a float
    _expect(type(horizon) is int and 1 <= horizon <= 2**53, "learner.horizon",
            "must be an integer in [1, 2**53]")
    tol, max_iter = cfg["solver"]["tol"], cfg["solver"]["max_iter"]
    _expect(_finite(tol) and tol > 0, "solver.tol", "must be a number > 0")
    _expect(type(max_iter) is int and max_iter >= 1, "solver.max_iter", "must be an integer >= 1")
    _expect(type(cfg["solver"]["self_loop"]) is bool, "solver.self_loop", "must be a boolean")


def _finite(value) -> bool:
    """Whether ``value`` is a JSON number (bool is none) of finite float value."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _wrap(path: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc))


@dataclass(frozen=True)
class Experiment:
    """Everything a subcommand needs, assembled from one validated config."""

    raw: dict
    params: ModelParams
    costs: CostModel
    resources: ResourceDist
    scenario: Scenario
    eval_config: EvalConfig
    salmut: SalmutConfig
    qlearning: QLearningConfig
    baseline: BaselinePolicy
    seeds: tuple[int, ...]
    output_dir: Path

    @classmethod
    def from_config(cls, cfg: dict) -> "Experiment":
        """Build every section, so each command rejects any malformed one."""
        c, lrn = cfg["costs"], cfg["learner"]
        common = {"horizon": lrn["horizon"], "eval_every": lrn["eval_every"],
                  "start_state": lrn["start_state"]}
        sc = dict(cfg["scenario"])
        sc["phase_fractions"] = _wrap("scenario.phase_fractions", tuple, sc["phase_fractions"])
        exp = cls(
            raw=cfg,
            params=_wrap("model", ModelParams, **cfg["model"]),
            costs=_wrap("costs", CostModel, holding=c["holding"], running=c["running"],
                        penalty=c["penalty"], strict=c["strict_monotone"]),
            resources=_wrap("resources", ResourceDist, pmf=cfg["resources"]["pmf"]),
            scenario=_wrap("scenario", Scenario, **sc),
            eval_config=_wrap("eval", EvalConfig, **cfg["eval"]),
            salmut=_wrap("learner.salmut", SalmutConfig, **common, **lrn["salmut"]),
            qlearning=_wrap("learner.qlearning", QLearningConfig, **common, **lrn["qlearning"]),
            baseline=_wrap("learner.baseline", BaselinePolicy, **lrn["baseline"]),
            seeds=tuple(cfg["seeds"]),
            output_dir=Path(cfg["output_dir"]),
        )
        X, L = exp.params.buffer_capacity, exp.params.cpu_levels
        for path, (x, ell) in (("learner.start_state", exp.salmut.start_state),
                               ("eval.initial_state", exp.eval_config.initial_state)):
            _expect(0 <= x <= X and 0 <= ell <= L, path, f"must lie in [0, {X}] x [0, {L}]")
        return exp

    def planning_rate(self) -> float:
        """Arrival rate for the time-homogeneous planning problem."""
        return self.scenario.initial_aggregate_rate()
