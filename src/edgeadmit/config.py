"""JSON experiment configuration: schema, defaults, validation.

Unknown keys are rejected and errors carry the dotted path of the offending
field.  A section that a dataclass reads (``model``, ``scenario``, ``eval``
and the three learner sections) takes its keys and defaults from that
class's fields; ``learner`` holds the run fields ``horizon``, ``eval_every``
and ``start_state`` once for both learners, with ``SalmutConfig``'s
defaults.  The defaults reproduce the canonical simulation setup: a 20-slot
buffer, 21 load levels, 2 cores at rate 3, holding cost 0.12, discount 0.95,
24 users at per-user rate 0.25, the banded running-cost and penalty tables,
and the {1: 0.6, 2: 0.4} resource distribution.
"""

from __future__ import annotations

import copy
import json
import sys
import warnings
from dataclasses import dataclass, fields
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
        self.message = message

    def __reduce__(self):
        return type(self), (self.path, self.message)


def default_running_table() -> list[float]:
    """Zero when idle, a small reward band at moderate load, high when overloaded."""
    return [0.0] * 6 + [-0.2] * 12 + [10.0] * 3


def default_penalty_table() -> list[float]:
    """Offloading is cheap once moderately loaded, expensive when nearly idle."""
    return [10.0] * 3 + [1.0] * 18


# the run fields that `learner` holds once for both learner configs
_RUN_FIELDS = ("horizon", "eval_every", "start_state")


def _defaults(cls, skip=()) -> dict[str, Any]:
    """``cls``'s field defaults by name, tuples as lists, without the fields in ``skip``."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in fields(cls) if f.name not in skip}


def default_config() -> dict[str, Any]:
    salmut = _defaults(SalmutConfig)
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
            **{name: salmut.pop(name) for name in _RUN_FIELDS},
            "salmut": salmut,
            "qlearning": _defaults(QLearningConfig, skip=_RUN_FIELDS),
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
        common = {name: lrn[name] for name in _RUN_FIELDS}
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
