"""The shared learner loop, tabular Q-learning and the static-threshold baseline.

Both learners run ``arrival_loop``: it advances the scenario, steps the
chain through ``model.StepKernel``, counts arrivals and keeps the update
diagnostics and the periodic log.  A learner supplies only its action rule,
its update and its snapshot.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as rngmod
from .dp import greedy_policy
from .model import CostModel, ModelParams, ResourceDist, StepKernel
from .scenarios import Scenario, ScenarioState

EvalHook = Callable[[int, float, np.ndarray], dict[str, float] | None]


@dataclass(frozen=True)
class LogRow:
    step: int
    policy_hash: str
    eval_mean: float | None
    eval_q1: float | None
    eval_median: float | None
    eval_q3: float | None
    grad_abs_window: float
    grad_step_window: float


def policy_hash(arr: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


class WindowStats:
    __slots__ = ("abs_g", "abs_step", "n")

    def __init__(self) -> None:
        self.abs_g = 0.0
        self.abs_step = 0.0
        self.n = 0

    def add(self, g: float, step: float) -> None:
        self.abs_g += abs(g)
        self.abs_step += abs(step)
        self.n += 1

    def drain(self) -> tuple[float, float]:
        if self.n == 0:
            out = (0.0, 0.0)
        else:
            out = (float(self.abs_g) / self.n, float(self.abs_step) / self.n)
        self.abs_g = self.abs_step = 0.0
        self.n = 0
        return out


def arrival_loop(
    scenario: Scenario,
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
    config,
    seed: int,
    eval_hook: EvalHook | None,
    act: Callable[[int, int, int], int],
    update: Callable[[int, int, int, float, int, int, int], tuple[float, float] | None],
    snapshot: Callable[[], tuple[np.ndarray, np.ndarray]],
) -> tuple[list[LogRow], np.ndarray, np.ndarray, int]:
    """Run ``config.horizon`` steps from ``config.start_state``, learning at arrivals.

    ``act(x, ell, n)`` picks the action at an arrival; at a full buffer the
    offload is forced and ``act`` is not called.  After each arrival,
    ``update(x, ell, a, cost, x', ell', n)`` learns from the transition and
    returns a diagnostic pair ``(g, step)``, or None to record nothing.
    Every ``config.eval_every`` steps the window means of ``|g|`` and
    ``|step|`` go into a ``LogRow`` with the ``policy_hash`` of
    ``snapshot()[0]``; ``eval_hook`` gets a copy of ``snapshot()[1]``.
    Events and resource sizes come from the ``events`` and ``resources``
    substreams of ``seed``.  Returns the log, the per-tenth-of-horizon means
    of ``|g|`` and ``|step|``, and the arrival count.
    """
    X, L = params.buffer_capacity, params.cpu_levels
    horizon = config.horizon
    kernel = StepKernel(params, cm, rd)
    event_u = rngmod.substream(seed, "events").random
    resource_u = rngmod.substream(seed, "resources").random
    ss = ScenarioState.create(scenario, horizon, seed)
    x, ell = config.start_state
    if not (0 <= x <= X and 0 <= ell <= L):
        raise ValueError("start_state out of bounds")

    def decide(x: int, ell: int, n: int) -> int:
        return 1 if x == X else act(x, ell, n)

    window = WindowStats()
    tenth_g = np.zeros(10)
    tenth_s = np.zeros(10)
    tenth_n = np.zeros(10, dtype=np.int64)
    log: list[LogRow] = []
    arrivals = 0
    for n in range(horizon):
        if n > 0:
            ss.advance()
        lam = ss.lam
        nx, nl, a, incurred = kernel.step(x, ell, lam, decide, n, event_u, resource_u)
        if a is not None:
            arrivals += 1
            diag = update(x, ell, a, incurred, nx, nl, n)
            if diag is not None:
                g, moved = diag
                window.add(g, moved)
                tenth = min(10 * n // horizon, 9)
                tenth_g[tenth] += abs(g)
                tenth_s[tenth] += abs(moved)
                tenth_n[tenth] += 1
        x, ell = nx, nl

        if (n + 1) % config.eval_every == 0:
            grad_abs, grad_step = window.drain()
            hashed, shown = snapshot()
            stats = eval_hook(n + 1, lam, shown.copy()) if eval_hook else None
            stats = stats or {}
            log.append(
                LogRow(
                    step=n + 1,
                    policy_hash=policy_hash(hashed),
                    eval_mean=stats.get("mean"),
                    eval_q1=stats.get("q1"),
                    eval_median=stats.get("median"),
                    eval_q3=stats.get("q3"),
                    grad_abs_window=grad_abs,
                    grad_step_window=grad_step,
                )
            )

    counts = np.maximum(tenth_n, 1)
    return log, tenth_g / counts, tenth_s / counts, arrivals


@dataclass
class QLearningResult:
    q: np.ndarray
    policy: np.ndarray  # greedy extraction, same tie rule as the planner
    log: list[LogRow]
    tenth_td_abs: np.ndarray
    tenth_step_abs: np.ndarray
    arrivals: int


@dataclass(frozen=True)
class BaselinePolicy:
    """Accept below a fixed load level; offload otherwise (and at a full buffer)."""

    accept_below: int = 18

    def __post_init__(self) -> None:
        if self.accept_below < 0:
            raise ValueError("accept_below must be >= 0")


@dataclass(frozen=True)
class QLearningConfig:
    """Step sizes and exploration for the tabular learner.

    The defaults are calibrated for desk-scale convergence: a decaying rate
    large enough early to equilibrate the offload action's self-referential
    bootstrap (whose fixed point sits near (c + p) / (1 - beta)), and
    sustained exploration so that both actions keep receiving updates in the
    operating band.  Off-policy updates keep the target unbiased under the
    exploratory behavior.
    """

    rate: float = 0.2
    rate_mode: str = "decay"          # "constant" | "decay"
    decay_n0: float = 50_000.0
    decay_kappa: float = 0.7
    epsilon_start: float = 0.2
    epsilon_end: float = 0.2
    epsilon_decay_fraction: float = 0.5
    horizon: int = 1_000_000
    eval_every: int = 1000
    start_state: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must lie in (0, 1]")
        if self.rate_mode not in ("constant", "decay"):
            raise ValueError("rate_mode must be 'constant' or 'decay'")
        for name in ("epsilon_start", "epsilon_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.epsilon_decay_fraction <= 1.0:
            raise ValueError("epsilon_decay_fraction must lie in (0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")

    def epsilon_at(self, n: int) -> float:
        ramp = self.epsilon_decay_fraction * self.horizon
        frac = min(n / ramp, 1.0) if ramp > 0 else 1.0
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac


def epsilon_greedy_action(
    q: np.ndarray, x: int, ell: int, eps: float, rng: np.random.Generator
) -> int:
    """Explore uniformly with probability eps, else argmin with ties accept."""
    if rng.random() < eps:
        return int(rng.integers(0, 2))
    return 0 if q[x, ell, 0] <= q[x, ell, 1] else 1


def qlearning_train(
    scenario: Scenario,
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
    config: QLearningConfig,
    seed: int,
    eval_hook: EvalHook | None = None,
) -> QLearningResult:
    """Arrival-gated TD loop with an epsilon-greedy behavior policy.

    Shares the log schema with the actor-critic trainer; the gradient
    columns carry the TD-error magnitude and the applied update magnitude.
    """
    X, L = params.buffer_capacity, params.cpu_levels
    beta = params.discount_beta
    act_rng = rngmod.substream(seed, "exploration")
    q = np.zeros((X + 1, L + 1, 2))
    n0, kappa = config.decay_n0, config.decay_kappa
    decaying = config.rate_mode == "decay"

    def act(x: int, ell: int, n: int) -> int:
        return epsilon_greedy_action(q, x, ell, config.epsilon_at(n), act_rng)

    def update(x, ell, a, incurred, nx, nl, n):
        rate = config.rate / (1.0 + n / n0) ** kappa if decaying else config.rate
        td = incurred + beta * min(q[nx, nl, 0], q[nx, nl, 1]) - q[x, ell, a]
        q[x, ell, a] += rate * td
        return td, rate * td

    out = arrival_loop(
        scenario, params, cm, rd, config, seed, eval_hook,
        act, update, lambda: (greedy_policy(q, X), q),
    )
    return QLearningResult(q, greedy_policy(q, X), *out)
