"""Reference policies: tabular Q-learning and the static-threshold baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .dp import greedy_policy
from .model import CostModel, ModelParams, ResourceDist
from .salmut import EvalHook, LogRow, WindowStats, policy_hash
from .scenarios import Scenario, ScenarioState


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
    k, mu = params.cores, params.service_rate

    ev_rng = rngmod.substream(seed, "events")
    res_rng = rngmod.substream(seed, "resources")
    act_rng = rngmod.substream(seed, "exploration")

    q = np.zeros((X + 1, L + 1, 2))
    ss = ScenarioState.create(scenario, config.horizon, seed)
    x, ell = config.start_state
    if not (0 <= x <= X and 0 <= ell <= L):
        raise ValueError("start_state out of bounds")

    horizon = config.horizon
    window = WindowStats()
    tenth_g = np.zeros(10)
    tenth_s = np.zeros(10)
    tenth_n = np.zeros(10, dtype=np.int64)
    log: list[LogRow] = []
    arrivals = 0
    cdf = np.cumsum(rd.pmf)
    run_arr, pen_arr, hold = cm.running, cm.penalty, cm.holding
    n0, kappa = config.decay_n0, config.decay_kappa
    decaying = config.rate_mode == "decay"

    for n in range(horizon):
        if n > 0:
            ss.advance()
        lam = ss.lam
        busy = min(x, k) * mu
        if lam == 0.0 and busy == 0.0:
            raise ValueError("no event possible: lam == 0 and empty queue")
        d = lam / (lam + busy)
        if lam > 0.0 and ev_rng.random() <= d:
            arrivals += 1
            if x == X:
                a = 1
            else:
                a = epsilon_greedy_action(q, x, ell, config.epsilon_at(n), act_rng)
            incurred = hold * max(x - k, 0) + run_arr[ell] + (pen_arr[ell] if a else 0.0)
            if a == 0:
                r = int(np.searchsorted(cdf, res_rng.random(), side="right")) + 1
                nx, nl = min(x + 1, X), min(ell + r, L)
            else:
                nx, nl = x, ell
            rate = config.rate / (1.0 + n / n0) ** kappa if decaying else config.rate
            td = incurred + beta * min(q[nx, nl, 0], q[nx, nl, 1]) - q[x, ell, a]
            q[x, ell, a] += rate * td
            window.add(td, rate * td)
            tenth = min(10 * n // horizon, 9)
            tenth_g[tenth] += abs(td)
            tenth_s[tenth] += abs(rate * td)
            tenth_n[tenth] += 1
            x, ell = nx, nl
        else:
            r = int(np.searchsorted(cdf, res_rng.random(), side="right")) + 1
            x, ell = max(x - 1, 0), max(ell - r, 0)

        if (n + 1) % config.eval_every == 0:
            grad_abs, grad_step = window.drain()
            snapshot = greedy_policy(q, X)
            stats = eval_hook(n + 1, lam, q.copy()) if eval_hook else None
            stats = stats or {}
            log.append(
                LogRow(
                    step=n + 1,
                    policy_hash=policy_hash(snapshot),
                    eval_mean=stats.get("mean"),
                    eval_q1=stats.get("q1"),
                    eval_median=stats.get("median"),
                    eval_q3=stats.get("q3"),
                    grad_abs_window=grad_abs,
                    grad_step_window=grad_step,
                )
            )

    counts = np.maximum(tenth_n, 1)
    return QLearningResult(
        q=q,
        policy=greedy_policy(q, X),
        log=log,
        tenth_td_abs=tenth_g / counts,
        tenth_step_abs=tenth_s / counts,
        arrivals=arrivals,
    )
