"""The shared learner loop, tabular Q-learning and the static-threshold baseline.

Both learners run ``arrival_loop``: it walks the scenario's rate segments,
steps the chain through ``model.StepKernel``, counts arrivals and keeps the
update diagnostics, the periodic log and the eval points.  A learner
supplies only its action rule, its update and its snapshot.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as rngmod
from .dp import greedy_policy
from .model import CostModel, ModelParams, ResourceDist, StepKernel, freeze_pair
from .scenarios import Scenario, rate_segments


@dataclass(frozen=True, kw_only=True)
class LogRow:
    """A ``log.csv`` row; the ``eval_*`` fields stay empty without periodic evaluation."""

    step: int
    policy_hash: str
    eval_mean: float | None = None
    eval_q1: float | None = None
    eval_median: float | None = None
    eval_q3: float | None = None
    grad_abs_window: float
    grad_step_window: float


def policy_hash(arr: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def arrival_loop(
    scenario: Scenario,
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
    config,
    seed: int,
    act: Callable[[int, int, int], int],
    update: Callable[[int, int, int, float, int, int, int], tuple[float, float] | None],
    snapshot: Callable[[], tuple[np.ndarray, np.ndarray]],
) -> tuple[list[LogRow], list[tuple[float, np.ndarray]], np.ndarray, np.ndarray, int]:
    """Run ``config.horizon`` steps from ``config.start_state``, learning at arrivals.

    ``act(x, ell, n)`` picks the action at an arrival; at a full buffer the
    offload is forced and ``act`` is not called.  After each arrival,
    ``update(x, ell, a, cost, x', ell', n)`` learns from the transition and
    returns a diagnostic pair ``(g, step)``, or None to record nothing.
    Every ``config.eval_every`` steps the window means of ``|g|`` and
    ``|step|`` go into a ``LogRow`` with the ``policy_hash`` of
    ``snapshot()[0]`` and empty ``eval_*`` fields, and the eval point
    ``(lam, snapshot()[1])`` goes into the eval list, the rate and the
    ``(X+1, L+1)`` policy table to score for that row; the table must be a
    fresh array.  Events and resource sizes come from the ``events`` and
    ``resources`` substreams of ``seed``, drawn in blocks.  The arrival rate
    is read per segment of ``rate_segments``.  Returns the log, the eval
    points, the per-tenth-of-horizon means of ``|g|`` and ``|step|``, and
    the arrival count.
    """
    X, L = params.buffer_capacity, params.cpu_levels
    horizon, eval_every = config.horizon, config.eval_every
    step = StepKernel(params, cm, rd).step
    event_u = rngmod.block_uniforms(rngmod.substream(seed, "events"))
    resource_u = rngmod.block_uniforms(rngmod.substream(seed, "resources"))
    x, ell = config.start_state
    if not (0 <= x <= X and 0 <= ell <= L):
        raise ValueError("start_state out of bounds")

    def decide(x: int, ell: int, n: int) -> int:
        return 1 if x == X else act(x, ell, n)

    # sums of |g| and |step| and their count, over the log window and per tenth
    win_g = win_s = 0.0
    win_n = 0
    tenth_g, tenth_s, tenth_n = [0.0] * 10, [0.0] * 10, [0] * 10
    log: list[LogRow] = []
    evals: list[tuple[float, np.ndarray]] = []
    arrivals = 0
    for start, stop, lam in rate_segments(scenario, horizon, seed):
        for n in range(start, stop):
            nx, nl, a, incurred = step(x, ell, lam, decide, n, event_u, resource_u)
            if a is not None:
                arrivals += 1
                diag = update(x, ell, a, incurred, nx, nl, n)
                if diag is not None:
                    g, moved = abs(diag[0]), abs(diag[1])
                    win_g += g
                    win_s += moved
                    win_n += 1
                    tenth = min(10 * n // horizon, 9)
                    tenth_g[tenth] += g
                    tenth_s[tenth] += moved
                    tenth_n[tenth] += 1
            x, ell = nx, nl

            if (n + 1) % eval_every == 0:
                hashed, table = snapshot()
                log.append(
                    LogRow(
                        step=n + 1,
                        policy_hash=policy_hash(hashed),
                        grad_abs_window=win_g / win_n if win_n else 0.0,
                        grad_step_window=win_s / win_n if win_n else 0.0,
                    )
                )
                evals.append((lam, table))
                win_g = win_s = 0.0
                win_n = 0

    counts = np.maximum(tenth_n, 1)
    return log, evals, np.array(tenth_g) / counts, np.array(tenth_s) / counts, arrivals


@dataclass
class QLearningResult:
    q: np.ndarray
    policy: np.ndarray  # greedy extraction, same tie rule as the planner
    log: list[LogRow]
    evals: list[tuple[float, np.ndarray]]  # (lam, greedy table) per log row
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
        freeze_pair(self, "start_state")
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
    """Explore uniformly with probability eps, else argmin with ties accept.

    Reads ``q[x][ell]``, so ``q`` may be nested lists or an array.
    """
    if rng.random() < eps:
        return int(rng.integers(0, 2))
    cell = q[x][ell]
    return 0 if cell[0] <= cell[1] else 1


def qlearning_train(
    scenario: Scenario,
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
    config: QLearningConfig,
    seed: int,
) -> QLearningResult:
    """Arrival-gated TD loop with an epsilon-greedy behavior policy.

    Shares the log schema with the actor-critic trainer; the gradient
    columns carry the TD-error magnitude and the applied update magnitude.
    """
    X, L = params.buffer_capacity, params.cpu_levels
    beta = params.discount_beta
    # scalar draws: random() and integers(0, 2) interleave on this stream
    act_rng = rngmod.substream(seed, "exploration")
    # Python floats, q[x][ell][a], until returned
    q = [[[0.0, 0.0] for _ in range(L + 1)] for _ in range(X + 1)]
    n0, kappa = config.decay_n0, config.decay_kappa
    decaying = config.rate_mode == "decay"

    def act(x: int, ell: int, n: int) -> int:
        return epsilon_greedy_action(q, x, ell, config.epsilon_at(n), act_rng)

    def update(x, ell, a, incurred, nx, nl, n):
        rate = config.rate / (1.0 + n / n0) ** kappa if decaying else config.rate
        after = q[nx][nl]
        cell = q[x][ell]
        td = incurred + beta * min(after[0], after[1]) - cell[a]
        cell[a] += rate * td
        return td, rate * td

    def snapshot():
        table = greedy_policy(np.array(q), X)
        return table, table

    out = arrival_loop(scenario, params, cm, rd, config, seed, act, update, snapshot)
    q_out = np.array(q)
    return QLearningResult(q_out, greedy_policy(q_out, X), *out)
