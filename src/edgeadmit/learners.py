"""The shared learner loop, tabular Q-learning and the static-threshold baseline.

Both learners run ``arrival_loop``: it walks the rate segments, steps the
command's one chain through ``chain.step``, counts arrivals and keeps
the update diagnostics, the periodic log and the eval points.  A learner
supplies only its action rule, its update and its snapshot.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as rngmod
from .model import ChainTables, check_ints, check_numbers, freeze_pair, policy_table


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


# the learners and the horizon scale compute with the horizon as a float,
# exact for every integer up to this; a compare trace is held to it too
MAX_HORIZON = 2**53


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Both learners' run: ``horizon`` steps from ``start_state``, logged every ``eval_every``."""

    horizon: int = 1_000_000
    eval_every: int = 1000
    start_state: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        freeze_pair(self, "start_state")
        check_ints(self, 1, "horizon", "eval_every")
        if self.horizon > MAX_HORIZON:
            raise ValueError("horizon must be an integer in [1, 2**53]")


def arrival_loop(
    segments: list[tuple[int, int, float]],
    chain: ChainTables,
    config: RunConfig,
    seed: int,
    act: Callable[[int, int, int], int],
    update: Callable[[int, int, int, float, int, int, int], tuple[float, float] | None],
    snapshot: Callable[[], tuple[np.ndarray, np.ndarray]],
) -> tuple[list[LogRow], list[tuple[float, np.ndarray]], int]:
    """Run the steps of ``segments`` from ``config.start_state``, learning at arrivals.

    Of ``config``, a ``RunConfig``, it reads ``start_state`` and ``eval_every``.
    ``segments`` are the ``scenarios.rate_segments`` of the scenario's
    trajectory over ``config.horizon``, the only form of the rate a trainer
    takes.  ``act(x, ell, n)`` is ``chain.step``'s ``decide``: it picks
    the action at an arrival, and at a full buffer it returns 1 (offload)
    without drawing.  After each arrival,
    ``update(x, ell, a, cost, x', ell', n)`` learns from the transition and
    returns a diagnostic pair ``(g, step)``, or None to record nothing.
    Every ``config.eval_every`` steps the window means of ``|g|`` and
    ``|step|`` go into a ``LogRow`` with the ``policy_hash`` of
    ``snapshot()[0]`` and empty ``eval_*`` fields, and the eval point
    ``(lam, snapshot()[1])`` goes into the eval list, the rate and the
    ``(X+1, L+1)`` policy table to score for that row; the table must be a
    fresh array.  Event uniforms and resource indices come from the
    ``events`` and ``resources`` substreams of ``seed``, drawn in blocks.
    Returns the log, the eval points and the arrival count.
    """
    X, L = chain.params.buffer_capacity, chain.params.cpu_levels
    eval_every = config.eval_every
    step = chain.step
    event_u = rngmod.block_uniforms(rngmod.substream(seed, "events"))
    resource_j = rngmod.block_indices(rngmod.substream(seed, "resources"), chain.cdf)
    x, ell = config.start_state
    if not (0 <= x <= X and 0 <= ell <= L):
        raise ValueError("start_state out of bounds")

    # sums of |g| and |step| and their count over the log window
    win_g = win_s = 0.0
    win_n = 0
    log: list[LogRow] = []
    evals: list[tuple[float, np.ndarray]] = []
    arrivals = 0
    for start, stop, lam in segments:
        # pieces of the segment that end at its stop or at a log row's step
        while start < stop:
            end = min(stop, start - start % eval_every + eval_every)
            for n in range(start, end):
                nx, nl, a, incurred = step(x, ell, lam, act, n, event_u, resource_j)
                if a is not None:
                    arrivals += 1
                    diag = update(x, ell, a, incurred, nx, nl, n)
                    if diag is not None:
                        win_g += abs(diag[0])
                        win_s += abs(diag[1])
                        win_n += 1
                x, ell = nx, nl

            if end % eval_every == 0:
                hashed, table = snapshot()
                log.append(
                    LogRow(
                        step=end,
                        policy_hash=policy_hash(hashed),
                        grad_abs_window=win_g / win_n if win_n else 0.0,
                        grad_step_window=win_s / win_n if win_n else 0.0,
                    )
                )
                evals.append((lam, table))
                win_g = win_s = 0.0
                win_n = 0
            start = end

    return log, evals, arrivals


@dataclass
class QLearningResult:
    q: np.ndarray
    policy: np.ndarray  # greedy policy_table of q, ties to accept as in the planner
    log: list[LogRow]
    evals: list[tuple[float, np.ndarray]]  # (lam, greedy table) per log row
    arrivals: int


@dataclass(frozen=True)
class BaselinePolicy:
    """Accept below a fixed load level; offload otherwise (and at a full buffer)."""

    accept_below: int = 18

    def __post_init__(self) -> None:
        check_ints(self, 0, "accept_below")


@dataclass(frozen=True)
class QLearningConfig(RunConfig):
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

    def __post_init__(self) -> None:
        super().__post_init__()
        check_numbers(self, "rate", "decay_n0", "decay_kappa", "epsilon_start", "epsilon_end",
                      "epsilon_decay_fraction")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must lie in (0, 1]")
        if self.decay_n0 <= 0:
            raise ValueError("decay_n0 must be > 0")
        # a negative exponent would grow the step size with the arrival count
        if self.decay_kappa < 0:
            raise ValueError("decay_kappa must be >= 0")
        if self.rate_mode not in ("constant", "decay"):
            raise ValueError("rate_mode must be 'constant' or 'decay'")
        for name in ("epsilon_start", "epsilon_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.epsilon_decay_fraction <= 1.0:
            raise ValueError("epsilon_decay_fraction must lie in (0, 1]")

    def epsilon_at(self, n: int) -> float:
        ramp = self.epsilon_decay_fraction * self.horizon
        frac = n / ramp if ramp > 0 else 1.0
        if frac > 1.0:  # min(frac, 1.0), without the call
            frac = 1.0
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac


def qlearning_train(
    segments: list[tuple[int, int, float]],
    chain: ChainTables,
    config: QLearningConfig,
    seed: int,
) -> QLearningResult:
    """Arrival-gated TD loop with an epsilon-greedy behavior policy.

    ``segments`` are as in ``arrival_loop``.  Shares the log schema with the
    actor-critic trainer; the gradient columns carry the TD-error magnitude
    and the applied update magnitude.
    """
    X, L = chain.params.buffer_capacity, chain.params.cpu_levels
    beta = chain.params.discount_beta
    # random() and integers(0, 2) of one stream, interleaved, drawn in blocks
    explore_u, coin = rngmod.exploration_draws(rngmod.substream(seed, "exploration"))
    epsilon_at = config.epsilon_at
    # Python floats, q[x][ell][a], until returned
    q = [[[0.0, 0.0] for _ in range(L + 1)] for _ in range(X + 1)]
    rate0, n0, kappa = config.rate, config.decay_n0, config.decay_kappa
    decaying = config.rate_mode == "decay"

    def act(x: int, ell: int, n: int) -> int:
        # offload at a full buffer; elsewhere explore uniformly with
        # probability epsilon, else argmin with ties accept
        if x == X:
            return 1
        if explore_u() < epsilon_at(n):
            return coin()
        cell = q[x][ell]
        return 0 if cell[0] <= cell[1] else 1

    def update(x, ell, a, incurred, nx, nl, n):
        rate = rate0 / (1.0 + n / n0) ** kappa if decaying else rate0
        accept, offload = q[nx][nl]
        cell = q[x][ell]
        # min(accept, offload), without the call
        td = incurred + beta * (offload if offload < accept else accept) - cell[a]
        change = rate * td
        cell[a] += change
        return td, change

    def snapshot():
        q_out = np.array(q)
        table = policy_table(chain.params, actions=q_out[..., 1] < q_out[..., 0])
        return table, table

    out = arrival_loop(segments, chain, config, seed, act, update, snapshot)
    return QLearningResult(np.array(q), snapshot()[0], *out)
