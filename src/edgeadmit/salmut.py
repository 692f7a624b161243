"""Two-timescale threshold actor-critic.

The policy is a real threshold vector ``tau`` over queue lengths, relaxed
through a sigmoid in the load level so the acceptance probability is
differentiable in ``tau``.  A TD(0) critic tracks Q on the fast timescale;
the actor follows the per-visit gradient estimate ``grad_f * (Q0 - Q1)``
projected back into ``[0, L]``.

Two step-size regimes are first-class:

- ``adam``: constant base rates with per-coordinate adaptive moments (the
  experimental configuration),
- ``decay``: plain Robbins-Monro schedules ``b0 / (1 + n / n0) ** kappa``
  with the two-timescale exponent ordering checked at construction (the
  regime the convergence analysis covers).

Updates happen only at arrival events; departures advance the state without
learning.  At a full buffer the offload is forced and the actor does not
update (the gradient of a forced action is undefined).
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rng as rngmod
from .evaluate import policy_table
from .learners import LogRow, arrival_loop
from .model import Action, CostModel, ModelParams, ResourceDist, freeze_pair
from .scenarios import Scenario


# The helpers below read ``q[x][ell][a]`` and ``tau[x]``, so they take the
# nested lists ``train`` keeps as well as numpy arrays.


def accept_probability(
    tau: np.ndarray, state: tuple[int, int], temperature: float
) -> float:
    """Sigmoid acceptance probability; zero at a full buffer (forced offload)."""
    x, ell = state
    if x >= len(tau) - 1:
        return 0.0
    return _sigmoid((tau[x] - ell) / temperature)


def f_gradient(tau: np.ndarray, state: tuple[int, int], temperature: float) -> float:
    """d(accept probability)/d(tau[x]); zero where the action is forced."""
    x, ell = state
    if x >= len(tau) - 1:
        return 0.0
    f = _sigmoid((tau[x] - ell) / temperature)
    return f * (1.0 - f) / temperature


def _sigmoid(z: float) -> float:
    # sign-split form: no overflow however large |z| gets
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def critic_update(
    q: np.ndarray,
    s: tuple[int, int],
    a: Action,
    incurred: float,
    s_next: tuple[int, int],
    rate: float,
    beta: float,
    moments: AdaptiveMoments | None = None,
) -> float:
    """TD(0) backup on the visited cell; returns the applied delta.

    The delta is ``rate * td``, or with ``moments`` the adaptive descent step
    at base rate ``rate`` for the gradient ``-td``.
    """
    x, ell = s
    nx, nl = s_next
    after = q[nx][nl]
    cell = q[x][ell]
    td = incurred + beta * min(after[0], after[1]) - cell[a]
    if moments is None:
        change = rate * td
    else:
        change = -moments.step((x, ell, a), -td, rate)
    cell[a] += change
    return change


def gradient_estimate(
    q: np.ndarray, s: tuple[int, int], tau: np.ndarray, temperature: float
) -> float:
    """Per-visit contribution to the performance gradient at coordinate s[0]."""
    x, ell = s
    cell = q[x][ell]
    return f_gradient(tau, s, temperature) * (cell[0] - cell[1])  # accept - offload


def actor_update(
    tau: np.ndarray,
    s: tuple[int, int],
    q: np.ndarray,
    rate: float,
    temperature: float,
    level_cap: float,
    paper_literal_sign: bool = False,
    moments: AdaptiveMoments | None = None,
) -> tuple[float, float]:
    """Projected gradient step on tau[s[0]]; returns (gradient estimate, realized change).

    The step is ``rate * g``, or with ``moments`` the adaptive step at base
    rate ``rate``.  The default steps against the cost gradient.
    ``paper_literal_sign`` applies the update with the opposite (ascent)
    sign for side-by-side comparison.
    """
    x = s[0]
    g = gradient_estimate(q, s, tau, temperature)
    step = rate * g if moments is None else moments.step(x, g, rate)
    before = tau[x]
    proposed = before + step if paper_literal_sign else before - step
    tau[x] = min(max(proposed, 0.0), level_cap)
    return g, tau[x] - before


# bias-correction tables are computed this many entries at a time, up to a
# cap that only a beta above about 0.9994 reaches
_CORRECTION_CHUNK = 4096
_CORRECTION_MAX = 1 << 16


@functools.cache
def bias_correction(beta: float) -> tuple[array, Callable[[int], float]]:
    """Adam's bias correction ``1 - beta ** t``, ``t = 1, 2, ...``: a table and its tail.

    Entry ``t - 1`` of the table is ``1.0 - beta ** np.int64(t)``, numpy's
    power, which can differ from Python's float power by an ulp (at 71 of
    the first 40 000 ``t`` for beta 0.999).  The table ends before the first
    ``t`` at which the value rounds to 1.0 (356 for beta 0.9, 37 412 for
    0.999), and the tail returns 1.0 for every later ``t``.  Past a table
    cut at ``_CORRECTION_MAX`` entries, the tail computes each value.  Every
    caller with the same beta shares the table, so it is read-only.
    """
    table = array("d")
    while len(table) < _CORRECTION_MAX:
        t = np.arange(len(table) + 1, len(table) + _CORRECTION_CHUNK + 1, dtype=np.int64)
        chunk = 1.0 - np.power(beta, t)
        ones = np.flatnonzero(chunk == 1.0)
        if len(ones):
            table.extend(chunk[: ones[0]].tolist())
            return table, lambda t: 1.0
        table.extend(chunk.tolist())
    return table, lambda t: 1.0 - beta ** np.int64(t)


@dataclass
class AdaptiveMoments:
    """Per-coordinate first/second moment steps with an epsilon guard.

    The guard sits inside the square root, so the effective step is bounded
    by ``rate * |m| / sqrt(eps)`` and vanishing gradients produce vanishing
    steps instead of being renormalized to full size.  ``cells`` maps each
    visited coordinate to its ``[m, v, count]``, in Python numbers.
    """

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    cells: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.cells = {}
        self._mix1, self._mix2 = 1.0 - self.beta1, 1.0 - self.beta2
        self._c1, self._tail1 = bias_correction(self.beta1)
        self._c2, self._tail2 = bias_correction(self.beta2)
        self._n1, self._n2 = len(self._c1), len(self._c2)

    def step(self, idx, g: float, rate: float) -> float:
        """Descent step for gradient g at coordinate idx."""
        cell = self.cells.get(idx)
        if cell is None:
            cell = self.cells[idx] = [0.0, 0.0, 0]
        t = cell[2] = cell[2] + 1
        m = cell[0] = self.beta1 * cell[0] + self._mix1 * g
        v = cell[1] = self.beta2 * cell[1] + self._mix2 * g * g
        m_hat = m / (self._c1[t - 1] if t <= self._n1 else self._tail1(t))
        v_hat = v / (self._c2[t - 1] if t <= self._n2 else self._tail2(t))
        return rate * m_hat / math.sqrt(v_hat + self.eps)


@dataclass(frozen=True)
class SalmutConfig:
    temperature: float = 5.0
    mode: str = "adam"                  # "adam" | "decay"
    critic_rate: float | None = None    # default depends on mode
    actor_rate: float | None = None
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    critic_epsilon: float = 1e-8
    actor_epsilon: float = 1e-2
    decay_n0: float = 3000.0
    decay_kappa_critic: float = 0.6
    decay_kappa_actor: float = 1.0
    initial_tau: float | None = None    # None: uniform random per coordinate
    horizon: int = 1_000_000
    eval_every: int = 1000
    start_state: tuple[int, int] = (0, 0)
    paper_literal_sign: bool = False

    # mode-specific base rates: the experimental setup uses small constant
    # rates under adaptive moments; the decaying regime needs large early
    # rates to finish its burn-in before the schedule dies off
    _ADAM_RATES = (0.03, 0.002)
    _DECAY_RATES = (1.0, 0.1)

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if self.mode not in ("adam", "decay"):
            raise ValueError("mode must be 'adam' or 'decay'")
        freeze_pair(self, "start_state")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        b1, b2 = self.rates()
        if b1 <= 0 or b2 <= 0:
            raise ValueError("learning rates must be > 0")
        if self.mode == "adam" and not (
            0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0
        ):
            raise ValueError("adam_beta1 and adam_beta2 must lie in [0, 1)")
        if self.mode == "decay":
            k1, k2 = self.decay_kappa_critic, self.decay_kappa_actor
            # square-summable but not summable, and actor/critic -> 0
            if not (0.5 < k1 < k2 <= 1.0):
                raise ValueError(
                    "decay exponents must satisfy 0.5 < kappa_critic < kappa_actor <= 1"
                )
            if self.decay_n0 <= 0:
                raise ValueError("decay_n0 must be > 0")

    def rates(self) -> tuple[float, float]:
        defaults = self._ADAM_RATES if self.mode == "adam" else self._DECAY_RATES
        return (
            defaults[0] if self.critic_rate is None else self.critic_rate,
            defaults[1] if self.actor_rate is None else self.actor_rate,
        )


@dataclass
class TrainResult:
    tau: np.ndarray
    q: np.ndarray
    log: list[LogRow]
    evals: list[tuple[float, np.ndarray]]  # (lam, policy_table of tau) per log row
    # per-tenth-of-horizon aggregates of the actor diagnostics
    tenth_grad_abs: np.ndarray    # mean |gradient estimate|
    tenth_step_abs: np.ndarray    # mean |realized tau change|
    arrivals: int


def train(
    scenario: Scenario,
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
    config: SalmutConfig,
    seed: int,
) -> TrainResult:
    """Run the arrival-gated actor-critic loop for ``config.horizon`` steps.

    Fully deterministic given ``seed``: events, resource draws, exploration,
    the initial threshold vector and the scenario evolution each consume an
    independent named substream.
    """
    X, L = params.buffer_capacity, params.cpu_levels
    beta = params.discount_beta
    temp = config.temperature
    b1, b2 = config.rates()
    literal = config.paper_literal_sign
    explore_u = rngmod.block_uniforms(rngmod.substream(seed, "exploration"))
    init_rng = rngmod.substream(seed, "init")

    # the state stays in Python floats, q[x][ell][a] and tau[x], until returned
    q = [[[0.0, 0.0] for _ in range(L + 1)] for _ in range(X + 1)]
    if config.initial_tau is None:
        tau = init_rng.uniform(0.0, float(L), size=X + 1).tolist()
    else:
        if not 0.0 <= config.initial_tau <= L:
            raise ValueError("initial_tau must lie in [0, L]")
        tau = [float(config.initial_tau)] * (X + 1)

    adam = config.mode == "adam"
    critic_mom = actor_mom = None
    if adam:
        critic_mom = AdaptiveMoments(config.adam_beta1, config.adam_beta2, config.critic_epsilon)
        actor_mom = AdaptiveMoments(config.adam_beta1, config.adam_beta2, config.actor_epsilon)
    n0 = config.decay_n0
    k_c, k_a = config.decay_kappa_critic, config.decay_kappa_actor

    def act(x: int, ell: int, n: int) -> int:
        return 0 if explore_u() < accept_probability(tau, (x, ell), temp) else 1

    def update(x, ell, a, incurred, nx, nl, n):
        s = (x, ell)
        if adam:
            critic_rate, actor_rate = b1, b2
        else:
            critic_rate, actor_rate = b1 / (1.0 + n / n0) ** k_c, b2 / (1.0 + n / n0) ** k_a
        critic_update(q, s, a, incurred, (nx, nl), critic_rate, beta, critic_mom)
        if x == X:  # forced offload: its gradient is undefined
            return None
        return actor_update(tau, s, q, actor_rate, temp, float(L), literal, actor_mom)

    def snapshot():
        hashed = np.array(tau)
        return hashed, policy_table(params, tau=hashed)

    out = arrival_loop(scenario, params, cm, rd, config, seed, act, update, snapshot)
    return TrainResult(np.array(tau), np.array(q), *out)
