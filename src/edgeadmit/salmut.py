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
update (the gradient of a forced action is undefined).  ``train`` does an
arrival's work in two closures over flat Python lists: ``act`` computes the
acceptance sigmoid and keeps it, and ``update`` runs the critic and actor
steps, reading that sigmoid for the actor's gradient and the adaptive
moments from ``[m, v, t]`` lists.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as rngmod
from .learners import LogRow, RunConfig, arrival_loop
from .model import ChainTables, check_numbers, policy_table


def _sigmoid(z: float) -> float:
    # sign-split form: no overflow however large |z| gets
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


# bias-correction tables are computed this many entries at a time, up to a
# cap that only a beta above about 0.9994 reaches
_CORRECTION_CHUNK = 4096
_CORRECTION_MAX = 1 << 16


@functools.cache
def bias_correction(beta: float) -> tuple[array, Callable[[int], float] | None]:
    """Adam's bias correction ``1 - beta ** t``, ``t = 1, 2, ...``: a table and its tail.

    Entry ``t - 1`` of the table is ``1.0 - beta ** np.int64(t)``, numpy's
    power, which can differ from Python's float power by an ulp (at 71 of
    the first 40 000 ``t`` for beta 0.999).  The table ends before the first
    ``t`` at which the value rounds to 1.0 (356 for beta 0.9, 37 412 for
    0.999); the tail is then None, since every later value is 1.0 and
    dividing by it changes nothing.  Past a table cut at
    ``_CORRECTION_MAX`` entries, the tail computes each value.  Every
    caller with the same beta shares the table, so it is read-only.
    """
    table = array("d")
    while len(table) < _CORRECTION_MAX:
        t = np.arange(len(table) + 1, len(table) + _CORRECTION_CHUNK + 1, dtype=np.int64)
        chunk = 1.0 - np.power(beta, t)
        ones = np.flatnonzero(chunk == 1.0)
        if len(ones):
            table.extend(chunk[: ones[0]].tolist())
            return table, None
        table.extend(chunk.tolist())
    return table, lambda t: 1.0 - beta ** np.int64(t)


@dataclass(frozen=True)
class SalmutConfig(RunConfig):
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
    paper_literal_sign: bool = False

    # mode-specific base rates: the experimental setup uses small constant
    # rates under adaptive moments; the decaying regime needs large early
    # rates to finish its burn-in before the schedule dies off
    _ADAM_RATES = (0.03, 0.002)
    _DECAY_RATES = (1.0, 0.1)

    def __post_init__(self) -> None:
        super().__post_init__()
        check_numbers(self, "temperature", "adam_beta1", "adam_beta2", "critic_epsilon",
                      "actor_epsilon", "decay_n0", "decay_kappa_critic", "decay_kappa_actor",
                      optional=("critic_rate", "actor_rate", "initial_tau"))
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if not (self.critic_epsilon > 0 and self.actor_epsilon > 0):
            raise ValueError("critic_epsilon and actor_epsilon must be > 0")
        if type(self.paper_literal_sign) is not bool:
            raise ValueError("paper_literal_sign must be a boolean")
        if self.mode not in ("adam", "decay"):
            raise ValueError("mode must be 'adam' or 'decay'")
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
    arrivals: int


def train(
    segments: list[tuple[int, int, float]],
    chain: ChainTables,
    config: SalmutConfig,
    seed: int,
) -> TrainResult:
    """Run the arrival-gated actor-critic loop for ``config.horizon`` steps.

    ``segments`` are as in ``learners.arrival_loop``.  Fully deterministic
    given ``seed``: events, resource draws, exploration, the initial
    threshold vector and the scenario evolution each consume an independent
    named substream.
    """
    X, L = chain.params.buffer_capacity, chain.params.cpu_levels
    beta = chain.params.discount_beta
    temp = config.temperature
    b1, b2 = config.rates()
    literal = config.paper_literal_sign
    level_cap = float(L)
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
    n0 = config.decay_n0
    k_c, k_a = config.decay_kappa_critic, config.decay_kappa_actor
    # adaptive moments [m, v, t] per coordinate: the critic's by [x][ell][a],
    # the actor's by [x]; the epsilon guard sits inside the square root, so
    # a vanishing gradient gives a vanishing step
    critic_mom = [[[[0.0, 0.0, 0], [0.0, 0.0, 0]] for _ in range(L + 1)] for _ in range(X + 1)]
    actor_mom = [[0.0, 0.0, 0] for _ in range(X + 1)]
    beta1, beta2 = config.adam_beta1, config.adam_beta2
    mix1, mix2 = 1.0 - beta1, 1.0 - beta2
    eps_c, eps_a = config.critic_epsilon, config.actor_epsilon
    if adam:
        c1, tail1 = bias_correction(beta1)
        c2, tail2 = bias_correction(beta2)
        n1, n2 = len(c1), len(c2)
    sqrt = math.sqrt
    f = 0.0  # the acceptance probability of the arrival being learned from

    def act(x: int, ell: int, n: int) -> int:
        nonlocal f
        if x == X:  # forced offload
            return 1
        f = _sigmoid((tau[x] - ell) / temp)
        return 0 if explore_u() < f else 1

    def update(x, ell, a, incurred, nx, nl, n):
        # critic: TD(0) on the visited cell, an adaptive descent step on the
        # gradient -td under adam
        accept, offload = q[nx][nl]
        cell = q[x][ell]
        # min(accept, offload), without the call
        td = incurred + beta * (offload if offload < accept else accept) - cell[a]
        if adam:
            g = -td
            mom = critic_mom[x][ell][a]
            t = mom[2] = mom[2] + 1
            m = mom[0] = beta1 * mom[0] + mix1 * g
            v = mom[1] = beta2 * mom[1] + mix2 * g * g
            # past a saturated table the correction is 1.0: no division
            m_hat = m / c1[t - 1] if t <= n1 else m if tail1 is None else m / tail1(t)
            v_hat = v / c2[t - 1] if t <= n2 else v if tail2 is None else v / tail2(t)
            cell[a] += -(b1 * m_hat / sqrt(v_hat + eps_c))
        else:
            cell[a] += b1 / (1.0 + n / n0) ** k_c * td
        if x == X:  # forced offload: its gradient is undefined
            return None
        # actor: d(accept probability)/d(tau[x]) times (accept - offload),
        # a projected step on tau[x]; tau[x] has not moved since act
        g = f * (1.0 - f) / temp * (cell[0] - cell[1])
        if adam:
            mom = actor_mom[x]
            t = mom[2] = mom[2] + 1
            m = mom[0] = beta1 * mom[0] + mix1 * g
            v = mom[1] = beta2 * mom[1] + mix2 * g * g
            m_hat = m / c1[t - 1] if t <= n1 else m if tail1 is None else m / tail1(t)
            v_hat = v / c2[t - 1] if t <= n2 else v if tail2 is None else v / tail2(t)
            step = b2 * m_hat / sqrt(v_hat + eps_a)
        else:
            step = b2 / (1.0 + n / n0) ** k_a * g
        before = tau[x]
        proposed = before + step if literal else before - step
        # min(max(proposed, 0.0), level_cap), without the calls
        if proposed < 0.0:
            proposed = 0.0
        elif level_cap < proposed:
            proposed = level_cap
        tau[x] = proposed
        return g, proposed - before

    def snapshot():
        hashed = np.array(tau)
        return hashed, policy_table(chain.params, tau=hashed)

    out = arrival_loop(segments, chain, config, seed, act, update, snapshot)
    return TrainResult(np.array(tau), np.array(q), *out)
