"""Independent reference computations used to pin expected test values.

Nothing here reuses the solver's sweep machinery: one-step distributions
are enumerated outcome by outcome, policies are evaluated by solving the
linear fixed-point system directly, and optima are found by enumerating
every admissible deterministic stationary policy.  The uses of the
simulator's step are the plain loops over ``StepKernel.step`` that the
fast paths must equal: ``windowed_replay`` for the windowed loop's trap
fast-forward, and ``reference_salmut_train`` and
``reference_qlearning_train``, built from one helper call per learning
step, for the trainers' fused per-arrival closures.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from edgeadmit import rng as rngmod
from edgeadmit.dp import greedy_policy
from edgeadmit.evaluate import MetricsWindow, policy_table
from edgeadmit.learners import (
    LogRow, QLearningConfig, QLearningResult, policy_hash,
)
from edgeadmit.model import (
    Action, CostModel, ModelParams, NoEventError, ResourceDist, StepKernel,
)
from edgeadmit.salmut import SalmutConfig, TrainResult, _sigmoid, bias_correction
from edgeadmit.scenarios import ScenarioState


class State(NamedTuple):
    """A chain state ``(x, ell)``."""

    x: int
    ell: int


def delta(x: int, lam: float, params: ModelParams) -> float:
    """Probability that the next uniformized event is an arrival."""
    if lam < 0:
        raise ValueError("arrival rate must be >= 0")
    busy = min(x, params.cores) * params.service_rate
    if lam == 0 and busy == 0:
        raise NoEventError()
    return lam / (lam + busy)


def transition_pmf(
    state: State,
    action: Action,
    lam: float,
    params: ModelParams,
    rd: ResourceDist,
) -> dict[State, float]:
    """One-step distribution: mixture of the arrival and departure kernels.

    Probability mass of outcomes clamped at a boundary is merged, never
    renormalized.
    """
    x, ell = state
    X, L = params.buffer_capacity, params.cpu_levels
    d = delta(x, lam, params)
    out: dict[State, float] = {}

    def add(s: State, prob: float) -> None:
        if prob > 0.0:
            out[s] = out.get(s, 0.0) + prob

    if action == Action.ACCEPT:
        for r, p in rd.support():
            add(State(min(x + 1, X), min(ell + r, L)), d * p)
    else:
        add(State(x, ell), d)
    for r, p in rd.support():
        add(State(max(x - 1, 0), max(ell - r, 0)), (1.0 - d) * p)
    return out


def relative_gap(value: float, reference: float) -> float:
    """|value - reference| / |reference|, guarding the degenerate reference."""
    denom = abs(reference)
    if denom < 1e-12:
        return math.inf if abs(value - reference) > 1e-12 else 0.0
    return abs(value - reference) / denom


def recursion_policy_value(
    policy: np.ndarray,
    lam: float,
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
    self_loop: bool = False,
) -> np.ndarray:
    """Exact value of a policy under the planning recursion's conventions.

    The offload branch keeps (or drops, per ``self_loop``) the same
    continuation weights as the recursion, and the per-step cost is the full
    action cost, so this is the quantity value iteration optimizes.
    """
    X, L = params.buffer_capacity, params.cpu_levels
    beta = params.discount_beta
    n = (X + 1) * (L + 1)

    def sid(x, ell):
        return x * (L + 1) + ell

    A = np.zeros((n, n))
    b = np.zeros(n)
    for x in range(X + 1):
        busy = min(x, params.cores) * params.service_rate
        d = lam / (lam + busy)
        for ell in range(L + 1):
            i = sid(x, ell)
            a = Action.OFFLOAD if x == X else Action(int(policy[x, ell]))
            b[i] = (
                cm.holding * max(x - params.cores, 0)
                + cm.running[ell]
                + (cm.penalty[ell] if a == Action.OFFLOAD else 0.0)
            )
            if a == Action.ACCEPT:
                for r, p in rd.support():
                    A[i, sid(min(x + 1, X), min(ell + r, L))] += d * p
            elif self_loop:
                A[i, i] += d
            for r, p in rd.support():
                A[i, sid(max(x - 1, 0), max(ell - r, 0))] += (1.0 - d) * p
    v = np.linalg.solve(np.eye(n) - beta * A, b)
    return v.reshape(X + 1, L + 1)


def simulated_policy_value(
    policy: np.ndarray,
    lam: float,
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
) -> np.ndarray:
    """Exact discounted value of a policy on the simulated chain.

    Differs from the planning recursion: an offload at an arrival self-loops,
    and the penalty is charged only when the arrival actually occurs.
    """
    X, L = params.buffer_capacity, params.cpu_levels
    beta = params.discount_beta
    n = (X + 1) * (L + 1)

    def sid(x, ell):
        return x * (L + 1) + ell

    A = np.zeros((n, n))
    b = np.zeros(n)
    for x in range(X + 1):
        busy = min(x, params.cores) * params.service_rate
        d = lam / (lam + busy)
        for ell in range(L + 1):
            i = sid(x, ell)
            a = Action.OFFLOAD if x == X else Action(int(policy[x, ell]))
            ch = cm.holding * max(x - params.cores, 0) + cm.running[ell]
            b[i] = ch + (d * cm.penalty[ell] if a == Action.OFFLOAD else 0.0)
            if a == Action.ACCEPT:
                for r, p in rd.support():
                    A[i, sid(min(x + 1, X), min(ell + r, L))] += d * p
            else:
                A[i, i] += d
            for r, p in rd.support():
                A[i, sid(max(x - 1, 0), max(ell - r, 0))] += (1.0 - d) * p
    v = np.linalg.solve(np.eye(n) - beta * A, b)
    return v.reshape(X + 1, L + 1)


def enumerate_optimal(
    lam: float,
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
    self_loop: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force optimum over all admissible deterministic policies.

    Admissible means offload at the full buffer; every other cell is free.
    Returns the elementwise minimum of the exact policy values over the
    whole policy class and the policy attaining the smallest value sum.
    Exponential in the grid size.
    """
    X, L = params.buffer_capacity, params.cpu_levels
    free_cells = [(x, ell) for x in range(X) for ell in range(L + 1)]
    pointwise_min = None
    best_sum = np.inf
    best_policy = None
    for bits in itertools.product((0, 1), repeat=len(free_cells)):
        policy = np.ones((X + 1, L + 1), dtype=np.int8)
        for (x, ell), a in zip(free_cells, bits):
            policy[x, ell] = a
        v = recursion_policy_value(policy, lam, params, cm, rd, self_loop=self_loop)
        pointwise_min = v if pointwise_min is None else np.minimum(pointwise_min, v)
        if v.sum() < best_sum:
            best_sum = v.sum()
            best_policy = policy
    return pointwise_min, best_policy


def moment_arrays(mom, shape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An ``AdaptiveMoments``' per-coordinate m, v and step counts as arrays of ``shape``."""
    m, v, counts = np.zeros(shape), np.zeros(shape), np.zeros(shape, np.int64)
    for idx, (m_i, v_i, t_i) in mom.cells.items():
        m[idx], v[idx], counts[idx] = m_i, v_i, t_i
    return m, v, counts


def trace_draws(scenario, trace):
    """``(lam, event_u, resource_u)`` per step of a shared trace, the rate advanced step by step."""
    ss = ScenarioState.create(scenario, len(trace.z), trace.seed)
    for t, (z, u) in enumerate(zip(trace.z.tolist(), trace.resource_u.tolist())):
        if t:
            ss.advance_to(t)
        yield ss.lam, (lambda z=z: z), (lambda u=u: u)


def windowed_replay(
    table: np.ndarray,
    draws,
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
    initial_state: tuple[int, int] = (0, 0),
    window: int = 1000,
    overload_level: int = 18,
) -> tuple[float, list[MetricsWindow], int | None]:
    """Every step through ``StepKernel.step``, with no trap fast-forward.

    ``draws`` yields ``(lam, event_u, resource_u)`` per step.  Returns the
    discounted total, the per-window metrics and the first step that starts
    at ``x = 0`` in a state ``table`` offloads from with ``lam > 0`` (None if
    none does).
    """
    kernel = StepKernel(params, cm, rd)
    offloads = np.asarray(table).tolist()
    beta = params.discount_beta
    x, ell = initial_state
    total, disc = 0.0, 1.0
    windows: list[MetricsWindow] = []
    w_disc = w_undisc = 0.0
    w_ov = w_off = w_fill = 0
    trap_step = None
    for t, (lam, event_u, resource_u) in enumerate(draws):
        if trap_step is None and x == 0 and offloads[0][ell] and lam > 0.0:
            trap_step = t
        x, ell, a, incurred = kernel.step(
            x, ell, lam, lambda x, ell, n: offloads[x][ell], 0, event_u, resource_u
        )
        w_off += bool(a)
        discounted = disc * incurred
        total += discounted
        w_disc += discounted
        w_undisc += incurred
        w_ov += ell >= overload_level
        disc *= beta
        w_fill += 1
        if w_fill == window:
            windows.append(MetricsWindow(len(windows), w_disc, w_undisc, w_ov, w_off))
            w_disc = w_undisc = 0.0
            w_ov = w_off = w_fill = 0
    if w_fill:
        windows.append(MetricsWindow(len(windows), w_disc, w_undisc, w_ov, w_off))
    return total, windows, trap_step


# SALMUT's per-arrival steps one helper call each, and the two trainers'
# loops built from them over ``StepKernel.step``: the references the fused
# trainers must equal bit for bit


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
        # past a saturated table (no tail) the correction is 1.0
        m_hat = m / (self._c1[t - 1] if t <= self._n1 else self._tail1(t) if self._tail1 else 1.0)
        v_hat = v / (self._c2[t - 1] if t <= self._n2 else self._tail2(t) if self._tail2 else 1.0)
        return rate * m_hat / math.sqrt(v_hat + self.eps)


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


def _reference_arrival_loop(
    segments: list[tuple[int, int, float]],
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
    config,
    seed: int,
    act: Callable[[int, int, int], int],
    update: Callable[[int, int, int, float, int, int, int], tuple[float, float] | None],
    snapshot: Callable[[], tuple[np.ndarray, np.ndarray]],
) -> tuple[list[LogRow], list[tuple[float, np.ndarray]], np.ndarray, np.ndarray, int]:
    """``learners.arrival_loop`` with a ``decide`` wrapper that forces the offload at ``X``."""
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
    for start, stop, lam in segments:
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


def reference_salmut_train(
    segments: list[tuple[int, int, float]],
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
    config: SalmutConfig,
    seed: int,
) -> TrainResult:
    """``salmut.train`` through the per-arrival helpers above, one call each."""
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

    out = _reference_arrival_loop(segments, params, cm, rd, config, seed, act, update, snapshot)
    return TrainResult(np.array(tau), np.array(q), *out)


def reference_qlearning_train(
    segments: list[tuple[int, int, float]],
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
    config: QLearningConfig,
    seed: int,
) -> QLearningResult:
    """``learners.qlearning_train`` through ``epsilon_greedy_action``."""
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

    out = _reference_arrival_loop(segments, params, cm, rd, config, seed, act, update, snapshot)
    q_out = np.array(q)
    return QLearningResult(q_out, greedy_policy(q_out, X), *out)
