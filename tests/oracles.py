"""Independent reference computations used to pin expected test values.

Nothing here reuses the solver's sweep machinery: one-step distributions
are enumerated outcome by outcome, policies are evaluated by solving the
linear fixed-point system directly, and optima are found by enumerating
every admissible deterministic stationary policy.  The uses of the
simulator's step are the plain loops over ``ChainTables.step`` that the
fast paths must equal: ``windowed_replay`` for the windowed loop's trap
fast-forward, and ``reference_salmut_train`` and
``reference_qlearning_train``, built from one helper call per learning
step, for the trainers' fused per-arrival closures.  ``scenario_users``
applies the traffic rules at every step, where ``scenarios.trajectory``
visits only its event steps.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from edgeadmit import rng as rngmod
from edgeadmit.evaluate import MetricsWindow
from edgeadmit.learners import (
    LogRow, QLearningConfig, QLearningResult, policy_hash,
)
from edgeadmit.model import (
    Action, ChainTables, CostModel, ModelParams, NoEventError, ResourceDist, policy_table,
)
from edgeadmit.salmut import SalmutConfig, TrainResult, _sigmoid, bias_correction
from edgeadmit.scenarios import Scenario


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


def scenario_users(scenario: Scenario, horizon: int, seed: int):
    """Per step ``0..horizon-1``, the users ``[(uid, high tier)]`` once the step's events applied.

    Every step is tested for each rule by its own phase and modulo test: the
    rate switch of kinds 2 and 5 at the phase boundaries, then the toggles of
    kinds 3 and 6, then the population draws of kinds 4 to 6.
    """
    kind, uniform = scenario.kind, rngmod.user_uniform
    f1, f2 = scenario.phase_fractions
    phase1, phase2 = round(f1 * horizon), round(f2 * horizon)
    toggle_every = max(1, round(scenario.toggle_period_fraction * horizon))
    pop_every = max(1, round(scenario.population_period_fraction * horizon))
    users = [(uid, kind in (3, 6) and uniform(seed, "scenario-init", uid, 0) < 0.5)
             for uid in range(scenario.n_users)]
    next_uid = scenario.n_users
    yield users
    for t in range(1, horizon):
        if kind in (2, 5) and t == phase1:
            users = [(uid, True) for uid, _ in users]
        elif kind in (2, 5) and t == phase2:
            users = [(uid, False) for uid, _ in users]
        if kind in (3, 6) and t % toggle_every == 0:
            users = [(uid, not hi if uniform(seed, "scenario-toggle", uid, t)
                      < scenario.toggle_prob else hi) for uid, hi in users]
        if kind in (4, 5, 6) and t % pop_every == 0:
            drawn = [(uid, hi, uniform(seed, "scenario-pop", uid, t)) for uid, hi in users]
            users = []
            for uid, hi, u in drawn:
                if u >= scenario.leave_prob:
                    users.append((uid, hi))
                    if u >= 1.0 - scenario.add_prob:
                        users.append((next_uid, hi))
                        next_uid += 1
        yield users


def scenario_rates(scenario: Scenario, horizon: int, seed: int):
    """Per step ``0..horizon-1``, ``(aggregate rate, population)`` from ``scenario_users``."""
    lo, hi_rate = scenario.lambda_low, scenario.lambda_high
    for users in scenario_users(scenario, horizon, seed):
        yield sum(hi_rate if hi else lo for _, hi in users), len(users)


def resource_indices(chain: ChainTables, uniform: Callable[[], float]) -> Callable[[], int]:
    """``chain.step``'s resource draw from a uniform one: where ``uniform()`` falls
    in the chain's cdf, by ``bisect_right``."""
    cdf = chain.cdf.tolist()
    return lambda: bisect_right(cdf, uniform())


def trace_draws(scenario, trace, chain):
    """``(lam, event_u, resource_j)`` per step of a shared trace, ``lam`` from
    ``scenario_rates`` and ``resource_j`` where the step's resource uniform falls
    in the chain's cdf, by ``bisect_right``."""
    rates = scenario_rates(scenario, len(trace.z), trace.seed)
    cdf = chain.cdf.tolist()
    for (lam, _), z, u in zip(rates, trace.z.tolist(), trace.resource_u.tolist()):
        j = bisect_right(cdf, u)
        yield lam, (lambda z=z: z), (lambda j=j: j)


def windowed_replay(
    table: np.ndarray,
    draws,
    chain: ChainTables,
    initial_state: tuple[int, int] = (0, 0),
    window: int = 1000,
    overload_level: int = 18,
) -> tuple[float, list[MetricsWindow], int | None]:
    """Every step through ``chain.step``, with no trap fast-forward.

    ``draws`` yields ``(lam, event_u, resource_j)`` per step.  Returns the
    discounted total, the per-window metrics and the first step that starts
    at ``x = 0`` in a state ``table`` offloads from with ``lam > 0`` (None if
    none does).
    """
    offloads = np.asarray(table).tolist()
    beta = chain.params.discount_beta
    x, ell = initial_state
    total, disc = 0.0, 1.0
    windows: list[MetricsWindow] = []
    w_disc = w_undisc = 0.0
    w_ov = w_off = w_fill = 0
    trap_step = None
    for t, (lam, event_u, resource_j) in enumerate(draws):
        if trap_step is None and x == 0 and offloads[0][ell] and lam > 0.0:
            trap_step = t
        x, ell, a, incurred = chain.step(
            x, ell, lam, lambda x, ell, n: offloads[x][ell], 0, event_u, resource_j
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
# loops built from them over ``chain.step``: the references the fused
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
    chain: ChainTables,
    config,
    seed: int,
    act: Callable[[int, int, int], int],
    update: Callable[[int, int, int, float, int, int, int], tuple[float, float] | None],
    snapshot: Callable[[], tuple[np.ndarray, np.ndarray]],
) -> tuple[list[LogRow], list[tuple[float, np.ndarray]], int]:
    """``learners.arrival_loop`` with a ``decide`` wrapper that forces the offload at ``X``."""
    X, L = chain.params.buffer_capacity, chain.params.cpu_levels
    eval_every = config.eval_every
    step = chain.step
    event_u = rngmod.block_uniforms(rngmod.substream(seed, "events"))
    resource_j = resource_indices(
        chain, rngmod.block_uniforms(rngmod.substream(seed, "resources")))
    x, ell = config.start_state
    if not (0 <= x <= X and 0 <= ell <= L):
        raise ValueError("start_state out of bounds")

    def decide(x: int, ell: int, n: int) -> int:
        return 1 if x == X else act(x, ell, n)

    # sums of |g| and |step| and their count over the log window
    win_g = win_s = 0.0
    win_n = 0
    log: list[LogRow] = []
    evals: list[tuple[float, np.ndarray]] = []
    arrivals = 0
    for start, stop, lam in segments:
        for n in range(start, stop):
            nx, nl, a, incurred = step(x, ell, lam, decide, n, event_u, resource_j)
            if a is not None:
                arrivals += 1
                diag = update(x, ell, a, incurred, nx, nl, n)
                if diag is not None:
                    win_g += abs(diag[0])
                    win_s += abs(diag[1])
                    win_n += 1
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

    return log, evals, arrivals


def reference_salmut_train(
    segments: list[tuple[int, int, float]],
    chain: ChainTables,
    config: SalmutConfig,
    seed: int,
) -> TrainResult:
    """``salmut.train`` through the per-arrival helpers above, one call each."""
    X, L = chain.params.buffer_capacity, chain.params.cpu_levels
    beta = chain.params.discount_beta
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
        return hashed, policy_table(chain.params, tau=hashed)

    out = _reference_arrival_loop(segments, chain, config, seed, act, update, snapshot)
    return TrainResult(np.array(tau), np.array(q), *out)


def reference_qlearning_train(
    segments: list[tuple[int, int, float]],
    chain: ChainTables,
    config: QLearningConfig,
    seed: int,
) -> QLearningResult:
    """``learners.qlearning_train`` through ``epsilon_greedy_action``."""
    X, L = chain.params.buffer_capacity, chain.params.cpu_levels
    beta = chain.params.discount_beta
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
        q_out = np.array(q)
        table = policy_table(chain.params, actions=q_out[..., 1] < q_out[..., 0])
        return table, table

    out = _reference_arrival_loop(segments, chain, config, seed, act, update, snapshot)
    return QLearningResult(np.array(q), snapshot()[0], *out)
