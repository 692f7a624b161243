"""Independent reference computations used to pin expected test values.

Nothing here reuses the solver's sweep machinery or the simulator's step:
one-step distributions are enumerated outcome by outcome, policies are
evaluated by solving the linear fixed-point system directly, and optima are
found by enumerating every admissible deterministic stationary policy.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from edgeadmit.model import Action, CostModel, ModelParams, NoEventError, ResourceDist, State


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
