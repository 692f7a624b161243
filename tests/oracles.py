"""Independent reference computations used to pin expected test values.

Nothing here reuses the solver's sweep machinery: one-step distributions
are enumerated outcome by outcome, policies are evaluated by solving the
linear fixed-point system directly, and optima are found by enumerating
every admissible deterministic stationary policy.  The one use of the
simulator's step is ``windowed_replay``, the plain loop over
``StepKernel.step`` that the windowed loop's trap fast-forward must equal.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from edgeadmit.evaluate import MetricsWindow
from edgeadmit.model import (
    Action, CostModel, ModelParams, NoEventError, ResourceDist, StepKernel,
)
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
