"""Policy evaluation: discounted-cost rollouts and behavioral metrics.

A policy is an ``(X+1, L+1)`` int8 action table (``policy_table``), 1 meaning
offload.  Rollouts freeze the arrival rate at its value when evaluation
starts, so a policy is always measured against the traffic it currently
faces; ``evaluate`` steps all of its rollouts together as numpy lanes.  The
behavioral comparison instead replays a shared event trace against an
evolving scenario: every policy consumes the same uniform draws, so
differences in overload entries and offload counts are attributable to the
policies alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable

import numpy as np

from . import rng as rngmod
from .model import (
    Action, ChainTables, CostModel, ModelParams, NoEventError, ResourceDist, StepKernel,
)
from .scenarios import Scenario, trajectory


@dataclass(frozen=True)
class EvalConfig:
    rollout_length: int = 1000
    n_rollouts: int = 100
    initial_state: tuple[int, int] = (0, 0)
    window: int = 1000
    overload_level: int = 18

    def __post_init__(self) -> None:
        for name in ("rollout_length", "n_rollouts", "window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.overload_level < 0:
            raise ValueError("overload_level must be >= 0")


@dataclass(frozen=True)
class MetricsWindow:
    index: int
    cost_discounted: float
    cost_undiscounted: float
    c_ov: int   # steps ending at or above the overload level
    c_off: int  # offload actions taken, forced ones included


@dataclass(frozen=True)
class RolloutResult:
    discounted_cost: float
    windows: tuple[MetricsWindow, ...]


@dataclass(frozen=True)
class EvalReport:
    mean: float
    q1: float
    median: float
    q3: float
    n_rollouts: int


# ---------------------------------------------------------------------------
# policies


def policy_table(
    params: ModelParams,
    *,
    tau: np.ndarray | None = None,
    actions: np.ndarray | None = None,
    accept_below: int | None = None,
) -> np.ndarray:
    """A deterministic policy as an ``(X+1, L+1)`` int8 action table, 1 = offload.

    Built from one source: a real threshold vector ``tau`` (accept iff
    ``ell <= floor(tau[x])``), an action table ``actions`` (planner output or
    greedy Q extraction), or the baseline's ``accept_below`` (accept iff
    ``ell < accept_below``).  With none, every arrival is offloaded.  Row
    ``X`` always offloads: a full buffer cannot accept.
    """
    X, L = params.buffer_capacity, params.cpu_levels
    shape = (X + 1, L + 1)
    ell = np.arange(L + 1)
    if tau is not None:
        offload = ell > np.floor(np.asarray(tau, dtype=float))[:, None]
    elif actions is not None:
        offload = np.asarray(actions) != Action.ACCEPT
    elif accept_below is not None:
        offload = np.broadcast_to(ell >= accept_below, shape)
    else:
        offload = np.ones(shape, dtype=bool)
    if offload.shape != shape:
        raise ValueError(f"policy table shape {offload.shape} does not match {shape}")
    table = offload.astype(np.int8)
    table[X] = 1
    return table


# ---------------------------------------------------------------------------
# rollouts


def _windows(
    kernel: StepKernel,
    table: np.ndarray,
    draws: Iterable[tuple[float, Callable[[], float], Callable[[], float]]],
    beta: float,
    initial_state: tuple[int, int],
    window: int,
    overload_level: int,
) -> tuple[float, list[MetricsWindow]]:
    """Step ``table`` through ``kernel`` once per ``(lam, event_u, resource_u)``.

    Returns the discounted total and the per-window metrics.  ``rollout`` and
    ``behavioral_compare`` both run this loop; they differ only in where the
    arrival rate and the uniforms come from.
    """
    offloads = np.asarray(table).tolist()

    def decide(x: int, ell: int, n: int) -> int:
        return offloads[x][ell]

    step = kernel.step
    x, ell = initial_state
    total = 0.0
    disc = 1.0
    windows: list[MetricsWindow] = []
    w_disc = w_undisc = 0.0
    w_ov = w_off = 0
    w_index = w_fill = 0

    for lam, event_u, resource_u in draws:
        x, ell, a, incurred = step(x, ell, lam, decide, 0, event_u, resource_u)
        if a:
            w_off += 1
        discounted = disc * incurred
        total += discounted
        w_disc += discounted
        w_undisc += incurred
        if ell >= overload_level:
            w_ov += 1
        disc *= beta
        w_fill += 1
        if w_fill == window:
            windows.append(MetricsWindow(w_index, w_disc, w_undisc, w_ov, w_off))
            w_index += 1
            w_disc = w_undisc = 0.0
            w_ov = w_off = 0
            w_fill = 0

    if w_fill:
        windows.append(MetricsWindow(w_index, w_disc, w_undisc, w_ov, w_off))
    return total, windows


def rollout(
    table: np.ndarray,
    lam: float,
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
    horizon: int,
    beta: float,
    rng: np.random.Generator,
    initial_state: tuple[int, int] = (0, 0),
    window: int = 1000,
    overload_level: int = 18,
) -> RolloutResult:
    """Simulate ``horizon`` uniformized steps of ``table`` under a frozen arrival rate.

    This is the one-lane reference for ``rollout_costs``.  It steps through
    ``StepKernel`` with both draws from ``rng``: an event draw per step when
    ``lam > 0``, then a resource draw unless the arrival is offloaded.
    """
    total, windows = _windows(
        StepKernel(params, cm, rd), table,
        itertools.repeat((lam, rng.random, rng.random), horizon),
        beta, initial_state, window, overload_level,
    )
    return RolloutResult(discounted_cost=total, windows=tuple(windows))


def rollout_costs(
    table: np.ndarray,
    cfg: EvalConfig,
    lam: float,
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
    seed: int,
) -> np.ndarray:
    """Discounted cost of each rollout, all stepped together as numpy lanes.

    Lane ``i`` is ``rollout`` on ``substream(seed, f"rollout-{i}")``: its
    uniforms are drawn up front, and it reads them through its own cursor
    in the order ``rollout`` draws them.  Every lane applies the same
    floating-point operations as ``rollout``, with the same scalar discount,
    so each lane's cost equals ``rollout``'s bit for bit.
    """
    n, horizon = cfg.n_rollouts, cfg.rollout_length
    L = params.cpu_levels
    beta = params.discount_beta

    # a step takes at most two draws
    width = 2 * horizon
    u = np.empty((n, width))
    for i in range(n):
        rngmod.substream(seed, f"rollout-{i}").random(out=u[i])
    u = u.ravel()
    cursor = np.arange(n) * width

    tables = ChainTables(params, cm, rd)
    offloads = np.asarray(table).ravel() != 0
    if lam > 0.0:
        arrival_p = tables.arrival_p(lam)
    n_r = tables.succ.shape[2]
    after = tables.succ.ravel()

    x0, ell0 = cfg.initial_state
    s = np.full(n, x0 * (L + 1) + ell0)
    no_arrival = np.zeros(n, dtype=bool)
    total = np.zeros(n)
    disc = 1.0
    for _ in range(horizon):
        if lam > 0.0:
            arrive = u[cursor] <= arrival_p[s]
            cursor += 1
        elif lam == 0.0 and (s <= L).any():  # some lane at x == 0
            raise NoEventError()
        else:
            arrive = no_arrival
        off = arrive & offloads[s]
        total += disc * np.where(off, tables.offload_cost[s], tables.stay_cost[s])
        disc *= beta
        size = np.searchsorted(tables.cdf, u[cursor], side="right")
        cursor += ~off
        s = after[(3 * s + 2 * arrive - off) * n_r + size]
    return total


def evaluate(
    table: np.ndarray,
    cfg: EvalConfig,
    lam: float,
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
    seed: int,
) -> EvalReport:
    """Mean and quartiles of the discounted cost over independent rollouts."""
    costs = rollout_costs(table, cfg, lam, params, cm, rd, seed)
    costs.sort()
    q1, med, q3 = np.quantile(costs, (0.25, 0.5, 0.75))
    return EvalReport(
        mean=float(costs.mean()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        n_rollouts=cfg.n_rollouts,
    )


# ---------------------------------------------------------------------------
# shared-trace behavioral comparison


@dataclass(frozen=True)
class EventTrace:
    """Reproducible uniform draws shared by every compared policy."""

    seed: int
    z: np.ndarray           # event draws
    resource_u: np.ndarray  # resource-size draws

    @classmethod
    def generate(cls, seed: int, horizon: int) -> "EventTrace":
        z = rngmod.substream(seed, "trace-events").random(horizon)
        u = rngmod.substream(seed, "trace-resources").random(horizon)
        z.setflags(write=False)
        u.setflags(write=False)
        return cls(seed=seed, z=z, resource_u=u)


# trace steps converted to Python lists at a time: the whole trace as lists
# would cost tens of megabytes at long horizons
_CHUNK = 4096
# a float's bound ``__float__``: a zero-argument callable returning that float
_constant_draw = attrgetter("__float__")


def behavioral_compare(
    policies: dict[str, np.ndarray],
    scenario: Scenario,
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
    trace: EventTrace,
    window: int = 1000,
    overload_level: int = 18,
    initial_state: tuple[int, int] = (0, 0),
) -> dict[str, tuple[MetricsWindow, ...]]:
    """Replay one event trace under each policy table and collect per-window metrics.

    The event at step t is an arrival iff ``z_t <= lam_t / (lam_t + busy)``;
    the threshold is state-dependent, so trajectories diverge across
    policies while consuming identical randomness.  Each policy runs
    ``rollout``'s loop; at step t the event draw returns ``z_t`` and the
    resource draw ``u_t``, so a step that skips a draw shifts no later one.
    """
    horizon = len(trace.z)
    rows = trajectory(scenario, horizon, trace.seed)
    lam_t = np.empty(horizon)
    for (start, lam, _), end in zip(rows, [row[0] for row in rows[1:]] + [horizon]):
        lam_t[start:end] = lam

    def chunk(start: int):
        steps = slice(start, start + _CHUNK)
        return zip(
            lam_t[steps].tolist(),
            map(_constant_draw, trace.z[steps].tolist()),
            map(_constant_draw, trace.resource_u[steps].tolist()),
        )

    kernel = StepKernel(params, cm, rd)
    return {
        name: tuple(_windows(
            kernel, table,
            itertools.chain.from_iterable(map(chunk, range(0, horizon, _CHUNK))),
            params.discount_beta, initial_state, window, overload_level,
        )[1])
        for name, table in policies.items()
    }


def aggregate_training_curves(
    logs: list[list],
) -> list[tuple[int, float, float, float]]:
    """Across-seed (step, median, q1, q3) of the per-seed evaluated means."""
    if not logs:
        return []
    by_step: dict[int, list[float]] = {}
    for log in logs:
        for row in log:
            if row.eval_mean is not None:
                by_step.setdefault(row.step, []).append(row.eval_mean)
    rows = []
    for step in sorted(by_step):
        vals = np.array(by_step[step])
        q1, med, q3 = np.quantile(vals, (0.25, 0.5, 0.75))
        rows.append((step, float(med), float(q1), float(q3)))
    return rows

