"""Model layer: states, costs, the chain's tables and its one-step simulator.

The system is a finite queue (length ``x``, capacity ``X``) feeding ``k``
cores whose joint load is discretized to ``ell`` in ``0..L``.  Uniformizing
the continuous-time chain gives a discrete chain in which, from state
``(x, ell)``, the next event is an arrival with probability
``delta(x) = lam / (lam + min(x, k) * mu)`` and a departure otherwise.
Costs are per uniformized step; the continuous-time scale factor is assumed
absorbed into the cost tables.
"""

from __future__ import annotations

import enum
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Action(enum.IntEnum):
    ACCEPT = 0
    OFFLOAD = 1


def freeze_pair(obj, name: str) -> None:
    """Store a dataclass's state field ``name`` as a tuple of two ints, else raise."""
    pair = tuple(getattr(obj, name))
    if len(pair) != 2 or not all(type(v) is int for v in pair):
        raise ValueError(f"{name} must be a pair of integers")
    object.__setattr__(obj, name, pair)


class CostTableWarning(UserWarning):
    """Cost tables break the monotonicity assumptions of the structural results."""


class NoEventError(ValueError):
    """Zero arrival rate and an empty queue: the chain has no event to sample."""

    def __init__(self) -> None:
        super().__init__("no event possible: lam == 0 and empty queue")

    def __reduce__(self):
        return type(self), ()


@dataclass(frozen=True)
class ModelParams:
    """Static system parameters.

    ``discount_beta`` is the discrete discount factor and is always taken
    from configuration.  ``discount_rate`` (continuous-time) and
    ``uniformization_rate`` are optional; when both are present they must be
    consistent with ``beta = nu / (alpha + nu)``.
    """

    buffer_capacity: int = 20
    cpu_levels: int = 20
    cores: int = 2
    service_rate: float = 3.0
    discount_beta: float = 0.95
    discount_rate: float | None = None
    uniformization_rate: float | None = None

    def __post_init__(self) -> None:
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")
        if self.cpu_levels < 1:
            raise ValueError("cpu_levels must be >= 1")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.service_rate <= 0:
            raise ValueError("service_rate must be > 0")
        if not 0.0 < self.discount_beta < 1.0:
            raise ValueError("discount_beta must lie in (0, 1)")
        if self.discount_rate is not None and self.uniformization_rate is not None:
            alpha, nu = self.discount_rate, self.uniformization_rate
            if alpha <= 0 or nu <= 0:
                raise ValueError("discount_rate and uniformization_rate must be > 0")
            implied = nu / (alpha + nu)
            if abs(implied - self.discount_beta) > 1e-12:
                raise ValueError(
                    f"discount_beta={self.discount_beta} inconsistent with "
                    f"nu/(alpha+nu)={implied!r}"
                )


@dataclass(frozen=True)
class CostModel:
    """Per-step cost ingredients: holding rate, running table, offload penalty table.

    The structural results have cost hypotheses:

    - the value is monotone in load when ``running`` and ``running + penalty``
      are weakly increasing in the load level;
    - the optimal policy is a threshold in load when, in addition,
      ``penalty`` is weakly non-increasing.  By the advantage identity
      ``Q_off - Q_acc = p(ell) - beta * delta(x) * E V(x+1, min(ell+r, L))``
      a rising penalty can turn the gap back in favour of accepting at
      higher load.  The threshold shape holds only for the default
      recursion: with ``self_loop=True`` it breaks even on tables that meet
      all three hypotheses (e.g. on the canonical model, a step-wise
      increasing running cost with a flat penalty flips from offload back
      to accept at ``(0, 17)``).

    ``strict=True`` enforces the two monotone-value hypotheses only.  The
    canonical experiment tables violate both (a negative running-cost band
    rewards mid-range load, and the penalty drops once the system is
    moderately loaded), so violations warn by default instead of raising.
    """

    holding: float
    running: np.ndarray
    penalty: np.ndarray
    strict: bool = False

    def __post_init__(self) -> None:
        run = np.asarray(self.running, dtype=float)
        pen = np.asarray(self.penalty, dtype=float)
        if run.ndim != 1 or pen.ndim != 1 or run.shape != pen.shape:
            raise ValueError("running and penalty must be 1-D tables of equal length")
        run.setflags(write=False)
        pen.setflags(write=False)
        object.__setattr__(self, "running", run)
        object.__setattr__(self, "penalty", pen)
        problems = []
        if np.any(np.diff(run) < 0):
            problems.append("running cost is not weakly increasing in load")
        if np.any(np.diff(run + pen) < 0):
            problems.append("running + penalty is not weakly increasing in load")
        if problems:
            msg = "; ".join(problems)
            if self.strict:
                raise ValueError(msg)
            warnings.warn(msg, CostTableWarning, stacklevel=3)

    @property
    def levels(self) -> int:
        return len(self.running) - 1


@dataclass(frozen=True)
class ResourceDist:
    """PMF of the CPU resource amount ``r`` in ``1..r_max`` claimed per request."""

    pmf: np.ndarray

    def __post_init__(self) -> None:
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.ndim != 1 or len(pmf) == 0:
            raise ValueError("pmf must be a non-empty 1-D table")
        if np.any(pmf < 0):
            raise ValueError("pmf entries must be >= 0")
        if abs(pmf.sum() - 1.0) > 1e-12:
            raise ValueError(f"pmf must sum to 1 (got {pmf.sum()!r})")
        pmf.setflags(write=False)
        object.__setattr__(self, "pmf", pmf)

    def support(self):
        """Pairs (r, probability) with probability > 0."""
        return [(r + 1, float(p)) for r, p in enumerate(self.pmf) if p > 0.0]


class ChainTables:
    """The chain's transition rule as tables over flat states ``s = x * (L + 1) + ell``.

    ``busy`` is the service rate ``min(x, k) * mu``, ``stay_cost`` the step
    cost ``h * max(x - k, 0) + c(ell)`` and ``offload_cost`` adds ``p(ell)``.
    ``succ[s, e, j]`` is the next state after event ``e`` (0 a departure, 1
    an offloaded arrival, 2 an accepted one) with resource index
    ``j = searchsorted(cdf, u, side="right")``, one past the support included.
    Only here are the queue and load clamped to ``0..X`` and ``0..L``.
    """

    def __init__(self, params: ModelParams, cm: CostModel, rd: ResourceDist):
        X, L, k = params.buffer_capacity, params.cpu_levels, params.cores
        if cm.levels != L:
            raise ValueError(f"cost tables sized for {cm.levels} load levels, model has {L}")
        states = np.arange((X + 1) * (L + 1))
        xs, ls = np.divmod(states, L + 1)
        self.busy = np.minimum(xs, k) * params.service_rate
        self.stay_cost = cm.holding * np.maximum(xs - k, 0) + cm.running[ls]
        self.offload_cost = self.stay_cost + cm.penalty[ls]
        self.cdf = np.cumsum(rd.pmf)
        r = np.arange(1, len(self.cdf) + 2)
        self.succ = np.stack([
            np.maximum(xs - 1, 0)[:, None] * (L + 1) + np.maximum(ls[:, None] - r, 0),
            np.repeat(states[:, None], len(r), axis=1),
            np.minimum(xs + 1, X)[:, None] * (L + 1) + np.minimum(ls[:, None] + r, L),
        ], axis=1)

    def arrival_p(self, lam: float) -> np.ndarray:
        """Probability that the next event is an arrival, ``lam / (lam + busy)``."""
        if lam < 0:
            raise ValueError("arrival rate must be >= 0")
        if lam == 0:  # the empty queue has no event
            raise NoEventError()
        return lam / (lam + self.busy)


class StepKernel:
    """The chain's one transition rule, sampled a step at a time.

    Built once per ``(params, cm, rd)`` from ``ChainTables`` as nested lists
    of Python numbers: a step only looks up its successor and cost, and the
    resource index comes from ``bisect_right`` on the cdf list, which equals
    ``np.searchsorted(cdf, u, side="right")``, so a step does no numpy work.
    """

    def __init__(self, params: ModelParams, cm: CostModel, rd: ResourceDist):
        t = ChainTables(params, cm, rd)
        shape = (params.buffer_capacity + 1, params.cpu_levels + 1)
        self.busy = t.busy[:: shape[1]].tolist()
        self.stay_cost = t.stay_cost.reshape(shape).tolist()
        self.offload_cost = t.offload_cost.reshape(shape).tolist()
        # successors by [x][ell][j], as one shared (x', ell') tuple per state
        pair = [divmod(s, shape[1]) for s in range(len(t.succ))]
        succ = t.succ.reshape(shape + t.succ.shape[1:]).tolist()
        self.down = [[[pair[s] for s in cell[0]] for cell in row] for row in succ]
        self.up = [[[pair[s] for s in cell[2]] for cell in row] for row in succ]
        self.cdf = t.cdf.tolist()

    def step(
        self,
        x: int,
        ell: int,
        lam: float,
        decide: Callable[[int, int, int], int],
        n: int,
        event_u: Callable[[], float],
        resource_u: Callable[[], float],
    ) -> tuple[int, int, int | None, float]:
        """One transition from ``(x, ell)``: ``(x', ell', action, cost)``.

        ``event_u`` and ``resource_u`` return the next uniform of their
        streams.  The event is drawn only when ``lam > 0``, and it is an
        arrival iff the draw is at most ``delta(x)``.  ``decide(x, ell, n)``
        is called only at an arrival; a truthy action offloads.  The resource
        is drawn unless the arrival is offloaded.  The action is None at a
        departure, which incurs the accept-cost of the current state: no
        decision is taken at a completion, so no penalty can apply.  ACCEPT at
        a full buffer leaves ``x`` at ``X``; forcing an offload there is the
        job of ``decide``: a learner's ``act`` returns 1 at ``x == X``, and a
        ``policy_table`` offloads in its row ``X``.
        """
        busy = self.busy[x]
        if lam == 0.0 and busy == 0.0:
            raise NoEventError()
        if lam > 0.0 and event_u() <= lam / (lam + busy):
            a = decide(x, ell, n)
            if a:
                return x, ell, a, self.offload_cost[x][ell]
            nx, nl = self.up[x][ell][bisect_right(self.cdf, resource_u())]
            return nx, nl, a, self.stay_cost[x][ell]
        nx, nl = self.down[x][ell][bisect_right(self.cdf, resource_u())]
        return nx, nl, None, self.stay_cost[x][ell]
