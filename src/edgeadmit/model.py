"""Model layer: states, costs, the chain and its one-step simulator, and policy tables.

A command builds its chain once, a ``ChainTables`` over ``(params, cm, rd)``
made in ``config.Experiment.from_config``, and every solver and simulator
reads that one value: its tables by ``Event``, or its scalar ``step``.  A
policy is an ``(X+1, L+1)`` int8 action table made by ``policy_table``.  The
system is a finite queue (length ``x``, capacity ``X``) feeding ``k`` cores
whose joint load is discretized to ``ell`` in ``0..L``.  Uniformizing the
continuous-time chain gives a discrete chain in which, from state
``(x, ell)``, the next event is an arrival with probability
``delta(x) = lam / (lam + min(x, k) * mu)`` and a departure otherwise.  Costs
are per uniformized step; the continuous-time scale factor is assumed
absorbed into the cost tables.
"""

from __future__ import annotations

import enum
import functools
import sys
import warnings
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


def check_ints(obj, low: int, *names: str) -> None:
    """Raise unless each dataclass field ``names`` of ``obj`` is an int >= ``low`` (no bool)."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is not int or value < low:
            raise ValueError(f"{name} must be an integer >= {low}")


def finite(value) -> bool:
    """Whether ``value`` is an int or a float (a bool is neither) of finite float value."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def finite_table(value, name: str) -> np.ndarray:
    """``value`` as a read-only 1-D float array, else raise: each entry of
    ``np.asarray(value).tolist()`` must be ``finite``, so a numpy array passes
    and a bool, a string or a nested list does not."""
    entries = np.asarray(value).tolist()
    if not (isinstance(entries, list) and entries and all(map(finite, entries))):
        raise ValueError(f"{name} must be a non-empty 1-D table of finite numbers")
    table = np.array(entries, dtype=float)
    table.setflags(write=False)
    return table


def check_numbers(obj, *names: str, optional: tuple[str, ...] = ()) -> None:
    """Raise unless each field ``names`` of ``obj`` is ``finite`` (or None if in ``optional``)."""
    for name in names + optional:
        value = getattr(obj, name)
        if not (finite(value) or value is None and name in optional):
            raise ValueError(f"{name} must be a finite number")


class CostTableWarning(UserWarning):
    """Cost tables break the monotonicity assumptions of the structural results."""


class NoEventError(ValueError):
    """Zero arrival rate and an empty queue: the chain has no event to sample."""

    def __init__(self) -> None:
        super().__init__("no event possible: lam == 0 and empty queue")

    def __reduce__(self):
        return type(self), ()


# the grid has (X + 1) * (L + 1) states and the planner holds several arrays
# over it, so an unbounded buffer would ask numpy for an unallocatable grid
MAX_BUFFER_CAPACITY = 10_000
# the most users a scenario may start with; a drifting population that keeps
# spawning doubles each period, and past this many ``scenarios.trajectory``
# stops instead of filling memory
MAX_POPULATION = 100_000


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
        check_ints(self, 1, "buffer_capacity", "cpu_levels", "cores")
        if self.buffer_capacity > MAX_BUFFER_CAPACITY:
            raise ValueError(f"buffer_capacity must be at most {MAX_BUFFER_CAPACITY}")
        check_numbers(self, "service_rate", "discount_beta",
                      optional=("discount_rate", "uniformization_rate"))
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
        if type(self.strict) is not bool:
            raise ValueError("strict must be a boolean")
        if not finite(np.asarray(self.holding).tolist()):
            raise ValueError("holding must be a finite number")
        run = finite_table(self.running, "running")
        pen = finite_table(self.penalty, "penalty")
        if run.shape != pen.shape:
            raise ValueError("running and penalty must be tables of equal length")
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
        pmf = finite_table(self.pmf, "pmf")
        if np.any(pmf < 0):
            raise ValueError("pmf entries must be >= 0")
        if abs(pmf.sum() - 1.0) > 1e-12:
            raise ValueError(f"pmf must sum to 1 (got {pmf.sum()!r})")
        object.__setattr__(self, "pmf", pmf)

    def support(self):
        """Pairs (r, probability) with probability > 0."""
        return [(r + 1, float(p)) for r, p in enumerate(self.pmf) if p > 0.0]


class Event:
    """A step's event, the ``e`` of the chain's ``cost[s, e]`` and ``succ[s, e, j]``: plain
    ints, not an enum, whose member lookups would slow the planner's sweep."""

    DEPARTURE = 0
    OFFLOADED = 1  # an arrival the policy offloads: the state stays, no resource is drawn
    ACCEPTED = 2


class ChainTables:
    """The chain's transition rule as tables over flat states ``s = x * (L + 1) + ell``.

    ``busy`` is the service rate ``min(x, k) * mu``.  By ``Event`` ``e``,
    ``cost[s, e]`` is the step cost ``h * max(x - k, 0) + c(ell)``, plus
    ``p(ell)`` for an offloaded arrival, and ``succ[s, e, j]`` the next state
    with resource index ``j``, where a resource uniform ``u`` falls in the
    ``cdf``: ``j = searchsorted(cdf, u, side="right")``, one past the support
    included.  Only here are the queue and load clamped to ``0..X`` and
    ``0..L``.  The tables are read-only: every simulator shares them, and
    ``step`` copies them.  The ingredients stay attributes: ``params``,
    ``cm`` and ``rd``.
    """

    def __init__(self, params: ModelParams, cm: CostModel, rd: ResourceDist):
        self.params, self.cm, self.rd = params, cm, rd
        X, L, k = params.buffer_capacity, params.cpu_levels, params.cores
        if cm.levels != L:
            raise ValueError(f"cost tables sized for {cm.levels} load levels, model has {L}")
        states = np.arange((X + 1) * (L + 1))
        xs, ls = np.divmod(states, L + 1)
        self.busy = np.minimum(xs, k) * params.service_rate
        stay = cm.holding * np.maximum(xs - k, 0) + cm.running[ls]
        self.cdf = np.cumsum(rd.pmf)
        r = np.arange(1, len(self.cdf) + 2)
        # the columns in Event order: departure, offloaded arrival, accepted arrival
        self.cost = np.stack([stay, stay + cm.penalty[ls], stay], axis=1)
        self.succ = np.stack([
            np.maximum(xs - 1, 0)[:, None] * (L + 1) + np.maximum(ls[:, None] - r, 0),
            np.repeat(states[:, None], len(r), axis=1),
            np.minimum(xs + 1, X)[:, None] * (L + 1) + np.minimum(ls[:, None] + r, L),
        ], axis=1)
        for table in (self.busy, self.cdf, self.cost, self.succ):
            table.setflags(write=False)

    def arrival_p(self, lam: float) -> np.ndarray:
        """Probability that the next event is an arrival, ``lam / (lam + busy)``."""
        if lam < 0:
            raise ValueError("arrival rate must be >= 0")
        if lam == 0:  # the empty queue has no event
            raise NoEventError()
        return lam / (lam + self.busy)

    @functools.cached_property
    def step(self) -> Callable[..., tuple[int, int, int | None, float]]:
        """The chain's one transition rule, sampled a step at a time.

        ``step(x, ell, lam, decide, n, event_u, resource_j)`` makes one
        transition from ``(x, ell)`` and returns ``(x', ell', action, cost)``.
        ``event_u`` returns the next event uniform, and ``resource_j`` the
        next resource index ``j`` of ``succ`` (``rng.block_indices`` draws
        them in blocks).  The event is drawn only when ``lam > 0``, and it is
        an arrival iff the draw is at most ``delta(x)``.  ``decide(x, ell, n)``
        is called only at an arrival; a truthy action offloads.  The resource
        is drawn unless the arrival is offloaded.  The action is None at a
        departure, which incurs the accept-cost of the current state: no
        decision is taken at a completion, so no penalty can apply.  ACCEPT at
        a full buffer leaves ``x`` at ``X``; forcing an offload there is the
        job of ``decide``: a learner's ``act`` returns 1 at ``x == X``, and a
        ``policy_table`` offloads in its row ``X``.

        Built on first use, once per chain, as nested lists of Python numbers:
        a step does no numpy work.
        """
        # the tables as nested lists by [e][x][ell], the successors by [e][x][ell][j]
        shape = (self.cost.shape[1], self.params.buffer_capacity + 1, self.params.cpu_levels + 1)
        cost = self.cost.T.reshape(shape).tolist()
        succ = self.succ.transpose(1, 0, 2).reshape(shape + (-1,)).tolist()
        depart_cost, offload_cost, accept_cost = (
            cost[Event.DEPARTURE], cost[Event.OFFLOADED], cost[Event.ACCEPTED])
        # one shared (x', ell') tuple per state
        pair = [divmod(s, shape[2]) for s in range(len(self.succ))]
        down, up = ([[[pair[s] for s in cell] for cell in row] for row in succ[e]]
                    for e in (Event.DEPARTURE, Event.ACCEPTED))
        busy = self.busy[:: shape[2]].tolist()

        def step(x, ell, lam, decide, n, event_u, resource_j):
            rate = busy[x]
            if lam == 0.0 and rate == 0.0:
                raise NoEventError()
            if lam > 0.0 and event_u() <= lam / (lam + rate):
                a = decide(x, ell, n)
                if a:
                    return x, ell, a, offload_cost[x][ell]
                nx, nl = up[x][ell][resource_j()]
                return nx, nl, a, accept_cost[x][ell]
            nx, nl = down[x][ell][resource_j()]
            return nx, nl, None, depart_cost[x][ell]

        return step


def policy_table(
    params: ModelParams,
    *,
    tau: np.ndarray | None = None,
    actions: np.ndarray | None = None,
    accept_below: int | None = None,
) -> np.ndarray:
    """A deterministic policy as an ``(X+1, L+1)`` int8 action table, 1 = offload.

    Built from one of three sources: a real threshold vector ``tau`` (accept
    iff ``ell <= floor(tau[x])``), an action table ``actions`` (planner output,
    or the greedy ``q[..., 1] < q[..., 0]`` of Q-values, ties to accept), or
    the baseline's ``accept_below`` (accept iff ``ell < accept_below``; 0
    offloads every arrival).  Row ``X`` always offloads: a full buffer cannot
    accept.
    """
    X, L = params.buffer_capacity, params.cpu_levels
    shape = (X + 1, L + 1)
    ell = np.arange(L + 1)
    if tau is not None:
        offload = ell > np.floor(np.asarray(tau, dtype=float))[:, None]
    elif actions is not None:
        offload = np.asarray(actions) != Action.ACCEPT
    else:
        offload = np.broadcast_to(ell >= accept_below, shape)
    if offload.shape != shape:
        raise ValueError(f"policy table shape {offload.shape} does not match {shape}")
    table = offload.astype(np.int8)
    table[X] = 1
    return table
