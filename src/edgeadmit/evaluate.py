"""Policy evaluation: discounted-cost rollouts and behavioral metrics.

A policy is an ``(X+1, L+1)`` int8 action table (``model.policy_table``), 1
meaning offload.  Every simulator here runs on the command's one
``model.ChainTables``: the scalar loops through its ``step``, the numpy
lanes on its tables.
Rollouts freeze the arrival rate at its value when evaluation starts, so a
policy is always measured against the traffic it currently faces;
``evaluate_batch`` steps the rollouts of many policies together as numpy
lanes, and ``evaluate`` is its one-policy call; both report the mean and
the type-7 quartiles of the costs (``quartiles``, numpy's rule without
``np.quantile``).  The lanes (``rollout_costs``) step every point with
``lam > 0`` through one loop over the chain's tables, and ``rollout``
scores the rest; each block's resource indices are found once, and a lane
is retired early, bit for bit, once its total has settled or it is trapped
offloading.  The behavioral
comparison instead replays a shared event trace against an evolving
scenario: every policy consumes the same uniform draws, so differences in
overload entries and offload counts are attributable to the policies alone.
Its loop steps each policy over ``(start, stop, lam)`` rate segments in
metric windows and fast-forwards a policy trapped at ``x = 0`` to each
segment's stop; ``rollout`` is the plain step loop that every lane equals.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from . import rng as rngmod
from .model import ChainTables, Event, check_ints, freeze_pair
from .scenarios import Scenario, rate_segments, trajectory


@dataclass(frozen=True)
class EvalConfig:
    rollout_length: int = 1000
    n_rollouts: int = 100
    initial_state: tuple[int, int] = (0, 0)
    window: int = 1000
    overload_level: int = 18

    def __post_init__(self) -> None:
        freeze_pair(self, "initial_state")
        check_ints(self, 1, "rollout_length", "n_rollouts", "window")
        check_ints(self, 0, "overload_level")


@dataclass(frozen=True)
class MetricsWindow:
    index: int
    cost_discounted: float
    cost_undiscounted: float
    c_ov: int   # steps ending at or above the overload level
    c_off: int  # offload actions taken, forced ones included


@dataclass(frozen=True)
class PolicySeries:
    """One policy's shared-trace windows and the step its trajectory is trapped at."""

    windows: tuple[MetricsWindow, ...]
    trap_step: int | None  # first step at x = 0 in an offload state, None if never


@dataclass(frozen=True)
class EvalReport:
    mean: float
    q1: float
    median: float
    q3: float
    n_rollouts: int


# ---------------------------------------------------------------------------
# rollouts


def rollout(
    table: np.ndarray,
    lam: float,
    chain: ChainTables,
    horizon: int,
    rng: np.random.Generator,
    initial_state: tuple[int, int] = (0, 0),
) -> float:
    """Discounted cost of ``horizon`` uniformized steps of ``table`` at a frozen rate.

    ``rollout_costs`` runs it for a point with ``lam <= 0``, and each of its
    lanes equals it: every step goes through ``chain.step`` with both draws
    from ``rng``, an event draw per step when ``lam > 0``, then a resource
    draw unless the arrival is offloaded, whose index is where it falls in
    the chain's ``cdf``.
    """
    offloads = np.asarray(table).tolist()
    cdf = chain.cdf.tolist()

    def resource_j() -> int:
        return bisect_right(cdf, rng.random())

    def decide(x: int, ell: int, n: int) -> int:
        return offloads[x][ell]

    step = chain.step
    beta = chain.params.discount_beta
    x, ell = initial_state
    total, disc = 0.0, 1.0
    for _ in range(horizon):
        x, ell, _, incurred = step(x, ell, lam, decide, 0, rng.random, resource_j)
        total += disc * incurred
        disc *= beta
    return total


# Lanes stepped together in one array, and the uniforms each lane holds at
# a time.  A draw takes 8 bytes, its resource index 1 (for up to 255
# resource sizes) and a lane's generator about 1.7 KB, so a full batch holds
# about 2 MB: both constants bound evaluation's memory.
BATCH_LANES = 500
BLOCK_DRAWS = 280


def _resource_indices(u: np.ndarray, cdf: np.ndarray, out: np.ndarray) -> None:
    """Write ``searchsorted(cdf, u, side="right")`` into ``out``: for a
    non-decreasing ``cdf`` that is the number of its entries at most ``u``,
    summed here one entry at a time, so the cost grows with ``len(cdf)``."""
    np.greater_equal(u, cdf[0], out=out)
    for c in cdf[1:]:
        out += u >= c


def _trapped_totals(
    total: np.ndarray, cost: np.ndarray, disc: float, beta: float,
    steps: range, settle: float,
) -> np.ndarray:
    """The totals of lanes that add ``disc_t * cost`` at every step ``t`` of
    ``steps``, one chunk of ``steps.step`` at a time, as the step loop adds
    them: ``np.add.accumulate`` sums each chunk's terms in order, on the
    discount sequence ``disc *= beta``, and a lane stops at a chunk's start
    where the settle rule holds."""
    done = np.empty_like(total)
    lane = np.arange(len(total))
    for t in steps:
        if t != steps.start:
            final = disc * settle < np.spacing(np.abs(total)) / 4
            done[lane[final]] = total[final]
            lane, total, cost = lane[~final], total[~final], cost[~final]
            if not lane.size:
                return done
        k = min(steps.step, steps.stop - t)
        discs = np.multiply.accumulate(np.concatenate(([disc], np.full(k, beta))))
        terms = np.empty((len(total), k + 1))
        terms[:, 0] = total
        np.multiply(cost[:, None], discs[:k], out=terms[:, 1:])
        total = np.add.accumulate(terms, axis=1)[:, -1]
        disc = float(discs[k])
    done[lane] = total
    return done


def rollout_costs(
    points: Sequence[tuple[np.ndarray, float, int]],
    cfg: EvalConfig,
    chain: ChainTables,
) -> np.ndarray:
    """Discounted cost of each rollout of each ``(table, lam, seed)`` point.

    Returns a ``(len(points), n_rollouts)`` array.  Rollout ``i`` of a point
    is ``rollout`` on ``substream(seed, f"rollout-{i}")``, and a point with
    ``lam <= 0`` is scored by ``rollout`` itself (at ``lam == 0`` it raises
    ``NoEventError`` where the chain has no event).  The lanes of the other
    points, seeded together by ``rng.substreams``, step together as numpy
    lanes, ``BATCH_LANES`` at a time.  A lane reads its uniforms through its
    own cursor in the order ``rollout`` draws them, from blocks of
    ``BLOCK_DRAWS`` refilled from its own generator (``random(k)`` twice
    returns what ``random(2 * k)`` returns once), and the resource index of
    every draw in a block is found once per refill.  Every lane applies the
    same floating-point operations as ``rollout``, with the same scalar
    discount, so each lane's cost equals ``rollout``'s bit for bit.

    Two rules stop a lane early, checked at each refill:

    - it settles where ``disc * max|cost| * (1 + 2**-52) < spacing(|total|) / 4``:
      every later term ``disc_t * cost`` (``disc_t <= disc``) is then
      smaller than half the gap to the total's nearest float on either side
      (below a power of two the gap halves), so under round-to-nearest no
      later addition changes the total.  The rule never holds at
      ``total == 0``;
    - it is trapped in a state whose arrival probability is exactly 1.0 and
      which its table offloads from: every later draw is an arrival (a
      uniform is below 1.0), offloaded, so the state and the step cost stay
      and no resource is drawn.  The trap is what ``busy = 0`` at ``x = 0``
      makes of an offloading table.  The lane draws nothing more and adds
      the same terms in the same order through ``_trapped_totals``, which
      settles it by the same rule.

    Both rules are exact: a lane stopped by either returns the total that
    stepping on to ``horizon`` would have given.  The trap test reads
    ``chain.arrival_p``, not ``x == 0``, so it holds for any departure
    kernel.
    """
    n, horizon = cfg.n_rollouts, cfg.rollout_length
    out = np.empty((len(points), n))
    moving = np.array([lam > 0.0 for _, lam, _ in points], dtype=bool)
    for k in np.flatnonzero(~moving).tolist():
        table, lam, seed = points[k]
        out[k] = [rollout(table, lam, chain, horizon, rngmod.substream(seed, f"rollout-{i}"),
                          cfg.initial_state) for i in range(n)]
    points = list(itertools.compress(points, moving))
    beta = chain.params.discount_beta
    states, events, n_r = chain.succ.shape
    x0, ell0 = cfg.initial_state
    s = np.arange(states)
    # point-free rows r = n_r * (events * s + e) of the chain's event tables.
    # By row, the step cost and the draws the step takes, and at r + j, for
    # resource index j, the next state's departure index 2 * s' (a point's
    # lanes add the point's offset)
    depart, offload, accept = (
        n_r * (events * s + e) for e in (Event.DEPARTURE, Event.OFFLOADED, Event.ACCEPTED))
    step_cost = np.repeat(chain.cost.ravel(), n_r)
    draws = np.repeat(np.tile(1 + (np.arange(events) != Event.OFFLOADED), states), n_r)
    after = 2 * chain.succ.ravel()
    # a bound on every term a lane adds from a discount disc on: disc * settle
    settle = float(np.abs(step_cost).max()) * (1.0 + 2.0**-52)
    # a step takes at most two draws, so a full block lasts half as many steps
    width = min(BLOCK_DRAWS, 2 * horizon)
    chunk = width // 2

    costs = np.empty(len(points) * n)
    # every batch refills its rows before it reads them, so one array serves all
    u = np.empty((min(BATCH_LANES, len(costs)), width))
    flat = u.ravel()
    # index[c] is the resource index of flat[c + 1], the draw after an event
    # draw at c.  The last entry is never read: a chunk's last event draw
    # lies at most at column width - 2
    index = np.empty(u.size, np.min_scalar_type(n_r - 1))
    for first in range(0, len(costs), BATCH_LANES):
        # lane j is rollout i of point p, where (p, i) = divmod(j, n)
        batch = range(first, min(first + BATCH_LANES, len(costs)))
        m = len(batch)
        p0 = first // n
        local = np.arange(first, first + m) // n - p0
        here = points[p0:p0 + local[-1] + 1]
        # per point, by departure index d = 2 * s: the arrival probability,
        # the row of a departure at d and of an arrival at d + 1, and whether
        # the state traps a lane
        offloads = np.array([np.asarray(table).ravel() != 0 for table, _, _ in here])
        arrive = np.array([chain.arrival_p(lam) for _, lam, _ in here])
        arrival_p = np.repeat(arrive, 2)
        nxt = np.stack(np.broadcast_arrays(depart, np.where(offloads, offload, accept)), -1).ravel()
        trap = np.repeat((arrive == 1.0) & offloads, 2)
        seeds, names = zip(*((points[p][2], f"rollout-{i}")
                             for p, i in map(divmod, batch, itertools.repeat(n))))
        gens = rngmod.substreams(seeds, names)

        # by lane, compacted as lanes stop: its index in the batch, its
        # block's row before the last compaction and the draws read from it
        lane = np.arange(m)
        src = lane
        used = np.full(m, width)
        offset = 2 * states * local
        d = offset + 2 * (x0 * (chain.params.cpu_levels + 1) + ell0)
        total = np.zeros(m)
        disc = 1.0
        for t in range(0, horizon, chunk):
            final = disc * settle < np.spacing(np.abs(total)) / 4
            trapped = trap[d] & ~final
            stop = final | trapped
            if stop.any():
                costs[first + lane[final]] = total[final]
                if trapped.any():
                    costs[first + lane[trapped]] = _trapped_totals(
                        total[trapped], step_cost[nxt[d[trapped] + 1]], disc, beta,
                        range(t, horizon, chunk), settle)
                src = np.flatnonzero(~stop)
                lane, used, offset, d, total = (a[src] for a in (lane, used, offset, d, total))
                gens = [gens[k] for k in src.tolist()]
                if not lane.size:
                    break
            # keep each lane's unread draws, moved up to its new row, and fill
            # the row up behind them: a lane's new row is never after its old one
            for row_u, old, gen, k in zip(u, src.tolist(), gens, used.tolist()):
                row_u[:width - k] = u[old, k:]
                gen.random(out=row_u[width - k:])
            size = lane.size * width
            _resource_indices(flat[1:size], chain.cdf, index[:size - 1])
            src = np.arange(lane.size)
            start = src * width
            cursor = start.copy()
            for _ in range(min(chunk, horizon - t)):
                r = nxt[d + (flat[cursor] <= arrival_p[d])]
                total += disc * step_cost[r]
                disc *= beta
                d = after[r + index[cursor]] + offset
                cursor += draws[r]
            used = cursor - start
        costs[first + lane] = total
        del gens  # so that two batches' generators are never held at once
    out[moving] = costs.reshape(len(points), n)
    return out


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``, sorted ascending with any NaN last.

    Hyndman and Fan's type 7, numpy's default, computed as
    ``np.quantile(values, (0.25, 0.5, 0.75))`` computes it, bit for bit: the
    quantile ``q`` lies at ``v = (n - 1) * q``, between ``a = values[floor(v)]``
    and the next value ``b``, at ``g = v - floor(v)``, and numpy interpolates
    from ``b`` when ``g >= 0.5``.  ``np.quantile`` itself would import
    ``numpy.ma`` on its first call: 10-16 ms in each process that scores.
    """
    n = len(values)
    if values[-1] != values[-1]:  # a NaN makes every quantile NaN, as in numpy
        return (float(values[-1]),) * 3
    out = []
    for q in (0.25, 0.5, 0.75):
        v = (n - 1) * q
        lo = int(v)
        g = v - lo
        a, b = float(values[lo]), float(values[min(lo + 1, n - 1)])
        out.append(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)
    return tuple(out)


def evaluate_batch(
    points: Sequence[tuple[np.ndarray, float, int]],
    cfg: EvalConfig,
    chain: ChainTables,
) -> list[EvalReport]:
    """``evaluate`` of each ``(table, lam, seed)`` point, all rolled out together."""
    reports = []
    for costs in rollout_costs(points, cfg, chain):
        costs.sort()
        q1, med, q3 = quartiles(costs)
        reports.append(EvalReport(
            mean=float(costs.mean()),
            q1=q1,
            median=med,
            q3=q3,
            n_rollouts=cfg.n_rollouts,
        ))
    return reports


def evaluate(
    table: np.ndarray,
    cfg: EvalConfig,
    lam: float,
    chain: ChainTables,
    seed: int,
) -> EvalReport:
    """Mean and quartiles of the discounted cost over independent rollouts."""
    return evaluate_batch([(table, lam, seed)], cfg, chain)[0]


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
# a float's bound ``__float__`` and an int's bound ``__index__``: zero-argument
# callables returning that number
_constant_draw = attrgetter("__float__")
_constant_index = attrgetter("__index__")


def _windows(
    chain: ChainTables,
    table: np.ndarray,
    segments: Iterable[tuple[int, int, float]],
    draws: Callable[[int, int], Iterable[tuple[Callable[[], float], Callable[[], int]]]],
    cfg: EvalConfig,
) -> tuple[list[MetricsWindow], int | None]:
    """Step ``table`` through ``chain.step`` over ``(start, stop, lam)`` segments.

    ``behavioral_compare``'s loop.  The segments tile ``0..horizon`` in
    order, and steps ``start..stop-1`` run at rate ``lam``.  ``draws(start, stop)`` yields one ``(event_u, resource_j)``
    per step from ``start`` to ``stop - 1``, the step's event uniform and
    resource index draws.  ``cfg`` gives the initial state, the window and the
    overload level; costs are discounted at the chain's ``discount_beta``.
    Returns the per-window metrics and the trap step: the first step that
    starts at ``x = 0`` in a state the table offloads from, with
    ``lam > 0``, or None.

    A trapped state is absorbing while ``lam > 0``: ``delta(0) = 1``, so every
    event is an arrival, offloaded at the same cost.  From the trap step to
    the stop of each segment with ``lam > 0`` the loop calls neither the
    step nor ``draws`` and applies the same float operations in the same
    order, so every window is the step's bit for bit.  A segment with
    ``lam == 0`` goes back to the step, which raises ``NoEventError`` at
    its first step.  Once ``disc * beta == disc`` (``disc`` sticks at the
    smallest subnormal and never reaches 0.0 for ``beta`` > 0.5), every full
    window is the same, so it is computed once and repeated.
    """
    offloads = np.asarray(table).tolist()
    trapped = offloads[0]

    def decide(x: int, ell: int, n: int) -> int:
        return offloads[x][ell]

    step = chain.step
    beta = chain.params.discount_beta
    window, overload_level = cfg.window, cfg.overload_level
    x, ell = cfg.initial_state
    disc = 1.0
    windows: list[MetricsWindow] = []
    w_disc = w_undisc = 0.0
    w_ov = w_off = w_index = w_fill = 0
    trap_step = None

    for start, stop, lam in segments:
        for event_u, resource_j in draws(start, stop):
            if not x and trapped[ell] and lam > 0.0:
                break
            x, ell, a, incurred = step(x, ell, lam, decide, 0, event_u, resource_j)
            if a:
                w_off += 1
            w_disc += disc * incurred
            w_undisc += incurred
            if ell >= overload_level:
                w_ov += 1
            disc *= beta
            w_fill += 1
            if w_fill == window:
                windows.append(MetricsWindow(w_index, w_disc, w_undisc, w_ov, w_off))
                w_index += 1
                w_disc = w_undisc = 0.0
                w_ov = w_off = w_fill = 0
        else:
            continue

        # trapped at step t, up to the segment's stop
        t = w_index * window + w_fill
        if trap_step is None:
            trap_step = t
        cost = float(chain.cost[ell, Event.OFFLOADED])  # state (0, ell) is s = ell
        over = ell >= overload_level
        while t < stop:
            n = min(window - w_fill, stop - t)
            # a full window once disc no longer moves: the full windows left are all this one
            repeats = (stop - t) // window if n == window and disc * beta == disc else 1
            for _ in range(n):
                w_disc += disc * cost
                w_undisc += cost
                disc *= beta
            w_off += n
            if over:
                w_ov += n
            w_fill += n
            t += n
            if w_fill == window:
                windows.extend(MetricsWindow(w_index + i, w_disc, w_undisc, w_ov, w_off)
                               for i in range(repeats))
                w_index += repeats
                t += (repeats - 1) * window
                w_disc = w_undisc = 0.0
                w_ov = w_off = w_fill = 0

    if w_fill:
        windows.append(MetricsWindow(w_index, w_disc, w_undisc, w_ov, w_off))
    return windows, trap_step


def behavioral_compare(
    policies: dict[str, np.ndarray],
    scenario: Scenario,
    chain: ChainTables,
    trace: EventTrace,
    cfg: EvalConfig,
) -> dict[str, PolicySeries]:
    """Replay one event trace under each policy table and collect per-window metrics.

    ``cfg`` gives the initial state, the window length and the overload level.

    The event at step t is an arrival iff ``z_t <= lam / (lam + busy)``, at
    the rate ``lam`` of the ``rate_segments`` segment that holds step t; the
    threshold is state-dependent, so trajectories diverge across policies
    while consuming identical randomness.  Each policy runs ``_windows``
    over ``chain.step``; at step t the event draw returns ``z_t`` and the
    resource draw the index of ``u_t`` in the chain's ``cdf``, so a step that
    skips a draw shifts no later one.  The indices are found once per trace.
    """
    indices = np.searchsorted(chain.cdf, trace.resource_u, side="right")

    def chunk(start: int, stop: int):
        steps = slice(start, min(start + _CHUNK, stop))
        return zip(
            map(_constant_draw, trace.z[steps].tolist()),
            map(_constant_index, indices[steps].tolist()),
        )

    def draws(start: int, stop: int):
        return itertools.chain.from_iterable(chunk(i, stop) for i in range(start, stop, _CHUNK))

    horizon = len(trace.z)
    segments = rate_segments(trajectory(scenario, horizon, trace.seed), horizon)
    series = {}
    for name, table in policies.items():
        windows, trap_step = _windows(chain, table, segments, draws, cfg)
        series[name] = PolicySeries(tuple(windows), trap_step)
    return series


def aggregate_training_curves(
    curves: list[list[tuple[int, float]]],
) -> list[tuple[int, float, float, float]]:
    """Across-seed (step, median, q1, q3) of each seed's ``(step, mean)`` eval points."""
    by_step: dict[int, list[float]] = {}
    for curve in curves:
        for step, mean in curve:
            by_step.setdefault(step, []).append(mean)
    rows = []
    for step in sorted(by_step):
        q1, med, q3 = quartiles(np.sort(by_step[step]))
        rows.append((step, med, q1, q3))
    return rows
