"""Time-varying traffic: aggregate arrival rate from a population of users.

Six scenario kinds:

1. constant population, constant per-user rate
2. constant population, all users switch low/high/low at fixed phase
   boundaries
3. constant population, each user independently toggles its rate tier at
   regular intervals
4. drifting population (leave / stay / spawn a device), constant rate
5. scenario 2 rate pattern + scenario 4 population drift
6. scenario 3 toggling + scenario 4 population drift

All change points are expressed as fractions of the run horizon, so scaling
the horizon scales every change point with it.  Per-user randomness is
counter-based (seed, domain, user id, step), which makes users mutually
independent and trajectories reproducible regardless of population churn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .model import MAX_POPULATION, check_ints, check_numbers

# user draws per ``rng.user_uniforms`` call, at most (one step's users are
# never split): it bounds the call's memory
DRAW_BLOCK = 2**16


class PopulationError(ValueError):
    """A drifting population outgrew ``MAX_POPULATION``."""


@dataclass(frozen=True)
class Scenario:
    kind: int = 1
    n_users: int = 24
    lambda_low: float = 0.25
    lambda_high: float = 0.375
    phase_fractions: tuple[float, float] = (1.0 / 3.0, 2.0 / 3.0)
    toggle_period_fraction: float = 0.01
    toggle_prob: float = 0.1
    population_period_fraction: float = 0.1
    leave_prob: float = 0.05
    stay_prob: float = 0.9
    add_prob: float = 0.05

    def __post_init__(self) -> None:
        check_ints(self, 0, "kind", "n_users")
        check_numbers(self, "lambda_low", "lambda_high", "toggle_period_fraction",
                      "toggle_prob", "population_period_fraction", "leave_prob",
                      "stay_prob", "add_prob")
        if self.kind not in range(1, 7):
            raise ValueError("scenario kind must be 1..6")
        if self.n_users > MAX_POPULATION:
            raise ValueError(f"n_users must be at most {MAX_POPULATION}")
        if not 0 <= self.lambda_low <= self.lambda_high:
            raise ValueError("need 0 <= lambda_low <= lambda_high")
        for name in ("toggle_prob", "leave_prob", "stay_prob", "add_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if abs(self.leave_prob + self.stay_prob + self.add_prob - 1.0) > 1e-12:
            raise ValueError("leave + stay + add probabilities must sum to 1")
        f1, f2 = self.phase_fractions
        if not 0.0 < f1 < f2 < 1.0:
            raise ValueError("phase fractions must satisfy 0 < f1 < f2 < 1")

    @property
    def rate_switches(self) -> bool:
        return self.kind in (2, 5)

    @property
    def rate_toggles(self) -> bool:
        return self.kind in (3, 6)

    @property
    def population_drifts(self) -> bool:
        return self.kind in (4, 5, 6)

    def initial_aggregate_rate(self) -> float:
        """Reference time-homogeneous rate: the full population at the low tier."""
        return self.n_users * self.lambda_low


def _schedule(scenario: Scenario, horizon: int) -> tuple[int, int, int, int]:
    """The two phase boundaries and the toggle and population periods, in steps."""
    f1, f2 = scenario.phase_fractions
    toggle = max(1, round(scenario.toggle_period_fraction * horizon))
    pop = max(1, round(scenario.population_period_fraction * horizon))
    return round(f1 * horizon), round(f2 * horizon), toggle, pop


def event_steps(scenario: Scenario, horizon: int) -> list[int]:
    """The sorted steps in ``1..horizon-1`` at which the traffic can change.

    Phase boundaries, toggle steps and population steps; at every other step
    the rate and the population stay as they are.
    """
    phase1, phase2, toggle, pop = _schedule(scenario, horizon)
    steps: set[int] = set()
    if scenario.rate_switches:
        steps.update((phase1, phase2))
    if scenario.rate_toggles:
        steps.update(range(toggle, horizon, toggle))
    if scenario.population_drifts:
        steps.update(range(pop, horizon, pop))
    return sorted(s for s in steps if 0 < s < horizon)


def _user_draws(seed: int, uids: list[int], draws: list[tuple[str, int]]):
    """Per ``(domain, step)`` of ``draws``, the list of ``uids``' user uniforms.

    The draws are computed by ``rng.user_uniforms``, up to ``DRAW_BLOCK`` at a
    time, and yielded in order.
    """
    width = max(1, DRAW_BLOCK // max(1, len(uids)))
    column = np.array(uids, dtype=np.int64)[:, None]
    for i in range(0, len(draws), width):
        domains, steps = zip(*draws[i:i + width])
        yield from rngmod.user_uniforms(seed, domains, column, steps).T.tolist()


def trajectory(scenario: Scenario, horizon: int, seed: int) -> list[tuple[int, float, int]]:
    """Change-point rows (step, aggregate rate, population size).

    Row 0 is always present; later rows appear only when the rate or the
    population changes, which keeps exports compact at long horizons.  Each
    of the ``event_steps`` applies its rate switch, then its toggles, then
    its population draws; no other step can change the state.  The users
    change only at population steps, so a period's draws, up to and
    including its population step, are made together before the period is
    applied.  A population above ``MAX_POPULATION`` at the start of a period
    raises ``PopulationError``.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    sc = scenario
    phase1, phase2, toggle, pop = _schedule(sc, horizon)
    # (user id, on the high rate tier), always in the same order, so that
    # equal populations sum to equal rates
    high = [False] * sc.n_users
    if sc.rate_toggles:
        draws = rngmod.user_uniforms(seed, "scenario-init", np.arange(sc.n_users), 0)
        high = (draws < 0.5).tolist()
    users = list(enumerate(high))
    next_uid = sc.n_users

    def rate() -> float:
        return sum(sc.lambda_high if hi else sc.lambda_low for _, hi in users)

    rows = [(0, rate(), len(users))]
    # the periods: the event steps up to and including each population step
    periods: list[list[int]] = [[]]
    for s in event_steps(sc, horizon):
        periods[-1].append(s)
        if sc.population_drifts and s % pop == 0:
            periods.append([])
    for period in filter(None, periods):
        if len(users) > MAX_POPULATION:
            raise PopulationError(
                f"config error at scenario: the population reached {len(users)} users "
                f"by step {period[0]}, above the cap of {MAX_POPULATION}")
        draws = [("scenario-toggle", s) for s in period if sc.rate_toggles and s % toggle == 0]
        if sc.population_drifts and period[-1] % pop == 0:
            draws.append(("scenario-pop", period[-1]))
        columns = _user_draws(seed, [uid for uid, _ in users], draws)
        for s in period:
            if sc.rate_switches and s in (phase1, phase2):
                users = [(uid, s == phase1) for uid, _ in users]
            if sc.rate_toggles and s % toggle == 0:
                users = [(uid, hi != (u < sc.toggle_prob))
                         for (uid, hi), u in zip(users, next(columns))]
            if sc.population_drifts and s % pop == 0:
                kept = []
                for (uid, hi), u in zip(users, next(columns)):
                    if u < sc.leave_prob:
                        continue
                    kept.append((uid, hi))
                    if u >= 1.0 - sc.add_prob:
                        # the new device inherits its owner's current rate tier
                        kept.append((next_uid, hi))
                        next_uid += 1
                users = kept
            lam = rate()
            if lam != rows[-1][1] or len(users) != rows[-1][2]:
                rows.append((s, lam, len(users)))
    return rows


def rate_segments(
    rows: list[tuple[int, float, int]], horizon: int
) -> list[tuple[int, int, float]]:
    """The arrival rate as ``(start, stop, lam)`` segments that tile ``0..horizon``.

    ``rows`` are ``trajectory``'s rows over ``horizon``.  Steps
    ``start..stop-1`` all run at rate ``lam``: one segment per row, ending
    where the next row starts.
    """
    stops = [start for start, _, _ in rows[1:]] + [horizon]
    return [(start, stop, lam) for (start, lam, _), stop in zip(rows, stops)]
