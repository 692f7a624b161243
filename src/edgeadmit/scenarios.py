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

from dataclasses import dataclass, field

from . import rng as rngmod
from .model import check_ints


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
        if self.kind not in range(1, 7):
            raise ValueError("scenario kind must be 1..6")
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


@dataclass
class ScenarioState:
    """Mutable per-run traffic state, owned by exactly one simulation."""

    scenario: Scenario
    horizon: int
    seed: int
    step: int = 0
    tiers: list[bool] = field(default_factory=list)  # True = high rate
    uids: list[int] = field(default_factory=list)
    next_uid: int = 0
    lam: float = 0.0
    _phase1: int = 0
    _phase2: int = 0
    _toggle_every: int = 0
    _pop_every: int = 0

    @classmethod
    def create(cls, scenario: Scenario, horizon: int, seed: int) -> "ScenarioState":
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        ss = cls(scenario=scenario, horizon=horizon, seed=seed)
        ss.uids = list(range(scenario.n_users))
        ss.next_uid = scenario.n_users
        if scenario.rate_toggles:
            ss.tiers = [
                rngmod.user_uniform(seed, "scenario-init", uid, 0) < 0.5
                for uid in ss.uids
            ]
        else:
            ss.tiers = [False] * scenario.n_users
        f1, f2 = scenario.phase_fractions
        ss._phase1 = round(f1 * horizon)
        ss._phase2 = round(f2 * horizon)
        ss._toggle_every = max(1, round(scenario.toggle_period_fraction * horizon))
        ss._pop_every = max(1, round(scenario.population_period_fraction * horizon))
        ss._recompute_rate()
        return ss

    def _recompute_rate(self) -> None:
        sc = self.scenario
        self.lam = sum(
            sc.lambda_high if hi else sc.lambda_low for hi in self.tiers
        )

    @property
    def n_users(self) -> int:
        return len(self.uids)

    def event_steps(self) -> list[int]:
        """Steps in ``1..horizon-1`` at which ``advance_to`` can change the state.

        Phase boundaries, toggle steps and population steps; moving to any
        other step only moves the counter.
        """
        sc = self.scenario
        steps: set[int] = set()
        if sc.rate_switches:
            steps.update((self._phase1, self._phase2))
        if sc.rate_toggles:
            steps.update(range(self._toggle_every, self.horizon, self._toggle_every))
        if sc.population_drifts:
            steps.update(range(self._pop_every, self.horizon, self._pop_every))
        return sorted(s for s in steps if 0 < s < self.horizon)

    def advance_to(self, s: int) -> None:
        """Jump forward to step ``s``, applying the change-point events of ``s`` only.

        Equal to moving one step at a time, ``advance_to(step + 1)``, until
        the counter reads ``s`` when no step strictly between the current one
        and ``s`` is in ``event_steps``, as between two consecutive change
        points.
        """
        if s <= self.step:
            raise ValueError(f"cannot move from step {self.step} back to {s}")
        self.step = s
        sc = self.scenario
        changed = False
        if sc.rate_switches:
            if s == self._phase1:
                self.tiers = [True] * len(self.tiers)
                changed = True
            elif s == self._phase2:
                self.tiers = [False] * len(self.tiers)
                changed = True
        if sc.rate_toggles and s % self._toggle_every == 0:
            for i, uid in enumerate(self.uids):
                if rngmod.user_uniform(self.seed, "scenario-toggle", uid, s) < sc.toggle_prob:
                    self.tiers[i] = not self.tiers[i]
                    changed = True
        if sc.population_drifts and s % self._pop_every == 0:
            uids: list[int] = []
            tiers: list[bool] = []
            for uid, tier in zip(self.uids, self.tiers):
                u = rngmod.user_uniform(self.seed, "scenario-pop", uid, s)
                if u < sc.leave_prob:
                    changed = True
                    continue
                uids.append(uid)
                tiers.append(tier)
                if u >= 1.0 - sc.add_prob:
                    # the new device inherits its owner's current rate tier
                    uids.append(self.next_uid)
                    tiers.append(tier)
                    self.next_uid += 1
                    changed = True
            self.uids, self.tiers = uids, tiers
        if changed:
            self._recompute_rate()


def trajectory(
    scenario: Scenario, horizon: int, seed: int
) -> list[tuple[int, float, int]]:
    """Change-point rows (step, aggregate rate, population size).

    Row 0 is always present; later rows appear only when the rate or the
    population changes, which keeps exports compact at long horizons.  Only
    the steps that can change the state are visited; the rows are those of
    advancing through every step.
    """
    ss = ScenarioState.create(scenario, horizon, seed)
    rows = [(0, ss.lam, ss.n_users)]
    for s in ss.event_steps():
        ss.advance_to(s)
        last = rows[-1]
        if ss.lam != last[1] or ss.n_users != last[2]:
            rows.append((s, ss.lam, ss.n_users))
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
