import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeadmit import rng as rngmod
from edgeadmit.scenarios import Scenario, event_steps, rate_segments, trajectory

from oracles import scenario_rates


def _step_rates(rows, horizon):
    """The rate at every step ``0..horizon-1``, from ``trajectory``'s rows."""
    return [lam for start, stop, lam in rate_segments(rows, horizon) for _ in range(start, stop)]


def test_s1_aggregate_rate_default():
    [(step, lam, n_users)] = trajectory(Scenario(kind=1), 1000, seed=0)
    assert (step, n_users) == (0, 24)
    assert lam == pytest.approx(6.0)


def test_s1_constant_over_steps():
    # one row: the rate and the population never change over the horizon
    assert trajectory(Scenario(kind=1), 5000, seed=0) == [(0, pytest.approx(6.0), 24)]
    assert event_steps(Scenario(kind=1), 5000) == []


def test_zero_users_zero_rate():
    for kind in range(1, 7):
        assert trajectory(Scenario(kind=kind, n_users=0), 10, seed=0) == [(0, 0.0, 0)]


def test_s2_three_phases_with_scaled_boundaries():
    horizon = 9000
    rows = trajectory(Scenario(kind=2), horizon, seed=1)
    assert rows == [
        (0, pytest.approx(6.0), 24),
        (3000, pytest.approx(9.0), 24),
        (6000, pytest.approx(6.0), 24),
    ]


def test_s2_mid_phase_aggregate_is_high_tier():
    # 24 users at the high tier: 24 * 0.375 = 9
    rows = trajectory(Scenario(kind=2), 9000, seed=3)
    assert _step_rates(rows, 9000)[4000] == pytest.approx(9.0)


def test_phase_boundaries_scale_with_horizon():
    for horizon in (300, 3000, 30_000):
        rows = trajectory(Scenario(kind=2), horizon, seed=5)
        steps = [r[0] for r in rows]
        assert steps == [0, horizon // 3, 2 * horizon // 3]
        assert event_steps(Scenario(kind=2), horizon) == steps[1:]


def _patch_user_draws(monkeypatch, draw):
    """Make ``rng.user_uniforms`` apply the scalar ``draw(seed, domain, uid, step)``
    to each element of its broadcast arguments."""

    def user_uniforms(seed, domain, uids, steps):
        arrays = np.broadcast_arrays(np.asarray(domain), np.asarray(uids), np.asarray(steps))
        keys = zip(*(a.ravel().tolist() for a in arrays))
        return np.array([draw(seed, *key) for key in keys], dtype=float).reshape(arrays[0].shape)

    monkeypatch.setattr(rngmod, "user_uniforms", user_uniforms)


def test_s3_forced_toggle_flips_every_user(monkeypatch):
    calls = []

    def zero_draw(seed, domain, uid, step):
        calls.append((domain, uid, step))
        return 0.0

    _patch_user_draws(monkeypatch, zero_draw)
    rows = trajectory(Scenario(kind=3), 1000, seed=9)
    # draw 0.0 < 0.5 puts every user on the high tier initially; every draw
    # lies below the toggle probability, so every user flips at each toggle
    # step, 1% of the horizon = 10 steps apart
    assert rows == [(0, pytest.approx(24 * 0.375), 24)] + [
        (s, pytest.approx(24 * (0.25 if s % 20 else 0.375)), 24) for s in range(10, 1000, 10)
    ]
    assert calls[:24] == [("scenario-init", uid, 0) for uid in range(24)]
    assert sorted(calls[24:], key=lambda call: call[::-1]) == [
        ("scenario-toggle", uid, s) for s in range(10, 1000, 10) for uid in range(24)
    ]


def test_s4_population_mean_preserved():
    # per-user branching mean: 0.05 * 0 + 0.9 * 1 + 0.05 * 2 = 1; at horizon
    # 2 the one population step is step 1, the period max(1, 0.1 * 2) = 1
    n_trials = 10_000
    totals = [trajectory(Scenario(kind=4), 2, seed=trial + 100_000)[-1][2]
              for trial in range(n_trials)]
    mean = np.mean(totals)
    var_per_user = 0.05 * 0 + 0.9 * 1 + 0.05 * 4 - 1.0
    sigma = (24 * var_per_user / n_trials) ** 0.5
    assert abs(mean - 24.0) <= 3 * sigma


def test_s4_spawned_device_inherits_tier(monkeypatch):
    def draw(seed, domain, uid, step):
        if domain == "scenario-init":
            return 0.0 if uid == 0 else 0.9  # user 0 alone starts high
        if domain == "scenario-pop" and uid == 0:
            return 0.99  # user 0 spawns a device at every population step
        return 0.5  # no toggle, no departure, no spawn

    _patch_user_draws(monkeypatch, draw)
    scenario = Scenario(kind=6)  # toggling + population drift
    rows = trajectory(scenario, 100, seed=11)
    # population steps every 10 steps: each adds one high-tier device
    assert rows == [
        (s, pytest.approx((1 + k) * 0.375 + 23 * 0.25), 24 + k)
        for k, s in enumerate(range(0, 100, 10))
    ]


def test_per_user_independence():
    # on kind 3 the rate that user k adds, the trajectory with users 0..k
    # minus the one with users 0..k-1, is the series rebuilt from user k's
    # own draws alone: no other user's draws reach it
    horizon, seed, k = 2000, 17, 6
    scenario = Scenario(kind=3)
    toggle_every = round(scenario.toggle_period_fraction * horizon)

    def rates(n_users):
        rows = trajectory(Scenario(kind=3, n_users=n_users), horizon, seed)
        return _step_rates(rows, horizon)

    added = [a - b for a, b in zip(rates(k + 1), rates(k))]
    high = rngmod.user_uniform(seed, "scenario-init", k, 0) < 0.5
    rebuilt = []
    for t in range(horizon):
        if t and t % toggle_every == 0:
            high ^= rngmod.user_uniform(seed, "scenario-toggle", k, t) < scenario.toggle_prob
        rebuilt.append(scenario.lambda_high if high else scenario.lambda_low)
    assert added == rebuilt
    assert len(set(rebuilt)) == 2  # user k toggles at least once


def test_aggregate_matches_recomputed_sum():
    # every step's rate equals the per-step reference's sum over its users
    scenario, horizon = Scenario(kind=6), 5000
    rows = trajectory(scenario, horizon, seed=23)
    expected = list(scenario_rates(scenario, horizon, seed=23))
    assert _step_rates(rows, horizon) == [lam for lam, _ in expected]
    assert len(rows) > 50


def test_trajectory_deterministic_per_seed():
    a = trajectory(Scenario(kind=5), 5000, seed=2)
    b = trajectory(Scenario(kind=5), 5000, seed=2)
    c = trajectory(Scenario(kind=5), 5000, seed=3)
    assert a == b
    assert a != c


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(kind=7)
    with pytest.raises(ValueError):
        Scenario(leave_prob=0.5, stay_prob=0.5, add_prob=0.5)
    with pytest.raises(ValueError):
        Scenario(lambda_low=0.5, lambda_high=0.25)
    with pytest.raises(ValueError):
        trajectory(Scenario(), 0, seed=0)


def _stepwise_trajectory(scenario, horizon, seed):
    """``trajectory``'s rows and every step's rate, from the per-step reference."""
    rows, rates = [], []
    for t, (lam, n_users) in enumerate(scenario_rates(scenario, horizon, seed)):
        rates.append(lam)
        if not rows or lam != rows[-1][1] or n_users != rows[-1][2]:
            rows.append((t, lam, n_users))
    return rows, rates


@settings(max_examples=60, deadline=None)
@given(
    kind=st.integers(1, 6),
    horizon=st.integers(1, 3000),
    seed=st.integers(0, 2**31),
    toggle=st.floats(0.002, 0.2),
    population=st.floats(0.0, 0.3),
)
def test_trajectory_matches_stepwise_replay(kind, horizon, seed, toggle, population):
    scenario = Scenario(kind=kind, toggle_period_fraction=toggle,
                        population_period_fraction=population)
    rows, rates = _stepwise_trajectory(scenario, horizon, seed)
    assert trajectory(scenario, horizon, seed) == rows
    # every change row lies on an event step
    assert {s for s, _, _ in rows[1:]} <= set(event_steps(scenario, horizon))
    segments = rate_segments(rows, horizon)
    # the segments tile 0..horizon in order, with no gap and no empty segment
    assert [start for start, _, _ in segments] == [0] + [stop for _, stop, _ in segments[:-1]]
    assert segments[-1][1] == horizon
    assert all(start < stop for start, stop, _ in segments)
    assert _step_rates(rows, horizon) == rates
