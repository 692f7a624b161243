import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeadmit import rng as rngmod
from edgeadmit.scenarios import Scenario, ScenarioState, rate_segments, trajectory


def test_s1_aggregate_rate_default():
    ss = ScenarioState.create(Scenario(kind=1), horizon=1000, seed=0)
    assert ss.lam == pytest.approx(6.0)


def test_s1_constant_over_steps():
    ss = ScenarioState.create(Scenario(kind=1), horizon=5000, seed=0)
    for _ in range(4999):
        ss.advance_to(ss.step + 1)
        assert ss.lam == pytest.approx(6.0)
        assert ss.n_users == 24


def test_zero_users_zero_rate():
    ss = ScenarioState.create(Scenario(kind=1, n_users=0), horizon=10, seed=0)
    assert ss.lam == 0.0


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
    ss = ScenarioState.create(Scenario(kind=2), horizon=9000, seed=3)
    for _ in range(4000):
        ss.advance_to(ss.step + 1)
    assert ss.lam == pytest.approx(9.0)


def test_phase_boundaries_scale_with_horizon():
    for horizon in (300, 3000, 30_000):
        rows = trajectory(Scenario(kind=2), horizon, seed=5)
        steps = [r[0] for r in rows]
        assert steps == [0, horizon // 3, 2 * horizon // 3]


def test_s3_forced_toggle_flips_every_user(monkeypatch):
    calls = []

    def zero_draw(seed, domain, uid, step):
        calls.append((domain, uid, step))
        return 0.0

    monkeypatch.setattr(rngmod, "user_uniform", zero_draw)
    import edgeadmit.scenarios as sc

    monkeypatch.setattr(sc.rngmod, "user_uniform", zero_draw)
    ss = ScenarioState.create(Scenario(kind=3), horizon=1000, seed=9)
    # draw 0.0 < 0.5 puts every user on the high tier initially
    assert all(ss.tiers)
    assert ss.lam == pytest.approx(24 * 0.375)
    for _ in range(10):  # toggle period = 1% of horizon = 10 steps
        ss.advance_to(ss.step + 1)
    # all draws below the toggle probability: every user flips
    assert not any(ss.tiers)
    assert ss.lam == pytest.approx(24 * 0.25)


def test_s4_population_mean_preserved():
    # per-user branching mean: 0.05 * 0 + 0.9 * 1 + 0.05 * 2 = 1
    n_trials = 10_000
    totals = []
    for trial in range(n_trials):
        ss = ScenarioState.create(Scenario(kind=4), horizon=10, seed=trial + 100_000)
        ss.advance_to(ss.step + 1)  # population period = max(1, 0.1 * 10) = 1 step
        totals.append(ss.n_users)
    mean = np.mean(totals)
    var_per_user = 0.05 * 0 + 0.9 * 1 + 0.05 * 4 - 1.0
    sigma = (24 * var_per_user / n_trials) ** 0.5
    assert abs(mean - 24.0) <= 3 * sigma


def test_s4_spawned_device_inherits_tier(monkeypatch):
    import edgeadmit.scenarios as sc

    def add_draw(seed, domain, uid, step):
        if domain == "scenario-pop" and uid == 0:
            return 0.99  # spawn
        return 0.5  # stay

    monkeypatch.setattr(sc.rngmod, "user_uniform", add_draw)
    scenario = Scenario(kind=6)  # toggling + population drift
    ss = ScenarioState.create(scenario, horizon=100, seed=11)
    ss.tiers = [True] + [False] * 23  # force user 0 high
    ss._recompute_rate()
    for _ in range(10):
        ss.advance_to(ss.step + 1)
    assert ss.n_users >= 25
    spawned_idx = ss.uids.index(24)
    parent_idx = ss.uids.index(0)
    assert ss.tiers[spawned_idx] == ss.tiers[parent_idx]


def test_per_user_independence():
    # user 5's draws never affect user 6's trajectory: replaying the same
    # scenario with user 5 removed leaves user 6's tier flips unchanged
    scenario = Scenario(kind=3)
    horizon = 2000
    seed = 17

    def tier_series(uids):
        ss = ScenarioState.create(scenario, horizon, seed)
        keep = [i for i, uid in enumerate(ss.uids) if uid in uids]
        ss.uids = [ss.uids[i] for i in keep]
        ss.tiers = [ss.tiers[i] for i in keep]
        ss._recompute_rate()
        series = []
        for _ in range(horizon - 1):
            ss.advance_to(ss.step + 1)
            series.append(ss.tiers[ss.uids.index(6)])
        return series

    with_five = tier_series({5, 6})
    without_five = tier_series({6})
    assert with_five == without_five


def test_aggregate_matches_recomputed_sum():
    scenario = Scenario(kind=6)
    ss = ScenarioState.create(scenario, horizon=5000, seed=23)
    for _ in range(4999):
        ss.advance_to(ss.step + 1)
        expected = sum(
            scenario.lambda_high if hi else scenario.lambda_low for hi in ss.tiers
        )
        assert ss.lam == pytest.approx(expected, abs=1e-12)


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


def test_advance_to_moves_forward_only():
    ss = ScenarioState.create(Scenario(kind=2), horizon=9000, seed=3)
    ss.advance_to(3000)  # the first phase boundary
    assert ss.step == 3000 and ss.lam == pytest.approx(24 * 0.375)
    for back in (3000, 2999):
        with pytest.raises(ValueError):
            ss.advance_to(back)


def _stepwise_trajectory(scenario, horizon, seed):
    """``trajectory``'s rows and every step's rate, by advancing through every step."""
    ss = ScenarioState.create(scenario, horizon, seed)
    rows = [(0, ss.lam, ss.n_users)]
    rates = [ss.lam]
    for _ in range(horizon - 1):
        ss.advance_to(ss.step + 1)
        rates.append(ss.lam)
        if ss.lam != rows[-1][1] or ss.n_users != rows[-1][2]:
            rows.append((ss.step, ss.lam, ss.n_users))
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
    segments = rate_segments(rows, horizon)
    # the segments tile 0..horizon in order, with no gap and no empty segment
    assert [start for start, _, _ in segments] == [0] + [stop for _, stop, _ in segments[:-1]]
    assert segments[-1][1] == horizon
    assert all(start < stop for start, stop, _ in segments)
    assert [lam for start, stop, lam in segments for _ in range(start, stop)] == rates
