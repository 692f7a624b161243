import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgeadmit.model import Action, ChainTables, CostModel
from edgeadmit.rng import substream
from edgeadmit.salmut import SalmutConfig, bias_correction, train
from edgeadmit.scenarios import Scenario

from oracles import (
    AdaptiveMoments,
    State,
    accept_probability,
    actor_update,
    critic_update,
    f_gradient,
    gradient_estimate,
    moment_arrays,
    resource_indices,
)


def flat_tau(value: float, n: int = 21) -> np.ndarray:
    return np.full(n, float(value))


def test_accept_probability_at_threshold_is_half():
    tau = flat_tau(7.0)
    assert accept_probability(tau, State(3, 7), 1.0) == pytest.approx(0.5)


def test_accept_probability_two_levels_above():
    tau = flat_tau(10.0)
    expected = 1.0 / (1.0 + math.exp(2.0))
    got = accept_probability(tau, State(3, 12), 1.0)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(0.119203, abs=1e-6)


def test_accept_probability_saturates_high():
    tau = flat_tau(10.0)
    assert accept_probability(tau, State(3, 0), 0.5) >= 1.0 - 1e-8


def test_accept_probability_forced_offload_at_full_buffer():
    tau = flat_tau(20.0)
    assert accept_probability(tau, State(20, 0), 1.0) == 0.0
    assert f_gradient(tau, State(20, 0), 1.0) == 0.0


def test_f_gradient_symmetric_point():
    tau = flat_tau(5.0)
    assert f_gradient(tau, State(2, 5), 1.0) == pytest.approx(0.25)


@pytest.mark.parametrize("temperature", [0.2, 1.0, 5.0])
def test_f_gradient_matches_finite_difference(temperature):
    h = 1e-5
    for gap in np.arange(-8.0, 8.01, 0.5):
        tau = flat_tau(10.0)
        state = State(4, int(10 - gap)) if float(gap).is_integer() else None
        # work on a real-valued gap by shifting tau instead of the load level
        tau = flat_tau(10.0 + gap)
        state = State(4, 10)
        up, down = tau.copy(), tau.copy()
        up[4] += h
        down[4] -= h
        fd = (
            accept_probability(up, state, temperature)
            - accept_probability(down, state, temperature)
        ) / (2 * h)
        assert f_gradient(tau, state, temperature) == pytest.approx(fd, abs=1e-6)


def test_f_gradient_saturation_no_overflow():
    tau = flat_tau(0.0)
    # |tau - ell| / T = 50
    assert f_gradient(flat_tau(50.0), State(0, 0), 1.0) <= 1e-18
    # |tau - ell| / T = 1e4: finite, no NaN, and the probability saturates
    big = accept_probability(flat_tau(10_000.0), State(0, 0), 1.0)
    assert big == 1.0
    g = f_gradient(flat_tau(10_000.0), State(0, 0), 1.0)
    assert g == 0.0 and not math.isnan(g)
    low = accept_probability(tau, State(0, 20), 0.002)
    assert low == pytest.approx(0.0, abs=1e-300)


@given(
    tau_val=st.floats(min_value=0, max_value=20),
    temperature=st.floats(min_value=0.05, max_value=10),
)
def test_f_monotone_and_gradient_nonnegative(tau_val, temperature):
    tau = flat_tau(tau_val)
    probs = [accept_probability(tau, State(1, ell), temperature) for ell in range(21)]
    assert all(a >= b for a, b in zip(probs, probs[1:]))
    assert all(
        f_gradient(tau, State(1, ell), temperature) >= 0.0 for ell in range(21)
    )
    # strictly increasing in tau at fixed load (away from saturation)
    if 2.0 < tau_val < 18.0 and temperature >= 0.5:
        higher = flat_tau(tau_val + 0.5)
        assert accept_probability(higher, State(1, 10), temperature) > accept_probability(
            tau, State(1, 10), temperature
        )


def test_critic_update_hand_value():
    q = np.zeros((2, 2, 2))
    change = critic_update(q, State(0, 0), Action.ACCEPT, 2.0, State(1, 1), 0.5, 0.95)
    assert change == pytest.approx(1.0)
    assert q[0, 0, 0] == pytest.approx(1.0)
    # only the visited cell changed
    q[0, 0, 0] = 0.0
    assert np.all(q == 0.0)


def test_critic_update_zero_td_no_change():
    q = np.full((2, 2, 2), 3.0)
    # target = cost + beta * min(next) = 3: pick cost = 3 - 0.95*3
    change = critic_update(
        q, State(0, 1), Action.OFFLOAD, 3.0 - 0.95 * 3.0, State(1, 0), 0.7, 0.95
    )
    assert change == pytest.approx(0.0)
    assert np.all(q == 3.0)


def test_critic_update_converges_to_fixed_point():
    # frozen single-cell problem with constant cost c: repeated updates with
    # a decaying rate drive q to c / (1 - beta)
    q = np.zeros((1, 1, 2))
    c, beta = 2.0, 0.9
    for n in range(50_000):
        critic_update(q, State(0, 0), Action.ACCEPT, c, State(0, 0), 1.0 / (1 + n) ** 0.7, beta)
        q[0, 0, 1] = q[0, 0, 0]
    assert q[0, 0, 0] == pytest.approx(c / (1 - beta), rel=1e-3)


def test_actor_update_zero_advantage_no_move():
    tau = flat_tau(9.0)
    q = np.zeros((21, 21, 2))
    g, moved = actor_update(tau, State(4, 9), q, 0.1, 1.0, 20.0)
    assert g == 0.0 and moved == 0.0
    assert np.all(tau == 9.0)


def test_actor_update_hand_value():
    tau = flat_tau(10.0)
    q = np.zeros((21, 21, 2))
    q[5, 10, 0] = 4.0  # accepting is costlier by 4
    g, moved = actor_update(tau, State(5, 10), q, 0.1, 1.0, 20.0)
    assert g == pytest.approx(1.0)
    assert tau[5] == pytest.approx(9.9)
    assert moved == pytest.approx(-0.1)
    assert np.all(tau[:5] == 10.0) and np.all(tau[6:] == 10.0)


def test_actor_update_projects_at_lower_bound():
    tau = flat_tau(0.01)
    q = np.zeros((21, 21, 2))
    q[2, 0, 0] = 2.0  # gradient = 0.25 * 2 = 0.5; step = 0.1 * 0.5 = 0.05 down
    actor_update(tau, State(2, 0), q, 0.1, 1.0, 20.0)
    assert tau[2] == 0.0


def test_actor_update_literal_sign_flips_direction():
    q = np.zeros((21, 21, 2))
    q[5, 10, 0] = 4.0
    tau = flat_tau(10.0)
    actor_update(tau, State(5, 10), q, 0.1, 1.0, 20.0, paper_literal_sign=True)
    assert tau[5] == pytest.approx(10.1)


@given(
    tau_val=st.floats(min_value=0, max_value=20),
    dq=st.floats(min_value=-100, max_value=100),
    rate=st.floats(min_value=0.001, max_value=5.0),
)
def test_actor_update_projection_invariant(tau_val, dq, rate):
    tau = flat_tau(tau_val)
    q = np.zeros((21, 21, 2))
    q[3, 8, 0] = dq
    actor_update(tau, State(3, 8), q, rate, 1.0, 20.0)
    assert 0.0 <= tau[3] <= 20.0


def test_gradient_estimate_values():
    q = np.zeros((21, 21, 2))
    q[2, 5, 0] = 4.0
    tau = flat_tau(5.0)
    assert gradient_estimate(q, State(2, 5), tau, 1.0) == pytest.approx(0.25 * 4.0)
    # saturated sigmoid kills the estimate
    assert gradient_estimate(q, State(2, 5), flat_tau(19.0), 0.5) == pytest.approx(
        0.0, abs=1e-10
    )


def test_adaptive_moments_step_bound_and_finiteness():
    mom = AdaptiveMoments(eps=1e-2)
    total = 0.0
    for i in range(1000):
        step = mom.step(1, 1e-6 if i % 2 else -1e-6, 0.01)
        assert math.isfinite(step)
        assert abs(step) <= 0.01 * 1.0 / math.sqrt(1e-2) + 1e-12
        total += step
    m, v, _ = moment_arrays(mom, (3,))
    assert np.isfinite(m).all() and np.isfinite(v).all()


@pytest.mark.parametrize("beta,length", [(0.9, 355), (0.999, 37_411)])
def test_bias_correction_table_equals_numpy_power(beta, length):
    # the trainer digests pin values computed with numpy's int64 power;
    # Python's float power differs from it by an ulp at some t
    table, tail = bias_correction(beta)
    assert len(table) == length
    t = np.arange(1, length + 1, dtype=np.int64)
    assert list(table) == [1.0 - beta ** ti for ti in t]
    assert table[-1] < 1.0
    # the table saturates: every later correction is 1.0, so there is no tail
    assert tail is None
    assert all(1.0 - beta ** np.int64(s) == 1.0
               for s in (length + 1, length + 2, 10 * length, 10**7))


def test_bias_correction_tail_computes_past_the_cap():
    # a beta this close to 1 does not saturate within the table's cap, so
    # the tail computes each later value with the same numpy power
    table, tail = bias_correction(0.9999)
    assert len(table) == 1 << 16
    for t in (len(table) + 1, 10**5):
        assert tail(t) == 1.0 - 0.9999 ** np.int64(t) < 1.0


def test_adaptive_moments_match_numpy_scalar_steps():
    # reference: bias corrections from numpy-scalar powers, the values the
    # trainer digests pin
    mom = AdaptiveMoments(eps=1e-8)
    m = v = 0.0
    gs = substream(1, "moments").normal(size=40_000).tolist()
    for t, g in enumerate(gs, start=1):
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        want = 0.01 * (m / (1.0 - 0.9 ** np.int64(t))) / math.sqrt(
            v / (1.0 - 0.999 ** np.int64(t)) + 1e-8
        )
        assert mom.step(1, g, 0.01) == want
    moments, squares, counts = moment_arrays(mom, (2,))
    assert counts.tolist() == [0, 40_000]
    assert moments[1] == m and squares[1] == v


def test_salmut_config_validation():
    with pytest.raises(ValueError):
        SalmutConfig(temperature=0.0)
    with pytest.raises(ValueError):
        SalmutConfig(adam_beta2=1.0)
    with pytest.raises(ValueError):
        SalmutConfig(mode="decay", decay_kappa_critic=0.5, decay_kappa_actor=0.8)
    with pytest.raises(ValueError):
        SalmutConfig(mode="decay", decay_kappa_critic=0.7, decay_kappa_actor=0.6)
    with pytest.raises(ValueError):
        SalmutConfig(mode="decay", decay_kappa_critic=0.6, decay_kappa_actor=1.1)
    # valid two-timescale exponents
    SalmutConfig(mode="decay", decay_kappa_critic=0.6, decay_kappa_actor=1.0)


def _tiny_train(segments, canonical_chain, **kwargs):
    cfg = SalmutConfig(horizon=kwargs.pop("horizon", 2000), eval_every=500, **kwargs)
    return train(
        segments(Scenario(kind=1), cfg.horizon, 5),
        canonical_chain, cfg, seed=5,
    )


def test_train_deterministic(segments, canonical_chain):
    a = _tiny_train(segments, canonical_chain)
    b = _tiny_train(segments, canonical_chain)
    assert np.array_equal(a.tau, b.tau)
    assert np.array_equal(a.q, b.q)
    assert a.log == b.log


def test_train_zero_cost_threshold_never_moves(segments, canonical_params, canonical_resources):
    cm = CostModel(holding=0.0, running=np.zeros(21), penalty=np.zeros(21))
    cfg = SalmutConfig(horizon=3000, eval_every=1000, mode="decay")
    result = train(
        segments(Scenario(kind=1), 3000, 3), ChainTables(canonical_params, cm, canonical_resources),
        cfg, seed=3,
    )
    expected_init = substream(3, "init").uniform(0.0, 20.0, size=21)
    assert np.array_equal(result.tau, expected_init)
    assert [row.grad_step_window for row in result.log] == [0.0, 0.0, 0.0]


def test_train_single_step_locality(segments, canonical_chain):
    # one step from the empty state is an arrival; at most one q cell and one
    # tau coordinate may change
    cfg = SalmutConfig(horizon=1, eval_every=1)
    result = train(
        segments(Scenario(kind=1), 1, 9),
        canonical_chain, cfg, seed=9,
    )
    assert (result.q != 0).sum() <= 1
    init = substream(9, "init").uniform(0.0, 20.0, size=21)
    assert (result.tau != init).sum() <= 1


def test_train_tau_stays_in_bounds(segments, canonical_chain):
    result = _tiny_train(
        segments, canonical_chain, horizon=5000
    )
    assert np.all(result.tau >= 0.0) and np.all(result.tau <= 20.0)


def test_train_eval_points_cadence(segments, canonical_chain):
    # one eval point per log row, at the rate of the row's last step: scenario
    # 2 runs at 9.0 from step 667 to 1332 and at 6.0 elsewhere
    cfg = SalmutConfig(horizon=2000, eval_every=500)
    result = train(
        segments(Scenario(kind=2), 2000, 1),
        canonical_chain, cfg, seed=1,
    )
    assert [row.step for row in result.log] == [500, 1000, 1500, 2000]
    assert [lam for lam, _ in result.evals] == [6.0, 9.0, 6.0, 6.0]
    assert all(table.dtype == np.int8 and table.shape == (21, 21) for _, table in result.evals)
    assert all(row.eval_mean is None for row in result.log)


def test_gradient_estimate_unbiasedness_self_consistency(canonical_params, canonical_chain):
    # freeze (tau, q); the average of per-visit estimates over one long run
    # must match the occupancy-weighted sum computed from an independent run
    rng_q = np.random.default_rng(42)
    q = rng_q.normal(0.0, 2.0, size=(21, 21, 2))
    tau = flat_tau(9.0)
    temp = 1.0
    lam = 6.0

    def run(seed, n_steps):
        events = substream(seed, "ubias-events").random
        resources = resource_indices(canonical_chain, substream(seed, "ubias-resources").random)
        act = substream(seed, "ubias-actions")
        visits = []

        def decide(x, ell, n):
            if x == canonical_params.buffer_capacity:
                return 1
            visits.append((x, ell))
            return 0 if act.random() < accept_probability(tau, State(x, ell), temp) else 1

        x, ell = 0, 0
        for n in range(n_steps):
            x, ell, _, _ = canonical_chain.step(x, ell, lam, decide, n, events, resources)
        return visits
    per_cell = np.zeros((21, 21))
    for x in range(21):
        for ell in range(21):
            per_cell[x, ell] = gradient_estimate(q, State(x, ell), tau, temp)

    visits_a = run(101, 60_000)
    visits_b = run(202, 60_000)
    vals_a = np.array([per_cell[v] for v in visits_a])
    vals_b = np.array([per_cell[v] for v in visits_b])
    # occupancy-weighted sum from run A equals its per-visit mean by
    # construction; the content of the check is cross-run agreement
    counts = {}
    for v in visits_a:
        counts[v] = counts.get(v, 0) + 1
    occupancy_sum = sum(
        c / len(visits_a) * per_cell[v] for v, c in counts.items()
    )
    assert occupancy_sum == pytest.approx(vals_a.mean(), abs=1e-12)

    def batch_se(vals, n_batches=30):
        usable = len(vals) - len(vals) % n_batches
        means = vals[:usable].reshape(n_batches, -1).mean(axis=1)
        return means.std(ddof=1) / math.sqrt(n_batches)

    # trajectory samples are autocorrelated; batch means give an honest
    # standard error for each run's average
    se = math.sqrt(batch_se(vals_a) ** 2 + batch_se(vals_b) ** 2)
    assert abs(vals_b.mean() - occupancy_sum) <= 3 * se
