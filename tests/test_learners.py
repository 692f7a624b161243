import dataclasses

import numpy as np
import pytest

from edgeadmit.dp import value_iteration
from edgeadmit.learners import QLearningConfig, policy_hash, qlearning_train
from edgeadmit.model import Action, policy_table
from edgeadmit.rng import BLOCK, block_uniforms, substream
from edgeadmit.salmut import SalmutConfig, train
from edgeadmit.scenarios import Scenario

from oracles import reference_qlearning_train, reference_salmut_train


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 10_000])
def test_block_uniforms_equal_one_call_at_a_time(n):
    draw = block_uniforms(substream(8, "events"))
    one_at_a_time = substream(8, "events")
    assert [draw() for _ in range(n)] == [one_at_a_time.random() for _ in range(n)]


def test_block_uniforms_interleaved_streams():
    # two helpers drawn in an uneven interleaving, so their block boundaries
    # fall at different points of the sequence
    events = block_uniforms(substream(3, "events"))
    resources = block_uniforms(substream(3, "resources"))
    ref_events, ref_resources = substream(3, "events"), substream(3, "resources")
    order = substream(0, "interleave").random(4 * BLOCK) < 0.6
    got = [events() if e else resources() for e in order]
    want = [ref_events.random() if e else ref_resources.random() for e in order]
    assert got == want
    assert min(order.sum(), (~order).sum()) > BLOCK  # both helpers crossed a boundary


def test_baseline_accepts_below_threshold(canonical_params):
    table = policy_table(canonical_params, accept_below=18)
    assert Action(int(table[3, 17])) is Action.ACCEPT
    assert Action(int(table[3, 18])) is Action.OFFLOAD
    assert Action(int(table[20, 0])) is Action.OFFLOAD


def test_baseline_never_accepts_at_or_above_threshold(canonical_params):
    table = policy_table(canonical_params, accept_below=18)
    for x in range(21):
        for ell in range(21):
            a = Action(int(table[x, ell]))
            if ell >= 18 or x == 20:
                assert a is Action.OFFLOAD
            else:
                assert a is Action.ACCEPT


def test_qlearning_config_validation():
    with pytest.raises(ValueError):
        QLearningConfig(rate=0.0)
    with pytest.raises(ValueError):
        QLearningConfig(rate=1.5)
    with pytest.raises(ValueError):
        QLearningConfig(epsilon_start=1.2)
    with pytest.raises(ValueError):
        QLearningConfig(rate_mode="nope")


def test_epsilon_schedule_endpoints():
    cfg = QLearningConfig(
        horizon=1000, epsilon_start=1.0, epsilon_end=0.05, epsilon_decay_fraction=0.5
    )
    assert cfg.epsilon_at(0) == pytest.approx(1.0)
    assert cfg.epsilon_at(250) == pytest.approx(0.525)
    assert cfg.epsilon_at(500) == pytest.approx(0.05)
    assert cfg.epsilon_at(999) == pytest.approx(0.05)


def test_pure_exploration_action_marginals():
    # epsilon = 1: the behavior at any interior arrival state is a fair coin,
    # regardless of the q-values
    from oracles import epsilon_greedy_action

    q = np.zeros((21, 21, 2))
    q[3, 7, 0] = 100.0  # a greedy policy would always offload here
    rng = substream(4, "marginal-check")
    n = 20_000
    offloads = sum(epsilon_greedy_action(q, 3, 7, 1.0, rng) for _ in range(n))
    sigma = (n * 0.25) ** 0.5
    assert abs(offloads - n / 2) <= 3 * sigma


def test_zero_exploration_is_greedy():
    from oracles import epsilon_greedy_action

    q = np.zeros((21, 21, 2))
    q[3, 7, 0] = 1.0
    q[4, 2, 1] = 1.0
    rng = substream(4, "greedy-check")
    assert epsilon_greedy_action(q, 3, 7, 0.0, rng) == 1
    assert epsilon_greedy_action(q, 4, 2, 0.0, rng) == 0
    assert epsilon_greedy_action(q, 0, 0, 0.0, rng) == 0  # tie accepts


def test_greedy_matches_dp_policy_when_preloaded(canonical_params, canonical_chain):
    # epsilon = 0 with the planner's q preloaded: greedy extraction equals the
    # planner's policy exactly (same argmin and tie rule)
    sol = value_iteration(6.0, canonical_chain, tol=1e-9)
    extracted = policy_table(canonical_params, actions=sol.q[..., 1] < sol.q[..., 0])
    assert np.array_equal(extracted, sol.policy)


def test_qlearning_deterministic(segments, canonical_chain):
    cfg = QLearningConfig(horizon=3000, eval_every=1000)
    args = (segments(Scenario(kind=1), 3000, 7), canonical_chain)
    a = qlearning_train(*args, cfg, seed=7)
    b = qlearning_train(*args, cfg, seed=7)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.policy, b.policy)
    assert a.log == b.log


def test_qlearning_log_schema_matches_salmut(segments, canonical_chain):
    qcfg = QLearningConfig(horizon=2000, eval_every=1000)
    scfg = SalmutConfig(horizon=2000, eval_every=1000)
    args = (segments(Scenario(kind=1), 2000, 2), canonical_chain)
    q_res = qlearning_train(*args, qcfg, seed=2)
    s_res = train(*args, scfg, seed=2)
    assert [r.step for r in q_res.log] == [r.step for r in s_res.log]
    assert set(q_res.log[0].__dataclass_fields__) == set(
        s_res.log[0].__dataclass_fields__
    )


def test_qlearning_policy_has_forced_offload_row(segments, canonical_chain):
    cfg = QLearningConfig(horizon=2000, eval_every=2000)
    result = qlearning_train(
        segments(Scenario(kind=1), 2000, 1),
        canonical_chain, cfg, seed=1,
    )
    assert np.all(result.policy[20, :] == Action.OFFLOAD)


def test_eval_points_are_the_logged_policies(segments, canonical_params, canonical_chain):
    # Q-learning's eval table is the greedy table its row hashes; SALMUT's
    # last eval point, at the horizon, scores the returned thresholds
    args = (segments(Scenario(kind=6), 4000, 3), canonical_chain)
    q_res = qlearning_train(*args, QLearningConfig(horizon=4000, eval_every=1000), seed=3)
    assert len(q_res.evals) == len(q_res.log) == 4
    assert [policy_hash(table) for _, table in q_res.evals] == [
        row.policy_hash for row in q_res.log
    ]
    assert np.array_equal(q_res.evals[-1][1], q_res.policy)
    s_res = train(*args, SalmutConfig(horizon=4000, eval_every=1000), seed=3)
    assert len(s_res.evals) == len(s_res.log) == 4
    assert np.array_equal(s_res.evals[-1][1], policy_table(canonical_params, tau=s_res.tau))


def assert_same_result(got, want):
    """Field by field, bit for bit: arrays by dtype, shape and bytes, the rest by repr."""

    def bits(value):
        if isinstance(value, np.ndarray):
            return value.dtype, value.shape, value.tobytes()
        if isinstance(value, list):
            return [bits(item) for item in value]
        if isinstance(value, tuple):
            return tuple(bits(item) for item in value)
        return repr(value)

    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        name = field.name
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name


# (kind, seed, config) cases: the fused trainers against the helper-chain
# references.  Scenario 2's phase changes fall at steps 6667 and 13334 and
# scenario 6 toggles every 200 steps, inside the log windows; beta2 = 0.9's
# 355-entry bias-correction table runs into its tail within the horizon;
# (20, 20) starts at a full buffer; 20 500 is not a multiple of 3000, and
# 8000 exceeds a 5000-step horizon.
SALMUT_CASES = [
    (6, 1, SalmutConfig(horizon=20_000, eval_every=2500)),
    (6, 2, SalmutConfig(horizon=20_000, eval_every=2500, mode="decay")),
    (2, 3, SalmutConfig(horizon=20_000, eval_every=2500, adam_beta2=0.9)),
    (2, 4, SalmutConfig(horizon=20_000, eval_every=2500, mode="decay", paper_literal_sign=True)),
    (6, 5, SalmutConfig(horizon=20_000, eval_every=2500, start_state=(20, 20))),
    (2, 6, SalmutConfig(horizon=20_500, eval_every=3000, paper_literal_sign=True)),
    (6, 7, SalmutConfig(horizon=5000, eval_every=8000, mode="decay", start_state=(20, 20))),
]
QLEARNING_CASES = [
    (6, 1, QLearningConfig(horizon=20_000, eval_every=2500)),
    (2, 2, QLearningConfig(horizon=20_000, eval_every=2500, epsilon_start=0.9,
                           epsilon_end=0.05, epsilon_decay_fraction=0.5)),
    (6, 3, QLearningConfig(horizon=20_000, eval_every=2500, rate_mode="constant",
                           start_state=(20, 20))),
    (2, 4, QLearningConfig(horizon=20_500, eval_every=3000, epsilon_start=0.0,
                           epsilon_end=0.6, epsilon_decay_fraction=1.0)),
    (6, 5, QLearningConfig(horizon=5000, eval_every=8000, rate_mode="constant")),
]


def _case_args(segments, kind, seed, cfg, chain):
    segs = segments(Scenario(kind=kind), cfg.horizon, seed)
    # at least one change point falls inside a log window
    assert any(start % cfg.eval_every for start, _, _ in segs[1:])
    return segs, chain, cfg, seed


@pytest.mark.parametrize("kind,seed,cfg", SALMUT_CASES)
def test_salmut_train_equals_helper_chain_reference(kind, seed, cfg, segments, canonical_chain):
    args = _case_args(segments, kind, seed, cfg, canonical_chain)
    assert_same_result(train(*args), reference_salmut_train(*args))


@pytest.mark.parametrize("kind,seed,cfg", QLEARNING_CASES)
def test_qlearning_train_equals_helper_chain_reference(kind, seed, cfg, segments, canonical_chain):
    args = _case_args(segments, kind, seed, cfg, canonical_chain)
    assert_same_result(qlearning_train(*args), reference_qlearning_train(*args))
