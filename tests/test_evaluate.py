import numpy as np
import pytest

from edgeadmit import evaluate as evaluate_module, rng as rngmod
from edgeadmit.dp import value_iteration
from edgeadmit.evaluate import (
    EvalConfig,
    EventTrace,
    PolicySeries,
    aggregate_training_curves,
    behavioral_compare,
    evaluate,
    evaluate_batch,
    quartiles,
    rollout,
    rollout_costs,
)
from edgeadmit.learners import QLearningConfig, qlearning_train
from edgeadmit.model import (
    Action, ChainTables, CostModel, ModelParams, NoEventError, ResourceDist, policy_table,
)
from edgeadmit.rng import substream
from edgeadmit.scenarios import Scenario, trajectory

from oracles import relative_gap, simulated_policy_value, trace_draws, windowed_replay


def test_rollout_single_departure_step(canonical_params, canonical_chain):
    # lam = 0 with a busy server: the only possible event is a departure, so
    # the policy is irrelevant and the cost is the one-step accept cost, in
    # rollout and in the one window of a one-step comparison without users
    table = policy_table(canonical_params, accept_below=0)
    cost = rollout(table, 0.0, canonical_chain, horizon=1, rng=substream(0, "r"),
                   initial_state=(5, 10))
    assert cost == pytest.approx(0.12 * 3 - 0.2)
    series = behavioral_compare({"all_offload": table}, Scenario(kind=1, n_users=0),
                                canonical_chain, EventTrace.generate(0, 1),
                                EvalConfig(initial_state=(5, 10)))
    [only] = series["all_offload"].windows
    assert (only.cost_discounted, only.c_off) == (cost, 0)


def test_rollout_deterministic_given_stream(canonical_params, canonical_chain):
    policy = policy_table(canonical_params, tau=np.full(21, 9.0))
    kwargs = dict(
        lam=6.0,
        chain=canonical_chain,
        horizon=500,
        initial_state=(0, 0),
    )
    a = rollout(policy, rng=substream(5, "roll"), **kwargs)
    b = rollout(policy, rng=substream(5, "roll"), **kwargs)
    assert a == b


def _tables(chain) -> dict:
    params = chain.params
    sol = value_iteration(6.0, chain, tol=1e-9)
    return {
        "tau_zero": policy_table(params, tau=np.zeros(21)),
        "tau_integer": policy_table(params, tau=(np.arange(21) * 7 % 21).astype(float)),
        "tau_L": policy_table(params, tau=np.full(21, 20.0)),
        "dp": policy_table(params, actions=sol.policy),
        "baseline": policy_table(params, accept_below=18),
        "all_offload": policy_table(params, accept_below=0),
    }


def _reference_costs(table, cfg, lam, chain, seed) -> list:
    return [
        rollout(
            table, lam, chain, cfg.rollout_length, substream(seed, f"rollout-{i}"),
            initial_state=cfg.initial_state,
        )
        for i in range(cfg.n_rollouts)
    ]


@pytest.mark.parametrize(
    "n_rollouts, rollout_length, initial_state",
    [(1, 1, (0, 0)), (1, 250, (0, 0)), (9, 1, (20, 20)), (6, 300, (20, 20)), (12, 200, (3, 7))],
)
@pytest.mark.parametrize("lam", [6.0, 9.0])
def test_lanes_equal_scalar_rollout_exactly(
    n_rollouts, rollout_length, initial_state, lam, canonical_chain,
):
    # every lane of the vectorised evaluation is the scalar rollout on the
    # same substream, bit for bit
    cfg = EvalConfig(rollout_length=rollout_length, n_rollouts=n_rollouts,
                     initial_state=initial_state)
    for name, table in _tables(canonical_chain).items():
        lanes = rollout_costs([(table, lam, 31)], cfg, canonical_chain)[0]
        ref = _reference_costs(table, cfg, lam, canonical_chain, seed=31)
        assert lanes.tolist() == ref, name


def test_lanes_equal_scalar_rollout_without_arrivals(canonical_params, canonical_chain):
    # lam = 0 from a full buffer: departures only, no event draws, until the
    # queue empties; both paths then raise the same error
    table = policy_table(canonical_params, accept_below=18)
    args = (0.0, canonical_chain)
    cfg = EvalConfig(rollout_length=20, n_rollouts=4, initial_state=(20, 20))
    assert rollout_costs([(table, 0.0, 2)], cfg, *args[1:])[0].tolist() == _reference_costs(
        table, cfg, *args, seed=2
    )
    cfg = EvalConfig(rollout_length=21, n_rollouts=4, initial_state=(20, 20))
    message = "no event possible: lam == 0 and empty queue"
    with pytest.raises(ValueError, match=message):
        _reference_costs(table, cfg, *args, seed=2)
    with pytest.raises(ValueError, match=message):
        evaluate(table, cfg, *args, seed=2)


@pytest.mark.parametrize(
    "block, lanes, rollout_length, n_rollouts",
    # (the block a lane holds in draws, lanes per batch): a block of 2 lasts
    # one step; 50 steps are no multiple of a 7-draw block's 3 steps; lanes
    # per batch that split points across batches; and the defaults
    [(2, 5, 7, 3), (7, 10, 50, 3), (9, 4, 33, 5), (None, None, 120, 4)],
)
def test_batch_lanes_equal_scalar_rollout_exactly(
    block, lanes, rollout_length, n_rollouts, monkeypatch, canonical_chain,
):
    # one batch mixes every policy kind, two rates and several seeds: the
    # all-offload table takes one draw per step and tau_L two, so lanes reach
    # their block's end at different steps; every lane is still the scalar
    # rollout on its own substream, bit for bit
    if block is not None:
        monkeypatch.setattr(evaluate_module, "BLOCK_DRAWS", block)
        monkeypatch.setattr(evaluate_module, "BATCH_LANES", lanes)
    cfg = EvalConfig(rollout_length=rollout_length, n_rollouts=n_rollouts)
    tables = _tables(canonical_chain)
    points = [
        (table, lam, seed)
        for seed, lam in ((3, 6.0), (4, 9.0), (40, 6.0))
        for table in tables.values()
    ]
    costs = rollout_costs(points, cfg, canonical_chain)
    assert costs.shape == (len(points), n_rollouts)
    for (table, lam, seed), lane_costs in zip(points, costs):
        ref = _reference_costs(table, cfg, lam, canonical_chain, seed=seed)
        assert lane_costs.tolist() == ref
    reports = evaluate_batch(points, cfg, canonical_chain)
    assert reports == [
        evaluate(table, cfg, lam, canonical_chain, seed=seed)
        for table, lam, seed in points
    ]


@pytest.mark.parametrize("block, lanes", [(3, 5), (None, None)])
def test_batch_with_idle_point_raises_exactly_when_alone(
    block, lanes, monkeypatch, canonical_params, canonical_chain
):
    # a lam = 0 point among others: from a full buffer its queue empties at
    # step 20, so it raises at 21 steps and not at 20, alone or in a batch
    if block is not None:
        monkeypatch.setattr(evaluate_module, "BLOCK_DRAWS", block)
        monkeypatch.setattr(evaluate_module, "BATCH_LANES", lanes)
    table = policy_table(canonical_params, accept_below=18)
    offload_all = policy_table(canonical_params, accept_below=0)
    points = [(table, 6.0, 1), (table, 0.0, 2), (offload_all, 9.0, 3)]
    args = (canonical_chain,)
    cfg = EvalConfig(rollout_length=20, n_rollouts=4, initial_state=(20, 20))
    costs = rollout_costs(points, cfg, *args)
    for (table, lam, seed), lane_costs in zip(points, costs):
        assert lane_costs.tolist() == _reference_costs(table, cfg, lam, *args, seed=seed)
    cfg = EvalConfig(rollout_length=21, n_rollouts=4, initial_state=(20, 20))
    with pytest.raises(NoEventError):
        rollout_costs(points[1:2], cfg, *args)
    with pytest.raises(NoEventError):
        rollout_costs(points, cfg, *args)
    rollout_costs(points[::2], cfg, *args)


class _CountedRefills:
    """A lane's generator that counts the block refills it serves."""

    def __init__(self, gen):
        self.gen, self.refills = gen, 0

    def random(self, *args, **kwargs):
        self.refills += 1
        return self.gen.random(*args, **kwargs)


def _count_refills(monkeypatch) -> list:
    """Make ``rollout_costs`` seed counting generators; returns them, lane by lane."""
    lanes = []
    substreams = rngmod.substreams

    def counted(seeds, names):
        gens = [_CountedRefills(gen) for gen in substreams(seeds, names)]
        lanes.extend(gens)
        return gens

    monkeypatch.setattr(rngmod, "substreams", counted)
    return lanes


def _crossing_chain():
    # a running cost down to -3, whose size no positive cost reaches, and a
    # holding cost that starts a full system above 0: totals end either side
    costs = CostModel(holding=0.03, running=np.linspace(-3.0, 0.2, 21), penalty=np.full(21, 0.1))
    return ChainTables(ModelParams(discount_beta=0.9), costs, ResourceDist(pmf=[0.6, 0.4]))


@pytest.mark.parametrize("case", ["beta-0.95", "beta-0.5", "negative-costs"])
def test_settled_lanes_equal_scalar_rollout_exactly(case, monkeypatch, canonical_costs,
                                                    canonical_chain):
    # a lane stops stepping once no later term can move its total: where many
    # lanes stop early, every cost is still the scalar rollout's, bit for bit;
    # a 10-draw block checks the lanes every 5 steps
    chain, cfg, block = {
        "beta-0.95": (canonical_chain, EvalConfig(rollout_length=1000, n_rollouts=8), None),
        "beta-0.5": (ChainTables(ModelParams(discount_beta=0.5), canonical_costs,
                                 canonical_chain.rd),
                     EvalConfig(rollout_length=200, n_rollouts=8), 10),
        "negative-costs": (_crossing_chain(),
                           EvalConfig(rollout_length=600, n_rollouts=20, initial_state=(20, 20)),
                           10),
    }[case]
    if block is not None:
        monkeypatch.setattr(evaluate_module, "BLOCK_DRAWS", block)
    points = [(table, lam, 7) for table in _tables(canonical_chain).values() for lam in (6.0, 9.0)]
    lanes = _count_refills(monkeypatch)
    costs = rollout_costs(points, cfg, chain)
    for (table, lam, seed), lane_costs in zip(points, costs):
        assert lane_costs.tolist() == _reference_costs(table, cfg, lam, chain, seed=seed)
    chunk = min(evaluate_module.BLOCK_DRAWS, 2 * cfg.rollout_length) // 2
    refills = np.array([gen.refills for gen in lanes])
    settled = refills < -(-cfg.rollout_length // chunk)
    assert settled.mean() > 0.5
    if case == "negative-costs":
        totals = costs.ravel()
        assert (totals < 0).any() and (totals > 0).any()
        assert settled[totals < 0].any() and settled[totals > 0].any()


def test_idle_point_seeds_no_lane(monkeypatch, canonical_costs, canonical_resources):
    # a lam = 0 point is scored by rollout itself, beside a point that runs
    # as lanes: rng.substreams seeds the other point's lanes and never sees
    # the idle point's.  From a full buffer the idle queue empties at step
    # 20, so it raises at 21 steps, alone or in a batch, and not at 20
    params = ModelParams(discount_beta=0.1)
    chain = ChainTables(params, canonical_costs, canonical_resources)
    table = policy_table(params, accept_below=18)
    points = [(table, 0.0, 2), (table, 6.0, 1)]
    cfg = EvalConfig(rollout_length=20, n_rollouts=3, initial_state=(20, 20))
    seeded = []
    substreams = rngmod.substreams

    def recorded(seeds, names):
        seeded.extend(zip(seeds, names))
        return substreams(seeds, names)

    monkeypatch.setattr(rngmod, "substreams", recorded)
    costs = rollout_costs(points, cfg, chain)
    for (table, lam, seed), lane_costs in zip(points, costs):
        assert lane_costs.tolist() == _reference_costs(table, cfg, lam, chain, seed=seed)
    assert seeded == [(1, f"rollout-{i}") for i in range(3)]
    cfg = EvalConfig(rollout_length=21, n_rollouts=3, initial_state=(20, 20))
    for batch in (points[:1], points):
        with pytest.raises(NoEventError):
            rollout_costs(batch, cfg, chain)
    assert len(seeded) == 3


def _count_trapped(monkeypatch) -> list:
    """Make ``rollout_costs`` record how many lanes each tail it adds finishes."""
    calls = []
    finish = evaluate_module._trapped_totals

    def counted(total, *args):
        calls.append(len(total))
        return finish(total, *args)

    monkeypatch.setattr(evaluate_module, "_trapped_totals", counted)
    return calls


@pytest.mark.parametrize("initial_state", [(0, 0), (0, 13)])
def test_lane_trapped_from_the_first_step_equals_scalar_rollout(
    initial_state, monkeypatch, canonical_params, canonical_chain,
):
    # the all-offload table at x = 0: every event is an arrival it offloads,
    # so a lane is trapped before its first refill, draws nothing, and its
    # total is the tail alone, beside lanes of another point that step
    table = policy_table(canonical_params, accept_below=0)
    stepping = policy_table(canonical_params, accept_below=18)
    cfg = EvalConfig(rollout_length=1000, n_rollouts=5, initial_state=initial_state)
    points = [(table, 6.0, 3), (stepping, 6.0, 4), (table, 9.0, 5)]
    lanes = _count_refills(monkeypatch)
    trapped = _count_trapped(monkeypatch)
    costs = rollout_costs(points, cfg, canonical_chain)
    for (table, lam, seed), lane_costs in zip(points, costs):
        assert lane_costs.tolist() == _reference_costs(table, cfg, lam, canonical_chain, seed)
    assert trapped[0] == 10
    assert [gen.refills for gen in lanes[:5] + lanes[10:]] == [0] * 10
    assert all(gen.refills for gen in lanes[5:10])


@pytest.mark.parametrize("block", [None, 10])
@pytest.mark.parametrize("lam", [6.0, 9.0])
def test_lanes_trapped_partway_equal_scalar_rollout_exactly(
    lam, block, monkeypatch, canonical_chain,
):
    # the planner's and the baseline's tables reach x = 0 in a state they
    # offload from: such a lane stops stepping at its next refill and adds
    # the rest of its terms, in the step loop's order, bit for bit
    if block is not None:
        monkeypatch.setattr(evaluate_module, "BLOCK_DRAWS", block)
    tables = _tables(canonical_chain)
    points = [(tables[name], lam, 11) for name in ("dp", "baseline")]
    cfg = EvalConfig(rollout_length=1000, n_rollouts=40)
    trapped = _count_trapped(monkeypatch)
    costs = rollout_costs(points, cfg, canonical_chain)
    for (table, lam, seed), lane_costs in zip(points, costs):
        assert lane_costs.tolist() == _reference_costs(table, cfg, lam, canonical_chain, seed)
    assert sum(trapped) >= 5


class _ScriptedGenerator:
    """Uniforms of a seeded generator with every third replaced by the next
    of ``special``, the same in ``rollout``'s scalar draws and the lanes' blocks."""

    def __init__(self, seed, special):
        self.gen, self.special, self.drawn = np.random.default_rng(seed), special, 0

    def _draw(self, k):
        u = self.gen.random(k)
        at = np.arange(self.drawn, self.drawn + k)
        hit = at % 3 == 0
        u[hit] = self.special[at[hit] // 3 % len(self.special)]
        self.drawn += k
        return u

    def random(self, out=None):
        if out is None:
            return float(self._draw(1)[0])
        out[:] = self._draw(len(out))
        return out


@pytest.mark.parametrize("pmf", [
    [0.5, 0.0, 0.5],  # a zero entry: two cdf entries tie
    [0.1] * 10,       # a cdf that ends at 0.9999999999999999, which a uniform can equal
    [1 / 300] * 300,  # resource indices up to 300 need more than a byte
])
def test_lanes_read_every_resource_index_exactly(pmf, monkeypatch, canonical_params,
                                                 canonical_costs, canonical_chain):
    # draws on, just below and above every cdf entry, up to the largest
    # uniform below 1.0: a lane's resource index is the scalar bisection's,
    # index len(cdf) (one past the support) included
    chain = ChainTables(canonical_params, canonical_costs, ResourceDist(pmf=pmf))
    special = np.concatenate([chain.cdf, np.nextafter(chain.cdf, 0.0), np.nextafter(chain.cdf, 1.0),
                              [np.nextafter(1.0, 0.0)]])
    special = special[special < 1.0]
    top = np.searchsorted(chain.cdf, special, side="right").max()
    assert top == len(chain.cdf) - (chain.cdf[-1] == 1.0)
    monkeypatch.setattr(evaluate_module, "BLOCK_DRAWS", 7)
    monkeypatch.setattr(rngmod, "substreams", lambda seeds, names: [
        _ScriptedGenerator([seed, int(name[8:])], special) for seed, name in zip(seeds, names)])
    cfg = EvalConfig(rollout_length=60, n_rollouts=3, initial_state=(3, 7))
    points = [(table, lam, 9) for table in _tables(canonical_chain).values() for lam in (6.0, 9.0)]
    costs = rollout_costs(points, cfg, chain)
    for (table, lam, seed), lane_costs in zip(points, costs):
        assert lane_costs.tolist() == [
            rollout(table, lam, chain, cfg.rollout_length, _ScriptedGenerator([seed, i], special),
                    initial_state=cfg.initial_state)
            for i in range(cfg.n_rollouts)
        ]


def test_evaluate_constant_cost_geometric_sum(canonical_params, canonical_resources):
    # constant cost everywhere: any policy accumulates c * (1 - b^H) / (1 - b)
    c = 1.7
    cm = CostModel(holding=0.0, running=np.full(21, c), penalty=np.zeros(21))
    cfg = EvalConfig(rollout_length=200, n_rollouts=3, window=200)
    report = evaluate(
        policy_table(canonical_params, tau=np.full(21, 10.0)), cfg, 6.0,
        ChainTables(canonical_params, cm, canonical_resources), seed=0,
    )
    expected = c * (1 - 0.95**200) / (1 - 0.95)
    assert report.mean == pytest.approx(expected, rel=1e-12)
    assert report.q1 == pytest.approx(expected) == report.q3


def test_evaluate_quartiles_order(canonical_params, canonical_chain):
    cfg = EvalConfig(rollout_length=300, n_rollouts=40, window=300)
    report = evaluate(
        policy_table(canonical_params, tau=np.full(21, 9.0)),
        cfg,
        6.0,
        canonical_chain,
        seed=3,
    )
    assert report.q1 <= report.median <= report.q3
    assert report.n_rollouts == 40


def test_dp_policy_beats_baseline_on_average(canonical_params, canonical_chain):
    sol = value_iteration(6.0, canonical_chain, tol=1e-9)
    cfg = EvalConfig(rollout_length=1000, n_rollouts=60, window=1000)
    dp_report = evaluate(
        policy_table(canonical_params, actions=sol.policy), cfg, 6.0, canonical_chain, seed=4,
    )
    base_report = evaluate(
        policy_table(canonical_params, accept_below=18),
        cfg,
        6.0,
        canonical_chain,
        seed=4,
    )
    assert dp_report.mean < base_report.mean


def test_any_policy_statistically_dominates_dp_value(canonical_params, canonical_chain):
    # the planner's fixed-point value at the start state lower-bounds every
    # simulated policy cost up to statistical allowance
    sol = value_iteration(6.0, canonical_chain, tol=1e-9)
    cfg = EvalConfig(rollout_length=1000, n_rollouts=50, window=1000)
    for policy in (
        policy_table(canonical_params, tau=np.full(21, 8.0)),
        policy_table(canonical_params, accept_below=18),
        policy_table(canonical_params, actions=sol.policy),
    ):
        report = evaluate(policy, cfg, 6.0, canonical_chain, seed=6)
        # allowance: 3 standard errors estimated from the quartile spread
        spread = max(report.q3 - report.q1, 0.1)
        assert report.mean >= sol.v[0, 0] - 3 * spread


def test_baseline_offloads_only_reactively(canonical_params, canonical_resources):
    # trace the baseline for a while: it must never offload below its
    # threshold with a non-full buffer
    policy = policy_table(canonical_params, accept_below=18)
    x, ell = 0, 0
    rng = substream(12, "react")
    cdf = np.cumsum(canonical_resources.pmf)
    for _ in range(5000):
        d = 6.0 / (6.0 + min(x, 2) * 3.0)
        if rng.random() <= d:
            a = Action.OFFLOAD if x == 20 else Action(int(policy[x, ell]))
            if a == Action.OFFLOAD:
                assert ell >= 18 or x == 20
            else:
                r = int(np.searchsorted(cdf, rng.random(), side="right")) + 1
                x, ell = min(x + 1, 20), min(ell + r, 20)
        else:
            r = int(np.searchsorted(cdf, rng.random(), side="right")) + 1
            x, ell = max(x - 1, 0), max(ell - r, 0)


def test_event_trace_reproducible():
    a = EventTrace.generate(7, 1000)
    b = EventTrace.generate(7, 1000)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.resource_u, b.resource_u)


def test_behavioral_compare_shared_randomness(canonical_params, canonical_chain):
    trace = EventTrace.generate(3, 20_000)
    scenario = Scenario(kind=2)
    policies = {
        "baseline": policy_table(canonical_params, accept_below=18),
        "tight": policy_table(canonical_params, tau=np.full(21, 8.0)),
    }
    series = behavioral_compare(policies, scenario, canonical_chain, trace, EvalConfig())
    assert set(series) == {"baseline", "tight"}
    assert len(series["baseline"].windows) == 20
    # scatter export shape: one row per (policy, window)
    rows = [(n, w.index, w.c_off, w.c_ov) for n in series for w in series[n].windows]
    assert len(rows) == 40
    # the high-rate middle phase must overload the baseline
    base_total_ov = sum(w.c_ov for w in series["baseline"].windows)
    tight_total_ov = sum(w.c_ov for w in series["tight"].windows)
    assert base_total_ov > 0
    assert tight_total_ov < base_total_ov
    # proactive thresholds offload at least as often as the reactive baseline
    assert sum(w.c_off for w in series["tight"].windows) >= sum(
        w.c_off for w in series["baseline"].windows
    )


def test_behavioral_compare_identical_policy_identical_series(canonical_params, canonical_chain):
    trace = EventTrace.generate(5, 5000)
    scenario = Scenario(kind=1)
    series = behavioral_compare(
        {
            "a": policy_table(canonical_params, tau=np.full(21, 9.0)),
            "b": policy_table(canonical_params, tau=np.full(21, 9.0)),
        },
        scenario,
        canonical_chain,
        trace,
        EvalConfig(),
    )
    assert series["a"] == series["b"]


def test_behavioral_compare_without_arrivals(canonical_params, canonical_chain):
    # no users, so lam = 0 from a full buffer: departures only, no offloads,
    # until the queue empties at step 20; the next step has no event
    scenario = Scenario(kind=1, n_users=0)
    policies = {"baseline": policy_table(canonical_params, accept_below=18)}
    args = (scenario, canonical_chain)
    cfg = EvalConfig(initial_state=(20, 20))
    series = behavioral_compare(policies, *args, EventTrace.generate(4, 20), cfg)
    [only] = series["baseline"].windows
    assert only.index == 0 and only.c_off == 0
    with pytest.raises(NoEventError, match="no event possible"):
        behavioral_compare(policies, *args, EventTrace.generate(4, 21), cfg)


def _replayed(policies, scenario, chain, trace, **kwargs) -> dict:
    """``behavioral_compare`` by ``windowed_replay``: every step through the kernel."""
    series = {}
    for name, table in policies.items():
        _, windows, trap_step = windowed_replay(
            table, trace_draws(scenario, trace, chain), chain, **kwargs
        )
        series[name] = PolicySeries(tuple(windows), trap_step)
    return series


def test_compare_trapped_from_the_first_step(canonical_params, canonical_chain):
    # the all-offload table never leaves (0, 0); past step ~14 500 the discount
    # sits at the smallest subnormal, so full windows repeat, and the trace
    # ends in a partial window
    args = ({"all_offload": policy_table(canonical_params, accept_below=0)}, Scenario(kind=1),
            canonical_chain, EventTrace.generate(21, 20_500))
    series = behavioral_compare(*args, EvalConfig())
    assert series == _replayed(*args)
    [only] = series.values()
    assert only.trap_step == 0
    # pinned at (0, 0), where every event is an arrival: every step offloads
    assert [w.c_off for w in only.windows] == [1000] * 20 + [500]
    assert not any(w.c_ov for w in only.windows)


def test_compare_windows_partition_costs(canonical_params, canonical_chain):
    # the windows tile the trace: their discounted costs add up to the plain
    # replay's discounted total, and their undiscounted costs to the one
    # window of the same trace compared in a single window
    table = policy_table(canonical_params, tau=np.full(21, 12.0))
    scenario, trace = Scenario(kind=1), EventTrace.generate(2, 2500)
    args = ({"tau_12": table}, scenario, canonical_chain, trace)
    windows = behavioral_compare(*args, EvalConfig(window=1000))["tau_12"].windows
    assert [w.index for w in windows] == [0, 1, 2]
    total, _, _ = windowed_replay(table, trace_draws(scenario, trace, canonical_chain),
                                  canonical_chain)
    assert sum(w.cost_discounted for w in windows) == pytest.approx(total)
    [whole] = behavioral_compare(*args, EvalConfig(window=2500))["tau_12"].windows
    assert sum(w.cost_undiscounted for w in windows) == pytest.approx(
        whole.cost_undiscounted, rel=1e-6)


def test_compare_resource_draws_on_the_cdf_entries(canonical_params, canonical_chain):
    # a resource draw equal to a cdf entry takes the next size, as bisect_right
    # does in the plain replay; just below the entry it takes that entry's size
    cdf = canonical_chain.cdf.tolist()
    on_entries = sorted({u for c in cdf for u in (c, float(np.nextafter(c, 0.0)))})
    trace = EventTrace.generate(5, 5000)
    trace = EventTrace(trace.seed, trace.z, np.resize(on_entries, len(trace.z)))
    args = ({"baseline": policy_table(canonical_params, accept_below=18)}, Scenario(kind=3),
            canonical_chain, trace)
    assert behavioral_compare(*args, EvalConfig()) == _replayed(*args)


# (costs, table at x = 0): a trap at a positive cost (the canonical tables,
# the planner and the baseline) and at a negative one (no penalty, so the
# running table's negative band, which the table offloads from)
@pytest.mark.parametrize("sign", ["positive", "negative"])
def test_compare_fast_forward_equals_plain_replay(
    sign, canonical_params, canonical_costs, canonical_resources
):
    if sign == "positive":
        costs = canonical_costs
        sol = value_iteration(6.0, ChainTables(canonical_params, costs, canonical_resources),
                              tol=1e-9)
        policies = {
            "dp": policy_table(canonical_params, actions=sol.policy),
            "baseline": policy_table(canonical_params, accept_below=18),
        }
    else:
        costs = CostModel(holding=canonical_costs.holding, running=canonical_costs.running,
                          penalty=np.zeros(21))
        band = np.zeros((21, 21), dtype=int)
        band[0, 6:18] = 1
        policies = {"band": policy_table(canonical_params, actions=band)}
    chain = ChainTables(canonical_params, costs, canonical_resources)
    # window 1000 does not divide the trace, so the last window is half full,
    # or one step short of full: one repeated full window too many shows there
    for length in (20_500, 20_999):
        args = (policies, Scenario(kind=1), chain, EventTrace.generate(0, length))
        series = behavioral_compare(*args, EvalConfig())
        assert series == _replayed(*args)
        for ps in series.values():
            # trapped inside a window, early enough for the repeated full windows
            assert 0 < ps.trap_step < 14_000 and ps.trap_step % 1000
            assert len(ps.windows) == 21
            assert (ps.windows[-1].cost_undiscounted > 0) == (sign == "positive")


@pytest.mark.parametrize("kind", [2, 3, 6])
def test_compare_fast_forward_across_change_points(kind, canonical_params, canonical_chain):
    # a trapped policy runs on through the stops of later rate segments: the
    # phase switches of scenario 2, the toggles of 3 and the toggles and
    # population steps of 6
    sol = value_iteration(6.0, canonical_chain, tol=1e-9)
    policies = {
        "dp": policy_table(canonical_params, actions=sol.policy),
        "baseline": policy_table(canonical_params, accept_below=18),
    }
    scenario = Scenario(kind=kind)
    trace = EventTrace.generate(0, 20_500)
    args = (policies, scenario, canonical_chain, trace)
    series = behavioral_compare(*args, EvalConfig())
    assert series == _replayed(*args)
    last_change = trajectory(scenario, 20_500, trace.seed)[-1][0]
    for ps in series.values():
        assert ps.trap_step is not None and ps.trap_step < last_change


@pytest.mark.parametrize("initial_state", [(0, 0), (2, 0)])
def test_compare_trap_then_no_arrivals_raises_at_the_plain_step(
    initial_state, canonical_params, canonical_chain
):
    # one user who leaves at step 8 on this seed: lam = 0 from there on.  Up
    # to a horizon of 14 steps the population moves every step, so the rates
    # of a shorter trace are a prefix of a longer one's, and both loops must
    # raise on exactly the same horizons.  From (0, 0) the table is trapped
    # at step 0, from (2, 0) once the queue empties.
    scenario = Scenario(kind=4, n_users=1, leave_prob=0.3, stay_prob=0.7, add_prob=0.0)
    policies = {"all_offload": policy_table(canonical_params, accept_below=0)}
    args = (scenario, canonical_chain)
    cfg = EvalConfig(initial_state=initial_state)
    raised = []
    for horizon in range(1, 15):
        trace = EventTrace.generate(16, horizon)
        try:
            expected = _replayed(policies, *args, trace, initial_state=initial_state)
        except NoEventError:
            with pytest.raises(NoEventError):
                behavioral_compare(policies, *args, trace, cfg)
            raised.append(horizon)
        else:
            series = behavioral_compare(policies, *args, trace, cfg)
            assert series == expected
            assert series["all_offload"].trap_step is not None or horizon < 3
    assert raised == list(range(9, 15))


def test_chain_step_is_built_once(
    step_builds, canonical_params, canonical_costs, canonical_resources, segments
):
    # the planner reads the chain's tables alone; a 4-policy comparison and a
    # trainer's arrival loop then share the one step the chain builds
    chain = ChainTables(canonical_params, canonical_costs, canonical_resources)
    value_iteration(6.0, chain)
    assert step_builds == []
    policies = {f"below_{b}": policy_table(canonical_params, accept_below=b)
                for b in (0, 10, 18, 21)}
    behavioral_compare(policies, Scenario(kind=1), chain, EventTrace.generate(3, 3000),
                       EvalConfig())
    qlearning_train(segments(Scenario(kind=1), 3000, 3), chain, QLearningConfig(horizon=3000), 3)
    assert len(step_builds) == 1 and step_builds[0] is chain


def test_threshold_policy_greedy_rounding(canonical_params):
    policy = policy_table(canonical_params, tau=np.array([3.7] * 21))
    assert Action(int(policy[0, 3])) is Action.ACCEPT
    assert Action(int(policy[0, 4])) is Action.OFFLOAD
    assert Action(int(policy[20, 0])) is Action.OFFLOAD


def test_policy_table_rejects_wrong_shape(canonical_params):
    # artifacts come from outside the program: a table or threshold vector
    # sized for another model must not reach a rollout
    with pytest.raises(ValueError, match="shape"):
        policy_table(canonical_params, tau=np.full(20, 5.0))
    with pytest.raises(ValueError, match="shape"):
        policy_table(canonical_params, actions=np.zeros((21, 20), dtype=int))


def test_rollout_mean_matches_exact_policy_value(
    canonical_params, canonical_costs, canonical_resources, canonical_chain
):
    # Monte-Carlo rollouts agree with the linear-solve value of the same
    # policy on the simulated chain within 3 standard errors
    tau = np.full(21, 8.0)
    policy_eval = np.zeros((21, 21), dtype=int)
    for x in range(21):
        policy_eval[x, 9:] = 1
    policy_eval[20, :] = 1
    exact = simulated_policy_value(policy_eval, 6.0, canonical_params, canonical_costs,
                                   canonical_resources)
    costs = [
        rollout(
            policy_table(canonical_params, tau=tau),
            6.0,
            canonical_chain,
            horizon=1000,
            rng=substream(100 + i, "mc"),
        )
        for i in range(200)
    ]
    mean = np.mean(costs)
    se = np.std(costs, ddof=1) / np.sqrt(len(costs))
    assert abs(mean - exact[0, 0]) <= 3 * se


def test_aggregate_training_curves():
    logs = [
        [(100, 1.0), (200, 3.0)],
        [(100, 2.0), (200, 5.0)],
        [(100, 3.0)],
    ]
    rows = aggregate_training_curves(logs)
    assert rows[0][0] == 100
    assert rows[0][1] == pytest.approx(2.0)  # median of 1, 2, 3
    assert rows[1][0] == 200
    assert rows[1][1] == pytest.approx(4.0)  # median of 3, 5
    # each step's values, unsorted, give np.quantile's quartiles bit for bit
    rng = np.random.default_rng(7)
    logs = [[(step, float(rng.lognormal(0.0, 1.0))) for step in (100, 200)] for _ in range(9)]
    for step, med, q1, q3 in aggregate_training_curves(logs):
        values = [mean for log in logs for s, mean in log if s == step]
        assert (q1, med, q3) == tuple(np.quantile(values, (0.25, 0.5, 0.75)))


def _quartile_samples():
    """Seeded sorted samples of 1 to 300 values: ties, negatives, magnitudes
    from 1e-5 to 1e5 and right-skewed costs."""
    rng = np.random.default_rng(2027)
    for k in range(4000):
        n = int(rng.integers(1, 301))
        scale = 10.0 ** rng.uniform(-5, 5)
        x = (
            rng.normal(size=n) * scale,
            rng.integers(-3, 4, size=n) * scale,  # ties
            rng.lognormal(0.0, 2.0, size=n),
            rng.uniform(-1, 1, size=n) * 10.0 ** rng.uniform(-5, 5, size=n),
        )[k % 4]
        yield np.sort(x)


def test_quartiles_equal_numpy_quantile_bit_for_bit():
    for x in _quartile_samples():
        expected = np.quantile(x, (0.25, 0.5, 0.75))
        assert np.array(quartiles(x)).tobytes() == expected.tobytes(), x
    # a NaN sorts last and makes every quartile NaN, as in numpy
    x = np.array([1.0, 2.0, 3.0, 4.0, np.nan])
    assert np.isnan(quartiles(x)).all() and np.isnan(np.quantile(x, (0.25, 0.5, 0.75))).all()


def test_relative_gap():
    assert relative_gap(1.1, 1.0) == pytest.approx(0.1)
    assert relative_gap(-1.1, -1.0) == pytest.approx(0.1)
    assert relative_gap(0.0, 0.0) == 0.0
