import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeadmit.dp import q_tables
from edgeadmit.model import (
    Action,
    ChainTables,
    CostModel,
    CostTableWarning,
    ModelParams,
    NoEventError,
    ResourceDist,
)
from edgeadmit.rng import substream

from oracles import State, delta, resource_indices, transition_pmf


def step_costs(chain, lam=6.0) -> np.ndarray:
    """Per-step cost by ``(x, ell, action)``, as the planner charges it.

    The Q-tables of the zero value function hold the immediate costs alone.
    """
    shape = (chain.params.buffer_capacity + 1, chain.params.cpu_levels + 1)
    return q_tables(chain, lam, np.zeros(shape), self_loop=False)


def test_cost_idle_accept_is_free(canonical_chain):
    costs = step_costs(canonical_chain)
    assert costs[0, 0, Action.ACCEPT] == 0.0


def test_cost_offload_mid_band(canonical_chain):
    # h * (5 - 2) + c(10) + p(10) = 0.36 - 0.2 + 1
    costs = step_costs(canonical_chain)
    assert costs[5, 10, Action.OFFLOAD] == pytest.approx(1.16, abs=1e-12)


def test_cost_overloaded_accept(canonical_chain):
    costs = step_costs(canonical_chain)
    assert costs[2, 19, Action.ACCEPT] == pytest.approx(10.0)


def test_cost_floor_with_canonical_tables(canonical_chain):
    costs = step_costs(canonical_chain)
    assert costs.min() >= -0.2


@given(
    h=st.floats(min_value=0, max_value=5),
    base=st.lists(st.floats(min_value=0, max_value=10), min_size=4, max_size=4),
    x=st.integers(min_value=0, max_value=6),
    ell=st.integers(min_value=0, max_value=3),
    a=st.sampled_from(list(Action)),
)
def test_cost_nonnegative_for_nonnegative_tables(h, base, x, ell, a):
    run = np.sort(np.asarray(base))
    cm = CostModel(holding=h, running=run, penalty=np.ones(4))
    params = ModelParams(buffer_capacity=6, cpu_levels=3, cores=2, service_rate=3.0)
    costs = step_costs(ChainTables(params, cm, ResourceDist(pmf=[1.0])))
    assert costs[x, ell, a] >= 0.0


def test_cost_model_monotone_violation_warns_by_default():
    with pytest.warns(CostTableWarning) as record:
        CostModel(holding=0.1, running=[0.0, -0.2, 10.0], penalty=[1.0, 1.0, 1.0])
    # the warning names the line that built the tables
    assert record[0].filename == __file__


def test_cost_model_strict_mode_raises():
    with pytest.raises(ValueError):
        CostModel(holding=0.1, running=[0.0, -0.2, 10.0], penalty=[1.0] * 3, strict=True)


def arrival_p(lam, params, x=None):
    """``ChainTables.arrival_p`` at queue length ``x``, or per queue length."""
    L = params.cpu_levels
    cm = CostModel(holding=0.0, running=np.zeros(L + 1), penalty=np.zeros(L + 1))
    by_x = ChainTables(params, cm, ResourceDist(pmf=[1.0])).arrival_p(lam)[:: L + 1]
    return by_x.tolist() if x is None else by_x[x]


def test_delta_empty_queue_is_always_arrival(canonical_params):
    assert arrival_p(0.5, canonical_params, 0) == 1.0
    assert arrival_p(100.0, canonical_params, 0) == 1.0


def test_delta_hand_values(canonical_params):
    assert arrival_p(6.0, canonical_params, 2) == pytest.approx(0.5)
    assert arrival_p(6.0, canonical_params, 1) == pytest.approx(2.0 / 3.0)


def test_delta_degenerate_raises(canonical_params):
    with pytest.raises(NoEventError, match="no event possible"):
        arrival_p(0.0, canonical_params)
    with pytest.raises(ValueError, match="arrival rate must be >= 0"):
        arrival_p(-1.0, canonical_params)


@given(lam=st.floats(min_value=1e-6, max_value=50))
def test_delta_weakly_decreasing_in_queue(lam):
    params = ModelParams(buffer_capacity=20, cpu_levels=20, cores=2, service_rate=3.0)
    values = arrival_p(lam, params)
    assert len(values) == 21
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    # constant once every core is busy
    assert values[2:] == pytest.approx([values[2]] * 19)
    # the oracle's scalar formula, bit for bit
    assert values == [delta(x, lam, params) for x in range(21)]


def test_transition_pmf_empty_accept(canonical_params, canonical_resources):
    pmf = transition_pmf(State(0, 0), Action.ACCEPT, 6.0, canonical_params, canonical_resources)
    assert pmf == {State(1, 1): pytest.approx(0.6), State(1, 2): pytest.approx(0.4)}


def test_transition_pmf_empty_offload_is_identity(canonical_params, canonical_resources):
    pmf = transition_pmf(State(0, 0), Action.OFFLOAD, 6.0, canonical_params, canonical_resources)
    assert pmf == {State(0, 0): pytest.approx(1.0)}


def test_transition_pmf_boundary_mass_merges(canonical_params, canonical_resources):
    # at the load cap both resource draws clamp onto the same state
    pmf = transition_pmf(State(0, 20), Action.ACCEPT, 6.0, canonical_params, canonical_resources)
    assert pmf == {State(1, 20): pytest.approx(1.0)}


@settings(max_examples=200)
@given(
    x=st.integers(min_value=0, max_value=20),
    ell=st.integers(min_value=0, max_value=20),
    action=st.sampled_from(list(Action)),
    lam=st.floats(min_value=0.01, max_value=30),
    p1=st.floats(min_value=0.05, max_value=0.95),
)
def test_transition_pmf_sums_to_one_within_bounds(x, ell, action, lam, p1):
    params = ModelParams(buffer_capacity=20, cpu_levels=20, cores=2, service_rate=3.0)
    rd = ResourceDist(pmf=[p1, 1.0 - p1])
    pmf = transition_pmf(State(x, ell), action, lam, params, rd)
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
    for s in pmf:
        assert 0 <= s.x <= 20 and 0 <= s.ell <= 20


def take_step(chain, state, action, lam, draw):
    """``chain.step`` taking ``action`` at an arrival, both draws from ``draw``:
    the event uniform, and the uniform whose ``resource_indices`` is the resource.

    Returns the next state, the action taken (None at a departure) and the cost.
    """
    x, ell, a, incurred = chain.step(
        state.x, state.ell, lam, lambda *_: action, 0, draw, resource_indices(chain, draw))
    return State(x, ell), a, incurred


def test_step_first_draw_trace(canonical_chain):
    # empty system: the event must be an arrival; accept consumes one
    # resource draw and moves up accordingly
    rng = substream(7, "events-test")
    nxt, a, incurred = take_step(canonical_chain, State(0, 0), Action.ACCEPT, 6.0, rng.random)
    assert a is Action.ACCEPT
    assert incurred == 0.0
    assert nxt in (State(1, 1), State(1, 2))


def test_step_traced_sample(canonical_chain):
    # event draw u = 0.3 <= delta(0) = 1 gives an arrival; the next draw
    # 0.5 < 0.6 selects resource size 1, landing at (1, 1)
    draw = iter([0.3, 0.5]).__next__
    assert take_step(canonical_chain, State(0, 0), Action.ACCEPT, 6.0, draw) == (
        State(1, 1), Action.ACCEPT, 0.0
    )


def test_step_boundary_draw_is_arrival(canonical_chain):
    # u exactly equal to delta counts as an arrival
    nxt, a, _ = take_step(canonical_chain, State(2, 5), Action.OFFLOAD, 6.0, iter([0.5]).__next__)
    assert a is Action.OFFLOAD
    assert nxt == State(2, 5)


def test_step_offload_identity_and_penalty(canonical_chain):
    rng = substream(7, "events-test")
    nxt, a, incurred = take_step(canonical_chain, State(0, 0), Action.OFFLOAD, 6.0, rng.random)
    assert a is Action.OFFLOAD
    assert nxt == State(0, 0)
    assert incurred == pytest.approx(10.0)  # idle-load offload penalty


def test_step_departure_charges_no_penalty(canonical_chain):
    # lam = 0 with a busy server: departures only
    rng = substream(3, "events-test")
    nxt, a, incurred = take_step(canonical_chain, State(5, 10), Action.OFFLOAD, 0.0, rng.random)
    assert a is None
    assert incurred == pytest.approx(0.12 * 3 - 0.2)
    assert nxt.x == 4 and nxt.ell in (8, 9)


@pytest.mark.parametrize(
    "state,action,seed",
    [
        (State(0, 0), Action.ACCEPT, 11),
        (State(3, 7), Action.ACCEPT, 12),
        (State(3, 7), Action.OFFLOAD, 13),
        (State(20, 19), Action.ACCEPT, 14),
        (State(1, 20), Action.OFFLOAD, 15),
    ],
)
def test_step_frequencies_match_pmf(
    state, action, seed, canonical_params, canonical_resources, canonical_chain
):
    lam = 6.0
    n = 20_000
    rng = substream(seed, "events-mc")
    counts: dict[State, int] = {}
    for _ in range(n):
        nxt, _, _ = take_step(canonical_chain, state, action, lam, rng.random)
        counts[nxt] = counts.get(nxt, 0) + 1
    pmf = transition_pmf(state, action, lam, canonical_params, canonical_resources)
    assert set(counts) <= set(pmf)
    for s, p in pmf.items():
        observed = counts.get(s, 0)
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(observed - n * p) <= 3 * sigma + 1


def test_step_event_frequency_matches_delta(canonical_params, canonical_chain):
    lam, state = 6.0, State(2, 5)
    d = delta(state.x, lam, canonical_params)
    n = 20_000
    rng = substream(20, "events-mc")
    arrivals = sum(
        take_step(canonical_chain, state, Action.ACCEPT, lam, rng.random)[1] is not None
        for _ in range(n)
    )
    sigma = (n * d * (1 - d)) ** 0.5
    assert abs(arrivals - n * d) <= 3 * sigma


def _no_draw() -> float:
    raise AssertionError("the event is drawn only when lam > 0")


@pytest.mark.parametrize("lam", [0.0, 0.5, 6.0])
def test_step_clamps_every_state_and_boundary_draw(lam):
    # every (x, ell) of a small model, both actions, event draws at and just
    # above delta(x), resource draws at and just below each cdf entry: the
    # successor and cost are the clamped formulas, and the successor lies in
    # the independent one-step distribution's support
    params = ModelParams(buffer_capacity=3, cpu_levels=4, cores=2, service_rate=3.0)
    cm = CostModel(
        holding=0.5, running=[0.0, 0.1, 0.2, 0.3, 5.0], penalty=[2.0, 2.0, 1.0, 1.0, 1.0]
    )
    rd = ResourceDist(pmf=[0.5, 0.0, 0.5])  # size 2 has probability zero
    chain = ChainTables(params, cm, rd)
    X, L, k = 3, 4, 2
    cdf = np.cumsum(rd.pmf)
    resource_draws = sorted(
        {0.0} | {u for c in cdf for u in (float(c), float(np.nextafter(c, 0.0))) if u < 1.0}
    )
    checked = set()
    for x, ell, action in itertools.product(range(X + 1), range(L + 1), Action):
        if lam == 0.0 and x == 0:
            with pytest.raises(NoEventError):
                chain.step(x, ell, lam, lambda *_: action, 0, _no_draw, _no_draw)
            continue
        support = transition_pmf(State(x, ell), action, lam, params, rd)
        stay = cm.holding * max(x - k, 0) + cm.running[ell]
        if lam > 0.0:
            d = delta(x, lam, params)
            event_draws = [d] + ([float(np.nextafter(d, 1.0))] if d < 1.0 else [])
        else:
            event_draws = [None]
        for z, u in itertools.product(event_draws, resource_draws):
            r = next(r for r, c in enumerate(cdf, start=1) if u < c)
            event_u = _no_draw if z is None else iter([z]).__next__
            resource_j = resource_indices(chain, iter([u]).__next__)
            got = chain.step(x, ell, lam, lambda *_: action, 0, event_u, resource_j)
            if z is not None and z <= d:
                if action == Action.OFFLOAD:
                    want = (x, ell, action, stay + cm.penalty[ell])
                else:
                    want = (min(x + 1, X), min(ell + r, L), action, stay)
            else:
                want = (max(x - 1, 0), max(ell - r, 0), None, stay)
            assert got == want, (x, ell, action, z, u)
            # Python numbers, not numpy scalars, go into learner state
            assert (type(got[0]), type(got[1]), type(got[3])) == (int, int, float)
            assert State(got[0], got[1]) in support, (x, ell, action, z, u)
            checked.add(got[:2])
    # every clamp is reached: both buffer ends and both load ends, the upper
    # ones only by arrivals
    xs, ells = {s[0] for s in checked}, {s[1] for s in checked}
    assert 0 in xs and 0 in ells
    if lam > 0.0:
        assert X in xs and L in ells


def test_chain_tables_are_read_only(canonical_chain):
    # every simulator shares the one chain, and its step holds a copy of them
    for name in ("busy", "cdf", "cost", "succ"):
        table = getattr(canonical_chain, name)
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]


def test_model_params_beta_consistency():
    ModelParams(discount_beta=0.95, discount_rate=0.631578947368421, uniformization_rate=12.0)
    with pytest.raises(ValueError, match="inconsistent"):
        ModelParams(discount_beta=0.9, discount_rate=0.631578947368421, uniformization_rate=12.0)


def test_resource_dist_validation():
    with pytest.raises(ValueError):
        ResourceDist(pmf=[0.6, 0.5])
    with pytest.raises(ValueError):
        ResourceDist(pmf=[1.2, -0.2])
    rd = ResourceDist(pmf=[0.25, 0.25, 0.5])
    assert rd.support() == [(1, 0.25), (2, 0.25), (3, 0.5)]


@pytest.mark.parametrize("pmf", [[np.nan], [0.5, np.nan, 0.5], [np.inf, -np.inf]])
def test_resource_dist_rejects_non_finite_entries(pmf):
    with pytest.raises(ValueError, match="finite"):
        ResourceDist(pmf=pmf)


@pytest.mark.parametrize("holding, running, penalty", [
    (np.nan, [0.0, 1.0], [1.0, 1.0]),
    (0.1, [0.0, np.nan], [1.0, 1.0]),
    (0.1, [0.0, 1.0], [np.inf, 1.0]),
])
def test_cost_model_rejects_non_finite_entries(holding, running, penalty):
    with pytest.raises(ValueError, match="finite"):
        CostModel(holding=holding, running=running, penalty=penalty)
