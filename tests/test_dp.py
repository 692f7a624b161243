import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeadmit.dp import (
    admissible_min,
    check_threshold_structure,
    check_value_monotone,
    q_tables,
    value_iteration,
    SolverError,
)
from edgeadmit.model import (
    Action, ChainTables, CostModel, ModelParams, ResourceDist, policy_table,
)

from oracles import delta, enumerate_optimal, recursion_policy_value


def small_setup(levels=3, beta=0.9):
    params = ModelParams(
        buffer_capacity=1, cpu_levels=levels, cores=1, service_rate=2.0, discount_beta=beta
    )
    cm = CostModel(
        holding=0.5,
        running=np.linspace(0.0, 2.0, levels + 1),
        penalty=np.full(levels + 1, 1.0),
    )
    rd = ResourceDist(pmf=[0.7, 0.3])
    return params, cm, rd


def test_bellman_zero_value_equals_cost(canonical_costs, canonical_chain):
    q = q_tables(canonical_chain, 6.0, np.zeros((21, 21)), self_loop=False)
    for x, ell in ((0, 0), (5, 10), (20, 20)):
        accept = 0.12 * max(x - 2, 0) + canonical_costs.running[ell]
        assert q[x, ell, Action.ACCEPT] == pytest.approx(accept)
        assert q[x, ell, Action.OFFLOAD] == pytest.approx(accept + canonical_costs.penalty[ell])


def test_bellman_constant_cost_fixed_point_accept():
    # constant cost c everywhere; v = c/(1-beta) is the accept-branch fixed
    # point because the accept continuation weights sum to one
    params, _, rd = small_setup()
    c = 2.0
    cm = CostModel(holding=0.0, running=np.full(4, c), penalty=np.zeros(4))
    v = np.full((2, 4), c / (1 - params.discount_beta))
    got = q_tables(ChainTables(params, cm, rd), 1.5, v, self_loop=False)[0, 1, Action.ACCEPT]
    assert got == pytest.approx(c / (1 - params.discount_beta), rel=1e-12)


def test_bellman_two_state_instance_matches_linear_solve():
    params, cm, rd = small_setup(levels=1)
    lam = 1.0
    sol = value_iteration(lam, ChainTables(params, cm, rd), tol=1e-10)
    oracle_v = recursion_policy_value(sol.policy, lam, params, cm, rd)
    assert np.abs(sol.v - oracle_v).max() < 1e-9


def test_value_iteration_zero_costs(canonical_params, canonical_resources):
    cm = CostModel(holding=0.0, running=np.zeros(21), penalty=np.zeros(21))
    sol = value_iteration(6.0, ChainTables(canonical_params, cm, canonical_resources), tol=1e-9)
    assert np.abs(sol.v).max() == 0.0


def test_value_iteration_nonconvergence_raises(canonical_chain):
    with pytest.raises(SolverError) as err:
        value_iteration(6.0, canonical_chain, tol=1e-12, max_iter=5)
    assert err.value.residual > 0


def test_structural_checks_pass_when_assumptions_hold():
    # increasing running cost and constant penalty satisfy the monotonicity
    # assumptions behind the structural results
    params = ModelParams(
        buffer_capacity=20, cpu_levels=20, cores=2, service_rate=3.0, discount_beta=0.95
    )
    running = np.concatenate([np.zeros(6), np.full(12, 0.2), np.full(3, 10.0)])
    cm = CostModel(holding=0.12, running=running, penalty=np.ones(21))
    sol = value_iteration(6.0, ChainTables(params, cm, ResourceDist(pmf=[0.6, 0.4])), tol=1e-9)
    assert check_value_monotone(sol.v).passed
    assert check_threshold_structure(sol.policy).passed


def test_canonical_instance_value_is_not_monotone(canonical_chain):
    # the published experiment tables violate the increasing-cost assumptions
    # (reward band, penalty drop), and the value function genuinely decreases
    # toward the reward band at low load; this anchors the measured behavior
    sol = value_iteration(6.0, canonical_chain, tol=1e-9)
    report = check_value_monotone(sol.v)
    assert not report.passed
    assert (0, 0) in report.violations
    thr = check_threshold_structure(sol.policy)
    assert thr.violation is not None


def test_residual_contract(canonical_chain):
    sol = value_iteration(6.0, canonical_chain, tol=1e-9)
    assert sol.residual <= 1e-9
    # fixed point: returned v equals the admissible min of the returned q
    q_min = sol.q.min(axis=2)
    q_min[20, :] = sol.q[20, :, 1]
    assert np.array_equal(sol.v, q_min)


def test_delta_q_monotone_where_penalty_constant(canonical_chain):
    # advantage of accepting decreases (equivalently, Q_acc - Q_off increases)
    # in load wherever the penalty table is flat, by the monotone-value
    # argument applied row-wise; verified on the converged tables over x < full
    sol = value_iteration(6.0, canonical_chain, tol=1e-9)
    dq = sol.q[:, :, 0] - sol.q[:, :, 1]
    mono = check_value_monotone(sol.v)
    # restrict to rows x where v(x+1, .) is monotone over the flat-penalty
    # region, the hypothesis the argument needs
    for x in range(20):
        row_ok = all(
            (xx, ll) not in mono.violations for xx in (min(x + 1, 20),) for ll in range(3, 20)
        )
        if row_ok:
            diffs = np.diff(dq[x, 3:])
            assert np.all(diffs >= -1e-9)


def test_delta_q_identity_at_fixed_point(
    canonical_params, canonical_costs, canonical_resources, canonical_chain
):
    # algebraic consequence of the two Q equations:
    # Q1 - Q0 = p(l) - beta * delta(x) * sum_r P(r) V(up)
    sol = value_iteration(6.0, canonical_chain, tol=1e-9)
    v, q = sol.v, sol.q
    worst = 0.0
    for x in range(21):
        d = delta(x, 6.0, canonical_params)
        for ell in range(21):
            up = sum(
                p * v[min(x + 1, 20), min(ell + r, 20)]
                for r, p in canonical_resources.support()
            )
            rhs = canonical_costs.penalty[ell] - 0.95 * d * up
            lhs = q[x, ell, 1] - q[x, ell, 0]
            worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10


def test_check_value_monotone_trivial_and_constructed():
    assert check_value_monotone(np.zeros((4, 5))).passed
    v = np.zeros((4, 5))
    v[2, 3] = 1.0  # creates a drop from (2,3) to (2,4)
    report = check_value_monotone(v)
    assert report.violations == [(2, 3)]


def test_check_threshold_structure_rows():
    policy = np.zeros((3, 5), dtype=int)
    report = check_threshold_structure(policy)
    assert report.passed
    assert report.tau.tolist() == [4, 4, 4]
    policy = np.ones((3, 5), dtype=int)
    report = check_threshold_structure(policy)
    assert report.passed
    assert report.all_reject.all()
    assert report.tau.tolist() == [0, 0, 0]
    policy = np.array([[0, 1, 0, 1, 1]])
    report = check_threshold_structure(policy)
    assert not report.passed
    assert report.violation == (0, 1)


@settings(max_examples=50, deadline=None)
@given(table_seed=st.integers(min_value=0, max_value=2**32 - 1), scale=st.floats(0.1, 100))
def test_bellman_operator_is_contraction(table_seed, scale, canonical_chain):
    gen = np.random.default_rng(table_seed)
    v = gen.uniform(-scale, scale, size=(21, 21))
    w = gen.uniform(-scale, scale, size=(21, 21))
    tv = admissible_min(q_tables(canonical_chain, 6.0, v, False))
    tw = admissible_min(q_tables(canonical_chain, 6.0, w, False))
    assert np.abs(tv - tw).max() <= 0.95 * np.abs(v - w).max() + 1e-12


def test_residuals_weakly_decreasing(canonical_chain):
    v = np.zeros((21, 21))
    residuals = []
    for _ in range(120):
        v_new = admissible_min(q_tables(canonical_chain, 6.0, v, False))
        residuals.append(np.abs(v_new - v).max())
        v = v_new
    assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("self_loop", [False, True])
def test_oracle_equivalence_small_instances(levels, self_loop):
    params, cm, rd = small_setup(levels=levels)
    lam = 1.3
    sol = value_iteration(lam, ChainTables(params, cm, rd), tol=1e-12, self_loop=self_loop)
    oracle_v, _ = enumerate_optimal(lam, params, cm, rd, self_loop=self_loop)
    assert np.abs(sol.v - oracle_v).max() <= 1e-8
    # and the extracted policy's exact value attains the optimum
    pol_v = recursion_policy_value(sol.policy, lam, params, cm, rd, self_loop=self_loop)
    assert np.abs(pol_v - oracle_v).max() <= 1e-8


def test_greedy_policy_tie_breaks_accept():
    q = np.zeros((3, 2, 2))
    params = ModelParams(buffer_capacity=2, cpu_levels=1)
    policy = policy_table(params, actions=q[..., 1] < q[..., 0])
    assert np.all(policy[:2] == Action.ACCEPT)
    assert np.all(policy[2] == Action.OFFLOAD)


def test_self_loop_variant_changes_offload_values(canonical_chain):
    base = value_iteration(6.0, canonical_chain, tol=1e-9)
    variant = value_iteration(
        6.0, canonical_chain, tol=1e-9, self_loop=True
    )
    assert not np.allclose(base.v, variant.v)
    assert variant.v[0, 0] > base.v[0, 0]
