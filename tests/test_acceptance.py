"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

One assertion is expected to fail: criterion 9's offload-ordering clause
(the learned policy should offload at least as often as the baseline on
shared traces).  The baseline and the planner policy reach an absorbing
corner ``(0, ell)`` (an empty queue admits no departures, and they offload
there), after which they offload once per step; the learned policy never
does.  The test measures the entry step and the offload counts before it.
In scenario 1 those counts already break the ordering, so the documentation
does not settle whether the claim or the chain is at fault (details on the
test).

Criteria 1 and 2 check the two structural results (value monotone in load,
threshold-in-load policy) where they apply: on a seeded family of cost
tables that meet the hypotheses documented on ``CostModel``.  The canonical
experiment tables break those hypotheses, and the value and policy solved on
them genuinely break both results; ``test_dp.py`` pins that.

The learning criteria (7 and 8) compare against the planner policy's
evaluated mean discounted cost from the start state, measured with the same
rollout protocol as the learned policies.  The planner recursion's raw
fixed-point scalar is not comparable: its offload branch sheds probability
mass, which deflates the optimal value below the cost any policy can realize
on the simulated chain (1.06 vs a simulated floor of 2.21 on the canonical
instance).
"""

import itertools
import time

import numpy as np
import pytest

from edgeadmit.config import default_penalty_table, default_running_table
from edgeadmit.dp import (
    check_threshold_structure,
    check_value_monotone,
    value_iteration,
)
from edgeadmit.evaluate import (
    EvalConfig,
    EventTrace,
    behavioral_compare,
    evaluate,
)
from edgeadmit.learners import BaselinePolicy, QLearningConfig, qlearning_train
from edgeadmit.model import (
    Action,
    ChainTables,
    CostModel,
    ModelParams,
    ResourceDist,
    policy_table,
)
from edgeadmit.rng import substream
from edgeadmit.salmut import SalmutConfig, train
from edgeadmit.scenarios import Scenario

from oracles import (
    State, accept_probability, enumerate_optimal, f_gradient, recursion_policy_value,
    relative_gap, resource_indices, trace_draws, transition_pmf,
)

LAM = 6.0
SEEDS = tuple(range(10))
EVAL = EvalConfig(rollout_length=1000, n_rollouts=300, window=1000, overload_level=18)
BASELINE = BaselinePolicy(18)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def solution(canonical_chain):
    return value_iteration(LAM, canonical_chain, tol=1e-9)


@pytest.fixture(scope="module")
def dp_target(solution, canonical_params, canonical_chain):
    """Planner policy's evaluated mean discounted cost from the start state."""
    rep = evaluate(
        policy_table(canonical_params, actions=solution.policy), EVAL, LAM, canonical_chain,
        seed=90_000,
    )
    return rep.mean


# aggregate arrival rates with every user at the low tier (scenario 1) and at
# the high tier (scenario 2's middle phase)
STRUCTURE_LAMS = (6.0, 9.0)
STRUCTURE_SEEDS = tuple(range(24))


def increasing_cost_tables(seed: int) -> CostModel:
    """Seeded tables meeting the monotone-value hypotheses (checked by ``strict``).

    Running cost rises by non-negative steps with one overload knee.  Even
    seeds let the penalty fall by at most the running-cost step, so
    ``running + penalty`` still rises and the threshold hypothesis holds too;
    odd seeds let the penalty rise, which only the value result tolerates.
    """
    gen = np.random.default_rng(seed)
    steps = gen.uniform(0.0, 0.3, size=20)
    steps[gen.integers(10, 20) - 1] += gen.uniform(2.0, 10.0)
    running = np.concatenate([[0.0], np.cumsum(steps)]) - gen.uniform(0.0, 1.0)
    if seed % 2 == 0:
        moves = -gen.uniform(0.0, 1.0, size=20) * steps
    else:
        moves = gen.uniform(0.0, 0.3, size=20)
    penalty = gen.uniform(1.0, 10.0) + np.concatenate([[0.0], np.cumsum(moves)])
    penalty -= min(penalty.min(), 0.0)
    return CostModel(
        holding=float(gen.uniform(0.0, 0.5)), running=running, penalty=penalty, strict=True
    )


@pytest.fixture(scope="module")
def structure_solutions(canonical_params, canonical_resources):
    """(lam, seed, cost model, solution) over the increasing-cost family."""
    solutions = []
    for seed in STRUCTURE_SEEDS:
        cm = increasing_cost_tables(seed)
        for lam in STRUCTURE_LAMS:
            sol = value_iteration(lam, ChainTables(canonical_params, cm, canonical_resources),
                                  tol=1e-9)
            solutions.append((lam, seed, cm, sol))
    return solutions


def test_criterion_1_value_monotone(solution, structure_solutions):
    # the canonical tables are outside the result's hypotheses; the canonical
    # solve must still converge
    with pytest.raises(ValueError) as rejected:
        CostModel(
            holding=0.12, running=default_running_table(), penalty=default_penalty_table(),
            strict=True,
        )
    assert "running cost is not weakly increasing" in str(rejected.value)
    assert "running + penalty is not weakly increasing" in str(rejected.value)
    assert solution.residual <= 1e-9

    failures = []
    for lam, seed, _, sol in structure_solutions:
        mono = check_value_monotone(sol.v)
        if sol.residual > 1e-9 or not mono.passed:
            failures.append(
                (lam, seed, f"residual={sol.residual:.2e}", mono.violations[:3])
            )
    passed = not failures
    report(
        1,
        passed,
        f"canonical residual={solution.residual:.2e}; "
        f"{len(structure_solutions)} increasing-cost solves, "
        f"{len(failures)} unconverged or non-monotone",
    )
    assert passed, f"(lam, seed, residual, first violations): {failures[:5]}"


def test_criterion_1_runtime(canonical_chain):
    t0 = time.monotonic()
    sol = value_iteration(LAM, canonical_chain, tol=1e-9)
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE 1 (runtime): solve took {elapsed:.2f}s (< 5s)")
    assert sol.residual <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_threshold_structure(solution, structure_solutions):
    t0 = time.monotonic()
    thr = check_threshold_structure(solution.policy)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    assert len(thr.tau) == 21 and len(thr.all_reject) == 21

    falling = [entry for entry in structure_solutions if entry[1] % 2 == 0]  # even seeds
    failures = []
    interior_rows = {lam: 0 for lam in STRUCTURE_LAMS}
    for lam, seed, cm, sol in falling:
        assert np.all(np.diff(cm.penalty) <= 0), seed
        shape = check_threshold_structure(sol.policy)
        if not shape.passed:
            failures.append((lam, seed, shape.violation))
        rows = sol.policy[:-1]
        interior_rows[lam] += int(
            np.sum((rows == Action.ACCEPT).any(axis=1) & (rows == Action.OFFLOAD).any(axis=1))
        )
    passed = not failures and all(interior_rows.values())
    report(
        2,
        passed and elapsed < 1.0,
        f"canonical threshold vector emitted (len {len(thr.tau)}) in {elapsed:.3f}s; "
        f"{len(falling)} solves with falling penalty, {len(failures)} violations, "
        f"interior-threshold rows per lam {interior_rows}",
    )
    assert not failures, f"(lam, seed, first offload->accept flip): {failures[:5]}"
    assert all(interior_rows.values()), interior_rows


def test_criterion_3_oracle_equivalence():
    worst = 0.0
    checked = 0
    for levels, lam_scale in itertools.product((1, 2, 3), (0.4, 1.0, 2.0)):
        params = ModelParams(
            buffer_capacity=1, cpu_levels=levels, cores=1, service_rate=2.0,
            discount_beta=0.9,
        )
        gen = np.random.default_rng(1000 + levels)
        cm = CostModel(
            holding=float(gen.uniform(0, 1)),
            running=np.sort(gen.uniform(0, 3, size=levels + 1)),
            penalty=gen.uniform(0.5, 2.0, size=levels + 1),
        )
        raw = gen.uniform(0.2, 1.0, size=min(levels, 2))
        rd = ResourceDist(pmf=raw / raw.sum())
        lam = lam_scale * params.service_rate
        sol = value_iteration(lam, ChainTables(params, cm, rd), tol=1e-12)
        oracle_v, _ = enumerate_optimal(lam, params, cm, rd)
        gap = float(np.abs(sol.v - oracle_v).max())
        pol_gap = float(
            np.abs(
                recursion_policy_value(sol.policy, lam, params, cm, rd) - oracle_v
            ).max()
        )
        worst = max(worst, gap, pol_gap)
        checked += 1
    passed = worst <= 1e-8
    report(3, passed, f"{checked} instances enumerated, worst value gap {worst:.2e}")
    assert passed


def test_criterion_4_advantage_identity(solution, canonical_costs, canonical_resources):
    v, q = solution.v, solution.q
    worst = 0.0
    for x in range(21):
        busy = min(x, 2) * 3.0
        d = LAM / (LAM + busy)
        for ell in range(21):
            up = sum(
                p * v[min(x + 1, 20), min(ell + r, 20)]
                for r, p in canonical_resources.support()
            )
            rhs = canonical_costs.penalty[ell] - 0.95 * d * up
            worst = max(worst, abs(q[x, ell, 1] - q[x, ell, 0] - rhs))
    passed = worst <= 1e-10
    report(4, passed, f"max identity error {worst:.2e} over the full grid")
    assert passed


def test_criterion_5_gradient_correctness():
    h = 1e-5
    worst = 0.0
    for temperature in (0.2, 1.0, 5.0):
        for gap in np.arange(-8.0, 8.0 + 1e-9, 0.25):
            tau = np.full(21, 10.0 + gap)
            state = State(4, 10)
            up, down = tau.copy(), tau.copy()
            up[4] += h
            down[4] -= h
            fd = (
                accept_probability(up, state, temperature)
                - accept_probability(down, state, temperature)
            ) / (2 * h)
            worst = max(worst, abs(f_gradient(tau, state, temperature) - fd))
    # extreme-argument safety: |tau - ell| / T = 1e4 on both sides
    extremes = []
    for shift in (1e4, -1e4):
        f = accept_probability(np.full(21, 10.0 + shift), State(4, 10), 1.0)
        g = f_gradient(np.full(21, 10.0 + shift), State(4, 10), 1.0)
        extremes.extend([f, g])
    finite = all(np.isfinite(extremes))
    passed = worst <= 1e-6 and finite
    report(5, passed, f"max FD error {worst:.2e}; extreme args finite: {finite}")
    assert passed


def test_criterion_6_simulator_fidelity(canonical_params, canonical_resources, canonical_chain):
    gen = np.random.default_rng(606)
    pairs = []
    while len(pairs) < 5:
        cand = (
            State(int(gen.integers(0, 21)), int(gen.integers(0, 21))),
            Action(int(gen.integers(0, 2))),
        )
        if cand not in pairs:
            pairs.append(cand)
    # accepts where the load clamps at L, at a full buffer too: the random
    # pairs above never reach that boundary
    pairs += [(State(3, 19), Action.ACCEPT), (State(20, 19), Action.ACCEPT)]
    n = 100_000
    worst_z = 0.0
    # the one step the trainers, rollouts and the shared-trace comparison run
    step = canonical_chain.step
    for i, (state, action) in enumerate(pairs):
        rng = substream(700 + i, "fidelity")
        resource_j = resource_indices(canonical_chain, rng.random)
        counts: dict[State, int] = {}
        for _ in range(n):
            nx, nl, _, _ = step(
                state.x, state.ell, LAM, lambda *_: action, 0, rng.random, resource_j
            )
            nxt = State(nx, nl)
            counts[nxt] = counts.get(nxt, 0) + 1
        pmf = transition_pmf(state, action, LAM, canonical_params, canonical_resources)
        assert set(counts) <= set(pmf)
        for s, p in pmf.items():
            sigma = max((n * p * (1 - p)) ** 0.5, 1e-9)
            z = abs(counts.get(s, 0) - n * p) / sigma
            worst_z = max(worst_z, z)
    passed = worst_z <= 3.0
    report(6, passed, f"{len(pairs)} state-action pairs x {n} draws, worst |z| = {worst_z:.2f}")
    assert passed


def test_criterion_7_salmut_desk_scale(segments, dp_target, canonical_params, canonical_chain):
    t0 = time.monotonic()
    scenario = Scenario(kind=1)
    cfg = SalmutConfig(horizon=200_000, eval_every=200_000)
    gaps = []
    for seed in SEEDS:
        args = (segments(scenario, 200_000, seed), canonical_chain)
        result = train(*args, cfg, seed)
        rep = evaluate(
            policy_table(canonical_params, tau=result.tau), EVAL, LAM, canonical_chain,
            seed=91_000 + seed,
        )
        gaps.append(relative_gap(rep.mean, dp_target))
    within = sum(g <= 0.15 for g in gaps)

    # convergence diagnostic in the decaying-rate regime: the realized
    # threshold movement per window must die out between the first and last
    # tenth of training, the first and last of ten log windows (the
    # adaptive-moment mode intentionally does not anneal, so the check is
    # specific to the decaying schedules)
    dcfg = SalmutConfig(horizon=200_000, eval_every=20_000, mode="decay")
    shrinks = []
    for seed in SEEDS:
        args = (segments(scenario, 200_000, seed), canonical_chain)
        log = train(*args, dcfg, seed).log
        shrinks.append(log[0].grad_step_window / max(log[-1].grad_step_window, 1e-300))
    min_shrink = min(shrinks)
    elapsed = time.monotonic() - t0
    passed = within >= 8 and min_shrink >= 5.0 and elapsed < 120.0
    report(
        7,
        passed,
        f"{within}/10 seeds within 15% of the evaluated planner cost "
        f"({dp_target:.3f}); min gradient-step shrink {min_shrink:.1f}x; "
        f"{elapsed:.0f}s",
    )
    assert within >= 8, f"gaps: {[f'{g:.0%}' for g in gaps]}"
    assert min_shrink >= 5.0, f"shrinks: {[f'{s:.1f}' for s in shrinks]}"
    assert elapsed < 120.0


def test_criterion_8_qlearning_desk_scale(segments, dp_target, canonical_params, canonical_chain):
    scenario = Scenario(kind=1)
    cfg = QLearningConfig(horizon=500_000, eval_every=500_000)
    gaps = []
    for seed in SEEDS:
        result = qlearning_train(
            segments(scenario, 500_000, seed), canonical_chain, cfg, seed,
        )
        rep = evaluate(
            policy_table(canonical_params, actions=result.policy), EVAL, LAM, canonical_chain,
            seed=92_000 + seed,
        )
        gaps.append(relative_gap(rep.mean, dp_target))
    within = sum(g <= 0.20 for g in gaps)
    passed = within >= 7
    report(
        8,
        passed,
        f"{within}/10 seeds within 20% of the evaluated planner cost "
        f"({dp_target:.3f})",
    )
    assert passed, f"gaps: {[f'{g:.0%}' for g in gaps]}"


@pytest.fixture(scope="module")
def behavioral_runs(segments, solution, canonical_params, canonical_chain):
    """Per scenario: the scenario, the three compared policies, their trace and series,
    and the learned threshold vector."""
    runs = {}
    for kind in (1, 2):
        scenario = Scenario(kind=kind)
        trained = train(
            segments(scenario, 200_000, 0), canonical_chain,
            SalmutConfig(horizon=200_000, eval_every=200_000), seed=0,
        )
        policies = {
            "dp": policy_table(canonical_params, actions=solution.policy),
            "salmut": policy_table(canonical_params, tau=trained.tau),
            "baseline": policy_table(canonical_params, accept_below=BASELINE.accept_below),
        }
        trace = EventTrace.generate(8000 + kind, 60_000)
        series = behavioral_compare(policies, scenario, canonical_chain, trace, EVAL)
        runs[kind] = (scenario, policies, trace, series, trained.tau)
    return runs


@pytest.fixture(scope="module")
def behavioral_totals(behavioral_runs):
    return {
        kind: {
            name: (sum(w.c_ov for w in ps.windows), sum(w.c_off for w in ps.windows))
            for name, ps in series.items()
        }
        for kind, (_, _, _, series, _) in behavioral_runs.items()
    }


def test_criterion_9_overload_dominance(behavioral_totals):
    ok = all(
        t["dp"][0] < t["baseline"][0] and t["salmut"][0] < t["baseline"][0]
        for t in behavioral_totals.values()
    )
    detail = "; ".join(
        f"S{kind}: C_ov dp/salmut/base = {t['dp'][0]}/{t['salmut'][0]}/{t['baseline'][0]}"
        for kind, t in behavioral_totals.items()
    )
    report(9, ok, "overload clause: " + detail)
    for kind, t in behavioral_totals.items():
        assert t["dp"][0] < t["baseline"][0], (kind, t)
        assert t["salmut"][0] < t["baseline"][0], (kind, t)


def _replay_until_trapped(policy, scenario, trace, chain):
    """Replay ``behavioral_compare``'s trajectory for one policy with ``chain.step``.

    Returns the first step at which the policy sits at ``x = 0`` in a state it
    offloads from (None if it never does) and its per-step offload flags up
    to that step.  Such a state is absorbing while the arrival rate is
    positive: ``delta(0) = 1``, so every event is an offloaded arrival.
    """
    x, ell = 0, 0
    offloads = []
    # step t reads the trace's t-th event and resource draws
    for t, (lam, event_u, resource_j) in enumerate(trace_draws(scenario, trace, chain)):
        action = (
            Action.OFFLOAD if x == chain.params.buffer_capacity else Action(int(policy[x, ell]))
        )
        if x == 0 and action == Action.OFFLOAD:
            return t, offloads
        x, ell, a, _ = chain.step(x, ell, lam, lambda *_: action, t, event_u, resource_j)
        offloads.append(a == Action.OFFLOAD)
    return None, offloads


@pytest.fixture(scope="module")
def trap_replays(behavioral_runs, canonical_chain):
    """Per scenario and policy: ``_replay_until_trapped``'s trap step and offload flags."""
    return {
        kind: {
            name: _replay_until_trapped(policy, scenario, trace, canonical_chain)
            for name, policy in policies.items()
        }
        for kind, (scenario, policies, trace, _, _) in behavioral_runs.items()
    }


def test_compare_trap_step_matches_replay(behavioral_runs, trap_replays):
    # the step compare writes as trap_step, where its fast-forward starts, is
    # the first step a plain replay starts at x = 0 in an offload state
    for kind, (_, _, _, series, _) in behavioral_runs.items():
        for name, ps in series.items():
            assert ps.trap_step == trap_replays[kind][name][0], (kind, name)


def test_criterion_9_offload_ordering(behavioral_runs, behavioral_totals, trap_replays):
    """The learned policy should offload at least as often as the baseline.

    The failure message carries the measured evidence.  The baseline and the
    planner policy both come to sit at ``x = 0`` in a state they offload from
    (S1: both at step 536; S2: 2228 and 2208).  That corner is absorbing
    (``delta(0) = 1``, so no departure can occur) and from then on they
    offload once per step, the most any policy can.  SALMUT never enters its
    corner: its learned rows ``x <= 5`` accept up to ``ell = 19`` or 20,
    where the baseline offloads from 18.  Absorption is not the whole
    story: over S1's shared prefix, before anything is absorbed, the learned
    policy already offloads less than the baseline (first 536 steps: 63 vs
    70), while over S2's it offloads more (first 2208 steps: 164 vs 86).
    The documentation leaves open whether the claim or the chain is at
    fault, so the assertion stays as stated.
    """
    ok = all(
        t["salmut"][1] >= t["baseline"][1] for t in behavioral_totals.values()
    )
    details = {}
    for kind, (_, policies, trace, _, tau) in behavioral_runs.items():
        horizon = len(trace.z)
        trapped, offloads = {}, {}
        for name in policies:
            trapped[name], offloads[name] = trap_replays[kind][name]
            # the replay must reproduce the compared trajectory's offload total
            replayed = sum(offloads[name]) + (
                horizon - trapped[name] if trapped[name] is not None else 0
            )
            assert replayed == behavioral_totals[kind][name][1], (kind, name, replayed)
        prefix = min((s for s in trapped.values() if s is not None), default=horizon)
        cuts = np.floor(tau[:6]).astype(int).tolist()
        totals = behavioral_totals[kind]
        details[kind] = (
            f"S{kind}: C_off salmut/base = {totals['salmut'][1]}/{totals['baseline'][1]}; "
            "first step at x = 0 in an offload state "
            + ", ".join(f"{n} {'never' if s is None else s}" for n, s in trapped.items())
            + f"; offloads over steps < {prefix} "
            + ", ".join(f"{n} {sum(f[:prefix])}" for n, f in offloads.items())
            + f"; salmut accepts up to ell = {cuts} at x = 0..5, the baseline up to "
            f"{BASELINE.accept_below - 1}"
        )
    report(9, ok, "offload clause: " + " | ".join(details.values()))
    for kind, t in behavioral_totals.items():
        assert t["salmut"][1] >= t["baseline"][1], details[kind]


def test_criterion_10_determinism(tmp_path):
    import json

    from click.testing import CliRunner

    from edgeadmit.cli import main

    cfg = {
        "learner": {"horizon": 3000, "eval_every": 1000},
        "eval": {"rollout_length": 100, "n_rollouts": 5, "window": 100},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "runs"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    runner = CliRunner()
    commands = [
        ["solve", "--config", str(cfg_path)],
        ["train", "--config", str(cfg_path), "--learner", "salmut"],
        ["train", "--config", str(cfg_path), "--learner", "qlearning"],
        ["compare", "--config", str(cfg_path), "--trace-length", "2000"],
    ]
    snapshots = {}
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
    root = tmp_path / "runs"
    for path in sorted(root.rglob("*")):
        if path.is_file():
            snapshots[path] = path.read_bytes()
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0
    mismatched = [
        str(p) for p, data in snapshots.items() if p.read_bytes() != data
    ]
    passed = not mismatched
    report(
        10,
        passed,
        f"{len(snapshots)} files byte-compared across reruns"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
    assert passed
