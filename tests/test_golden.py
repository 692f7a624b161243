"""Golden digests: SHA-256 of the reprs of fixed-seed outputs.

Criterion 10 compares a rerun with itself, so a change that alters a random
stream or the order of floating-point operations passes it unnoticed.  These
digests pin the values themselves: a change that moves any of them by one
ulp breaks its digest.  Numbers are converted to Python ``float``/``int``
before ``repr``, so a digest depends on values and not on numpy scalar
types.
"""

import hashlib

import numpy as np
import pytest

from edgeadmit.dp import value_iteration
from edgeadmit.evaluate import (
    EvalConfig,
    EventTrace,
    behavioral_compare,
    evaluate,
    policy_table,
)
from edgeadmit.learners import QLearningConfig, qlearning_train
from edgeadmit.salmut import SalmutConfig, train
from edgeadmit.scenarios import Scenario, trajectory

# a falling threshold with fractional, integer, clipped-at-L and zero entries
TAU = np.clip(20.5 - 1.3 * np.arange(21), 0.0, 20.0)

EVALUATE_DIGESTS = {
    6.0: "33b1529c86c8e7872f98084b482405e8cf93fdd82a2c0bdcae8604fb2268a9a5",
    9.0: "b0feed3f69c450331e5a55b5e0c154b422c1139d4042e4e70007cfabccd91701",
}
COMPARE_DIGESTS = {
    1: "816e9b3beb5c838aa619bc99ff2694d99cb6a8a3f93075d9210894d57701fe57",
    6: "876a0b2f544daf15e4d4ccc3bf4a043afffa4593ebea23dbae8ad704243e9ed3",
}
TRAINER_DIGESTS = {
    ("qlearning", 1):
        "e6e48fdc30db4816e4d4394f170b699e52c4bc84e6ad1ca172345fca52373321",
    ("qlearning", 2):
        "1605b80acd969cf951cf00e484bc7c1a858b4d4074b732b51ce51f62a24e7bec",
    ("qlearning", 3):
        "30d3fd42d3e8d9a90dba7a9424326ceb59123fd8403f413bc8a7eb34d0b2d621",
    ("qlearning", 6):
        "915d9a9c92dfecbf3cc8c0f939f1e2773879fd7db889affcb958c2f85d8b5b63",
    ("salmut-adam", 1):
        "84de781aa24deb1b9455962042cc7f9d5ebeee27410c7d85ac601f2ffc73f230",
    ("salmut-adam", 2):
        "b794938cc6351c3e9f9ef87259a74864c27fcdf5d0711736a9404223a97caf40",
    ("salmut-adam", 3):
        "a26a17a17528d523dbbc0776e09101f981bb95687a2bb790b3311138820291e9",
    ("salmut-adam", 6):
        "d493dec30afa1fac7f8d3b56c0e41e371e32742b5d4b1b411f829383638ddc41",
    ("salmut-decay", 1):
        "54f5c78edb97331b1657f9ac7eeabed652f2cfee1d77ec1fdcefc41ba5dd52b0",
    ("salmut-decay", 2):
        "ef2e4634e83153ebc575baf30b84cbdbe085cd9e6f85e2c55ebb8b864081ac69",
    ("salmut-decay", 3):
        "7d5f3a97e2d389912c36b7ac3b4ba502133b9a906d44e751c439c15f6d121c18",
    ("salmut-decay", 6):
        "1bdab88c58ea20b611d2fe4ef594c1bf74cc08b1675e14a013d375127745db87",
}
TRAJECTORY_DIGEST = "2dd5756cbf1e4ef32b7dcd6270a3c10db7014b6a967b43345bce907fab42928e"


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def policies(lam, params, costs, resources) -> dict:
    """The four policy kinds: planner table, threshold vector, baseline, all-offload."""
    sol = value_iteration(lam, params, costs, resources, tol=1e-9)
    return {
        "dp": policy_table(params, actions=sol.policy),
        "threshold": policy_table(params, tau=TAU),
        "baseline": policy_table(params, accept_below=18),
        "all_offload": policy_table(params),
    }


@pytest.mark.parametrize("lam", sorted(EVALUATE_DIGESTS))
def test_evaluate_reports_golden(lam, canonical_params, canonical_costs, canonical_resources):
    cfg = EvalConfig(rollout_length=500, n_rollouts=16)
    rows = []
    for name, policy in policies(lam, canonical_params, canonical_costs,
                                 canonical_resources).items():
        rep = evaluate(policy, cfg, lam, canonical_params, canonical_costs,
                       canonical_resources, seed=7)
        rows.append((name, float(rep.mean), float(rep.q1), float(rep.median),
                     float(rep.q3), int(rep.n_rollouts)))
    assert digest(rows) == EVALUATE_DIGESTS[lam], rows


@pytest.mark.parametrize("kind", sorted(COMPARE_DIGESTS))
def test_behavioral_compare_windows_golden(
    kind, canonical_params, canonical_costs, canonical_resources
):
    series = behavioral_compare(
        policies(6.0, canonical_params, canonical_costs, canonical_resources),
        Scenario(kind=kind), canonical_params, canonical_costs, canonical_resources,
        EventTrace.generate(11, 20_000), window=1000, overload_level=18,
    )
    rows = [
        (name, int(w.index), float(w.cost_discounted), float(w.cost_undiscounted),
         int(w.c_ov), int(w.c_off))
        for name, ws in series.items()
        for w in ws
    ]
    assert digest(rows) == COMPARE_DIGESTS[kind]


def test_trajectory_rows_golden():
    rows = [
        (kind, int(step), float(lam), int(n))
        for kind in range(1, 7)
        for step, lam, n in trajectory(Scenario(kind=kind), 20_000, seed=3)
    ]
    assert digest(rows) == TRAJECTORY_DIGEST


def _hook(step, lam, snapshot):
    """Stats that depend on every argument, so the digest covers the hook's inputs."""
    return {"mean": float(snapshot.sum()), "q1": float(lam), "median": float(step),
            "q3": float(snapshot.max())}


def _log_rows(log) -> list:
    return [
        (int(r.step), r.policy_hash, float(r.eval_mean), float(r.eval_q1),
         float(r.eval_median), float(r.eval_q3), float(r.grad_abs_window),
         float(r.grad_step_window))
        for r in log
    ]


@pytest.mark.parametrize("learner,kind", sorted(TRAINER_DIGESTS))
def test_trainer_outputs_golden(
    learner, kind, canonical_params, canonical_costs, canonical_resources
):
    args = (Scenario(kind=kind), canonical_params, canonical_costs, canonical_resources)
    if learner == "qlearning":
        res = qlearning_train(*args, QLearningConfig(horizon=20_000, eval_every=2500),
                              seed=5, eval_hook=_hook)
        out = (res.q.tolist(), res.policy.tolist(), _log_rows(res.log),
               res.tenth_td_abs.tolist(), res.tenth_step_abs.tolist(), int(res.arrivals))
    else:
        mode = learner.split("-")[1]
        res = train(*args, SalmutConfig(horizon=20_000, eval_every=2500, mode=mode),
                    seed=5, eval_hook=_hook)
        out = (res.tau.tolist(), res.q.tolist(), _log_rows(res.log),
               res.tenth_grad_abs.tolist(), res.tenth_step_abs.tolist(), int(res.arrivals))
    assert digest(out) == TRAINER_DIGESTS[learner, kind]
