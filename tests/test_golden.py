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
        "d1c6995adedde6419c3de87c23087c238f6dc5a0281c9f6f0a9a105431267835",
    ("qlearning", 2):
        "e30eea0e014b8b391b0b9c0c6dddc4b7e182d0b6b3d93e12b824c185a0129c24",
    ("qlearning", 3):
        "4c00174352385ed9f0604aed3b8998beee5f4e84fc876a04ee756a0337d43cd1",
    ("qlearning", 6):
        "5ff5407cc6f5314e5c7f292c07163e83a754877be7843394b2f219aab6d8e976",
    ("salmut-adam", 1):
        "f5db51f2d790ebc237843c40e265891e4ce942c5e4d667d73f0426ec4bfe9b98",
    ("salmut-adam", 2):
        "01e84ec879fb0163964b8503f4add939d93d74a077bb3c7458345f114ab0047f",
    ("salmut-adam", 3):
        "6851075dfdb96af242433292debb3d01d38396c861bded18bd229aa20f5b732f",
    ("salmut-adam", 6):
        "440e5e588af088675ce9ff3a3f4043207ece6f33273808f176d96aee0a712291",
    ("salmut-decay", 1):
        "bb57f2e5d555a2cf7199af0ac81980fd712b5649892b51333a68b34984acc756",
    ("salmut-decay", 2):
        "bc5f4c9a1a1c5c7eae6ab5996348993d3588f733bff8ee127d1a1540320ed17e",
    ("salmut-decay", 3):
        "f8380fc067d478fa8e2c5849100b131f321dd39e696d278a65ac40301179eef2",
    ("salmut-decay", 6):
        "3bfdbd59c3550d3a9205de9944faffb936a779a0cabc41af1a2bf305ad59300a",
}
TRAJECTORY_DIGEST = "2dd5756cbf1e4ef32b7dcd6270a3c10db7014b6a967b43345bce907fab42928e"


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def policies(lam, chain) -> dict:
    """The four policy kinds: planner table, threshold vector, baseline, all-offload."""
    params = chain.params
    sol = value_iteration(lam, chain, tol=1e-9)
    return {
        "dp": policy_table(params, actions=sol.policy),
        "threshold": policy_table(params, tau=TAU),
        "baseline": policy_table(params, accept_below=18),
        "all_offload": policy_table(params, accept_below=0),
    }


@pytest.mark.parametrize("lam", sorted(EVALUATE_DIGESTS))
def test_evaluate_reports_golden(lam, canonical_chain):
    cfg = EvalConfig(rollout_length=500, n_rollouts=16)
    rows = []
    for name, policy in policies(lam, canonical_chain).items():
        rep = evaluate(policy, cfg, lam, canonical_chain, seed=7)
        rows.append((name, float(rep.mean), float(rep.q1), float(rep.median),
                     float(rep.q3), int(rep.n_rollouts)))
    assert digest(rows) == EVALUATE_DIGESTS[lam], rows


@pytest.mark.parametrize("kind", sorted(COMPARE_DIGESTS))
def test_behavioral_compare_windows_golden(kind, canonical_chain):
    series = behavioral_compare(
        policies(6.0, canonical_chain),
        Scenario(kind=kind), canonical_chain,
        EventTrace.generate(11, 20_000), window=1000, overload_level=18,
    )
    rows = [
        (name, int(w.index), float(w.cost_discounted), float(w.cost_undiscounted),
         int(w.c_ov), int(w.c_off))
        for name, ps in series.items()
        for w in ps.windows
    ]
    assert digest(rows) == COMPARE_DIGESTS[kind]


def test_trajectory_rows_golden():
    rows = [
        (kind, int(step), float(lam), int(n))
        for kind in range(1, 7)
        for step, lam, n in trajectory(Scenario(kind=kind), 20_000, seed=3)
    ]
    assert digest(rows) == TRAJECTORY_DIGEST


def _log_rows(log) -> list:
    return [
        (int(r.step), r.policy_hash, r.eval_mean, r.eval_q1, r.eval_median, r.eval_q3,
         float(r.grad_abs_window), float(r.grad_step_window))
        for r in log
    ]


def _eval_points(evals) -> list:
    return [(float(lam), str(table.dtype), table.tolist()) for lam, table in evals]


@pytest.mark.parametrize("learner,kind", sorted(TRAINER_DIGESTS))
def test_trainer_outputs_golden(learner, kind, canonical_chain, segments):
    args = (segments(Scenario(kind=kind), 20_000, 5), canonical_chain)
    if learner == "qlearning":
        res = qlearning_train(*args, QLearningConfig(horizon=20_000, eval_every=2500),
                              seed=5)
        out = (res.q.tolist(), res.policy.tolist(), _log_rows(res.log), _eval_points(res.evals),
               res.tenth_td_abs.tolist(), res.tenth_step_abs.tolist(), int(res.arrivals))
    else:
        mode = learner.split("-")[1]
        res = train(*args, SalmutConfig(horizon=20_000, eval_every=2500, mode=mode), seed=5)
        out = (res.tau.tolist(), res.q.tolist(), _log_rows(res.log), _eval_points(res.evals),
               res.tenth_grad_abs.tolist(), res.tenth_step_abs.tolist(), int(res.arrivals))
    assert digest(out) == TRAINER_DIGESTS[learner, kind]
