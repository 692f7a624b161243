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
)
from edgeadmit.learners import QLearningConfig, qlearning_train
from edgeadmit.model import policy_table
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
        "3e273477823c7c4a24fd49af93094b1f8b0d533894550ec88b970ff2bd1a54a5",
    ("qlearning", 2):
        "b0a06eb5a0ff8c8755aa50fa0bd4570261686b8dc785bebef0ecb2882ee3cc19",
    ("qlearning", 3):
        "b029146377ceeb20caeeada414f30235a5ec13da48f93a3373531aa3dc7efdcd",
    ("qlearning", 6):
        "b7f675e7de9cd798770125eb748643c773def668e81a0fa4ab118372ae9b687a",
    ("salmut-adam", 1):
        "ffc1357189ee2e56ba005564839e7a01ce1453a6f373061c254a7c5b4a171a93",
    ("salmut-adam", 2):
        "2e338e7dbba31b69bd1fe0a1a40b99b7959b938dacc4b87d261a24ad5deebc45",
    ("salmut-adam", 3):
        "c23cf7c1cbdd153abd989e4d0555259bf73e5e54dc1e21cda718276f6a4b8d64",
    ("salmut-adam", 6):
        "00d6d4924d0034dbbf6ace350a918f14735289b6cb40c33eb55879d0de5e0cca",
    ("salmut-decay", 1):
        "1c1368cb5f916f274fa6cefb7ca98efb8a91ce9f945ac6682589f9393aed118e",
    ("salmut-decay", 2):
        "b16b77dcabc37cac76d6bbf19517abfe75d2ad8206a2af3d4265bf28b8e324b0",
    ("salmut-decay", 3):
        "d4b1943771c0ee1c300e5a0e8305f70c4ba9e51d92384d9d39a3c1227bc80e81",
    ("salmut-decay", 6):
        "caed46f271d57b706a5a80bd1a6c5bada58415f1f2e22b1cf39e17ae7900edc3",
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
        EventTrace.generate(11, 20_000), EvalConfig(window=1000, overload_level=18),
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
               int(res.arrivals))
    else:
        mode = learner.split("-")[1]
        res = train(*args, SalmutConfig(horizon=20_000, eval_every=2500, mode=mode), seed=5)
        out = (res.tau.tolist(), res.q.tolist(), _log_rows(res.log), _eval_points(res.evals),
               int(res.arrivals))
    assert digest(out) == TRAINER_DIGESTS[learner, kind]
