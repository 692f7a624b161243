"""Exact planning: value iteration, policy extraction, structural checks.

The Bellman sweep, ``q_tables`` then ``admissible_min``, reads the command's
one ``model.ChainTables``.  It follows the published recursion literally: the
offload branch carries continuation weight ``beta * (1 - delta(x))`` only —
the arrival-probability share of the future is dropped, not self-looped.  A
``self_loop`` flag adds the missing ``beta * delta(x) * V(x, ell)`` term for
sensitivity analysis.

Accepting is physically impossible at a full buffer, so the minimization at
``x = X`` is over the offload action alone; Q-values are still reported for
both actions everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Action, ChainTables, Event, policy_table


class SolverError(RuntimeError):
    """Value iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual

    def __reduce__(self):
        return type(self), (str(self), self.residual)


@dataclass(frozen=True)
class Solution:
    v: np.ndarray          # (X+1, L+1)
    q: np.ndarray          # (X+1, L+1, 2)
    policy: np.ndarray     # (X+1, L+1) of {0, 1}
    iterations: int
    residual: float        # sup-norm bound on distance to the fixed point
    tol: float
    lam: float
    self_loop: bool


@dataclass(frozen=True)
class MonotoneReport:
    violations: list[tuple[int, int]]  # (x, ell) with v[x, ell+1] < v[x, ell] - tol

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ThresholdReport:
    tau: np.ndarray         # per-x largest accepted load level (0 when all_reject)
    all_reject: np.ndarray  # per-x flag: row never accepts
    violation: tuple[int, int] | None  # first (x, ell) with offload->accept flip

    @property
    def passed(self) -> bool:
        return self.violation is None


def q_tables(chain: ChainTables, lam: float, v: np.ndarray, self_loop: bool) -> np.ndarray:
    """One Bellman sweep from the value ``v``: Q-values by ``(x, ell, action)``.

    The expectations over the resource size gather from the flat ``v``
    along ``chain.succ``; a departure costs what an accepted arrival does.
    """
    beta = chain.params.discount_beta
    v = v.ravel()
    ev_up = np.zeros_like(v)
    ev_dn = np.zeros_like(v)
    for r, p in chain.rd.support():
        ev_up += p * v[chain.succ[:, Event.ACCEPTED, r - 1]]
        ev_dn += p * v[chain.succ[:, Event.DEPARTURE, r - 1]]
    d = chain.arrival_p(lam)
    q = np.empty(v.shape + (2,))
    q[:, 0] = chain.cost[:, Event.ACCEPTED] + beta * (d * ev_up + (1.0 - d) * ev_dn)
    q[:, 1] = chain.cost[:, Event.OFFLOADED] + beta * (1.0 - d) * ev_dn
    if self_loop:
        q[:, 1] += beta * d * v
    return q.reshape(chain.params.buffer_capacity + 1, chain.params.cpu_levels + 1, 2)


def admissible_min(q: np.ndarray) -> np.ndarray:
    """The value of Q-values ``q``: the smaller action, offload only at the full buffer."""
    v = q.min(axis=2)
    v[-1, :] = q[-1, :, 1]
    return v


def value_iteration(
    lam: float,
    chain: ChainTables,
    tol: float = 1e-9,
    max_iter: int = 100_000,
    self_loop: bool = False,
) -> Solution:
    """Iterate the Bellman operator from zero until the tail bound meets tol.

    The stopping threshold is ``tol * (1 - beta) / (2 * beta)`` on successive
    sup-norm differences, which bounds the sup-norm distance to the fixed
    point by ``tol / 2``.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    X = chain.params.buffer_capacity
    beta = chain.params.discount_beta
    thresh = tol * (1.0 - beta) / (2.0 * beta)
    v = np.zeros((X + 1, chain.params.cpu_levels + 1))
    update = np.inf
    for it in range(1, max_iter + 1):
        v_new = admissible_min(q_tables(chain, lam, v, self_loop))
        update = float(np.abs(v_new - v).max())
        v = v_new
        if update <= thresh:
            q = q_tables(chain, lam, v, self_loop)
            v_final = admissible_min(q)
            residual = beta / (1.0 - beta) * float(np.abs(v_final - v).max())
            return Solution(
                v=v_final,
                q=q,
                policy=policy_table(chain.params, actions=q[..., 1] < q[..., 0]),
                iterations=it,
                residual=residual,
                tol=tol,
                lam=lam,
                self_loop=self_loop,
            )
    raise SolverError(
        f"no convergence in {max_iter} iterations (last update {update!r})", update
    )


def check_value_monotone(v: np.ndarray, tol: float = 1e-9) -> MonotoneReport:
    """All (x, ell) where the value strictly decreases along the load axis."""
    drop = v[:, 1:] < v[:, :-1] - tol
    xs, ls = np.nonzero(drop)
    return MonotoneReport(violations=[(int(x), int(l)) for x, l in zip(xs, ls)])


def check_threshold_structure(policy: np.ndarray) -> ThresholdReport:
    """Verify each row is a prefix of accepts followed by offloads."""
    n_x, n_l = policy.shape
    tau = np.zeros(n_x, dtype=int)
    all_reject = np.zeros(n_x, dtype=bool)
    violation: tuple[int, int] | None = None
    for x in range(n_x):
        row = policy[x]
        accepts = np.nonzero(row == Action.ACCEPT)[0]
        if len(accepts) == 0:
            all_reject[x] = True
            tau[x] = 0
        else:
            tau[x] = int(accepts.max())
        if violation is None:
            for ell in range(n_l - 1):
                if row[ell] == Action.OFFLOAD and row[ell + 1] == Action.ACCEPT:
                    violation = (x, ell)
                    break
    return ThresholdReport(tau=tau, all_reject=all_reject, violation=violation)
