"""Exact planning: value iteration, policy extraction, structural checks.

The dynamic program follows the published recursion literally.  Its offload
branch carries continuation weight ``beta * (1 - delta(x))`` only — the
arrival-probability share of the future is dropped, not self-looped.  A
``self_loop`` flag adds the missing ``beta * delta(x) * V(x, ell)`` term for
sensitivity analysis.

Accepting is physically impossible at a full buffer, so the minimization at
``x = X`` is over the offload action alone; Q-values are still reported for
both actions everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Action, ChainTables, CostModel, ModelParams, ResourceDist


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


class _Kernel:
    """Bellman sweeps on ``ChainTables``, gathering from the flat value."""

    def __init__(self, lam: float, params: ModelParams, cm: CostModel, rd: ResourceDist):
        t = ChainTables(params, cm, rd)
        self.X, self.L = params.buffer_capacity, params.cpu_levels
        self.beta = params.discount_beta
        self.arrival_p = t.arrival_p(lam)
        self.tables = t
        self.support = [(t.succ[:, 2, r - 1], t.succ[:, 0, r - 1], p) for r, p in rd.support()]

    def q_tables(self, v: np.ndarray, self_loop: bool) -> np.ndarray:
        v = v.ravel()
        ev_up = np.zeros_like(v)
        ev_dn = np.zeros_like(v)
        for up, dn, p in self.support:
            ev_up += p * v[up]
            ev_dn += p * v[dn]
        d = self.arrival_p
        q = np.empty(v.shape + (2,))
        q[:, 0] = self.tables.stay_cost + self.beta * (d * ev_up + (1.0 - d) * ev_dn)
        q[:, 1] = self.tables.offload_cost + self.beta * (1.0 - d) * ev_dn
        if self_loop:
            q[:, 1] += self.beta * d * v
        return q.reshape(self.X + 1, self.L + 1, 2)

    def admissible_min(self, q: np.ndarray) -> np.ndarray:
        v = q.min(axis=2)
        v[self.X, :] = q[self.X, :, 1]  # full buffer: offload only
        return v


def greedy_policy(q: np.ndarray, buffer_capacity: int) -> np.ndarray:
    """Argmin policy, ties toward accept; forced offload at the full buffer."""
    policy = (q[:, :, 1] < q[:, :, 0]).astype(np.int8)
    policy[buffer_capacity, :] = Action.OFFLOAD
    return policy


def value_iteration(
    lam: float,
    params: ModelParams,
    cm: CostModel,
    rd: ResourceDist,
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
    kern = _Kernel(lam, params, cm, rd)
    beta = params.discount_beta
    thresh = tol * (1.0 - beta) / (2.0 * beta)
    v = np.zeros((kern.X + 1, kern.L + 1))
    update = np.inf
    for it in range(1, max_iter + 1):
        v_new = kern.admissible_min(kern.q_tables(v, self_loop))
        update = float(np.abs(v_new - v).max())
        v = v_new
        if update <= thresh:
            q = kern.q_tables(v, self_loop)
            v_final = kern.admissible_min(q)
            residual = beta / (1.0 - beta) * float(np.abs(v_final - v).max())
            return Solution(
                v=v_final,
                q=q,
                policy=greedy_policy(q, kern.X),
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
