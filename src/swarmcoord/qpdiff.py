"""Backward-mode sensitivities of a QP solution through its KKT conditions.

Implicit differentiation of the stationarity / primal-feasibility /
complementarity system at an optimal, strictly complementary solution.
Strictly inactive inequality rows are dropped before factorization; their
gradient blocks are zero by complementarity. The active-set rule and the
factored KKT system are qpcore's active_set and KktFactor, which the
solver's polish uses too. Training-only machinery: nothing here runs in the
deployed prediction path.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .qpcore import (
    ACT_TOL,
    KktFactor,
    QpInstance,
    QpSolution,
    SolveStatus,
    active_set,
    kkt_residuals,
)


class KktSingularError(RuntimeError):
    """Degenerate active set: the reduced KKT matrix is not invertible."""

    def __init__(self, active_set):
        super().__init__(f"singular KKT system for active set {np.flatnonzero(active_set)}")
        self.active_set = active_set


@dataclass
class KktFactorization:
    qp: QpInstance
    sol: QpSolution
    active: np.ndarray          # boolean mask over inequality rows
    kkt: KktFactor              # factor of the active-set KKT system

    @property
    def num_active(self):
        return int(self.active.sum())


def is_strictly_complementary(qp: QpInstance, sol: QpSolution) -> bool:
    """No active inequality row may have a dual at or below ACT_TOL, i.e. be
    held active by its slack alone."""
    return not np.any(active_set(qp, sol) & (sol.ineq_duals <= ACT_TOL))


def factorize(qp: QpInstance, sol: QpSolution, damping=0.0) -> KktFactorization:
    """Factor the reduced (active-set) KKT matrix at the solution.

    Raises KktSingularError when the system is singular; callers may retry
    with damping=1e-8, which regularizes toward a quasi-definite matrix.
    """
    if sol.status != SolveStatus.OPTIMAL:
        raise ValueError("can only differentiate an optimal solution")
    res = kkt_residuals(qp, sol)
    if max(res.values()) > 1e-5:
        raise ValueError(f"solution residuals too large to differentiate: {res}")
    act = active_set(qp, sol)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            kkt = KktFactor(qp, act, damping)
    except (scipy.linalg.LinAlgError, ValueError):
        raise KktSingularError(act) from None
    # LU of a numerically singular matrix succeeds with tiny pivots; probe it
    diag = np.abs(np.diag(kkt.lu[0]))
    if not np.all(np.isfinite(kkt.lu[0])) or diag.min(initial=np.inf) < 1e-12 * max(
            diag.max(initial=1.0), 1.0):
        raise KktSingularError(act)
    return KktFactorization(qp, sol, act, kkt)


def backward(fact: KktFactorization, dl_dx) -> dict:
    """Map a loss gradient wrt the primal solution to gradients wrt QP data.

    Returns {dQ, dq, dG, dh, dR, db} with inactive inequality rows exactly 0.
    """
    qp, sol = fact.qp, fact.sol
    n, p = qp.num_vars, qp.num_eq
    act = fact.active
    m_act = fact.num_active
    dl_dx = np.asarray(dl_dx, dtype=float).reshape(n)
    rhs = np.concatenate([-dl_dx, np.zeros(m_act + p)])
    adj = fact.kkt.solve(rhs)
    d_x = adj[:n]
    d_lam_act = adj[n:n + m_act]
    d_nu = adj[n + m_act:]

    x = sol.x
    lam_act = sol.ineq_duals[act]
    nu = sol.eq_duals

    dq = d_x
    dQ = 0.5 * (np.outer(d_x, x) + np.outer(x, d_x))
    dG = np.zeros_like(qp.G)
    dh = np.zeros(qp.num_ineq)
    dG[act] = np.outer(d_lam_act, x) + np.outer(lam_act, d_x)
    dh[act] = -d_lam_act
    dR = np.outer(d_nu, x) + np.outer(nu, d_x)
    db = -d_nu
    return {"dQ": dQ, "dq": dq, "dG": dG, "dh": dh, "dR": dR, "db": db}
