"""Backward-mode sensitivities of a QP solution through its KKT conditions.

Implicit differentiation of the stationarity / primal-feasibility /
complementarity system at an optimal, strictly complementary solution.
Strictly inactive inequality rows are dropped before factorization; their
gradient blocks are zero by complementarity. Training-only machinery: nothing
here runs in the deployed prediction path.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .qpcore import QpInstance, QpSolution, SolveStatus, kkt_residuals

ACT_TOL = 1e-6


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
    lu: tuple                   # LU factors of the reduced KKT matrix
    damping: float = 0.0

    @property
    def num_active(self):
        return int(self.active.sum())


def active_set(qp: QpInstance, sol: QpSolution, act_tol=ACT_TOL) -> np.ndarray:
    slack = sol.slack(qp)
    return (sol.ineq_duals > act_tol) | (slack < act_tol)


def is_strictly_complementary(qp: QpInstance, sol: QpSolution, tol=ACT_TOL) -> bool:
    """No inequality row may have both a tiny dual and a tiny slack."""
    slack = sol.slack(qp)
    return not np.any((sol.ineq_duals <= tol) & (slack <= tol))


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
    n, m_act, p = qp.num_vars, int(act.sum()), qp.num_eq
    g_act = qp.G[act]
    dim = n + m_act + p
    kkt = np.zeros((dim, dim))
    kkt[:n, :n] = qp.Q
    kkt[:n, n:n + m_act] = g_act.T
    kkt[n:n + m_act, :n] = g_act
    if p:
        kkt[:n, n + m_act:] = qp.R.T
        kkt[n + m_act:, :n] = qp.R
    if damping:
        kkt[:n, :n] += damping * np.eye(n)
        kkt[n:, n:] -= damping * np.eye(m_act + p)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(kkt)
    except (scipy.linalg.LinAlgError, ValueError):
        raise KktSingularError(act) from None
    if not np.all(np.isfinite(lu[0])):
        raise KktSingularError(act)
    # LU of a numerically singular matrix succeeds with tiny pivots; probe it
    diag = np.abs(np.diag(lu[0]))
    if diag.min(initial=np.inf) < 1e-12 * max(diag.max(initial=1.0), 1.0):
        raise KktSingularError(act)
    return KktFactorization(qp, sol, act, lu, damping)


def backward(fact: KktFactorization, dl_dx) -> dict:
    """Map a loss gradient wrt the primal solution to gradients wrt QP data.

    Returns {dQ, dq, dG, dh, dR, db} with inactive inequality rows exactly 0.
    """
    qp, sol = fact.qp, fact.sol
    n, p = qp.num_vars, qp.num_eq
    act = fact.active
    m_act = fact.num_active
    dl_dx = np.asarray(dl_dx, dtype=float).reshape(n)

    if not np.any(dl_dx):
        return {
            "dQ": np.zeros_like(qp.Q), "dq": np.zeros(n),
            "dG": np.zeros_like(qp.G), "dh": np.zeros(qp.num_ineq),
            "dR": np.zeros_like(qp.R), "db": np.zeros(p),
        }

    rhs = np.concatenate([-dl_dx, np.zeros(m_act + p)])
    adj = scipy.linalg.lu_solve(fact.lu, rhs)
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
    if m_act:
        dG[act] = np.outer(d_lam_act, x) + np.outer(lam_act, d_x)
        dh[act] = -d_lam_act
    dR = np.outer(d_nu, x) + np.outer(nu, d_x) if p else np.zeros_like(qp.R)
    db = -d_nu
    return {"dQ": dQ, "dq": dq, "dG": dG, "dh": dh, "dR": dR, "db": db}
