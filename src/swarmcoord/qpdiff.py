"""Backward-mode sensitivities of a QP solution through its KKT conditions.

Implicit differentiation of the stationarity / primal-feasibility /
complementarity system at an optimal, strictly complementary solution.
Strictly inactive inequality rows and bounds are dropped before
factorization; their gradient blocks are zero by complementarity. The
active-set rule and the factored KKT system are qpcore's active_set and
KktFactor, which the solver's polish uses too. Training-only machinery:
nothing here runs in the deployed prediction path.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .qpcore import (
    KktFactor,
    QpInstance,
    QpSolution,
    SolveStatus,
    active_set,
    kkt_residuals,
)


class KktSingularError(RuntimeError):
    """Degenerate active set (rows and bounds): the reduced KKT matrix is not invertible."""

    def __init__(self, active_set, active_bounds):
        super().__init__(f"singular KKT system for active rows {np.flatnonzero(active_set)} "
                         f"and bounds {np.flatnonzero(active_bounds)}")
        self.active_set, self.active_bounds = active_set, active_bounds


@dataclass
class KktFactorization:
    qp: QpInstance
    sol: QpSolution
    active: np.ndarray          # boolean mask over inequality rows
    bounds: np.ndarray          # boolean mask over variables: the active bounds
    kkt: KktFactor              # factor of the active-set KKT system


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
    act, bounds = active_set(qp, sol)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            kkt = KktFactor(qp, act, bounds, damping)
    except (scipy.linalg.LinAlgError, ValueError):
        raise KktSingularError(act, bounds) from None
    # LU of a numerically singular matrix succeeds with tiny pivots, and one
    # of non-finite data returns non-finite factors; probe it
    diag = np.abs(np.diag(kkt.lu[0]))
    if not np.all(np.isfinite(kkt.lu[0])) or diag.min(initial=np.inf) < 1e-12 * max(
            diag.max(initial=1.0), 1.0):
        raise KktSingularError(act, bounds)
    return KktFactorization(qp, sol, act, bounds, kkt)


def backward(fact: KktFactorization, dl_dx) -> dict:
    """Map a loss gradient wrt the primal solution to gradients wrt QP data.

    Returns {dQ, dq, dG, dh, dR, db, dlb} with inactive inequality rows and
    inactive bounds exactly 0. A bound is the row -x_i <= -lb_i, so dlb_i
    is minus the dh that row would get.
    """
    qp, sol, kkt = fact.qp, fact.sol, fact.kkt
    dl_dx = np.asarray(dl_dx, dtype=float).reshape(qp.num_vars)
    rhs = np.concatenate([-dl_dx, np.zeros(kkt.rows.size + kkt.var.size + qp.num_eq)])
    d_x, d_lam, d_z, d_nu = kkt.unpack(kkt.solve(rhs))   # zero off the active set
    x, lam = sol.x, np.where(fact.active, sol.ineq_duals, 0.0)
    return {"dQ": 0.5 * (np.outer(d_x, x) + np.outer(x, d_x)), "dq": d_x,
            "dG": np.outer(d_lam, x) + np.outer(lam, d_x), "dh": -d_lam,
            "dR": np.outer(d_nu, x) + np.outer(sol.eq_duals, d_x), "db": -d_nu, "dlb": d_z}
