"""Dense convex QP representation and solver.

Problem form:  min 1/2 x'Qx + q'x  s.t.  Gx <= h,  Rx = b.

The solver is operator splitting in the OSQP style over the stacked
constraint l <= Ax <= u (A = [G; R], equality rows have l = u = b), followed
by an active-set polish that solves the KKT system of the identified active
rows to push all four KKT residuals to linear-solver accuracy. Polished duals
are what the differentiable KKT layer consumes.

The reduced KKT matrix (reduced_kkt) and the active-set rule (active_set)
are defined here once; the polish, the DMPC warm hint and the KKT layer in
qpdiff all use them.
"""

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg


class QpError(ValueError):
    pass


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max-iter"


# residual contract, shared with callers
TOL_STAT = 1e-6
TOL_EQ = 1e-6
TOL_INEQ = 1e-6
TOL_CS = 1e-6
# a row is active when its dual exceeds ACT_TOL or its slack falls below it
ACT_TOL = 1e-6


@dataclass
class QpInstance:
    """Dense QP data plus a named layout of the variable vector.

    layout maps a slice name (e.g. "w", "zeta", "eps", "delta") to a slice of
    the variable vector; it is bookkeeping for callers and the debug dump.
    """

    Q: np.ndarray
    q: np.ndarray
    G: np.ndarray
    h: np.ndarray
    R: np.ndarray
    b: np.ndarray
    layout: dict = field(default_factory=dict)
    objective_constant: float = 0.0

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.q = np.asarray(self.q, dtype=float).reshape(-1)
        n = self.q.size
        self.G = np.asarray(self.G, dtype=float).reshape(-1, n)
        self.h = np.asarray(self.h, dtype=float).reshape(-1)
        self.R = np.asarray(self.R, dtype=float).reshape(-1, n)
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        if self.Q.shape != (n, n):
            raise QpError(f"Q is {self.Q.shape}, expected {(n, n)}")
        if np.max(np.abs(self.Q - self.Q.T), initial=0.0) > 1e-10:
            raise QpError("Q must be symmetric to 1e-10")
        if self.G.shape[0] != self.h.size or self.R.shape[0] != self.b.size:
            raise QpError("constraint rows and right-hand sides disagree")
        # PSD probe: plain Cholesky, then the documented 1e-9 diagonal shift.
        # scipy's LAPACK, like the solver's factorizations: numpy links its
        # own OpenBLAS, and waking a second thread pool between the solver's
        # calls costs more than the factorization itself.
        try:
            scipy.linalg.cholesky(self.Q) if n else None
        except np.linalg.LinAlgError:
            try:
                scipy.linalg.cholesky(self.Q + 1e-9 * np.eye(n))
            except np.linalg.LinAlgError:
                raise QpError("Q is not positive semidefinite") from None

    @property
    def num_vars(self):
        return self.q.size

    @property
    def num_ineq(self):
        return self.h.size

    @property
    def num_eq(self):
        return self.b.size


@dataclass
class QpSolution:
    x: np.ndarray
    ineq_duals: np.ndarray
    eq_duals: np.ndarray
    status: SolveStatus
    objective: float
    iterations: int
    polished: bool = False

    def slack(self, qp: QpInstance) -> np.ndarray:
        return qp.h - qp.G @ self.x


def objective_value(qp: QpInstance, x) -> float:
    return float(0.5 * x @ (qp.Q @ x) + qp.q @ x)


def kkt_residuals(qp: QpInstance, sol: QpSolution) -> dict:
    """Max-norm KKT residuals {stationarity, primal_eq, primal_ineq, complementarity}."""
    x, lam, nu = sol.x, sol.ineq_duals, sol.eq_duals
    stat = qp.Q @ x + qp.q
    if qp.num_ineq:
        stat = stat + qp.G.T @ lam
    if qp.num_eq:
        stat = stat + qp.R.T @ nu
    viol = qp.G @ x - qp.h if qp.num_ineq else np.zeros(0)
    return {
        "stationarity": float(np.max(np.abs(stat), initial=0.0)),
        "primal_eq": float(np.max(np.abs(qp.R @ x - qp.b), initial=0.0)) if qp.num_eq else 0.0,
        "primal_ineq": float(np.max(viol, initial=0.0)),
        "complementarity": float(np.max(np.abs(lam * viol), initial=0.0)) if qp.num_ineq else 0.0,
    }


def _meets_contract(res: dict) -> bool:
    return (res["stationarity"] <= TOL_STAT and res["primal_eq"] <= TOL_EQ
            and res["primal_ineq"] <= TOL_INEQ and res["complementarity"] <= TOL_CS)


def active_set(qp: QpInstance, sol: QpSolution) -> np.ndarray:
    """Boolean mask of the inequality rows the solution holds active."""
    return (sol.ineq_duals > ACT_TOL) | (sol.slack(qp) < ACT_TOL)


def reduced_kkt(qp: QpInstance, active: np.ndarray, reg: float) -> np.ndarray:
    """KKT matrix [[Q + reg I, G_actᵀ, Rᵀ], [G_act, -reg I, 0], [R, 0, -reg I]]
    of the QP with the active rows held as equalities; its unknowns are x,
    the active inequality duals and the equality duals, in that order."""
    n = qp.num_vars
    rows = np.vstack([qp.G[active], qp.R])
    dim = n + rows.shape[0]
    kkt = np.zeros((dim, dim))
    kkt[:n, :n] = qp.Q + reg * np.eye(n)
    kkt[:n, n:] = rows.T
    kkt[n:, :n] = rows
    kkt[n:, n:] -= reg * np.eye(dim - n)
    return kkt


def _polish(qp: QpInstance, active: np.ndarray, reg=1e-11):
    """Solve the equality KKT system on the active rows; None if it fails."""
    n, m_act = qp.num_vars, int(active.sum())
    kkt = reduced_kkt(qp, active, reg)
    rhs = np.concatenate([-qp.q, qp.h[active], qp.b])
    try:
        lu = scipy.linalg.lu_factor(kkt)
        sol = scipy.linalg.lu_solve(lu, rhs)
        # one round of iterative refinement against the unregularized system
        kkt[:n, :n] -= reg * np.eye(n)
        kkt[n:, n:] += reg * np.eye(len(kkt) - n)
        sol += scipy.linalg.lu_solve(lu, rhs - kkt @ sol)
    except (scipy.linalg.LinAlgError, ValueError):
        return None
    if not np.all(np.isfinite(sol)):
        return None
    x = sol[:n]
    lam = np.zeros(qp.num_ineq)
    lam[active] = sol[n:n + m_act]
    nu = sol[n + m_act:]
    return x, lam, nu


def _try_polish(qp: QpInstance, active, iterations, refine_rounds=25) -> QpSolution | None:
    """Polish with active-set refinement.

    Solve the equality KKT system on the candidate active rows; drop the row
    with the most negative multiplier or, if there is none, add the most
    violated inactive row, and re-solve. One row per round: changing many
    general rows at once lets a candidate with dependent rows return
    multipliers of 1e9 and cycle. Violated bound rows (one nonzero) are added
    together, since each touches a single variable; a neighbour that joined a
    DMPC agent since its hint was taken brings 2 x horizon slack bounds at
    once. A candidate with no negative multiplier and no violated row is
    accepted when it meets the residual contract. Its residuals are then at
    linear-solver accuracy, which is relative to the data: a multiplier of
    5e3 times a row slack of 2e-12 rounding already gives a complementarity
    of 1e-8.
    """
    active = np.asarray(active, dtype=bool).copy()
    bound_rows = np.count_nonzero(qp.G, axis=1) == 1
    for _ in range(refine_rounds):
        out = _polish(qp, active)
        if out is None:
            return None
        x, lam, nu = out
        lam_active = np.where(active, lam, np.inf)
        slack_inactive = np.where(active, np.inf, qp.h - qp.G @ x)
        if lam_active.min(initial=np.inf) < -1e-9:
            active[np.argmin(lam_active)] = False
        elif slack_inactive.min(initial=np.inf) < -1e-9:
            active[np.argmin(slack_inactive)] = True
            active |= bound_rows & (slack_inactive < -1e-9)
        else:
            cand = QpSolution(x, np.maximum(lam, 0.0), nu, SolveStatus.OPTIMAL,
                              objective_value(qp, x), iterations, polished=True)
            return cand if _meets_contract(kkt_residuals(qp, cand)) else None
    return None


def solve(qp: QpInstance, warm_start=None, active_set_hint=None,
          max_iter=20000, eps=1e-9) -> QpSolution:
    """Solve the QP to the residual contract (all four KKT residuals <= 1e-6).

    Otherwise the status says why: INFEASIBLE on a certificate of primal or
    dual infeasibility (an unbounded QP), MAX_ITER when the iterations run out.

    warm_start is a primal starting point; active_set_hint is a boolean mask
    over inequality rows tried as an immediate polish candidate (one linear
    solve) before any splitting iterations.
    """
    n, m, p = qp.num_vars, qp.num_ineq, qp.num_eq

    if active_set_hint is not None and len(active_set_hint) == m:
        cand = _try_polish(qp, np.asarray(active_set_hint, dtype=bool), 0)
        if cand is not None:
            return cand

    # stacked form: l <= Ax <= u
    a = np.vstack([qp.G, qp.R])
    u = np.concatenate([qp.h, qp.b])
    lo = np.concatenate([np.full(m, -np.inf), qp.b])
    m_total = m + p

    sigma = 1e-6
    alpha = 1.6
    rho = np.full(m_total, 0.1)
    rho[m:] = 100.0  # stiffer on equality rows

    def factor(rho_vec):
        kkt = np.zeros((n + m_total, n + m_total))
        kkt[:n, :n] = qp.Q + sigma * np.eye(n)
        kkt[:n, n:] = a.T
        kkt[n:, :n] = a
        kkt[n:, n:] = -np.diag(1.0 / rho_vec)
        return scipy.linalg.lu_factor(kkt)

    lu = factor(rho)
    x = np.zeros(n) if warm_start is None else np.asarray(warm_start, dtype=float).copy()
    z = np.clip(a @ x, lo, u)
    y = np.zeros(m_total)

    def residuals(x, z, y):
        ax = a @ x
        r_prim = np.max(np.abs(ax - z), initial=0.0)
        r_dual = np.max(np.abs(qp.Q @ x + qp.q + a.T @ y), initial=0.0)
        return r_prim, r_dual, ax

    def finish(x, y, iterations):
        lam = np.maximum(y[:m], 0.0)
        nu = y[m:].copy()
        sol = QpSolution(x, lam, nu, SolveStatus.OPTIMAL, objective_value(qp, x),
                         iterations)
        res = kkt_residuals(qp, sol)
        if _meets_contract(res):
            return sol
        sol.status = SolveStatus.MAX_ITER
        return sol

    check_every = 25
    last_polish_res = np.inf
    for it in range(1, max_iter + 1):
        rhs = np.concatenate([sigma * x - qp.q, z - y / rho])
        sol_kkt = scipy.linalg.lu_solve(lu, rhs)
        x_tilde, nu_tilde = sol_kkt[:n], sol_kkt[n:]
        z_tilde = z + (nu_tilde - y) / rho
        x_prev, z_prev, y_prev = x, z, y
        x = alpha * x_tilde + (1 - alpha) * x_prev
        z = np.clip(alpha * z_tilde + (1 - alpha) * z_prev + y / rho, lo, u)
        y = y + rho * (alpha * z_tilde + (1 - alpha) * z_prev - z)

        if it % check_every:
            continue
        r_prim, r_dual, ax = residuals(x, z, y)
        scale = max(1.0, np.max(np.abs(ax), initial=0.0), np.max(np.abs(z), initial=0.0),
                    np.max(np.abs(qp.Q @ x), initial=0.0), np.max(np.abs(qp.q), initial=0.0))
        if max(r_prim, r_dual) < min(1e-4 * scale, last_polish_res):
            lam = np.maximum(y[:m], 0.0)
            slack = qp.h - qp.G @ x
            lam_scale = max(1.0, np.max(lam, initial=0.0))
            for lam_tol in (1e-7, 1e-4):
                active = (lam > lam_tol * lam_scale) | (slack < 1e-7)
                cand = _try_polish(qp, active, it)
                if cand is not None:
                    return cand
            last_polish_res = max(r_prim, r_dual) / 4

        if r_prim < eps * scale and r_dual < eps * scale:
            return finish(x, y, it)

        # infeasibility certificates on the iterate deltas
        dy = y - y_prev
        dy_norm = np.max(np.abs(dy), initial=0.0)
        if dy_norm > 1e-14:
            at_dy = a.T @ dy
            support = float(u @ np.maximum(dy, 0.0)
                            + np.where(np.isfinite(lo), lo, 0.0) @ np.minimum(dy, 0.0))
            lo_ok = np.all(dy[:m] >= -1e-12 * dy_norm)  # one-sided rows need dy >= 0
            if (np.max(np.abs(at_dy), initial=0.0) <= 1e-10 * dy_norm
                    and support < -1e-10 * dy_norm and lo_ok):
                return QpSolution(x, np.maximum(y[:m], 0.0), y[m:],
                                  SolveStatus.INFEASIBLE, np.nan, it)
        dx = x - x_prev
        dx_norm = np.max(np.abs(dx), initial=0.0)
        if dx_norm > 1e-14:
            adx = a @ dx
            ineq_ok = np.all(adx[:m] <= 1e-10 * dx_norm)
            eq_ok = np.max(np.abs(adx[m:]), initial=0.0) <= 1e-10 * dx_norm
            if (np.max(np.abs(qp.Q @ dx), initial=0.0) <= 1e-10 * dx_norm
                    and qp.q @ dx < -1e-10 * dx_norm and ineq_ok and eq_ok):
                return QpSolution(x, np.maximum(y[:m], 0.0), y[m:],
                                  SolveStatus.INFEASIBLE, np.nan, it)

        # adaptive rho, refactor only on large drift
        if it % 200 == 0 and r_dual > 0 and r_prim > 0:
            ratio = np.sqrt((r_prim / max(np.max(np.abs(ax), initial=1.0), 1.0))
                            / max(r_dual / scale, 1e-16))
            if ratio > 5.0 or ratio < 0.2:
                rho = np.clip(rho * ratio, 1e-6, 1e6)
                lu = factor(rho)

    return finish(x, y, max_iter)


def dump_instance(qp: QpInstance, path):
    """Self-describing JSON dump of one instance for offline inspection."""
    doc = {
        "format": "swarmcoord-qp/1",
        "shapes": {"Q": list(qp.Q.shape), "G": list(qp.G.shape), "R": list(qp.R.shape)},
        "layout": {name: [sl.start, sl.stop] for name, sl in qp.layout.items()},
        "objective_constant": qp.objective_constant,
        "Q": qp.Q.tolist(),
        "q": qp.q.tolist(),
        "G": qp.G.tolist(),
        "h": qp.h.tolist(),
        "R": qp.R.tolist(),
        "b": qp.b.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
