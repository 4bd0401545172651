"""Dense convex QP representation and solver.

Problem form:  min 1/2 x'Qx + q'x  s.t.  Gx <= h,  Rx = b.

The solver is ADMM operator splitting in the OSQP style (Stellato et al.,
arXiv:1711.08013) over the stacked constraint l <= Ax <= u (A = [G; R],
equality rows have l = u = b), followed by an active-set polish that solves
the KKT system of the identified active rows to push all four KKT residuals
to linear-solver accuracy. Polished duals are what the differentiable KKT
layer consumes.

The ADMM iterates on equilibrated data. Ruiz passes over the columns of
[[Q, Aᵀ], [A, 0]] plus OSQP's cost scaling bring the DMPC's linear costs of
1e4 (l_saf) and its O(1) box rows to unit size. Each x-update is a
back-solve with the Cholesky factor of the n x n matrix
Q̄ + σI + Āᵀ diag(ρ) Ā, positive definite for any PSD Q since σ > 0; the
(n + m) quasi-definite KKT system is never formed. ρ is one scalar (equality
rows run at RHO_EQ_RATIO ρ) that follows the ratio of the scaled residuals.
The residual contract is checked unscaled: the polish triggers, termination,
the infeasibility certificates and the contract all read the unscaled
iterates and the original instance.

The active-set rule (active_set) and the factored active-set KKT system
(KktFactor, with the variables that active bound rows pin taken out) are
defined here once; the polish, the DMPC warm hint and qpdiff use them.
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

# ADMM settings: OSQP's (Stellato et al., arXiv:1711.08013) except RHO_ADAPT
SIGMA = 1e-6            # proximal weight of the x-update
ALPHA = 1.6             # over-relaxation
RHO0 = 0.1              # initial step size
RHO_EQ_RATIO = 1e3      # equality rows run at this multiple of rho
RHO_MIN, RHO_MAX = 1e-6, 1e6
# rho is refactored when its estimate leaves [rho / RHO_ADAPT, rho * RHO_ADAPT].
# OSQP's 5 left DESK cold solves at estimates of 0.22-0.45 rho for hundreds of
# iterations; 2.5 halves their iteration count and keeps crowded QPs converging.
RHO_ADAPT = 2.5
CHECK_EVERY = 25        # residuals, polish trigger, certificates and rho
RUIZ_PASSES = 15        # equilibration passes
SCALE_MIN, SCALE_MAX = 1e-4, 1e4  # equilibration norms outside are left at 1 or clipped


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
        # PSD probe, then with the documented 1e-9 diagonal shift: Cholesky on
        # the columns with an off-diagonal entry, the sign check a Cholesky of
        # Q makes on the diagonal of the rest. scipy's LAPACK: waking numpy's
        # own OpenBLAS thread pool between the solver's calls costs more.
        diag = np.diag(self.Q)
        coupled = np.count_nonzero(self.Q, axis=0) > (diag != 0)
        block, tail = self.Q[np.ix_(coupled, coupled)], diag[~coupled]
        for shift in (0.0, 1e-9):
            try:
                if block.size:
                    scipy.linalg.cholesky(block + shift * np.eye(len(block)))
            except np.linalg.LinAlgError:
                continue
            if np.all(np.isfinite(tail) & (tail + shift > 0)):
                break
        else:
            raise QpError("Q is not positive semidefinite")

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


def bound_rows(qp: QpInstance):
    """(column, coefficient) of each row of G with one nonzero; column -1 elsewhere."""
    nonzero = qp.G != 0
    col = np.where(nonzero.sum(axis=1) == 1, np.argmax(nonzero, axis=1), -1)
    return col, qp.G[np.arange(qp.num_ineq), np.maximum(col, 0)]


class KktFactor:
    """LU factor of the KKT system of the QP with its active rows as equalities,
    [[Q + reg I, G_actᵀ, Rᵀ], [G_act, -reg I, 0], [R, 0, -reg I]] (x, λ_act, ν) = rhs.

    A variable pinned by exactly one active bound row (one nonzero g) is h/g:
    it leaves the factored system with its row, whose multiplier comes from
    the variable's stationarity row (Nocedal & Wright §16.5), both solved
    exactly, without reg. Two pins on one variable stay in the factored
    system, singular like the full one. bounds is bound_rows(qp).
    """

    def __init__(self, qp: QpInstance, active, reg, bounds=None):
        col, val = bound_rows(qp) if bounds is None else bounds
        self.qp, self.rows = qp, np.flatnonzero(active)
        cols = col[self.rows]
        pin = cols >= 0
        pin[pin] = np.bincount(cols[pin], minlength=qp.num_vars)[cols[pin]] == 1
        self.pin, self.var, self.coef = pin, cols[pin], val[self.rows[pin]]
        self.free = np.ones(qp.num_vars, dtype=bool)
        self.free[self.var] = False
        self.g_gen = qp.G[self.rows[~pin]]
        g_free, r_free = self.g_gen[:, self.free], qp.R[:, self.free]
        ng, nf = g_free.shape
        kkt = np.zeros((nf + ng + qp.num_eq,) * 2, order="F")  # LAPACK factors it in place
        kkt[:nf, :nf] = qp.Q[np.ix_(self.free, self.free)]
        kkt[nf:nf + ng, :nf] = g_free
        kkt[:nf, nf:nf + ng] = g_free.T
        kkt[nf + ng:, :nf] = r_free
        kkt[:nf, nf + ng:] = r_free.T
        diag = np.arange(len(kkt))
        kkt[diag[:nf], diag[:nf]] += reg
        kkt[diag[nf:], diag[nf:]] = -reg
        self.lu = scipy.linalg.lu_factor(kkt, overwrite_a=True)

    def solve(self, rhs):
        """The solution (x, λ_act, ν) of the full system, stacked like rhs."""
        qp, pin, free, var, ng = self.qp, self.pin, self.free, self.var, len(self.g_gen)
        n, m_act, nf = qp.num_vars, pin.size, qp.num_vars - var.size
        r_x, r_act, r_eq = rhs[:n], rhs[n:n + m_act], rhs[n + m_act:]
        x, lam = np.zeros(n), np.empty(m_act)
        x[var] = r_act[pin] / self.coef
        red = scipy.linalg.lu_solve(self.lu, np.concatenate([
            r_x[free] - qp.Q[free] @ x, r_act[~pin] - self.g_gen @ x, r_eq - qp.R @ x]))
        x[free], lam[~pin], nu = red[:nf], red[nf:nf + ng], red[nf + ng:]
        stat = qp.Q[var] @ x + self.g_gen[:, var].T @ lam[~pin] + qp.R[:, var].T @ nu
        lam[pin] = (r_x[var] - stat) / self.coef
        return np.concatenate([x, lam, nu])

    def unpack(self, sol):
        """(x, λ over all inequality rows, ν) of a stacked solution."""
        n, lam = self.qp.num_vars, np.zeros(self.qp.num_ineq)
        lam[self.rows] = sol[n:n + self.rows.size]
        return sol[:n], lam, sol[n + self.rows.size:]

    def refine(self, sol):
        """One refinement round against the unregularized full system."""
        qp, (x, lam, nu) = self.qp, self.unpack(sol)
        return sol + self.solve(np.concatenate([
            -qp.q - qp.Q @ x - qp.G.T @ lam - qp.R.T @ nu,
            (qp.h - qp.G @ x)[self.rows], qp.b - qp.R @ x]))


def _try_polish(qp: QpInstance, active, iterations, refine_rounds=25) -> QpSolution | None:
    """Polish with active-set refinement.

    Each round factors the candidate's KktFactor, solves with one
    refinement round, and drops the row with the most negative multiplier
    or, if none, adds the most violated inactive row. One row per round:
    changing many general rows at once lets dependent rows return
    multipliers of 1e9 and cycle. Violated bound rows (one nonzero) are
    added together, since each touches a single variable; a neighbour that
    joined a DMPC agent since its hint was taken brings 2 x horizon slack
    bounds at once. A candidate with no negative multiplier and no violated
    row is accepted when it meets the residual contract; one that misses it
    at linear-solver accuracy (a row violation of 1.6e-10 against
    multipliers of 5e6) is refined again on the same factor while its
    largest residual falls, at most 3 more rounds, before it is rejected.
    """
    active, bounds = np.array(active, dtype=bool), bound_rows(qp)
    for _ in range(refine_rounds):
        try:
            kkt = KktFactor(qp, active, 1e-11, bounds)
            sol = kkt.refine(kkt.solve(np.concatenate([-qp.q, qp.h[active], qp.b])))
        except (scipy.linalg.LinAlgError, ValueError):
            return None
        if not np.all(np.isfinite(sol)):
            return None
        x, lam, nu = kkt.unpack(sol)
        lam_active = np.where(active, lam, np.inf)
        slack_inactive = np.where(active, np.inf, qp.h - qp.G @ x)
        if lam_active.min(initial=np.inf) < -1e-9:
            active[np.argmin(lam_active)] = False
        elif slack_inactive.min(initial=np.inf) < -1e-9:
            active[np.argmin(slack_inactive)] = True
            active |= (bounds[0] >= 0) & (slack_inactive < -1e-9)
        else:
            worst = np.inf
            for extra in range(4):  # the candidate, then up to 3 more refinement rounds
                cand = QpSolution(x, np.maximum(lam, 0.0), nu, SolveStatus.OPTIMAL,
                                  objective_value(qp, x), iterations, polished=True)
                res = kkt_residuals(qp, cand)
                if _meets_contract(res):
                    return cand
                if extra == 3 or not max(res.values()) < worst:
                    return None
                worst = max(res.values())
                x, lam, nu = kkt.unpack(sol := kkt.refine(sol))
    return None


def _limit(norms):
    """OSQP's guard on equilibration norms: a norm below SCALE_MIN leaves its
    row or column unscaled, and none counts above SCALE_MAX."""
    return np.where(norms < SCALE_MIN, 1.0, np.minimum(norms, SCALE_MAX))


def _equilibrate(qp: QpInstance, a: np.ndarray):
    """Ruiz equilibration with cost scaling (OSQP, Stellato et al. §5.1).

    Returns (d, e, c): with D = diag(d) and E = diag(e), the scaled QP
    Q̄ = c DQD, q̄ = c Dq, Ā = EAD has the columns of [[Q̄, Āᵀ], [Ā, 0]]
    near unit infinity norm, and c brings its cost to unit size. The norms
    are taken over the nonzero entries only; DMPC rows are sparse.
    """
    n, m = qp.num_vars, a.shape[0]
    q_row, q_col = np.nonzero(qp.Q)
    a_row, a_col = np.nonzero(a)
    q_val, a_val, cost = np.abs(qp.Q[q_row, q_col]), np.abs(a[a_row, a_col]), np.abs(qp.q)

    def col_norms(d, c):
        norms = np.zeros(n)
        np.maximum.at(norms, q_col, c * q_val * d[q_row] * d[q_col])
        return norms

    d, e, c = np.ones(n), np.ones(m), 1.0
    for _ in range(RUIZ_PASSES):
        a_scaled = a_val * e[a_row] * d[a_col]
        cols, rows = col_norms(d, c), np.zeros(m)
        np.maximum.at(cols, a_col, a_scaled)
        np.maximum.at(rows, a_row, a_scaled)
        d = d / np.sqrt(_limit(cols))
        e = e / np.sqrt(_limit(rows))
        c = c / _limit(max(col_norms(d, c).mean(), _limit(np.max(c * d * cost, initial=0.0))))
    return d, e, c


def solve(qp: QpInstance, warm_start=None, active_set_hint=None,
          max_iter=20000, eps=1e-9) -> QpSolution:
    """Solve the QP to the residual contract (all four KKT residuals <= 1e-6).

    Otherwise the status says why: INFEASIBLE on a certificate of primal or
    dual infeasibility (an unbounded QP), MAX_ITER when the iterations run out.

    warm_start is a primal starting point. active_set_hint is a boolean mask
    over inequality rows, tried first as a polish candidate before any
    splitting iterations: up to 25 refinement rounds, each an LU
    factorization and solve of the reduced KKT system.

    The splitting iterates live on the equilibrated QP (see _equilibrate).
    Each x-update solves (Q̄ + σI + Āᵀ diag(ρ) Ā) x̃ = σx - q̄ + Āᵀ(ρz - y)
    with the Cholesky factor of that n x n matrix, and sets z̃ = Āx̃. ρ is one
    scalar, RHO_EQ_RATIO times larger on the equality rows. Every CHECK_EVERY
    iterations the estimate ρ √(r̄_prim / r̄_dual), from the scaled residuals
    each relative to its largest term, replaces ρ, with a new factor, when it
    leaves [ρ / RHO_ADAPT, ρ RHO_ADAPT]. Everything that decides the result,
    the polish triggers, eps termination, both infeasibility certificates and
    the contract, reads the unscaled iterates and the original instance.
    """
    n, m, p = qp.num_vars, qp.num_ineq, qp.num_eq

    if active_set_hint is not None and len(active_set_hint) == m:
        cand = _try_polish(qp, np.asarray(active_set_hint, dtype=bool), 0)
        if cand is not None:
            return cand

    # stacked form: l <= Ax <= u, and its equilibrated copy
    a = np.vstack([qp.G, qp.R])
    u = np.concatenate([qp.h, qp.b])
    lo = np.concatenate([np.full(m, -np.inf), qp.b])
    d, e, c = _equilibrate(qp, a)
    Q_s = c * d[:, None] * qp.Q * d
    q_s = c * d * qp.q
    a_s = e[:, None] * a * d
    u_s, lo_s = e * u, e * lo
    gram_ineq = a_s[:m].T @ a_s[:m]
    gram_eq = a_s[m:].T @ a_s[m:]

    def factor(rho):
        rho_vec = np.full(m + p, rho)
        rho_vec[m:] *= RHO_EQ_RATIO
        kkt = Q_s + rho * (gram_ineq + RHO_EQ_RATIO * gram_eq)
        kkt[np.arange(n), np.arange(n)] += SIGMA
        chol, _ = scipy.linalg.cho_factor(kkt, lower=True, overwrite_a=True)
        return chol, rho_vec, 1.0 / rho_vec

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

    rho = RHO0
    chol, rho_vec, inv_rho = factor(rho)
    # LAPACK's back-solve directly: scipy's cho_solve wrapper costs more
    # than the solve itself at these sizes
    potrs = scipy.linalg.lapack.dpotrs
    x = np.zeros(n) if warm_start is None else np.asarray(warm_start, dtype=float) / d
    z = np.clip(a_s @ x, lo_s, u_s)
    y = np.zeros(m + p)

    last_polish_res = np.inf
    for it in range(1, max_iter + 1):
        x_prev, y_prev = x, y
        w = rho_vec * z
        w -= y
        rhs = a_s.T @ w
        rhs += SIGMA * x
        rhs -= q_s
        x_tilde = potrs(chol, rhs, lower=True)[0]
        z_relax = a_s @ x_tilde
        z_relax *= ALPHA
        z_relax += (1 - ALPHA) * z
        x = ALPHA * x_tilde
        x += (1 - ALPHA) * x_prev
        z = y * inv_rho
        z += z_relax
        np.maximum(z, lo_s, out=z)
        np.minimum(z, u_s, out=z)
        y = z_relax - z
        y *= rho_vec
        y += y_prev

        if it % CHECK_EVERY:
            continue
        x_u, z_u, y_u = d * x, z / e, e * y / c
        ax, qx, aty = a @ x_u, qp.Q @ x_u, a.T @ y_u
        prim_vec, dual_vec = ax - z_u, qx + qp.q + aty
        r_prim = np.max(np.abs(prim_vec), initial=0.0)
        r_dual = np.max(np.abs(dual_vec), initial=0.0)
        scale = max(1.0, np.max(np.abs(ax), initial=0.0), np.max(np.abs(z_u), initial=0.0),
                    np.max(np.abs(qx), initial=0.0), np.max(np.abs(qp.q), initial=0.0))
        if max(r_prim, r_dual) < min(1e-4 * scale, last_polish_res):
            lam = np.maximum(y_u[:m], 0.0)
            slack = qp.h - qp.G @ x_u
            lam_scale = max(1.0, np.max(lam, initial=0.0))
            for lam_tol in (1e-7, 1e-4):
                active = (lam > lam_tol * lam_scale) | (slack < 1e-7)
                cand = _try_polish(qp, active, it)
                if cand is not None:
                    return cand
            last_polish_res = max(r_prim, r_dual) / 4

        if r_prim < eps * scale and r_dual < eps * scale:
            return finish(x_u, y_u, it)

        # infeasibility certificates on the unscaled iterate deltas
        dy = e * (y - y_prev) / c
        dy_norm = np.max(np.abs(dy), initial=0.0)
        if dy_norm > 1e-14:
            at_dy = a.T @ dy
            support = float(u @ np.maximum(dy, 0.0)
                            + np.where(np.isfinite(lo), lo, 0.0) @ np.minimum(dy, 0.0))
            lo_ok = np.all(dy[:m] >= -1e-12 * dy_norm)  # one-sided rows need dy >= 0
            if (np.max(np.abs(at_dy), initial=0.0) <= 1e-10 * dy_norm
                    and support < -1e-10 * dy_norm and lo_ok):
                return QpSolution(x_u, np.maximum(y_u[:m], 0.0), y_u[m:],
                                  SolveStatus.INFEASIBLE, np.nan, it)
        dx = d * (x - x_prev)
        dx_norm = np.max(np.abs(dx), initial=0.0)
        if dx_norm > 1e-14:
            adx = a @ dx
            ineq_ok = np.all(adx[:m] <= 1e-10 * dx_norm)
            eq_ok = np.max(np.abs(adx[m:]), initial=0.0) <= 1e-10 * dx_norm
            if (np.max(np.abs(qp.Q @ dx), initial=0.0) <= 1e-10 * dx_norm
                    and qp.q @ dx < -1e-10 * dx_norm and ineq_ok and eq_ok):
                return QpSolution(x_u, np.maximum(y_u[:m], 0.0), y_u[m:],
                                  SolveStatus.INFEASIBLE, np.nan, it)

        # rho from the scaled residuals E(Ax - z) and cD(Qx + q + Aᵀy), each
        # relative to its largest term (OSQP §5.2)
        prim = (np.max(np.abs(e * prim_vec), initial=0.0)
                / max(np.max(np.abs(e * ax), initial=0.0), np.max(np.abs(z), initial=0.0), 1e-10))
        dual = (np.max(np.abs(d * dual_vec), initial=0.0)
                / max(np.max(np.abs(d * qx), initial=0.0), np.max(np.abs(d * aty), initial=0.0),
                      np.max(np.abs(d * qp.q), initial=0.0), 1e-10))
        if prim > 0 and dual > 0:
            ratio = np.sqrt(prim / dual)
            if not 1 / RHO_ADAPT <= ratio <= RHO_ADAPT:
                rho = float(np.clip(rho * ratio, RHO_MIN, RHO_MAX))
                chol, rho_vec, inv_rho = factor(rho)

    return finish(d * x, e * y / c, max_iter)


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
