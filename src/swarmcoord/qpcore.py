"""Dense convex QP representation and solver.

Problem form:  min 1/2 x'Qx + q'x  s.t.  Gx <= h,  Rx = b,  x >= lb.

lb holds -inf where a variable has no bound. Every rule below reads a bound
as the row -x_i <= -lb_i with multiplier z_i >= 0, but no bound is a row of
G: the polish pins a variable whose bound is active, taking its column out
of the factored system, and the interior point adds a bound's λ/s to its
column's diagonal, as HPIPM does (Frison & Diehl, IFAC 2020).

The solver is a dense Mehrotra predictor-corrector interior point, followed
by an active-set polish that solves the KKT system of the identified active
rows and bounds to push all four KKT residuals to linear-solver accuracy.
Polished duals are what the differentiable KKT layer consumes. The interior
point starts its multipliers at max(1, ‖q‖∞), the scale of the slack
penalties in q (l_saf = 1e4 on a DMPC QP), so its first steps need not
climb there. Each Newton step factors only the columns that the constraints
couple: a column that no off-diagonal Q entry, no equality row and no shared
inequality row ties to another such column (every slack of a DMPC QP)
leaves the system through a diagonal Schur complement. Infeasibility is
read from certificates on the Newton directions, so no homogeneous
embedding is needed.

The active-set rule (active_set) and the factored active-set KKT system
(KktFactor, with the pinned variables taken out) are defined here once; the
polish, the DMPC warm hint and qpdiff use them.
"""

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
    SINGULAR = "singular"


# residual contract, shared with callers
TOL_STAT = 1e-6
TOL_EQ = 1e-6
TOL_INEQ = 1e-6
TOL_CS = 1e-6
# a row or bound is active when its dual exceeds ACT_TOL or its slack falls below it
ACT_TOL = 1e-6

# interior-point settings
STEP_FRACTION = 0.99    # of the step that would take s or λ to zero
POLISH_MU = 1e-3        # the first polish once sᵀλ/m falls below it
POLISH_ROUNDS = 5       # refinement rounds of a polish the interior point starts
REG = 1e-10             # diagonal regularization of the Newton system


def _probe_hessian(Q):
    """Raise QpError unless Q is symmetric to 1e-10 and positive semidefinite:
    a Cholesky of Q succeeds, or of Q with the documented 1e-9 diagonal
    shift. scipy's LAPACK: waking numpy's own OpenBLAS thread pool between
    the solver's calls costs more.
    """
    if np.max(np.abs(Q - Q.T), initial=0.0) > 1e-10:
        raise QpError("Q must be symmetric to 1e-10")
    for shift in (0.0, 1e-9):
        try:
            scipy.linalg.cholesky(Q + shift * np.eye(len(Q)))
            return
        except ValueError:  # LinAlgError, or a non-finite entry
            pass
    raise QpError("Q is not positive semidefinite")


class CheckedHessian:
    """A Hessian that passed QpInstance's symmetry and PSD probe.

    Constructing one runs the probe (QpError as QpInstance raises it) and
    copies Q into memory that no view can make writable again, so .matrix
    stays the matrix that was probed. QpInstance takes a CheckedHessian's
    matrix without probing it again; any other Q, read-only or not, is
    probed on every construction.
    """

    __slots__ = ("_matrix",)

    def __init__(self, Q):
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        _probe_hessian(Q)
        self._matrix = np.frombuffer(Q.tobytes(), dtype=float).reshape(Q.shape)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix


@dataclass
class QpInstance:
    """Dense QP data plus a named layout of the variable vector.

    lb defaults to -inf on every variable. layout maps a slice name (e.g.
    "w", "zeta", "eps", "delta") to a slice of the variable vector; it is
    bookkeeping for callers.

    Construction checks shapes and lb (no NaN, no +inf) and probes Q for
    symmetry and PSD. Q may be a CheckedHessian, whose probe ran when it was
    made; the instance then holds its read-only matrix. A DMPC instance is
    built so: its Q is a BasisBundle frame's, probed once when the bundle
    built the frame.
    """

    Q: np.ndarray | CheckedHessian
    q: np.ndarray
    G: np.ndarray
    h: np.ndarray
    R: np.ndarray
    b: np.ndarray
    lb: np.ndarray | None = None
    layout: dict = field(default_factory=dict)
    objective_constant: float = 0.0

    def __post_init__(self):
        checked = isinstance(self.Q, CheckedHessian)
        self.Q = self.Q.matrix if checked else np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.q = np.asarray(self.q, dtype=float).reshape(-1)
        n = self.q.size
        self.G = np.asarray(self.G, dtype=float).reshape(-1, n)
        self.h = np.asarray(self.h, dtype=float).reshape(-1)
        self.R = np.asarray(self.R, dtype=float).reshape(-1, n)
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        self.lb = (np.full(n, -np.inf) if self.lb is None
                   else np.asarray(self.lb, dtype=float).reshape(-1))
        if self.Q.shape != (n, n):
            raise QpError(f"Q is {self.Q.shape}, expected {(n, n)}")
        if self.G.shape[0] != self.h.size or self.R.shape[0] != self.b.size:
            raise QpError("constraint rows and right-hand sides disagree")
        if self.lb.size != n or np.isnan(self.lb).any() or (self.lb == np.inf).any():
            raise QpError(f"lb must have {n} entries, none NaN or +inf")
        if not checked:
            _probe_hessian(self.Q)

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
    bound_duals: np.ndarray | None = None   # z per variable, 0 where lb is -inf

    def __post_init__(self):
        if self.bound_duals is None:
            self.bound_duals = np.zeros(np.size(self.x))


def objective_value(qp: QpInstance, x) -> float:
    return float(0.5 * x @ (qp.Q @ x) + qp.q @ x)


def kkt_residuals(qp: QpInstance, sol: QpSolution) -> dict:
    """Max-norm KKT residuals {stationarity, primal_eq, primal_ineq,
    complementarity}; the bounds count as inequality rows."""
    return _kkt_residuals(qp, sol, qp.Q @ sol.x)


def _kkt_residuals(qp: QpInstance, sol: QpSolution, qx) -> dict:
    """kkt_residuals, given qx = Q x."""
    x, lam, nu, z = sol.x, sol.ineq_duals, sol.eq_duals, sol.bound_duals
    stat = qx + qp.q - z
    if qp.num_ineq:
        stat = stat + qp.G.T @ lam
    if qp.num_eq:
        stat = stat + qp.R.T @ nu
    viol = qp.G @ x - qp.h if qp.num_ineq else np.zeros(0)
    bnd = np.isfinite(qp.lb)
    viol_b = qp.lb[bnd] - x[bnd]
    largest = np.maximum.reduce
    return {
        "stationarity": float(largest(np.abs(stat), initial=0.0)),
        "primal_eq": float(largest(np.abs(qp.R @ x - qp.b), initial=0.0)) if qp.num_eq else 0.0,
        "primal_ineq": float(largest(np.concatenate([viol, viol_b]), initial=0.0)),
        "complementarity": float(largest(np.abs(np.concatenate([lam * viol, z[bnd] * viol_b])),
                                         initial=0.0)),
    }


def _meets_contract(res: dict) -> bool:
    return (res["stationarity"] <= TOL_STAT and res["primal_eq"] <= TOL_EQ
            and res["primal_ineq"] <= TOL_INEQ and res["complementarity"] <= TOL_CS)


def active_set(qp: QpInstance, sol: QpSolution):
    """(rows, bounds): boolean masks of the inequality rows and of the
    variable bounds that the solution holds active."""
    return ((sol.ineq_duals > ACT_TOL) | (qp.h - qp.G @ sol.x < ACT_TOL),
            (sol.bound_duals > ACT_TOL) | (sol.x - qp.lb < ACT_TOL))


class KktFactor:
    """LU factor of the KKT system of the QP with its active rows and pinned
    bounds as equalities, [[Q + reg I, G_actᵀ, -Eᵀ, Rᵀ], [G_act, -reg I, 0, 0],
    [-E, 0, 0, 0], [R, 0, 0, -reg I]] (x, λ_act, z_pin, ν) = rhs, with E the
    rows of I at the pinned variables (active bounds, the rows -x_i <= -lb_i).
    A pinned variable is fixed by its bound: it leaves the factored system
    with its bound, whose multiplier comes from the variable's stationarity
    row (Nocedal & Wright §16.5), both solved exactly, without reg.
    """

    def __init__(self, qp: QpInstance, active, pinned, reg):
        self.qp = qp
        self.rows, self.var = np.asarray(active).nonzero()[0], np.asarray(pinned).nonzero()[0]
        self.free = np.ones(qp.num_vars, dtype=bool)
        self.free[self.var] = False
        self.g_act, free = qp.G.take(self.rows, 0), self.free.nonzero()[0]
        g_free, r_free = self.g_act.take(free, 1), qp.R.take(free, 1)
        ng, nf = g_free.shape
        kkt = np.zeros((nf + ng + qp.num_eq,) * 2, order="F")  # LAPACK factors it in place
        kkt[:nf, :nf] = qp.Q.take(free, 0).take(free, 1)
        kkt[nf:nf + ng, :nf] = g_free
        kkt[:nf, nf:nf + ng] = g_free.T
        kkt[nf + ng:, :nf] = r_free
        kkt[:nf, nf + ng:] = r_free.T
        diag = kkt.reshape(-1, order="F")[::len(kkt) + 1]    # a view of the diagonal
        diag[:nf] += reg
        diag[nf:] = -reg
        self.lu = scipy.linalg.lu_factor(kkt, overwrite_a=True, check_finite=False)

    def solve(self, rhs):
        """The solution (x, λ_act, z_pin, ν) of the full system, stacked like rhs.

        The pinned variables take x = -r_pin, and the reduced right-hand side
        subtracts their share Q x, G_act x and R x. When r_pin is all zero
        that share is zero, and subtracting it leaves every entry as it was
        (v - 0 = v, up to the sign of a zero), so the three products are
        skipped. That holds in every DMPC solve and refinement, because the
        pinned slacks sit at lb = 0. The bound multipliers z still come from
        the stationarity rows of the pinned variables, with the original r_x.
        """
        qp, free, var = self.qp, self.free, self.var
        n, ng, nb = qp.num_vars, self.rows.size, var.size
        r_x, r_act = rhs[:n], rhs[n:n + ng]
        r_pin, r_eq = rhs[n + ng:n + ng + nb], rhs[n + ng + nb:]
        x = np.zeros(n)
        x[var] = -r_pin
        if r_pin.any():
            reduced = [(r_x - qp.Q @ x)[free], r_act - self.g_act @ x, r_eq - qp.R @ x]
        else:
            reduced = [r_x[free], r_act, r_eq]
        red = scipy.linalg.lu_solve(self.lu, np.concatenate(reduced), check_finite=False)
        nf = n - nb
        x[free], lam, nu = red[:nf], red[nf:nf + ng], red[nf + ng:]
        z = (qp.Q @ x + self.g_act.T @ lam + qp.R.T @ nu - r_x)[var]
        return np.concatenate([x, lam, z, nu])

    def unpack(self, sol):
        """(x, λ over all inequality rows, z over all variables, ν) of a
        stacked solution."""
        qp, ng, nb = self.qp, self.rows.size, self.var.size
        n, lam, z = qp.num_vars, np.zeros(qp.num_ineq), np.zeros(qp.num_vars)
        lam[self.rows] = sol[n:n + ng]
        z[self.var] = sol[n + ng:n + ng + nb]
        return sol[:n], lam, z, sol[n + ng + nb:]

    def refine(self, sol):
        """One refinement round against the unregularized full system."""
        qp, (x, lam, z, nu) = self.qp, self.unpack(sol)
        return sol + self.solve(np.concatenate([
            -qp.q - qp.Q @ x - qp.G.T @ lam + z - qp.R.T @ nu,
            (qp.h - qp.G @ x)[self.rows], (x - qp.lb)[self.var], qp.b - qp.R @ x]))


def _try_polish(qp: QpInstance, active, pinned, iterations,
                refine_rounds=25) -> QpSolution | None:
    """Polish with active-set refinement from the active rows and pinned bounds.

    Each round factors the candidate's KktFactor, solves with one
    refinement round, and drops the row or bound with the most negative
    multiplier or, if none, adds the most violated inactive row or bound.
    One row per round: changing many general rows at once lets dependent
    rows return multipliers of 1e9 and cycle. Violated bounds are added
    together, since each pins a single variable; a neighbour that joined a
    DMPC agent since its hint was taken brings 2 x horizon slack bounds at
    once. A candidate with no negative multiplier and no violation is
    accepted when it meets the residual contract; one that misses it at
    linear-solver accuracy (a row violation of 1.6e-10 against multipliers
    of 5e6) is refined again on the same factor while its largest residual
    falls, at most 3 more rounds, before it is rejected.
    """
    m, held = qp.num_ineq, np.concatenate([active, pinned]).astype(bool)
    for _ in range(refine_rounds):
        active, pinned = held[:m], held[m:]
        try:
            kkt = KktFactor(qp, active, pinned, 1e-11)
            sol = kkt.refine(kkt.solve(np.concatenate([-qp.q, qp.h[active], -qp.lb[pinned],
                                                       qp.b])))
        except (scipy.linalg.LinAlgError, ValueError):
            return None
        if not np.isfinite(sol).all():
            return None
        x, lam, z, nu = kkt.unpack(sol)
        mult = np.where(held, np.concatenate([lam, z]), np.inf)
        gap = np.where(held, np.inf, np.concatenate([qp.h - qp.G @ x, x - qp.lb]))
        if mult.min(initial=np.inf) < -1e-9:
            held[np.argmin(mult)] = False
        elif gap.min(initial=np.inf) < -1e-9:
            held[np.argmin(gap)] = True
            held[m:] |= gap[m:] < -1e-9
        else:
            worst = np.inf
            for extra in range(4):  # the candidate, then up to 3 more refinement rounds
                qx = qp.Q @ x   # shared by the objective and the residuals
                cand = QpSolution(x, np.maximum(lam, 0.0), nu, SolveStatus.OPTIMAL,
                                  float(0.5 * x @ qx + qp.q @ x), iterations, polished=True,
                                  bound_duals=np.maximum(z, 0.0))
                res = _kkt_residuals(qp, cand, qx)
                if _meets_contract(res):
                    return cand
                if extra == 3 or not max(res.values()) < worst:
                    return None
                worst = max(res.values())
                x, lam, z, nu = kkt.unpack(sol := kkt.refine(sol))
    return None


def _eliminable(qp: QpInstance) -> np.ndarray:
    """Mask of the columns with no off-diagonal Q entry, no R entry and no G
    row shared with another such column: their block of Q + Gᵀ W G is
    diagonal for any row weights W. On a DMPC QP these are the slacks."""
    diag = np.diag(qp.Q)
    cand = (np.count_nonzero(qp.Q, axis=0) == (diag != 0)) & ~np.any(qp.R, axis=0)
    shared = np.count_nonzero(qp.G[:, cand], axis=1) > 1
    cand[cand] = ~np.any(qp.G[np.ix_(shared, cand)], axis=0)
    return cand


def solve(qp: QpInstance, active_set_hint=None, bound_hint=None, max_iter=50) -> QpSolution:
    """Solve the QP to the residual contract (all four KKT residuals <= 1e-6).

    Otherwise the status says why: INFEASIBLE on a certificate of primal or
    dual infeasibility (an unbounded QP), MAX_ITER when max_iter iterations
    run out, SINGULAR when a Newton system is singular in floating point or
    not finite (multipliers of 1e7 against slacks of 1e-25 can leave Q below
    the rounding of Gᵀ W G), rather than raise.

    active_set_hint is a boolean mask over inequality rows, bound_hint one
    over variables (the bounds to pin; none if omitted). Together they are
    tried first as a polish candidate: up to 25 refinement rounds, each an
    LU factorization and solve of the KKT system of the free variables, the
    active rows and the equality rows. A solution from it reports 0
    iterations. A hint of the wrong length raises QpError.

    Otherwise a Mehrotra predictor-corrector interior point (Mehrotra 1992;
    Wright, Primal-Dual Interior-Point Methods, 1997) runs on Gx + s = h,
    s >= 0, each finite bound one more row -x_i + s = -lb_i with its own
    (s, λ) pair, from x = 0, s = max(h, 1), ν = 0 and λ = max(1, ‖q‖∞) on
    every row. That λ is the multiplier scale of linear slack penalties: a
    slack ζ >= 0 with cost l ζ that softens a row makes l = λ_row + λ_bound
    at the optimum, so the largest penalty in q bounds those multipliers,
    and on DESK (l_saf = 1e4) the steps run 0.75-0.99 long from the first
    one instead of 0.00-0.17 from λ = 1 (Gertz & Wright, OOQP, 2003, scale
    their start by the data the same way). Each iteration first examines
    its iterate: once the mean complementarity sᵀλ/m is at most POLISH_MU,
    the rows and bounds with λ > s go to a polish of at most POLISH_ROUNDS
    rounds, and a failed polish is tried again at a 10x smaller sᵀλ/m, where
    λ > s marks the optimal rows more closely. Then it takes one Newton
    step, factoring the Newton system once for the predictor and the
    corrector. With W = diag(λ / s) the system reduces to x and ν,
    [[Q + Gᵀ W G + W_b, Rᵀ], [R, 0]], a bound's λ/s in W_b on its column's
    diagonal; the columns that _eliminable finds leave it through a diagonal
    Schur complement (Rao, Wright & Rawlings 1998), so the LU covers only
    the coupled columns and the equality rows. Each step checks its
    direction for an infeasibility certificate, the bounds counted as rows:
    dλ >= 0 with Gᵀdλ + Rᵀdν ≈ 0 and hᵀdλ + bᵀdν < 0 (no x satisfies the
    rows), or dx with Q dx ≈ 0, G dx <= 0, R dx ≈ 0 and qᵀdx < 0 (the
    objective is unbounded below), each to 1e-8 of the direction's size.
    """
    n, m, p = qp.num_vars, qp.num_ineq, qp.num_eq
    pinned = np.zeros(n, dtype=bool) if bound_hint is None else np.asarray(bound_hint, bool)
    if pinned.shape != (n,) or (active_set_hint is not None and np.shape(active_set_hint) != (m,)):
        raise QpError(f"active_set_hint needs shape ({m},) and bound_hint ({n},), got "
                      f"{np.shape(active_set_hint)} and {pinned.shape}")

    if active_set_hint is not None:
        cand = _try_polish(qp, active_set_hint, pinned & np.isfinite(qp.lb), 0)
        if cand is not None:
            return cand

    Q, q, G, R, b = qp.Q, qp.q, qp.G, qp.R, qp.b
    bnd = np.flatnonzero(np.isfinite(qp.lb))
    h, mt = np.concatenate([qp.h, -qp.lb[bnd]]), m + bnd.size

    def per_var(y):  # the bound part of a vector over the rows, per variable
        out = np.zeros(n, dtype=y.dtype)
        out[bnd] = y[m:]
        return out

    def rows(v):  # [G; -I_bnd] v: the rows of G, then the bounds as rows
        return np.concatenate([G @ v, -v[bnd]])

    def rows_t(y):  # [G; -I_bnd]ᵀ y
        return G.T @ y[:m] - per_var(y)

    def result(status, objective, it):
        return QpSolution(x, lam[:m], nu, status, objective, it, bound_duals=per_var(lam))

    elim = _eliminable(qp)
    kept = ~elim
    nc = int(kept.sum())
    g_kept, g_elim, r_kept = G[:, kept], G[:, elim], R[:, kept]
    g_elim_sq, q_kept, q_elim = g_elim**2, Q[np.ix_(kept, kept)], np.diag(Q)[elim]
    diag = np.arange(nc + p)

    x, s, nu = np.zeros(n), np.maximum(h, 1.0), np.zeros(p)
    lam = np.full(mt, max(1.0, np.max(np.abs(q), initial=0.0)))
    mu_polish = POLISH_MU
    for it in range(1, max_iter + 1):
        if s @ lam <= mu_polish * mt:
            cand = _try_polish(qp, (lam > s)[:m], per_var(lam > s), it, POLISH_ROUNDS)
            if cand is not None:
                return cand
            mu_polish /= 10
        r_d = Q @ x + q + rows_t(lam) + R.T @ nu
        r_i = rows(x) + s - h
        r_e = R @ x - b
        w = lam / s
        w_b = per_var(w)  # the bound rows' share of the diagonal of [G; -I]ᵀ W [G; -I]
        wg_kept = w[:m, None] * g_kept
        cross = g_elim.T @ wg_kept  # the (elim, kept) block of Gᵀ W G
        d_inv = 1.0 / (q_elim + w[:m] @ g_elim_sq + w_b[elim] + REG)
        kkt = np.zeros((nc + p,) * 2, order="F")
        kkt[:nc, :nc] = q_kept + g_kept.T @ wg_kept - cross.T @ (d_inv[:, None] * cross)
        kkt[nc:, :nc] = r_kept
        kkt[:nc, nc:] = r_kept.T
        kkt[diag[:nc], diag[:nc]] += w_b[kept] + REG
        kkt[diag[nc:], diag[nc:]] = -REG
        lu = scipy.linalg.lu_factor(kkt, overwrite_a=True, check_finite=False)
        if not (np.all(np.isfinite(lu[0])) and np.all(np.diag(lu[0]))):
            return result(SolveStatus.SINGULAR, objective_value(qp, x), it)

        def newton(r_comp):
            # Λ ds + S dλ = -r_comp and G dx + ds = -r_i give dλ = t + W G dx
            t = (lam * r_i - r_comp) / s
            rhs_x = -r_d - rows_t(t)
            y_elim = d_inv * rhs_x[elim]
            red = scipy.linalg.lu_solve(lu, np.concatenate([rhs_x[kept] - cross.T @ y_elim, -r_e]),
                                        check_finite=False)
            dx = np.empty(n)
            dx[kept] = red[:nc]
            dx[elim] = y_elim - d_inv * (cross @ red[:nc])
            g_dx = rows(dx)
            return dx, -r_i - g_dx, t + w * g_dx, red[nc:]

        comp = s * lam
        dx, ds, dlam, dnu = newton(comp)
        alpha = min(1.0, _max_step(s, ds), _max_step(lam, dlam))
        mu = comp.sum() / max(mt, 1)
        mu_aff = (s + alpha * ds) @ (lam + alpha * dlam) / max(mt, 1)
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0
        dx, ds, dlam, dnu = newton(comp + ds * dlam - sigma * mu)

        if _certificate(qp, rows, rows_t, h, dx, dlam, dnu):
            return result(SolveStatus.INFEASIBLE, np.nan, it)
        alpha = min(1.0, STEP_FRACTION * min(_max_step(s, ds), _max_step(lam, dlam)))
        x, s, lam, nu = x + alpha * dx, s + alpha * ds, lam + alpha * dlam, nu + alpha * dnu

    return result(SolveStatus.MAX_ITER, objective_value(qp, x), max_iter)


def _max_step(v, dv):
    """The largest step along dv that keeps v >= 0 (inf if none limits it)."""
    neg = dv < 0
    return np.min(-v[neg] / dv[neg], initial=np.inf)


def _certificate(qp: QpInstance, rows, rows_t, h, dx, dlam, dnu) -> bool:
    """Whether a Newton direction certifies primal or dual infeasibility;
    rows, rows_t and h are the interior point's rows, bounds included."""
    tol = 1e-8
    scale = np.max(np.abs(np.concatenate([dlam, dnu])), initial=0.0)
    if scale > 0 and np.all(dlam >= -tol * scale):
        stat = rows_t(dlam) + qp.R.T @ dnu
        if (np.max(np.abs(stat), initial=0.0) <= tol * scale
                and h @ dlam + qp.b @ dnu < -tol * scale):
            return True
    scale = np.max(np.abs(dx), initial=0.0)
    return bool(scale > 0
                and np.max(np.abs(qp.Q @ dx), initial=0.0) <= tol * scale
                and np.all(rows(dx) <= tol * scale)
                and np.max(np.abs(qp.R @ dx), initial=0.0) <= tol * scale
                and qp.q @ dx < -tol * scale)
