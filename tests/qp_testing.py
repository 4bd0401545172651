"""Random QP generators, a strict-complementarity test, a finite-difference
gradient check, the expansion of variable bounds into rows of G and a
full-system reference polish, shared by the solver and KKT-layer tests."""

import numpy as np
import scipy.linalg

from swarmcoord.qpcore import (
    ACT_TOL,
    QpInstance,
    QpSolution,
    SolveStatus,
    active_set,
    kkt_residuals,
    objective_value,
    solve,
)
from swarmcoord.qpdiff import backward, factorize


def is_strictly_complementary(qp: QpInstance, sol: QpSolution) -> bool:
    """No active inequality row or bound may have a dual at or below
    ACT_TOL, i.e. be held active by its slack alone."""
    rows, bounds = active_set(qp, sol)
    return not (np.any(rows & (sol.ineq_duals <= ACT_TOL))
                or np.any(bounds & (sol.bound_duals <= ACT_TOL)))


def random_feasible_qp(rng, n=None, m=None, p=None, scale=1.0):
    """Feasible random QP: h gets a positive margin at a known feasible point."""
    n = n or rng.integers(2, 21)
    m = m if m is not None else int(rng.integers(1, 2 * n))
    p = p if p is not None else int(rng.integers(0, max(1, n // 2)))
    mat = rng.normal(size=(n, n))
    Q = mat.T @ mat / n + 0.1 * np.eye(n)
    q = rng.normal(size=n) * scale
    x_feas = rng.normal(size=n)
    G = rng.normal(size=(m, n))
    h = G @ x_feas + rng.uniform(0.1, 1.0, size=m)
    R = rng.normal(size=(p, n))
    b = R @ x_feas
    return QpInstance(Q, q, G, h, R, b)


def with_bound_rows(qp: QpInstance, rng, width=0.5):
    """qp with an upper bound row (x_i <= u_i) appended per variable and a
    lower bound (x_i >= l_i) in lb. The box holds the minimizer of another
    linear cost, a feasible point away from qp's own minimizer, so that some
    of the bounds are active."""
    x1 = solve(QpInstance(qp.Q, rng.normal(size=qp.num_vars) * 3.0, qp.G, qp.h, qp.R, qp.b)).x
    lo = x1 - rng.uniform(0.0, width, size=qp.num_vars)
    hi = x1 + rng.uniform(0.0, width, size=qp.num_vars)
    return QpInstance(qp.Q, qp.q, np.vstack([qp.G, np.eye(qp.num_vars)]),
                      np.concatenate([qp.h, hi]), qp.R, qp.b, lb=lo)


def with_lb_as_rows(qp: QpInstance) -> QpInstance:
    """The same QP with each finite bound x_i >= lb_i written as the row
    -x_i <= -lb_i, appended to G in variable order, and no lb."""
    bnd = np.flatnonzero(np.isfinite(qp.lb))
    return QpInstance(qp.Q, qp.q, np.vstack([qp.G, -np.eye(qp.num_vars)[bnd]]),
                      np.concatenate([qp.h, -qp.lb[bnd]]), qp.R, qp.b,
                      layout=qp.layout, objective_constant=qp.objective_constant)


def full_kkt(qp: QpInstance, active, pinned, reg):
    """The full active-set KKT matrix in (x, λ_act, z_pin, ν), with E the
    rows of I at the pinned variables, as qpcore.KktFactor defines it:
    [[Q + reg I, G_actᵀ, -Eᵀ, Rᵀ], [G_act, -reg I, 0, 0], [-E, 0, 0, 0],
     [R, 0, 0, -reg I]]."""
    g_act, e_pin = qp.G[active], np.eye(qp.num_vars)[pinned]
    n, m_act, n_pin, p = qp.num_vars, len(g_act), len(e_pin), qp.num_eq
    rows = np.vstack([g_act, -e_pin, qp.R])
    kkt = np.zeros((n + len(rows),) * 2)
    kkt[:n, :n] = qp.Q + reg * np.eye(n)
    kkt[n:, :n] = rows
    kkt[:n, n:] = rows.T
    kkt[n:, n:] = -reg * np.diag(np.repeat([1.0, 0.0, 1.0], [m_act, n_pin, p]))
    return kkt


def reference_polish(qp: QpInstance, active, pinned, refine_rounds=25, reg=1e-11):
    """The active-set polish on the full KKT system (full_kkt), every active
    row and pinned bound kept: the same refinement and acceptance rules as
    qpcore's polish, one refinement round per factor. Returns (solution,
    (final active rows, final pinned bounds)), or None."""
    held = np.concatenate([active, pinned]).astype(bool)
    n, m = qp.num_vars, qp.num_ineq
    for _ in range(refine_rounds):
        active, pinned = held[:m], held[m:]
        m_act, n_pin = int(active.sum()), int(pinned.sum())
        lam, z = np.zeros(m), np.zeros(n)
        try:
            lu = scipy.linalg.lu_factor(full_kkt(qp, active, pinned, reg))
            sol = scipy.linalg.lu_solve(lu, np.concatenate([-qp.q, qp.h[active], -qp.lb[pinned],
                                                            qp.b]))
            x, nu = sol[:n], sol[n + m_act + n_pin:]
            lam[active], z[pinned] = sol[n:n + m_act], sol[n + m_act:n + m_act + n_pin]
            res = np.concatenate([-qp.q - qp.Q @ x - qp.G.T @ lam + z - qp.R.T @ nu,
                                  (qp.h - qp.G @ x)[active], (x - qp.lb)[pinned],
                                  qp.b - qp.R @ x])
            sol = sol + scipy.linalg.lu_solve(lu, res)
        except (scipy.linalg.LinAlgError, ValueError):
            return None
        if not np.all(np.isfinite(sol)):
            return None
        x, nu = sol[:n], sol[n + m_act + n_pin:]
        lam[active], z[pinned] = sol[n:n + m_act], sol[n + m_act:n + m_act + n_pin]
        mult = np.where(held, np.concatenate([lam, z]), np.inf)
        gap = np.where(held, np.inf, np.concatenate([qp.h - qp.G @ x, x - qp.lb]))
        if mult.min(initial=np.inf) < -1e-9:
            held[np.argmin(mult)] = False
        elif gap.min(initial=np.inf) < -1e-9:
            held[np.argmin(gap)] = True
            held[m:] |= gap[m:] < -1e-9
        else:
            cand = QpSolution(x, np.maximum(lam, 0.0), nu, SolveStatus.OPTIMAL,
                              objective_value(qp, x), 0, polished=True,
                              bound_duals=np.maximum(z, 0.0))
            res = kkt_residuals(qp, cand)
            return (cand, (active, pinned)) if max(res.values()) <= 1e-6 else None
    return None


def assert_same_polish(qp: QpInstance, got: QpSolution, ref: QpSolution):
    """The same active rows and bounds, and x, λ, z and ν within 1e-9 relative."""
    for a, b in zip(active_set(qp, got), active_set(qp, ref)):
        assert np.array_equal(a, b)
    for a, b in ((got.x, ref.x), (got.ineq_duals, ref.ineq_duals),
                 (got.bound_duals, ref.bound_duals), (got.eq_duals, ref.eq_duals)):
        scale = max(1.0, np.max(np.abs(b), initial=0.0))
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-9 * scale


def assert_bound_form_matches_row_form(qp: QpInstance) -> QpSolution:
    """solve gives the same x and objective, within 1e-9 relative, on qp and
    on with_lb_as_rows(qp); returns qp's solution."""
    got, want = solve(qp), solve(with_lb_as_rows(qp))
    assert got.status == want.status == SolveStatus.OPTIMAL
    assert np.max(np.abs(got.x - want.x)) <= 1e-9 * max(1.0, np.max(np.abs(want.x)))
    assert abs(got.objective - want.objective) <= 1e-9 * max(1.0, abs(want.objective))
    return got


def dlb_check(qp: QpInstance, sol: QpSolution, dl_dx, step=1e-3):
    """backward's dlb for the loss dl_dx @ x against central differences of
    that loss in each finite bound whose +-step moves keep sol's active rows
    and bounds: x is affine in lb there, so the differences are exact up to
    rounding. Returns (largest difference relative to max(1, largest central
    difference), number of bounds compared, number of finite bounds)."""
    held = active_set(qp, sol)
    dlb = backward(factorize(qp, sol), dl_dx)["dlb"]
    finite = np.flatnonzero(np.isfinite(qp.lb))
    analytic, central = [], []
    for i in finite:
        sides = []
        for sign in (1.0, -1.0):
            lb = qp.lb.copy()
            lb[i] += sign * step
            moved = QpInstance(qp.Q, qp.q, qp.G, qp.h, qp.R, qp.b, lb)
            got = solve(moved, active_set_hint=held[0], bound_hint=held[1])
            if got.status == SolveStatus.OPTIMAL and all(
                    np.array_equal(a, b) for a, b in zip(active_set(moved, got), held)):
                sides.append(dl_dx @ got.x)
        if len(sides) == 2:
            analytic.append(dlb[i])
            central.append((sides[0] - sides[1]) / (2 * step))
    err = np.max(np.abs(np.subtract(analytic, central)), initial=0.0)
    return err / max(1.0, np.max(np.abs(central), initial=0.0)), len(central), finite.size


def random_box_qp(rng, lo=-1.0, hi=1.0):
    """2-variable QP over a box, modest conditioning for the grid oracle."""
    mat = rng.normal(size=(2, 2))
    Q = mat.T @ mat + 0.5 * np.eye(2)
    Q *= 2.0 / np.max(np.abs(Q))
    q = rng.uniform(-2.0, 2.0, size=2)
    G = np.vstack([np.eye(2), -np.eye(2)])
    h = np.array([hi, hi, -lo, -lo])
    return QpInstance(Q, q, G, h, np.zeros((0, 2)), np.zeros(0)), (lo, hi)


def grid_search_objective(qp, lo, hi, points=2001):
    """Dense lattice minimum of the box QP objective (oracle)."""
    xs = np.linspace(lo, hi, points)
    x0, x1 = np.meshgrid(xs, xs, indexing="ij")
    vals = (0.5 * (qp.Q[0, 0] * x0**2 + 2 * qp.Q[0, 1] * x0 * x1 + qp.Q[1, 1] * x1**2)
            + qp.q[0] * x0 + qp.q[1] * x1)
    return float(vals.min())


def _fd_gradient(qp: QpInstance, loss, block, index, step):
    """Central finite difference of loss(x*) wrt one entry, re-solving the QP."""

    def perturbed(delta):
        Q, q, G, h, R, b = (qp.Q.copy(), qp.q.copy(), qp.G.copy(),
                            qp.h.copy(), qp.R.copy(), qp.b.copy())
        if block == "Q":
            i, j = index
            Q[i, j] += delta
            if i != j:
                Q[j, i] += delta  # keep symmetry; gradient compared pairwise
        elif block == "q":
            q[index] += delta
        elif block == "G":
            G[index] += delta
        elif block == "h":
            h[index] += delta
        elif block == "R":
            R[index] += delta
        elif block == "b":
            b[index] += delta
        sol = solve(QpInstance(Q, q, G, h, R, b))
        if sol.status != SolveStatus.OPTIMAL:
            raise RuntimeError("finite-difference probe left the feasible regime")
        return loss(sol.x)

    return (perturbed(step) - perturbed(-step)) / (2 * step)


def grad_check(qp: QpInstance, loss, loss_grad, step=1e-5, damping=0.0) -> dict:
    """Compare backward() to central finite differences for every block.

    loss maps x* to a scalar; loss_grad maps x* to dL/dx*. Returns per-block
    max relative errors plus a strict-complementarity flag; callers exclude
    non-strictly-complementary instances from pass/fail decisions.
    """
    sol = solve(qp)
    if sol.status != SolveStatus.OPTIMAL:
        raise ValueError("instance not solvable to optimality")
    report = {"strictly_complementary": is_strictly_complementary(qp, sol)}
    fact = factorize(qp, sol, damping=damping)
    grads = backward(fact, loss_grad(sol.x))

    n, m, p = qp.num_vars, qp.num_ineq, qp.num_eq
    blocks = {
        "q": [(("q", i), grads["dq"][i]) for i in range(n)],
        "Q": [(("Q", (i, j)), grads["dQ"][i, j] * (2.0 if i != j else 1.0))
              for i in range(n) for j in range(i, n)],
        "h": [(("h", i), grads["dh"][i]) for i in range(m)],
        "G": [(("G", (i, j)), grads["dG"][i, j]) for i in range(m) for j in range(n)],
        "b": [(("b", i), grads["db"][i]) for i in range(p)],
        "R": [(("R", (i, j)), grads["dR"][i, j]) for i in range(p) for j in range(n)],
    }
    for name, entries in blocks.items():
        if not entries:
            report[name] = 0.0
            continue
        analytic = np.array([val for _, val in entries])
        fd = np.array([_fd_gradient(qp, loss, blk, idx, step) for (blk, idx), _ in entries])
        report[name] = float(np.max(np.abs(analytic - fd)) / max(1.0, np.max(np.abs(fd))))
    return report
