"""Random QP generators, a finite-difference gradient check and a
full-system reference polish, shared by the solver and KKT-layer tests."""

import numpy as np
import scipy.linalg

from swarmcoord.qpcore import (
    QpInstance,
    QpSolution,
    SolveStatus,
    active_set,
    kkt_residuals,
    objective_value,
    solve,
)
from swarmcoord.qpdiff import backward, factorize, is_strictly_complementary


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
    """qp with an upper (x_i <= u_i) and a lower (-x_i <= -l_i) bound row
    appended per variable. The box holds the minimizer of another linear
    cost, a feasible point away from qp's own minimizer, so that some of
    the bounds are active."""
    x1 = solve(QpInstance(qp.Q, rng.normal(size=qp.num_vars) * 3.0, qp.G, qp.h, qp.R, qp.b)).x
    lo = x1 - rng.uniform(0.0, width, size=qp.num_vars)
    hi = x1 + rng.uniform(0.0, width, size=qp.num_vars)
    n = qp.num_vars
    return QpInstance(qp.Q, qp.q, np.vstack([qp.G, np.eye(n), -np.eye(n)]),
                      np.concatenate([qp.h, hi, -lo]), qp.R, qp.b)


def full_kkt(qp: QpInstance, active, reg):
    """The full active-set KKT matrix
    [[Q + reg I, G_actᵀ, Rᵀ], [G_act, -reg I, 0], [R, 0, -reg I]]."""
    n, m_act, p = qp.num_vars, int(np.count_nonzero(active)), qp.num_eq
    kkt = np.zeros((n + m_act + p,) * 2)
    kkt[:n, :n] = qp.Q + reg * np.eye(n)
    kkt[n:n + m_act, :n] = qp.G[active]
    kkt[:n, n:n + m_act] = qp.G[active].T
    kkt[n + m_act:, :n] = qp.R
    kkt[:n, n + m_act:] = qp.R.T
    kkt[n:, n:] = -reg * np.eye(m_act + p)
    return kkt


def reference_polish(qp: QpInstance, active, refine_rounds=25, reg=1e-11):
    """The active-set polish on the full KKT system, every active row kept:
    the same refinement and acceptance rules as qpcore's polish, one
    refinement round per factor. Returns (solution, final active mask), or
    None."""
    active = np.asarray(active, dtype=bool).copy()
    bound = np.count_nonzero(qp.G, axis=1) == 1
    n = qp.num_vars
    for _ in range(refine_rounds):
        m_act = int(active.sum())
        try:
            lu = scipy.linalg.lu_factor(full_kkt(qp, active, reg))
            sol = scipy.linalg.lu_solve(lu, np.concatenate([-qp.q, qp.h[active], qp.b]))
            lam = np.zeros(qp.num_ineq)
            lam[active] = sol[n:n + m_act]
            x, nu = sol[:n], sol[n + m_act:]
            res = np.concatenate([-qp.q - qp.Q @ x - qp.G.T @ lam - qp.R.T @ nu,
                                  (qp.h - qp.G @ x)[active], qp.b - qp.R @ x])
            sol = sol + scipy.linalg.lu_solve(lu, res)
        except (scipy.linalg.LinAlgError, ValueError):
            return None
        if not np.all(np.isfinite(sol)):
            return None
        x, nu = sol[:n], sol[n + m_act:]
        lam[active] = sol[n:n + m_act]
        lam_active = np.where(active, lam, np.inf)
        slack_inactive = np.where(active, np.inf, qp.h - qp.G @ x)
        if lam_active.min(initial=np.inf) < -1e-9:
            active[np.argmin(lam_active)] = False
        elif slack_inactive.min(initial=np.inf) < -1e-9:
            active[np.argmin(slack_inactive)] = True
            active |= bound & (slack_inactive < -1e-9)
        else:
            cand = QpSolution(x, np.maximum(lam, 0.0), nu, SolveStatus.OPTIMAL,
                              objective_value(qp, x), 0, polished=True)
            res = kkt_residuals(qp, cand)
            return (cand, active) if max(res.values()) <= 1e-6 else None
    return None


def assert_same_polish(qp: QpInstance, got: QpSolution, ref: QpSolution):
    """The same active set, and x, λ and ν within 1e-9 relative."""
    assert np.array_equal(active_set(qp, got), active_set(qp, ref))
    for a, b in ((got.x, ref.x), (got.ineq_duals, ref.ineq_duals), (got.eq_duals, ref.eq_duals)):
        scale = max(1.0, np.max(np.abs(b), initial=0.0))
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-9 * scale


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
