import numpy as np
import pytest

from swarmcoord.qpcore import QpInstance, SolveStatus, solve
from swarmcoord.qpdiff import (
    KktSingularError,
    backward,
    factorize,
    is_strictly_complementary,
)

from qp_testing import grad_check, random_feasible_qp


def small_random_qp(rng):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, n + 3))
    p = int(rng.integers(0, max(1, n - 1)))
    return random_feasible_qp(rng, n=n, m=m, p=p)


def test_unconstrained_gradient_closed_form():
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(4, 4))
    Q = mat.T @ mat + np.eye(4)
    q = rng.normal(size=4)
    qp = QpInstance(Q, q, np.zeros((0, 4)), np.zeros(0), np.zeros((0, 4)), np.zeros(0))
    sol = solve(qp)
    fact = factorize(qp, sol)
    dl_dx = rng.normal(size=4)
    grads = backward(fact, dl_dx)
    # x* = -Q^{-1} q  =>  dL/dq = -Q^{-1} dL/dx
    assert np.allclose(grads["dq"], -np.linalg.solve(Q, dl_dx), atol=1e-9)


def test_inactive_row_gradient_is_zero():
    qp = QpInstance([[1.0]], [0.0], [[-1.0], [1.0]], [-1.0, 100.0],
                    np.zeros((0, 1)), np.zeros(0))
    sol = solve(qp)
    grads = backward(factorize(qp, sol), np.array([1.0]))
    assert grads["dh"][1] == 0.0
    assert np.all(grads["dG"][1] == 0.0)


def test_bound_example_dh_analytic():
    # x >= 1, loss = x: x* sits on the boundary, dL/dh = -1
    qp = QpInstance([[1.0]], [0.0], [[-1.0]], [-1.0], np.zeros((0, 1)), np.zeros(0))
    sol = solve(qp)
    grads = backward(factorize(qp, sol), np.array([1.0]))
    assert grads["dh"][0] == pytest.approx(-1.0, abs=1e-9)


def test_zero_loss_gradient_gives_zero_blocks():
    rng = np.random.default_rng(1)
    qp = small_random_qp(rng)
    sol = solve(qp)
    grads = backward(factorize(qp, sol), np.zeros(qp.num_vars))
    for block in grads.values():
        assert np.all(block == 0.0)


def test_backward_linear_in_dl_dx():
    rng = np.random.default_rng(2)
    qp = small_random_qp(rng)
    fact = factorize(qp, solve(qp))
    g1, g2 = rng.normal(size=qp.num_vars), rng.normal(size=qp.num_vars)
    a, b = 1.7, -0.4
    combo = backward(fact, a * g1 + b * g2)
    parts1, parts2 = backward(fact, g1), backward(fact, g2)
    for key in combo:
        assert np.allclose(combo[key], a * parts1[key] + b * parts2[key], atol=1e-9)


def test_danskin_objective_gradient_wrt_q():
    # d(optimal objective)/dq = x*
    rng = np.random.default_rng(3)
    for _ in range(5):
        qp = small_random_qp(rng)
        sol = solve(qp)
        step = 1e-6
        for i in range(qp.num_vars):
            q_hi, q_lo = qp.q.copy(), qp.q.copy()
            q_hi[i] += step
            q_lo[i] -= step
            hi = solve(QpInstance(qp.Q, q_hi, qp.G, qp.h, qp.R, qp.b)).objective
            lo = solve(QpInstance(qp.Q, q_lo, qp.G, qp.h, qp.R, qp.b)).objective
            assert (hi - lo) / (2 * step) == pytest.approx(sol.x[i], abs=1e-5)


def test_grad_check_random_batch():
    rng = np.random.default_rng(4)
    passed = skipped = 0
    total = 30
    for _ in range(total):
        qp = small_random_qp(rng)
        direction = rng.normal(size=qp.num_vars)
        loss = lambda x, d=direction: float(d @ x)
        loss_grad = lambda x, d=direction: d
        report = grad_check(qp, loss, loss_grad)
        if not report["strictly_complementary"]:
            skipped += 1
            continue
        errs = {k: v for k, v in report.items() if k != "strictly_complementary"}
        if max(errs.values()) < 1e-4:
            passed += 1
    assert passed >= 0.95 * (total - skipped)


def test_quadratic_loss_grad_check():
    rng = np.random.default_rng(5)
    qp = small_random_qp(rng)
    target = rng.normal(size=qp.num_vars)
    loss = lambda x: float(np.sum((x - target) ** 2))
    loss_grad = lambda x: 2 * (x - target)
    report = grad_check(qp, loss, loss_grad)
    if report["strictly_complementary"]:
        errs = {k: v for k, v in report.items() if k != "strictly_complementary"}
        assert max(errs.values()) < 1e-4


def test_loss_independent_of_x_gives_zero():
    rng = np.random.default_rng(6)
    qp = small_random_qp(rng)
    report = grad_check(qp, lambda x: 3.14, lambda x: np.zeros(qp.num_vars))
    errs = {k: v for k, v in report.items() if k != "strictly_complementary"}
    assert max(errs.values()) == 0.0


def test_singular_active_set_raises_with_diagnostics():
    # duplicated active rows make the reduced KKT matrix singular
    qp = QpInstance([[1.0]], [0.0], [[-1.0], [-1.0]], [-1.0, -1.0],
                    np.zeros((0, 1)), np.zeros(0))
    sol = solve(qp)
    sol.ineq_duals = np.array([0.5, 0.5])  # both rows flagged active
    with pytest.raises(KktSingularError) as exc_info:
        factorize(qp, sol)
    assert exc_info.value.active_set.sum() == 2
    # damped retry succeeds
    fact = factorize(qp, sol, damping=1e-8)
    grads = backward(fact, np.array([1.0]))
    assert np.isfinite(grads["dh"]).all()


def test_nan_in_an_active_row_raises_kkt_singular():
    # The factor skips scipy's finiteness check; its pivot probe still
    # rejects a KKT matrix that holds a NaN.
    qp = QpInstance([[1.0]], [0.0], [[-1.0]], [-1.0], np.zeros((0, 1)), np.zeros(0))
    sol = solve(qp)
    hostile = QpInstance(qp.Q, qp.q, [[np.nan]], qp.h, qp.R, qp.b)
    with pytest.raises(KktSingularError):
        factorize(hostile, sol)


def test_bound_example_dlb_analytic():
    # x >= 1 as a bound, loss = x: x* = lb, dL/dlb = 1, and no row
    qp = QpInstance([[1.0]], [0.0], np.zeros((0, 1)), np.zeros(0), np.zeros((0, 1)),
                    np.zeros(0), [1.0])
    sol = solve(qp)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.bound_duals[0] == pytest.approx(1.0, abs=1e-9)
    grads = backward(factorize(qp, sol), np.array([1.0]))
    assert grads["dlb"][0] == pytest.approx(1.0, abs=1e-12)
    assert grads["dq"][0] == pytest.approx(0.0, abs=1e-12)


def test_non_optimal_solution_rejected():
    rng = np.random.default_rng(8)
    qp = small_random_qp(rng)
    sol = solve(qp)
    sol.status = SolveStatus.MAX_ITER
    with pytest.raises(ValueError):
        factorize(qp, sol)


def test_strict_complementarity_detector():
    qp = QpInstance([[1.0]], [0.0], [[-1.0]], [0.0], np.zeros((0, 1)), np.zeros(0))
    sol = solve(qp)  # x* = 0 with the constraint exactly touching: degenerate
    assert not is_strictly_complementary(qp, sol)
