import json

import numpy as np
import pytest

from swarmcoord.qpcore import (
    QpError,
    QpInstance,
    SolveStatus,
    dump_instance,
    kkt_residuals,
    objective_value,
    solve,
)

from qp_testing import grid_search_objective, random_box_qp, random_feasible_qp


def test_unconstrained_quadratic():
    a = np.array([1.0, -2.0, 0.5])
    qp = QpInstance(np.eye(3), -a, np.zeros((0, 3)), np.zeros(0), np.zeros((0, 3)), np.zeros(0))
    sol = solve(qp)
    assert sol.status == SolveStatus.OPTIMAL
    assert np.allclose(sol.x, a, atol=1e-8)


def test_active_bound():
    # min 1/2 x^2 s.t. x >= 1  ->  x* = 1, lambda* = 1
    qp = QpInstance([[1.0]], [0.0], [[-1.0]], [-1.0], np.zeros((0, 1)), np.zeros(0))
    sol = solve(qp)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-8)
    assert sol.ineq_duals[0] == pytest.approx(1.0, abs=1e-8)


def test_grid_search_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        qp, (lo, hi) = random_box_qp(rng)
        sol = solve(qp)
        assert sol.status == SolveStatus.OPTIMAL
        expected = grid_search_objective(qp, lo, hi)
        assert abs(sol.objective - expected) < 1e-4


def test_residual_contract_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(40):
        qp = random_feasible_qp(rng)
        sol = solve(qp)
        assert sol.status == SolveStatus.OPTIMAL
        res = kkt_residuals(qp, sol)
        assert all(v <= 1e-6 for v in res.values()), res


def test_kkt_residuals_exact_solution():
    qp = QpInstance([[1.0]], [0.0], [[-1.0]], [-1.0], np.zeros((0, 1)), np.zeros(0))
    from swarmcoord.qpcore import QpSolution
    sol = QpSolution(np.array([1.0]), np.array([1.0]), np.zeros(0),
                     SolveStatus.OPTIMAL, 0.5, 0)
    res = kkt_residuals(qp, sol)
    assert all(v < 1e-14 for v in res.values())


def test_residual_linear_response_to_perturbation():
    a = np.array([2.0, -1.0])
    qp = QpInstance(np.eye(2), -a, np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)), np.zeros(0))
    sol = solve(qp)
    sol.x = sol.x + np.array([1e-3, 0.0])
    res = kkt_residuals(qp, sol)
    assert res["stationarity"] == pytest.approx(1e-3, rel=1e-6)


def test_infeasible_detection():
    # x <= 0 and x >= 1 simultaneously
    qp = QpInstance([[1.0]], [0.0], [[1.0], [-1.0]], [0.0, -1.0],
                    np.zeros((0, 1)), np.zeros(0))
    sol = solve(qp)
    assert sol.status == SolveStatus.INFEASIBLE


def test_equality_constrained():
    rng = np.random.default_rng(3)
    qp = random_feasible_qp(rng, n=6, m=4, p=2)
    sol = solve(qp)
    assert sol.status == SolveStatus.OPTIMAL
    assert np.max(np.abs(qp.R @ sol.x - qp.b)) < 1e-6


def test_constraint_removal_monotone():
    rng = np.random.default_rng(11)
    for _ in range(15):
        qp = random_feasible_qp(rng, n=5, m=6, p=0)
        base = solve(qp).objective
        drop = int(rng.integers(0, qp.num_ineq))
        keep = np.ones(qp.num_ineq, dtype=bool)
        keep[drop] = False
        relaxed = QpInstance(qp.Q, qp.q, qp.G[keep], qp.h[keep], qp.R, qp.b)
        assert solve(relaxed).objective <= base + 1e-8


def test_warm_start_objective_stable():
    rng = np.random.default_rng(13)
    for _ in range(10):
        qp = random_feasible_qp(rng, n=8)
        cold = solve(qp)
        warm = solve(qp, warm_start=cold.x + rng.normal(size=8) * 0.1)
        assert abs(cold.objective - warm.objective) < 1e-8


def test_objective_scaling_invariance():
    rng = np.random.default_rng(17)
    qp = random_feasible_qp(rng, n=5, m=7, p=1)
    sol = solve(qp)
    c = 3.7
    scaled = QpInstance(c * qp.Q, c * qp.q, qp.G, qp.h, qp.R, qp.b)
    sol_c = solve(scaled)
    assert np.allclose(sol.x, sol_c.x, atol=1e-6)
    assert np.allclose(c * sol.ineq_duals, sol_c.ineq_duals, atol=1e-5)
    assert np.allclose(c * sol.eq_duals, sol_c.eq_duals, atol=1e-5)


def test_active_set_hint_short_circuit():
    rng = np.random.default_rng(19)
    qp = random_feasible_qp(rng, n=6, m=8, p=1)
    sol = solve(qp)
    active = sol.ineq_duals > 1e-6
    hinted = solve(qp, active_set_hint=active)
    assert hinted.iterations == 0
    assert abs(hinted.objective - sol.objective) < 1e-8


def test_asymmetric_q_rejected():
    with pytest.raises(QpError):
        QpInstance([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0],
                   np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)), np.zeros(0))


def test_indefinite_q_rejected():
    with pytest.raises(QpError):
        QpInstance([[-1.0]], [0.0], np.zeros((0, 1)), np.zeros(0),
                   np.zeros((0, 1)), np.zeros(0))


def test_psd_singular_q_accepted():
    qp = QpInstance([[1.0, 0.0], [0.0, 0.0]], [1.0, 0.0],
                    [[0.0, -1.0]], [2.0], np.zeros((0, 2)), np.zeros(0))
    assert qp.num_vars == 2


def test_dump_instance(tmp_path):
    rng = np.random.default_rng(23)
    qp = random_feasible_qp(rng, n=3, m=2, p=1)
    qp.layout = {"w": slice(0, 2), "eps": slice(2, 3)}
    path = tmp_path / "qp.json"
    dump_instance(qp, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == "swarmcoord-qp/1"
    assert doc["shapes"]["G"] == [2, 3]
    assert doc["layout"]["eps"] == [2, 3]
    assert np.allclose(doc["Q"], qp.Q)


def test_objective_value_matches_solution_field():
    rng = np.random.default_rng(29)
    qp = random_feasible_qp(rng, n=4)
    sol = solve(qp)
    assert sol.objective == pytest.approx(objective_value(qp, sol.x))


def test_equality_rows_without_inequality_rows():
    # min 1/2|x|^2 + x1 - x2 s.t. x1 + x2 = 1  ->  x* = (-0.5, 1.5), nu* = -0.5
    qp = QpInstance(np.eye(2), [1.0, -1.0], np.zeros((0, 2)), np.zeros(0), [[1.0, 1.0]], [1.0])
    for hint in (None, np.zeros(0, dtype=bool)):
        sol = solve(qp, active_set_hint=hint)
        assert sol.status == SolveStatus.OPTIMAL
        assert np.allclose(sol.x, [-0.5, 1.5], atol=1e-8)
        assert np.allclose(sol.eq_duals, [-0.5], atol=1e-8)
        assert all(v <= 1e-6 for v in kkt_residuals(qp, sol).values())


@pytest.mark.parametrize("diag, q", [((0.0, 0.0), (1.0, 0.0)), ((1.0, 0.0), (0.0, 1.0))])
def test_unbounded_without_rows_not_optimal(diag, q):
    # no constraint rows and a direction of unbounded descent: no minimizer
    qp = QpInstance(np.diag(diag), q, np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)), np.zeros(0))
    sol = solve(qp)
    assert sol.status == SolveStatus.INFEASIBLE


@pytest.mark.parametrize("row_scale, cost_scale", [(1e-3, 1.0), (1e3, 1.0), (1.0, 1e4)])
def test_badly_scaled_data(row_scale, cost_scale):
    # Rows far from unit size, or a linear cost of 1e4 (like l_saf) against
    # unit Q: the same minimizer as the unscaled rows, or as the objective
    # divided by cost_scale, and the contract holds on the given data.
    rng = np.random.default_rng(37)
    for _ in range(10):
        qp = random_feasible_qp(rng)
        base = solve(QpInstance(qp.Q / cost_scale, qp.q, qp.G, qp.h, qp.R, qp.b))
        scaled = QpInstance(qp.Q, cost_scale * qp.q, row_scale * qp.G, row_scale * qp.h,
                            row_scale * qp.R, row_scale * qp.b)
        sol = solve(scaled)
        assert base.status == sol.status == SolveStatus.OPTIMAL
        assert all(v <= 1e-6 for v in kkt_residuals(scaled, sol).values())
        assert np.max(np.abs(sol.x - base.x)) <= 1e-6


@pytest.mark.parametrize("diag, q, rows, rhs", [
    ((1.0,), (0.0,), [[1.0], [-1.0]], [0.0, -1.0]),                # infeasible
    ((0.0, 0.0), (1.0, 0.0), [[1.0, 0.0]], [1.0]),                 # unbounded below in x0
    ((1.0, 0.0), (0.0, 1.0), [[1.0, 0.0]], [1.0]),                 # unbounded below in x1
])
def test_certificates_on_rows_scaled_by_1e4(diag, q, rows, rhs):
    n = len(diag)
    qp = QpInstance(np.diag(diag), q, 1e4 * np.array(rows), 1e4 * np.array(rhs),
                    np.zeros((0, n)), np.zeros(0))
    assert solve(qp).status == SolveStatus.INFEASIBLE
