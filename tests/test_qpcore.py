import json

import numpy as np
import pytest
import scipy.linalg

from swarmcoord.qpcore import (
    KktFactor,
    QpError,
    QpInstance,
    SolveStatus,
    _try_polish,
    active_set,
    dump_instance,
    kkt_residuals,
    objective_value,
    solve,
)

from qp_testing import (
    assert_same_polish,
    full_kkt,
    grid_search_objective,
    random_box_qp,
    random_feasible_qp,
    reference_polish,
    with_bound_rows,
)


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


@pytest.mark.parametrize("Q", [
    # indefinite coupled block, positive diagonal tail
    [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]],
    # positive definite coupled block, negative tail entry
    [[2.0, 0.0, 1.0], [0.0, -1e-3, 0.0], [1.0, 0.0, 2.0]],
])
def test_indefinite_q_rejected_with_diagonal_tail(Q):
    n = len(Q)
    with pytest.raises(QpError):
        QpInstance(Q, np.zeros(n), np.zeros((0, n)), np.zeros(0), np.zeros((0, n)), np.zeros(0))


def test_psd_probe_matches_full_cholesky():
    # The probe factors only the coupled columns; it must accept exactly
    # what a Cholesky of all of Q, or of Q + 1e-9 I, accepts.
    def full_probe(Q):
        for shift in (0.0, 1e-9):
            try:
                scipy.linalg.cholesky(Q + shift * np.eye(len(Q)))
                return True
            except np.linalg.LinAlgError:
                pass
        return False

    rng = np.random.default_rng(41)
    verdicts = []
    for _ in range(300):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        basis = np.linalg.qr(rng.normal(size=(k, k)))[0] if k else np.zeros((0, 0))
        eig = rng.choice([1.0, 0.0, -1e-12, -1e-6], size=k, p=[0.7, 0.1, 0.1, 0.1])
        Q = np.diag(rng.choice([1.0, 0.0, -1e-12, -1e-6], size=n, p=[0.7, 0.1, 0.1, 0.1]))
        idx = rng.permutation(n)[:k]
        Q[np.ix_(idx, idx)] = basis @ np.diag(eig) @ basis.T
        Q = 0.5 * (Q + Q.T)
        expected = full_probe(Q)
        try:
            QpInstance(Q, np.zeros(n), np.zeros((0, n)), np.zeros(0),
                       np.zeros((0, n)), np.zeros(0))
            accepted = True
        except QpError:
            accepted = False
        assert accepted == expected, Q
        verdicts.append(accepted)
    assert 0 < sum(verdicts) < len(verdicts)


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


@pytest.mark.parametrize("row_scale, cost_scale",
                         [(1e-3, 1.0), (1e3, 1.0), (1.0, 1e4), (1e-3, 1e4)])
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


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_badly_scaled_qps_end_in_a_status():
    # Multipliers of about 1e7 against slacks that reach 1e-25 make the
    # Newton system exactly singular in floating point on some of these
    # QPs: the solve must end with a status, not an exception.
    for seed in range(100):
        qp = random_feasible_qp(np.random.default_rng(seed))
        scaled = QpInstance(1e4 * qp.Q, 1e4 * qp.q, 1e-3 * qp.G, 1e-3 * qp.h, qp.R, qp.b)
        sol = solve(scaled)
        assert sol.iterations <= 50
        if sol.status == SolveStatus.OPTIMAL:
            assert all(v <= 1e-6 for v in kkt_residuals(scaled, sol).values()), seed


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


@pytest.mark.parametrize("seed", range(6))
def test_polish_matches_full_system_reference(seed):
    # The polish factors only the free variables; the full-system polish in
    # qp_testing is the reference. Candidates: the solution's active set,
    # every bound row, and no row.
    rng = np.random.default_rng(100 + seed)
    qp = with_bound_rows(random_feasible_qp(rng, n=int(rng.integers(4, 13))), rng)
    bound = np.count_nonzero(qp.G, axis=1) == 1
    sol = solve(qp)
    assert sol.status == SolveStatus.OPTIMAL
    compared = 0
    for start in (active_set(qp, sol), bound, np.zeros(qp.num_ineq, dtype=bool)):
        got, ref = _try_polish(qp, start, 0), reference_polish(qp, start)
        assert (got is None) == (ref is None)
        if ref is None:
            continue
        assert_same_polish(qp, got, ref[0])
        compared += 1
    assert compared >= 1


def test_kkt_factor_solves_full_system():
    # Any right-hand side, pinned rows included, against a dense solve of
    # the full active-set system; without reg the two systems are the same.
    rng = np.random.default_rng(43)
    for _ in range(10):
        qp = with_bound_rows(random_feasible_qp(rng, n=int(rng.integers(4, 13))), rng)
        act = active_set(qp, solve(qp))
        kkt = KktFactor(qp, act, 0.0)
        assert kkt.var.size > 0
        rhs = rng.normal(size=qp.num_vars + int(act.sum()) + qp.num_eq)
        want = np.linalg.solve(full_kkt(qp, act, 0.0), rhs)
        assert np.max(np.abs(kkt.solve(rhs) - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
