import json

import numpy as np
import pytest
import scipy.linalg

from swarmcoord.qpcore import (
    CheckedHessian,
    KktFactor,
    QpError,
    QpInstance,
    QpSolution,
    SolveStatus,
    _try_polish,
    active_set,
    dump_instance,
    kkt_residuals,
    objective_value,
    solve,
)

from qp_testing import (
    assert_bound_form_matches_row_form,
    assert_same_polish,
    dlb_check,
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


def test_kkt_residuals_cover_bounds():
    # min 1/2 x^2 s.t. x >= 1 as a bound: x* = 1 and z* = 1
    qp = QpInstance([[1.0]], [0.0], np.zeros((0, 1)), np.zeros(0), np.zeros((0, 1)),
                    np.zeros(0), [1.0])

    def residuals(x, z):
        return kkt_residuals(qp, QpSolution(np.array([x]), np.zeros(0), np.zeros(0),
                                            SolveStatus.OPTIMAL, 0.5 * x * x, 0,
                                            bound_duals=np.array([z])))

    assert all(v == 0.0 for v in residuals(1.0, 1.0).values())
    assert residuals(0.5, 0.5) == {"stationarity": 0.0, "primal_eq": 0.0,
                                   "primal_ineq": 0.5, "complementarity": 0.25}
    assert residuals(2.0, 2.0)["complementarity"] == 2.0
    assert residuals(1.0, 0.0)["stationarity"] == 1.0


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


def test_read_only_q_is_still_checked_by_default():
    for Q in ([[1.0, 0.5], [0.0, 1.0]], [[-1.0, 0.0], [0.0, 1.0]]):  # asymmetric, indefinite
        frozen = np.array(Q)
        frozen.flags.writeable = False
        for q_mat in (frozen, np.broadcast_to(frozen, (2, 2))):
            with pytest.raises(QpError):
                QpInstance(q_mat, [0.0, 0.0], np.zeros((0, 2)), np.zeros(0),
                           np.zeros((0, 2)), np.zeros(0))
            with pytest.raises(QpError):
                CheckedHessian(q_mat)


def test_checked_hessian_probed_once_and_frozen(monkeypatch):
    cholesky_calls = []
    real_cholesky = scipy.linalg.cholesky
    monkeypatch.setattr(scipy.linalg, "cholesky",
                        lambda *a, **k: cholesky_calls.append(1) or real_cholesky(*a, **k))
    source = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
    hess = CheckedHessian(source)
    assert len(cholesky_calls) == 1
    source[0, 0] = -5.0  # the checked matrix is a copy
    args = ([0.0, 0.0, 0.0], np.zeros((0, 3)), np.zeros(0), np.zeros((0, 3)), np.zeros(0))
    qp = QpInstance(hess, *args)
    assert len(cholesky_calls) == 1 and qp.Q is hess.matrix
    assert np.array_equal(qp.Q, [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
    for view in (hess.matrix, hess.matrix[:2], hess.matrix.T):
        with pytest.raises(ValueError):
            view.flags.writeable = True
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = -5.0
    # the same matrix as a plain array is probed again
    QpInstance(hess.matrix, *args)
    assert len(cholesky_calls) == 2


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
    assert doc["format"] == "swarmcoord-qp/2"
    assert doc["shapes"]["G"] == [2, 3]
    assert doc["layout"]["eps"] == [2, 3]
    assert np.allclose(doc["Q"], qp.Q)


def test_dump_round_trip_solves_to_the_same_x(tmp_path):
    rng = np.random.default_rng(24)
    qp = with_bound_rows(random_feasible_qp(rng, n=6, p=1), rng)
    lb = qp.lb.copy()
    lb[::2] = -np.inf
    qp = QpInstance(qp.Q, qp.q, qp.G, qp.h, qp.R, qp.b, lb)
    path = tmp_path / "qp.json"
    dump_instance(qp, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == "swarmcoord-qp/2"
    back = QpInstance(doc["Q"], doc["q"], doc["G"], doc["h"], doc["R"], doc["b"],
                      [-np.inf if v is None else v for v in doc["lb"]])
    assert np.array_equal(back.lb, qp.lb)
    sol = solve(qp)
    assert sol.status == SolveStatus.OPTIMAL
    assert np.array_equal(solve(back).x, sol.x)


@pytest.mark.parametrize("lb", [[0.0], [0.0, 0.0, 0.0], [np.nan, 0.0], [0.0, np.inf]])
def test_malformed_lb_rejected(lb):
    with pytest.raises(QpError):
        QpInstance(np.eye(2), [0.0, 0.0], np.zeros((0, 2)), np.zeros(0),
                   np.zeros((0, 2)), np.zeros(0), lb)


def test_lb_defaults_to_no_bound():
    qp = QpInstance(np.eye(2), [1.0, -1.0], np.zeros((0, 2)), np.zeros(0),
                    np.zeros((0, 2)), np.zeros(0))
    assert np.array_equal(qp.lb, [-np.inf, -np.inf])
    sol = solve(qp)
    assert np.allclose(sol.x, [-1.0, 1.0], atol=1e-8)
    assert np.array_equal(sol.bound_duals, [0.0, 0.0])


@pytest.mark.parametrize("field", ["q", "h"])
def test_nan_data_ends_in_a_status(field):
    # The LU calls skip scipy's finiteness checks; a NaN in the data must
    # still end in a non-OPTIMAL status, with and without a hint.
    rng = np.random.default_rng(45)
    qp = with_bound_rows(random_feasible_qp(rng, n=6), rng)
    rows, bounds = active_set(qp, solve(qp))
    data = {"q": qp.q.copy(), "h": qp.h.copy()}
    data[field][0] = np.nan
    hostile = QpInstance(qp.Q, data["q"], qp.G, data["h"], qp.R, qp.b, qp.lb)
    for hint in ({}, {"active_set_hint": rows, "bound_hint": bounds}):
        assert solve(hostile, **hint).status != SolveStatus.OPTIMAL


@pytest.mark.parametrize("seed", range(6))
def test_bound_form_matches_row_form(seed):
    # The bounds in lb against the same bounds as -I rows of G: the same
    # solution, and dlb against central differences.
    rng = np.random.default_rng(300 + seed)
    qp = with_bound_rows(random_feasible_qp(rng, n=int(rng.integers(4, 13))), rng)
    sol = assert_bound_form_matches_row_form(qp)
    err, compared, finite = dlb_check(qp, sol, rng.normal(size=qp.num_vars))
    assert err <= 1e-9 and compared == finite


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
    upper = np.arange(qp.num_ineq) >= qp.num_ineq - qp.num_vars
    sol = solve(qp)
    assert sol.status == SolveStatus.OPTIMAL
    compared = 0
    none = (np.zeros(qp.num_ineq, dtype=bool), np.zeros(qp.num_vars, dtype=bool))
    for start in (active_set(qp, sol), (upper, np.ones(qp.num_vars, dtype=bool)), none):
        got, ref = _try_polish(qp, *start, 0), reference_polish(qp, *start)
        assert (got is None) == (ref is None)
        if ref is None:
            continue
        assert_same_polish(qp, got, ref[0])
        compared += 1
    assert compared >= 1


def test_kkt_factor_solves_full_system():
    # Any right-hand side, pinned rows included, against a dense solve of
    # the full active-set system; without reg the two systems are the same.
    # Only lower bounds pin, so QPs whose solution holds none are passed over.
    rng = np.random.default_rng(43)
    checked = 0
    for _ in range(100):
        qp = with_bound_rows(random_feasible_qp(rng, n=int(rng.integers(4, 13))), rng)
        act, pinned = active_set(qp, solve(qp))
        if not pinned.any():
            continue
        kkt = KktFactor(qp, act, pinned, 0.0)
        assert kkt.var.size > 0
        rhs = rng.normal(size=qp.num_vars + int(act.sum()) + int(pinned.sum()) + qp.num_eq)
        want = np.linalg.solve(full_kkt(qp, act, pinned, 0.0), rhs)
        assert np.max(np.abs(kkt.solve(rhs) - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
        checked += 1
        if checked == 10:
            break
    assert checked == 10
