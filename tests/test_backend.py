"""Solver adapter: duals, rays, LP export, status mapping."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import pytest

import railvolt
from railvolt import backend as be
from railvolt.domain import SolveConfig
from railvolt.model import VarMap

from conftest import check_farkas_ray

INF = float("inf")


def _lp(name="lp"):
    return be.AbstractModel(name=name)


# ---------------------------------------------------------------------------
# LP solves and dual conventions
# ---------------------------------------------------------------------------


def test_lp_optimum_and_le_duals():
    # max x + 2y (as min of the negation) with x+y <= 4, y <= 2.
    m = _lp()
    x = m.add_column("x", "continuous", 0.0, INF, -1.0)
    y = m.add_column("y", "continuous", 0.0, INF, -2.0)
    m.add_row("cap", [(x, 1.0), (y, 1.0)], "<=", 4.0)
    m.add_row("ylim", [(y, 1.0)], "<=", 2.0)
    out = be.ScipyBackend().solve(m)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(-6.0, abs=1e-9)
    assert out.primal[x] == pytest.approx(2.0, abs=1e-8)
    assert out.primal[y] == pytest.approx(2.0, abs=1e-8)
    duals = out.duals
    # Shadow price of either <= row is -1: relaxing the rhs by one unit
    # lowers the (minimised) objective by one.
    assert duals[0] == pytest.approx(-1.0, abs=1e-8)
    assert duals[1] == pytest.approx(-1.0, abs=1e-8)


def test_ge_and_eq_dual_signs():
    m = _lp()
    x = m.add_column("x", "continuous", 0.0, INF, 1.0)
    y = m.add_column("y", "continuous", 0.0, INF, 1.0)
    m.add_row("floor", [(x, 1.0)], ">=", 5.0)
    m.add_row("tie", [(y, 1.0)], "=", 3.0)
    out = be.ScipyBackend().solve(m)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(8.0, abs=1e-9)
    duals = out.duals
    # Both rows bind with unit cost, so each rhs unit costs one more.
    assert duals[0] == pytest.approx(1.0, abs=1e-8)
    assert duals[1] == pytest.approx(1.0, abs=1e-8)


def test_strong_duality_on_random_lps():
    rng = np.random.default_rng(7)
    solved = 0
    for trial in range(20):
        m = _lp(f"rand{trial}")
        ncol = int(rng.integers(3, 7))
        cols = [
            m.add_column(f"v{i}", "continuous", 0.0, float(rng.uniform(1, 9)),
                         float(rng.normal()))
            for i in range(ncol)
        ]
        for r in range(int(rng.integers(2, 5))):
            entries = [(c, float(rng.normal())) for c in cols
                       if rng.uniform() < 0.8]
            if not entries:
                entries = [(cols[0], 1.0)]
            sense = ("<=", ">=", "=")[int(rng.integers(3))]
            m.add_row(f"r{r}", entries, sense,
                      float(rng.uniform(2, 6)) * (1 if sense != ">=" else -1))
        out = be.ScipyBackend().solve(m)
        if out.status != "optimal":
            continue
        solved += 1
        pi = out.duals
        c, lb, ub, _, A, senses, rhs = m.arrays()
        # pi^T b plus bound terms must meet the primal objective; the bound
        # duals are whatever reduced cost is left over.
        red = c - A.T @ pi
        bound_term = 0.0
        for i in range(len(c)):
            if red[i] > 0:
                bound_term += red[i] * lb[i]
            else:
                bound_term += red[i] * ub[i]
        assert float(pi @ rhs + bound_term) == pytest.approx(
            out.objective, abs=1e-6)
    assert solved >= 5  # the sweep must actually exercise the check


def test_duals_refused_for_milp():
    m = _lp()
    x = m.add_column("x", "binary", 0.0, 1.0, 1.0)
    m.add_row("r", [(x, 1.0)], ">=", 1.0)
    out = be.ScipyBackend().solve(m)
    assert out.status == "optimal" and out.has_integers
    assert out.duals is None


# ---------------------------------------------------------------------------
# Infeasibility certificates
# ---------------------------------------------------------------------------


def _checked_ray(m):
    """The Farkas LP's ray for a model's arrays (every column x >= 0),
    checked against its documented identities (see
    ``conftest.check_farkas_ray``)."""
    _, lb, ub, _, A, senses, rhs = m.arrays()
    assert np.all(lb == 0.0)
    ray = be.FarkasLP(A, senses, ub).ray(rhs)
    if ray is not None:
        check_farkas_ray(A, senses, rhs, ub, ray)
    return ray


def test_farkas_ray_on_disjoint_rows():
    m = _lp()
    x = m.add_column("x", "continuous", 0.0, INF, 0.0)
    m.add_row("ge2", [(x, 1.0)], ">=", 2.0)
    m.add_row("le1", [(x, 1.0)], "<=", 1.0)
    out = be.ScipyBackend().solve(m)
    assert out.status == "infeasible"
    ray = _checked_ray(m)
    assert ray is not None
    # the two rows alone prove it: no bound multiplier is needed
    assert ray.rows[0] > 1e-9 and ray.rows[1] < -1e-9
    assert not ray.lower.any() and not ray.upper.any()


def test_farkas_ray_uses_bound_rows():
    m = _lp()
    x = m.add_column("x", "continuous", 0.0, 1.0, 0.0)
    m.add_row("ge5", [(x, 1.0)], ">=", 5.0)
    out = be.ScipyBackend().solve(m)
    assert out.status == "infeasible"
    ray = _checked_ray(m)
    assert ray is not None
    assert ray.rows[0] > 1e-9 and ray.upper[x] > 1e-9


def test_farkas_ray_uses_the_sign_bound():
    # x >= 0 cannot meet x <= -1; only the bound x >= 0 proves it.
    m = _lp()
    x = m.add_column("x", "continuous", 0.0, 10.0, 0.0)
    m.add_row("le_minus1", [(x, 1.0)], "<=", -1.0)
    ray = _checked_ray(m)
    assert ray is not None
    assert ray.rows[0] < -1e-9 and ray.lower[x] > 1e-9
    assert ray.upper[x] == 0.0


def test_infeasible_lp_is_one_highs_call(monkeypatch):
    # Certificates are computed on request only, never inside solve(): a
    # Farkas LP would be a second session run.
    runs = []
    real_run = be.Session.run

    def counting_run(self, *args, **kwargs):
        runs.append(self.has_integers)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(be.Session, "run", counting_run)
    m = _lp()
    x = m.add_column("x", "continuous", 0.0, 1.0, 0.0)
    m.add_row("ge5", [(x, 1.0)], ">=", 5.0)
    assert be.ScipyBackend().solve(m).status == "infeasible"
    assert runs == [False]


def test_array_routines_report_bad_input_as_error():
    # A Session refuses arrays HiGHS cannot take when it is built, LP or
    # MILP: inconsistent shapes, and a model HiGHS rejects (a NaN rhs).
    A = sp.csr_matrix(np.ones((1, 3)))  # three columns against two costs
    senses, rhs = np.array([">="]), np.array([1.0])
    lb, ub = np.zeros(2), np.ones(2)
    for integrality in (None, np.ones(2, int)):
        with pytest.raises(be.BackendError, match="inconsistent shapes"):
            be.Session(np.ones(2), A, senses, rhs, lb, ub, integrality)
        with pytest.raises(be.BackendError, match="refused the model"):
            be.Session(np.ones(2), A[:, :2], senses, np.array([np.nan]), lb,
                       ub, integrality)


def test_solve_milp_matches_the_model_solve():
    # A model's first ScipyBackend.solve is one run of a Session built on
    # its arrays; the model keeps that session for its later solves.
    m = _lp()
    cols = [m.add_column(f"b{i}", "binary", objective=-v)
            for i, v in enumerate((6.0, 5.0, 4.0))]
    m.add_row("cap", list(zip(cols, (5.0, 4.0, 3.0))), "<=", 7.0)
    m.objective_offset = 2.5
    c, lb, ub, integrality, A, senses, rhs = m.arrays()
    direct = be.Session(c, A, senses, rhs, lb, ub, integrality,
                        offset=2.5).run(gap=0.0)
    via = be.ScipyBackend().solve(m, gap=0.0)
    assert direct.status == via.status == "optimal"
    assert direct.objective == via.objective == pytest.approx(-9.0 + 2.5)
    np.testing.assert_array_equal(direct.primal, via.primal)
    assert direct.best_bound == via.best_bound


def _fresh_solve(m, gap=None, seed=0):
    """What a fresh Session on ``m`` as it stands now returns."""
    c, lb, ub, integrality, A, senses, rhs = m.arrays()
    return be.Session(c, A, senses, rhs, lb, ub, integrality,
                      m.objective_offset, seed).run(gap=gap)


def _same_outcome(got, want):
    assert (got.status, got.objective, got.best_bound, got.gap,
            got.message) == (want.status, want.objective, want.best_bound,
                             want.gap, want.message)
    if want.primal is None:
        assert got.primal is None
    else:
        np.testing.assert_array_equal(got.primal, want.primal)


def _knapsack():
    # values 6, 5, 4, weights 5, 4, 3, capacity 7: items 1 and 2 (-9)
    m = _lp("knapsack")
    cols = m.add_columns(["b0", "b1", "b2"], "binary",
                         objective=[-6.0, -5.0, -4.0])
    m.add_row("cap", list(zip(cols, (5.0, 4.0, 3.0))), "<=", 7.0)
    return m, cols


def test_every_model_change_reaches_the_next_solve():
    # Each change after a solve moves the optimum, and the next solve sees
    # it: bounds and right-hand sides in the live session, rows and columns
    # in a fresh one, the offset and the seed on every re-run.
    m, (b0, b1, b2) = _knapsack()
    solve = be.ScipyBackend().solve
    out = solve(m, gap=0.0)
    live = m._session
    assert out.objective == pytest.approx(-9.0)

    def step(want_objective, seed=0):
        got = solve(m, gap=0.0, seed=seed)
        _same_outcome(got, _fresh_solve(m, gap=0.0, seed=seed))
        assert got.objective == pytest.approx(want_objective)
        assert m._session._highs.getOptionValue("random_seed")[1] == seed

    m.set_bounds(b1, 0.0, 0.0)          # item 1 out: item 0 alone
    step(-6.0)
    assert m._session is live
    m.add_row("take_b2", [(b2, 1.0)], ">=", 1.0)  # item 2 in: alone
    step(-4.0)
    assert m._session is not live
    live = m._session
    b3 = m.add_column("b3", "binary", objective=-10.0)  # a free item
    step(-14.0)
    assert m._session is not live
    m.objective_offset = 2.5
    step(-11.5)
    live = m._session
    step(-11.5, seed=3)
    step(-11.5, seed=0)
    assert m._session is live
    m.set_bounds([b1, b3], [1.0, 0.0], [1.0, 0.0])  # 1 and 2: 7 of 7
    step(-9.0 + 2.5)
    assert m._session is live
    m.set_rhs(0, 12.0)                  # room for item 0 as well
    step(-15.0 + 2.5)
    assert m._session is live


def test_set_rhs_refuses_a_non_finite_value():
    m, _ = _knapsack()
    m.add_row("two", [(0, 1.0), (1, 1.0)], "<=", 2.0)
    for rhs in (np.inf, np.nan):
        with pytest.raises(be.BackendError, match="'two'"):
            m.set_rhs([0, 1], [8.0, rhs])
    assert m.arrays()[-1].tolist() == [7.0, 2.0]
    m.set_rhs([1, 0], [1.0, 8.0])
    assert m.arrays()[-1].tolist() == [8.0, 1.0]


def test_a_rerun_never_starts_from_an_earlier_run(monkeypatch):
    # A feasible fixing, an infeasible one, then the first again, each
    # solved twice (the second time with no change in between): every
    # re-run of the live session starts with no solution and no basis, and
    # answers as a fresh session on the same fixing does.
    rng = np.random.default_rng(5)
    m = _lp("fixings")
    n = 24
    cols = np.array(m.add_columns([f"b{i}" for i in range(n)], "binary",
                                  objective=-rng.uniform(1.0, 9.0, n)))
    for r in range(3):
        w = rng.uniform(1.0, 6.0, n)
        m.add_row(f"cap{r}", list(zip(cols.tolist(), w)), "<=", w.sum() / 3)
    fixings = [(cols[:4], [1.0, 0.0, 1.0, 0.0]),     # feasible
               (cols[:12], 1.0),                     # over every capacity
               (cols[:4], [1.0, 0.0, 1.0, 0.0])]     # the first again
    starts = []
    real_run = be.Session.run

    def run(session, *args, **kwargs):
        h = session._highs
        starts.append((h.getSolution().value_valid, h.getBasis().valid))
        return real_run(session, *args, **kwargs)

    answers = []
    for fixed, value in fixings:
        m.set_bounds(cols, 0.0, 1.0)
        m.set_bounds(fixed, value, value)
        want = _fresh_solve(m, gap=0.0)
        for _ in range(2):
            with monkeypatch.context() as mp:
                mp.setattr(be.Session, "run", run)
                got = be.ScipyBackend().solve(m, gap=0.0)
            _same_outcome(got, want)
        answers.append(got.status)
    assert answers == ["optimal", "infeasible", "optimal"]
    assert starts == [(False, False)] * 6


def test_farkas_ray_none_when_feasible():
    m = _lp()
    x = m.add_column("x", "continuous", 0.0, 1.0, 1.0)
    m.add_row("r", [(x, 1.0)], "<=", 1.0)
    assert _checked_ray(m) is None


# ---------------------------------------------------------------------------
# MILP solves and statuses
# ---------------------------------------------------------------------------


def test_small_milp_optimum():
    # Knapsack: values 6,5,4 weights 5,4,3 capacity 7 -> take items 1,2 (9).
    m = _lp()
    cols = [m.add_column(f"b{i}", "binary", 0.0, 1.0, -v)
            for i, v in enumerate((6.0, 5.0, 4.0))]
    m.add_row("w", list(zip(cols, (5.0, 4.0, 3.0))), "<=", 7.0)
    out = be.ScipyBackend().solve(m)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(-9.0, abs=1e-6)
    assert out.has_integers
    picks = [round(out.primal[c]) for c in cols]
    assert picks == [0, 1, 1]


def test_milp_respects_objective_offset_and_fix():
    m = _lp()
    x = m.add_column("x", "continuous", 0.0, 10.0, 1.0)
    y = m.add_column("y", "binary", 0.0, 1.0, 1.0)
    m.add_row("sum", [(x, 1.0), (y, 1.0)], ">=", 3.0)
    m.objective_offset = 100.0
    m.set_bounds(x, 2.5, 2.5)
    out = be.ScipyBackend().solve(m)
    assert out.status == "optimal"
    assert out.primal[x] == pytest.approx(2.5, abs=1e-9)
    assert out.primal[y] == pytest.approx(1.0, abs=1e-9)
    assert out.objective == pytest.approx(103.5, abs=1e-6)


def test_set_bounds_refuses_crossed_bounds():
    m = _lp()
    x = m.add_column("x", "continuous", 0.0, 1.0, 0.0)
    for lower, upper in ((2.0, 1.0), (np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(be.BackendError, match="'x'"):
            m.set_bounds(x, lower, upper)
    # an index array: every pair is checked, the first crossed column (or
    # binary column outside [0, 1]) is named, and a refusal changes nothing
    cols = m.add_columns(["a", "b", "c"], upper=[1.0, 2.0, 3.0])
    y = m.add_column("y", "binary")
    with pytest.raises(be.BackendError, match="'b'"):
        m.set_bounds(np.array(cols), [0.5, 2.5, 9.0], [0.5, 2.0, 3.0])
    with pytest.raises(be.BackendError, match="'y'"):
        m.set_bounds(np.array([*cols, y]), 0.0, [1.0, 1.0, 1.0, 2.0])
    _, lb, ub, *_ = m.arrays()
    assert lb.tolist() == [0.0] * 5 and ub.tolist() == [1.0, 1.0, 2.0, 3.0, 1.0]
    m.set_bounds(np.array(cols), [0.5, 2.0, 3.0], [0.5, 2.0, 9.0])
    _, lb, ub, *_ = m.arrays()
    assert lb.tolist() == [0.0, 0.5, 2.0, 3.0, 0.0]
    assert ub.tolist() == [1.0, 0.5, 2.0, 9.0, 1.0]
    # bounds are replaced, not narrowed: a pinned column is freed again
    m.set_bounds([x, y], 1.0, 1.0)
    m.set_bounds([x, y], 0.0, [INF, 1.0])
    _, lb, ub, *_ = m.arrays()
    assert [lb[x], ub[x], lb[y], ub[y]] == [0.0, INF, 0.0, 1.0]


def test_session_passes_highs_the_integrality_of_each_column():
    # HiGHS reads back, column by column, the integrality the session was
    # given: integer where it is nonzero, continuous elsewhere, and none at
    # all for an LP.
    integrality = np.array([1, 0, 1, 1, 0])
    n = len(integrality)
    args = (np.zeros(n), sp.csr_matrix(np.ones((1, n))), np.array(["<="]),
            np.array([3.0]), np.zeros(n), np.ones(n))
    session = be.Session(*args, integrality)
    kinds = session._highs.getLp().integrality_
    assert kinds == [be._highs.HighsVarType(int(i)) for i in integrality]
    assert be.Session(*args)._highs.getLp().integrality_ == []


def test_time_limit_without_incumbent_reports_no_primal():
    # A deliberately awkward MILP plus an effectively zero budget.  Whatever
    # the solver manages, the invariant is: no primal <=> the no-incumbent
    # status, and any reported primal comes with a finite objective.
    rng = np.random.default_rng(3)
    m = _lp("hard")
    n = 90
    cols = [m.add_column(f"b{i}", "binary", 0.0, 1.0,
                         float(rng.uniform(1, 2))) for i in range(n)]
    w = rng.integers(20, 60, size=n).astype(float)
    m.add_row("half", list(zip(cols, w)), "=", float(w.sum()) / 2.0)
    out = be.ScipyBackend().solve(m, seconds=1e-4)
    assert out.status in {"optimal", "feasible-limit", "limit-no-incumbent",
                          "infeasible"}
    if out.primal is None:
        assert out.status in {"limit-no-incumbent", "infeasible"}
    else:
        assert math.isfinite(out.objective)


def test_session_changes_match_a_fresh_solve():
    # After set_rhs, set_costs and add_rows, a warm re-run solves the
    # changed model: the same optimum and duals as a fresh session on it.
    A = sp.csr_matrix([[1.0, 1.0], [1.0, -1.0]])
    senses = np.array([">=", "<="])
    session = be.Session(np.array([1.0, 2.0]), A, senses,
                         np.array([2.0, 1.0]), np.zeros(2), np.full(2, 10.0))
    assert session.run().objective == pytest.approx(2.5)
    session.set_rhs(np.array([4.0, 1.0]))
    session.set_costs(np.array([3.0, 1.0]))
    session.add_rows(sp.csr_matrix([[0.0, 1.0]]), [">="], [3.5])
    warm = session.run()
    cold = be.Session(np.array([3.0, 1.0]), sp.vstack([A, [[0.0, 1.0]]]),
                      np.array([">=", "<=", ">="]), np.array([4.0, 1.0, 3.5]),
                      np.zeros(2), np.full(2, 10.0)).run()
    assert warm.status == cold.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective) \
        == pytest.approx(4.0)
    np.testing.assert_allclose(warm.primal, cold.primal, atol=1e-9)
    np.testing.assert_allclose(warm.duals, cold.duals, atol=1e-9)


def test_milp_rerun_after_a_solve_error_goes_again_cold():
    # HiGHS can end a MILP re-run in "Solve error" when it finds its own
    # optimum off a row by 1e-6; the session clears the solver and runs
    # once more (without presolve), and that run's answer is the outcome.
    session = be.Session(np.array([-5.0, -4.0]), sp.csr_matrix([[6.0, 4.0]]),
                         np.array(["<="]), np.array([9.0]), np.zeros(2),
                         np.ones(2), np.array([1, 1]))
    assert session.run().status == "optimal"

    class OneSolveError:
        def __init__(self, highs):
            self.highs, self.calls = highs, []

        def __getattr__(self, name):
            return getattr(self.highs, name)

        def getModelStatus(self):
            self.calls.append("status")
            if len(self.calls) == 1:
                return be._MS.kSolveError
            return self.highs.getModelStatus()

        def clearSolver(self):
            self.calls.append("clear")
            return self.highs.clearSolver()

    session._highs = flaky = OneSolveError(session._highs)
    again = session.run()
    assert flaky.calls == ["status", "clear", "status"]
    assert again.status == "optimal"
    assert again.objective == pytest.approx(-5.0)


def test_milp_solve_error_goes_again_without_presolve():
    # HiGHS can end a MILP run in "Solve error" when its optimum, mapped
    # back through presolve, misses a row by 1e-6, and a cold run with
    # presolve repeats it. So such a run, the session's first included,
    # goes again cold without presolve; later runs presolve again.
    session = be.Session(np.array([-5.0, -4.0]), sp.csr_matrix([[6.0, 4.0]]),
                         np.array(["<="]), np.array([9.0]), np.zeros(2),
                         np.ones(2), np.array([1, 1]))

    class FirstRunSolveError:
        def __init__(self, highs):
            self.highs, self.calls = highs, []

        def __getattr__(self, name):
            return getattr(self.highs, name)

        def getModelStatus(self):
            self.calls.append("status")
            if len(self.calls) == 1:
                return be._MS.kSolveError
            return self.highs.getModelStatus()

        def setOptionValue(self, name, value):
            if name == "presolve":
                self.calls.append(("presolve", value))
            return self.highs.setOptionValue(name, value)

        def clearSolver(self):
            self.calls.append("clear")
            return self.highs.clearSolver()

    session._highs = flaky = FirstRunSolveError(session._highs)
    first = session.run()
    assert flaky.calls == ["status", "clear", ("presolve", "off"), "status",
                           ("presolve", be._DEFAULTS.presolve)]
    assert first.status == "optimal"
    assert first.objective == pytest.approx(-5.0)


def test_a_warm_lp_stopped_at_its_limit_is_one_run():
    # A warm LP run that ends at its own time limit has spent its time: it
    # is reported as a limit, not cleared and run again cold.
    session = be.Session(np.array([1.0, 2.0]), sp.csr_matrix([[1.0, 1.0]]),
                         np.array([">="]), np.array([2.0]), np.zeros(2),
                         np.full(2, 10.0))
    assert session.run().status == "optimal"

    class FirstRunAtLimit:
        def __init__(self, highs):
            self.highs, self.calls = highs, []

        def __getattr__(self, name):
            return getattr(self.highs, name)

        def run(self):
            self.calls.append("run")
            return self.highs.run()

        def getModelStatus(self):
            self.calls.append("status")
            if self.calls.count("status") == 1:
                return be._MS.kTimeLimit
            return self.highs.getModelStatus()

        def clearSolver(self):
            self.calls.append("clear")
            return self.highs.clearSolver()

    session._highs = limited = FirstRunAtLimit(session._highs)
    out = session.run()
    assert limited.calls == ["run", "status"]
    assert out.status == "limit-no-incumbent"
    assert out.primal is None


def test_session_time_limit_applies_to_each_run():
    # HiGHS's own run clock adds up over a session's runs. The limit must
    # not: runs of a small knapsack, each far below 0.25 s, add up past it
    # and every one still ends optimal.
    rng = np.random.default_rng(3)
    m = _lp("knapsack")
    n = 12
    cols = [m.add_column(f"b{i}", "binary",
                         objective=-float(rng.uniform(1, 2)))
            for i in range(n)]
    w = rng.integers(20, 60, size=n).astype(float)
    m.add_row("cap", list(zip(cols, w)), "<=", float(w.sum()) / 2.0)
    c, lb, ub, integrality, A, senses, rhs = m.arrays()
    session = be.Session(c, A, senses, rhs, lb, ub, integrality)
    limit, runs = 0.25, []
    while sum(out.wall_seconds for out in runs) <= 2 * limit \
            and len(runs) < 5000:
        runs.append(session.run(seconds=limit))
    assert sum(out.wall_seconds for out in runs) > 2 * limit
    assert max(out.wall_seconds for out in runs) < limit
    assert {out.status for out in runs} == {"optimal"}


def test_infeasible_and_unbounded_lp_statuses():
    bad = _lp()
    x = bad.add_column("x", "continuous", 0.0, 1.0, 0.0)
    bad.add_row("r", [(x, 1.0)], ">=", 2.0)
    assert be.ScipyBackend().solve(bad).status == "infeasible"

    free = _lp()
    y = free.add_column("y", "continuous", -INF, INF, 1.0)
    free.add_row("r", [(y, 1.0)], "<=", 0.0)
    assert be.ScipyBackend().solve(free).status == "unbounded"


# ---------------------------------------------------------------------------
# Model construction guard rails
# ---------------------------------------------------------------------------


def test_duplicate_ids_rejected():
    m = _lp()
    i = m.add_column("x", "continuous", 0.0, 1.0, 0.0)
    with pytest.raises(be.BackendError):
        m.add_column("x", "continuous", 0.0, 1.0, 0.0)
    m.add_row("r", [(i, 1.0)], "<=", 1.0)
    with pytest.raises(be.BackendError):
        m.add_row("r", [(i, 1.0)], "<=", 1.0)


def test_bad_inputs_rejected():
    m = _lp()
    with pytest.raises(be.BackendError):
        m.add_column("x", "continuous", 0.0, 1.0, float("nan"))
    with pytest.raises(be.BackendError):
        m.add_column("x", "continuous", 2.0, 1.0, 0.0)  # crossed bounds
    with pytest.raises(be.BackendError):
        m.add_column("x", "integer", 0.0, 1.0, 0.0)  # no such kind
    x = m.add_column("x", "continuous", 0.0, 1.0, 0.0)
    with pytest.raises(be.BackendError):
        m.add_row("r", [(x, float("inf"))], "<=", 1.0)
    with pytest.raises(be.BackendError):
        m.add_row("r", [(x, 1.0)], "<=", float("nan"))
    with pytest.raises(be.BackendError):
        m.add_row("r", [(x, 1.0)], "!=", 1.0)
    with pytest.raises(be.BackendError):
        m.add_row("r", [(x + 5, 1.0)], "<=", 1.0)
    with pytest.raises(be.BackendError, match="column index 0.5"):
        m.add_row("r", [(0.5, 1.0)], "<=", 1.0)
    with pytest.raises(be.BackendError, match="inconsistent"):
        m.add_row_arrays(["r"], [2], [x], [1.0], "<=", 1.0)
    assert m.n_rows == 0


def _block_model():
    m = _lp()
    m.add_column("x", "continuous", 0.0, 1.0, 0.0)
    m.add_column("y", "continuous", 0.0, 1.0, 0.0)
    m.add_row("first", [(0, 1.0)], "<=", 1.0)
    return m


# Each case spells its rows compactly as CSR data: row r is ids[r] with the
# entries indptr[r]:indptr[r+1] of indices and values. Every case is refused
# naming the row, one row at a time through add_row and as arrays alike.
BAD_ROW_BLOCKS = [
    (["a", "b"], [0, 1, 2], [0, 1], [1.0, INF], "<=", [1.0, 1.0], "'b'"),
    (["a", "b"], [0, 1, 2], [0, 1], [float("nan"), 1.0], "<=", [1.0, 1.0],
     "'a'"),
    (["a", "b"], [0, 1, 2], [0, 1], [1.0, 1.0], "<=", [1.0, float("nan")],
     "'b'"),
    (["a", "b"], [0, 1, 2], [0, 1], [1.0, 1.0], ["<=", "!="], [1.0, 1.0],
     "'b'"),
    (["a", "b"], [0, 1, 2], [0, 2], [1.0, 1.0], "<=", [1.0, 1.0], "'b'"),
    (["a", "b"], [0, 1, 2], [-1, 1], [1.0, 1.0], "<=", [1.0, 1.0], "'a'"),
    (["a", "a"], [0, 1, 2], [0, 1], [1.0, 1.0], "<=", [1.0, 1.0], "'a'"),
    (["a", "first"], [0, 1, 2], [0, 1], [1.0, 1.0], "<=", [1.0, 1.0],
     "'first'"),
]


@pytest.mark.parametrize("ids,indptr,indices,values,senses,rhs,named",
                         BAD_ROW_BLOCKS)
def test_row_block_bad_inputs_rejected(ids, indptr, indices, values, senses,
                                       rhs, named):
    # one row at a time through add_row: the rows before the bad one enter,
    # and the bad one is refused, leaving the model as it was before it
    senses = np.broadcast_to(senses, len(ids)).tolist()
    m = _block_model()
    with pytest.raises(be.BackendError, match=named):
        for rid, lo, hi, sense, b in zip(ids, indptr, indptr[1:], senses,
                                         rhs):
            row_ids, before = m.row_ids, _model_arrays(m)
            m.add_row(rid, list(zip(indices[lo:hi], values[lo:hi])), sense, b)
    assert m.row_ids == row_ids
    for got, want in zip(_model_arrays(m), before):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("ids,indptr,indices,values,senses,rhs,named",
                         BAD_ROW_BLOCKS)
def test_row_arrays_bad_inputs_rejected(ids, indptr, indices, values,
                                        senses, rhs, named):
    m = _block_model()
    before = _model_arrays(m)
    with pytest.raises(be.BackendError, match=named):
        m.add_row_arrays(ids, np.diff(indptr), indices, values, senses, rhs)
    # a refused block leaves the model as it was
    assert m.row_ids == ("first",)
    for got, want in zip(_model_arrays(m), before):
        np.testing.assert_array_equal(got, want)


def _model_arrays(m):
    return [a.toarray() if sp.issparse(a) else a for a in m.arrays()]


@pytest.mark.parametrize("ids,kind,lower,upper,objective,named", [
    (["a", "b", "a"], "continuous", 0.0, 1.0, 0.0, "'a'"),  # repeat in block
    (["a", "y"], "continuous", 0.0, 1.0, 0.0, "'y'"),  # existing id
    (["a", "b"], "continuous", [0.0, 2.0], 1.0, 0.0, "'b'"),  # crossed
    (["a", "b"], "continuous", 0.0, 1.0, [0.0, float("nan")], "'b'"),
    (["a", "b"], "integer", 0.0, 1.0, 0.0, "'a'"),  # no such kind
])
def test_add_columns_bad_inputs_rejected(ids, kind, lower, upper, objective,
                                         named):
    m = _block_model()
    before = _model_arrays(m)
    with pytest.raises(be.BackendError, match=named):
        m.add_columns(ids, kind, lower, upper, objective)
    # a refused block leaves the model as it was
    assert m.col_ids == ("x", "y")
    for got, want in zip(_model_arrays(m), before):
        np.testing.assert_array_equal(got, want)


def test_row_block_matches_row_by_row():
    # zeros are dropped (before the column check), and a column listed
    # twice in one row is summed
    rows = [("a", [(0, 1.0), (1, 0.0), (0, 2.5)], "<=", 1.0),
            ("b", [(1, -1.0), (7, 0.0)], ">=", -2.0),
            ("c", [(0, 0.0)], "=", 0.5),
            ("d", [(1, 3.0), (0, -4.0)], "=", 3.0)]
    one = _block_model()
    assert [one.add_row(*row) for row in rows] == [1, 2, 3, 4]
    # the same rows as arrays padded to one width with zeros, whose
    # columns may be anything: the padding is dropped
    padded = _block_model()
    assert padded.add_row_arrays(
        ["a", "b", "c", "d"], [3, 3, 3, 3],
        [0, 1, 0, 1, 7, -1, 0, 0, 0, 1, 0, 99],
        [1.0, 0.0, 2.5, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, -4.0, 0.0],
        ["<=", ">=", "=", "="], [1.0, -2.0, 0.5, 3.0]) == range(1, 5)
    assert padded.row_ids == one.row_ids
    for got, want in zip(padded.arrays(), one.arrays()):
        if hasattr(got, "toarray"):
            assert got.nnz == want.nnz == 5
            got, want = got.toarray(), want.toarray()
        np.testing.assert_array_equal(got, want)
    for m in (one, padded):
        assert m._rows.counts.tolist() == [1, 2, 1, 0, 2]
        # the block reads back as its rows, with the zeros dropped
        assert list(m._rows)[1:] == [
            ("a", [(0, 1.0), (0, 2.5)], "<=", 1.0),
            ("b", [(1, -1.0)], ">=", -2.0), ("c", [], "=", 0.5),
            ("d", [(1, 3.0), (0, -4.0)], "=", 3.0)]
    assert padded.constraint_matrix()[1].toarray().tolist() == [[3.5, 0.0]]
    assert be.to_lp_string(padded) == be.to_lp_string(one)


def test_binary_columns_are_clamped_to_unit_box():
    m = _lp()
    b = m.add_column("b", "binary", -5.0, 9.0, 1.0)
    _, lb, ub, integrality, *_ = m.arrays()
    assert lb[b] == 0.0 and ub[b] == 1.0 and integrality[b] == 1


def test_only_backend_imports_scipy_optimize():
    # backend.py is the one module that talks to the solver.
    importers = set()
    for path in Path(railvolt.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                names += [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n == "scipy.optimize" or n.startswith("scipy.optimize.")
                   for n in names):
                importers.add(path.name)
    assert importers == {"backend.py"}


def test_no_unused_imports():
    # __init__.py imports in order to re-export, so it is exempt.
    unused = []
    for path in sorted(Path(railvolt.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name} (line {line})"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_every_parameter_is_read():
    # A parameter nothing reads is an option that does nothing. Methods may
    # leave self/cls unread.
    unread = []
    for path in sorted(Path(railvolt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.stem}.{name}({p}) (line {node.lineno})"
                       for p in params
                       if p not in read and p not in ("self", "cls")]
    assert unread == []


def test_every_session_method_is_called_in_the_package():
    # A Session capability only tests call is a capability nothing needs:
    # every public method of backend.Session is called by name somewhere
    # in the package.
    called = {node.func.attr
              for path in Path(railvolt.__file__).parent.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)}
    public = {name for name, member in vars(be.Session).items()
              if callable(member) and not name.startswith("_")}
    assert sorted(public - called) == []


def test_every_solve_config_setting_is_read():
    # A setting nothing reads is an option that does nothing: every field
    # and class constant of SolveConfig is read as an attribute somewhere in
    # the package.
    read = {node.attr
            for path in Path(railvolt.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    assert sorted(set(SolveConfig.__annotations__) - read) == []


def test_every_var_map_field_is_read():
    # A column map entry only build_model reads belongs inside build_model:
    # every VarMap field is read as an attribute outside it, in the package
    # or its tests.
    def loaded(node):
        if isinstance(node, ast.FunctionDef) and node.name == "build_model":
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        for child in ast.iter_child_nodes(node):
            yield from loaded(child)

    files = [*Path(railvolt.__file__).parent.glob("*.py"),
             *Path(__file__).parent.glob("*.py")]
    read = {attr for path in files
            for attr in loaded(ast.parse(path.read_text()))}
    assert sorted({f.name for f in dataclasses.fields(VarMap)} - read) == []


def test_validator_imports_nothing_it_checks():
    # The replay is independent of the planners: validator.py takes only
    # the domain types from this package.
    path = Path(railvolt.__file__).parent / "validator.py"
    relative = sorted(node.module or "." for node in ast.walk(
        ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0)
    assert relative == ["domain"]


# ---------------------------------------------------------------------------
# LP text export
# ---------------------------------------------------------------------------


def _mixed_model():
    m = _lp("mix")
    x = m.add_column("x", "continuous", 0.0, 4.5, 1.25)
    y = m.add_column("y", "continuous", 0.0, INF, -0.75)
    b = m.add_column("b", "binary", 0.0, 1.0, 3.0)
    k = m.add_column("k", "continuous", 0.0, 7.0, 0.5)
    z = m.add_column("z", "continuous", 2.0, INF, 0.0)
    m.add_row("r1", [(x, 1.0), (y, 2.0), (b, -1.5)], "<=", 3.25)
    m.add_row("r2", [(y, 1.0), (k, 1.0)], ">=", 1.0)
    m.add_row("r3", [(x, 1.0), (k, -2.0), (z, 1e-6)], "=", -0.5)
    m.objective_offset = -2.5
    return m


def test_arrays_are_copies():
    # Writing into what arrays() returns changes neither a second arrays()
    # call nor the LP text.
    m = _mixed_model()
    text, before = be.to_lp_string(m), _model_arrays(m)
    for a in m.arrays():
        if sp.issparse(a):
            a.data[:] = 7.0
        else:
            a[:] = "=" if a.dtype.kind == "U" else 7
    for got, want in zip(_model_arrays(m), before):
        np.testing.assert_array_equal(got, want)
    assert be.to_lp_string(m) == text


def test_lp_text_of_mixed_model():
    # The objective offset is the objective's constant term; [0, inf)
    # columns and binaries get no bounds line; numbers never use exponents.
    assert be.to_lp_string(_mixed_model()) == "\n".join([
        "\\ mix",
        "Minimize",
        " obj: 1.25 x - 0.75 y + 3. b + 0.5 k - 2.5",
        "Subject To",
        " r1: 1. x + 2. y - 1.5 b <= 3.25",
        " r2: 1. y + 1. k >= 1.",
        " r3: 1. x - 2. k + 0.000001 z = -0.5",
        "Bounds",
        " 0. <= x <= 4.5",
        " 0. <= k <= 7.",
        " z >= 2.",
        "Binary",
        " b",
        "End",
        "",
    ])
