"""Solver adapter: duals, rays, LP interchange, status mapping."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import railvolt
from railvolt import backend as be

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
    assert out.value(x) == pytest.approx(2.0, abs=1e-8)
    assert out.value(y) == pytest.approx(2.0, abs=1e-8)
    duals = be.get_duals(out)
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
    duals = be.get_duals(out)
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
        pi = be.get_duals(out)
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
    assert out.status == "optimal"
    with pytest.raises(be.CapabilityError):
        be.get_duals(out)


# ---------------------------------------------------------------------------
# Infeasibility certificates
# ---------------------------------------------------------------------------


def test_farkas_certificate_on_disjoint_rows():
    m = _lp()
    x = m.add_column("x", "continuous", -INF, INF, 0.0)
    m.add_row("ge2", [(x, 1.0)], ">=", 2.0)
    m.add_row("le1", [(x, 1.0)], "<=", 1.0)
    out = be.ScipyBackend().solve(m)
    assert out.status == "infeasible"
    cert = be.farkas_certificate(m)
    assert cert is not None
    assert cert.violation > 1e-9
    # In the normalized >= system the combination G^T rho must vanish while
    # h^T rho stays positive; rebuild both from the reported terms.
    combo = 0.0
    score = 0.0
    for term, weight in zip(cert.terms, cert.multipliers):
        kind = term[0]
        assert kind == "row", f"unexpected bound term {term} (x is free)"
        _, ridx, orient = term
        coeff = {0: 1.0, 1: 1.0}[ridx]  # both rows are 1*x vs rhs
        rhs = {0: 2.0, 1: 1.0}[ridx]
        combo += weight * orient * coeff
        score += weight * orient * rhs
    assert combo == pytest.approx(0.0, abs=1e-8)
    assert score == pytest.approx(cert.violation, abs=1e-8)


def test_farkas_certificate_uses_bound_rows():
    m = _lp()
    x = m.add_column("x", "continuous", 0.0, 1.0, 0.0)
    m.add_row("ge5", [(x, 1.0)], ">=", 5.0)
    out = be.ScipyBackend().solve(m)
    assert out.status == "infeasible"
    cert = be.farkas_certificate(m)
    assert cert is not None and cert.violation > 1e-9
    kinds = {term[0] for term, w in zip(cert.terms, cert.multipliers)
             if w > 1e-12}
    assert kinds == {"row", "ub"}


def test_farkas_certificate_uses_nonzero_lower_bound():
    # x in [3, 10] cannot meet x <= 2; only the lower bound proves it.
    m = _lp()
    x = m.add_column("x", "continuous", 3.0, 10.0, 0.0)
    m.add_row("le2", [(x, 1.0)], "<=", 2.0)
    cert = be.farkas_certificate(m)
    assert cert is not None and cert.violation > 1e-9
    weights = dict(zip(cert.terms, cert.multipliers))
    assert weights[("lb", x)] > 1e-9
    # (coefficient of x, rhs) of each term in the normalized >= system
    normalized = {("row", 0, -1): (-1.0, -2.0), ("lb", x): (1.0, 3.0),
                  ("ub", x): (-1.0, -10.0)}
    assert set(weights) == set(normalized)
    combo = sum(w * normalized[t][0] for t, w in weights.items())
    score = sum(w * normalized[t][1] for t, w in weights.items())
    assert combo == pytest.approx(0.0, abs=1e-8)
    assert score == pytest.approx(cert.violation, abs=1e-8)


def test_infeasible_lp_is_one_highs_call(monkeypatch):
    # Certificates are computed on request only, never inside solve().
    calls = []
    real_linprog = be.linprog

    def counting_linprog(*args, **kwargs):
        calls.append(args)
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(be, "linprog", counting_linprog)
    m = _lp()
    x = m.add_column("x", "continuous", 0.0, 1.0, 0.0)
    m.add_row("ge5", [(x, 1.0)], ">=", 5.0)
    assert be.ScipyBackend().solve(m).status == "infeasible"
    assert len(calls) == 1


def test_certificate_none_when_feasible_and_refused_for_milp():
    m = _lp()
    x = m.add_column("x", "continuous", 0.0, 1.0, 1.0)
    m.add_row("r", [(x, 1.0)], "<=", 1.0)
    assert be.farkas_certificate(m) is None

    mi = _lp()
    b = mi.add_column("b", "binary", 0.0, 1.0, 1.0)
    mi.add_row("r", [(b, 1.0)], ">=", 2.0)
    with pytest.raises(be.CapabilityError):
        be.farkas_certificate(mi)


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
    picks = [round(out.value(c)) for c in cols]
    assert picks == [0, 1, 1]


def test_milp_respects_objective_offset_and_fix():
    m = _lp()
    x = m.add_column("x", "continuous", 0.0, 10.0, 1.0)
    y = m.add_column("y", "binary", 0.0, 1.0, 1.0)
    m.add_row("sum", [(x, 1.0), (y, 1.0)], ">=", 3.0)
    m.objective_offset = 100.0
    m.fix_column(x, 2.5)
    out = be.ScipyBackend().solve(m)
    assert out.status == "optimal"
    assert out.value(x) == pytest.approx(2.5, abs=1e-9)
    assert out.value(y) == pytest.approx(1.0, abs=1e-9)
    assert out.objective == pytest.approx(103.5, abs=1e-6)


def test_fix_column_outside_bounds_rejected():
    m = _lp()
    x = m.add_column("x", "continuous", 0.0, 1.0, 0.0)
    with pytest.raises(be.BackendError):
        m.fix_column(x, 2.0)


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
    m.add_column("x", "continuous", 0.0, 1.0, 0.0)
    with pytest.raises(be.BackendError):
        m.add_column("x", "continuous", 0.0, 1.0, 0.0)
    i = m.column_index("x")
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


def _block_model():
    m = _lp()
    m.add_column("x", "continuous", 0.0, 1.0, 0.0)
    m.add_column("y", "continuous", 0.0, 1.0, 0.0)
    m.add_row("first", [(0, 1.0)], "<=", 1.0)
    return m


@pytest.mark.parametrize("ids,indptr,indices,values,senses,rhs,named", [
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
])
def test_row_block_bad_inputs_rejected(ids, indptr, indices, values, senses,
                                       rhs, named):
    m = _block_model()
    with pytest.raises(be.BackendError, match=named):
        m.add_rows(ids, indptr, indices, values, senses, rhs)
    # a refused block leaves the model as it was
    assert m.row_ids == ("first",)
    assert m.constraint_matrix().nnz == 1


def test_row_block_rejects_inconsistent_arrays():
    m = _block_model()
    with pytest.raises(be.BackendError):
        m.add_rows(["a"], [0, 2], [0], [1.0], "<=", [1.0])
    with pytest.raises(be.BackendError):
        m.add_rows(["a"], [0, 1], [0.0], [1.0], "<=", [1.0])
    with pytest.raises(be.BackendError):
        m.add_rows(["a"], [0.0, 1.0], [0], [1.0], "<=", [1.0])
    with pytest.raises(be.BackendError):
        m.add_rows(["a"], [0, 1], [0], [1.0], "<=", [1.0, 2.0])


def test_row_block_matches_row_by_row():
    # zeros are dropped (before the column check, as in add_row), and a
    # column listed twice in one row is summed
    rows = [("a", [(0, 1.0), (1, 0.0), (0, 2.5)], "<=", 1.0),
            ("b", [(1, -1.0), (7, 0.0)], ">=", -2.0),
            ("c", [(0, 0.0)], "=", 0.5),
            ("d", [(1, 3.0), (0, -4.0)], "=", 3.0)]
    one = _block_model()
    for row in rows:
        one.add_row(*row)
    block = _block_model()
    block.add_rows([rid for rid, *_ in rows],
                   np.cumsum([0] + [len(e) for _, e, _, _ in rows]),
                   [ci for _, e, _, _ in rows for ci, _ in e],
                   [v for _, e, _, _ in rows for _, v in e],
                   [s for *_, s, _ in rows], [b for *_, b in rows])
    assert block.row_ids == one.row_ids
    for got, want in zip(block.arrays(), one.arrays()):
        if hasattr(got, "toarray"):
            assert got.nnz == want.nnz == 5
            got, want = got.toarray(), want.toarray()
        np.testing.assert_array_equal(got, want)
    assert block.constraint_matrix()[1].toarray().tolist() == [[3.5, 0.0]]
    assert be.to_lp_string(block) == be.to_lp_string(one)


def test_binary_columns_are_clamped_to_unit_box():
    m = _lp()
    b = m.add_column("b", "binary", -5.0, 9.0, 1.0)
    _, lb, ub, integrality, *_ = m.arrays()
    assert lb[b] == 0.0 and ub[b] == 1.0 and integrality[b] == 1
    assert m.has_integers


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


# ---------------------------------------------------------------------------
# LP text interchange
# ---------------------------------------------------------------------------


def _mixed_model():
    m = _lp("mix")
    x = m.add_column("x", "continuous", 0.0, 4.5, 1.25)
    y = m.add_column("y", "continuous", 0.0, INF, -0.75)
    b = m.add_column("b", "binary", 0.0, 1.0, 3.0)
    k = m.add_column("k", "continuous", 0.0, 7.0, 0.5)
    m.add_row("r1", [(x, 1.0), (y, 2.0), (b, -1.5)], "<=", 3.25)
    m.add_row("r2", [(y, 1.0), (k, 1.0)], ">=", 1.0)
    m.add_row("r3", [(x, 1.0), (k, -2.0)], "=", 0.5)
    return m


def test_lp_text_round_trip_preserves_arrays():
    m = _mixed_model()
    text = be.to_lp_string(m)
    back = be.read_lp(text)
    c0, lb0, ub0, int0, A0, s0, r0 = m.arrays()
    c1, lb1, ub1, int1, A1, s1, r1 = back.arrays()
    assert list(s0) == list(s1)
    np.testing.assert_allclose(c1, c0, atol=1e-6)
    np.testing.assert_allclose(lb1, lb0, atol=1e-6)
    np.testing.assert_allclose(
        np.where(np.isinf(ub1), 0.0, ub1),
        np.where(np.isinf(ub0), 0.0, ub0), atol=1e-6)
    assert np.array_equal(np.isinf(ub1), np.isinf(ub0))
    np.testing.assert_allclose(A1.toarray(), A0.toarray(), atol=1e-6)
    np.testing.assert_allclose(r1, r0, atol=1e-6)
    np.testing.assert_array_equal(int1, int0)


def test_lp_text_round_trip_preserves_optimum():
    m = _mixed_model()
    first = be.ScipyBackend().solve(m)
    second = be.ScipyBackend().solve(be.read_lp(be.to_lp_string(m)))
    assert first.status == second.status == "optimal"
    assert second.objective == pytest.approx(first.objective, abs=1e-6)
