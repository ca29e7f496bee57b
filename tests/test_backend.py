"""Solver adapter: duals, rays, LP export, status mapping."""

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
    """farkas_ray on a model's arrays, checked against its documented
    identities: A^T rows + lower - upper = 0 and
    rhs^T rows + lb^T lower - ub^T upper = violation > 0 (finite bounds)."""
    _, lb, ub, _, A, senses, rhs = m.arrays()
    ray = be.farkas_ray(A, senses, rhs, lb, ub)
    if ray is None:
        return None
    assert ray.violation > 1e-9
    has_lb, has_ub = np.isfinite(lb), np.isfinite(ub)
    assert np.all(ray.lower >= 0) and np.all(ray.lower[~has_lb] == 0)
    assert np.all(ray.upper >= 0) and np.all(ray.upper[~has_ub] == 0)
    assert np.all(ray.rows[senses == ">="] >= 0)
    assert np.all(ray.rows[senses == "<="] <= 0)
    np.testing.assert_allclose(A.T @ ray.rows + ray.lower - ray.upper, 0.0,
                               atol=1e-8)
    score = (rhs @ ray.rows + lb[has_lb] @ ray.lower[has_lb]
             - ub[has_ub] @ ray.upper[has_ub])
    assert score == pytest.approx(ray.violation, abs=1e-8)
    return ray


def test_farkas_ray_on_disjoint_rows():
    m = _lp()
    x = m.add_column("x", "continuous", -INF, INF, 0.0)
    m.add_row("ge2", [(x, 1.0)], ">=", 2.0)
    m.add_row("le1", [(x, 1.0)], "<=", 1.0)
    out = be.ScipyBackend().solve(m)
    assert out.status == "infeasible"
    ray = _checked_ray(m)
    assert ray is not None
    # x is free, so the two rows alone prove it
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


def test_farkas_ray_uses_nonzero_lower_bound():
    # x in [3, 10] cannot meet x <= 2; only the lower bound proves it.
    m = _lp()
    x = m.add_column("x", "continuous", 3.0, 10.0, 0.0)
    m.add_row("le2", [(x, 1.0)], "<=", 2.0)
    ray = _checked_ray(m)
    assert ray is not None
    assert ray.rows[0] < -1e-9 and ray.lower[x] > 1e-9


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
    m.fix_column(x, 2.5)
    out = be.ScipyBackend().solve(m)
    assert out.status == "optimal"
    assert out.primal[x] == pytest.approx(2.5, abs=1e-9)
    assert out.primal[y] == pytest.approx(1.0, abs=1e-9)
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
