"""Result tables, the paired t machinery, sensitivity comparisons."""

import math

import numpy as np
import pytest

from railvolt.domain import Metrics, SolveConfig
from railvolt.reporting import (ALGORITHMS, SCHEMA, long_format,
                                paired_t_test, run_batch, sensitivity_compare,
                                write_long_csv, write_results_csv)

from conftest import tiny_corridor


# ---------------------------------------------------------------------------
# t-test numerics
# ---------------------------------------------------------------------------


def test_t_test_worked_example():
    out = paired_t_test([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    assert out["t"] == pytest.approx(4.242640687119285, abs=1e-12)
    assert out["p"] == pytest.approx(0.013235599563682107, abs=1e-12)
    assert out["dof"] == 4
    assert out["mean_difference"] == pytest.approx(3.0)
    assert out["sided"] == "two"
    assert not out["degenerate"]


def test_t_test_is_antisymmetric():
    a = [3.1, 2.7, 5.0, 4.2]
    b = [2.0, 2.9, 4.1, 3.3]
    ab = paired_t_test(a, b)
    ba = paired_t_test(b, a)
    assert ab["t"] == pytest.approx(-ba["t"], abs=1e-12)
    assert ab["p"] == pytest.approx(ba["p"], abs=1e-12)
    assert ab["mean_difference"] == pytest.approx(-ba["mean_difference"])


def test_t_test_p_shrinks_as_the_effect_grows():
    noise = [0.0, 0.1, -0.2, 0.15, -0.05]  # mean zero, fixed spread
    ps = []
    for shift in (0.1, 0.5, 1.0, 3.0):
        out = paired_t_test([x + shift for x in noise], [0.0] * len(noise))
        ps.append(out["p"])
    assert all(b < a for a, b in zip(ps, ps[1:]))


def test_t_test_tracks_scipy():
    rng = np.random.default_rng(5)
    import scipy.stats
    for _ in range(50):
        n = int(rng.integers(3, 12))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        mine = paired_t_test(list(a), list(b))
        ref = scipy.stats.ttest_rel(a, b)
        assert mine["t"] == pytest.approx(float(ref.statistic), abs=1e-10)
        assert mine["p"] == pytest.approx(float(ref.pvalue), abs=1e-10)


def test_t_test_degenerate_conventions():
    same = paired_t_test([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
    assert same == {"t": 0.0, "p": 1.0, "dof": 2, "mean_difference": 0.0,
                    "degenerate": False, "sided": "two"}
    shifted = paired_t_test([3.0, 3.0, 3.0], [2.0, 2.0, 2.0])
    assert shifted["t"] == math.inf and shifted["p"] == 0.0
    assert shifted["degenerate"]
    negative = paired_t_test([1.0, 1.0], [2.0, 2.0])
    assert negative["t"] == -math.inf


def test_t_test_input_validation():
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0], [2.0])


# ---------------------------------------------------------------------------
# Batch runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def batch_rows():
    instances = [tiny_corridor(51), tiny_corridor(53)]
    cfg = SolveConfig(time_limit_seconds=60.0)
    return instances, run_batch(instances, ["pla", "bd"], cfg)


def test_batch_shape_and_averages(batch_rows):
    instances, rows = batch_rows
    assert len(rows) == len(instances) * 2 + 2
    body = [r for r in rows if r["instance"] != "Average"]
    assert [(r["instance"], r["algorithm"]) for r in body] == [
        (i.name, a) for i in instances for a in ("pla", "bd")]
    for r in body:
        assert r["error"] == ""
        assert float(r["objective"]) > 0
        assert float(r["wall_seconds"]) > 0
    for algo in ("pla", "bd"):
        avg = next(r for r in rows
                   if r["instance"] == "Average" and r["algorithm"] == algo)
        cells = [r for r in body if r["algorithm"] == algo]
        assert avg["status"] == f"n={len(cells)}"
        want = sum(float(r["objective"]) for r in cells) / len(cells)
        assert float(avg["objective"]) == pytest.approx(want, rel=1e-12)


def test_batch_marks_infeasible_cells_as_errors():
    broken = tiny_corridor(57, energy_lo=1.2, energy_hi=1.5)
    rows = run_batch([broken], ["pla"], SolveConfig(time_limit_seconds=30.0))
    cell = rows[0]
    assert cell["status"] == "infeasible"
    assert cell["error"] != ""
    assert cell["objective"] == ""
    avg = rows[1]
    assert avg["instance"] == "Average" and avg["status"] == "n=0"
    assert avg["objective"] == ""


def test_batch_rejects_unknown_algorithms():
    with pytest.raises(ValueError):
        run_batch([tiny_corridor(1)], ["pla", "nope"], SolveConfig())
    assert sorted(ALGORITHMS) == ["bd", "fa", "pla"]


# ---------------------------------------------------------------------------
# Sensitivity
# ---------------------------------------------------------------------------


def test_sensitivity_of_identical_runs_is_null(batch_rows):
    _, rows = batch_rows
    out = sensitivity_compare(rows, rows)
    assert out["meta"]["schema"] == SCHEMA
    assert out["meta"]["direction"] == "high minus low"
    for d in out["deltas"]:
        for f in Metrics.FIELDS:
            assert d[f] == pytest.approx(0.0, abs=1e-12)
    for key, test in out["tests"].items():
        assert test["t"] == 0.0 and test["p"] == 1.0, key
    assert f"pla/objective" in out["tests"]


def test_sensitivity_requires_matching_cells(batch_rows):
    _, rows = batch_rows
    with pytest.raises(ValueError):
        sensitivity_compare(rows, rows[:-3])


def test_sensitivity_skips_error_cells(batch_rows):
    _, rows = batch_rows
    import copy
    lo = copy.deepcopy([r for r in rows if r["instance"] != "Average"])
    hi = copy.deepcopy(lo)
    lo[0]["error"] = "synthetic failure"
    out = sensitivity_compare(lo, hi)
    bad = next(d for d in out["deltas"]
               if (d["instance"], d["algorithm"]) ==
               (lo[0]["instance"], lo[0]["algorithm"]))
    assert all(bad[f] == "" for f in Metrics.FIELDS)
    # the matching algorithm now has a single clean pair: not enough for a
    # test, so that key disappears
    algo = lo[0]["algorithm"]
    assert f"{algo}/objective" not in out["tests"]


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def test_csv_output_is_deterministic(batch_rows, tmp_path):
    _, rows = batch_rows
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(rows, str(p1))
    write_results_csv(rows, str(p2))
    text = p1.read_text()
    assert text == p2.read_text()
    assert text.startswith(f"# schema: {SCHEMA}")
    header = text.splitlines()[1].split(",")
    assert header[:2] == ["instance", "algorithm"]
    assert "objective" in header


def test_long_format_unpivots_measures(batch_rows, tmp_path):
    _, rows = batch_rows
    body = [r for r in rows if r["instance"] != "Average"]
    long_rows = long_format(body)
    assert len(long_rows) == len(body) * len(Metrics.FIELDS)
    assert {r["measure"] for r in long_rows} == set(Metrics.FIELDS)
    out = tmp_path / "long.csv"
    write_long_csv(rows, str(out))
    lines = out.read_text().splitlines()
    assert lines[1] == "instance,algorithm,measure,value"
