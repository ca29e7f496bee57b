"""Decomposition: split algebra, pricing, cut audits, the full loop."""

import dataclasses
import hashlib
import inspect

import numpy as np
import pytest
import scipy.sparse as sp

from railvolt import backend as be, benders, model as model_mod
from railvolt.benders import (Cut, _gap, build_rmp, extra_feasibility_cuts,
                              run_benders, solve_subproblem_dual, split_model)
from railvolt.domain import (Instance, SolveConfig, Train, empty_solution,
                             leg_sums, reach_windows)
from railvolt.generator import (GenSpec, generate_instance,
                                illustrative_instance)
from railvolt.model import build_model, solve_pla
from railvolt.validator import simulate_schedule

from conftest import (check_farkas_ray, count_builds, count_overcuts,
                      mixed_consist_corridor, run_benders_with_master,
                      tiny_corridor)

REACH = "xc_reach"  # id prefix of the reach family of static cuts
SOC = "xc_soc_"     # id prefix of the SOC-interval family, the last one


@pytest.fixture(scope="module")
def reference_split(golden):
    model, vm = build_model(golden, SolveConfig())
    return model, vm, split_model(model, vm)


def _incumbent_v(split, pla_solution):
    return np.round(np.asarray(pla_solution.info["primal"])[:split.n_v])


# ---------------------------------------------------------------------------
# The partition
# ---------------------------------------------------------------------------


def test_split_census_on_reference(golden, reference_split):
    model, vm, split = reference_split
    assert split.n_v == 334
    assert split.n_u == model.n_cols - 334 == 444
    assert set(np.unique(split.senses)) <= {">=", "="}
    assert int(split.v_only.sum()) == 132
    # no scheduling-LP equality row has a binary entry, so the free duals
    # of equalities add only constants to a cut
    eq = (split.senses == "=") & ~split.v_only
    assert int(eq.sum()) == 70
    assert split.Dm[np.flatnonzero(eq)].nnz == 0
    # deployment costs sit in the binary block, delay costs in the
    # continuous one
    n_interior = len(list(golden.interior))
    assert int((split.c_v != 0).sum()) == n_interior
    assert int((split.c_u != 0).sum()) == golden.n_stations * golden.n_trains
    assert np.allclose(split.c_u[split.c_u != 0], 3.0)
    # the constant term refunds the planned waits
    total_wait = float(golden.wait_time.sum())
    assert split.offset == pytest.approx(-3.0 * total_wait, rel=1e-12)


def test_split_flips_le_rows(golden, reference_split):
    model, _, split = reference_split
    _, _, _, _, A, senses, rhs = model.arrays()
    le = np.flatnonzero(senses == be.LE)
    assert le.size, "expected <= rows in the original model"
    r = le[0]
    got = split.Dm.getrow(r).toarray().ravel()
    want = -A.getrow(r).toarray().ravel()[:split.n_v]
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert split.b[r] == pytest.approx(-rhs[r])
    assert split.senses[r] == ">="


def test_cut_coefficients_come_from_the_kept_transpose(reference_split):
    # The split keeps Dm transposed as CSR once; pricing's multipliers^T Dm
    # through it matches the product through Dm itself, bit for bit.
    _, _, split = reference_split
    assert split.DmT.format == "csr"
    assert (split.DmT != split.Dm.T).nnz == 0
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal(split.Dm.shape[0])
        m[rng.random(len(m)) < 0.5] = 0.0
        want = np.asarray((split.Dm.T @ m).ravel())
        want[np.abs(want) <= 1e-9] = 0.0
        assert np.array_equal(benders._cut_coef(split, m), want)


def test_split_rejects_wrong_layouts():
    m = be.AbstractModel()
    m.add_column("u", be.CONTINUOUS, 0.0, 1.0, 1.0)
    m.add_column("v", be.BINARY)
    m.add_row("r", [(0, 1.0), (1, 1.0)], ">=", 1.0)
    with pytest.raises(be.BackendError):
        split_model(m)

    m2 = be.AbstractModel()
    m2.add_column("v", be.BINARY)
    m2.add_column("u", be.CONTINUOUS, 0.5, 1.0, 1.0)
    m2.add_row("r", [(0, 1.0), (1, 1.0)], ">=", 1.0)
    with pytest.raises(be.BackendError):
        split_model(m2)


def test_split_is_lossless(reference_split):
    # (Dm | A) is the original matrix with its <= rows negated, and every
    # other array is carried over exactly, so the split drops nothing.
    small = build_model(tiny_corridor(3, wait_hours=0.25), SolveConfig())[0]
    golden_model, _, golden_split = reference_split
    for model, split in ((small, split_model(small)),
                         (golden_model, golden_split)):
        c, lb, ub, integrality, A_all, senses, rhs = model.arrays()
        n_v = split.n_v
        assert n_v == int(integrality.sum()) and n_v + split.n_u == len(c)
        flip = np.where(senses == be.LE, -1.0, 1.0)
        stacked = sp.hstack([split.Dm, split.A]).tocsr()
        assert (stacked != sp.diags(flip) @ A_all).nnz == 0
        np.testing.assert_array_equal(split.b, flip * rhs)
        np.testing.assert_array_equal(
            split.senses, np.where(senses == be.EQ, be.EQ, be.GE))
        np.testing.assert_array_equal(np.concatenate([split.c_v, split.c_u]),
                                      c)
        assert np.all(lb[n_v:] == 0.0)  # what split_model requires
        np.testing.assert_array_equal(split.u_ub, ub[n_v:])
        np.testing.assert_array_equal(split.v_only,
                                      A_all[:, n_v:].getnnz(axis=1) == 0)
        assert split.offset == model.objective_offset != 0.0


# ---------------------------------------------------------------------------
# Pricing
# ---------------------------------------------------------------------------


def test_pricing_the_reference_incumbent(golden, golden_pla, reference_split):
    _, _, split = reference_split
    v_star = _incumbent_v(split, golden_pla)
    kind, cut, u = solve_subproblem_dual(split, v_star)
    assert kind == "point"
    assert u is not None and len(u) == split.n_u
    # master cost + subproblem value + constant = the MILP's objective
    total = float(split.c_v @ v_star) + cut.value + split.offset
    assert total == pytest.approx(golden_pla.info["model_objective"],
                                  rel=1e-4)
    # the cut is tight at the point it was priced from (strong duality)
    assert cut.rhs - float(cut.coef @ v_star) == pytest.approx(cut.value,
                                                               abs=1e-4)


def test_pricing_an_impossible_assignment_yields_a_ray(
        golden, golden_pla, reference_split):
    _, _, split = reference_split
    v_zero = np.zeros(split.n_v)
    kind, cut, u = solve_subproblem_dual(split, v_zero)
    assert kind == "ray" and u is None
    assert cut.value > 1e-8  # the violation
    # the ray must cut off the priced point but keep the true incumbent
    assert float(cut.coef @ v_zero) - cut.rhs < -1e-8
    v_star = _incumbent_v(split, golden_pla)
    assert float(cut.coef @ v_star) - cut.rhs >= -1e-7


def test_warm_pricing_matches_cold_pricing(golden_pla, reference_split,
                                          monkeypatch):
    # One split prices incumbent -> impossible -> incumbent -> impossible
    # through the same two sessions; a fresh split prices each step in new
    # ones. Where the dual vertex is not unique the optimum value still is.
    _, _, split = reference_split
    rays = []
    real_ray = be.FarkasLP.ray

    def recording_ray(self, rhs):
        ray = real_ray(self, rhs)
        rays.append((rhs, ray))
        return ray

    monkeypatch.setattr(be.FarkasLP, "ray", recording_ray)
    rows = ~split.v_only
    warm = dataclasses.replace(split, sessions={})
    v_star, v_zero = _incumbent_v(split, golden_pla), np.zeros(split.n_v)
    for v in (v_star, v_zero, v_star, v_zero):
        kind, cut, _ = solve_subproblem_dual(warm, v)
        cold_kind, cold, _ = solve_subproblem_dual(
            dataclasses.replace(split, sessions={}), v)
        assert kind == cold_kind == ("point" if v is v_star else "ray")
        if kind == "point":
            assert cut.value == pytest.approx(cold.value, abs=1e-9)
            np.testing.assert_allclose(cut.coef, cold.coef, rtol=0,
                                       atol=1e-9)
        else:
            (rhs, ray), _ = rays[-2:]
            check_farkas_ray(split.A[rows], split.senses[rows], rhs,
                             split.u_ub, ray)
            assert cut.value == pytest.approx(cold.value, abs=1e-9)
    # the two rays went through one Farkas session, the four proposals
    # through one scheduling-LP session, one cold run each
    assert warm.sessions["farkas"].session.runs == 2
    assert warm.sessions["lp"].runs == 4


def test_seed_reaches_every_milp(monkeypatch):
    # SolveConfig.seed is HiGHS's random_seed on every MILP session: pla's
    # solve, and bd's warm start and master. The pricing LPs keep HiGHS's
    # default.
    seeds = []

    class CapturingSession(be.Session):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            status, seed = self._highs.getOptionValue("random_seed")
            assert status == be._highs.HighsStatus.kOk
            seeds.append((self.has_integers, seed))

    monkeypatch.setattr(be, "Session", CapturingSession)
    inst, cfg = tiny_corridor(7), SolveConfig(time_limit_seconds=60.0, seed=3)
    assert solve_pla(inst, cfg).status == "optimal-within-gap"
    assert seeds == [(True, 3)]
    seeds.clear()
    assert run_benders(inst, cfg).info["termination"] == "optimal"
    # the warm start and the master, then the pricing LPs
    assert [seed for milp, seed in seeds if milp] == [3, 3]
    assert {seed for milp, seed in seeds if not milp} == {0}


# ---------------------------------------------------------------------------
# Structural master cuts
# ---------------------------------------------------------------------------


def test_static_cut_census_on_reference(golden, reference_split):
    _, vm, split = reference_split
    cuts = extra_feasibility_cuts(golden, vm)
    assert len(cuts) == 220
    names = {rid.rsplit("_", 1)[0] for rid, *_ in cuts}
    assert len(names) >= 10  # every rule family contributes
    for rid, entries, sense, rhs in cuts:
        assert sense in (be.GE, be.LE)
        for ci, val in entries:
            assert 0 <= ci < split.n_v  # master-only rows
            assert np.isfinite(val)


@pytest.mark.parametrize(
    "make,n_cuts,digest,n_reach,digest_reach,n_all,digest_all", [
        (illustrative_instance, 198,
         "58bcdf1b4276cefc8c1dede0a4bf8637aedd64f23c73756efe7d5db56918e628",
         204,
         "f72475c650e0e6390ffc1046d046fe1b00192af63ad68bb5573330a06b20017b",
         220,
         "cdc4833ca9afa6d924b398cb2450435995b441bc5d9ffe3af8433cc9e95f1f3e"),
        (lambda: generate_instance(GenSpec("medium", seed=1)), 558,
         "ab306be60415f8e51b5ba1d480e7abcabd1bec24d30d1198dc6bf0c2eb44f688",
         579,
         "b9956a6fda3a71d0241e2ab7793b2ded619f0c2ea34a7e9efdc98baa0696e0cd",
         631,
         "10b25f45e2744849c5ce3d96a903e0bb8308f88f64e9bb7d837b1bb09be2e163"),
        (lambda: generate_instance(GenSpec("large", seed=2)), 958,
         "c165262ae9157a0195bcbf9858791a5d45296c20dc937e71fffdda68f47de902",
         996,
         "973604ead24c6fd531f516f4bdf86014afd2bb1ec11c45dfe330047c307805b9",
         1088,
         "adb6162df280704d1d58c7762fdbf0562ccf7c5f50dcd1be4b9d114bfd685bdf"),
        (mixed_consist_corridor, 102,
         "9bad1686cfd3bb1f8eddcb27a25e5a375b2c2b7d2295727ea197c2318b7351d0",
         106,
         "05fd76d271a8a137949f7f04c838ea4ff4bf76e42f2f03547cef2cc44619792c",
         118,
         "5372f84539d85cd892dda911c23cf0b60f873e87b703a4088592e541bfde1d9b"),
    ], ids=["worked-example", "medium-1", "large-2", "mixed-consist"])
def test_static_cuts_are_pinned(make, n_cuts, digest, n_reach, digest_reach,
                                n_all, digest_all):
    # Digest of the static cuts as their rows read: ids, entries (column,
    # coefficient) in entry order, senses and right-hand sides, in row order.
    # The rows before the reach family, and those before the SOC-interval
    # family, keep their digests from before each family joined.
    inst = make()
    _, vm = build_model(inst, SolveConfig())
    rows = [(rid, [(int(c), float(v)) for c, v in entries], str(sense),
             float(rhs))
            for rid, entries, sense, rhs in extra_feasibility_cuts(inst, vm)]
    assert len(rows) == n_all
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest_all
    ids = [rid for rid, *_ in rows]
    assert not any(rid.startswith((REACH, SOC)) for rid in ids[:n_cuts])
    assert all(rid.startswith(REACH) for rid in ids[n_cuts:n_reach])
    assert all(rid.startswith(SOC) for rid in ids[n_reach:])
    assert n_all - n_reach == 2 * (inst.n_stations - 2) * inst.n_trains
    assert hashlib.sha256(repr(rows[:n_cuts]).encode()).hexdigest() == digest
    assert hashlib.sha256(
        repr(rows[:n_reach]).encode()).hexdigest() == digest_reach


def test_static_cuts_are_one_checked_block_on_binaries(reference_split,
                                                      golden, monkeypatch):
    # The cuts reach the master as one block from one checked_rows call,
    # checked against the binary columns only: a B grid shifted onto the
    # continuous columns is refused.
    _, vm, _ = reference_split
    n_cols = []
    checked_rows = be.checked_rows

    def counted(*args, **kwargs):
        bound = inspect.signature(checked_rows).bind(*args, **kwargs)
        n_cols.append(bound.arguments["n_cols"])
        return checked_rows(*args, **kwargs)

    monkeypatch.setattr(be, "checked_rows", counted)
    cuts = extra_feasibility_cuts(golden, vm)
    assert isinstance(cuts, be.RowBlock) and len(cuts) == 220
    assert n_cols == [vm.n_binary]
    shifted = np.where(vm.B >= 0, vm.B + vm.n_binary, -1)
    assert shifted.max() < vm.n_cols  # continuous columns of the model
    with pytest.raises(be.BackendError, match="unknown column index"):
        extra_feasibility_cuts(golden, dataclasses.replace(vm, B=shifted))


def test_static_cuts_admit_the_reference_incumbent():
    # Every static row holds at pla's incumbent on the worked example, the
    # mixed-consist corridor and default small 1, 2 and 4. (Default small 3
    # has no schedule: a leg of 3.68 batteries exceeds its full load of 3.)
    cfg = SolveConfig(time_limit_seconds=120.0)
    for inst in [illustrative_instance(), mixed_consist_corridor()] + [
            generate_instance(GenSpec("small", seed=s)) for s in (1, 2, 4)]:
        model, vm = build_model(inst, cfg)
        sol = solve_pla(inst, cfg, keep_primal=True, built=(model, vm))
        assert sol.status == "optimal-within-gap", (inst.name, sol.status)
        v_star = _incumbent_v(split_model(model, vm), sol)
        cuts = extra_feasibility_cuts(inst, vm, cfg)
        assert any(rid.startswith(REACH) for rid, *_ in cuts), inst.name
        for rid, entries, sense, rhs in cuts:
            lhs = sum(val * v_star[ci] for ci, val in entries)
            if sense == be.GE:
                assert lhs >= rhs - 1e-6, (inst.name, rid)
            else:
                assert lhs <= rhs + 1e-6, (inst.name, rid)


def _two_train_corridor() -> Instance:
    """Six stations, hand-picked leg energies, and two trains whose full
    loads differ (2 and 1 batteries)."""
    legs = np.array([[0.9, 0.8, 0.7, 0.6, 0.9],
                     [0.6, 0.5, 1.2, 0.3, 0.4]])
    s = legs.shape[1] + 1
    hours = np.full(legs.shape, 2.0)
    return Instance(
        stations=[f"S{i}" for i in range(s)],
        fixed_cost=np.r_[0.0, np.full(s - 2, 20.0), 0.0],
        chargers=np.r_[0, np.full(s - 2, 2), 0],
        full_batteries=np.r_[0, np.full(s - 2, 3), 0],
        trains=[Train("A", consists=3, max_batteries=2),
                Train("B", consists=1, max_batteries=1)],
        energy=leg_sums(legs), travel_time=leg_sums(hours),
        wait_time=np.zeros((s, 2)), name="two-train")


def test_reach_rows_are_the_minimal_windows_past_a_full_load():
    # Train A (full load 2) needs more than 2 batteries over stations 0-3,
    # 1-4 and 2-5. Train B (full load 1) needs more than 1 over 0-2 and
    # over the single leg 2-3: 1-3 holds 2-3, so it is not minimal, and 2-3
    # has no station inside, so neither gives a row; 3-5 needs only 0.7.
    inst = _two_train_corridor()
    _, vm = build_model(inst, SolveConfig())
    rows = [row for row in extra_feasibility_cuts(inst, vm)
            if row[0].startswith(REACH)]
    windows = [(0, 0, 3), (0, 1, 4), (0, 2, 5), (1, 0, 2)]
    assert [rid for rid, *_ in rows] == [
        REACH + "_%d_%d_%d" % w for w in windows]
    for (j, a, b), (_, entries, sense, rhs) in zip(windows, rows):
        inside = np.concatenate([grid[a + 1:b, j].ravel()
                                 for grid in (vm.Zc, vm.Zs)])
        inside = inside[inside >= 0]
        assert len(inside) == (b - a - 1) * inst.consists(j) * 2
        assert sorted(c for c, _ in entries) == sorted(inside.tolist())
        assert all(v == 1.0 for _, v in entries)
        assert (sense, rhs) == (be.GE, 1.0)


def test_reach_windows_hold_the_single_legs_the_reach_rows_skip():
    # domain.reach_windows is the one definition: the reach rows are its
    # windows with a station inside, and train B's single leg 2-3 is a
    # window too (solve_pla's fixed-deployment check proves it unserved
    # under any deployment).
    inst = _two_train_corridor()
    windows = reach_windows(inst)
    assert windows.tolist() == [[0, 0, 3], [0, 1, 4], [0, 2, 5], [1, 0, 2],
                                [1, 2, 3]]
    _, vm = build_model(inst, SolveConfig())
    assert [rid for rid, *_ in extra_feasibility_cuts(inst, vm)
            if rid.startswith(REACH)] == [
        REACH + "_%d_%d_%d" % tuple(w) for w in windows if w[2] >= w[1] + 2]
    sol = solve_pla(inst, SolveConfig(time_limit_seconds=60.0),
                    fixed_deployment=list(inst.interior))
    assert (sol.status, sol.info["reach_window"]) == ("infeasible", [1, 2, 3])


def test_soc_rows_bound_each_arrival_by_the_leg_before_it():
    # Per interior station i and train j, in that order: the ceiling
    # sum s_u beta[i,j,k,u] - sum Y[j,k] <= -e and the floor
    # sum s_{u+1} beta[i,j,k,u] - sum P[k] >= -e, with e the leg i-1 -> i
    # and P the Zs columns at i-1, or the Y columns when i-1 is the origin.
    # An s_0 = 0 coefficient is no entry.
    inst = _two_train_corridor()
    cfg = SolveConfig()
    _, vm = build_model(inst, cfg)
    rows = [row for row in extra_feasibility_cuts(inst, vm)
            if row[0].startswith(SOC)]
    s = np.arange(cfg.n + 1) / cfg.n
    keys = [(i, j) for i in range(1, 5) for j in range(2)]
    assert [rid for rid, *_ in rows] == [
        SOC + "%s_%d_%d" % (kind, i, j)
        for i, j in keys for kind in ("ceiling", "floor")]
    for n, (i, j) in enumerate(keys):
        e = inst.energy[j, i - 1, i]
        consists = range(inst.consists(j))
        previous = vm.Y[j] if i == 1 else vm.Zs[i - 1, j]
        for (_, entries, sense, rhs), kind in zip(rows[2 * n:2 * n + 2],
                                                  ("ceiling", "floor")):
            got = dict((int(c), float(v)) for c, v in entries)
            assert len(got) == len(entries)
            edge = s[:-1] if kind == "ceiling" else s[1:]
            want = {int(vm.beta[i, j, k, u]): edge[u]
                    for k in consists for u in range(cfg.n) if edge[u]}
            want.update({int(c): -1.0 for c in
                         (vm.Y[j] if kind == "ceiling" else previous)[
                             :inst.consists(j)]})
            assert got.keys() == want.keys(), (kind, i, j)
            for c, v in want.items():
                assert got[c] == pytest.approx(v, abs=1e-12), (kind, i, j, c)
            assert sense == (be.LE if kind == "ceiling" else be.GE)
            assert rhs == pytest.approx(-e, abs=1e-12)


# ---------------------------------------------------------------------------
# Cut dedupe and master assembly
# ---------------------------------------------------------------------------


def test_a_cut_is_new_once_per_kind():
    # The key is the kind plus coef and rhs to 9 decimals; value is not
    # part of it.
    seen = set()
    cut = Cut(coef=np.array([1.0, 0.0]), rhs=2.0, value=0.0)
    assert benders._is_new(seen, "point", cut)
    assert not benders._is_new(seen, "point", Cut(cut.coef + 1e-12, 2.0, 5.0))
    assert benders._is_new(seen, "point", Cut(cut.coef, 2.5, 0.0))
    assert benders._is_new(seen, "ray", cut)  # same numbers, other kind
    assert not benders._is_new(seen, "ray", cut)
    assert len(seen) == 3


def test_gap_convention():
    assert _gap(100.0, 95.0) == pytest.approx(0.05)
    assert _gap(100.0, 100.0) == 0.0
    assert _gap(np.inf, 0.0) == np.inf
    assert _gap(10.0, -np.inf) == np.inf
    assert _gap(-90.0, -100.0) == pytest.approx(10.0 / 90.0)


def test_rmp_floors_w_over_the_v_only_rows(reference_split):
    # Without static cuts (an empty checked block) the master is the v-only
    # rows alone: build_rmp stacks no cuts, and w is floored at the least
    # continuous cost, 0 (the delay weights on D >= 0 are the only
    # continuous costs), or at a given floor above that.
    _, _, split = reference_split
    no_cuts = be.checked_rows([], [], [], [], [], [], split.n_v)
    c, A, senses, rhs, lb, ub, integrality = build_rmp(split, no_cuts)
    n_rows = int(split.v_only.sum())
    assert len(c) == len(lb) == len(ub) == len(integrality) == split.n_v + 1
    assert A.shape == (n_rows, split.n_v + 1)
    np.testing.assert_array_equal(A[:, :-1].toarray(),
                                  split.Dm[split.v_only].toarray())
    assert A[:, -1].nnz == 0
    assert len(senses) == len(rhs) == n_rows
    assert lb[-1] == 0.0
    for floor, want in ((6.0, 6.0), (-1.0, 0.0)):
        floored = build_rmp(split, no_cuts, floor)[4]
        np.testing.assert_array_equal(floored, np.append(lb[:-1], want))


def test_rmp_stacks_master_rows_and_static_rows(golden, reference_split):
    _, vm, split = reference_split
    static = extra_feasibility_cuts(golden, vm)
    c, A, senses, rhs, lb, ub, integrality = build_rmp(split, static)

    # [Dm[v_only]; static], with w as the last column
    n = split.n_v
    static_rows = np.zeros((len(static), n + 1))
    for r, (_, entries, _, _) in enumerate(static):
        for ci, val in entries:
            static_rows[r, ci] += val
    want = np.vstack([
        np.hstack([split.Dm[split.v_only].toarray(),
                   np.zeros((int(split.v_only.sum()), 1))]),
        static_rows])
    np.testing.assert_array_equal(A.toarray(), want)
    assert A.has_canonical_format and not np.any(A.data == 0.0)
    assert list(senses) == (list(split.senses[split.v_only])
                            + [s for _, _, s, _ in static])
    np.testing.assert_array_equal(
        rhs, np.concatenate([split.b[split.v_only],
                             [b for _, _, _, b in static]]))
    np.testing.assert_array_equal(c, np.append(split.c_v, 1.0))
    np.testing.assert_array_equal(integrality, [1] * n + [0])
    np.testing.assert_array_equal(lb, [0.0] * (n + 1))
    np.testing.assert_array_equal(ub, [1.0] * n + [np.inf])


# ---------------------------------------------------------------------------
# The loop, end to end on corridors that close the gap in seconds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=[7, 11, 19])
def tiny_bd(request):
    inst = tiny_corridor(request.param)
    cfg = SolveConfig(time_limit_seconds=120.0)
    sol, master = run_benders_with_master(inst, cfg)
    pla = solve_pla(inst, cfg, keep_primal=True)
    return inst, cfg, sol, pla, master


def test_loop_terminates_within_gap(tiny_bd):
    inst, cfg, sol, *_ = tiny_bd
    assert sol.algorithm == "bd"
    assert sol.info["termination"] == "optimal"
    assert sol.status == "optimal-within-gap"
    assert sol.gap <= cfg.benders_gap + 1e-9


def test_loop_bounds_are_monotone(tiny_bd):
    _, _, sol, *_ = tiny_bd
    log = sol.info["benders_log"]
    assert len(log) == sol.info["iterations"] >= 2
    lbs = [e["lower_bound"] for e in log]
    ubs = [e["upper_bound"] for e in log]
    assert all(b >= a - 1e-9 for a, b in zip(lbs, lbs[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(ubs, ubs[1:]))
    for e in log:
        assert {"iteration", "lower_bound", "upper_bound", "cut",
                "master_status", "wall_seconds"} <= set(e)


def test_loop_matches_the_one_shot_solve(tiny_bd):
    inst, cfg, sol, pla, _ = tiny_bd
    # the decomposition's incumbent is a feasible plan of the same model, so
    # it can undercut the one-shot incumbent by at most that solve's gap and
    # overshoot by at most its own
    assert sol.objective_value >= pla.objective_value * (1 - cfg.mip_gap) - 1e-6
    assert sol.objective_value <= pla.objective_value * (1 + cfg.benders_gap) + 1e-6


def test_loop_never_reports_a_bound_past_its_incumbent(tiny_bd):
    # A master bound a rounding error above the incumbent (corridor 11 ends
    # on one) is clamped to it, so the gap is never negative.
    _, _, sol, *_ = tiny_bd
    log = sol.info["benders_log"]
    assert sol.gap >= 0.0
    assert sol.bound <= log[-1]["upper_bound"]
    for e in log:
        assert e["lower_bound"] <= e["upper_bound"], e


@pytest.mark.parametrize("corridor", ["tiny-7", "tiny-11", "tiny-19",
                                      "short-haul-4"])
def test_the_log_has_one_entry_per_integer_master(monkeypatch, corridor):
    # Each integer round solves the master once and logs once. It prices
    # the proposal while the gap is open, so only the last entry can lack a
    # cut: the gap closed at the master's bound, or the proposal had no
    # certificate.
    inst = generate_instance(GenSpec(
        n_trains=1, consists_per_train=1, max_batteries=1,
        distance_mean_km=180.0, distance_sd_km=30.0, seed=4)) \
        if corridor == "short-haul-4" else tiny_corridor(int(corridor[5:]))
    runs = []
    real_run = be.Session.run

    def recording_run(self, *args, **kwargs):
        runs.append((self, self.has_integers))
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(be.Session, "run", recording_run)
    sol = run_benders(inst, SolveConfig(time_limit_seconds=120.0))
    # the master is the one session that runs both as an LP and as a MILP
    master, = ({s for s, integral in runs if integral}
               & {s for s, integral in runs if not integral})
    log = sol.info["benders_log"]
    assert len(log) == sum(s is master and integral for s, integral in runs)
    assert all(e["cut"] is not None for e in log[:-1])
    if log[-1]["cut"] is None:
        assert sol.info["termination"] in ("optimal", "certificate")


def test_master_is_built_once_per_run(monkeypatch):
    # The master lives in one session: build_rmp runs once (the helper
    # checks), and each priced cut not seen before is appended to the live
    # model after build_rmp's rows, in arrival order: coef·v + w >= rhs for
    # an optimality cut and coef·v >= rhs for a feasibility cut.
    priced = []
    real_price = benders.solve_subproblem_dual

    def recording_price(split, v):
        kind, cut, u = real_price(split, v)
        priced.append((kind, cut))
        return kind, cut, u

    monkeypatch.setattr(benders, "solve_subproblem_dual", recording_price)
    sol, master = run_benders_with_master(
        tiny_corridor(7), SolveConfig(time_limit_seconds=120.0))
    assert sol.info["termination"] == "optimal"
    assert sol.info["iterations"] > 1

    seen = set()
    fresh = [(kind, cut) for kind, cut in priced
             if benders._is_new(seen, kind, cut)]
    cuts = master.A[master.n_fixed:].toarray()
    assert len(cuts) == len(fresh) >= 1
    np.testing.assert_array_equal(cuts[:, :-1],
                                  [cut.coef for _, cut in fresh])
    np.testing.assert_array_equal(
        cuts[:, -1], [float(kind == "point") for kind, _ in fresh])
    np.testing.assert_array_equal(master.lower[master.n_fixed:],
                                  [cut.rhs for _, cut in fresh])
    assert np.all(np.isinf(master.upper[master.n_fixed:]))
    n_points = sum(kind == "point" for kind, _ in fresh)
    assert sol.info["n_optimality_cuts"] == n_points >= 1
    assert sol.info["n_feasibility_cuts"] == len(fresh) - n_points
    # w keeps the floor the warm start proves (the cuts bound it above
    # that, and no bound is ever freed); here it is the optimum's delay
    assert master.col_lower[-1] == sol.info["delay_floor"] == 6.0
    # no cut row is there twice (the w coefficient tells the kinds apart)
    assert len(np.unique(np.column_stack(
        [cuts, master.lower[master.n_fixed:]]), axis=0)) == len(cuts)


@pytest.mark.parametrize("corridor", ["tiny-7", "short-haul-4"])
def test_a_fractional_proposal_never_becomes_the_plan(monkeypatch, corridor):
    # The LP phase prices fractional proposals for their cuts only. Every
    # upper bound the loop logs, and the plan it returns, is the cost of a
    # point priced at an integral proposal.
    inst = tiny_corridor(7) if corridor == "tiny-7" else generate_instance(
        GenSpec(n_trains=1, consists_per_train=1, max_batteries=1,
                distance_mean_km=180.0, distance_sd_km=30.0, seed=4))
    priced, decoded = [], []
    real_price, real_decode = (benders.solve_subproblem_dual,
                               benders.decode_solution)

    def recording_price(split, v):
        kind, cut, u = real_price(split, v)
        priced.append((split, np.array(v, dtype=float), kind, cut))
        return kind, cut, u

    def recording_decode(outcome, vm, instance, config):
        decoded.append(outcome)
        return real_decode(outcome, vm, instance, config)

    monkeypatch.setattr(benders, "solve_subproblem_dual", recording_price)
    monkeypatch.setattr(benders, "decode_solution", recording_decode)
    sol = run_benders(inst, SolveConfig(time_limit_seconds=120.0))
    assert sol.info["termination"] == "optimal"

    def integral(v):
        return np.array_equal(v, np.round(v))

    fractional = [v for _, v, _, _ in priced if not integral(v)]
    assert len(fractional) >= 1, "no fractional proposal was priced"
    assert sol.info["lp_rounds"] >= len(fractional)
    assert sol.info["lp_stop"] in ("no-progress", "repeat", "status", "time")
    log = sol.info["benders_log"]
    # the warm start, each LP round and each logged cut priced once
    assert len(priced) == 1 + sol.info["lp_rounds"] + sum(
        e["cut"] is not None for e in log)

    costs = {float(split.c_v @ v) + cut.value + split.offset
             for split, v, kind, cut in priced
             if kind == "point" and integral(v)}
    assert all(e["upper_bound"] in costs for e in log)
    outcome, = decoded
    assert outcome.objective == min(costs)
    v_plan = outcome.primal[:priced[0][0].n_v]
    assert np.all((v_plan == 0.0) | (v_plan == 1.0))


def test_an_uncertified_fractional_proposal_ends_the_lp_phase(monkeypatch):
    # A fractional proposal whose infeasibility the Farkas LP cannot certify
    # gives no cut: the LP phase stops there and the integer loop runs on.
    real_price = benders.solve_subproblem_dual

    def uncertified(split, v):
        if not np.array_equal(v, np.round(v)):
            raise benders.NoCertificateError("no certificate")
        return real_price(split, v)

    monkeypatch.setattr(benders, "solve_subproblem_dual", uncertified)
    sol = run_benders(tiny_corridor(7), SolveConfig(time_limit_seconds=120.0))
    assert sol.info["lp_stop"] == "certificate"
    assert sol.info["termination"] == "optimal"


@pytest.mark.parametrize("warm_incumbent", [True, False])
def test_an_uncertified_integral_proposal_ends_the_loop(monkeypatch,
                                                        warm_incumbent):
    # An integral proposal whose infeasibility the Farkas LP cannot certify
    # ends the integer loop with termination "certificate": the incumbent
    # comes back as a time-limit plan, or no plan without one.
    real_price = benders.solve_subproblem_dual
    priced = []

    def uncertified(split, v):
        priced.append(v)
        if len(priced) > warm_incumbent and np.array_equal(v, np.round(v)):
            raise benders.NoCertificateError("no certificate")
        return real_price(split, v)

    def no_warm_incumbent(instance, config, **kw):
        return empty_solution(instance, "time-limit-no-incumbent", "pla")

    monkeypatch.setattr(benders, "solve_subproblem_dual", uncertified)
    if not warm_incumbent:
        monkeypatch.setattr(benders, "solve_pla", no_warm_incumbent)
    inst = tiny_corridor(7)
    sol = run_benders(inst, SolveConfig(time_limit_seconds=120.0))
    assert sol.info["termination"] == "certificate"
    if warm_incumbent:
        assert sol.status == "feasible-time-limit"
        assert np.isfinite(sol.objective_value)
        assert simulate_schedule(inst, sol).ok
    else:
        assert sol.status == "time-limit-no-incumbent"


def test_loop_is_deterministic(tiny_bd):
    # A second run on the same corridor repeats the first one exactly: the
    # same bounds in every iteration and the same cuts, bit for bit.
    inst, cfg, sol, _, master = tiny_bd
    again, again_master = run_benders_with_master(inst, cfg)

    def log(s):
        return [{k: v for k, v in e.items() if k != "wall_seconds"}
                for e in s.info["benders_log"]]

    assert log(again) == log(sol)
    assert (again_master.A != master.A).nnz == 0
    np.testing.assert_array_equal(again_master.lower, master.lower)
    assert again.info["n_optimality_cuts"] == sol.info["n_optimality_cuts"]
    assert again.info["n_feasibility_cuts"] == sol.info["n_feasibility_cuts"]


def test_loop_incumbent_replays_clean(tiny_bd):
    inst, _, sol, *_ = tiny_bd
    report = simulate_schedule(inst, sol)
    assert report.ok, report.violations


def test_no_cut_excludes_the_one_shot_incumbent(tiny_bd):
    inst, cfg, _, pla, master = tiny_bd
    assert count_overcuts(inst, cfg, master, pla) == 0


def test_shorthaul_masters_stay_few():
    # The five benchmark short-haul corridors keep their bd answers, and
    # the static rows and the warm start's floor on w leave at most 10
    # integer masters between them (45 without the floor, 106 without the
    # SOC-interval rows as well). With the floor, seed 14 closes its 5 %
    # gap at its first master, at 91.1401 (89.7490 without it).
    objectives, masters = [], 0
    for seed in (4, 6, 11, 14, 19):
        inst = generate_instance(GenSpec(
            n_trains=1, consists_per_train=1, max_batteries=1,
            distance_mean_km=180.0, distance_sd_km=30.0, seed=seed))
        sol = run_benders(inst, SolveConfig(time_limit_seconds=60.0))
        assert sol.info["termination"] == "optimal", seed
        objectives.append(sol.objective_value)
        masters += sol.info["iterations"]
    assert objectives == pytest.approx(
        [103.2257, 118.4012, 113.9111, 91.1401, 107.9925], abs=1e-4)
    assert masters <= 10


def test_infeasible_line_is_reported_not_raised():
    inst = tiny_corridor(41, energy_lo=1.2, energy_hi=1.5)  # legs > 1 battery
    # every window past the full load is a single leg, with no station
    # inside it to hold a reach row; the warm start proves infeasibility
    _, vm = build_model(inst, SolveConfig())
    assert not any(rid.startswith(REACH)
                   for rid, *_ in extra_feasibility_cuts(inst, vm))
    sol = run_benders(inst, SolveConfig(time_limit_seconds=30.0))
    assert sol.status == "infeasible"
    assert sol.algorithm == "bd"


@pytest.mark.parametrize("seed, pla_objective, pla_deployed", [
    (7, 22.6026, [3]), (11, 22.3085, [3]), (13, 51.6716, [1, 3])])
def test_bd_plans_around_a_station_that_cannot_serve(seed, pla_objective,
                                                     pla_deployed):
    # Station 2 has no chargers and no stock, so no schedule uses it. The
    # warm start opens it without forcing its use, so bd closes its gap
    # within benders_gap of pla (a warm start that made every open station
    # work called these lines infeasible).
    inst = tiny_corridor(seed, n_interior=3, energy_lo=0.25, energy_hi=0.45)
    inst.chargers[2] = inst.full_batteries[2] = 0
    cfg = SolveConfig(time_limit_seconds=60.0)
    pla = solve_pla(inst, cfg)
    assert pla.objective_value == pytest.approx(pla_objective, abs=1e-4)
    assert pla.deployed == pla_deployed
    sol = run_benders(inst, cfg)
    assert sol.info["termination"] == "optimal"
    assert sol.status == "optimal-within-gap"
    assert simulate_schedule(inst, sol).ok
    assert sol.objective_value >= \
        pla.objective_value * (1 - cfg.mip_gap) - 1e-6
    assert sol.objective_value <= \
        pla.objective_value * (1 + cfg.benders_gap) + 1e-6


def test_the_warm_start_voids_deploy_is_used_in_its_own_model_only():
    # The warm start's model reads ops - X >= -1 at each deploy_is_used row
    # and no other row moves (solve_pla pins the X and Y bounds, as it
    # always has); the split taken before keeps the rows as built (ops - X
    # >= 0, master-only), so the master still has them.
    inst = tiny_corridor(7)
    cfg = SolveConfig(time_limit_seconds=60.0)
    model, vm = build_model(inst, cfg)
    split = split_model(model, vm)
    c, _, _, integrality, A, senses, rhs_before = model.arrays()
    warm, floor = benders._warm_start(inst, cfg, model, vm, split)
    assert warm.status == "optimal-within-gap" and floor == 6.0
    c_after, _, _, integrality_after, A_after, senses_after, rhs_after = \
        model.arrays()
    used = [r for r, rid in enumerate(model.row_ids)
            if rid.startswith("deploy_is_used_")]
    assert len(used) == len(inst.interior)
    np.testing.assert_array_equal(rhs_before[used], 0.0)
    np.testing.assert_array_equal(rhs_after[used], -1.0)
    others = np.delete(np.arange(model.n_rows), used)
    np.testing.assert_array_equal(rhs_after[others], rhs_before[others])
    assert (A_after != A).nnz == 0
    for a, b in ((c, c_after), (integrality, integrality_after),
                 (senses, senses_after)):
        np.testing.assert_array_equal(a, b)
    assert split.v_only[used].all()
    np.testing.assert_array_equal(split.b[used], 0.0)


@pytest.mark.parametrize("corridor", [
    "worked-example", "mixed-consist", "tiny-7", "tiny-11", "tiny-13",
    "tiny-17", "tiny-19", "small-1", "small-2", "small-4", "small-5"])
def test_the_warm_floor_is_at_most_the_delay_cost_of_the_pla_plan(
        golden, corridor):
    # The warm start relaxes every deployment, so the floor it proves lies
    # at or below Q(v*), the scheduling LP's optimum at pla's incumbent v*:
    # 24.1469 <= 24.7893 on the worked example, 10.3553 <= 10.5349 on the
    # mixed-consist corridor, and 6.0 = 6.0 on tiny 7, 11 and 13.
    if corridor == "worked-example":
        inst = golden
    elif corridor == "mixed-consist":
        inst = mixed_consist_corridor()
    elif corridor.startswith("tiny"):
        inst = tiny_corridor(int(corridor[5:]))
    else:
        inst = generate_instance(GenSpec(size_class="small",
                                         seed=int(corridor[6:])))
    cfg = SolveConfig(time_limit_seconds=60.0)
    model, vm = build_model(inst, cfg)
    split = split_model(model, vm)
    _, floor = benders._warm_start(inst, cfg, model, vm, split)
    assert floor > 0.0
    pla = solve_pla(inst, cfg, keep_primal=True)
    kind, cut, _ = solve_subproblem_dual(split, _incumbent_v(split, pla))
    assert kind == "point"
    assert floor <= cut.value + 1e-6


def test_each_call_builds_one_model(monkeypatch):
    # The model split for the decomposition is the one the warm start
    # solves: one build per call.
    calls = count_builds(monkeypatch, model_mod, benders)
    inst = tiny_corridor(7)
    cfg = SolveConfig(time_limit_seconds=120.0)
    for n in (1, 2):
        sol = run_benders(inst, cfg)
        assert sol.status == "optimal-within-gap"
        assert calls == [inst.name] * n
