"""Shared fixtures: the worked six-station example and its (expensive)
reference solve are computed once per session."""
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp

from railvolt import backend as be, benders
from railvolt.domain import Instance, SolveConfig, Train, leg_sums
from railvolt.fixalg import run_fix_algorithm
from railvolt.generator import illustrative_instance
from railvolt.model import build_model, solve_pla


def check_farkas_ray(A, senses, rhs, ub, ray):
    """Assert the identities a ``backend.FarkasRay`` documents for the system
    ``A x {senses} rhs``, ``0 <= x <= ub``: sign rules, A^T rows + lower -
    upper = 0 and rhs^T rows - ub^T upper = violation > 0."""
    assert ray.violation > 1e-9
    has_ub = np.isfinite(ub)
    assert np.all(ray.lower >= 0)
    assert np.all(ray.upper >= 0) and np.all(ray.upper[~has_ub] == 0)
    assert np.all(ray.rows[senses == ">="] >= 0)
    assert np.all(ray.rows[senses == "<="] <= 0)
    np.testing.assert_allclose(A.T @ ray.rows + ray.lower - ray.upper, 0.0,
                               atol=1e-8)
    score = rhs @ ray.rows - ub[has_ub] @ ray.upper[has_ub]
    assert score == pytest.approx(ray.violation, abs=1e-8)


def count_builds(monkeypatch, *modules):
    """Route ``build_model``, as each of ``modules`` looks it up, through
    one counter; returns the list that gets one instance name per call."""
    calls = []

    def counted(instance, *args, **kwargs):
        calls.append(instance.name)
        return build_model(instance, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "build_model", counted)
    return calls


class MasterRows(NamedTuple):
    """A decomposition master as HiGHS holds it at the end of a run: rows
    ``lower <= A [v; w] <= upper`` and the columns' lower bounds. The first
    ``n_fixed`` rows are :func:`benders.build_rmp`'s (v-only and static);
    the cuts follow in the order they were appended."""
    A: sp.csr_matrix
    lower: np.ndarray
    upper: np.ndarray
    col_lower: np.ndarray
    n_fixed: int


def run_benders_with_master(inst: Instance, config: SolveConfig):
    """``benders.run_benders`` plus its master's rows, read back from the
    master session, which is the only place the run keeps its cuts."""
    built, sessions = [], []
    real_build_rmp = benders.build_rmp

    def recording_build_rmp(split, static):
        built.append(real_build_rmp(split, static))
        return built[-1]

    class CapturingSession(be.Session):
        def __init__(self, c, A, *args, **kwargs):
            super().__init__(c, A, *args, **kwargs)
            sessions.append((A, self))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(benders, "build_rmp", recording_build_rmp)
        mp.setattr(be, "Session", CapturingSession)
        sol = benders.run_benders(inst, config)
    assert len(built) == 1, "the master is built once per run"
    master, = [s for A, s in sessions if A is built[0][1]]
    lp = master._highs.getLp()
    assert lp.a_matrix_.format_ == be._highs.MatrixFormat.kColwise
    A = sp.csc_matrix((lp.a_matrix_.value_, lp.a_matrix_.index_,
                       lp.a_matrix_.start_),
                      shape=(lp.num_row_, lp.num_col_)).tocsr()
    return sol, MasterRows(A, np.asarray(lp.row_lower_),
                           np.asarray(lp.row_upper_),
                           np.asarray(lp.col_lower_), built[0][1].shape[0])


def count_overcuts(inst: Instance, config: SolveConfig, master: MasterRows,
                   one_shot) -> int:
    """Master rows that reject the one-shot incumbent (there must be none).

    The incumbent is (v*, w*): the binaries of ``one_shot`` (a ``solve_pla``
    result kept with its primal) and the scheduling LP's optimum at v*.
    The v-only and static rows are checked within 1e-6, the cuts within
    1e-5.
    """
    split = benders.split_model(*build_model(inst, config))
    v_star = np.round(np.asarray(one_shot.info["primal"])[:split.n_v])
    kind, cut_star, _ = benders.solve_subproblem_dual(split, v_star)
    assert kind == "point", "one-shot incumbent must price as feasible"
    lhs = master.A @ np.append(v_star, cut_star.value)
    tol = np.where(np.arange(len(lhs)) < master.n_fixed, 1e-6, 1e-5)
    return int(np.sum((lhs < master.lower - tol)
                      | (lhs > master.upper + tol)))


@pytest.fixture(scope="session")
def golden():
    return illustrative_instance()


@pytest.fixture(scope="session")
def golden_config():
    return SolveConfig(time_limit_seconds=120.0)


@pytest.fixture(scope="session")
def golden_pla(golden, golden_config):
    sol = solve_pla(golden, golden_config, keep_primal=True)
    assert sol.status == "optimal-within-gap", sol.status
    return sol


@pytest.fixture(scope="session")
def fa_60(golden):
    return run_fix_algorithm(golden, SolveConfig(time_limit_seconds=60.0))


@pytest.fixture(scope="session")
def bd_150(golden):
    return benders.run_benders(golden, SolveConfig(time_limit_seconds=150.0))


def tiny_corridor(seed: int, n_interior: int = 2, n_trains: int = 1,
                  consists: int = 1, max_batteries: int = 1,
                  leg_hours_lo: float = 1.0, leg_hours_hi: float = 3.0,
                  energy_lo: float = 0.35, energy_hi: float = 0.85,
                  wait_hours: float = 0.0) -> Instance:
    """Small seeded corridor built directly (the generator's smallest size
    class is six stations; oracle-scale tests need fewer)."""
    rng = np.random.default_rng(seed)
    s = n_interior + 2
    legs = s - 1
    leg_time = rng.uniform(leg_hours_lo, leg_hours_hi, size=(n_trains, legs))
    leg_energy = rng.uniform(energy_lo, energy_hi, size=(n_trains, legs))

    fixed_cost = np.zeros(s)
    fixed_cost[1:-1] = rng.uniform(15.0, 30.0, size=n_interior)
    chargers = np.zeros(s, dtype=int)
    chargers[1:-1] = rng.integers(1, 4, size=n_interior)
    stock = np.zeros(s, dtype=int)
    stock[1:-1] = rng.integers(2, 6, size=n_interior)
    wait = np.zeros((s, n_trains))
    wait[1:-1, :] = wait_hours

    return Instance(
        stations=["Origin"] + [f"Station {i}" for i in range(1, s - 1)]
                 + ["Destination"],
        fixed_cost=fixed_cost,
        chargers=chargers,
        full_batteries=stock,
        trains=[Train(name=f"Train {j + 1}", consists=consists,
                      max_batteries=max_batteries)
                for j in range(n_trains)],
        energy=leg_sums(leg_energy),
        travel_time=leg_sums(leg_time),
        wait_time=wait,
        name=f"tiny-{seed}",
        meta={"seed": seed},
    )
