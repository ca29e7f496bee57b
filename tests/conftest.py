"""Shared fixtures: the worked six-station example and its (expensive)
reference solve are computed once per session."""
import numpy as np
import pytest

from railvolt.domain import Instance, SolveConfig, Train
from railvolt.generator import illustrative_instance
from railvolt.model import solve_pla


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

    energy = np.zeros((n_trains, s, s))
    time = np.zeros((n_trains, s, s))
    for j in range(n_trains):
        ce = np.concatenate([[0.0], np.cumsum(leg_energy[j])])
        ct = np.concatenate([[0.0], np.cumsum(leg_time[j])])
        energy[j] = np.abs(ce[None, :] - ce[:, None])
        time[j] = np.abs(ct[None, :] - ct[:, None])

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
        energy=energy,
        travel_time=time,
        wait_time=wait,
        r0=0.4,
        swap_hours=2.0,
        name=f"tiny-{seed}",
        meta={"seed": seed},
    )
