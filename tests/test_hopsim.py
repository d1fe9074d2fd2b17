"""Campaign harness: sampling, form-finding, hop reduction."""

import numpy as np
import pytest

from tenshop.dynamics import IntegratorConfig, Trajectory
from tenshop.hopsim import (CampaignConfig, HopRecord, _campaign_worker,
                            center_of_mass, differential_stretch,
                            find_equilibrium,
                            landing_displacement, rest_on_ground,
                            run_campaign, run_single_hop, sample_stretches)
from tenshop.model import SystemState, controls_from_stretches, elastic_energy
from tenshop.model import energy_gradient, initial_state


def test_sample_stretches_bounds_and_shape(rng):
    draws = sample_stretches(rng, 50, (0.2, 0.8))
    assert len(draws) == 50
    arr = np.array(draws)
    assert arr.shape == (50, 4)
    assert (arr > 0.2).all() and (arr < 0.8).all()


def test_sample_stretches_seeded_reproducibility():
    a = sample_stretches(np.random.default_rng(7), 10)
    b = sample_stretches(np.random.default_rng(7), 10)
    assert a == b
    c = sample_stretches(np.random.default_rng(8), 10)
    assert a != c


def test_sample_stretches_rejects_bad_range(rng):
    with pytest.raises(ValueError):
        sample_stretches(rng, 5, (0.0, 0.8))
    with pytest.raises(ValueError):
        sample_stretches(rng, 5, (0.8, 0.2))


def test_differential_stretch_is_column_imbalance():
    # Actuators are labeled row-major on the 2x2 grid: (0,0), (1,0), (0,1),
    # (1,1).  lambda1 - lambda2 + lambda3 - lambda4 is therefore the left
    # column minus the right column.
    assert differential_stretch([0.8, 0.2, 0.8, 0.2]) == pytest.approx(1.2)
    assert differential_stretch([0.5, 0.5, 0.5, 0.5]) == 0.0
    assert differential_stretch([0.2, 0.8, 0.2, 0.8]) == pytest.approx(-1.2)


def test_rest_on_ground_touches_plane(system_1x1):
    state = initial_state(system_1x1)
    state.positions[:, 2] += 3.7
    before = state.positions.copy()
    rested = rest_on_ground(state)
    assert rested.positions[:, 2].min() == 0.0
    # pure translation: xy untouched, input not mutated
    np.testing.assert_array_equal(rested.positions[:, :2], before[:, :2])
    np.testing.assert_array_equal(state.positions, before)


def test_find_equilibrium_residual_and_energy(system_1x1):
    eq, result, controls = find_equilibrium(system_1x1, [0.5])
    assert result.converged
    grad = energy_gradient(eq.positions, system_1x1, controls, gravity=0.0)
    assert np.abs(grad).max() <= 1e-3
    # Retraction stores elastic energy relative to the unloaded cell.
    assert elastic_energy(eq.positions, system_1x1, controls).elastic > 0.0
    assert np.abs(eq.velocities).max() == 0.0


def test_landing_displacement_reduces_synthetic_trajectory(system_1x1):
    # Hand-built trajectory: rise, apex, touch down displaced by (0.3, -0.1).
    base = initial_state(system_1x1)
    base.positions[:, 2] -= base.positions[:, 2].min()  # grounded
    states, times = [], []
    for k, (dz, dxy) in enumerate([(0.0, 0.0), (0.5, 0.1), (1.0, 0.2),
                                   (0.5, 0.25), (0.0, 0.3)]):
        s = base.copy()
        s.positions[:, 2] += dz
        s.positions[:, 0] += dxy
        s.positions[:, 1] -= dxy / 3.0
        states.append(s)
        times.append(0.1 * k)
    traj = Trajectory(times=times, states=states, energies=[])
    dx, dy, t = landing_displacement(traj, system_1x1)
    assert dx == pytest.approx(0.3)
    assert dy == pytest.approx(-0.1)
    assert t == pytest.approx(0.4)


def test_landing_displacement_never_airborne(system_1x1):
    base = rest_on_ground(initial_state(system_1x1))
    traj = Trajectory(times=[0.0, 0.1], states=[base, base.copy()],
                      energies=[])
    dx, dy, t = landing_displacement(traj, system_1x1)
    assert np.isnan(dx) and np.isnan(dy) and np.isnan(t)


@pytest.fixture(scope="module")
def one_hop(system_2x2):
    return run_single_hop(system_2x2, [0.3, 0.3, 0.3, 0.3], duration=1.2,
                          return_trajectory=True)


def test_run_single_hop_record(one_hop, system_2x2):
    record, traj = one_hop
    assert record.clean
    assert record.equilibrium_energy > 0.0
    # symmetric retraction: a real vertical hop with little lateral drift
    start = center_of_mass(traj.states[0], system_2x2)
    assert record.peak_com_height > start[2] + 0.5
    assert abs(record.landing_dx) < 0.05
    assert abs(record.landing_dy) < 0.05
    assert record.dissipated > 0.0
    assert 0.0 <= record.dissipated_friction <= record.dissipated


def test_hop_record_row_matches_header(one_hop):
    record, _ = one_hop
    assert len(record.row()) == len(HopRecord.header(4))
    assert np.isfinite(record.landing_vx) and np.isfinite(record.landing_vy)


@pytest.mark.parametrize("system_name", ["system_1x1", "system_2x2"])
def test_failed_sample_record_matches_header(request, system_name):
    system = request.getfixturevalue(system_name)
    n = len(system.actuator_springs)
    # a zero stretch is rejected by ActuatorControl, so the worker falls back
    record = _campaign_worker((7, (0.0,) * n), {
        "system": system, "duration": 0.1, "sample_interval": 0.01})
    assert record.diverged and not record.clean
    assert record.sample_id == 7
    header = HopRecord.header(n)
    assert len(record.row()) == len(header)
    assert header[1:n + 1] == [f"lambda{k}" for k in range(1, n + 1)]
    assert header[n + 1] == "differential_stretch"


def test_single_cell_record_has_one_stretch_column(system_1x1):
    record = run_single_hop(system_1x1, [0.5], duration=0.05)
    header = HopRecord.header(1)
    assert len(record.row()) == len(header)
    assert "lambda1" in header and "lambda2" not in header
    # every pre-existing column keeps its name
    assert {"sample_id", "final_com_x", "final_com_mz", "landing_dx",
            "landing_vx", "landing_vy", "landing_time",
            "dissipated_friction", "diverged"} <= set(header)


def test_campaign_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(lambda_min=0.8, lambda_max=0.2)
    with pytest.raises(ValueError):
        CampaignConfig(duration=0.0)


@pytest.fixture(scope="module")
def mini_campaign(system_2x2):
    config = CampaignConfig(samples=3, seed=11, duration=0.4)
    return config, list(run_campaign(config, system_2x2))


def test_campaign_runs_and_orders_records(mini_campaign):
    _, records = mini_campaign
    assert [r.sample_id for r in records] == [0, 1, 2]
    assert all(r.clean for r in records)


def test_campaign_reproducible_across_job_counts(mini_campaign, system_2x2):
    config, serial = mini_campaign
    from dataclasses import replace
    parallel = list(run_campaign(replace(config, jobs=2), system_2x2))
    assert [r.row() for r in serial] == [r.row() for r in parallel]


def test_campaign_resume_matches_full_run(mini_campaign, system_2x2):
    config, full = mini_campaign
    tail = list(run_campaign(config, system_2x2, start_at=2))
    assert [r.row() for r in tail] == [full[2].row()]
