"""Integrators, stability bound, and impulse contact."""

import numpy as np
import pytest

from tenshop.dynamics import (IntegratorConfig, Trajectory, resolve_contacts,
                              simulate, stable_dt, step)
from tenshop.model import SystemState, controls_from_stretches, initial_state


def released(system):
    return controls_from_stretches([1.0] * len(system.actuator_springs),
                                   locked=False)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(scheme="rk4")
    with pytest.raises(ValueError):
        IntegratorConfig(stability_safety=0.0)


def test_resolve_dt_enforces_stability_bound(system_1x1):
    limit = stable_dt(system_1x1, 1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=2.0 * limit).resolve_dt(system_1x1)
    assert IntegratorConfig().resolve_dt(system_1x1) <= limit


def test_stable_dt_scales_with_stiffness(system_1x1, params):
    from dataclasses import replace
    from tenshop.model import discretize
    stiffer = replace(params, bar_axial_stiffness=4.0 * params.bar_axial_stiffness)
    sys2 = discretize(system_1x1.topology, stiffer)
    # omega ~ sqrt(k): 4x stiffness halves the stable step
    np.testing.assert_allclose(stable_dt(sys2), 0.5 * stable_dt(system_1x1),
                               rtol=1e-12)


def test_ballistic_flight_matches_kinematics(system_1x1):
    # Contact off, no elastic strain: every mass follows the parabola.
    state = initial_state(system_1x1)
    state.positions[:, 2] += 5.0
    v0 = 1.5
    state.velocities[:, 2] = v0
    duration = 0.8
    traj = simulate(state, system_1x1, released(system_1x1), duration,
                    contact=False, sample_interval=0.1)
    g = system_1x1.gravity
    dt = IntegratorConfig().resolve_dt(system_1x1)
    for t, st in zip(traj.times, traj.states):
        # exact discrete solution of semi-implicit Euler after k steps
        k = round(t / dt)
        z = k * dt * v0 - g * dt ** 2 * k * (k + 1) / 2.0
        np.testing.assert_allclose(st.positions[:, 2],
                                   state.positions[:, 2] + z,
                                   rtol=1e-10, atol=1e-10)
        # and it stays within O(dt) of the continuous parabola
        cont = v0 * t - 0.5 * g * t ** 2
        assert abs(z - cont) <= 0.5 * g * dt * (t + dt)
        np.testing.assert_allclose(st.positions[:, :2],
                                   state.positions[:, :2], atol=1e-9)


@pytest.mark.parametrize("scheme,tol", [("semi_implicit_euler", 3e-3),
                                        ("velocity_verlet", 1e-4)])
def test_flight_conserves_energy(system_1x1, scheme, tol):
    state = initial_state(system_1x1)
    state.positions[:, 2] += 2.0
    state.positions *= 0.98  # small uniform strain to exercise the springs
    traj = simulate(state, system_1x1, released(system_1x1), 0.3,
                    IntegratorConfig(scheme=scheme), contact=False,
                    sample_interval=0.05)
    totals = np.array([e.total for e in traj.energies])
    drift = np.abs(totals - totals[0]).max() / abs(totals[0])
    assert drift < tol


def test_contact_normal_restitution_and_projection(rng):
    n = 50
    mass = rng.uniform(0.01, 1.0, n)
    restitution = 0.5
    pos = rng.standard_normal((n, 3))
    pos[:, 2] = -np.abs(pos[:, 2]) - 1e-6
    vel = rng.standard_normal((n, 3))
    vel[:, 2] = -np.abs(vel[:, 2]) - 0.1
    vz_in = vel[:, 2].copy()

    loss_n, loss_t, _ = resolve_contacts(pos, vel, mass, restitution, 0.0)
    np.testing.assert_allclose(vel[:, 2], -restitution * vz_in, rtol=1e-12)
    np.testing.assert_array_equal(pos[:, 2], 0.0)
    expected_n = np.sum(0.5 * mass * vz_in ** 2 * (1.0 - restitution ** 2))
    np.testing.assert_allclose(loss_n, expected_n, rtol=1e-10)
    assert loss_t == 0.0


def test_contact_friction_cone_and_dissipation(rng):
    for _ in range(200):
        mass = rng.uniform(0.001, 1.0, 1)
        mu = rng.uniform(0.0, 2.0)
        e = rng.uniform(0.0, 1.0)
        pos = np.array([[0.0, 0.0, -1e-4]])
        vel = rng.uniform(-3.0, 3.0, (1, 3))
        vel[0, 2] = -abs(vel[0, 2]) - 1e-3
        v_in = vel.copy()
        ke_in = 0.5 * mass[0] * np.sum(v_in ** 2)

        loss_n, loss_t, _ = resolve_contacts(pos, vel, mass, e, mu)

        jn = mass[0] * (vel[0, 2] - v_in[0, 2])
        jt = mass[0] * np.linalg.norm(vel[0, :2] - v_in[0, :2])
        assert jt <= mu * jn + 1e-12 * max(1.0, jn)
        ke_out = 0.5 * mass[0] * np.sum(vel ** 2)
        assert loss_n + loss_t >= -1e-14
        np.testing.assert_allclose(ke_in - ke_out, loss_n + loss_t,
                                   rtol=1e-9, atol=1e-14)


def test_contact_skips_separating_and_airborne_masses():
    pos = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -0.1]])
    vel = np.array([[1.0, 0.0, -2.0], [0.0, 1.0, 3.0]])  # airborne; separating
    before_p, before_v = pos.copy(), vel.copy()
    loss_n, loss_t, _ = resolve_contacts(pos, vel, np.array([1.0, 1.0]),
                                         0.0, 0.5)
    assert loss_n == 0.0 and loss_t == 0.0
    np.testing.assert_array_equal(pos, before_p)
    np.testing.assert_array_equal(vel, before_v)


def test_contact_event_recording():
    pos = np.array([[0.0, 0.0, -0.01]])
    vel = np.array([[2.0, 0.0, -1.0]])
    _, _, events = resolve_contacts(pos, vel, np.array([0.5]), 0.2, 0.6,
                                    time=1.25, record_events=True)
    assert len(events) == 1
    ev = events[0]
    assert ev.mass_id == 0 and ev.time == 1.25
    assert ev.normal_impulse > 0.0 and ev.tangential_impulse > 0.0
    assert ev.dissipated > 0.0


def test_step_returns_dissipation(system_1x1):
    state = initial_state(system_1x1)
    state.velocities[:, 2] = -1.0  # lowest ring impacts immediately
    new, diss, _ = step(state, system_1x1, released(system_1x1),
                        IntegratorConfig())
    assert diss >= 0.0
    assert new.positions[:, 2].min() >= 0.0


def test_simulate_event_recording_leaves_trajectory_unchanged(system_1x1):
    state = initial_state(system_1x1)
    state.positions[:, 2] += 0.05
    state.velocities[:, 2] = -0.5
    controls = controls_from_stretches([0.8])
    t1 = simulate(state, system_1x1, controls, 0.02, sample_interval=0.005)
    t2 = simulate(state, system_1x1, controls, 0.02, sample_interval=0.005,
                  record_events=True)
    assert t2.contact_events and not t1.contact_events
    assert t1.times == t2.times
    for s1, s2 in zip(t1.states, t2.states):
        np.testing.assert_array_equal(s1.positions, s2.positions)
        np.testing.assert_array_equal(s1.velocities, s2.velocities)
    assert t1.energies == t2.energies


def test_simulate_is_deterministic(system_1x1):
    state = initial_state(system_1x1)
    state.positions[:, 2] += 0.02
    controls = controls_from_stretches([0.6])
    t1 = simulate(state, system_1x1, controls, 0.05)
    t2 = simulate(state, system_1x1, controls, 0.05)
    for s1, s2 in zip(t1.states, t2.states):
        np.testing.assert_array_equal(s1.positions, s2.positions)
        np.testing.assert_array_equal(s1.velocities, s2.velocities)


def test_trajectory_com_positions(system_1x1):
    state = initial_state(system_1x1)
    traj = Trajectory(times=[0.0], states=[state], energies=[])
    com = traj.com_positions(system_1x1)
    k = system_1x1.structural_count
    np.testing.assert_allclose(com[0], state.positions[:k].mean(axis=0))


def test_dissipation_ledger_accumulates(system_1x1):
    # Drop the cell: the ledger must record strictly positive losses and the
    # friction share must not exceed the total.
    state = initial_state(system_1x1)
    state.positions[:, 2] += 0.3
    traj = simulate(state, system_1x1, released(system_1x1), 0.5)
    final = traj.energies[-1]
    assert final.dissipated > 0.0
    assert 0.0 <= final.dissipated_friction <= final.dissipated + 1e-12
