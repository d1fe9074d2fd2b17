"""Integrators, stability bound, and impulse contact."""

import numpy as np
import pytest

from tenshop.dynamics import (IntegratorConfig, Trajectory, resolve_contacts,
                              simulate, stable_dt)
from tenshop.model import (SystemState, controls_from_stretches, discretize,
                           energy_gradient, initial_state)


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
    dt = IntegratorConfig().resolve_dt(system_1x1)
    traj = simulate(state, system_1x1, released(system_1x1), dt,
                    sample_interval=dt)
    assert traj.times == [0.0, dt]
    assert traj.energies[-1].dissipated >= 0.0
    assert traj.states[-1].positions[:, 2].min() >= 0.0


def reference_verlet(state, system, controls, duration):
    """Velocity Verlet with two gradients per step, as simulate stepped it
    before the end-of-step force was carried over."""
    dt = IntegratorConfig().resolve_dt(system)
    pos, vel = state.positions.copy(), state.velocities.copy()
    inv_m = 1.0 / system.mass[:, None]
    for k in range(1, int(round(duration / dt)) + 1):
        f = -energy_gradient(pos, system, controls)
        vel_half = vel + 0.5 * dt * f * inv_m
        pos += dt * vel_half
        f2 = -energy_gradient(pos, system, controls)
        vel[:] = vel_half + 0.5 * dt * f2 * inv_m
        resolve_contacts(pos, vel, system.mass, system.params.restitution,
                         system.params.friction_coefficient, k * dt)
    return pos, vel


@pytest.mark.parametrize("lift", [0.1, 0.0])
def test_verlet_reuses_end_of_step_force(system_1x1, params, monkeypatch,
                                         lift):
    # Airborne (lowest mass lifted 0.1 m), each step needs one gradient.
    # Landing (lift 0) on a ground with restitution 1 and no friction, a
    # sweep moves masses while both losses stay 0, and the force must be
    # recomputed after each such sweep.
    from dataclasses import replace
    import tenshop.dynamics as dynamics
    system = discretize(system_1x1.topology,
                        replace(params, restitution=1.0,
                                friction_coefficient=0.0))
    state = initial_state(system)
    state.positions[:, 2] += lift - state.positions[:, 2].min()
    state.velocities[:, 2] = -0.2
    controls = controls_from_stretches([0.7])
    duration = 0.05
    ref_pos, ref_vel = reference_verlet(
        state, system, controls_from_stretches([0.7], locked=False), duration)

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return energy_gradient(*args, **kwargs)

    monkeypatch.setattr(dynamics, "energy_gradient", counted)
    traj = simulate(state, system, controls, duration,
                    IntegratorConfig(scheme="velocity_verlet"),
                    sample_interval=duration)
    np.testing.assert_array_equal(traj.states[-1].positions, ref_pos)
    np.testing.assert_array_equal(traj.states[-1].velocities, ref_vel)
    steps = int(round(duration / IntegratorConfig().resolve_dt(system)))
    airborne = min(s.positions[:, 2].min() for s in traj.states) > 0.0
    assert airborne == (lift > 0.0)
    if airborne:
        assert len(calls) == steps + 1
    else:
        assert steps + 1 < len(calls) <= 2 * steps


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


def quarter_turn(v):
    return np.column_stack([-v[:, 1], v[:, 0], v[:, 2]])


def mirror_x(v):
    return np.column_stack([-v[:, 0], v[:, 1], v[:, 2]])


EQUIVARIANCE_CONTROLS = controls_from_stretches([0.3, 0.5, 0.4, 0.6])


@pytest.fixture(scope="module")
def shaken_hop(system_2x2):
    """A strained 2x2 state on the ground, moving, and its 0.3-s hop."""
    rng = np.random.default_rng(8)
    pos = system_2x2.rest_positions + 0.01 * rng.standard_normal(
        system_2x2.rest_positions.shape)
    pos[:, 2] -= pos[:, 2].min()
    state = SystemState(pos, rng.uniform(-0.5, 0.5, pos.shape))
    return state, simulate(state, system_2x2, EQUIVARIANCE_CONTROLS, 0.3,
                           sample_interval=0.05)


@pytest.mark.parametrize("isometry", [quarter_turn, mirror_x])
def test_gradient_and_hop_are_exactly_equivariant(system_2x2, shaken_hop,
                                                   isometry):
    # Rounding must not break the lattice's symmetry: a hop amplifies a
    # 1-ulp gradient asymmetry to centimetres within 0.3 s.
    state, base = shaken_hop
    pos, vel = state.positions, state.velocities
    np.testing.assert_array_equal(
        energy_gradient(isometry(pos), system_2x2, EQUIVARIANCE_CONTROLS),
        isometry(energy_gradient(pos, system_2x2, EQUIVARIANCE_CONTROLS)))

    moved = simulate(SystemState(isometry(pos), isometry(vel)), system_2x2,
                     EQUIVARIANCE_CONTROLS, 0.3, sample_interval=0.05)
    assert moved.times == base.times
    for s_base, s_moved in zip(base.states, moved.states):
        np.testing.assert_array_equal(s_moved.positions,
                                      isometry(s_base.positions))
        np.testing.assert_array_equal(s_moved.velocities,
                                      isometry(s_base.velocities))
