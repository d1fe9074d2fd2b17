"""Energy model: gradients vs finite differences, lumping, parameters."""

import numpy as np
import pytest

from tenshop.model import (_NEXT, _PREV, ActuatorControl, MaterialParams,
                           SystemState, _row_norms, controls_from_stretches,
                           elastic_energy, energy_gradient, forces,
                           initial_state, total_energy)


def uniform_controls(system, stretch=0.5):
    return controls_from_stretches([stretch] * len(system.actuator_springs))


def central_difference_gradient(positions, system, controls, g, h=1e-6):
    def energy(p):
        e = elastic_energy(p, system, controls).elastic
        return e + g * np.sum(system.mass * p[:, 2])

    grad = np.zeros_like(positions)
    for i in range(positions.shape[0]):
        for ax in range(3):
            plus = positions.copy()
            minus = positions.copy()
            plus[i, ax] += h
            minus[i, ax] -= h
            grad[i, ax] = (energy(plus) - energy(minus)) / (2.0 * h)
    return grad


def test_gradient_matches_finite_differences(system_1x1, rng):
    controls = uniform_controls(system_1x1, 0.6)
    pos = system_1x1.rest_positions + 0.02 * rng.standard_normal(
        system_1x1.rest_positions.shape)
    analytic = energy_gradient(pos, system_1x1, controls)
    numeric = central_difference_gradient(pos, system_1x1, controls,
                                          system_1x1.gravity)
    scale = max(np.abs(analytic).max(), 1.0)
    assert np.abs(analytic - numeric).max() / scale < 1e-5


def test_kernel_primitives_equal_numpy_bitwise(rng):
    # The kernel replaces np.linalg.norm and np.cross with cheaper calls;
    # hop outputs stay byte-identical only if the values are exactly equal.
    a = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-6, 6, size=(500, 3))
    b = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-6, 6, size=(500, 3))
    for x in (a, a[:, :2], np.cross(a, b)):
        assert _row_norms(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()
    cross = a[:, _NEXT] * b[:, _PREV] - a[:, _PREV] * b[:, _NEXT]
    assert cross.tobytes() == np.cross(a, b).tobytes()


def test_slack_cables_carry_no_load(system_1x1):
    # Shrink the whole cell: every tension-only member goes slack.
    pos = system_1x1.rest_positions * 0.5
    controls = uniform_controls(system_1x1, 1.0)
    e = elastic_energy(pos, system_1x1, controls)
    assert e.elastic_cables == 0.0
    assert e.elastic_actuators == 0.0
    assert e.elastic_bars_axial > 0.0


def test_tension_only_energy_is_smooth_at_rest_length():
    # A lone cable's energy must be C1 at zero extension: forces from
    # extensions +/-h are O(h), not O(1).
    params = MaterialParams(1.0, 1.0, 100.0, 1.0, 1.0, 0.01, 0.002, 0.01,
                            gravity=0.0)
    from tenshop.geometry import assemble_lattice, build_unit_cell
    from tenshop.model import discretize
    system = discretize(assemble_lattice(build_unit_cell(1.0), 1, 1), params)
    controls = uniform_controls(system, 1.0)

    h = 1e-8
    for scale in (1.0 - h, 1.0, 1.0 + h):
        grad = energy_gradient(system.rest_positions * scale, system,
                               controls, gravity=0.0)
        assert np.abs(grad).max() < 100.0 * h * 10.0


def test_forces_are_negative_gradient(system_1x1, rng):
    controls = uniform_controls(system_1x1)
    pos = system_1x1.rest_positions + 0.01 * rng.standard_normal(
        system_1x1.rest_positions.shape)
    np.testing.assert_array_equal(
        forces(pos, system_1x1, controls),
        -energy_gradient(pos, system_1x1, controls))


def test_mass_lumping_counts_and_total(system_2x2, params):
    lat = system_2x2.topology
    n_bars = 48
    assert system_2x2.n == len(lat.nodes) + 2 * n_bars
    assert system_2x2.n == 184
    expected = (n_bars * params.bar_mass + 160 * params.cable_mass
                + 2 * 4 * params.actuator_end_mass)
    np.testing.assert_allclose(system_2x2.total_mass, expected, rtol=1e-12)
    assert (system_2x2.mass > 0.0).all()


def test_effective_rests_respond_to_controls(system_2x2):
    locked = controls_from_stretches([0.3, 0.5, 0.7, 0.9])
    rests = system_2x2.effective_rests(locked)
    for idx, nat, ctl in zip(system_2x2.actuator_springs,
                             system_2x2.actuator_natural, locked):
        np.testing.assert_allclose(rests[idx], ctl.stretch * nat)

    released = controls_from_stretches([0.3] * 4, locked=False)
    rests = system_2x2.effective_rests(released)
    np.testing.assert_allclose(rests[system_2x2.actuator_springs],
                               system_2x2.actuator_natural)

    with pytest.raises(ValueError):
        system_2x2.effective_rests(controls_from_stretches([0.5]))


def test_effective_rests_cache_keys_on_lock_state(system_2x2):
    # Equal stretches, different lock state: the cache must not mix them up.
    locked = controls_from_stretches([0.4] * 4)
    released = controls_from_stretches([0.4] * 4, locked=False)
    first = system_2x2.effective_rests(locked)
    rests = system_2x2.effective_rests(released)
    np.testing.assert_array_equal(rests[system_2x2.actuator_springs],
                                  system_2x2.actuator_natural)
    assert not np.array_equal(first, rests)
    # an equal tuple built anew hits the cache; the array is shared, so
    # it is read-only
    again = system_2x2.effective_rests(
        list(controls_from_stretches([0.4] * 4)))
    assert again is first and not again.flags.writeable


def test_rest_state_of_released_cell_is_equilibrium(system_1x1):
    # With actuators released and gravity off, the as-built geometry has
    # every member at natural length: the gradient vanishes.
    controls = controls_from_stretches([1.0], locked=False)
    grad = energy_gradient(system_1x1.rest_positions, system_1x1, controls,
                           gravity=0.0)
    assert np.abs(grad).max() < 1e-9


def test_total_energy_breakdown(system_1x1):
    state = initial_state(system_1x1)
    state.velocities[:, 0] = 2.0
    controls = controls_from_stretches([1.0], locked=False)
    e = total_energy(state, system_1x1, controls, dissipated=1.5,
                     dissipated_friction=0.5)
    np.testing.assert_allclose(
        e.kinetic, 0.5 * system_1x1.total_mass * 4.0, rtol=1e-12)
    np.testing.assert_allclose(
        e.gravitational,
        system_1x1.gravity * np.sum(system_1x1.mass
                                    * state.positions[:, 2]), rtol=1e-12)
    assert e.total == e.kinetic + e.gravitational + e.elastic
    assert e.dissipated == 1.5
    assert e.dissipated_friction == 0.5
    d = e.as_dict()
    assert set(d) == {"kinetic", "gravitational", "elastic_bars_axial",
                      "elastic_bars_angular", "elastic_cables",
                      "elastic_actuators", "dissipated",
                      "dissipated_friction"}


@pytest.mark.parametrize("field,value", [
    ("bar_axial_stiffness", 0.0),
    ("bar_mass", -1.0),
    ("restitution", 1.5),
    ("friction_coefficient", -0.1),
])
def test_material_params_validation(params, field, value):
    raw = {k: getattr(params, k) for k in (
        "bar_axial_stiffness", "bar_angular_stiffness",
        "edge_cable_stiffness", "attachment_cable_stiffness",
        "actuator_stiffness", "bar_mass", "cable_mass", "actuator_end_mass",
        "gravity", "restitution", "friction_coefficient")}
    raw[field] = value
    with pytest.raises(ValueError):
        MaterialParams(**raw)


def test_material_params_from_dict_rejects_unknown_keys(params):
    with pytest.raises(ValueError, match="unknown"):
        MaterialParams.from_dict({"bar_axial_stiffness": 1.0, "bogus": 2.0})


def test_actuator_control_validation():
    with pytest.raises(ValueError):
        ActuatorControl(0.0)
    with pytest.raises(ValueError):
        ActuatorControl(1.2)
    assert ActuatorControl(1.0).locked


def test_state_copy_is_independent(system_1x1):
    state = initial_state(system_1x1)
    other = state.copy()
    other.positions += 1.0
    assert not np.array_equal(state.positions, other.positions)
    assert state.n == system_1x1.n
