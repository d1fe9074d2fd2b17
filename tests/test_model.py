"""Energy model: gradients vs finite differences, lumping, parameters."""

import json

import numpy as np
import pytest

from tenshop.geometry import (CANONICAL_NODES, DEFAULT_BAR_TABLE,
                              assemble_lattice)
from tenshop.hopsim import build_system
from tenshop.model import (_NEXT, _PREV, BAR_AXIAL, ActuatorControl,
                           EnergyBreakdown, MaterialParams, SystemState,
                           _column_norms, controls_from_stretches, discretize,
                           elastic_energy, energy_gradient, initial_state,
                           total_energy)


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
        assert _column_norms(x.T).tobytes() == np.linalg.norm(x, axis=1).tobytes()
    cross = a[:, _NEXT] * b[:, _PREV] - a[:, _PREV] * b[:, _NEXT]
    assert cross.tobytes() == np.cross(a, b).tobytes()


# Reference kernel: the energy and gradient as they were before the
# gradient's numpy calls were cut, kept verbatim except that the two index
# arrays they read from the system are built here.  The shipped kernel must
# match it bit for bit, so hop outputs stay byte-identical.

def _reference_member_ends(system):
    heads = np.concatenate([system.spring_j, system.hinge_a, system.hinge_c])
    tails = np.concatenate([system.spring_i, system.hinge_b, system.hinge_b])
    return heads.astype(np.intp), tails.astype(np.intp)


def _reference_gradient_bins(system):
    idx = np.concatenate([system.spring_i, system.spring_j, system.hinge_a,
                          system.hinge_c, system.hinge_b]).astype(np.intp)
    return (3 * idx[:, None] + np.arange(3)).ravel()


def _reference_row_norms(x):
    sq = x * x
    total = sq[:, 0] + sq[:, 1]
    for k in range(2, x.shape[1]):
        total += sq[:, k]
    return np.sqrt(total)


def _reference_members(positions, system):
    heads, tails = _reference_member_ends(system)
    vec = positions.take(heads, axis=0) - positions.take(tails, axis=0)
    return vec, _reference_row_norms(vec)


def _reference_spring_extensions(vec, norms, system, rests):
    s = len(system.spring_k)
    d, length = vec[:s], norms[:s]
    ext = length - rests
    ext = np.where(system.spring_tension_only & (ext < 0.0), 0.0, ext)
    return d, length, ext


def _reference_hinge_geometry(vec, norms, system):
    s, h = len(system.spring_k), len(system.hinge_k)
    u, w = vec[s:s + h], vec[s + h:]
    nu, nw = norms[s:s + h], norms[s + h:]
    cross = u[:, _NEXT] * w[:, _PREV] - u[:, _PREV] * w[:, _NEXT]
    sin_phi = _reference_row_norms(cross) / (nu * nw)
    p = u * w
    cos_phi = (p[:, 0] + p[:, 1] + p[:, 2]) / (nu * nw)
    theta = np.arctan2(sin_phi, -cos_phi)
    return u, w, nu, nw, sin_phi, cos_phi, theta


def reference_elastic_energy(positions, system, controls):
    rests = system.effective_rests(controls)
    vec, norms = _reference_members(positions, system)
    _, _, ext = _reference_spring_extensions(vec, norms, system, rests)
    e = 0.5 * system.spring_k * ext ** 2
    by_class = np.bincount(system.spring_class, weights=e, minlength=4)

    if len(system.hinge_k):
        *_, theta = _reference_hinge_geometry(vec, norms, system)
        angular = float(np.sum(0.5 * system.hinge_k * theta ** 2))
    else:
        angular = 0.0

    return EnergyBreakdown(
        elastic_bars_axial=float(by_class[BAR_AXIAL]),
        elastic_bars_angular=angular,
        elastic_cables=float(by_class[1] + by_class[2]),
        elastic_actuators=float(by_class[3]))


def reference_energy_gradient(positions, system, controls, gravity=None):
    g = system.gravity if gravity is None else gravity
    rests = system.effective_rests(controls)
    vec, norms = _reference_members(positions, system)
    d, length, ext = _reference_spring_extensions(vec, norms, system, rests)
    n = positions.shape[0]

    f = system.spring_k * ext / np.maximum(length, 1e-300)
    pull = f[:, None] * d
    contrib = [-pull, pull]

    if len(system.hinge_k):
        u, w, nu, nw, sin_phi, cos_phi, theta = _reference_hinge_geometry(
            vec, norms, system)
        uh = u / nu[:, None]
        wh = w / nw[:, None]
        ratio = np.where(sin_phi > 1e-9, theta / np.maximum(sin_phi, 1e-300), 1.0)
        coeff = system.hinge_k * ratio
        ga = coeff[:, None] * (wh - cos_phi[:, None] * uh) / nu[:, None]
        gc = coeff[:, None] * (uh - cos_phi[:, None] * wh) / nw[:, None]
        contrib += [ga, gc, -(ga + gc)]

    grad = np.bincount(_reference_gradient_bins(system),
                       weights=np.concatenate(contrib).ravel(),
                       minlength=3 * n).reshape(n, 3)
    if g:
        grad[:, 2] += system.mass * g
    return grad


def assert_bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def kernel_test_states(system, rng):
    """Random states with slack cables, an exactly straight bar and a row
    of NaN positions among them."""
    rest = system.rest_positions
    states = [rest + scale * rng.standard_normal(rest.shape)
              for scale in (1e-6, 1e-3, 2e-2, 0.1)]
    states.append(0.9 * rest + 1e-3 * rng.standard_normal(rest.shape))
    straight = rest + 1e-2 * rng.standard_normal(rest.shape)
    a, b, c = system.hinge_a[0], system.hinge_b[0], system.hinge_c[0]
    origin, step = np.array([0.5, 0.25, 1.0]), np.array([0.125, 0.25, 0.0625])
    straight[[a, b, c]] = origin, origin + step, origin + 2.0 * step
    states.append(straight)
    broken = rest + 1e-2 * rng.standard_normal(rest.shape)
    broken[rng.integers(system.n)] = np.nan
    states.append(broken)
    return states


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2)])
def test_kernel_is_bitwise_equal_to_reference(unit_cell, params, shape):
    system = discretize(assemble_lattice(unit_cell, *shape), params)
    rng = np.random.default_rng(sum(shape))
    stretches = rng.uniform(0.2, 0.8, shape[0] * shape[1])
    slack = straight = False
    for positions in kernel_test_states(system, rng):
        vec, norms = _reference_members(positions, system)
        rests = system.effective_rests(controls_from_stretches(stretches))
        ext = norms[:len(rests)] - rests
        slack |= bool((ext[system.spring_tension_only] < 0.0).any())
        sin_phi = _reference_hinge_geometry(vec, norms, system)[4]
        straight |= bool((sin_phi <= 1e-9).any())
        for locked in (True, False):
            controls = controls_from_stretches(stretches, locked)
            for gravity in (None, 0.0):
                assert_bitwise_equal(
                    energy_gradient(positions, system, controls, gravity),
                    reference_energy_gradient(positions, system, controls,
                                              gravity))
            assert_bitwise_equal(
                list(elastic_energy(positions, system, controls)
                     .as_dict().values()),
                list(reference_elastic_energy(positions, system, controls)
                     .as_dict().values()))
    assert slack and straight


def test_tension_only_springs_are_a_suffix(system_2x2, params, tmp_path):
    # The kernels clamp the cables and actuators as one suffix of the
    # springs; a topology file lists its bars in any order.
    index = {node: k for k, node in enumerate(CANONICAL_NODES)}
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({
        "schema_version": "1.0", "l": 1.5,
        "bars": [[index[q], index[p]] for p, q in DEFAULT_BAR_TABLE[::-1]]}))
    from_file = build_system(2, 1, params=params, topology_file=str(path))
    for system in (system_2x2, from_file):
        start = system.tension_only_start
        assert start == 3 * len(system.hinge_k) // 2
        assert not system.spring_tension_only[:start].any()
        assert system.spring_tension_only[start:].all()
        assert (system.spring_class[:start] == BAR_AXIAL).all()
        assert (system.spring_class[start:] != BAR_AXIAL).all()


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
