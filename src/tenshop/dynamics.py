"""Explicit time integration with impulse-based ground contact.

The ground is the plane z = 0.  Each penetrating, approaching mass gets a
normal impulse enforcing the restitution law and a Coulomb-clamped friction
impulse opposing its tangential velocity; the kinetic energy removed is
accumulated in a dissipation ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (DiscretizedSystem, EnergyBreakdown, SystemState,
                    _column_norms, energy_gradient, total_energy)

SCHEMES = ("semi_implicit_euler", "velocity_verlet")
CHECK_INTERVAL = 200  # steps between divergence checks in simulate


class DivergenceError(RuntimeError):
    def __init__(self, message, time=None, mass_id=None):
        super().__init__(message)
        self.time = time
        self.mass_id = mass_id


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float | None = None            # None: derived from the stability bound
    scheme: str = "semi_implicit_euler"
    stability_safety: float = 0.01

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if not 0.0 < self.stability_safety < 1.0:
            raise ValueError("stability safety factor must lie in (0, 1)")

    def resolve_dt(self, system: DiscretizedSystem) -> float:
        dt = self.dt if self.dt is not None else stable_dt(system, self.stability_safety)
        limit = stable_dt(system, 1.0)
        if dt > limit:
            raise ValueError(f"dt {dt:g} exceeds the stability bound {limit:g}")
        return dt


def stable_dt(system: DiscretizedSystem, safety: float = 0.01) -> float:
    """safety * 2/omega_max over all springs, omega = sqrt(k / m_min_adjacent)."""
    m_min = np.minimum(system.mass[system.spring_i], system.mass[system.spring_j])
    omega = np.sqrt(system.spring_k / m_min)
    if len(system.hinge_k):
        # equivalent transverse stiffness of a hinge ~ k_theta / seg_len^2;
        # bar segment springs are laid out first, three per bar, two hinges per bar
        n_h = len(system.hinge_k)
        seg = system.spring_rest[3 * (np.arange(n_h) // 2)]
        m_h = system.mass[system.hinge_b]
        omega_h = np.sqrt(system.hinge_k / np.maximum(seg, 1e-300) ** 2 / m_h)
        omega = np.concatenate([omega, omega_h])
    return safety * 2.0 / float(np.max(omega))


@dataclass
class ContactEvent:
    mass_id: int
    time: float
    normal_impulse: float
    tangential_impulse: float
    dissipated: float


@dataclass
class Trajectory:
    times: list[float] = field(default_factory=list)
    states: list[SystemState] = field(default_factory=list)
    energies: list[EnergyBreakdown] = field(default_factory=list)
    contact_events: list[ContactEvent] = field(default_factory=list)

    def com_positions(self, system: DiscretizedSystem) -> np.ndarray:
        k = system.structural_count
        return np.array([s.positions[:k].mean(axis=0) for s in self.states])


def resolve_contacts(positions: np.ndarray, velocities: np.ndarray,
                     mass: np.ndarray, restitution: float, mu: float,
                     time: float = 0.0, record_events: bool = False):
    """Impulse response for masses below z = 0 that are still approaching.

    Mutates positions/velocities in place; returns
    (normal loss, friction loss, events).
    """
    z = positions[:, 2]
    if z.min() >= 0.0:  # airborne; NaN takes the full sweep
        return 0.0, 0.0, []
    idx = ((z < 0.0) & (velocities[:, 2] < 0.0)).nonzero()[0]
    if not len(idx):
        return 0.0, 0.0, []
    m = mass.take(idx)
    half_m = 0.5 * m
    v = velocities.take(idx, axis=0)

    vz = v[:, 2].copy()
    jn = -(1.0 + restitution) * m * vz
    np.multiply(-restitution, vz, out=v[:, 2])
    loss_n = half_m * vz ** 2 * (1.0 - restitution ** 2)

    vt = v[:, :2]
    speed_t = _column_norms(vt.T)
    jt_stop = m * speed_t
    jt = np.minimum(jt_stop, mu * jn)
    factor = np.where(speed_t > 0.0, 1.0 - jt / np.maximum(jt_stop, 1e-300), 1.0)
    vt *= factor[:, None]
    loss_t = half_m * speed_t ** 2 * (1.0 - factor ** 2)

    velocities[idx] = v
    z[idx] = 0.0

    events = []
    if record_events:
        events = [ContactEvent(int(i), time, float(n), float(t), float(dn + dt))
                  for i, n, t, dn, dt in zip(idx, jn, jt, loss_n, loss_t)]
    return float(loss_n.sum()), float(loss_t.sum()), events


def _check_finite(pos, time):
    if not np.all(np.isfinite(pos)):
        bad = int(np.nonzero(~np.isfinite(pos).all(axis=1))[0][0])
        raise DivergenceError(f"non-finite position for mass {bad} at t={time:g}",
                              time=time, mass_id=bad)


def _step_arrays(pos, vel, force, system, controls, dt, scheme, restitution,
                 mu, time, contact, record_events):
    """Advance pos and vel in place, given the force at pos or None.
    Returns (force at the new pos or None, normal loss, friction loss,
    events); only velocity Verlet knows that force."""
    inv_m = system.inverse_mass
    if scheme == "semi_implicit_euler":
        vel -= dt * energy_gradient(pos, system, controls) * inv_m
        pos += dt * vel
        force = None
    else:  # velocity_verlet
        if force is None:
            force = -energy_gradient(pos, system, controls)
        vel_half = vel + 0.5 * dt * force * inv_m
        pos += dt * vel_half
        force = -energy_gradient(pos, system, controls)
        vel[:] = vel_half + 0.5 * dt * force * inv_m
    if not contact:
        return force, 0.0, 0.0, []
    # the sweep can move a position only when a mass is below the ground
    if force is not None and not pos[:, 2].min() >= 0.0:
        force = None
    return (force, *resolve_contacts(pos, vel, system.mass, restitution, mu,
                                     time, record_events))


def simulate(initial: SystemState, system: DiscretizedSystem, controls,
             duration: float, config: IntegratorConfig | None = None,
             sample_interval: float = 0.01, contact: bool = True,
             record_events: bool = False) -> Trajectory:
    """Integrate a hop: actuators unwind freely from t = 0.

    `controls` give the pre-release stretches; the release is modeled by
    unlocking every actuator (rest length back to its natural length), so
    residual actuator tension vanishes.  The state and energy breakdown are
    sampled every `sample_interval`; positions are checked for divergence
    every CHECK_INTERVAL steps and at the end.
    """
    config = config or IntegratorConfig()
    dt = config.resolve_dt(system)
    released = tuple(
        type(c)(stretch=c.stretch, locked=False) for c in controls)

    pos = initial.positions.copy()
    vel = initial.velocities.copy()
    n_steps = int(round(duration / dt))
    stride = max(1, int(round(sample_interval / dt)))

    traj = Trajectory()
    dissipated = 0.0
    diss_friction = 0.0

    def sample(t):
        st = SystemState(pos.copy(), vel.copy())
        traj.times.append(t)
        traj.states.append(st)
        traj.energies.append(total_energy(st, system, released,
                                          dissipated=dissipated,
                                          dissipated_friction=diss_friction))

    force = None
    sample(0.0)
    for k in range(1, n_steps + 1):
        t = k * dt
        force, loss_n, loss_t, events = _step_arrays(
            pos, vel, force, system, released, dt, config.scheme,
            system.params.restitution, system.params.friction_coefficient,
            t, contact, record_events)
        dissipated += loss_n + loss_t
        diss_friction += loss_t
        if events:
            traj.contact_events.extend(events)
        if k % CHECK_INTERVAL == 0:
            _check_finite(pos, t)
        if k % stride == 0:
            sample(t)
    if n_steps % stride != 0:
        sample(n_steps * dt)
    _check_finite(pos, n_steps * dt)
    return traj
