"""Explicit time integration with impulse-based ground contact.

The ground is the plane z = 0.  Each penetrating, approaching mass gets a
normal impulse enforcing the restitution law and a Coulomb-clamped friction
impulse opposing its tangential velocity; the kinetic energy removed is
accumulated in a dissipation ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import (DiscretizedSystem, EnergyBreakdown, SystemState,
                    _row_norms, energy_gradient, total_energy)

SCHEMES = ("semi_implicit_euler", "velocity_verlet")


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
    hit = (positions[:, 2] < 0.0) & (velocities[:, 2] < 0.0)
    idx = hit.nonzero()[0]
    if not len(idx):
        return 0.0, 0.0, []
    m = mass.take(idx)
    v = velocities.take(idx, axis=0)

    vz = v[:, 2].copy()
    jn = -(1.0 + restitution) * m * vz
    v[:, 2] = -restitution * vz
    loss_n = 0.5 * m * vz ** 2 * (1.0 - restitution ** 2)

    vt = v[:, :2]
    speed_t = _row_norms(vt)
    jt_stop = m * speed_t
    jt = np.minimum(jt_stop, mu * jn)
    factor = np.where(speed_t > 0.0, 1.0 - jt / np.maximum(jt_stop, 1e-300), 1.0)
    v[:, :2] = vt * factor[:, None]
    loss_t = 0.5 * m * speed_t ** 2 * (1.0 - factor ** 2)

    velocities[idx] = v
    positions[idx, 2] = 0.0

    events = []
    if record_events:
        events = [ContactEvent(int(i), time, float(n), float(t), float(dn + dt))
                  for i, n, t, dn, dt in zip(idx, jn, jt, loss_n, loss_t)]
    return float(loss_n.sum()), float(loss_t.sum()), events


def step(state: SystemState, system: DiscretizedSystem, controls,
         config: IntegratorConfig, time: float = 0.0,
         contact: bool = True, record_events: bool = False):
    """Advance one time step; returns (new state, dissipated, events)."""
    dt = config.resolve_dt(system)
    pos = state.positions.copy()
    vel = state.velocities.copy()
    loss_n, loss_t, events = _step_arrays(
        pos, vel, system, controls, dt, config.scheme,
        system.params.restitution, system.params.friction_coefficient,
        time, contact, record_events)
    _check_finite(pos, time)
    return SystemState(pos, vel), loss_n + loss_t, events


def _check_finite(pos, time):
    if not np.all(np.isfinite(pos)):
        bad = int(np.nonzero(~np.isfinite(pos).all(axis=1))[0][0])
        raise DivergenceError(f"non-finite position for mass {bad} at t={time:g}",
                              time=time, mass_id=bad)


def _step_arrays(pos, vel, system, controls, dt, scheme, restitution, mu,
                 time, contact, record_events):
    inv_m = 1.0 / system.mass[:, None]
    if scheme == "semi_implicit_euler":
        f = -energy_gradient(pos, system, controls)
        vel += dt * f * inv_m
        pos += dt * vel
    else:  # velocity_verlet
        f = -energy_gradient(pos, system, controls)
        vel_half = vel + 0.5 * dt * f * inv_m
        pos += dt * vel_half
        f2 = -energy_gradient(pos, system, controls)
        vel[:] = vel_half + 0.5 * dt * f2 * inv_m
    if contact:
        return resolve_contacts(pos, vel, system.mass, restitution, mu,
                                time, record_events)
    return 0.0, 0.0, []


def simulate(initial: SystemState, system: DiscretizedSystem, controls,
             duration: float, config: IntegratorConfig | None = None,
             sample_interval: float = 0.01, contact: bool = True,
             gravity_on: bool = True, record_events: bool = False,
             check_interval: int = 200) -> Trajectory:
    """Integrate a hop: actuators unwind freely from t = 0.

    `controls` give the pre-release stretches; the release is modeled by
    unlocking every actuator (rest length back to its natural length), so
    residual actuator tension vanishes.  The state and energy breakdown are
    sampled every `sample_interval`.
    """
    config = config or IntegratorConfig()
    dt = config.resolve_dt(system)
    released = tuple(
        type(c)(stretch=c.stretch, locked=False) for c in controls)
    sys_eff = system if gravity_on else replace(system, gravity=0.0)

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
        traj.energies.append(total_energy(st, sys_eff, released,
                                          dissipated=dissipated,
                                          dissipated_friction=diss_friction))

    sample(0.0)
    for k in range(1, n_steps + 1):
        t = k * dt
        loss_n, loss_t, events = _step_arrays(
            pos, vel, sys_eff, released, dt, config.scheme,
            system.params.restitution, system.params.friction_coefficient,
            t, contact, record_events)
        dissipated += loss_n + loss_t
        diss_friction += loss_t
        if events:
            traj.contact_events.extend(events)
        if k % check_interval == 0:
            _check_finite(pos, t)
        if k % stride == 0:
            sample(t)
    if n_steps % stride != 0:
        sample(n_steps * dt)
    _check_finite(pos, n_steps * dt)
    return traj
