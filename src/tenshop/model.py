"""Reduced-order elastic model of the tensegrity lattice.

Bars are discretized into four point masses joined by three axial springs
and two angular (hinge) springs; cables and actuators are tension-only
linear springs.  Energies and the analytic gradient are evaluated over the
flat point-mass state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .geometry import LatticeTopology, MemberKind

# Spring element classes, used for the energy breakdown.
BAR_AXIAL = 0
EDGE = 1
ATTACH = 2
ACTUATOR = 3

_PARAM_FIELDS = {
    "bar_axial_stiffness", "bar_angular_stiffness",
    "edge_cable_stiffness", "attachment_cable_stiffness",
    "actuator_stiffness", "bar_mass", "cable_mass", "actuator_end_mass",
    "gravity", "restitution", "friction_coefficient",
}


@dataclass(frozen=True)
class MaterialParams:
    """Stiffnesses (N/m except angular, N*m/rad^2), masses (kg), gravity
    (m/s^2) and ground contact coefficients."""
    bar_axial_stiffness: float
    bar_angular_stiffness: float
    edge_cable_stiffness: float
    attachment_cable_stiffness: float
    actuator_stiffness: float
    bar_mass: float
    cable_mass: float
    actuator_end_mass: float
    gravity: float = 9.81
    restitution: float = 0.0
    friction_coefficient: float = 0.6

    def __post_init__(self):
        for name in ("bar_axial_stiffness", "bar_angular_stiffness",
                     "edge_cable_stiffness", "attachment_cable_stiffness",
                     "actuator_stiffness", "bar_mass", "cable_mass",
                     "actuator_end_mass"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.restitution <= 1.0:
            raise ValueError("restitution must lie in [0, 1]")
        if self.friction_coefficient < 0.0:
            raise ValueError("friction coefficient must be nonnegative")

    @classmethod
    def from_dict(cls, raw: dict) -> "MaterialParams":
        raw = dict(raw)
        ground = raw.pop("ground", {})
        raw.setdefault("restitution", ground.get("restitution", 0.0))
        raw.setdefault("friction_coefficient", ground.get("friction_coefficient", 0.6))
        unknown = (set(raw) | set(ground)) - _PARAM_FIELDS - {"restitution",
                                                              "friction_coefficient"}
        if unknown:
            raise ValueError(f"unknown material parameter keys: {sorted(unknown)}")
        return cls(**raw)


@dataclass(frozen=True)
class ActuatorControl:
    """Locked actuator rest length is stretch * natural length."""
    stretch: float
    locked: bool = True

    def __post_init__(self):
        if not 0.0 < self.stretch <= 1.0:
            raise ValueError(f"stretch must lie in (0, 1], got {self.stretch}")


def controls_from_stretches(stretches, locked: bool = True):
    return tuple(ActuatorControl(float(lam), locked) for lam in stretches)


@dataclass
class SystemState:
    positions: np.ndarray   # (N, 3)
    velocities: np.ndarray  # (N, 3)

    def copy(self) -> "SystemState":
        return SystemState(self.positions.copy(), self.velocities.copy())

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float = 0.0
    gravitational: float = 0.0
    elastic_bars_axial: float = 0.0
    elastic_bars_angular: float = 0.0
    elastic_cables: float = 0.0
    elastic_actuators: float = 0.0
    dissipated: float = 0.0
    dissipated_friction: float = 0.0  # Coulomb share of `dissipated`

    @property
    def elastic(self) -> float:
        return (self.elastic_bars_axial + self.elastic_bars_angular
                + self.elastic_cables + self.elastic_actuators)

    @property
    def total(self) -> float:
        return self.kinetic + self.gravitational + self.elastic

    def as_dict(self) -> dict:
        return {
            "kinetic": self.kinetic,
            "gravitational": self.gravitational,
            "elastic_bars_axial": self.elastic_bars_axial,
            "elastic_bars_angular": self.elastic_bars_angular,
            "elastic_cables": self.elastic_cables,
            "elastic_actuators": self.elastic_actuators,
            "dissipated": self.dissipated,
            "dissipated_friction": self.dissipated_friction,
        }


@dataclass(frozen=True)
class DiscretizedSystem:
    """Flat spring/mass arrays for fast vectorized evaluation."""
    mass: np.ndarray               # (N,)
    rest_positions: np.ndarray     # (N, 3) build-time geometry
    spring_i: np.ndarray           # (S,)
    spring_j: np.ndarray
    spring_k: np.ndarray
    spring_rest: np.ndarray        # natural lengths, actuators at natural l
    spring_tension_only: np.ndarray
    spring_class: np.ndarray
    hinge_a: np.ndarray            # (H,) outer mass
    hinge_b: np.ndarray            # hinge mass
    hinge_c: np.ndarray            # outer mass
    hinge_k: np.ndarray
    actuator_springs: np.ndarray   # (A,) indices into the spring arrays
    actuator_natural: np.ndarray   # (A,)
    structural_count: int
    gravity: float
    params: MaterialParams
    topology: LatticeTopology = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.mass.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    @cached_property
    def member_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """(heads, tails) of every member vector: the springs j - i, then
        the hinge arms a - b and c - b."""
        heads = np.concatenate([self.spring_j, self.hinge_a, self.hinge_c])
        tails = np.concatenate([self.spring_i, self.hinge_b, self.hinge_b])
        return heads.astype(np.intp), tails.astype(np.intp)

    @cached_property
    def gradient_bins(self) -> np.ndarray:
        """Flat (mass, axis) bin of each gradient term, in the order
        energy_gradient stacks them: spring ends i then j, then hinge
        ends a, c and hinge masses b."""
        idx = np.concatenate([self.spring_i, self.spring_j, self.hinge_a,
                              self.hinge_c, self.hinge_b]).astype(np.intp)
        return (3 * idx[:, None] + np.arange(3)).ravel()

    def effective_rests(self, controls) -> np.ndarray:
        """Spring rest lengths under the given actuator controls."""
        if len(controls) != len(self.actuator_springs):
            raise ValueError(
                f"expected {len(self.actuator_springs)} controls, got {len(controls)}")
        rest = self.spring_rest.copy()
        for idx, nat, ctl in zip(self.actuator_springs, self.actuator_natural,
                                 controls):
            rest[idx] = ctl.stretch * nat if ctl.locked else nat
        return rest


def discretize(topology: LatticeTopology, params: MaterialParams) -> DiscretizedSystem:
    """Expand bars into 4-mass chains and lump member masses onto nodes."""
    points = topology.nodes.copy()
    n_points = points.shape[0]
    bars = [m for m in topology.members if m.kind is MemberKind.BAR]

    positions = [points]
    mass = np.zeros(n_points + 2 * len(bars))

    spring_i, spring_j, spring_k, spring_rest = [], [], [], []
    spring_tension, spring_class = [], []
    hinge_a, hinge_b, hinge_c, hinge_k = [], [], [], []

    def add_spring(i, j, k, rest, tension_only, cls):
        spring_i.append(i)
        spring_j.append(j)
        spring_k.append(k)
        spring_rest.append(rest)
        spring_tension.append(tension_only)
        spring_class.append(cls)

    next_id = n_points
    for bar in bars:
        p0, p1 = points[bar.i], points[bar.j]
        m1, m2 = next_id, next_id + 1
        next_id += 2
        positions.append(np.array([p0 + (p1 - p0) / 3.0, p0 + 2.0 * (p1 - p0) / 3.0]))
        seg = bar.natural_length / 3.0
        k = params.bar_axial_stiffness
        add_spring(bar.i, m1, k, seg, False, BAR_AXIAL)
        add_spring(m1, m2, k, seg, False, BAR_AXIAL)
        add_spring(m2, bar.j, k, seg, False, BAR_AXIAL)
        hinge_a.extend([bar.i, m1])
        hinge_b.extend([m1, m2])
        hinge_c.extend([m2, bar.j])
        hinge_k.extend([params.bar_angular_stiffness] * 2)
        # segment mass lumped half to each end: ends 1/6, interior 1/3
        seg_m = params.bar_mass / 3.0
        mass[bar.i] += seg_m / 2.0
        mass[m1] += seg_m
        mass[m2] += seg_m
        mass[bar.j] += seg_m / 2.0

    cable_k = {MemberKind.EDGE_CABLE: (params.edge_cable_stiffness, EDGE),
               MemberKind.ATTACHMENT_CABLE: (params.attachment_cable_stiffness, ATTACH)}
    for m in topology.members:
        if m.kind in cable_k:
            k, cls = cable_k[m.kind]
            add_spring(m.i, m.j, k, m.natural_length, True, cls)
            mass[m.i] += params.cable_mass / 2.0
            mass[m.j] += params.cable_mass / 2.0

    actuator_spring_ids = []
    actuator_natural = []
    for member_idx in topology.actuators:
        m = topology.members[member_idx]
        actuator_spring_ids.append(len(spring_i))
        actuator_natural.append(m.natural_length)
        add_spring(m.i, m.j, params.actuator_stiffness, m.natural_length,
                   True, ACTUATOR)
        mass[m.i] += params.actuator_end_mass
        mass[m.j] += params.actuator_end_mass

    return DiscretizedSystem(
        mass=mass,
        rest_positions=np.vstack(positions),
        spring_i=np.array(spring_i), spring_j=np.array(spring_j),
        spring_k=np.array(spring_k), spring_rest=np.array(spring_rest),
        spring_tension_only=np.array(spring_tension, dtype=bool),
        spring_class=np.array(spring_class),
        hinge_a=np.array(hinge_a), hinge_b=np.array(hinge_b),
        hinge_c=np.array(hinge_c), hinge_k=np.array(hinge_k),
        actuator_springs=np.array(actuator_spring_ids),
        actuator_natural=np.array(actuator_natural),
        structural_count=topology.structural_count,
        gravity=params.gravity, params=params, topology=topology)


def initial_state(system: DiscretizedSystem) -> SystemState:
    return SystemState(system.rest_positions.copy(),
                       np.zeros_like(system.rest_positions))


def _row_norms(x):
    """np.linalg.norm(x, axis=1) without its dispatch: the squares are
    summed column by column, left to right, as numpy's row reduction does."""
    sq = x * x
    total = sq[:, 0] + sq[:, 1]
    for k in range(2, x.shape[1]):
        total += sq[:, k]
    return np.sqrt(total)


def _members(positions, system):
    """Every member vector (see DiscretizedSystem.member_ends) and its
    length, gathered in one pass."""
    heads, tails = system.member_ends
    vec = positions.take(heads, axis=0) - positions.take(tails, axis=0)
    return vec, _row_norms(vec)


def _spring_extensions(vec, norms, system, rests):
    s = len(system.spring_k)
    d, length = vec[:s], norms[:s]
    ext = length - rests
    ext = np.where(system.spring_tension_only & (ext < 0.0), 0.0, ext)
    return d, length, ext


_NEXT = np.array([1, 2, 0])  # (a x b)_k = a_next b_prev - a_prev b_next
_PREV = np.array([2, 0, 1])


def _hinge_geometry(vec, norms, system):
    s, h = len(system.spring_k), len(system.hinge_k)
    u, w = vec[s:s + h], vec[s + h:]
    nu, nw = norms[s:s + h], norms[s + h:]
    # np.cross term by term, without its per-call axis handling
    cross = u[:, _NEXT] * w[:, _PREV] - u[:, _PREV] * w[:, _NEXT]
    sin_phi = _row_norms(cross) / (nu * nw)
    cos_phi = np.einsum("ij,ij->i", u, w) / (nu * nw)
    # theta = pi - interior angle: deviation from a straight bar
    theta = np.arctan2(sin_phi, -cos_phi)
    return u, w, nu, nw, sin_phi, cos_phi, theta


def elastic_energy(positions: np.ndarray, system: DiscretizedSystem,
                   controls) -> EnergyBreakdown:
    rests = system.effective_rests(controls)
    vec, norms = _members(positions, system)
    _, _, ext = _spring_extensions(vec, norms, system, rests)
    e = 0.5 * system.spring_k * ext ** 2
    by_class = np.bincount(system.spring_class, weights=e, minlength=4)

    if len(system.hinge_k):
        *_, theta = _hinge_geometry(vec, norms, system)
        angular = float(np.sum(0.5 * system.hinge_k * theta ** 2))
    else:
        angular = 0.0

    return EnergyBreakdown(
        elastic_bars_axial=float(by_class[BAR_AXIAL]),
        elastic_bars_angular=angular,
        elastic_cables=float(by_class[EDGE] + by_class[ATTACH]),
        elastic_actuators=float(by_class[ACTUATOR]))


def energy_gradient(positions: np.ndarray, system: DiscretizedSystem,
                    controls, gravity: float | None = None) -> np.ndarray:
    """Gradient of total potential energy; force is its negative."""
    g = system.gravity if gravity is None else gravity
    rests = system.effective_rests(controls)
    vec, norms = _members(positions, system)
    d, length, ext = _spring_extensions(vec, norms, system, rests)
    n = positions.shape[0]

    f = system.spring_k * ext / np.maximum(length, 1e-300)
    pull = f[:, None] * d  # force on i toward j when extended
    contrib = [-pull, pull]

    if len(system.hinge_k):
        u, w, nu, nw, sin_phi, cos_phi, theta = _hinge_geometry(vec, norms, system)
        uh = u / nu[:, None]
        wh = w / nw[:, None]
        # dE/dx = k*theta * dtheta/dx; theta/sin(phi) -> 1 as the bar
        # straightens, so the straight configuration is regular.
        ratio = np.where(sin_phi > 1e-9, theta / np.maximum(sin_phi, 1e-300), 1.0)
        coeff = system.hinge_k * ratio
        ga = coeff[:, None] * (wh - cos_phi[:, None] * uh) / nu[:, None]
        gc = coeff[:, None] * (uh - cos_phi[:, None] * wh) / nw[:, None]
        contrib += [ga, gc, -(ga + gc)]

    # one bincount over flat (mass, axis) bins; each bin sums its terms in
    # stack order, as a bincount per axis would
    grad = np.bincount(system.gradient_bins,
                       weights=np.concatenate(contrib).ravel(),
                       minlength=3 * n).reshape(n, 3)
    if g:
        grad[:, 2] += system.mass * g
    return grad


def forces(positions, system, controls, gravity=None):
    return -energy_gradient(positions, system, controls, gravity)


def total_energy(state: SystemState, system: DiscretizedSystem, controls,
                 dissipated: float = 0.0, dissipated_friction: float = 0.0,
                 gravity: float | None = None) -> EnergyBreakdown:
    g = system.gravity if gravity is None else gravity
    elastic = elastic_energy(state.positions, system, controls)
    kinetic = float(0.5 * np.sum(system.mass[:, None] * state.velocities ** 2))
    gravitational = float(g * np.sum(system.mass * state.positions[:, 2]))
    return replace(elastic, kinetic=kinetic, gravitational=gravitational,
                   dissipated=dissipated,
                   dissipated_friction=dissipated_friction)
