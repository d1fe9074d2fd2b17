"""Campaign harness: sample stretches, form-find, simulate, reduce.

Each sample draws one actuator stretch per cell, finds the locked
equilibrium by conjugate gradient descent, rests the structure on the
ground, releases the actuators, and reduces the trajectory to a landing
record.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .dynamics import DivergenceError, IntegratorConfig, simulate
from .formfind import CgConfig, cg_minimize, dynamic_relaxation
from .geometry import assemble_lattice, build_unit_cell, load_topology_file
from .model import (DiscretizedSystem, MaterialParams, SystemState,
                    controls_from_stretches, discretize, elastic_energy,
                    initial_state)

log = logging.getLogger("tenshop.hopsim")

DEFAULT_LAMBDA_RANGE = (0.2, 0.8)


@dataclass(frozen=True)
class CampaignConfig:
    samples: int = 100
    lambda_min: float = DEFAULT_LAMBDA_RANGE[0]
    lambda_max: float = DEFAULT_LAMBDA_RANGE[1]
    seed: int = 0
    duration: float = 3.0
    jobs: int = 1
    sample_interval: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.lambda_min < self.lambda_max <= 1.0:
            raise ValueError("need 0 < lambda_min < lambda_max <= 1")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")


# Column names of the fixed-size tuple fields of HopRecord.
_TUPLE_COLUMNS = {
    "final_com": ("final_com_x", "final_com_y", "final_com_z"),
    "final_com_weighted": ("final_com_mx", "final_com_my", "final_com_mz"),
}


@dataclass
class HopRecord:
    sample_id: int
    stretches: tuple[float, ...]
    differential_stretch: float
    combined_stretch: float
    equilibrium_energy: float
    equilibrium_converged: bool
    final_com: tuple[float, float, float]
    final_com_weighted: tuple[float, float, float]
    peak_com_height: float
    final_dx: float
    final_dy: float
    landing_dx: float
    landing_dy: float
    landing_vx: float
    landing_vy: float
    landing_time: float
    dissipated: float
    dissipated_friction: float
    diverged: bool = False

    @property
    def clean(self) -> bool:
        return self.equilibrium_converged and not self.diverged

    @classmethod
    def header(cls, n_stretches: int) -> list[str]:
        """Dataset column names, one per scalar of row(), in field order."""
        names = []
        for f in fields(cls):
            if f.name == "stretches":
                names.extend(f"lambda{k}" for k in range(1, n_stretches + 1))
            else:
                names.extend(_TUPLE_COLUMNS.get(f.name, (f.name,)))
        return names

    def row(self) -> list:
        values = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                values.extend(value)
            elif isinstance(value, bool):
                values.append(int(value))
            else:
                values.append(value)
        return values


def unreduced_record(sample_id: int, stretches,
                     equilibrium_energy: float = float("nan"),
                     equilibrium_converged: bool = False,
                     diverged: bool = True) -> HopRecord:
    """Record of a sample without a trajectory: every hop quantity is NaN."""
    nan = float("nan")
    return HopRecord(
        sample_id=sample_id,
        stretches=tuple(float(v) for v in stretches),
        differential_stretch=differential_stretch(stretches),
        combined_stretch=float(sum(stretches)),
        equilibrium_energy=equilibrium_energy,
        equilibrium_converged=equilibrium_converged,
        final_com=(nan,) * 3, final_com_weighted=(nan,) * 3,
        peak_com_height=nan, final_dx=nan, final_dy=nan,
        landing_dx=nan, landing_dy=nan, landing_vx=nan, landing_vy=nan,
        landing_time=nan, dissipated=nan, dissipated_friction=nan,
        diverged=diverged)


def sample_stretches(rng: np.random.Generator, n: int,
                     lam_range=DEFAULT_LAMBDA_RANGE, n_actuators: int = 4):
    """IID uniform stretch tuples; PCG64-backed, reproducible per seed."""
    lo, hi = lam_range
    if not 0.0 < lo < hi <= 1.0:
        raise ValueError("invalid stretch range")
    draws = rng.uniform(lo, hi, size=(n, n_actuators))
    return [tuple(float(v) for v in row) for row in draws]


def center_of_mass(state: SystemState, system: DiscretizedSystem) -> np.ndarray:
    """Unweighted mean of the structural node positions."""
    return state.positions[:system.structural_count].mean(axis=0)


def center_of_mass_weighted(state: SystemState,
                            system: DiscretizedSystem) -> np.ndarray:
    return (system.mass[:, None] * state.positions).sum(axis=0) / system.mass.sum()


def differential_stretch(stretches) -> float:
    """Alternating stretch sum: the left/right column imbalance on 2x2."""
    arr = np.asarray(stretches, dtype=float)
    signs = (-1.0) ** np.arange(arr.size)
    return float(np.dot(signs, arr))


def build_system(nx: int = 2, ny: int = 2, l: float = 1.0,
                 params: MaterialParams | None = None,
                 topology_file: str | None = None) -> DiscretizedSystem:
    """Discretized nx-by-ny lattice of default cells of size l, or of the
    cell read from `topology_file` (which carries its own size)."""
    from .config import default_params
    cell = (load_topology_file(topology_file) if topology_file
            else build_unit_cell(l))
    lattice = assemble_lattice(cell, nx, ny)
    return discretize(lattice, params or default_params())


def find_equilibrium(system: DiscretizedSystem, stretches,
                     cg_config: CgConfig | None = None,
                     ramp_stages: int = 3):
    """Gravity-free locked equilibrium, with a staged-stretch fallback.

    Starts from the unloaded geometry with the actuator rest lengths set
    directly to the targets; on non-convergence, re-runs through a short
    ramp of intermediate stretches.
    """
    cg_config = cg_config or CgConfig()
    controls = controls_from_stretches(stretches)
    state, result = cg_minimize(initial_state(system), system, controls, cg_config)
    if result.converged:
        return state, result, controls
    log.info("direct form-find unconverged; ramping stretches")
    state = initial_state(system)
    for stage in range(1, ramp_stages + 1):
        frac = stage / ramp_stages
        staged = [1.0 + frac * (lam - 1.0) for lam in stretches]
        state, result = cg_minimize(state, system, controls_from_stretches(staged),
                                    cg_config)
    if result.converged:
        return state, result, controls
    # CG line searches stall on fp energy resolution before the gradient
    # tolerance on hard stretch patterns; damped dynamics finishes the job.
    log.info("ramped form-find stalled at %.2e; relaxation polish",
             result.gradient_norm)
    state, info = dynamic_relaxation(state, system, controls,
                                     tolerance=cg_config.gradient_tolerance)
    state.velocities[:] = 0.0
    result = replace(result, x=state.positions.ravel().copy(),
                     gradient_norm=info["residual"],
                     converged=info["converged"])
    return state, result, controls


def landing_displacement(traj, system: DiscretizedSystem,
                         clearance: float = 1e-6):
    """COM displacement at first touchdown after the apex.

    The landing is the first sampled state at or after the peak-COM-height
    sample where any mass is back on the ground.  Returns (dx, dy, time);
    NaNs when the structure never clears the ground.
    """
    com = traj.com_positions(system)
    z_min = np.array([s.positions[:, 2].min() for s in traj.states])
    airborne = z_min > clearance
    if not airborne.any():
        return float("nan"), float("nan"), float("nan")
    apex = int(com[:, 2].argmax())
    grounded = np.nonzero(~airborne[apex:])[0]
    idx = apex + int(grounded[0]) if grounded.size else len(com) - 1
    dx, dy = com[idx, :2] - com[0, :2]
    return float(dx), float(dy), float(traj.times[idx])


def landing_velocity(traj, system: DiscretizedSystem,
                     clearance: float = 1e-6):
    """Mean horizontal COM velocity over the main ballistic phase.

    Ballistic flight preserves the horizontal COM velocity, so this is the
    direction the structure is travelling when it lands.  Averaged over the
    first contiguous airborne stretch of samples; NaNs when the structure
    never clears the ground for at least three samples.
    """
    com = traj.com_positions(system)
    z_min = np.array([s.positions[:, 2].min() for s in traj.states])
    airborne = z_min > clearance
    idx = np.nonzero(airborne)[0]
    if idx.size == 0:
        return float("nan"), float("nan")
    lo = idx[0]
    hi = lo
    while hi + 1 < len(airborne) and airborne[hi + 1]:
        hi += 1
    if hi - lo < 2:
        return float("nan"), float("nan")
    dt = traj.times[hi] - traj.times[lo]
    return (float((com[hi, 0] - com[lo, 0]) / dt),
            float((com[hi, 1] - com[lo, 1]) / dt))


def rest_on_ground(state: SystemState) -> SystemState:
    """Translate so the lowest mass touches the ground plane z = 0."""
    shifted = state.copy()
    shifted.positions[:, 2] -= shifted.positions[:, 2].min()
    return shifted


def run_single_hop(system: DiscretizedSystem, stretches, sample_id: int = 0,
                   duration: float = 3.0,
                   integrator: IntegratorConfig | None = None,
                   cg_config: CgConfig | None = None,
                   sample_interval: float = 0.01,
                   return_trajectory: bool = False):
    """Form-find then simulate one hop; reduce to a HopRecord."""
    eq, result, controls = find_equilibrium(system, stretches, cg_config)
    eq = rest_on_ground(eq)
    eq_elastic = elastic_energy(eq.positions, system, controls).elastic

    diverged = False
    traj = None
    if result.converged:
        try:
            traj = simulate(eq, system, controls, duration,
                            integrator or IntegratorConfig(),
                            sample_interval=sample_interval)
        except DivergenceError as exc:
            log.warning("sample %d diverged: %s", sample_id, exc)
            diverged = True

    record = unreduced_record(sample_id, stretches, float(eq_elastic),
                              bool(result.converged), diverged)
    if traj is not None and traj.states:
        coms = traj.com_positions(system)
        final = traj.states[-1]
        dx, dy, t_land = landing_displacement(traj, system)
        vx, vy = landing_velocity(traj, system)
        final_com = center_of_mass(final, system)
        record = replace(
            record,
            final_com=tuple(float(v) for v in final_com),
            final_com_weighted=tuple(float(v) for v in
                                     center_of_mass_weighted(final, system)),
            peak_com_height=float(coms[:, 2].max()),
            final_dx=float(final_com[0] - coms[0, 0]),
            final_dy=float(final_com[1] - coms[0, 1]),
            landing_dx=dx, landing_dy=dy, landing_vx=vx, landing_vy=vy,
            landing_time=t_land,
            dissipated=float(traj.energies[-1].dissipated),
            dissipated_friction=float(traj.energies[-1].dissipated_friction))
    if return_trajectory:
        return record, traj
    return record


# Keyword arguments of run_single_hop shared by every sample of a campaign,
# installed once per pool worker by _init_worker.  Only pool workers set it:
# in-process campaigns pass their settings to _campaign_worker, so two of
# them iterated side by side do not share it.
_worker_settings: dict = {}


def _init_worker(settings: dict) -> None:
    global _worker_settings
    _worker_settings = settings


def _campaign_worker(task, settings: dict | None = None) -> HopRecord:
    sample_id, stretches = task
    try:
        return run_single_hop(stretches=stretches, sample_id=sample_id,
                              **(settings or _worker_settings))
    except Exception as exc:  # per-sample failures never abort the campaign
        log.error("sample %d failed: %s", sample_id, exc)
        return unreduced_record(sample_id, stretches)


def run_campaign(config: CampaignConfig, system: DiscretizedSystem,
                 integrator: IntegratorConfig | None = None,
                 cg_config: CgConfig | None = None,
                 start_at: int = 0):
    """Yield the HopRecord of each sample from `start_at` on, in sample order.

    The stretch sequence is fully determined by the seed before any work is
    dispatched, so the records are identical for any worker count.  With
    `config.jobs` > 1 the samples run in a process pool that receives the
    system and settings once per worker; closing the generator early
    cancels the samples not yet started.
    """
    rng = np.random.default_rng(config.seed)
    all_stretches = sample_stretches(rng, config.samples,
                                     (config.lambda_min, config.lambda_max),
                                     n_actuators=len(system.actuator_springs))
    tasks = list(enumerate(all_stretches))[start_at:]
    settings = {"system": system, "duration": config.duration,
                "sample_interval": config.sample_interval,
                "integrator": integrator, "cg_config": cg_config}
    pool, mapper = None, map
    worker = partial(_campaign_worker, settings=settings)
    if config.jobs > 1:
        pool = ProcessPoolExecutor(max_workers=config.jobs,
                                   initializer=_init_worker,
                                   initargs=(settings,))
        mapper, worker = pool.map, _campaign_worker
    try:
        yield from mapper(worker, tasks)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
