"""Tensegrity lattice hopping simulator."""

__version__ = "0.1.0"

from .geometry import (CellTopology, LatticeTopology, Member, MemberKind,
                       assemble_lattice, build_unit_cell, load_topology_file,
                       reflection_isometry)
from .model import (ActuatorControl, DiscretizedSystem, EnergyBreakdown,
                    MaterialParams, SystemState, discretize, elastic_energy,
                    energy_gradient, initial_state, total_energy)
from .formfind import (Bracket, CgConfig, LineSearchConfig, cg_minimize,
                       dynamic_relaxation, line_search, minimize_cg)
from .dynamics import (ContactEvent, IntegratorConfig, Trajectory,
                       resolve_contacts, simulate, stable_dt)
from .hopsim import (CampaignConfig, HopRecord, center_of_mass,
                     differential_stretch, run_campaign, run_single_hop,
                     sample_stretches)
from .config import RunConfig, default_params, load_config
