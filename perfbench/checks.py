"""Output checks: each one decides whether a command's written output holds.

They read only the files a command wrote, and use the package's public
functions where a physical quantity has to be recomputed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from tenshop.config import load_config
from tenshop.geometry import assemble_lattice, build_unit_cell
from tenshop.model import controls_from_stretches, discretize, energy_gradient

# Largest |E(t) + D(t) - E(0)| / E(0) a hop may show over the benchmark's
# window; about thirty times what the shipped integrator gives there.
LEDGER_BOUND = 0.01

ENERGY_TERMS = ("kinetic", "gravitational", "elastic_bars_axial",
                "elastic_bars_angular", "elastic_cables", "elastic_actuators")


def equilibrium_gradient(eq_path: Path, scratch: Path) -> tuple[float, float]:
    """(max-abs elastic gradient, configured tolerance) of an equilibrium."""
    payload = json.loads(eq_path.read_text())
    config_path = scratch / "equilibrium_config.json"
    config_path.write_text(json.dumps(payload["config"]))
    rc = load_config(config_path)
    lattice = assemble_lattice(build_unit_cell(rc.l), rc.lattice_nx,
                               rc.lattice_ny)
    system = discretize(lattice, rc.material)
    positions = np.array(payload["positions"], dtype=float)
    grad = energy_gradient(positions, system,
                           controls_from_stretches(payload["lambdas"]),
                           gravity=0.0)
    return float(np.max(np.abs(grad))), rc.cg.gradient_tolerance


def _float_rows(path: Path) -> list[dict[str, float]]:
    with path.open(newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def ledger_residual(energies: list[dict[str, float]]) -> float:
    """max |E(t) + D(t) - E(0)| / E(0), D(t) the energy dissipated so far."""
    totals = [sum(row[k] for k in ENERGY_TERMS) for row in energies]
    e0 = totals[0]
    return max(abs(e + row["dissipated"] - e0)
               for e, row in zip(totals, energies)) / abs(e0)


def hop_output(outdir: Path) -> tuple[bool, float]:
    """(trajectory and energies finite, ledger residual) of a hop."""
    trajectory = _float_rows(outdir / "trajectory.csv")
    energies = _float_rows(outdir / "energies.csv")
    finite = bool(trajectory) and len(energies) == len(trajectory) and all(
        math.isfinite(v) for row in trajectory + energies for v in row.values())
    return finite, ledger_residual(energies) if finite else math.inf


def campaign_output(outdir: Path) -> tuple[int, int, bool]:
    """(rows, clean rows, manifest checksum matches) of a campaign."""
    dataset = outdir / "dataset.csv"
    manifest_path = outdir / "campaign_manifest.json"
    rows = clean = 0
    if dataset.exists():
        with dataset.open(newline="") as fh:
            for row in csv.DictReader(fh):
                rows += 1
                values = [float(v) for v in row.values()]
                if (row["equilibrium_converged"] == "1"
                        and row["diverged"] == "0"
                        and all(math.isfinite(v) for v in values)):
                    clean += 1
    manifest_ok = False
    if manifest_path.exists() and dataset.exists():
        manifest = json.loads(manifest_path.read_text())
        expected = manifest.get("outputs", {}).get("dataset", {}).get("sha256")
        manifest_ok = expected == hashlib.sha256(dataset.read_bytes()).hexdigest()
    return rows, clean, manifest_ok
