"""Command-line interface: form-finding, single hops, and campaigns.

Exit codes: 0 success, 2 usage/config error, 3 convergence failure,
4 numerical divergence.  Set TENSHOP_LOG to control log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time
from contextlib import closing
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, load_config
from .dynamics import DivergenceError, simulate
from .formfind import cg_minimize
from .hopsim import HopRecord, build_system, rest_on_ground, run_campaign
from .model import SystemState, controls_from_stretches, initial_state
# Not called here: perfbench/child.py probes cli.discretize for set-up time.
from .model import discretize  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNCONVERGED = 3
EXIT_DIVERGED = 4

EQUILIBRIUM_SCHEMA_VERSION = "1.0"
DATASET_SCHEMA_VERSION = "1.0"

log = logging.getLogger("tenshop.cli")


class UsageError(ValueError):
    pass


def _setup_logging():
    level = os.environ.get("TENSHOP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(path: Path, command: str, config_echo: dict, seed,
                    outputs: dict[str, Path], wall_time: float, extra=None):
    manifest = {
        "command": command,
        "tool_version": __version__,
        "schema_version": DATASET_SCHEMA_VERSION,
        "seed": seed,
        "config": config_echo,
        "wall_time_s": wall_time,
        "outputs": {name: {"path": str(p), "sha256": _sha256(p)}
                    for name, p in outputs.items()},
    }
    if extra:
        manifest.update(extra)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_lambdas(text: str, n_expected: int) -> list[float]:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse --lambda {text!r}: {exc}") from exc
    if len(values) != n_expected:
        raise UsageError(f"expected {n_expected} stretch values, got {len(values)}")
    for v in values:
        if not 0.0 < v <= 1.0:
            raise UsageError(f"stretch {v} outside (0, 1]")
    return values


def cmd_formfind(args) -> int:
    started = time.monotonic()
    rc = load_config(args.config)
    system = build_system(rc.lattice_nx, rc.lattice_ny, rc.l, rc.material,
                          rc.topology_file)
    lambdas = _parse_lambdas(args.lam, len(system.actuator_springs))
    controls = controls_from_stretches(lambdas)

    state, result = cg_minimize(initial_state(system), system, controls, rc.cg)
    state = rest_on_ground(state)

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    eq_path = outdir / (args.output or "equilibrium.json")
    payload = {
        "schema_version": EQUILIBRIUM_SCHEMA_VERSION,
        "kind": "equilibrium",
        "config": rc.raw,
        "lambdas": lambdas,
        "converged": result.converged,
        "report": result.report(),
        "positions": state.positions.tolist(),
    }
    eq_path.write_text(json.dumps(payload, sort_keys=True) + "\n")
    _write_manifest(outdir / "formfind_manifest.json", "formfind", rc.raw,
                    None, {"equilibrium": eq_path}, time.monotonic() - started,
                    extra={"lambdas": lambdas, "report": result.report()})
    print(f"form-finding {'converged' if result.converged else 'DID NOT CONVERGE'} "
          f"in {result.iterations} iterations "
          f"({result.energy_evaluations} energy evaluations, "
          f"grad max {result.gradient_norm:.3e})")
    print(f"wrote {eq_path}")
    return EXIT_OK if result.converged else EXIT_UNCONVERGED


def _load_equilibrium(path: Path):
    text = path.read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"cannot parse equilibrium file {path} at byte offset {exc.pos}: "
            f"{exc.msg}") from exc
    version = str(payload.get("schema_version", ""))
    if version.split(".")[0] != EQUILIBRIUM_SCHEMA_VERSION.split(".")[0]:
        raise UsageError(f"unsupported equilibrium schema version {version!r}")
    if payload.get("kind") != "equilibrium":
        raise UsageError(f"{path} is not an equilibrium file")
    return payload


def cmd_hop(args) -> int:
    started = time.monotonic()
    eq_path = Path(args.equilibrium)
    payload = _load_equilibrium(eq_path)

    rc = load_config(payload["config"])
    system = build_system(rc.lattice_nx, rc.lattice_ny, rc.l, rc.material,
                          rc.topology_file)
    positions = np.array(payload["positions"], dtype=float)
    if positions.shape != (system.n, 3):
        raise UsageError(f"equilibrium state has shape {positions.shape}, "
                         f"expected {(system.n, 3)}")
    state = SystemState(positions, np.zeros_like(positions))
    controls = controls_from_stretches(payload["lambdas"])

    try:
        traj = simulate(state, system, controls, args.duration, rc.integrator,
                        sample_interval=rc.campaign.sample_interval)
    except DivergenceError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    traj_path = outdir / "trajectory.csv"
    energies_path = outdir / "energies.csv"

    coms = traj.com_positions(system)
    with traj_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "com_x", "com_y", "com_z"])
        for t, com in zip(traj.times, coms):
            writer.writerow([_fmt(float(t))] + [_fmt(float(v)) for v in com])
    with energies_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        columns = ("kinetic", "gravitational", "elastic_bars_axial",
                   "elastic_bars_angular", "elastic_cables",
                   "elastic_actuators", "dissipated", "dissipated_friction")
        writer.writerow(["time", *columns])
        for t, e in zip(traj.times, traj.energies):
            d = e.as_dict()
            writer.writerow([_fmt(float(t))] + [_fmt(float(d[k]))
                                                for k in columns])

    peak = float(coms[:, 2].max())
    landing = coms[-1]
    total0 = traj.energies[0].total
    dissipated = traj.energies[-1].dissipated
    frac = dissipated / total0 if total0 else 0.0
    _write_manifest(outdir / "hop_manifest.json", "hop", payload["config"], None,
                    {"trajectory": traj_path, "energies": energies_path},
                    time.monotonic() - started,
                    extra={"lambdas": payload["lambdas"],
                           "summary": {"peak_com_height": peak,
                                       "landing_com": [float(v) for v in landing],
                                       "dissipated_fraction": frac}})
    print(f"peak COM height {peak:.4f} m, landing COM "
          f"({landing[0]:.4f}, {landing[1]:.4f}, {landing[2]:.4f}), "
          f"dissipated fraction {frac:.3f}")
    return EXIT_OK


def cmd_campaign(args) -> int:
    started = time.monotonic()
    rc = load_config(args.config, {"campaign": {
        "samples": args.samples, "seed": args.seed, "jobs": args.jobs,
        "duration": args.duration}})
    campaign = rc.campaign
    system = build_system(rc.lattice_nx, rc.lattice_ny, rc.l, rc.material,
                          rc.topology_file)
    header = ",".join(HopRecord.header(len(system.actuator_springs))) + "\n"

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    dataset_path = outdir / "dataset.csv"
    stub_path = outdir / "campaign_partial.json"
    manifest_path = outdir / "campaign_manifest.json"

    # The worker count does not change the dataset, so a resume may change it.
    echo = {**rc.raw, "campaign": {k: v for k, v in rc.raw["campaign"].items()
                                   if k != "jobs"}}

    start_at = 0
    if args.resume:
        if not (stub_path.exists() and dataset_path.exists()):
            raise UsageError("--resume given but no partial campaign output found")
        if json.loads(stub_path.read_text()).get("config_echo") != echo:
            raise UsageError(
                "refusing to resume: existing partial output was produced with a "
                "different configuration or seed")
        # A row torn by the interruption has no newline; it is recomputed.
        data = dataset_path.read_bytes()
        data = data[:data.rfind(b"\n") + 1]
        if not data.startswith(header.encode()):
            raise UsageError("refusing to resume: dataset header mismatch")
        start_at = data.count(b"\n") - 1
        os.truncate(dataset_path, len(data))
    else:
        stub_path.write_text(json.dumps({"config_echo": echo}) + "\n")
        dataset_path.write_text(header)

    records = run_campaign(campaign, system, rc.integrator, rc.cg, start_at)
    with dataset_path.open("a", newline="") as fh, closing(records):
        for rec in records:
            fh.write(",".join(_fmt(v) for v in rec.row()) + "\n")
            fh.flush()
            log.info("sample %d done (%d/%d)", rec.sample_id,
                     rec.sample_id + 1, campaign.samples)

    # HopRecord.clean, read back from every row written so far.
    with dataset_path.open(newline="") as fh:
        failures = [int(row["sample_id"]) for row in csv.DictReader(fh)
                    if row["equilibrium_converged"] != "1"
                    or row["diverged"] != "0"]

    _write_manifest(manifest_path, "campaign", rc.raw, campaign.seed,
                    {"dataset": dataset_path}, time.monotonic() - started,
                    extra={"samples": campaign.samples,
                           "resumed_from": start_at,
                           "failed_samples": failures})
    stub_path.unlink(missing_ok=True)
    print(f"campaign complete: {campaign.samples} samples, "
          f"{len(failures)} flagged, dataset at {dataset_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenshop",
        description="Tensegrity lattice hopping simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ff = sub.add_parser("formfind", help="find a locked-actuator equilibrium")
    p_ff.add_argument("--config", default=None)
    p_ff.add_argument("--lambda", dest="lam", required=True,
                      help="comma-separated actuator stretches, e.g. 0.5,0.5,0.5,0.5")
    p_ff.add_argument("--output-dir", default=".")
    p_ff.add_argument("--output", default=None, help="equilibrium file name")
    p_ff.set_defaults(func=cmd_formfind)

    p_hop = sub.add_parser("hop", help="simulate a hop from an equilibrium file")
    p_hop.add_argument("equilibrium")
    p_hop.add_argument("--duration", type=float, default=3.0)
    p_hop.add_argument("--output-dir", default=".")
    p_hop.set_defaults(func=cmd_hop)

    p_camp = sub.add_parser("campaign", help="run a sampling campaign")
    p_camp.add_argument("--config", default=None)
    p_camp.add_argument("--samples", type=int, default=None)
    p_camp.add_argument("--seed", type=int, default=None)
    p_camp.add_argument("--jobs", type=int, default=None)
    p_camp.add_argument("--duration", type=float, default=None)
    p_camp.add_argument("--resume", action="store_true")
    p_camp.add_argument("--output-dir", default=".")
    p_camp.set_defaults(func=cmd_campaign)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
