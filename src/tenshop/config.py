"""Run configuration: JSON files with strict key validation.

The shipped default configuration (tenshop/data/default_config.json) is
the single source of the default physical parameters; keys and units are
documented in the README.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .dynamics import IntegratorConfig
from .formfind import CgConfig
from .hopsim import CampaignConfig
from .model import MaterialParams

CONFIG_SCHEMA_VERSION = "1.0"

_SECTION_KEYS = {
    "lattice": {"nx", "ny", "l", "topology_file"},
    "material": None,  # validated by MaterialParams
    "integrator": {"dt", "scheme", "stability_safety"},
    "formfind": {"gradient_tolerance", "max_iterations", "slope_threshold"},
    "campaign": {"samples", "lambda_min", "lambda_max", "seed", "duration",
                 "jobs", "sample_interval"},
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    lattice_nx: int
    lattice_ny: int
    l: float
    topology_file: str | None
    material: MaterialParams
    integrator: IntegratorConfig
    cg: CgConfig
    campaign: CampaignConfig
    raw: dict

    def campaign_with(self, **overrides) -> CampaignConfig:
        base = {
            "lattice_nx": self.lattice_nx, "lattice_ny": self.lattice_ny,
            "l": self.l,
            "samples": self.campaign.samples,
            "lambda_min": self.campaign.lambda_min,
            "lambda_max": self.campaign.lambda_max,
            "seed": self.campaign.seed, "duration": self.campaign.duration,
            "jobs": self.campaign.jobs,
            "sample_interval": self.campaign.sample_interval,
        }
        base.update({k: v for k, v in overrides.items() if v is not None})
        return CampaignConfig(**base)


def default_config_dict() -> dict:
    text = resources.files("tenshop.data").joinpath("default_config.json").read_text()
    return json.loads(text)


def default_params() -> MaterialParams:
    return MaterialParams.from_dict(default_config_dict()["material"])


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            out[key] = _merge(base[key], value)
        else:
            out[key] = value
    return out


def load_config(source=None) -> RunConfig:
    """Load a run configuration, overlaying the shipped defaults.

    `source` is a JSON file path, an already parsed dict, or None for the
    defaults alone.
    """
    raw = default_config_dict()
    if source is not None:
        if isinstance(source, dict):
            user = source
        else:
            try:
                user = json.loads(Path(source).read_text())
            except json.JSONDecodeError as exc:
                raise ConfigError(f"cannot parse config {source}: {exc}") from exc
        version = str(user.get("schema_version", CONFIG_SCHEMA_VERSION))
        if version.split(".")[0] != CONFIG_SCHEMA_VERSION.split(".")[0]:
            raise ConfigError(f"unsupported config schema version {version!r}")
        unknown = set(user) - set(_SECTION_KEYS) - {"schema_version"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        for section, keys in _SECTION_KEYS.items():
            if keys is not None and section in user:
                bad = set(user[section]) - keys
                if bad:
                    raise ConfigError(f"unknown keys in [{section}]: {sorted(bad)}")
        raw = _merge(raw, user)

    try:
        material = MaterialParams.from_dict(raw["material"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lat = raw["lattice"]
    integ = raw["integrator"]
    ff = raw["formfind"]
    camp = raw["campaign"]
    try:
        integrator = IntegratorConfig(dt=integ.get("dt"), scheme=integ["scheme"],
                                      stability_safety=integ["stability_safety"])
        cg = CgConfig(gradient_tolerance=ff["gradient_tolerance"],
                      max_iterations=ff["max_iterations"],
                      slope_threshold=ff["slope_threshold"])
        campaign = CampaignConfig(
            lattice_nx=lat["nx"], lattice_ny=lat["ny"], l=lat["l"],
            samples=camp["samples"], lambda_min=camp["lambda_min"],
            lambda_max=camp["lambda_max"], seed=camp["seed"],
            duration=camp["duration"], jobs=camp["jobs"],
            sample_interval=camp["sample_interval"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return RunConfig(lattice_nx=int(lat["nx"]), lattice_ny=int(lat["ny"]),
                     l=float(lat["l"]),
                     topology_file=lat.get("topology_file"),
                     material=material,
                     integrator=integrator, cg=cg, campaign=campaign, raw=raw)
