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


def _checked(user: dict) -> dict:
    """Reject an unsupported schema version or unknown sections and keys;
    return `user` unchanged."""
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
    return user


def load_config(source=None, overrides: dict | None = None) -> RunConfig:
    """Load a run configuration, overlaying the shipped defaults.

    `source` is a JSON file path, an already parsed dict, or None for the
    defaults alone.  `overrides` maps sections to keys, as in a config file,
    and is merged last; a None value means "not given" and is skipped, so
    command-line flags can be passed as they are parsed.  `raw` of the
    result is the merged configuration.
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
        raw = _merge(raw, _checked(user))
    if overrides:
        given = {section: {k: v for k, v in keys.items() if v is not None}
                 for section, keys in overrides.items()}
        raw = _merge(raw, _checked(given))

    try:
        material = MaterialParams.from_dict(raw["material"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lat = raw["lattice"]
    integ = raw["integrator"]
    ff = raw["formfind"]
    try:
        integrator = IntegratorConfig(dt=integ.get("dt"), scheme=integ["scheme"],
                                      stability_safety=integ["stability_safety"])
        cg = CgConfig(gradient_tolerance=ff["gradient_tolerance"],
                      max_iterations=ff["max_iterations"],
                      slope_threshold=ff["slope_threshold"])
        campaign = CampaignConfig(**raw["campaign"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return RunConfig(lattice_nx=int(lat["nx"]), lattice_ny=int(lat["ny"]),
                     l=float(lat["l"]),
                     topology_file=lat.get("topology_file"),
                     material=material,
                     integrator=integrator, cg=cg, campaign=campaign, raw=raw)
