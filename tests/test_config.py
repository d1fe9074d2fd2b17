"""Configuration loading, merging, and validation."""

import json

import pytest

from tenshop.config import ConfigError, default_config_dict, load_config


def write(tmp_path, payload):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return p


def test_defaults_load_without_file():
    rc = load_config(None)
    assert (rc.lattice_nx, rc.lattice_ny) == (2, 2)
    assert rc.material.gravity == 9.81
    assert rc.material.restitution == 0.0
    assert rc.integrator.scheme == "semi_implicit_euler"
    assert rc.campaign.samples == 100
    assert rc.campaign.seed == 0
    assert (rc.campaign.lambda_min, rc.campaign.lambda_max) == (0.2, 0.8)


def test_override_merges_into_defaults(tmp_path):
    rc = load_config(write(tmp_path, {
        "lattice": {"nx": 1, "ny": 1},
        "material": {"gravity": 1.62},
        "campaign": {"samples": 7},
    }))
    assert (rc.lattice_nx, rc.lattice_ny) == (1, 1)
    assert rc.material.gravity == 1.62
    # untouched keys keep their defaults
    assert rc.material.bar_mass == default_config_dict()["material"]["bar_mass"]
    assert rc.campaign.samples == 7
    assert rc.campaign.duration == 3.0


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config sections"):
        load_config(write(tmp_path, {"materials": {}}))


def test_unknown_key_in_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(write(tmp_path, {"integrator": {"stepsize": 0.001}}))


def test_unknown_material_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown material"):
        load_config(write(tmp_path, {"material": {"bar_stiffness": 1.0}}))


def test_bad_schema_version_rejected(tmp_path):
    with pytest.raises(ConfigError, match="schema version"):
        load_config(write(tmp_path, {"schema_version": "2.0"}))


def test_invalid_json_rejected(tmp_path):
    p = tmp_path / "config.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(p)


def test_invalid_values_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, {"material": {"bar_mass": -1.0}}))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, {"integrator": {"scheme": "rk4"}}))


def test_load_config_overrides_skip_none(tmp_path):
    rc = load_config(write(tmp_path, {"campaign": {"samples": 7, "seed": 4}}),
                     {"campaign": {"samples": 5, "seed": None, "jobs": 3,
                                   "duration": None}})
    assert rc.campaign.samples == 5
    assert rc.campaign.seed == 4  # None means "not given"
    assert rc.campaign.jobs == 3
    assert rc.campaign.duration == default_config_dict()["campaign"]["duration"]
    # raw is the merged configuration, overrides included
    assert rc.raw["campaign"]["samples"] == 5
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(None, {"campaign": {"sample": 5}})


def test_dict_and_file_give_equal_configs(tmp_path):
    payload = {"lattice": {"nx": 1, "ny": 1}, "material": {"gravity": 1.62},
               "integrator": {"scheme": "velocity_verlet"}}
    assert load_config(payload) == load_config(write(tmp_path, payload))


def test_unknown_key_in_dict_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config({"integrator": {"stepsize": 0.001}})
    with pytest.raises(ConfigError, match="unknown config sections"):
        load_config({"materials": {}})
