"""End-to-end CLI runs on a single cell: exit codes, artifacts, determinism."""

import json

import pytest

from tenshop.cli import EXIT_OK, EXIT_USAGE, main
from tenshop.config import load_config
from tenshop.hopsim import HopRecord


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "small.json"
    p.write_text(json.dumps({"lattice": {"nx": 1, "ny": 1}}))
    return str(p)


@pytest.fixture(scope="module")
def equilibrium_dir(small_config, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("ff")
    code = main(["formfind", "--config", small_config, "--lambda", "0.5",
                 "--output-dir", str(outdir)])
    assert code == EXIT_OK
    return outdir


def test_formfind_artifacts(equilibrium_dir):
    payload = json.loads((equilibrium_dir / "equilibrium.json").read_text())
    assert payload["kind"] == "equilibrium"
    assert payload["converged"] is True
    assert payload["lambdas"] == [0.5]
    manifest = json.loads((equilibrium_dir / "formfind_manifest.json").read_text())
    assert "equilibrium" in manifest["outputs"]
    assert len(manifest["outputs"]["equilibrium"]["sha256"]) == 64


def test_formfind_bad_lambda_count(small_config, tmp_path):
    code = main(["formfind", "--config", small_config, "--lambda", "0.5,0.5",
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_USAGE


def test_formfind_lambda_out_of_range(small_config, tmp_path):
    code = main(["formfind", "--config", small_config, "--lambda", "1.5",
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_USAGE


def test_bad_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["formfind", "--config", str(bad), "--lambda", "0.5",
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_USAGE


def test_hop_artifacts(equilibrium_dir, tmp_path):
    code = main(["hop", str(equilibrium_dir / "equilibrium.json"),
                 "--duration", "0.3", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    traj = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "time,com_x,com_y,com_z"
    assert len(traj) > 10
    energies = (tmp_path / "energies.csv").read_text().splitlines()
    assert energies[0].startswith("time,kinetic,gravitational,")
    assert energies[0].endswith("dissipated,dissipated_friction")
    manifest = json.loads((tmp_path / "hop_manifest.json").read_text())
    assert manifest["summary"]["peak_com_height"] > 0.0


def test_hop_rejects_corrupt_equilibrium(tmp_path):
    eq = tmp_path / "eq.json"
    eq.write_text("{not json")
    assert main(["hop", str(eq), "--output-dir", str(tmp_path)]) == EXIT_USAGE
    eq.write_text(json.dumps({"schema_version": "9.0", "kind": "equilibrium"}))
    assert main(["hop", str(eq), "--output-dir", str(tmp_path)]) == EXIT_USAGE


CAMPAIGN_ARGS = ["--samples", "2", "--seed", "5", "--duration", "0.3"]


def run_campaign_cli(config, outdir, extra=()):
    return main(["campaign", "--config", config, *CAMPAIGN_ARGS,
                 "--output-dir", str(outdir), *extra])


@pytest.fixture(scope="module")
def campaign_dir(small_config, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("camp")
    assert run_campaign_cli(small_config, outdir) == EXIT_OK
    return outdir


def test_campaign_artifacts(campaign_dir):
    lines = (campaign_dir / "dataset.csv").read_text().splitlines()
    assert lines[0] == ",".join(HopRecord.header(1))
    assert len(lines) == 3
    manifest = json.loads((campaign_dir / "campaign_manifest.json").read_text())
    assert manifest["samples"] == 2
    assert manifest["failed_samples"] == []
    assert not (campaign_dir / "campaign_partial.json").exists()


def test_campaign_reruns_are_byte_identical(campaign_dir, small_config,
                                            tmp_path):
    assert run_campaign_cli(small_config, tmp_path) == EXIT_OK
    assert ((tmp_path / "dataset.csv").read_bytes()
            == (campaign_dir / "dataset.csv").read_bytes())


def test_campaign_parallel_matches_serial(campaign_dir, small_config,
                                          tmp_path):
    assert run_campaign_cli(small_config, tmp_path, ["--jobs", "2"]) == EXIT_OK
    assert ((tmp_path / "dataset.csv").read_bytes()
            == (campaign_dir / "dataset.csv").read_bytes())


def test_campaign_resume_completes_partial_run(campaign_dir, small_config,
                                               tmp_path):
    # Fabricate the on-disk state of an interrupted run: the stub plus the
    # header and first record, then resume and compare with the full run.
    rc = load_config(small_config)
    campaign = rc.campaign_with(samples=2, seed=5, jobs=None, duration=0.3)
    echo = json.dumps({"config": rc.raw, "campaign": {
        "samples": campaign.samples, "seed": campaign.seed,
        "lambda_min": campaign.lambda_min, "lambda_max": campaign.lambda_max,
        "duration": campaign.duration,
        "lattice": [campaign.lattice_nx, campaign.lattice_ny],
    }}, sort_keys=True)
    full_lines = (campaign_dir / "dataset.csv").read_text().splitlines(True)
    (tmp_path / "dataset.csv").write_text("".join(full_lines[:2]))
    (tmp_path / "campaign_partial.json").write_text(
        json.dumps({"config_echo": echo}) + "\n")

    assert run_campaign_cli(small_config, tmp_path, ["--resume"]) == EXIT_OK
    assert ((tmp_path / "dataset.csv").read_bytes()
            == (campaign_dir / "dataset.csv").read_bytes())


def test_campaign_resume_rejects_config_mismatch(campaign_dir, small_config,
                                                 tmp_path):
    (tmp_path / "dataset.csv").write_text(",".join(HopRecord.header(1)) + "\n")
    (tmp_path / "campaign_partial.json").write_text(
        json.dumps({"config_echo": "something else"}) + "\n")
    assert run_campaign_cli(small_config, tmp_path, ["--resume"]) == EXIT_USAGE


def test_campaign_resume_without_partial_output(small_config, tmp_path):
    assert run_campaign_cli(small_config, tmp_path, ["--resume"]) == EXIT_USAGE


def test_campaign_honours_topology_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"lattice": {"nx": 1, "ny": 1, "topology_file": "nope.json"}}))
    outdir = tmp_path / "out"
    assert run_campaign_cli(str(cfg), outdir) == EXIT_USAGE
    assert not (outdir / "dataset.csv").exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_topology_override_roundtrip(tmp_path):
    from tenshop.geometry import CANONICAL_NODES, DEFAULT_BAR_TABLE

    index = {node: k for k, node in enumerate(CANONICAL_NODES)}
    topo = tmp_path / "cell.json"
    topo.write_text(json.dumps({
        "schema_version": "1.0",
        "l": 1.0,
        "bars": [[index[p], index[q]] for p, q in DEFAULT_BAR_TABLE],
    }))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "lattice": {"nx": 1, "ny": 1, "topology_file": str(topo)}}))
    code = main(["formfind", "--config", str(cfg), "--lambda", "0.5",
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_OK


def test_topology_override_missing_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"lattice": {"nx": 1, "ny": 1, "topology_file": "nope.json"}}))
    code = main(["formfind", "--config", str(cfg), "--lambda", "0.5",
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_USAGE
