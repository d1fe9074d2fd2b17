"""End-to-end CLI runs on a single cell: exit codes, artifacts, determinism."""

import json

import pytest

from tenshop import hopsim
from tenshop.cli import EXIT_OK, EXIT_USAGE, main
from tenshop.config import load_config
from tenshop.formfind import CgConfig
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


def test_campaign_manifest_records_flag_overrides(campaign_dir):
    manifest = json.loads((campaign_dir / "campaign_manifest.json").read_text())
    campaign = manifest["config"]["campaign"]
    assert (campaign["samples"], campaign["seed"], campaign["duration"]) == (
        2, 5, 0.3)


def test_campaign_passes_formfind_section(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"nx": 1, "ny": 1}, "formfind": {
        "gradient_tolerance": 2e-3, "max_iterations": 4000}}))
    rc = load_config(str(cfg))
    assert rc.cg != CgConfig()
    seen = []
    real = hopsim.find_equilibrium

    def recording(system, stretches, cg_config=None, **kwargs):
        seen.append(cg_config)
        return real(system, stretches, cg_config, **kwargs)

    monkeypatch.setattr(hopsim, "find_equilibrium", recording)
    assert main(["campaign", "--config", str(cfg), "--samples", "1",
                 "--duration", "0.05", "--jobs", "1",
                 "--output-dir", str(tmp_path / "out")]) == EXIT_OK
    assert seen == [rc.cg]


def interrupt_at_second_sample(config, outdir, monkeypatch):
    """Run a --jobs 1 campaign that is interrupted in its second sample."""
    real = hopsim.run_single_hop
    calls = []

    def hop(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(hopsim, "run_single_hop", hop)
    with pytest.raises(KeyboardInterrupt):
        run_campaign_cli(config, outdir, ["--jobs", "1"])
    monkeypatch.undo()


def test_campaign_resume_completes_partial_run(campaign_dir, small_config,
                                               tmp_path, monkeypatch):
    full = (campaign_dir / "dataset.csv").read_bytes()
    interrupt_at_second_sample(small_config, tmp_path, monkeypatch)
    # the header and row 0 were flushed before the interruption
    assert ((tmp_path / "dataset.csv").read_bytes()
            == b"".join(full.splitlines(keepends=True)[:2]))
    assert (tmp_path / "campaign_partial.json").exists()

    assert run_campaign_cli(small_config, tmp_path, ["--resume"]) == EXIT_OK
    assert (tmp_path / "dataset.csv").read_bytes() == full
    assert not (tmp_path / "campaign_partial.json").exists()


def test_campaign_resume_drops_torn_last_line(campaign_dir, small_config,
                                              tmp_path, monkeypatch):
    full = (campaign_dir / "dataset.csv").read_bytes()
    interrupt_at_second_sample(small_config, tmp_path, monkeypatch)
    torn_row = full.splitlines(keepends=True)[2][:25]
    with (tmp_path / "dataset.csv").open("ab") as fh:
        fh.write(torn_row)

    # the worker count is not part of the configuration a resume checks
    assert run_campaign_cli(small_config, tmp_path,
                            ["--resume", "--jobs", "2"]) == EXIT_OK
    assert (tmp_path / "dataset.csv").read_bytes() == full
    manifest = json.loads((tmp_path / "campaign_manifest.json").read_text())
    assert manifest["resumed_from"] == 1


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
