import json

import pytest

from quadfield.cli import main
from quadfield.geometry import fixture_path
from quadfield.quadblocks import QuadBlock, SidePath

HALF_DISC = str(fixture_path("half_disc"))
FAST = ["--target-h", "0.35", "--order", "3", "--split", "2"]


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = run_cli(["run", HALF_DISC, "--out", out] + FAST)
    assert rc == 0
    return out


def test_run_writes_manifest(full_run):
    manifest = json.loads((full_run / "manifest.json").read_text())
    assert len(manifest["artifacts"]) == 6
    for name in ("mesh.json", "field.json", "topology.json",
                 "separatrices.json", "blocks.json", "quadmesh.msh"):
        assert name in manifest["artifacts"]
        assert (full_run / name).exists()


def test_topology_report_content(full_run):
    doc = json.loads((full_run / "topology.json").read_text())
    assert len(doc["critical_points"]) == 2
    assert all(c["valence"] == 3 for c in doc["critical_points"])
    assert [c["valence"] for c in doc["corners"]] == [1, 1]


def test_stagewise_resume_matches_single_shot(full_run, tmp_path):
    out = tmp_path / "staged"
    for stage in ("mesh", "solve", "topology", "trace", "cut", "split"):
        rc = run_cli([stage, HALF_DISC, "--out", out] + FAST)
        assert rc == 0
    for name in ("mesh.json", "field.json", "topology.json",
                 "separatrices.json", "blocks.json", "quadmesh.msh"):
        assert (out / name).read_bytes() == (full_run / name).read_bytes()


def test_missing_upstream_artifact(tmp_path):
    rc = run_cli(["solve", HALF_DISC, "--out", tmp_path / "empty"])
    assert rc == 2


def test_cg_refused_on_discontinuous_domain(tmp_path):
    rc = run_cli(["run", str(fixture_path("polygon_III")), "--out",
                  tmp_path / "p3", "--scheme", "cg"])
    assert rc == 2


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 3, "bogus": 1}))
    rc = run_cli(["run", HALF_DISC, "--out", tmp_path / "x", "--config", cfg])
    assert rc == 2


def test_removed_threads_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 3, "threads": 2}))
    rc = run_cli(["run", HALF_DISC, "--out", tmp_path / "x", "--config", cfg])
    assert rc == 2
    assert not (tmp_path / "x").exists()


def test_nautilus_crossings_give_valid_blocks(tmp_path):
    out = tmp_path / "nautilus"
    rc = run_cli(["run", fixture_path("nautilus"), "--out", out,
                  "--order", "3", "--target-h", "0.5", "--split", "2"])
    assert rc == 0
    blocks = json.loads((out / "blocks.json").read_text())["blocks"]
    assert len(blocks) == 27
    for bi, rec in enumerate(blocks):
        block = QuadBlock(bi, rec["corners"], [SidePath(p) for p in rec["sides"]],
                          rec["side_records"])
        assert block.scaled_jacobians().min() > 0


def test_invalid_config_values(tmp_path):
    rc = run_cli(["run", HALF_DISC, "--out", tmp_path / "x", "--split", "0"])
    assert rc == 2


def test_extra_formats(tmp_path):
    out = tmp_path / "fmt"
    rc = run_cli(["run", HALF_DISC, "--out", out, "--formats", "vtk,svg,msh"]
                 + FAST)
    assert rc == 0
    for extra in ("trimesh.msh", "trimesh.vtk", "fields.vtk",
                  "streamlines.svg", "blocks.svg", "quadmesh.vtk"):
        assert (out / extra).exists()


def test_flag_to_config_plumbing():
    from quadfield.cli import build_parser, resolve_config
    args = build_parser().parse_args(
        ["trace", "dom.json", "--merge", "aggressive", "--kappa", "4.5",
         "--step-factor", "0.3", "--n-max", "5000", "--length-factor", "30"])
    config = resolve_config(args)
    assert config["merge_mode"] == "aggressive"
    assert config["kappa"] == 4.5
    assert config["step_factor"] == 0.3
    assert config["n_max"] == 5000
    assert config["length_factor"] == 30.0
