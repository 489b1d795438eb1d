import json
import shutil
from pathlib import Path

import pytest

from quadfield import cli
from quadfield.cli import Pipeline, _json_default, build_parser, main, resolve_config
from quadfield.geometry import fixture_path
from quadfield.quadblocks import QuadBlock, SidePath, blocks_to_json
from quadfield.singular import CORNER_RADIUS_FACTOR, topology_from_json, topology_report
from quadfield.solver import FieldSolution
from quadfield.tracer import separatrices_to_json
from quadfield.trimesh import TriMesh

HALF_DISC = str(fixture_path("half_disc"))
POLYGON_III = str(fixture_path("polygon_III"))
NAN = float("nan")
FAST = ["--target-h", "0.35", "--order", "3", "--split", "2"]


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = run_cli(["run", HALF_DISC, "--out", out] + FAST)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def polygon_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("polygon_III")
    assert run_cli(["run", POLYGON_III, "--out", out] + FAST) == 0
    return out


@pytest.mark.parametrize("run,name", [("full_run", "half_disc"), ("polygon_run", "polygon_III")])
def test_every_artifact_reader_round_trips(request, run, name):
    """Each reader keeps every field its writer writes: read, write back, compare."""
    out, domain = request.getfixturevalue(run), str(fixture_path(name))
    pipe = Pipeline(domain, resolve_config(build_parser().parse_args(
        ["run", domain, "--out", str(out)] + FAST)))
    mesh = pipe.load("mesh")
    written = {"mesh": mesh.to_json(),
               "solve": pipe.load("solve").to_json(),
               "topology": topology_report(*pipe.load("topology")),
               "trace": separatrices_to_json(pipe.load("trace")),
               "cut": blocks_to_json(pipe.load("cut"))}
    for stage, doc in written.items():
        want = json.loads(pipe.path(stage).read_text())
        if stage == "mesh":
            del want["target_h"]           # stage_mesh adds it beside the mesh
        assert json.loads(json.dumps(doc, default=_json_default)) == want, stage
    # corners keep their fitted radius; a document without one gets the fallback
    topology = json.loads(pipe.path("topology").read_text())
    assert [cn.radius for cn in pipe.load("topology")[1]] == \
        [c["radius"] for c in topology["corners"]]
    for c in topology["corners"]:
        del c["radius"]
    _, corners = topology_from_json(topology, pipe.domain)
    assert [cn.radius for cn in corners] == \
        [CORNER_RADIUS_FACTOR * pipe.domain.bbox_diag] * len(corners)


def test_run_parses_each_artifact_once(tmp_path, monkeypatch):
    """Later stages share what earlier ones read: one parse per artifact and reader."""
    reads, parsed = [], []
    load_json = cli.load_json

    def counted_load(path):
        reads.append(Path(path).name)
        return load_json(path)

    for cls in (TriMesh, FieldSolution):
        def counted(klass, *args, _read=cls.from_json.__func__, **kwargs):
            parsed.append(klass.__name__)
            return _read(klass, *args, **kwargs)
        monkeypatch.setattr(cls, "from_json", classmethod(counted))
    monkeypatch.setattr(cli, "load_json", counted_load)
    assert run_cli(["run", HALF_DISC, "--out", tmp_path] + FAST) == 0
    assert sorted(parsed) == ["FieldSolution", "TriMesh"]
    assert sorted(reads) == sorted(["mesh.json", "field.json", "topology.json",
                                    "separatrices.json", "blocks.json"])


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


def test_staged_solve_records_the_mesh_order(tmp_path):
    out = tmp_path / "staged"
    assert run_cli(["mesh", HALF_DISC, "--out", out] + FAST) == 0
    assert run_cli(["solve", HALF_DISC, "--out", out, "--order", "5"]) == 0
    doc = json.loads((out / "field.json").read_text())
    assert doc["order"] == 3
    assert len(doc["coeffs"][0]) == 10             # (3 + 1)(3 + 2) / 2 nodes


def test_field_of_another_mesh_order_refused(tmp_path, capsys):
    out = tmp_path / "remeshed"
    assert run_cli(["mesh", HALF_DISC, "--out", out] + FAST) == 0
    assert run_cli(["solve", HALF_DISC, "--out", out] + FAST) == 0
    assert run_cli(["mesh", HALF_DISC, "--out", out, "--target-h", "0.35",
                    "--order", "4"]) == 0
    capsys.readouterr()
    assert run_cli(["topology", HALF_DISC, "--out", out] + FAST) == 2
    ne = len(json.loads((out / "mesh.json").read_text())["triangles"])
    err = capsys.readouterr().err
    assert f"({ne}, 10)" in err and f"({ne}, 15)" in err


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


@pytest.mark.parametrize("doc,flags", [
    ({"order": "3"}, []),
    ({"order": 2.5}, []),
    ({"split": 2.0}, []),
    ({"n_max": "100"}, []),
    (5, []),
    ([{"order": 3}], []),
    ({"kappa": True}, []),
    ({"order": False}, []),
    ({"target_h": "0.3"}, []),
    ({"scheme": "xx"}, []),
    ({"merge_mode": "lazy"}, []),
    ({"formats": "vtk,png"}, []),
    ({"formats": ["vtk"]}, []),
    ({"out": 5}, []),
    ({}, ["--target-h", "-1"]),
    ({"penalty": 0}, []),
    ({"length_factor": -1.0}, []),
    ({"kappa": 0.0}, []),
    ({"step_factor": -0.25}, []),
    ({"n_max": 0}, []),
    ({"order": 0}, []),
    ({"kappa": NAN}, []),
    ({}, ["--penalty", "inf", "--scheme", "dg"]),     # was a singular factor, exit 1
    ({}, ["--target-h", "inf"]),
    ({"kappa": 10**400, "merge_mode": "aggressive"}, []),  # was OverflowError, exit 1
    ({"split": 10**400}, []),      # was ValueError from np.linspace at split, exit 1
    ({"order": 10**400}, []),      # was ValueError from the node count at mesh, exit 1
    ({"order": 16}, []),
    ({}, ["--split", "65"]),
])
def test_bad_config_value_exits_before_any_output(tmp_path, doc, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "x"
    argv = ["run", HALF_DISC, "--config", cfg] + flags
    if doc != {"out": 5}:
        argv += ["--out", out]
    assert run_cli(argv) == 2
    assert not out.exists()


def test_config_types_and_zero_target_h_accepted():
    args = build_parser().parse_args(["mesh", "dom.json", "--target-h", "0",
                                      "--kappa", "5", "--formats", "svg,msh"])
    config = resolve_config(args)
    assert config["target_h"] == 0.0 and config["formats"] == "svg,msh"


def test_extra_formats(tmp_path):
    out = tmp_path / "fmt"
    rc = run_cli(["run", HALF_DISC, "--out", out, "--formats", "vtk,svg,msh"]
                 + FAST)
    assert rc == 0
    for extra in ("trimesh.msh", "trimesh.vtk", "fields.vtk",
                  "streamlines.svg", "blocks.svg", "quadmesh.vtk"):
        assert (out / extra).exists()


def test_flag_to_config_plumbing():
    args = build_parser().parse_args(
        ["trace", "dom.json", "--merge", "aggressive", "--kappa", "4.5",
         "--step-factor", "0.3", "--n-max", "5000", "--length-factor", "30"])
    config = resolve_config(args)
    assert config["merge_mode"] == "aggressive"
    assert config["kappa"] == 4.5
    assert config["step_factor"] == 0.3
    assert config["n_max"] == 5000
    assert config["length_factor"] == 30.0


def test_staged_solve_on_another_domains_mesh_refused(tmp_path, capsys):
    out = tmp_path / "x"
    assert run_cli(["mesh", fixture_path("nautilus"), "--out", out,
                    "--target-h", "0.5"]) == 0
    capsys.readouterr()
    assert run_cli(["solve", HALF_DISC, "--out", out]) == 2
    assert "rerun mesh" in capsys.readouterr().err


def test_invalid_json_config_and_artifact(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"order": 3,')
    assert run_cli(["run", HALF_DISC, "--out", tmp_path / "x", "--config", cfg]) == 2
    assert str(cfg) in capsys.readouterr().err
    out = tmp_path / "y"
    assert run_cli(["mesh", HALF_DISC, "--out", out] + FAST) == 0
    (out / "mesh.json").write_text("{")
    assert run_cli(["solve", HALF_DISC, "--out", out] + FAST) == 2
    assert "mesh.json" in capsys.readouterr().err


def _drop_corner_key(doc):
    del doc["corners"][0]["valence"]


def _duplicate_corners(doc):
    doc["corners"] += doc["corners"]


def _drop_corner(doc):
    del doc["corners"][-1]


def _drop_end(doc):
    del doc[0]["end"]


def _three_sides(doc):
    del doc["blocks"][0]["sides"][-1]


def _drop_boundary_faces(doc):
    del doc["boundary_faces"]


def _drop_scheme(doc):
    del doc["scheme"]


def _flatten_points(doc):
    doc[0]["points"] = [c for p in doc[0]["points"] for c in p]


def _points_3d(doc):
    doc[0]["points"] = [p + [0.0] for p in doc[0]["points"]]


def _string_ident(doc):
    doc[0]["start"]["ident"] = "x"


def _bogus_kind(doc):
    doc[0]["start"]["kind"] = "bogus"


def _short_position(doc):
    doc["critical_points"][0]["position"] = [0.1]


def _nan_geom(doc):
    doc["geom"][0][0][0] = NAN


def _nan_coeff(doc):
    doc["coeffs"][0][0][0] = NAN


def _infinite_side(doc):
    doc["blocks"][0]["sides"][0][0][0] = float("inf")


def _nan_point(doc):
    doc[0]["points"][1][0] = NAN


def _huge_side(doc):
    doc["blocks"][0]["sides"][0][0][0] = 10**400


def _no_blocks(doc):
    doc["blocks"] = []


def _shared_side(doc):
    """(block, side) of the two sides that name the first shared side record."""
    uses = {}
    for bi, rec in enumerate(doc["blocks"]):
        for k, (r, _) in enumerate(rec["side_records"]):
            uses.setdefault(r, []).append((bi, k))
    return next(u for u in uses.values() if len(u) == 2)


def _list_corner_ident(doc):
    doc["blocks"][0]["corners"][0][1] = [0]


def _list_record_index(doc):
    doc["blocks"][0]["side_records"][0][0] = [3]


def _zero_direction(doc):
    doc["blocks"][0]["side_records"][0][1] = 0


def _record_named_one_way_twice(doc):
    (a, ka), (b, kb) = _shared_side(doc)
    blocks = doc["blocks"]
    blocks[b]["side_records"][kb][1] = blocks[a]["side_records"][ka][1]


def _shared_side_moved(doc):
    _, (b, kb) = _shared_side(doc)
    doc["blocks"][b]["sides"][kb][1][0] += 1e-9


def _shared_side_other_corner(doc):
    _, (b, kb) = _shared_side(doc)
    doc["blocks"][b]["corners"][kb] = ["cross", "elsewhere"]


def _record_named_three_times(doc):
    (a, ka), _ = _shared_side(doc)
    third = next(bi for bi in range(len(doc["blocks"])) if bi != a)
    doc["blocks"][third]["side_records"][0] = doc["blocks"][a]["side_records"][ka]


@pytest.mark.parametrize("name,edit,stage", [
    ("topology.json", _drop_corner_key, "trace"),     # was KeyError, exit 1
    ("topology.json", _duplicate_corners, "trace"),   # was IndexError, exit 1
    ("topology.json", _drop_corner, "trace"),         # was a silent run without it, exit 0
    ("separatrices.json", _drop_end, "cut"),          # was KeyError, exit 1
    ("blocks.json", _three_sides, "split"),           # was ValueError, exit 1
    ("mesh.json", _drop_boundary_faces, "solve"),     # was KeyError, exit 1
    ("field.json", _drop_scheme, "topology"),         # was KeyError, exit 1
    ("separatrices.json", _flatten_points, "cut"),    # was TypeError in hypot, exit 1
    ("separatrices.json", _points_3d, "cut"),         # was TypeError in cut, exit 1
    ("separatrices.json", _string_ident, "cut"),      # was a non-quadrilateral face, exit 6
    ("topology.json", _short_position, "trace"),      # was IndexError, exit 1
    ("separatrices.json", _bogus_kind, "cut"),        # was a non-quadrilateral face, exit 6
    ("mesh.json", _nan_geom, "solve"),                # was a singular factor, exit 1
    ("field.json", _nan_coeff, "topology"),           # was ValueError, exit 1
    ("blocks.json", _infinite_side, "split"),         # was ValueError, exit 1
    ("separatrices.json", _nan_point, "cut"),         # was a silent run, exit 0
    ("blocks.json", _huge_side, "split"),             # was OverflowError, exit 1
    ("blocks.json", _no_blocks, "split"),             # was ValueError, exit 1
])
def test_malformed_staged_artifact_names_the_file(full_run, tmp_path, capsys, name, edit,
                                                  stage):
    assert _run_on_edited(full_run, tmp_path, capsys, name, edit, stage) == 2
    assert name in capsys.readouterr().err


def _run_on_edited(full_run, tmp_path, capsys, name, edit, stage):
    """Exit code of stage on a copy of full_run whose artifact name edit changed."""
    out = tmp_path / "staged"
    shutil.copytree(full_run, out)
    doc = json.loads((out / name).read_text())
    edit(doc)
    (out / name).write_text(json.dumps(doc))
    capsys.readouterr()
    return run_cli([stage, HALF_DISC, "--out", out] + FAST)


@pytest.mark.parametrize("edit,fault", [
    (_list_corner_ident, "corner key must be int or str"),
    (_list_record_index, "side record must be int"),
    (_zero_direction, "side direction other than 1 or -1"),
    (_record_named_one_way_twice, "is named twice in one direction"),
    (_shared_side_moved, "are not reverses"),
    (_shared_side_other_corner, "end at other corners"),
    (_record_named_three_times, "is named by 3 sides"),
])
def test_split_refuses_blocks_that_do_not_share_sides(full_run, tmp_path, capsys, edit,
                                                      fault):
    """The split shares nodes through corner keys and side records, so blocks.json
    must hold them whole: a shared record names two exactly reversed sides
    between the same corners, once each way."""
    assert _run_on_edited(full_run, tmp_path, capsys, "blocks.json", edit, "split") == 2
    err = capsys.readouterr().err
    assert "blocks.json" in err and fault in err


def test_invalid_json_domain(tmp_path, capsys):
    dom = tmp_path / "dom.json"
    dom.write_text("{loops: []}")
    assert run_cli(["mesh", dom, "--out", tmp_path / "x"]) == 2
    assert str(dom) in capsys.readouterr().err


def test_overflowing_number_is_not_finite(tmp_path, capsys):
    # json reads 1e999 as inf; it is refused like Infinity, naming the file
    dom = tmp_path / "dom.json"
    dom.write_text(json.dumps(json.loads(fixture_path("half_disc").read_text()))
                   .replace('"radius": 1.0', '"radius": 1e999'))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"kappa": 1e999}')
    for argv, path in ((["mesh", dom], dom), (["run", HALF_DISC, "--config", cfg], cfg)):
        assert run_cli(argv + ["--out", tmp_path / "x"]) == 2
        assert f"{path}: not valid JSON (1e999 is not a finite number)" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("doc,missing", [
    ({"loops": [{"orientation": "outer", "segments": [
        {"kind": "line", "p0": [0, 0]}]}]}, "'p1'"),
    ({"name": "no loops"}, "'loops'"),
    ([1, 2], "list"),
    ({"loops": [[1]]}, "loop 0 must be a JSON object"),
    ({"loops": [{"orientation": "outer", "segments": [
        {"kind": "line", "p0": [0, 0], "p1": [1, 0]}, 7]}]}, "loop 0 segment 1 must be"),
    ({"loops": 5}, "'loops' must be a JSON list"),
    ({"loops": [{"orientation": "outer", "segments": [
        {"kind": "line", "p0": "ab", "p1": [1, 0]}]}]}, "loop 0 segment 0: could not convert"),
    # points must be 2-D: a 3-D one used to end in a raw TypeError (exit 1)
    ({"loops": [{"orientation": "outer", "segments": [
        {"kind": "line", "p0": [0, 0, 0], "p1": [1, 0, 0]}]}]}, "loop 0 segment 0: line p0"),
    ({"loops": [{"orientation": "outer", "segments": [
        {"kind": "arc", "center": [0, 0, 0], "radius": 1, "a0": 0, "a1": 6}]}]},
     "loop 0 segment 0: arc center"),
    ({"loops": [{"orientation": "outer", "segments": [
        {"kind": "line", "p0": [0, 0], "p1": [1, 0]},
        {"kind": "spline", "points": [[1, 0, 0], [0, 1, 0], [0, 0, 0]]}]}]},
     "loop 0 segment 1: spline points"),
    ({"loops": [{"orientation": "outer", "segments": [
        {"kind": "naca4", "code": "0012", "origin": [[0, 0]]}]}]},
     "loop 0 segment 0: naca4 origin"),
    # NaN used to end in a raw ValueError while sampling the segment (exit 1)
    ({"loops": [{"orientation": "outer", "segments": [
        {"kind": "line", "p0": [-1, 0], "p1": [1, 0]},
        {"kind": "arc", "center": [0, 0], "radius": NAN, "a0": 0, "a1": 3.14159265}]}]},
     "NaN is not a finite number"),
    ({"loops": [{"orientation": "outer", "segments": [
        {"kind": "line", "p0": [NAN, 0], "p1": [1, 0]},
        {"kind": "arc", "center": [0, 0], "radius": 1, "a0": 0, "a1": 3.14159265}]}]},
     "NaN is not a finite number"),
    # an integer beyond any float used to end in a raw OverflowError (exit 1)
    ({"loops": [{"orientation": "outer", "segments": [
        {"kind": "line", "p0": [-1, 0], "p1": [1, 0]},
        {"kind": "arc", "center": [0, 0], "radius": 10**400, "a0": 0, "a1": 3.14159265}]}]},
     "loop 0 segment 1: int too large to convert to float"),
])
def test_malformed_domain_names_the_fault(tmp_path, capsys, doc, missing):
    dom = tmp_path / "dom.json"
    dom.write_text(json.dumps(doc))
    assert run_cli(["mesh", dom, "--out", tmp_path / "x"]) == 2
    assert missing in capsys.readouterr().err
