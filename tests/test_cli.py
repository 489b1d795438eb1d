import argparse
import contextlib
import copy
import functools
import io
import json
import operator
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quadfield import cli, quadblocks, singular, solver, tracer
from quadfield.cli import (OPTIONS, STAGES, Pipeline, _json_default, build_parser, main,
                           resolve_config)
from quadfield.geometry import fixture_path, load_domain
from quadfield.quadblocks import QuadBlock, SidePath, blocks_to_json
from quadfield.singular import CriticalPoint, topology_from_json, topology_report
from quadfield.solver import FieldSolution
from quadfield.tracer import separatrices_to_json
from quadfield.trimesh import TriMesh

HALF_DISC = str(fixture_path("half_disc"))
NAUTILUS = str(fixture_path("nautilus"))
POLYGON_III = str(fixture_path("polygon_III"))
NAN = float("nan")
FAST = ["--target-h", "0.35", "--order", "3", "--split", "2"]


def run_cli(args):
    return main([str(a) for a in args])


def reference_json(doc):
    """The bytes json.dump writes for doc: the reference for cli.dump_json."""
    f = io.StringIO()
    json.dump(doc, f, indent=1, sort_keys=True, default=_json_default)
    f.write("\n")
    return f.getvalue().encode()


def run_recorded(*commands):
    """Run each command into its --out, recording every cli.dump_json call
    through the module attribute, as perfbench's wrapper sees it."""
    dump = cli.dump_json
    recorded = []

    def recording(path, doc):
        want = reference_json(doc)
        dump(path, doc)
        recorded.append((Path(path).name, Path(path).read_bytes(), want))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "dump_json", recording)
        for args in commands:
            assert run_cli(args) == 0
    return recorded


@pytest.fixture(scope="module")
def writes():
    """Output directory -> (file name, bytes written, reference bytes) of each
    cli.dump_json call made while the fixture that wrote there ran."""
    return {}


@pytest.fixture(scope="module")
def full_run(tmp_path_factory, writes):
    out = tmp_path_factory.mktemp("run")
    writes[out] = run_recorded(["run", HALF_DISC, "--out", out] + FAST)
    return out


@pytest.fixture(scope="module")
def polygon_run(tmp_path_factory, writes):
    out = tmp_path_factory.mktemp("polygon_III")
    writes[out] = run_recorded(["run", POLYGON_III, "--out", out] + FAST)
    return out


@pytest.fixture(scope="module")
def nautilus_run(tmp_path_factory, writes):
    out = tmp_path_factory.mktemp("nautilus")
    writes[out] = run_recorded(["run", NAUTILUS, "--out", out] + FAST)
    return out


@pytest.fixture(scope="module")
def order4_run(tmp_path_factory, writes):
    out = tmp_path_factory.mktemp("order4")
    flags = [POLYGON_III, "--out", out, "--order", "4", "--target-h", "0.12"]
    writes[out] = run_recorded(["mesh"] + flags, ["solve"] + flags)
    return out


@pytest.mark.parametrize("run", ["full_run", "polygon_run", "nautilus_run", "order4_run"])
def test_dump_json_writes_the_reference_bytes(request, writes, run):
    recorded = writes[request.getfixturevalue(run)]
    assert recorded
    for name, written, want in recorded:
        assert written == want, name


def test_run_writes_every_json_through_dump_json(full_run, writes):
    """perfbench's cli.io_s times cli.dump_json: a run's six writes go through it."""
    assert [name for name, _, _ in writes[full_run]] == [
        "mesh.json", "field.json", "topology.json", "separatrices.json", "blocks.json",
        "manifest.json"]


@pytest.mark.parametrize("doc", [
    [[0.5, NAN], [1.0, 2.0]],
    [[1.0, float("inf")], [-float("inf"), 2.0]],
    {"row": [1.0, -float("inf")]},
    [1, True, 3], [[1, 2], [False, 3]], [True, False],
    [1, 2.5], [[1.0, 2.0], [3, 4]],
    [[1.0, 2.0], [3.0]], [[1], []], [], [[]], [[], []], {}, {"a": [], "b": {}},
    np.float64(0.1), [np.float64(0.1), 0.2], {"x": np.int64(7)}, [np.int64(2), 3],
    np.arange(6.0).reshape(3, 2), {"a": np.zeros((2, 0))}, (1.0, 2.0), [(1, 2), (3, 4)],
    [[-0.0, 1e16], [1e-5, 5e-324]], [1e308, 1e308], [10**20, -3],
    {"ünï": "köd€ \U0001f600", "a\"b\n": ["\u2028", "x"], "z": None},
    {"b": [[[1, 2], [3, 4]]], "a": {"n": [[0.25, 0.5]], "t": [True, None]}},
    {2: 1.0, 1: "one"}, {1.5: 0}, {True: 1, False: 2}, {None: 0},
    [{"p": [[0.0, 1.0]]}, [[0.5]], "s", 3, 2.0, None],
])
def test_dump_json_edge_documents_match_the_reference(tmp_path, doc):
    path = tmp_path / "doc.json"
    cli.dump_json(path, doc)
    assert path.read_bytes() == reference_json(doc)


def test_unencodable_document_keeps_the_previous_artifact(tmp_path):
    path = tmp_path / "doc.json"
    cli.dump_json(path, {"points": [[0.0, 1.0]]})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        cli.dump_json(path, {"a": [[0.0, 1.0]], "b": object()})
    assert path.read_bytes() == before


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
    # corners keep their fitted radius; a document without one is refused
    topology = json.loads(pipe.path("topology").read_text())
    assert [cn.radius for cn in pipe.load("topology")[1]] == \
        [c["radius"] for c in topology["corners"]]
    for c in topology["corners"]:
        del c["radius"]
    with pytest.raises(KeyError, match="radius"):
        topology_from_json(topology, pipe.domain, mesh.n_elements())


def test_run_parses_no_artifact_and_a_stage_command_each_upstream_once(tmp_path, monkeypatch):
    """A run hands each stage's result on and reads nothing back; a stage
    command reads every artifact it uses once, and parses each with its reader once."""
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
    assert run_cli(["run", HALF_DISC, "--out", tmp_path / "run"] + FAST) == 0
    assert (reads, parsed) == ([], [])
    out = tmp_path / "staged"
    for stage in ("mesh", "solve", "topology", "trace"):
        assert run_cli([stage, HALF_DISC, "--out", out] + FAST) == 0
    reads.clear(), parsed.clear()
    assert run_cli(["cut", HALF_DISC, "--out", out] + FAST) == 0
    assert sorted(parsed) == ["FieldSolution", "TriMesh"]
    assert sorted(reads) == sorted(["mesh.json", "field.json", "topology.json",
                                    "separatrices.json"])


def assert_same_view(mem, view, where):
    """mem as its reader gives it: arrays bit for bit, with equal dtype, shape and
    C-contiguity; numbers and strings equal and of one type; containers and
    objects field by field.  Cached properties are left out, and so is
    CriticalPoint.xi, which the topology reader sets to zero and no later stage reads."""
    if mem is view:
        return
    assert type(mem) is type(view), where
    if isinstance(mem, np.ndarray):
        assert (mem.dtype, mem.shape, mem.flags.c_contiguous) == \
            (view.dtype, view.shape, view.flags.c_contiguous), where
        assert mem.tobytes() == view.tobytes(), where
    elif isinstance(mem, (list, tuple)):
        assert len(mem) == len(view), where
        for i, (a, b) in enumerate(zip(mem, view)):
            assert_same_view(a, b, f"{where}[{i}]")
    elif isinstance(mem, dict):
        assert mem.keys() == view.keys(), where
        for k in mem:
            assert_same_view(mem[k], view[k], f"{where}.{k}")
    elif hasattr(mem, "__dict__"):
        skip = {k for k, v in vars(type(mem)).items()
                if isinstance(v, functools.cached_property)}
        if isinstance(mem, CriticalPoint):
            skip.add("xi")
        fields = [{k: v for k, v in vars(o).items() if k not in skip} for o in (mem, view)]
        assert_same_view(*fields, where)
    else:
        assert mem == view, where


def readers_view(pipe, stage):
    """What Pipeline.load reads from stage's artifact, given pipe's results upstream of it."""
    reader = copy.copy(pipe)
    reader._loaded = {s: pipe._loaded[s] for s in STAGES[:STAGES.index(stage)]}
    return reader.load(stage)


@pytest.mark.parametrize("domain", [HALF_DISC, NAUTILUS, POLYGON_III],
                         ids=["half_disc", "nautilus", "polygon_III"])
def test_each_stage_hands_on_its_readers_view(tmp_path, monkeypatch, domain):
    """A run hands each stage's result to the next as its artifact's reader
    would give it, and no stage writes into what it received."""
    pipes = []
    run = Pipeline.run

    def checked(pipe, stage):
        result = run(pipe, stage)
        if stage != "split":
            assert_same_view(result, readers_view(pipe, stage), stage)
        pipes.append(pipe)
        return result

    monkeypatch.setattr(Pipeline, "run", checked)
    assert run_cli(["run", domain, "--out", tmp_path] + FAST) == 0
    assert len(pipes) == len(STAGES)
    for stage in STAGES[:-1]:
        assert_same_view(pipes[0].load(stage), readers_view(pipes[0], stage), stage)


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


@pytest.mark.parametrize("run,domain", [("full_run", HALF_DISC), ("nautilus_run", NAUTILUS)],
                         ids=["half_disc", "nautilus"])
def test_stagewise_resume_matches_single_shot(request, tmp_path, run, domain):
    """Stage commands, each reading its artifacts, write what a run that hands
    each result on writes (nautilus: 17 crossings resolved at the cut)."""
    out = tmp_path / "staged"
    for stage in ("mesh", "solve", "topology", "trace", "cut", "split"):
        rc = run_cli([stage, domain, "--out", out] + FAST)
        assert rc == 0
    for name in ("mesh.json", "field.json", "topology.json",
                 "separatrices.json", "blocks.json", "quadmesh.msh"):
        assert (out / name).read_bytes() == \
            (request.getfixturevalue(run) / name).read_bytes()


def _nan_geom_node(mesh):
    mesh.geom[3, 2, 0] = NAN


def _nan_critical_point(cps):
    cps[0].position = cps[0].position.copy()
    cps[0].position[1] = NAN


def _inf_streamline_point(traced):
    traced[0][0].points[2, 0] = float("inf")


def _nan_side_point(blocks):
    side = blocks[0].sides[1]
    side.points = side.points.copy()
    side.points[1, 1] = NAN


# stage: (module, kernel, write one non-finite value into its result, exit code)
NON_FINITE = {
    "mesh": (cli, "elevate_and_curve", _nan_geom_node, 3),
    "topology": (singular, "find_critical_points", _nan_critical_point, 4),
    "trace": (tracer, "trace_all", _inf_streamline_point, 5),
    "cut": (quadblocks, "build_blocks", _nan_side_point, 6),
}


@pytest.mark.parametrize("command", ["run", "stage"])
@pytest.mark.parametrize("stage", list(NON_FINITE))
def test_non_finite_result_stops_its_stage_before_it_writes(tmp_path, monkeypatch, capsys,
                                                            stage, command):
    """A stage whose kernel yields a NaN or an infinity exits with the stage's
    code, names the stage, and writes no artifact, under run and as a stage command."""
    module, name, spoil, code = NON_FINITE[stage]
    kernel = getattr(module, name)

    def spoiled(*args, **kwargs):
        result = kernel(*args, **kwargs)
        spoil(result)
        return result

    out = tmp_path / "out"
    if command == "stage":
        for upstream in STAGES[:STAGES.index(stage)]:
            assert run_cli([upstream, HALF_DISC, "--out", out] + FAST) == 0
    capsys.readouterr()
    monkeypatch.setattr(module, name, spoiled)
    assert run_cli([command if command == "run" else stage, HALF_DISC, "--out", out]
                   + FAST) == code
    err = capsys.readouterr().err
    assert f"error: stage {stage}: " in err and "a NaN or an infinity" in err
    assert not (out / cli.ARTIFACTS[stage]).exists()


def test_missing_upstream_artifact(tmp_path):
    rc = run_cli(["solve", HALF_DISC, "--out", tmp_path / "empty"])
    assert rc == 2


@pytest.mark.parametrize("elems", [[12], [5], slice(None)], ids=["outside", "ring", "all"])
def test_nan_field_exits_3_at_the_solve(tmp_path, monkeypatch, capsys, elems):
    """NaN coefficients outside the corner rings, inside them (which the
    maximum principle exempts from its bound) or in every element stop the
    run at the solve, before field.json is written."""
    solve = solver.solve_laplace

    def nan_solve(*args):
        sol = solve(*args)
        sol.coeffs[elems] = NAN
        return sol

    monkeypatch.setattr(solver, "solve_laplace", nan_solve)
    out = tmp_path / "out"
    assert run_cli(["run", HALF_DISC, "--out", out, *FAST]) == 3
    assert "error: stage solve: field coefficients are NaN or infinite in " \
        in capsys.readouterr().err
    assert not (out / "field.json").exists()
    domain = load_domain(HALF_DISC)
    rings = solver.corner_elements(TriMesh.from_json(json.loads(
        (out / "mesh.json").read_text())), domain)
    assert 5 in rings and 12 not in rings


def test_missing_config_file_is_not_an_artifact(tmp_path, capsys):
    cfg = tmp_path / "nope.json"
    assert run_cli(["run", HALF_DISC, "--out", tmp_path / "x", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: config file {cfg} not found\n"
    assert not (tmp_path / "x").exists()


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


def test_cli_import_leaves_scipy_spatial_out():
    """The pipeline finds nearby points on its own box grid, and reftri
    computes its Gauss-Jacobi rules itself: importing the CLI in a fresh
    interpreter loads neither scipy.spatial nor scipy.special."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import quadfield.cli, sys; "
            "print(*(m for m in ('scipy.spatial', 'scipy.special') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout.split() == [], run.stdout + run.stderr


def test_readme_flag_table_lists_every_option_flag():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = set(re.findall(r"^\| `(--[a-z-]+)` \|", readme, re.M))
    run = next(a for a in build_parser()._actions if a.dest == "command").choices["run"]
    flags = {f for a in run._actions for f in a.option_strings}
    assert table == flags - {"-h", "--help", "--config"}


def reference_build_parser():
    """build_parser before the shared arguments moved into a parent parser."""
    parser = argparse.ArgumentParser(
        prog="quadfield",
        description="Curved quadrilateral block decomposition of 2D domains")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("run",) + STAGES:
        p = sub.add_parser(cmd)
        p.add_argument("domain", help="domain JSON file")
        p.add_argument("--config", help="config JSON file")
        for key, (flag, default, kinds, _, phrase) in OPTIONS.items():
            p.add_argument(flag, dest=key, type=kinds[-1],
                           help=f"{phrase} (default {default!r})")
    return parser


def _help_texts(parser):
    sub = next(a for a in parser._actions if a.dest == "command")
    return [parser.format_help(), parser.format_usage()] + [
        text for name, p in sub.choices.items()
        for text in (name, p.format_help(), p.format_usage())]


def _parsed(parser, argv):
    """(exit code, repr of the namespace, stdout, stderr) of parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return 0, repr(vars(parser.parse_args(argv))), out.getvalue(), err.getvalue()
        except SystemExit as ex:
            return ex.code, None, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("columns", ["80", "200", "40"])
def test_parent_parser_gives_the_reference_help(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    assert _help_texts(build_parser()) == _help_texts(reference_build_parser())


@pytest.mark.parametrize("argv", [
    ["run", "dom.json"],
    ["mesh", "dom.json", "--order", "4", "--target-h", "0.12"],
    ["trace", "dom.json", "--merge", "aggressive", "--kappa", "4.5", "--step-factor", "0.3",
     "--n-max", "5000", "--length-factor", "30", "--config", "c.json"],
    ["cut", "--out", "o", "dom.json", "--split", "3", "--formats", "svg,msh"],
    ["split", "dom.json", "--scheme", "dg", "--penalty", "1e3", "--split", "-1"],
    ["topology", "dom.json", "--target-h", "nan"],
    [], ["dom.json"], ["walk", "dom.json"], ["run"], ["run", "a.json", "b.json"],
    ["run", "dom.json", "--order", "x"], ["run", "dom.json", "--penalty", "big"],
    ["solve", "dom.json", "--unknown", "1"], ["run", "dom.json", "--order"],
    ["run", "dom.json", "--ord", "4"], ["-h"], ["run", "--help"], ["split", "-h"],
])
def test_parent_parser_parses_as_the_reference(monkeypatch, argv):
    """The same namespace, or the same usage error (exit 2) or help (exit 0)
    with the same text."""
    monkeypatch.setenv("COLUMNS", "80")
    got = _parsed(build_parser(), argv)
    assert got == _parsed(reference_build_parser(), argv)
    assert got[0] in (0, 2)


def test_parser_is_built_per_call():
    assert build_parser() is not build_parser()


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


def _unknown_scheme(doc):
    doc["scheme"] = "xx"


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


def _order_2(doc):
    doc["order"] = 2


def _fractional_order(doc):
    doc["order"] = 2.5


def _string_order(doc):
    doc["order"] = "3"


def _bool_ledge(doc):
    next(f for f in doc["boundary_faces"] if f[1] == 1)[1] = True


def _one_component(doc):
    doc["coeffs"] = [[[c[0]] for c in node] for node in doc["coeffs"]]


def _drop_penalty(doc):
    del doc["penalty"]


def _string_valence(doc):
    doc["critical_points"][0]["valence"] = "3"


def _fractional_valence(doc):
    doc["critical_points"][0]["valence"] = 3.7


def _far_element(doc):
    doc["critical_points"][0]["element"] = 1000000


def _string_corner_radius(doc):
    doc["corners"][0]["radius"] = "1"


def _drop_corner_radius(doc):
    del doc["corners"][0]["radius"]


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
    ("mesh.json", _order_2, "solve"),                 # was ValueError in solve, exit 1
    ("mesh.json", _fractional_order, "solve"),        # was ValueError in solve, exit 1
    ("mesh.json", _string_order, "solve"),            # was a silent run, exit 0
    ("mesh.json", _bool_ledge, "solve"),              # was a silent run, exit 0
    ("field.json", _one_component, "topology"),       # was ValueError in topology, exit 1
    ("field.json", _drop_penalty, "topology"),        # was the default penalty, exit 0
    ("topology.json", _string_valence, "trace"),      # was a silent run, exit 0
    ("topology.json", _fractional_valence, "trace"),  # was a silent run, exit 0
    ("topology.json", _far_element, "trace"),         # was a silent run, exit 0
    ("topology.json", _string_corner_radius, "trace"),  # was a silent run, exit 0
    ("topology.json", _drop_corner_radius, "trace"),  # was a fallback radius, exit 0
    ("field.json", _unknown_scheme, "topology"),      # was a silent run, exit 0
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


HUGE = "__huge__"          # written as the JSON number 1e999, which overflows to inf


def _numeric_keys(doc):
    """The path of the first number (bools excluded) under each key of doc: a
    path whose list indices, but for the last, are wildcards."""
    first = {}

    def walk(value, path):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, path + (k,))
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(v, path + (i,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            first.setdefault(tuple("*" if isinstance(p, int) else p for p in path[:-1])
                             + path[-1:], path)

    walk(doc, ())
    return list(first.values())


def _write_huge(path, doc, at):
    """Write doc to path with the number at path `at` replaced by 1e999."""
    doc = copy.deepcopy(doc)
    *outer, last = at
    functools.reduce(operator.getitem, outer, doc)[last] = HUGE
    path.write_text(json.dumps(doc).replace(f'"{HUGE}"', "1e999"))


@pytest.mark.parametrize("name,stage", [("mesh.json", "solve"), ("field.json", "topology"),
                                        ("topology.json", "trace"),
                                        ("separatrices.json", "cut"), ("blocks.json", "split")])
def test_overflowing_number_in_any_artifact_key_is_refused(full_run, tmp_path, capsys, name,
                                                           stage):
    """Artifacts are parsed without a per-number check: each reader refuses a
    non-finite value under every numeric key, naming the file (exit 2)."""
    doc = json.loads((full_run / name).read_text())
    keys = _numeric_keys(doc)
    out = tmp_path / "staged"
    shutil.copytree(full_run, out)
    accepted = []
    for at in keys:
        _write_huge(out / name, doc, at)
        capsys.readouterr()
        if run_cli([stage, HALF_DISC, "--out", out] + FAST) != 2 or \
                name not in capsys.readouterr().err:
            accepted.append(at)
    assert len(keys) >= 4 and accepted == []


DOMAIN_KINDS = {"loops": [{"orientation": "outer", "segments": [
    {"kind": "naca4", "code": "0012", "chord": 1.0, "origin": [0.0, 0.0]}]},
    {"orientation": "inner", "segments": [
        {"kind": "line", "p0": [-1.0, -1.0], "p1": [2.0, -1.0]},
        {"kind": "spline", "points": [[2.0, -1.0], [2.5, 0.0], [2.0, 1.0]]},
        {"kind": "arc", "center": [0.5, 1.0], "radius": 1.5, "a0": 0.0, "a1": 3.14159}]}]}


@pytest.mark.parametrize("doc", [json.loads(fixture_path("half_disc").read_text()),
                                 DOMAIN_KINDS], ids=["half_disc", "every_kind"])
def test_overflowing_number_in_any_domain_key_is_refused(tmp_path, capsys, doc):
    dom = tmp_path / "dom.json"
    keys = _numeric_keys(doc)
    for at in keys:
        _write_huge(dom, doc, at)
        assert run_cli(["mesh", dom, "--out", tmp_path / "x"]) == 2, at
        assert f"{dom}: not valid JSON (1e999 is not a finite number)" in \
            capsys.readouterr().err
    assert len(keys) >= 6


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
