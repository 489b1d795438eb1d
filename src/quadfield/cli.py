"""Batch pipeline driver: mesh -> solve -> topology -> trace -> cut -> split.

Every stage persists its artifact as deterministic JSON (or MSH) in the
output directory, so stages can be re-run individually and byte-identical
reruns certify reproducibility.  There is no randomness anywhere in the
pipeline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import blockdecomp, quadblocks, singular, svgio, tracer, vtkio
from .errors import (ConfigError, DecompositionError, MeshError, QuadfieldError,
                     TopologyError, TracingError)
from .field import FieldProbe
from .geometry import check_finite, load_domain, read_json, typed
from .msh import write_msh, write_quad_msh
from .solver import (DEFAULT_PENALTY, FieldSolution, choose_discretization,
                     solve_guiding_field)
from .trimesh import TriMesh, elevate_and_curve, generate_background_mesh

# key: (default, accepted types, test, what the value must be); its flag is
# --key, with "_" written "-".  The warp-and-blend node table ends at order
# 15, and a split of n makes n * n quads per block; n_max is only compared
# with a step count, so any integer is safe.  resolve_config also refuses a
# number that is not finite.
INT, REAL, TEXT = (int,), (int, float), (str,)
OPTIONS = {
    "order": (3, INT, lambda v: 1 <= v <= 15, "an integer from 1 to 15"),
    "scheme": ("auto", TEXT, lambda v: v in ("auto", "cg", "dg"), "auto, cg or dg"),
    "target_h": (0.0, REAL, lambda v: v >= 0, "a finite number >= 0 (0: bbox/6)"),
    "step_factor": (0.25, REAL, lambda v: v > 0, "a finite number > 0"),
    "kappa": (tracer.DEFAULT_KAPPA, REAL, lambda v: v > 0, "a finite number > 0"),
    "split": (2, INT, lambda v: 1 <= v <= 64, "an integer from 1 to 64"),
    "penalty": (DEFAULT_PENALTY, REAL, lambda v: v > 0, "a finite number > 0"),
    "n_max": (tracer.DEFAULT_N_MAX, INT, lambda v: v >= 1, "an integer >= 1"),
    "length_factor": (tracer.DEFAULT_LENGTH_FACTOR, REAL, lambda v: v > 0,
                      "a finite number > 0"),
    "formats": ("", TEXT, lambda v: set(v.split(",")) <= {"", "vtk", "svg", "msh"},
                "a comma list of vtk, svg, msh"),
    "out": ("out", TEXT, lambda v: True, "an output directory"),
}

STAGES = ("mesh", "solve", "topology", "trace", "cut", "split")
ARTIFACTS = {
    "mesh": "mesh.json",
    "solve": "field.json",
    "topology": "topology.json",
    "trace": "separatrices.json",
    "cut": "blocks.json",
    "split": "quadmesh.msh",
}


def _json_default(o):
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def _nest_text(lst, depth):
    """lst at indent depth when it is a rectangular nest of plain finite floats
    or of plain ints, formatted by one % template; None otherwise.

    %r writes a number as json does except for bools and non-finite floats,
    which is why they are left to _json_chunks.  Any NaN or infinity makes
    the sum non-finite; an overflowing sum of finite floats only costs speed.
    """
    level, shape = [lst], []
    while True:
        kinds = set(map(type, level))
        if kinds == {list}:
            sizes = set(map(len, level))
            if len(sizes) != 1 or 0 in sizes:
                return None
            shape.append(sizes.pop())
            level = list(chain.from_iterable(level))
        elif kinds == {int} or kinds == {float} and math.isfinite(sum(level)):
            break
        else:
            return None
    text = "%r"
    for d, n in zip(range(depth + len(shape), depth, -1), reversed(shape)):
        pad = "\n" + " " * d
        text = "[" + pad + (text + "," + pad) * (n - 1) + text + "\n" + " " * (d - 1) + "]"
    return text % tuple(level)


def _key_text(k):
    """A dict key as json writes it: a non-string key as its JSON text, quoted."""
    if isinstance(k, (str, int, float)) or k is None:
        return encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _json_chunks(o, depth, out):
    """Append to out the text of o at indent depth, as
    json.dump(o, indent=1, sort_keys=True, default=_json_default) writes it."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None or o is True or o is False:
        out.append(json.dumps(o))
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(float.__repr__(o) if math.isfinite(o) else json.dumps(o))
    elif not isinstance(o, (list, tuple, dict)):
        _json_chunks(_json_default(o), depth, out)
    elif not o:
        out.append("{}" if isinstance(o, dict) else "[]")
    elif type(o) is list and (text := _nest_text(o, depth)):
        out.append(text)
    else:
        if isinstance(o, dict):
            ends, items = "{}", ((_key_text(k) + ": ", v) for k, v in sorted(o.items()))
        else:
            ends, items = "[]", (("", v) for v in o)
        pad = "\n" + " " * (depth + 1)
        sep = ends[0] + pad
        for key, v in items:
            out.append(sep + key)
            _json_chunks(v, depth + 1, out)
            sep = "," + pad
        out.append("\n" + " " * depth + ends[1])


def dump_json(path, doc):
    """Write doc as json.dump(doc, indent=1, sort_keys=True) does, plus a newline.

    The text is built in memory first, so a document that cannot be encoded
    leaves the previous artifact as it was.  A rectangular nest of plain
    numbers is formatted by one % template instead of token by token.
    """
    out = []
    _json_chunks(doc, 0, out)
    out.append("\n")
    with open(path, "w") as f:
        f.writelines(out)


def load_json(path):
    if not Path(path).exists():
        raise ConfigError(f"missing upstream artifact {path}")
    return read_json(path, ConfigError, every_number=False)


class Pipeline:
    def __init__(self, domain_path, config):
        self.config = config
        self.domain_path = Path(domain_path)
        self.domain = load_domain(domain_path)
        self.out = Path(config["out"])
        self.out.mkdir(parents=True, exist_ok=True)
        self.formats = [f for f in config["formats"].split(",") if f]
        self._loaded = {}            # stage -> its result, as its artifact's reader gives it

    # ---- artifacts ---------------------------------------------------------

    def path(self, stage):
        return self.out / ARTIFACTS[stage]

    def load(self, stage):
        """The result of stage: what its run in this Pipeline returned, else its
        artifact, read by its module's reader once until stage runs again.

        A missing key or a wrongly shaped value is a ConfigError naming the file.
        """
        if stage in self._loaded:
            return self._loaded[stage]
        path = self.path(stage)
        doc = load_json(path)
        read = {"mesh": lambda: TriMesh.from_json(doc, domain=self.domain),
                "solve": lambda: FieldSolution.from_json(doc, self.load("mesh")),
                "topology": lambda: singular.topology_from_json(
                    doc, self.domain, self.load("mesh").n_elements()),
                "trace": lambda: tracer.separatrices_from_json(doc, self.domain),
                "cut": lambda: quadblocks.blocks_from_json(doc)}[stage]
        try:
            if stage == "mesh":
                typed(doc["target_h"], REAL, "target_h")    # stage_mesh's key, unused
            self._loaded[stage] = read()
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as ex:
            raise ConfigError(f"{path}: malformed ({type(ex).__name__}: {ex}); "
                              f"rerun {stage}") from None
        return self._loaded[stage]

    # ---- stages --------------------------------------------------------------

    def stage_mesh(self):
        h = self.config["target_h"] or self.domain.bbox_diag / 6.0
        linear = generate_background_mesh(self.domain, h)
        mesh = elevate_and_curve(linear, self.config["order"], self.domain)
        check_finite([mesh.vertices, mesh.geom, [(f.t0, f.t1) for f in mesh.boundary_faces]],
                     MeshError, "the mesh's vertices, nodes and boundary faces")
        doc = mesh.to_json()
        doc["target_h"] = h
        dump_json(self.path("mesh"), doc)
        if "msh" in self.formats:
            write_msh(self.out / "trimesh.msh", mesh)
        if "vtk" in self.formats:
            vtkio.write_vtk_trimesh(self.out / "trimesh.vtk", mesh)
        return mesh

    def stage_solve(self):
        mesh = self.load("mesh")
        choice = choose_discretization(self.domain, self.config["penalty"],
                                       self.config["scheme"])
        sol = solve_guiding_field(mesh, self.domain, choice)
        dump_json(self.path("solve"), sol.to_json())
        if "vtk" in self.formats:
            vtkio.write_vtk_fields(self.out / "fields.vtk", sol)
        return sol

    def stage_topology(self):
        sol = self.load("solve")
        probe = FieldProbe(sol)
        cps = singular.find_critical_points(sol, probe)
        cns = singular.corner_valences(self.domain, probe)
        check_finite([(*cp.position, cp.vmag, cp.radius) for cp in cps] +
                     [(cn.index, cn.dpsi, cn.residual, cn.radius) for cn in cns],
                     TopologyError, "the critical points and corner nodes")
        dump_json(self.path("topology"), singular.topology_report(cps, cns))
        return cps, cns

    def _traced_field(self):
        """(solution, probe, critical points, corner nodes, step size) of trace and cut."""
        sol = self.load("solve")
        probe = FieldProbe(sol)
        cps, cns = self.load("topology")
        return sol, probe, cps, cns, self.config["step_factor"] * sol.mesh.shortest_edge()

    def stage_trace(self):
        sol, probe, cps, cns, h_s = self._traced_field()
        seps, _ = tracer.trace_all(
            cps, cns, probe, self.domain, h_s, kappa=self.config["kappa"],
            n_max=self.config["n_max"], length_factor=self.config["length_factor"])
        check_finite([a for s in seps for a in (s.points, s.start.position, s.end.position,
                                                (s.start.t, s.end.t))],
                     TracingError, "the separatrices")
        dump_json(self.path("trace"), tracer.separatrices_to_json(seps))
        if "svg" in self.formats:
            svgio.write_svg_streamlines(self.out / "streamlines.svg", sol, seps, cps)
        return seps

    def stage_cut(self):
        _, probe, cps, cns, h_s = self._traced_field()
        seps = self.load("trace")
        sub, faces = blockdecomp.decompose(self.domain, probe, cns, seps, h_s,
                                           critical_points=cps)
        blocks = quadblocks.build_blocks(sub, faces)
        check_finite([side.points for b in blocks for side in b.sides],
                     DecompositionError, "the block sides")
        dump_json(self.path("cut"), quadblocks.blocks_to_json(blocks))
        if "svg" in self.formats:
            irregular = [k for k in sub.vertices
                         if k[0] in ("critical", "artificial")]
            svgio.write_svg_blocks(self.out / "blocks.svg", sub, faces, irregular)
        return blocks

    def stage_split(self):
        blocks = self.load("cut")
        qmesh = quadblocks.isoparametric_split(blocks, self.config["split"],
                                               holes=len(self.domain.holes))
        write_quad_msh(self.path("split"), qmesh)
        if "vtk" in self.formats:
            vtkio.write_vtk_quadmesh(self.out / "quadmesh.vtk", qmesh)
        return qmesh

    def run(self, stage):
        """Run stage and keep its result for the stages after it; an error names the stage."""
        self._loaded.pop(stage, None)        # the stage rewrites its artifact
        try:
            self._loaded[stage] = getattr(self, f"stage_{stage}")()
        except QuadfieldError as ex:
            raise type(ex)(f"stage {stage}: {ex}") from ex
        return self._loaded[stage]

    def run_all(self):
        for stage in STAGES:
            self.run(stage)
        self.write_manifest()

    def write_manifest(self):
        artifacts = {}
        for stage in STAGES:
            p = self.path(stage)
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            artifacts[p.name] = digest
        dump_json(self.out / "manifest.json", {"artifacts": artifacts})


def build_parser():
    """The command-line parser; every subcommand takes the same arguments,
    declared once in a parent parser."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("domain", help="domain JSON file")
    shared.add_argument("--config", help="config JSON file")
    for key, (default, kinds, _, phrase) in OPTIONS.items():
        shared.add_argument("--" + key.replace("_", "-"), type=kinds[-1],
                            help=f"{phrase} (default {default!r})")
    parser = argparse.ArgumentParser(
        prog="quadfield",
        description="Curved quadrilateral block decomposition of 2D domains")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("run",) + STAGES:
        sub.add_parser(cmd, parents=[shared])
    return parser


def resolve_config(args):
    """OPTIONS' defaults, updated by the config file, then by the flags; each value checked."""
    config = {key: opt[0] for key, opt in OPTIONS.items()}
    if args.config:
        try:
            doc = read_json(args.config, ConfigError)
        except FileNotFoundError:
            raise ConfigError(f"config file {args.config} not found") from None
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(doc) - set(OPTIONS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config.update(doc)
    config.update((key, getattr(args, key)) for key in OPTIONS
                  if getattr(args, key) is not None)
    for key, (_, kinds, test, phrase) in OPTIONS.items():
        value = config[key]
        try:
            typed(value, kinds, key)                # ints exclude bools
            if float in kinds:
                value = float(value)                # an int beyond any float overflows
            ok = test(value)
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigError(f"{key} must be {phrase}, not {config[key]!r}")
        config[key] = value
    return config


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        pipe = Pipeline(args.domain, config)
        if args.command == "run":
            pipe.run_all()
        else:
            pipe.run(args.command)
    except QuadfieldError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return getattr(ex, "exit_code", 1)
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
