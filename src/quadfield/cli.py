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
from pathlib import Path

import numpy as np

from . import blockdecomp, quadblocks, singular, svgio, tracer, vtkio
from .errors import ConfigError, QuadfieldError
from .field import FieldProbe
from .geometry import load_domain, read_json
from .msh import write_msh, write_quad_msh
from .solver import (DEFAULT_PENALTY, FieldSolution, choose_discretization,
                     solve_guiding_field)
from .trimesh import TriMesh, elevate_and_curve, generate_background_mesh

DEFAULTS = {
    "order": 3,
    "scheme": "auto",            # auto | cg | dg
    "target_h": 0.0,             # 0 => bbox diagonal / 6
    "step_factor": 0.25,
    "merge_mode": "normal",      # normal | aggressive
    "kappa": tracer.DEFAULT_KAPPA,
    "split": 2,
    "penalty": DEFAULT_PENALTY,
    "n_max": tracer.DEFAULT_N_MAX,
    "length_factor": tracer.DEFAULT_LENGTH_FACTOR,
    "formats": "",               # comma list: vtk,svg,msh
    "out": "out",
}

SCHEMES = ("auto", "cg", "dg")
MERGE_MODES = ("normal", "aggressive")
FORMATS = ("vtk", "svg", "msh")
INT_KEYS = ("order", "split", "n_max")
# Largest accepted values: the warp-and-blend node table ends at order 15, and
# a split of n makes n * n quads per block.  n_max is only compared with a
# step count, so any integer is safe.
INT_MAX = {"order": 15, "split": 64}
REAL_KEYS = ("target_h", "step_factor", "kappa", "penalty", "length_factor")

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


def dump_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True, default=_json_default)
        f.write("\n")


def load_json(path):
    if not Path(path).exists():
        raise ConfigError(f"missing upstream artifact {path}")
    return read_json(path, ConfigError)


class Pipeline:
    def __init__(self, domain_path, config):
        self.config = config
        self.domain_path = Path(domain_path)
        self.domain = load_domain(domain_path)
        self.out = Path(config["out"])
        self.out.mkdir(parents=True, exist_ok=True)
        self.formats = [f for f in config["formats"].split(",") if f]
        self._loaded = {}            # stage -> object read from its artifact

    # ---- artifacts ---------------------------------------------------------

    def path(self, stage):
        return self.out / ARTIFACTS[stage]

    def load(self, stage):
        """The artifact of stage, read by its module's reader once until stage runs again.

        A missing key or a wrongly shaped value is a ConfigError naming the file.
        """
        if stage in self._loaded:
            return self._loaded[stage]
        path = self.path(stage)
        doc = load_json(path)
        read = {"mesh": lambda: TriMesh.from_json(doc, domain=self.domain),
                "solve": lambda: FieldSolution.from_json(doc, self.load("mesh")),
                "topology": lambda: singular.topology_from_json(doc, self.domain),
                "trace": lambda: tracer.separatrices_from_json(doc),
                "cut": lambda: quadblocks.blocks_from_json(doc)}[stage]
        try:
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
            cps, cns, probe, self.domain, h_s, mode=self.config["merge_mode"],
            kappa=self.config["kappa"], n_max=self.config["n_max"],
            length_factor=self.config["length_factor"])
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
        self._loaded.pop(stage, None)        # the stage rewrites its artifact
        return getattr(self, f"stage_{stage}")()

    def run_all(self):
        for stage in STAGES:
            try:
                self.run(stage)
            except QuadfieldError as ex:
                raise type(ex)(f"stage {stage}: {ex}") from ex
        self.write_manifest()

    def write_manifest(self):
        artifacts = {}
        for stage in STAGES:
            p = self.path(stage)
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            artifacts[p.name] = digest
        dump_json(self.out / "manifest.json", {"artifacts": artifacts})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quadfield",
        description="Curved quadrilateral block decomposition of 2D domains")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("run",) + STAGES:
        p = sub.add_parser(cmd)
        p.add_argument("domain", help="domain JSON file")
        p.add_argument("--config", help="config JSON file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--order", type=int)
        p.add_argument("--scheme", choices=SCHEMES)
        p.add_argument("--target-h", dest="target_h", type=float)
        p.add_argument("--step-factor", dest="step_factor", type=float)
        p.add_argument("--merge", dest="merge_mode", choices=MERGE_MODES)
        p.add_argument("--kappa", type=float)
        p.add_argument("--split", type=int)
        p.add_argument("--penalty", type=float)
        p.add_argument("--n-max", dest="n_max", type=int)
        p.add_argument("--length-factor", dest="length_factor", type=float)
        p.add_argument("--formats", help="comma list of extra outputs: vtk,svg,msh")
    return parser


def resolve_config(args):
    config = dict(DEFAULTS)
    if args.config:
        doc = load_json(args.config)
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(doc) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config.update(doc)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    _check_config(config)
    return config


def _check_config(config):
    """Raise ConfigError unless every value has its type and range."""
    for key in INT_KEYS + REAL_KEYS:
        kinds = int if key in INT_KEYS else (int, float)
        if isinstance(config[key], bool) or not isinstance(config[key], kinds):
            kind = "an integer" if key in INT_KEYS else "a number"
            raise ConfigError(f"{key} must be {kind}, not {config[key]!r}")
        if key in REAL_KEYS:
            try:
                config[key] = float(config[key])
            except OverflowError:                       # an integer beyond any float
                raise ConfigError(f"{key} must be finite, not {config[key]!r}") from None
        if not -math.inf < config[key] < math.inf:      # NaN fails too
            raise ConfigError(f"{key} must be finite, not {config[key]!r}")
    for key, choices in (("scheme", SCHEMES), ("merge_mode", MERGE_MODES)):
        if config[key] not in choices:
            raise ConfigError(f"{key} must be one of {list(choices)}, not {config[key]!r}")
    if not isinstance(config["out"], str):
        raise ConfigError(f"out must be a path string, not {config['out']!r}")
    formats = config["formats"]
    if not isinstance(formats, str) or not set(formats.split(",")) <= set(FORMATS) | {""}:
        raise ConfigError(f"formats must be a comma list of {list(FORMATS)}, not {formats!r}")
    for key in INT_KEYS:
        if config[key] < 1:
            raise ConfigError(f"{key} must be >= 1")
        if key in INT_MAX and config[key] > INT_MAX[key]:
            raise ConfigError(f"{key} must be <= {INT_MAX[key]}")
    if not config["target_h"] >= 0:
        raise ConfigError("target_h must be >= 0 (0 means auto)")
    for key in ("penalty", "length_factor", "kappa", "step_factor"):
        if not config[key] > 0:
            raise ConfigError(f"{key} must be positive")


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
