"""Traced runs: wrap public quadfield names, record spans, derive layer metrics.

The wrappers live here, in the benchmark, not in the program.  Each target is
a public function or method; a function is patched in every quadfield module
that binds it (``cli`` imports ``elevate_and_curve`` by name, for example),
a method on its class.  Spans stay in memory as flat arrays with
the index of their parent span; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np


def _npts(xi):
    return len(np.atleast_2d(np.asarray(xi, dtype=float)))


def _cross_count(vertices):
    return sum(1 for v in vertices.values() if getattr(v, "kind", None) == "cross")


# Counter hooks: (pre(args) -> state, post(args, result, state) -> {counter: n}).
def _basis_points(args, result, state):
    return {"reftri.basis_points": _npts(args[1])}


def _invert_hits(args, result, state):
    return {"trimesh.invert_hits": int(isinstance(result, np.ndarray))}


def _locate_misses(args, result, state):
    return {"field.locate_misses": int(not isinstance(result, tuple))}


def _elements(args, result, state):
    return {"trimesh.elements": result.n_elements()}


def _delaunay_points(args, result, state):
    return {"delaunay.points": len(args[0])}


def _dofs(args, result, state):
    return {"solver.dofs": result[0].shape[0]}


def _critical_points(args, result, state):
    return {"singular.critical_points": len(result)}


def _advance_pre(args):
    return [sl for sl in args[0] if sl.status == "active"]


def _advance_post(args, result, active):
    return {"tracer.steps": len(active),
            "tracer.boundary_hits": sum(1 for sl in active
                                        if sl.status == "hit_boundary"),
            "tracer.merges": len(result)}


def _crossings_pre(args):
    vertices, records = args[0], args[1]
    return _cross_count(vertices), sum(len(r.polyline) for r in records)


def _crossings_post(args, result, state):
    before, pts = state
    return {"blockdecomp.crossing_input_pts": pts,
            "blockdecomp.cross_vertices": _cross_count(args[0]) - before}


def _faces(args, result, state):
    return {"blockdecomp.faces": len(result[1])}


def _quads(args, result, state):
    return {"quadblocks.quads": len(result.quads)}


# (module, qualified name, pre hook, post hook)
TARGETS = (
    ("quadfield.cli", "main", None, None),
    ("quadfield.cli", "Pipeline.stage_mesh", None, None),
    ("quadfield.cli", "Pipeline.stage_solve", None, None),
    ("quadfield.cli", "Pipeline.stage_topology", None, None),
    ("quadfield.cli", "Pipeline.stage_trace", None, None),
    ("quadfield.cli", "Pipeline.stage_cut", None, None),
    ("quadfield.cli", "Pipeline.stage_split", None, None),
    ("quadfield.cli", "Pipeline.write_manifest", None, None),
    ("quadfield.cli", "dump_json", None, None),
    ("quadfield.cli", "load_json", None, None),
    ("quadfield.trimesh", "TriMesh.from_json", None, None),
    ("quadfield.solver", "FieldSolution.from_json", None, None),
    ("quadfield.reftri", "RefTriangle.basis_at", None, _basis_points),
    ("quadfield.reftri", "RefTriangle.grad_basis_at", None, _basis_points),
    ("quadfield.trimesh", "elevate_and_curve", None, _elements),
    ("quadfield.trimesh", "TriMesh.invert_map", None, _invert_hits),
    ("quadfield.field", "FieldProbe.locate", None, _locate_misses),
    ("quadfield.delaunay", "triangulate_pslg", None, _delaunay_points),
    ("quadfield.solver", "build_cg_system", None, _dofs),
    ("quadfield.solver", "build_dg_system", None, _dofs),
    ("quadfield.solver", "solve_laplace", None, None),
    ("quadfield.singular", "find_critical_points", None, _critical_points),
    ("quadfield.singular", "corner_valences", None, None),
    ("quadfield.singular", "interior_valence", None, None),
    ("quadfield.singular", "corner_valence", None, None),
    ("quadfield.tracer", "trace_all", None, None),
    ("quadfield.tracer", "initial_directions", None, None),
    ("quadfield.tracer", "corner_directions", None, None),
    ("quadfield.tracer", "advance_all", _advance_pre, _advance_post),
    ("quadfield.geometry", "DomainSpec.closest_boundary_point", None, None),
    ("quadfield.blockdecomp", "decompose", None, _faces),
    ("quadfield.blockdecomp", "resolve_crossings", _crossings_pre, _crossings_post),
    ("quadfield.blockdecomp", "MidpointDivider.divide", None, None),
    ("quadfield.quadblocks", "build_blocks", None, None),
    ("quadfield.quadblocks", "QuadBlock.scaled_jacobians", None, None),
    ("quadfield.quadblocks", "isoparametric_split", None, _quads),
    ("quadfield.msh", "write_msh", None, None),
    ("quadfield.msh", "write_quad_msh", None, None),
    ("quadfield.vtkio", "write_vtk_trimesh", None, None),
    ("quadfield.vtkio", "write_vtk_fields", None, None),
    ("quadfield.vtkio", "write_vtk_quadmesh", None, None),
    ("quadfield.svgio", "write_svg_streamlines", None, None),
    ("quadfield.svgio", "write_svg_blocks", None, None),
)


def _bindings(module, qualname):
    """[(owner, attribute, original)] for every place a target is looked up."""
    owner = importlib.import_module(module)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    if outer:
        return [(owner, attr, original)]
    return [(mod, name, original)
            for mod_name, mod in sorted(sys.modules.items())
            if mod_name == "quadfield" or mod_name.startswith("quadfield.")
            for name, value in sorted(vars(mod).items()) if value is original]


def snapshot():
    """Every quadfield module and class attribute, to compare by identity."""
    state = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != "quadfield" and not mod_name.startswith("quadfield."):
            continue
        for name, value in vars(mod).items():
            state[(mod_name, name)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    state[(mod_name, f"{name}.{attr}")] = member
    return state


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.names = [f"{m.split('.', 1)[1]}.{q}" for m, q, _, _ in TARGETS]
        self._patched = []
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counters = {}
        self._stack = []

    def _wrap(self, fn, nid, pre, post):
        name_id, parent, t0, t1 = self.name_id, self.parent, self.t0, self.t1
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            state = pre(args) if pre else None
            idx = len(t0)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            t1.append(0.0)
            stack.append(idx)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = clock()
                stack.pop()
            if post:
                for key, n in post(args, result, state).items():
                    counters[key] = counters.get(key, 0) + n
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for nid, (module, qualname, pre, post) in enumerate(TARGETS):
                for owner, attr, original in _bindings(module, qualname):
                    if isinstance(original, classmethod):
                        patched = classmethod(self._wrap(original.__func__, nid, pre, post))
                    else:
                        patched = self._wrap(original, nid, pre, post)
                    setattr(owner, attr, patched)
                    self._patched.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self):
        """(spans as numpy arrays, counters) recorded since the last take."""
        spans = {"name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                 "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                 "t0": np.frombuffer(self.t0, dtype=float).copy(),
                 "t1": np.frombuffer(self.t1, dtype=float).copy()}
        counters = dict(self.counters)
        # the installed wrappers hold these objects, so clear them in place
        del self.name_id[:], self.parent[:], self.t0[:], self.t1[:]
        self.counters.clear()
        return spans, counters


def span_totals(names, spans):
    """{name: (calls, total time, self time, {child name: calls made from it})}."""
    n = len(names)
    name, par = spans["name"], spans["parent"]
    dur = spans["t1"] - spans["t0"]
    nested = par >= 0
    child_time = np.bincount(par[nested], weights=dur[nested], minlength=len(dur))
    calls = np.bincount(name, minlength=n)
    total = np.bincount(name, weights=dur, minlength=n)
    self_time = np.bincount(name, weights=dur - child_time, minlength=n)
    pairs = np.bincount(name[par[nested]] * n + name[nested],
                        minlength=n * n).reshape(n, n)
    return {key: (int(calls[i]), float(total[i]), float(self_time[i]),
                  {names[j]: int(c) for j, c in enumerate(pairs[i]) if c})
            for i, key in enumerate(names)}


def layer_metrics(totals, counters, n_ops):
    """Per-operation layer metrics from span totals and counters of n_ops ops."""
    def calls(*keys):
        return sum(totals[k][0] for k in keys)

    def self_s(*keys):
        return sum(totals[k][2] for k in keys) / n_ops

    def count(key):
        return counters.get(key, 0)

    basis = ("reftri.RefTriangle.basis_at", "reftri.RefTriangle.grad_basis_at")
    locate = totals["field.FieldProbe.locate"]
    invert_calls = calls("trimesh.TriMesh.invert_map")
    rounds = calls("tracer.advance_all")
    return {
        "cli.mesh_s": self_s("cli.Pipeline.stage_mesh"),
        "cli.solve_s": self_s("cli.Pipeline.stage_solve"),
        "cli.topology_s": self_s("cli.Pipeline.stage_topology"),
        "cli.trace_s": self_s("cli.Pipeline.stage_trace"),
        "cli.cut_s": self_s("cli.Pipeline.stage_cut"),
        "cli.split_s": self_s("cli.Pipeline.stage_split"),
        "cli.io_s": self_s("cli.dump_json", "cli.load_json", "trimesh.TriMesh.from_json",
                           "solver.FieldSolution.from_json",
                           "cli.Pipeline.write_manifest"),
        "reftri.basis_calls": calls(*basis) / n_ops,
        "reftri.basis_points": count("reftri.basis_points") / n_ops,
        "reftri.points_per_call": count("reftri.basis_points") / max(calls(*basis), 1),
        "reftri.basis_s": self_s(*basis),
        "trimesh.elements": count("trimesh.elements") / n_ops,
        "trimesh.elevate_s": self_s("trimesh.elevate_and_curve"),
        "trimesh.invert_calls": invert_calls / n_ops,
        "trimesh.invert_hit_ratio": count("trimesh.invert_hits") / max(invert_calls, 1),
        "trimesh.invert_s": self_s("trimesh.TriMesh.invert_map"),
        "field.locate_calls": locate[0] / n_ops,
        "field.locate_misses": count("field.locate_misses") / n_ops,
        "field.inversions_per_locate": (locate[3].get("trimesh.TriMesh.invert_map", 0)
                                        / max(locate[0], 1)),
        "field.locate_s": self_s("field.FieldProbe.locate"),
        "delaunay.points": count("delaunay.points") / n_ops,
        "delaunay.triangulate_s": self_s("delaunay.triangulate_pslg"),
        "solver.dofs": count("solver.dofs") / n_ops,
        "solver.assemble_s": self_s("solver.build_cg_system", "solver.build_dg_system"),
        "solver.linsolve_s": self_s("solver.solve_laplace"),
        "singular.find_s": self_s("singular.find_critical_points"),
        "singular.corner_s": self_s("singular.corner_valences", "singular.corner_valence"),
        "singular.valence_calls": calls("singular.interior_valence",
                                        "singular.corner_valence") / n_ops,
        "singular.critical_points": count("singular.critical_points") / n_ops,
        "tracer.trace_s": self_s("tracer.trace_all"),
        "tracer.refine_s": self_s("tracer.initial_directions", "tracer.corner_directions"),
        "tracer.rounds": rounds / n_ops,
        # one whole round, children included, as ROADMAP's round microbenchmark
        "tracer.round_s": totals["tracer.advance_all"][1] / max(rounds, 1),
        "tracer.steps": count("tracer.steps") / n_ops,
        "tracer.boundary_hits": count("tracer.boundary_hits") / n_ops,
        "tracer.merges": count("tracer.merges") / n_ops,
        "geometry.closest_calls": calls("geometry.DomainSpec.closest_boundary_point") / n_ops,
        "geometry.closest_s": self_s("geometry.DomainSpec.closest_boundary_point"),
        "blockdecomp.decompose_s": self_s("blockdecomp.decompose"),
        "blockdecomp.crossings_s": self_s("blockdecomp.resolve_crossings"),
        "blockdecomp.crossing_input_pts": count("blockdecomp.crossing_input_pts") / n_ops,
        "blockdecomp.cross_vertices": count("blockdecomp.cross_vertices") / n_ops,
        "blockdecomp.midpoint_divisions": calls("blockdecomp.MidpointDivider.divide") / n_ops,
        "blockdecomp.faces": count("blockdecomp.faces") / n_ops,
        "quadblocks.build_s": self_s("quadblocks.build_blocks"),
        "quadblocks.jacobian_calls": calls("quadblocks.QuadBlock.scaled_jacobians") / n_ops,
        "quadblocks.jacobian_s": self_s("quadblocks.QuadBlock.scaled_jacobians"),
        "quadblocks.split_s": self_s("quadblocks.isoparametric_split"),
        "quadblocks.quads": count("quadblocks.quads") / n_ops,
        "msh.write_s": self_s("msh.write_msh", "msh.write_quad_msh"),
        "vtkio.write_s": self_s("vtkio.write_vtk_trimesh", "vtkio.write_vtk_fields",
                                "vtkio.write_vtk_quadmesh"),
        "svgio.write_s": self_s("svgio.write_svg_streamlines", "svgio.write_svg_blocks"),
    }
