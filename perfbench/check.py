"""Correctness checks of one operation's artifacts against the seed reference.

Run after the timed region.  Block quality is recomputed here from
``blocks.json`` with an independent Coons-patch evaluator, and the split
mesh is read back from ``quadmesh.msh``, so a defect in the program's own
quality or I/O code cannot hide a bad result.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

FIELD_TOL = 1e-6            # max |(u, v) - reference| at the probe points
SJ_SAMPLES = (np.arange(10) + 0.5) / 10.0
FD_DELTA = 1e-6

RUN_ARTIFACTS = ("mesh.json", "field.json", "topology.json", "separatrices.json",
                 "blocks.json", "quadmesh.msh")
SOLVE_ARTIFACTS = ("mesh.json", "field.json")


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _side(points):
    """Arclength-normalised evaluator of a polyline."""
    points = np.asarray(points, dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(points, axis=0).T))])
    frac = cum / cum[-1]
    return lambda u: np.stack([np.interp(u, frac, points[:, 0]),
                               np.interp(u, frac, points[:, 1])], axis=-1)


def block_scaled_jacobians(sides):
    """Scaled Jacobians of the Coons patch over four sides on a 10x10 grid."""
    bottom, right, top, left = (_side(p) for p in sides)
    c0, c1, c2, c3 = (np.asarray(p[0], dtype=float) for p in sides)

    def patch(s, t):
        s_, t_ = s[..., None], t[..., None]
        return ((1 - t_) * bottom(s) + t_ * top(1 - s) + (1 - s_) * left(1 - t)
                + s_ * right(t)
                - ((1 - s_) * (1 - t_) * c0 + s_ * (1 - t_) * c1
                   + s_ * t_ * c2 + (1 - s_) * t_ * c3))

    s, t = np.meshgrid(SJ_SAMPLES, SJ_SAMPLES, indexing="ij")
    qs = (patch(s + FD_DELTA, t) - patch(s - FD_DELTA, t)) / (2 * FD_DELTA)
    qt = (patch(s, t + FD_DELTA) - patch(s, t - FD_DELTA)) / (2 * FD_DELTA)
    det = qs[..., 0] * qt[..., 1] - qs[..., 1] * qt[..., 0]
    return det / (np.hypot(qs[..., 0], qs[..., 1]) * np.hypot(qt[..., 0], qt[..., 1]))


def read_quad_msh(path):
    """(nodes, quads) of a linear-quad MSH 2.2 file."""
    lines = Path(path).read_text().split("\n")
    i = lines.index("$Nodes")
    n = int(lines[i + 1])
    nodes = np.array([[float(v) for v in row.split()[1:3]]
                      for row in lines[i + 2:i + 2 + n]])
    i = lines.index("$Elements")
    m = int(lines[i + 1])
    quads = []
    for row in lines[i + 2:i + 2 + m]:
        parts = [int(v) for v in row.split()]
        quads.append([v - 1 for v in parts[3 + parts[2]:]])
    return nodes, np.array(quads, dtype=int)


def _check_quad_mesh(path, holes):
    from quadfield.errors import DecompositionError
    from quadfield.quadblocks import QuadMesh

    nodes, quads = read_quad_msh(path)
    mesh = QuadMesh(nodes, quads, np.zeros(len(quads), dtype=int),
                    [(0, 0)] * len(quads), [None] * len(quads))
    try:
        mesh.check_conforming()
        mesh.euler_check(holes=holes)
    except DecompositionError as ex:
        return [f"quadmesh.msh: {ex}"]
    return []


def _triangle_scaled_jacobians(mesh):
    """Scaled Jacobian of every curved triangle at its quadrature points."""
    pts = mesh.ref.quad_points
    out = []
    for e in range(mesh.n_elements()):
        j = mesh.jacobian(e, pts)
        det = j[:, 0, 0] * j[:, 1, 1] - j[:, 0, 1] * j[:, 1, 0]
        out.append(det / (np.hypot(j[:, 0, 0], j[:, 1, 0])
                          * np.hypot(j[:, 0, 1], j[:, 1, 1])))
    return np.concatenate(out)


def load_solution(out):
    from quadfield.solver import FieldSolution
    from quadfield.trimesh import TriMesh

    mesh = TriMesh.from_json(json.loads((out / "mesh.json").read_text()))
    return FieldSolution.from_json(json.loads((out / "field.json").read_text()), mesh)


def sample_field(solution, points):
    """(u, v) of a solution at physical points (NaN where a point is outside)."""
    from quadfield.field import OUTSIDE, FieldProbe

    probe = FieldProbe(solution)
    vals = []
    for p in points:
        v = probe.eval_v(np.asarray(p, dtype=float))
        vals.append([np.nan, np.nan] if v is OUTSIDE else [float(v[0]), float(v[1])])
    return np.array(vals)


def summarize(out_dir, full_run):
    """The reference-comparable facts of one operation's artifacts."""
    out = Path(out_dir)
    names = RUN_ARTIFACTS if full_run else SOLVE_ARTIFACTS
    facts = {"sha256": {n: sha256(out / n) for n in names}}
    if full_run:
        topo = json.loads((out / "topology.json").read_text())
        facts["critical_points"] = len(topo["critical_points"])
        facts["valences"] = sorted(c["valence"] for c in topo["critical_points"])
        facts["corner_valences"] = [c["valence"] for c in topo["corners"]]
        facts["blocks"] = len(json.loads((out / "blocks.json").read_text())["blocks"])
    else:
        facts["elements"] = len(json.loads((out / "mesh.json").read_text())["triangles"])
    return facts


def probe_points(mesh, n=64):
    """Barycentres of n elements spread over the mesh."""
    step = max(1, mesh.n_elements() // n)
    return [mesh.map_to_physical(e, [-1.0 / 3.0, -1.0 / 3.0])[0].tolist()
            for e in range(0, mesh.n_elements(), step)][:n]


def check_operation(out_dir, full_run, exit_codes, ref, holes=0):
    """(problems, quality, drift) of one operation.

    quality is the smallest scaled Jacobian over the output elements: the
    quad blocks of a full run, the curved triangles of a mesh+solve run.
    drift counts checksummed artifacts whose bytes differ from the reference.
    """
    out = Path(out_dir)
    problems = []
    if list(exit_codes) != ref["exit_codes"]:
        return [f"exit codes {list(exit_codes)} != {ref['exit_codes']}"], None, None
    facts = summarize(out, full_run)
    for key, want in ref.items():
        if key in facts and key != "sha256" and facts[key] != want:
            problems.append(f"{key}: {facts[key]} != reference {want}")
    drift = sum(facts["sha256"][n] != h for n, h in ref["sha256"].items())
    if full_run:
        blocks = json.loads((out / "blocks.json").read_text())["blocks"]
        sj = [float(block_scaled_jacobians(b["sides"]).min()) for b in blocks]
        bad = [i for i, v in enumerate(sj) if not v > 0]
        if bad:
            problems.append(f"blocks {bad} have nonpositive scaled Jacobians")
        problems += _check_quad_mesh(out / "quadmesh.msh", holes)
        quality = min(sj) if sj else None
    else:
        sol = load_solution(out)
        got = sample_field(sol, ref["probe_points"])
        err = float(np.max(np.abs(got - np.asarray(ref["field"]))))
        if not err <= FIELD_TOL:
            problems.append(f"field differs from reference by {err:.3e} > {FIELD_TOL}")
        quality = float(_triangle_scaled_jacobians(sol.mesh).min())
    return problems, quality, drift
