"""The SVG, VTK and MSH writers against the per-point writers they replaced.

Each writer formats its point and cell tables with one % template per
table, and _sample_elements evaluates every element with one stacked
basis @ a.  The writers before that are kept below verbatim (only their
names differ), and every file must come out with the same bytes.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from quadfield import cli, svgio, vtkio
from quadfield.field import CRITICAL_EPS
from quadfield.geometry import fixture_path
from quadfield.msh import (GMSH_LINE, GMSH_QUAD, _TRI_TYPE_BY_ORDER, _equidistant_tri_nodes,
                           write_msh)
from quadfield.svgio import _BLOCK_FILLS, _CANVAS, _psi_color
from quadfield.vtkio import _sample_elements, _subdivide_reference

# ---- reference: svgio, one point at a time ----


class _Frame:
    def __init__(self, lo, hi, margin=20.0):
        span = max(hi[0] - lo[0], hi[1] - lo[1])
        self.scale = (_CANVAS - 2 * margin) / span
        self.lo = lo
        self.margin = margin
        self.height = (hi[1] - lo[1]) * self.scale + 2 * margin

    def pt(self, p):
        x = self.margin + (p[0] - self.lo[0]) * self.scale
        y = self.height - (self.margin + (p[1] - self.lo[1]) * self.scale)
        return f"{x:.2f},{y:.2f}"


def reference_write_svg_streamlines(path, solution, separatrices, critical_points=()):
    mesh = solution.mesh
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    fr = _Frame(lo, hi)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS:.0f}" '
           f'height="{fr.height:.0f}">']
    (xy, uv), cells = reference_sample_elements(mesh, max(2, mesh.order), solution.coeffs)
    for (a, b, c) in cells:
        uc = (uv[a] + uv[b] + uv[c]) / 3.0
        mag = math.hypot(uc[0], uc[-1])
        color = "#cccccc" if mag < CRITICAL_EPS else _psi_color(
            0.25 * math.atan2(uc[-1], uc[0]))
        pts = " ".join(fr.pt(xy[i]) for i in (a, b, c))
        out.append(f'<polygon points="{pts}" fill="{color}" stroke="none"/>')
    for s in separatrices:
        pts = " ".join(fr.pt(p) for p in np.asarray(s.points))
        out.append(f'<polyline points="{pts}" fill="none" stroke="black" '
                   'stroke-width="2.5"/>')
    for cp in critical_points:
        out.append(f'<circle cx="{fr.pt(cp.position).split(",")[0]}" '
                   f'cy="{fr.pt(cp.position).split(",")[1]}" r="6" fill="white" '
                   'stroke="red" stroke-width="2.5"/>')
    out.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")


def reference_write_svg_blocks(path, sub, faces, irregular_keys=()):
    all_pts = np.vstack([f.polygon for f in faces])
    fr = _Frame(all_pts.min(axis=0), all_pts.max(axis=0))
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS:.0f}" '
           f'height="{fr.height:.0f}">']
    for i, f in enumerate(faces):
        pts = " ".join(fr.pt(p) for p in f.polygon)
        fill = _BLOCK_FILLS[i % len(_BLOCK_FILLS)]
        out.append(f'<polygon points="{pts}" fill="{fill}" stroke="black" '
                   'stroke-width="1.5"/>')
    for key in irregular_keys:
        vr = sub.vertices[key]
        x, y = fr.pt(vr.position).split(",")
        out.append(f'<circle cx="{x}" cy="{y}" r="7" fill="none" stroke="red" '
                   'stroke-width="3"/>')
    out.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")


# ---- reference: vtkio, one element and one line at a time ----


def reference_sample_elements(mesh, n, *arrays):
    ref_pts, ref_tris = _subdivide_reference(n)
    basis = mesh.ref.basis_at(ref_pts)
    elements = range(mesh.n_elements())
    samples = [np.concatenate([basis @ a[e] for e in elements])
               for a in (mesh.geom,) + arrays]
    cells = [(base + a, base + b, base + c)
             for base in range(0, len(samples[0]), len(ref_pts)) for a, b, c in ref_tris]
    return samples, cells


def reference_write_vtk_fields(path, solution):
    (points, uv), cells = reference_sample_elements(
        solution.mesh, max(2, solution.mesh.order), solution.coeffs)
    mag = np.hypot(uv[:, 0], uv[:, -1])
    psi = 0.25 * np.arctan2(uv[:, -1], uv[:, 0])
    psi[mag < CRITICAL_EPS] = 0.0
    _reference_write_vtk(path, points, cells, 3, {"u": uv[:, 0], "v": uv[:, -1], "psi": psi})


def reference_write_vtk_trimesh(path, mesh):
    (points,), cells = reference_sample_elements(mesh, max(1, mesh.order))
    _reference_write_vtk(path, points, cells, 3, {})


def reference_write_vtk_quadmesh(path, qmesh):
    cells = [tuple(int(v) for v in q) for q in qmesh.quads]
    _reference_write_vtk(path, [tuple(p) for p in qmesh.nodes], cells, 4,
                         {"block": [float(b) for b in qmesh.block_of]}, cell_data=True)


def _reference_write_vtk(path, points, cells, cell_size, data, cell_data=False):
    vtk_type = {3: 5, 4: 9}[cell_size]
    lines = ["# vtk DataFile Version 3.0", "quadfield output", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {len(points)} double"]
    for p in points:
        lines.append(f"{float(p[0])!r} {float(p[1])!r} 0.0")
    lines.append(f"CELLS {len(cells)} {len(cells) * (cell_size + 1)}")
    for c in cells:
        lines.append(f"{cell_size} " + " ".join(str(v) for v in c))
    lines.append(f"CELL_TYPES {len(cells)}")
    lines.extend([str(vtk_type)] * len(cells))
    if data:
        if cell_data:
            lines.append(f"CELL_DATA {len(cells)}")
        else:
            lines.append(f"POINT_DATA {len(points)}")
        for name, vals in data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(repr(float(v)) for v in vals)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# ---- reference: msh, one element and one line at a time ----


def _reference_msh_write(path, points, elements):
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(len(points))]
    lines += [f"{i + 1} {float(x)!r} {float(y)!r} 0" for i, (x, y) in enumerate(points)]
    lines += ["$EndNodes", "$Elements", str(len(elements))]
    for i, (etype, tag, elementary, nodes) in enumerate(elements):
        ids = " ".join(str(int(v) + 1) for v in nodes)
        lines.append(f"{i + 1} {etype} 2 {tag} {elementary} {ids}")
    lines.append("$EndElements")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def reference_write_msh(path, mesh):
    order = mesh.order if mesh.order in _TRI_TYPE_BY_ORDER else 1
    etype = _TRI_TYPE_BY_ORDER[order]
    if order == 1:
        points, conn = mesh.vertices, mesh.triangles
        elements = [(GMSH_LINE, f.loop + 1, f.loop + 1,
                     np.roll(mesh.triangles[f.elem], -f.ledge)[:2]) for f in mesh.boundary_faces]
    else:
        basis = mesh.ref.basis_at(_equidistant_tri_nodes(order))
        xy = np.concatenate([basis @ g for g in mesh.geom])
        ids = mesh.node_ids(order - 1, int(order == 3))
        _, first = np.unique(ids, return_index=True)
        first.sort()
        renumber = np.empty(ids.max() + 1, dtype=int)
        renumber[ids.ravel()[first]] = np.arange(len(first))
        points, conn = xy[first], renumber[ids]
        elements = []
    _reference_msh_write(path, points, elements + [(etype, 0, 1, nodes) for nodes in conn])


def reference_write_quad_msh(path, qmesh):
    _reference_msh_write(path, qmesh.nodes, [(GMSH_QUAD, int(tag), int(tag), q)
                                             for tag, q in zip(qmesh.block_of, qmesh.quads)])


# ---- the writers against the references ----

WRITERS = [(svgio, "write_svg_streamlines", reference_write_svg_streamlines),
           (svgio, "write_svg_blocks", reference_write_svg_blocks),
           (vtkio, "write_vtk_fields", reference_write_vtk_fields),
           (vtkio, "write_vtk_trimesh", reference_write_vtk_trimesh),
           (vtkio, "write_vtk_quadmesh", reference_write_vtk_quadmesh),
           (cli, "write_msh", reference_write_msh),
           (cli, "write_quad_msh", reference_write_quad_msh)]

EVERY_FILE = ["blocks.svg", "fields.vtk", "quadmesh.msh", "quadmesh.vtk", "streamlines.svg",
              "trimesh.msh", "trimesh.vtk"]


@pytest.mark.parametrize("name,flags,rc,files", [
    ("half_disc", "--order 3 --target-h 0.35 --split 4", 0, EVERY_FILE),
    ("nautilus", "--order 3 --target-h 0.5 --split 2", 0, EVERY_FILE),
    # no critical points, and the run ends at the cut
    ("holed_nautilus", "--target-h 0.35", 6,
     ["fields.vtk", "streamlines.svg", "trimesh.msh", "trimesh.vtk"]),
], ids=["half_disc", "nautilus", "holed_nautilus"])
def test_writers_write_the_reference_bytes(name, flags, rc, files, tmp_path, monkeypatch):
    """A full run with every format, each file written again by its reference."""
    written = []
    for module, attr, reference in WRITERS:
        def both(path, *args, _write=getattr(module, attr), _reference=reference):
            _write(path, *args)
            _reference(f"{path}.ref", *args)
            written.append(Path(path))

        monkeypatch.setattr(module, attr, both)
    assert cli.main(["run", str(fixture_path(name)), "--out", str(tmp_path),
                     "--formats", "svg,vtk,msh"] + flags.split()) == rc
    assert sorted(path.name for path in written) == files
    for path in written:
        assert path.read_bytes() == Path(f"{path}.ref").read_bytes(), path.name


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["half_disc", "nautilus", "holed_nautilus", "naca_IV"])
def test_write_msh_writes_the_reference_bytes(captured, name, order, tmp_path):
    """Orders 1-3 with their nodes (1 with tagged boundary lines), and order 4
    as straight triangles."""
    mesh = captured(name, order=order).mesh
    write_msh(tmp_path / "got.msh", mesh)
    reference_write_msh(tmp_path / "want.msh", mesh)
    assert (tmp_path / "got.msh").read_bytes() == (tmp_path / "want.msh").read_bytes()


@pytest.mark.parametrize("order", range(1, 8))
@pytest.mark.parametrize("name", ["half_disc", "nautilus"])
def test_stacked_samples_match_the_element_loop_bitwise(captured, name, order):
    mesh = captured(name, order=order).mesh
    rng = np.random.default_rng(order)
    arrays = (rng.normal(size=(mesh.n_elements(), mesh.ref.n_nodes, 2)),
              rng.normal(size=(mesh.n_elements(), mesh.ref.n_nodes, 3)))
    for n in {1, 2, order, order + 1}:
        samples, cells = _sample_elements(mesh, n, *arrays)
        want, want_cells = reference_sample_elements(mesh, n, *arrays)
        assert [a.tobytes() for a in samples] == [a.tobytes() for a in want]
        assert cells.tolist() == [list(c) for c in want_cells]
