"""Legacy VTK writers for visual inspection of fields and meshes."""

from __future__ import annotations

import numpy as np

from .field import CRITICAL_EPS


def _subdivide_reference(n):
    """Uniform refinement of the reference triangle into n^2 subtriangles."""
    pts = []
    index = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            index[(i, j)] = len(pts)
            pts.append((-1.0 + 2.0 * i / n, -1.0 + 2.0 * j / n))
    tris = []
    for i in range(n):
        for j in range(n - i):
            tris.append((index[(i, j)], index[(i + 1, j)], index[(i, j + 1)]))
            if j < n - i - 1:
                tris.append((index[(i + 1, j)], index[(i + 1, j + 1)], index[(i, j + 1)]))
    return np.array(pts), tris


def _sample_elements(mesh, n, *arrays):
    """Sample every element on its n-fold subdivision.

    Returns ([points, *samples], cells): the mapped points and, for each
    per-element nodal array (ne, nb, ...), its values there, stacked over
    elements, plus the subtriangles as point-index triples.
    """
    ref_pts, ref_tris = _subdivide_reference(n)
    basis = mesh.ref.basis_at(ref_pts)
    elements = range(mesh.n_elements())
    samples = [np.concatenate([basis @ a[e] for e in elements])
               for a in (mesh.geom,) + arrays]
    cells = [(base + a, base + b, base + c)
             for base in range(0, len(samples[0]), len(ref_pts)) for a, b, c in ref_tris]
    return samples, cells


def write_vtk_fields(path, solution):
    """Triangulated dump of the solved components plus the phase angle."""
    (points, uv), cells = _sample_elements(solution.mesh, max(2, solution.mesh.order),
                                           solution.coeffs)
    mag = np.hypot(uv[:, 0], uv[:, -1])
    psi = 0.25 * np.arctan2(uv[:, -1], uv[:, 0])
    psi[mag < CRITICAL_EPS] = 0.0
    _write_vtk(path, points, cells, 3, {"u": uv[:, 0], "v": uv[:, -1], "psi": psi})


def write_vtk_trimesh(path, mesh):
    (points,), cells = _sample_elements(mesh, max(1, mesh.order))
    _write_vtk(path, points, cells, 3, {})


def write_vtk_quadmesh(path, qmesh):
    cells = [tuple(int(v) for v in q) for q in qmesh.quads]
    _write_vtk(path, [tuple(p) for p in qmesh.nodes], cells, 4,
               {"block": [float(b) for b in qmesh.block_of]}, cell_data=True)


def _write_vtk(path, points, cells, cell_size, data, cell_data=False):
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
