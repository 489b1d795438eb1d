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
    per-element nodal array (ne, nb, d), its values there, stacked over
    elements, plus the (ncells, 3) subtriangles as point-index rows.  One
    stacked basis @ a gives each element's block bitwise as its own
    basis @ a[e].
    """
    ref_pts, ref_tris = _subdivide_reference(n)
    basis = mesh.ref.basis_at(ref_pts)
    samples = [(basis @ a).reshape(-1, a.shape[-1]) for a in (mesh.geom,) + arrays]
    cells = (len(ref_pts) * np.arange(mesh.n_elements())[:, None, None]
             + np.array(ref_tris)).reshape(-1, 3)
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
    _write_vtk(path, qmesh.nodes, qmesh.quads, 4, {"block": qmesh.block_of}, cell_data=True)


def _table(row, array):
    """One copy of the % template row per row of array, filled by one % from
    its entries as Python numbers (%r of a float is repr(float(v)))."""
    return (row * len(array)) % tuple(array.ravel().tolist())


def _write_vtk(path, points, cells, cell_size, data, cell_data=False):
    """ASCII VTK of 2D points, cells of cell_size point ids and scalar data,
    each table formatted by one % template."""
    points = np.asarray(points, dtype=float)
    cells = np.asarray(cells, dtype=int).reshape(-1, cell_size)
    vtk_type = {3: 5, 4: 9}[cell_size]
    text = ["# vtk DataFile Version 3.0\nquadfield output\nASCII\n"
            f"DATASET UNSTRUCTURED_GRID\nPOINTS {len(points)} double\n",
            _table("%r %r 0.0\n", points),
            f"CELLS {len(cells)} {len(cells) * (cell_size + 1)}\n",
            _table(f"{cell_size}" + " %d" * cell_size + "\n", cells),
            f"CELL_TYPES {len(cells)}\n", f"{vtk_type}\n" * len(cells)]
    if data:
        if cell_data:
            text.append(f"CELL_DATA {len(cells)}\n")
        else:
            text.append(f"POINT_DATA {len(points)}\n")
        for name, vals in data.items():
            text.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            text.append(_table("%r\n", np.asarray(vals, dtype=float)))
    with open(path, "w") as f:
        f.write("".join(text))
