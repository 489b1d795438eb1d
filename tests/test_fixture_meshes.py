"""Every fixture's background mesh and its element kernels against their references.

All six fixtures at target_h 0.35, 0.12 and 0.06, each under every benchmark
offset (an exact rigid translation of the domain).  Each case requires equal
bytes from:
- the feature-size check's outcome and the interior lattice, against their
  forms on scipy's KD-tree (reference.trimesh);
- the triangulation, against the np.unique insert (reference.delaunay);
- the renumbering, smoothing and boundary-face lookup after carving, against
  the dict loops generate_background_mesh ran before (below);
- det_jacobians and the element stiffness of the order-4 mesh, against the
  einsum kernels (reference.trimesh and reference.solver).
"""

import copy

import numpy as np
import pytest

from conftest import OFFSETS, translated
from quadfield import delaunay, solver, trimesh
from quadfield.delaunay import laplacian_smooth
from quadfield.errors import MeshError
from quadfield.trimesh import elevate_and_curve, generate_background_mesh
from reference.delaunay import unique_insert
from reference.solver import einsum_element_stiffness
from reference.trimesh import (einsum_det_jacobians, reference_check_feature_size,
                               reference_interior_lattice)


def local_edges(triangles):
    """{(u, v): (elem, ledge)} for every local edge, directed vertex ledge -> ledge+1."""
    return {(int(u), int(v)): (e, le)
            for e, (a, b, c) in enumerate(triangles)
            for le, (u, v) in enumerate(((a, b), (b, c), (c, a)))}


def reference_renumber(tri, edges):
    """(vertices, triangles, [(elem, ledge)] of each boundary edge) of a carved
    triangulation, as generate_background_mesh found them with dicts.

    edges: the (i, j) boundary edges handed to triangulate_pslg, in order.
    """
    live = tri.table[tri.live]
    used = np.unique(live)
    remap = {old: new for new, old in enumerate(used.tolist())}
    verts = tri.points[used]
    tris = sorted(tuple(remap[v] for v in t) for t in live.tolist())

    # the loops are closed, so every edge end is the start of another edge
    boundary_ids = {remap[e[0] + 3] for e in edges if (e[0] + 3) in remap}
    laplacian_smooth(verts, tris, boundary_ids)

    directed = local_edges(tris)
    faces = []
    for (i, j) in edges:
        key = (remap.get(i + 3), remap.get(j + 3))
        if key not in directed:
            raise MeshError("boundary edge lost during meshing; domain may be "
                            "self-intersecting or target_h too coarse")
        faces.append(directed[key])
    return verts, np.array(tris, dtype=int), faces


def _tables(tri):
    return tri.table.tobytes(), tri.live.tobytes(), tri.points.tobytes()


def _outcome(check, *args):
    """None, or the message of the MeshError that check(*args) raises."""
    try:
        check(*args)
    except MeshError as ex:
        return str(ex)
    return None


def _captured_mesh(monkeypatch, domain, target_h):
    """(mesh, seen) of one generate_background_mesh call; seen holds
    triangulate_pslg's arguments ("args"), its triangulation's tables
    ("tables"), the carved triangulation ("carved"), and the arguments and
    outcome of _check_feature_size ("check") and of _interior_lattice
    ("lattice")."""
    seen = {}
    triangulate, carve = trimesh.triangulate_pslg, trimesh.carve
    check, lattice = trimesh._check_feature_size, trimesh._interior_lattice

    def captured_check(*args):
        seen["check"] = args, _outcome(check, *args)
        check(*args)

    def captured_lattice(*args):
        seen["lattice"] = args, lattice(*args)
        return seen["lattice"][1]

    def captured_triangulate(points, edges):
        tri, super_ids = triangulate(points, edges)
        seen["args"], seen["tables"] = (points, edges), _tables(tri)
        return tri, super_ids

    def captured_carve(tri, *args):
        carve(tri, *args)
        seen["carved"] = copy.deepcopy(tri)

    with monkeypatch.context() as mp:
        mp.setattr(trimesh, "triangulate_pslg", captured_triangulate)
        mp.setattr(trimesh, "carve", captured_carve)
        mp.setattr(trimesh, "_check_feature_size", captured_check)
        mp.setattr(trimesh, "_interior_lattice", captured_lattice)
        mesh = generate_background_mesh(domain, target_h)
    return mesh, seen


@pytest.mark.parametrize("target_h", [0.35, 0.12, 0.06])
@pytest.mark.parametrize("name", ["half_disc", "nautilus", "polygon_III", "geometry_I",
                                  "naca_IV", "holed_nautilus"])
def test_fixture_meshes_match_references(monkeypatch, name, target_h):
    for dx, dy in OFFSETS:
        domain = translated(name, dx, dy)
        mesh, seen = _captured_mesh(monkeypatch, domain, target_h)
        args, tables = seen["args"], seen["tables"]
        check_args, outcome = seen["check"]
        assert outcome == _outcome(reference_check_feature_size, *check_args)
        lattice_args, lattice = seen["lattice"]
        assert lattice.tobytes() == reference_interior_lattice(*lattice_args).tobytes()

        with monkeypatch.context() as mp:
            mp.setattr(delaunay, "bowyer_watson_insert", unique_insert)
            assert _tables(delaunay.triangulate_pslg(*args)[0]) == tables

        verts, tris, faces = reference_renumber(seen["carved"], args[1])
        assert mesh.vertices.tobytes() == verts.tobytes()
        assert mesh.triangles.dtype == tris.dtype and mesh.triangles.tobytes() == tris.tobytes()
        assert [(f.elem, f.ledge) for f in mesh.boundary_faces] == faces

        curved = elevate_and_curve(mesh, 4, domain)
        assert curved.det_jacobians().tobytes() == einsum_det_jacobians(curved).tobytes()
        stiffness = np.concatenate([einsum_element_stiffness(curved, b)
                                    for b in solver._batches(curved.n_elements())])
        assert solver._stiffness_blocks(curved).tobytes() == stiffness.tobytes()
