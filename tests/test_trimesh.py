import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadfield.errors import GeometryError, MeshError
from quadfield.geometry import BoundaryLoop, DomainSpec, Line
from quadfield.reftri import BARYCENTER, RefTriangle, _JacobiTable, in_reference
from quadfield.trimesh import (BoundaryFace, TriMesh, elevate_and_curve,
                               generate_background_mesh)



def test_square_mesh_conforming(unit_square, square_mesh_linear):
    mesh = square_mesh_linear
    assert 4 <= mesh.n_elements() <= 60
    mesh.euler_check()
    # every boundary vertex sits on the square's boundary
    bids = set()
    for f in mesh.boundary_faces:
        bids.add(int(mesh.triangles[f.elem][f.ledge]))
        bids.add(int(mesh.triangles[f.elem][(f.ledge + 1) % 3]))
    for v in bids:
        x, y = mesh.vertices[v]
        assert min(abs(x), abs(1 - x), abs(y), abs(1 - y)) < 1e-12


def test_half_disc_mesh_coarse(half_disc):
    mesh = generate_background_mesh(half_disc, 0.35)
    assert 15 <= mesh.n_elements() <= 60
    for f in mesh.boundary_faces:
        seg = half_disc.loops[f.loop].segments[f.seg]
        for t in (f.t0, f.t1):
            p = seg.point(t)
            v0 = mesh.vertices[mesh.triangles[f.elem][f.ledge]]
            v1 = mesh.vertices[mesh.triangles[f.elem][(f.ledge + 1) % 3]]
            assert min(np.hypot(*(p - v0)), np.hypot(*(p - v1))) < 1e-9


def test_degenerate_domain_rejected():
    flat = [Line((0, 0), (1, 0)), Line((1, 0), (0, 0))]
    with pytest.raises(GeometryError):
        DomainSpec([BoundaryLoop(flat, "outer")])


def test_bad_target_h(unit_square):
    with pytest.raises(MeshError):
        generate_background_mesh(unit_square, -1.0)
    with pytest.raises(MeshError):
        generate_background_mesh(unit_square, 10.0)


def test_affine_elevation_constant_jacobian(unit_square, square_mesh_p3):
    mesh = square_mesh_p3
    for e in range(mesh.n_elements()):
        det = mesh.det_jacobians(e)
        assert np.abs(det - det[0]).max() < 1e-12 * abs(det[0])


def test_half_disc_curved_nodes_on_circle(half_disc, half_disc_mesh):
    mesh = half_disc_mesh
    found_arc_edge = False
    for f in mesh.boundary_faces:
        if half_disc.loops[f.loop].segments[f.seg].kind != "arc":
            continue
        found_arc_edge = True
        ids = mesh.ref.edge_ids[f.ledge]
        nodes = mesh.geom[f.elem][ids]
        radii = np.hypot(nodes[:, 0], nodes[:, 1])
        assert np.abs(radii - 1.0).max() < 1e-10
    assert found_arc_edge


def test_excessively_coarse_curving_fails(half_disc):
    # a sliver triangle whose two short edges must curve out to the full
    # semicircle: the blended map folds over itself
    verts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.05]])
    tris = np.array([[0, 1, 2]])
    faces = [BoundaryFace(0, 0, 0, 0, 0.0, 1.0),
             BoundaryFace(0, 1, 0, 1, 0.0, 0.5),
             BoundaryFace(0, 2, 0, 1, 0.5, 1.0)]
    lin = TriMesh(verts, tris, 1, verts[tris], faces, domain=half_disc)
    with pytest.raises(MeshError, match="Jacobian"):
        elevate_and_curve(lin, 3, half_disc)


def test_map_affine_barycenter():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    faces = [BoundaryFace(0, le, 0, le, 0.0, 1.0) for le in range(3)]
    mesh = TriMesh(verts, tris, 1, verts[tris], faces, domain=None)
    bary = mesh.map_to_physical(0, np.array([-1.0 / 3.0, -1.0 / 3.0]))[0]
    assert np.allclose(bary, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_jacobian_matches_finite_differences(half_disc_mesh):
    mesh = half_disc_mesh
    e = mesh.n_elements() // 2
    xi = np.array([-0.37, -0.21])
    jac = mesh.jacobian(e, xi)[0]
    eps = 1e-6
    for d in range(2):
        shift = np.zeros(2)
        shift[d] = eps
        fd = (mesh.map_to_physical(e, xi + shift)[0]
              - mesh.map_to_physical(e, xi - shift)[0]) / (2 * eps)
        assert np.abs(fd - jac[:, d]).max() < 1e-6 * (1 + np.abs(jac).max())


# ---- one-element reference: the Newton loop that invert_maps runs per lane ----


def _invert_map_scalar(mesh, e, x, max_iter=50, slack=1e-8):
    """Newton inversion of the element map; None on failure."""
    x = np.asarray(x, dtype=float)
    tol = 1e-12 * mesh.bbox_diag
    xi = BARYCENTER.copy()
    for _ in range(max_iter):
        r = mesh.map_to_physical(e, xi)[0] - x
        if np.hypot(*r) < tol:
            break
        j = mesh.jacobian(e, xi)[0]
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        if abs(det) < 1e-300:
            return None
        dxi = np.array([(j[1, 1] * r[0] - j[0, 1] * r[1]) / det,
                        (-j[1, 0] * r[0] + j[0, 0] * r[1]) / det])
        xi = xi - dxi
        if np.abs(xi).max() > 10.0:
            return None
    else:
        return None
    if not in_reference(xi, slack=slack):
        return None
    return xi


def _assert_lanes_match_scalar(mesh, elems, x):
    got = mesh.invert_map(elems, x)
    assert len(got) == len(elems)
    for e, xi in zip(elems, got):
        ref = _invert_map_scalar(mesh, e, x)
        if ref is None:
            assert xi is None, e
        else:
            assert xi is not None, e
            assert xi.tobytes() == ref.tobytes(), e
    return got


def test_invert_map_roundtrip(half_disc_mesh):
    mesh = half_disc_mesh
    rng = np.random.default_rng(7)
    for _ in range(100):
        e = int(rng.integers(0, mesh.n_elements()))
        lam = rng.dirichlet([1, 1, 1])
        xi = np.array([-1.0, -1.0]) * lam[0] + np.array([1.0, -1.0]) * lam[1] \
            + np.array([-1.0, 1.0]) * lam[2]
        x = mesh.map_to_physical(e, xi)[0]
        (xi2,) = mesh.invert_map([e], x)
        assert xi2 is not None
        assert np.abs(xi - xi2).max() < 1e-10


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_invert_map_lanes_match_scalar_loop(half_disc_mesh, data):
    mesh = half_disc_mesh
    n = mesh.n_elements()
    anchor = data.draw(st.integers(0, n - 1))
    # the anchor, maybe its edge neighbors (which share its edges) and random
    # others, curved boundary elements and affine interior ones alike
    near = [anchor] + (mesh.neighbors(anchor) if data.draw(st.booleans()) else [])
    others = data.draw(st.lists(st.integers(0, n - 1), max_size=12, unique=True))
    elems = sorted(set(near + others))[:12]
    if anchor not in elems:
        elems[-1] = anchor
        elems.sort()
    kind = data.draw(st.sampled_from(["inside", "edge", "just_outside", "far"]))
    u = data.draw(st.floats(0.0, 1.0))
    w = data.draw(st.floats(0.0, 1.0))
    if kind == "inside":
        xi = np.array([-1.0 + 2.0 * u * (1.0 - w), -1.0 + 2.0 * w * (1.0 - u)])
    else:
        le = data.draw(st.integers(0, 2))
        xi = mesh.ref.edge_points(le, np.array([2.0 * u - 1.0]))[0]
        if kind == "just_outside":
            xi = xi + 1e-6 * np.array([[0.0, -1.0], [1.0, 1.0], [-1.0, 0.0]][le])
    x = mesh.map_to_physical(anchor, xi)[0]
    if kind == "far":
        angle = 2.0 * math.pi * w
        x = x + (2.0 + 40.0 * u) * np.array([math.cos(angle), math.sin(angle)])
    _assert_lanes_match_scalar(mesh, elems, x)


def test_invert_map_lanes_match_scalar_loop_on_a_shared_edge(half_disc_mesh):
    # eight lanes, curved elements 0-5 and 7 and affine element 6; the point
    # lies on the edge that elements 5 and 6 share.  Multiplying the kernel's
    # Fortran-ordered rows without a contiguous copy changes the last bits
    # of both hits.
    mesh = half_disc_mesh
    curved = {f.elem for f in mesh.boundary_faces}
    assert 6 not in curved and {0, 1, 2, 3, 4, 5, 7} <= curved
    x = mesh.map_to_physical(6, np.array([0.0, -1.0]))[0]
    got = _assert_lanes_match_scalar(mesh, list(range(8)), x)
    assert [e for e, xi in enumerate(got) if xi is not None] == [5, 6]


def test_invert_map_makes_one_kernel_table_per_iteration(half_disc_mesh, monkeypatch):
    mesh = half_disc_mesh
    x = mesh.map_to_physical(3, np.array([-0.2, -0.5]))[0]
    elems = [3, 7, 10, 14, 20]         # lanes stop after 2, 3, 12, 5 and 2 steps
    counts = {"table": 0, "basis_at": 0, "grad_basis_at": 0}

    def counted(name, method):
        def wrapper(self, xi):
            counts[name] += 1
            return method(self, xi)
        return wrapper

    monkeypatch.setattr(_JacobiTable, "__call__", counted("table", _JacobiTable.__call__))
    for name in ("basis_at", "grad_basis_at"):
        monkeypatch.setattr(RefTriangle, name, counted(name, getattr(RefTriangle, name)))
    got = mesh.invert_map(elems, x)
    tables = counts["table"]
    assert got[0] is not None
    assert counts["basis_at"] == counts["grad_basis_at"] == 0
    # the one-element loop maps xi once per iteration; the lockstep loop
    # builds one table per iteration for all lanes, until the last one stops
    iterations = []
    for e in elems:
        counts["basis_at"] = 0
        _invert_map_scalar(mesh, e, x)
        iterations.append(counts["basis_at"])
    assert len(set(iterations)) > 1
    assert tables == max(iterations)
    counts["table"] = 0
    assert mesh.invert_map([], x) == []
    assert counts["table"] == 0


def test_invert_map_outside(half_disc_mesh):
    mesh = half_disc_mesh
    elems = list(range(mesh.n_elements()))
    assert mesh.invert_map(elems, np.array([50.0, 50.0])) == [None] * len(elems)


def test_shared_edge_point_found_by_both(half_disc_mesh):
    mesh = half_disc_mesh
    key = mesh.interior_edges[0]
    (e0, le0), (e1, le1) = sorted(mesh.edge_use[key])
    a, b = sorted(key)
    mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
    xi0, xi1 = mesh.invert_map([e0, e1], mid)
    assert xi0 is not None
    assert xi1 is not None


def test_positive_jacobians_everywhere(half_disc_mesh, square_mesh_p3):
    for mesh in (half_disc_mesh, square_mesh_p3):
        for e in range(mesh.n_elements()):
            assert mesh.det_jacobians(e).min() > 0


def test_area_matches_domain_square(unit_square, square_mesh_p3):
    assert square_mesh_p3.area() == pytest.approx(1.0, rel=1e-12)


def test_area_matches_domain_half_disc(half_disc):
    # high order so the boundary interpolation error sits below the tolerance
    mesh = elevate_and_curve(generate_background_mesh(half_disc, 0.3), 6, half_disc)
    assert mesh.area() == pytest.approx(math.pi / 2, rel=1e-8)


def test_conforming_shared_edge_nodes(half_disc_mesh):
    mesh = half_disc_mesh
    ref = mesh.ref
    for key in mesh.interior_edges:
        (e0, le0), (e1, le1) = sorted(mesh.edge_use[key])
        n0 = mesh.geom[e0][ref.edge_ids[le0]]
        n1 = mesh.geom[e1][ref.edge_ids[le1]]
        assert np.abs(n0 - n1[::-1]).max() < 1e-12
