import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from conftest import neighbors
from quadfield import trimesh
from quadfield.errors import GeometryError, MeshError
from quadfield.geometry import BoundaryLoop, DomainSpec, Line, in_region, load_fixture
from quadfield.reftri import (BARYCENTER, VERTICES, RefTriangle, _JacobiTable,
                              in_reference, ref_triangle)
from quadfield.solver import CGSpace
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


def slit_rectangle(width):
    """The 2 x 1 rectangle less a slit of the given width around x = 1, from
    y = 0.2 up through the top side."""
    a, b = 1.0 - width / 2, 1.0 + width / 2
    corners = [(0, 0), (2, 0), (2, 1), (b, 1), (b, 0.2), (a, 0.2), (a, 1), (0, 1)]
    return DomainSpec([BoundaryLoop([Line(p, q) for p, q in
                                     zip(corners, corners[1:] + corners[:1])], "outer")])


@pytest.mark.parametrize("width, refused", [(0.01, (0.35, 0.12, 0.05)), (0.05, (0.35,)),
                                            (0.2, ())])
def test_thin_slit_refused_at_coarse_spacings(width, refused):
    domain = slit_rectangle(width)
    for h in (0.35, 0.12, 0.05):
        if h in refused:
            with pytest.raises(MeshError, match=re.escape(
                    "boundary features thinner than the sampling resolves; "
                    f"retry with target_h <= {h / 2:.4g}")):
                generate_background_mesh(domain, h)
        else:
            assert generate_background_mesh(domain, h).n_elements()


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
    got, _ = mesh.invert_map(elems, x)
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
        (xi2,), _ = mesh.invert_map([e], x)
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
    near = [anchor] + (neighbors(mesh, anchor) if data.draw(st.booleans()) else [])
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


def _unfiltered(mesh, elems, x):
    """The lockstep solve of every lane, without the reach test."""
    return mesh.ref.invert_maps(mesh.geom[elems], x, 1e-12 * mesh.bbox_diag, 50, 1e-8)[0]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reach_test_drops_only_lanes_that_miss(half_disc, half_disc_mesh, data):
    mesh = half_disc_mesh
    n = mesh.n_elements()
    curved = sorted({f.elem for f in mesh.boundary_faces
                     if half_disc.loops[f.loop].segments[f.seg].kind == "arc"})
    anchor = data.draw(st.sampled_from(curved) | st.integers(0, n - 1))
    elems = sorted({anchor, *neighbors(mesh, anchor),
                    *data.draw(st.lists(st.integers(0, n - 1), max_size=8))})
    kind = data.draw(st.sampled_from(["inside", "edge", "skin", "far"]))
    u = data.draw(st.floats(0.0, 1.0))
    w = data.draw(st.floats(0.0, 1.0))
    if kind == "inside":
        x = mesh.map_to_physical(anchor, [-1.0 + 2.0 * u * (1.0 - w),
                                          -1.0 + 2.0 * w * (1.0 - u)])[0]
    elif kind == "far":
        angle = 2.0 * math.pi * w
        x = mesh.vertices.mean(axis=0) + (1.0 + 40.0 * u) * mesh.bbox_diag * \
            np.array([math.cos(angle), math.sin(angle)])
    else:
        # on an edge of the anchor, or within 1e-9 of it on either side
        le = data.draw(st.integers(0, 2))
        xi = mesh.ref.edge_points(le, np.array([2.0 * u - 1.0]))
        x = mesh.map_to_physical(anchor, xi)[0]
        if kind == "skin":
            along = mesh.jacobian(anchor, xi)[0] @ (VERTICES[(le + 1) % 3] - VERTICES[le])
            outward = np.array([along[1], -along[0]]) / np.hypot(*along)
            x = x + data.draw(st.sampled_from([-1e-9, 1e-9])) * outward
    reach = mesh.reachable(x)[0, elems]
    ref = _unfiltered(mesh, elems, x)
    assert all(xi is None for xi, ok in zip(ref, reach) if not ok)
    # the lanes the mask keeps, solved alone, give the unfiltered bytes
    keep = [e for e, ok in zip(elems, reach) if ok]
    got = dict(zip(keep, mesh.invert_map(keep, x)[0]))
    assert [None if got.get(e) is None else got[e].tobytes() for e in elems] == \
        [None if xi is None else xi.tobytes() for xi in ref]


def test_reach_test_drops_lanes_of_affine_and_curved_elements(half_disc_mesh):
    mesh = half_disc_mesh
    reach = mesh._reach[2]
    boundary = {f.elem for f in mesh.boundary_faces}
    affine = [e for e in range(mesh.n_elements()) if e not in boundary]
    # interior elements are affine and reach only 1e-6 of their size past
    # their triangle; curved ones reach 1.25 Lebesgue constants (2.11 at
    # P = 3) times their largest node displacement
    assert mesh.ref.lebesgue == pytest.approx(2.112, abs=1e-3)
    assert reach[affine].max() < 1e-6 * mesh.bbox_diag
    assert reach[sorted(boundary)].max() > 1e-3
    x = mesh.map_to_physical(affine[0], BARYCENTER)[0]
    ok, far, nan = mesh.reachable([x, [50.0, 50.0], [np.nan, 0.0]])
    assert ok[affine[0]] and not ok.all()
    assert not far.any()
    assert nan.all()
    # one row per point, each the mask of that point alone
    assert np.array_equal(mesh.reachable(x), ok[None])
    assert mesh.reachable(np.empty((0, 2))).shape == (0, mesh.n_elements())


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


def _count_kernel_calls(monkeypatch):
    counts = {"table": 0, "basis_at": 0, "grad_basis_at": 0}

    def counted(name, method):
        def wrapper(self, xi):
            counts[name] += 1
            return method(self, xi)
        return wrapper

    monkeypatch.setattr(_JacobiTable, "__call__", counted("table", _JacobiTable.__call__))
    for name in ("basis_at", "grad_basis_at"):
        monkeypatch.setattr(RefTriangle, name, counted(name, getattr(RefTriangle, name)))
    return counts


def _lane_start(ref, nodes):
    """Newton's first step as the lockstep loop took it for its own lanes
    before the start was cached per mesh: (x0, flat Jacobian, det)."""
    basis, grad = [a.repeat(len(nodes), axis=0) for a in ref._barycenter_rows]
    x0 = (basis[:, None, :] @ nodes)[:, 0]
    j = np.einsum("knd,knx->kxd", grad, nodes).reshape(-1, 4)
    return x0, j, j[:, 0] * j[:, 3] - j[:, 1] * j[:, 2]


@pytest.mark.parametrize("fixture, h, order", [
    ("half_disc", 0.35, 3), ("nautilus", 0.5, 3), ("polygon_III", 0.12, 4)])
def test_cached_first_step_matches_every_batch_bitwise(fixture, h, order):
    """The per-mesh first Newton step of every element equals, byte for byte,
    the one computed on one lane, on a few lanes in any order (repeats
    included), and on all lanes at once."""
    domain = load_fixture(fixture)
    mesh = elevate_and_curve(generate_background_mesh(domain, h), order, domain)
    ne = mesh.n_elements()
    cached = mesh._first_step
    assert [a.shape for a in cached] == [(ne, 2), (ne, 4), (ne,)]
    rng = np.random.default_rng(3)
    batches = [[e] for e in range(ne)] + [list(range(ne))] + \
        [rng.integers(0, ne, size=k).tolist() for k in (2, 3, 5, 8, 13, 40) for _ in range(4)]
    for elems in batches:
        for got, want in zip(_lane_start(mesh.ref, mesh.geom[elems]), cached):
            assert got.tobytes() == want[elems].tobytes(), elems


def test_invert_map_makes_one_kernel_table_per_iteration(half_disc_mesh, monkeypatch):
    mesh = half_disc_mesh
    x = mesh.map_to_physical(3, np.array([-0.2, -0.5]))[0]
    elems = [3, 7, 10, 14, 20]         # lanes stop after 2, 3, 12, 5 and 2 steps
    mesh.ref._barycenter_rows          # built once per reference element
    counts = _count_kernel_calls(monkeypatch)
    got, _ = mesh.invert_map(elems, x)
    tables = counts["table"]
    assert got[0] is not None
    assert counts["basis_at"] == counts["grad_basis_at"] == 0
    # the one-element loop maps xi once per iteration; the lockstep loop
    # starts from the barycenter's rows and builds one table per later
    # iteration for all lanes, until the last one stops
    iterations = []
    for e in elems:
        counts["basis_at"] = 0
        _invert_map_scalar(mesh, e, x)
        iterations.append(counts["basis_at"])
    assert len(set(iterations)) > 1
    assert tables == max(iterations) - 1
    counts["table"] = 0
    assert mesh.invert_map([], x) == ([], [])
    assert counts["table"] == 0


def test_shared_edge_point_found_by_both(half_disc_mesh):
    mesh = half_disc_mesh
    key = mesh.interior_edges[0]
    e0, le0, e1, le1 = mesh.face_pairs[0]
    a, b = mesh.edges[key]
    mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
    (xi0, xi1), _ = mesh.invert_map([e0, e1], mid)
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
    for e0, le0, e1, le1 in mesh.face_pairs:
        n0 = mesh.geom[e0][ref.edge_ids[le0]]
        n1 = mesh.geom[e1][ref.edge_ids[le1]]
        assert np.abs(n0 - n1[::-1]).max() < 1e-12


# ---- reference: the per-edge dictionaries the edge table replaced ---------------


def _reference_edge_use(triangles, boundary_faces):
    """Frozenset-keyed edge uses and sorted interior edges, with the mesh checks."""
    edge_use = {}
    for e, (a, b, c) in enumerate(triangles):
        for le, (u, v) in enumerate(((a, b), (b, c), (c, a))):
            edge_use.setdefault(frozenset((int(u), int(v))), []).append((e, le))
    interior_edges = sorted(
        (key for key, use in edge_use.items() if len(use) == 2),
        key=lambda k: sorted(k))
    boundary_keys = {frozenset((triangles[f.elem][f.ledge],
                                triangles[f.elem][(f.ledge + 1) % 3]))
                     for f in boundary_faces}
    for key, use in edge_use.items():
        if len(use) == 1 and key not in boundary_keys:
            raise MeshError(f"non-conforming mesh: bare edge {sorted(key)}")
        if len(use) > 2:
            raise MeshError(f"non-manifold edge {sorted(key)}")
    return edge_use, interior_edges


def _reference_face_pairs(edge_use, interior_edges):
    out = []
    for key in interior_edges:
        (e0, le0), (e1, le1) = sorted(edge_use[key])
        out.append((e0, le0, e1, le1))
    return out


def _reference_neighbors(mesh, edge_use):
    """TriMesh.neighbors as it was, over the reference edge uses."""
    return [[e2 for u, v in zip(t, t[1:] + t[:1]) for (e2, _) in edge_use[frozenset((u, v))]
             if e2 != e] for e, t in enumerate(mesh.triangles.tolist())]


def _reference_local_to_global(mesh, edge_use):
    ref = mesh.ref
    p = mesh.order
    nv = len(mesh.vertices)
    edge_index = {key: i for i, key in enumerate(
        sorted(edge_use, key=lambda k: sorted(k)))}
    n_edge = len(edge_index)
    per_edge = max(p - 1, 0)
    n_int = len(ref.interior_ids)
    local_to_global = np.zeros((mesh.n_elements(), ref.n_nodes), dtype=int)
    for e in range(mesh.n_elements()):
        tri = [int(v) for v in mesh.triangles[e]]
        l2g = np.empty(ref.n_nodes, dtype=int)
        for k in range(3):
            l2g[ref.vertex_ids[k]] = tri[k]
        for le in range(3):
            va, vb = tri[le], tri[(le + 1) % 3]
            gid = edge_index[frozenset((va, vb))]
            dofs = nv + gid * per_edge + np.arange(per_edge)
            ids = ref.edge_ids[le][1:-1]
            l2g[ids] = dofs if va < vb else dofs[::-1]
        base = nv + n_edge * per_edge + e * n_int
        l2g[ref.interior_ids] = base + np.arange(n_int)
        local_to_global[e] = l2g
    return local_to_global


def _reference_edge_curve(seg, t0, t1, direction):
    def curve(mu):
        mu = direction * np.atleast_1d(np.asarray(mu, dtype=float))
        t = t0 + 0.5 * (mu + 1.0) * (t1 - t0)
        return np.array([seg.point(tv) for tv in t])
    return curve


def _reference_geom(mesh, order, domain, edge_use):
    """Geometry nodes of elevate_and_curve placed through the edge dictionaries."""
    ref = ref_triangle(order)
    nb = ref.n_nodes
    params = ref.edge_node_params
    inner = params[1:-1]

    bface_by_edge = {}
    for f in mesh.boundary_faces:
        a = int(mesh.triangles[f.elem][f.ledge])
        b = int(mesh.triangles[f.elem][(f.ledge + 1) % 3])
        bface_by_edge[(a, b)] = f

    edge_nodes = {}
    edge_curves = {}
    for key in edge_use:
        a, b = sorted(key)
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        face = bface_by_edge.get((a, b)) or bface_by_edge.get((b, a))
        if face is None:
            lam = 0.5 * (inner + 1.0)
            edge_nodes[(a, b)] = pa[None, :] + lam[:, None] * (pb - pa)[None, :]
        else:
            seg = domain.loops[face.loop].segments[face.seg]
            v0 = int(mesh.triangles[face.elem][face.ledge])
            curve = _reference_edge_curve(seg, face.t0, face.t1, 1.0 if v0 == a else -1.0)
            edge_nodes[(a, b)] = curve(inner).reshape(-1, 2)
            edge_curves[(a, b)] = curve

    geom = np.zeros((mesh.n_elements(), nb, 2))
    bary = ref.barycentric(ref.nodes)
    for e in range(mesh.n_elements()):
        tri = [int(v) for v in mesh.triangles[e]]
        pverts = mesh.vertices[tri]
        g = bary @ pverts
        for le in range(3):
            va, vb = tri[le], tri[(le + 1) % 3]
            a, b = (va, vb) if va < vb else (vb, va)
            nodes = edge_nodes[(a, b)]
            ids = ref.edge_ids[le][1:-1]
            g[ids] = nodes if va == a else nodes[::-1]
        for le in range(3):
            va, vb = tri[le], tri[(le + 1) % 3]
            a, b = (va, vb) if va < vb else (vb, va)
            curve = edge_curves.get((a, b))
            if curve is None:
                continue
            la = bary[:, le]
            lb = bary[:, (le + 1) % 3]
            denom = la + lb
            mask = (denom > 1e-12) & (bary[:, (le + 2) % 3] > 1e-12)
            mu = np.zeros(nb)
            mu[mask] = (lb[mask] - la[mask]) / denom[mask]
            straight = 0.5 * (1.0 - mu)[:, None] * pverts[le] + \
                0.5 * (1.0 + mu)[:, None] * pverts[(le + 1) % 3]
            if va < vb:
                delta = curve(mu) - straight
            else:
                delta = curve(-mu) - straight
            g[mask] += denom[mask, None] * delta[mask]
        geom[e] = g
    return geom


def _assert_edge_table_matches_reference(linear, mesh, domain):
    edge_use, interior_edges = _reference_edge_use(mesh.triangles, mesh.boundary_faces)
    keys = sorted(edge_use, key=lambda k: sorted(k))
    assert mesh.edges.tolist() == [sorted(k) for k in keys]
    assert [keys[i] for i in mesh.interior_edges] == interior_edges
    assert [neighbors(mesh, e) for e in range(mesh.n_elements())] == \
        _reference_neighbors(mesh, edge_use)
    assert mesh.face_pairs.dtype == np.intp and mesh.face_pairs.shape == (len(interior_edges), 4)
    assert mesh.face_pairs.tolist() == [list(p) for p in
                                        _reference_face_pairs(edge_use, interior_edges)]
    assert CGSpace(mesh).local_to_global.tobytes() == \
        _reference_local_to_global(mesh, edge_use).tobytes()
    if mesh is not linear:
        assert mesh.geom.tobytes() == \
            _reference_geom(linear, mesh.order, domain, edge_use).tobytes()


@functools.lru_cache(maxsize=None)
def _fixture_linear_mesh(name):
    domain = load_fixture(name)
    return domain, generate_background_mesh(domain, 0.35)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("name", ["half_disc", "nautilus", "polygon_III", "geometry_I",
                                  "naca_IV", "holed_nautilus"])
def test_edge_table_matches_reference_dictionaries(name, order):
    domain, linear = _fixture_linear_mesh(name)
    try:
        mesh = elevate_and_curve(linear, order, domain)
    except MeshError:
        # order 1 cannot curve arcs, splines or airfoils: check the linear mesh
        assert order == 1
        mesh = linear
    _assert_edge_table_matches_reference(linear, mesh, domain)


def test_edge_table_matches_reference_dictionaries_square_p3(
        unit_square, square_mesh_linear, square_mesh_p3):
    _assert_edge_table_matches_reference(square_mesh_linear, square_mesh_p3, unit_square)


# ---- the interior lattice against the per-point loop it replaced --------------------


def _point_in_polygon(x, poly):
    """Crossing-number test of one point, as it stood before the batched test."""
    px, py = float(x[0]), float(x[1])
    xs, ys = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(xs, -1), np.roll(ys, -1)
    e = np.flatnonzero((ys > py) != (yn > py))      # edges that straddle py
    xint = xs[e] + (py - ys[e]) / (yn[e] - ys[e]) * (xn[e] - xs[e])
    return bool(np.sum(px < xint) % 2)


def _in_region(x, outer, holes):
    if not _point_in_polygon(x, outer):
        return False
    return all(not _point_in_polygon(x, h) for h in holes)


def per_point_lattice(domain, boundary_pts, target_h, loop_polys):
    lo, hi = domain.bbox
    tree = cKDTree(boundary_pts)
    dy = target_h * math.sqrt(3.0) / 2.0
    rows = int(math.floor((hi[1] - lo[1]) / dy))
    out = []
    for r in range(1, rows + 1):
        y = lo[1] + r * dy
        x0 = lo[0] + (target_h / 2.0 if r % 2 else target_h)
        cols = int(math.floor((hi[0] - x0) / target_h)) + 1
        for cidx in range(cols):
            x = x0 + cidx * target_h
            p = np.array([x, y])
            if not _in_region(p, loop_polys[0], loop_polys[1:]):
                continue
            if tree.query(p)[0] <= 0.7 * target_h:
                continue
            out.append(p)
    return np.array(out) if out else np.empty((0, 2))


@pytest.mark.parametrize("name", ["half_disc", "nautilus", "polygon_III", "geometry_I",
                                  "naca_IV", "holed_nautilus"])
def test_interior_lattice_matches_per_point_loop(name, monkeypatch):
    """Same points in the same row-major order at the fine and coarse spacings,
    with the crossing-number test split into passes of a few points."""
    domain = load_fixture(name)
    seen = []

    def both(domain, boundary_pts, target_h, loop_polys):
        new = lattice(domain, boundary_pts, target_h, loop_polys)
        seen.append((new.tobytes(), per_point_lattice(domain, boundary_pts, target_h,
                                                      loop_polys).tobytes()))
        return new

    lattice = trimesh._interior_lattice
    monkeypatch.setattr(trimesh, "_interior_lattice", both)
    for h in (0.12, 0.35):
        generate_background_mesh(domain, h)
    monkeypatch.setattr("quadfield.geometry.PIP_PAIRS", 1000)
    generate_background_mesh(domain, 0.12)
    assert len(seen) == 3 and all(new == ref for new, ref in seen)
    assert all(len(new) for new, _ in seen)


# ---- the mesh stage's proximity queries against scipy's KD-tree ---------------------


def reference_check_feature_size(points, edges, target_h):
    """_check_feature_size as it stood, on cKDTree.query_pairs."""
    tree = cKDTree(points)
    adjacency = {}
    local_h = {}
    for (i, j, *_rest) in edges:
        adjacency.setdefault(i, set()).add(j)
        adjacency.setdefault(j, set()).add(i)
        d = float(np.hypot(*(points[i] - points[j])))
        local_h[i] = min(local_h.get(i, math.inf), d)
        local_h[j] = min(local_h.get(j, math.inf), d)
    pairs = tree.query_pairs(0.35 * target_h)
    for (i, j) in sorted(pairs):
        if j in adjacency.get(i, ()):
            continue
        d = float(np.hypot(*(points[i] - points[j])))
        if d < 0.2 * min(local_h[i], local_h[j]):
            raise MeshError(
                "boundary features thinner than the sampling resolves; "
                f"retry with target_h <= {target_h / 2:.4g}")


def reference_interior_lattice(domain, boundary_pts, target_h, loop_polys):
    """_interior_lattice as it stood, its distance filter on cKDTree.query."""
    lo, hi = domain.bbox
    dy = target_h * math.sqrt(3.0) / 2.0
    rows = []
    for r in range(1, int(math.floor((hi[1] - lo[1]) / dy)) + 1):
        x0 = lo[0] + (target_h / 2.0 if r % 2 else target_h)
        cols = int(math.floor((hi[0] - x0) / target_h)) + 1
        rows.append(np.stack([x0 + np.arange(cols) * target_h,
                              np.full(cols, lo[1] + r * dy)], axis=1))
    pts = np.concatenate(rows) if rows else np.empty((0, 2))
    pts = pts[in_region(pts, loop_polys[0], loop_polys[1:])]
    return pts[~(cKDTree(boundary_pts).query(pts)[0] <= 0.7 * target_h)]


def _one_row_strip(h, ox, oy, cols):
    """(domain, loop polygons) of a strip cols * h long, moved by (ox, oy), whose
    lattice is one row of cols points."""
    top = oy + 0.75 * math.sqrt(3.0) * h
    corners = [(ox, oy), (ox + cols * h, oy), (ox + cols * h, top), (ox, top)]
    loop = BoundaryLoop([Line(p, q) for p, q in zip(corners, corners[1:] + corners[:1])],
                        "outer")
    return DomainSpec([loop]), [np.array(corners)]


def _nudged(v, steps):
    """The floats steps ulps from each of v (an array), up or down by sign."""
    for k in range(int(np.abs(steps).max())):
        move = np.abs(steps) > k
        v = np.where(move, np.nextafter(v, np.copysign(np.inf, steps)), v)
    return v


def _threshold_sample(p, r, unit, rng):
    """(point, split): a point a few ulps off distance r from p, along the unit
    axis vector or, with unit None, at up to 0.6 rad from the y axis.  Off the
    axes it is, where some candidate is one (split), a point that np.hypot and
    the sqrt distance of cKDTree put on opposite sides of r."""
    steps = np.stack(np.meshgrid(np.arange(-3, 4), np.arange(-3, 4)), axis=-1).reshape(-1, 2)
    if unit is not None:
        steps[:, unit == 0] = 0                     # stay exactly on the axis
    else:
        angle = rng.uniform(-0.6, 0.6, size=(8, 1))
        unit = np.concatenate([np.sin(angle), rng.choice([-1.0, 1.0]) * np.cos(angle)], axis=1)
    cand = _nudged(np.reshape(p + r * unit, (-1, 1, 2)), steps).reshape(-1, 2)
    dx, dy = (p - cand).T
    split = (np.sqrt(dx * dx + dy * dy) <= r) != (np.hypot(dx, dy) <= r)
    pool = np.flatnonzero(split) if split.any() else np.arange(len(cand))
    return cand[rng.choice(pool)], bool(split.any())


@pytest.mark.parametrize("h, ox, oy", [(0.1, 0.0, 0.0), (0.013, -0.2, 0.0),
                                       (0.07, 10.3, -7.1), (0.45, -3.7, 250.9)])
def test_lattice_filter_keeps_the_kd_tree_decision_within_ulps_of_the_bound(h, ox, oy):
    """One boundary sample a few ulps from 0.7 h off each lattice point of a
    one-row strip: the grid's candidates with the sqrt distance drop the
    same points as cKDTree.query, on an axis (where only the box pad can lose
    a pair) and off it (where np.hypot would round the other way)."""
    cols = 120
    domain, loop_polys = _one_row_strip(h, ox, oy, cols)
    row = trimesh._interior_lattice(domain, loop_polys[0][[0]] - 1.0, h, loop_polys)
    assert len(row) == cols
    rng = np.random.default_rng(31)
    samples, splits = [], 0
    for k, p in enumerate(row):
        if k in (0, cols - 1):                      # along the row, out of its ends
            unit = np.array([1.0 if k else -1.0, 0.0])
        else:
            unit = (np.array([0.0, rng.choice([-1.0, 1.0])]), None)[k % 2]
        b, split = _threshold_sample(p, 0.7 * h, unit, rng)
        samples.append(b)
        splits += split
    samples = np.array(samples)
    got = trimesh._interior_lattice(domain, samples, h, loop_polys)
    want = reference_interior_lattice(domain, samples, h, loop_polys)
    assert got.tobytes() == want.tobytes()
    assert 0 < len(want) < cols and splits


def test_inverted_elements_match_per_element_loop(half_disc_mesh):
    mesh = half_disc_mesh
    geom = mesh.geom.copy()
    geom[[2, 5]] = geom[[2, 5]][:, ::-1]            # reversed node order: negative Jacobian
    bent = TriMesh(mesh.vertices, mesh.triangles, mesh.order, geom, mesh.boundary_faces)
    for m, bad in ((mesh, []), (bent, [2, 5])):
        assert m.inverted_elements() == bad == \
            [e for e in range(m.n_elements()) if m.det_jacobians(e).min() <= 0.0]
        assert m.det_jacobians().tobytes() == \
            np.array([m.det_jacobians(e) for e in range(m.n_elements())]).tobytes()
    with pytest.raises(MeshError, match=r"negative Jacobian in elements \[2, 5\]"):
        bent.validate_jacobians()
