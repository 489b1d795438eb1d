"""Coarse curved triangular background meshes.

The mesh starts linear (boundary-sampled constrained Delaunay), is then
elevated to order P and curved by moving boundary edge nodes onto their
source curves; interior geometry nodes follow by transfinite blending from
the edges.  Every element exposes its polynomial reference-to-physical map,
its exact Jacobian, and Newton inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .delaunay import carve, laplacian_smooth, triangulate_pslg
from .errors import MeshError
from .geometry import in_region
from .reftri import ref_triangle


@dataclass
class BoundaryFace:
    """One element edge lying on the domain boundary (interior on its left)."""

    elem: int
    ledge: int               # local edge 0,1,2 with vertices (ledge, ledge+1)
    loop: int
    seg: int
    t0: float
    t1: float


class TriMesh:
    """Order-P triangle mesh with per-element geometry nodes."""

    def __init__(self, vertices, triangles, order, geom, boundary_faces, domain=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        self.order = order
        self.ref = ref_triangle(order)
        self.geom = np.asarray(geom, dtype=float)
        self.boundary_faces = list(boundary_faces)
        self.domain = domain
        self._build_edges()
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        self.bbox_diag = float(np.hypot(*(hi - lo)))

    # ---- connectivity ------------------------------------------------------

    def _build_edges(self):
        edge_use = {}
        for e, (a, b, c) in enumerate(self.triangles):
            for le, (u, v) in enumerate(((a, b), (b, c), (c, a))):
                edge_use.setdefault(frozenset((int(u), int(v))), []).append((e, le))
        self.edge_use = edge_use
        self.interior_edges = sorted(
            (key for key, use in edge_use.items() if len(use) == 2),
            key=lambda k: sorted(k))
        boundary_keys = {frozenset((self.triangles[f.elem][f.ledge],
                                    self.triangles[f.elem][(f.ledge + 1) % 3]))
                         for f in self.boundary_faces}
        for key, use in edge_use.items():
            if len(use) == 1 and key not in boundary_keys:
                raise MeshError(f"non-conforming mesh: bare edge {sorted(key)}")
            if len(use) > 2:
                raise MeshError(f"non-manifold edge {sorted(key)}")

    def n_elements(self):
        return len(self.triangles)

    def neighbors(self, e):
        """Element ids sharing an edge with element e."""
        out = []
        a, b, c = self.triangles[e]
        for u, v in ((a, b), (b, c), (c, a)):
            for (e2, _) in self.edge_use[frozenset((int(u), int(v)))]:
                if e2 != e:
                    out.append(e2)
        return out

    # ---- geometry ----------------------------------------------------------

    def map_to_physical(self, e, xi):
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        return self.ref.basis_at(xi) @ self.geom[e]

    def jacobian(self, e, xi):
        """2x2 Jacobians d(x)/d(xi): shape (npts, 2, 2)."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        g = self.ref.grad_basis_at(xi)            # (npts, nb, 2)
        return np.einsum("pnd,nx->pxd", g, self.geom[e])

    def det_jacobians(self, e):
        jac = np.einsum("pnd,nx->pxd", self.ref.grad_q, self.geom[e])
        return jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]

    def element_area(self, e):
        return float(self.ref.quad_weights @ self.det_jacobians(e))

    def area(self):
        return sum(self.element_area(e) for e in range(self.n_elements()))

    def element_bbox(self, e):
        g = self.geom[e]
        return g.min(axis=0), g.max(axis=0)

    def circumradius(self, e):
        a, b, c = (self.vertices[int(v)] for v in self.triangles[e])
        la = np.hypot(*(b - c))
        lb = np.hypot(*(c - a))
        lc = np.hypot(*(a - b))
        area = 0.5 * abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
        if area < 1e-300:
            return 0.0
        return la * lb * lc / (4.0 * area)

    def shortest_edge(self):
        best = math.inf
        for key in self.edge_use:
            a, b = sorted(key)
            best = min(best, float(np.hypot(*(self.vertices[a] - self.vertices[b]))))
        return best

    def invert_map(self, elems, x):
        """Newton inversion of the map of every element in elems at x, in lockstep.

        Returns one result per element: xi, or None on failure
        (RefTriangle.invert_maps with tol 1e-12 * bbox_diag, 50 steps and
        slack 1e-8).
        """
        return self.ref.invert_maps(self.geom[np.asarray(elems, dtype=int)],
                                    np.asarray(x, dtype=float),
                                    1e-12 * self.bbox_diag, 50, 1e-8)

    def validate_jacobians(self):
        bad = [e for e in range(self.n_elements()) if self.det_jacobians(e).min() <= 0.0]
        if bad:
            raise MeshError(f"negative Jacobian in elements {bad}")

    def euler_check(self):
        """chi = V - E + F must equal 1 - (number of holes)."""
        v = len(self.vertices)
        ed = len(self.edge_use)
        f = self.n_elements()
        holes = len(self.domain.holes) if self.domain is not None else 0
        if v - ed + f != 1 - holes:
            raise MeshError(
                f"Euler check failed: V-E+F = {v - ed + f}, expected {1 - holes}")

    # ---- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "order": self.order,
            "vertices": self.vertices.tolist(),
            "triangles": self.triangles.tolist(),
            "geom": self.geom.tolist(),
            "boundary_faces": [[f.elem, f.ledge, f.loop, f.seg, f.t0, f.t1]
                               for f in self.boundary_faces],
        }

    @classmethod
    def from_json(cls, doc, domain=None):
        faces = [BoundaryFace(int(e), int(le), int(lp), int(sg), float(t0), float(t1))
                 for (e, le, lp, sg, t0, t1) in doc["boundary_faces"]]
        return cls(np.array(doc["vertices"]), np.array(doc["triangles"], dtype=int),
                   int(doc["order"]), np.array(doc["geom"]), faces, domain=domain)


# ---- background mesh generation ---------------------------------------------

_KIND_MIN_INTERVALS = {"line": 1, "arc": 2, "spline": 8, "naca4": 32}


def _sample_segment_count(seg, target_h):
    n = max(1, int(round(seg.arclength() / target_h)))
    n = max(n, _KIND_MIN_INTERVALS.get(seg.kind, 4))
    if seg.kind == "arc":
        n = max(n, int(math.ceil(abs(seg.a1 - seg.a0) / 0.5)))
    return n


def _sample_segment_params(seg, target_h):
    """Boundary sample parameters (t values, first = 0, last < 1)."""
    n = _sample_segment_count(seg, target_h)
    svals = np.linspace(0.0, seg.arclength(), n, endpoint=False)
    tvals = np.asarray(seg.t_at_arclength(svals), dtype=float)
    tvals[0] = 0.0
    if seg.kind == "naca4":
        # cluster around the leading edge (t = 0.5), where the curvature
        # radius is two orders below the chord
        half = np.array([0.003, 0.006, 0.01, 0.016, 0.024, 0.035, 0.05,
                         0.07, 0.1, 0.14])
        cluster = 0.5 + np.concatenate([-half[::-1], [0.0], half])
        tvals = np.unique(np.concatenate([tvals, cluster]))
        keep = [tvals[0]]
        for t in tvals[1:]:
            if t - keep[-1] > 1e-5:
                keep.append(t)
        tvals = np.asarray(keep)
    return tvals


def generate_background_mesh(domain, target_h):
    """Conforming linear triangulation of the domain at spacing ~target_h."""
    if target_h <= 0:
        raise MeshError("target_h must be positive")
    if target_h >= domain.bbox_diag():
        raise MeshError("target_h must be smaller than the domain bounding box")
    if abs(domain.area()) < 1e-12 * domain.bbox_diag() ** 2:
        raise MeshError("degenerate domain: zero area")

    points = []
    edges = []             # (i, j, loop, seg, t0, t1) directed along the loop
    loop_polys = []
    for li, loop in enumerate(domain.loops):
        start = len(points)
        for si, seg in enumerate(loop.segments):
            tvals = _sample_segment_params(seg, target_h)
            n = len(tvals)
            pts = seg.points(tvals)
            base = len(points)
            points.extend(pts)
            for k in range(n):
                t_hi = float(tvals[k + 1]) if k + 1 < n else 1.0
                edges.append([base + k, base + k + 1, li, si, float(tvals[k]), t_hi])
        edges[-1][1] = start           # close the loop
        loop_polys.append(np.array(points[start:]))

    points = np.array(points)
    _check_feature_size(points, edges, target_h)

    interior = _interior_lattice(domain, points, target_h, loop_polys)
    all_pts = np.vstack([points, interior]) if len(interior) else points

    tri, super_ids = triangulate_pslg(all_pts, [(e[0], e[1]) for e in edges])
    constrained = {frozenset((e[0] + 3, e[1] + 3)) for e in edges}

    carve(tri, super_ids, constrained,
          lambda pt: in_region(pt, loop_polys[0], loop_polys[1:]))

    live = tri.live_triangles()
    if not live:
        raise MeshError("meshing produced no interior triangles")
    used = sorted({v for _, t in live for v in t})
    remap = {old: new for new, old in enumerate(used)}
    verts = tri.points[used]
    tris = [tuple(remap[v] for v in t) for _, t in live]
    tris.sort()

    boundary_ids = {remap[e[0] + 3] for e in edges if (e[0] + 3) in remap} | \
                   {remap[e[1] + 3] for e in edges if (e[1] + 3) in remap}
    laplacian_smooth(verts, tris, boundary_ids)

    # directed-edge -> (elem, ledge) lookup for boundary faces
    directed = {}
    for ei, (a, b, c) in enumerate(tris):
        for le, (u, v) in enumerate(((a, b), (b, c), (c, a))):
            directed[(u, v)] = (ei, le)
    faces = []
    for (i, j, li, si, t0, t1) in edges:
        key = (remap.get(i + 3), remap.get(j + 3))
        if key not in directed:
            raise MeshError("boundary edge lost during meshing; domain may be "
                            "self-intersecting or target_h too coarse")
        ei, le = directed[key]
        faces.append(BoundaryFace(ei, le, li, si, t0, t1))

    tris_arr = np.array(tris, dtype=int)
    geom = verts[tris_arr]                       # (ne, 3, 2) order-1 geometry
    mesh = TriMesh(verts, tris_arr, 1, geom, faces, domain=domain)
    mesh.validate_jacobians()
    mesh.euler_check()
    return mesh


def _check_feature_size(points, edges, target_h):
    """Reject gaps thinner than the local boundary sampling can resolve."""
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


def _interior_lattice(domain, boundary_pts, target_h, loop_polys):
    lo, hi = domain.bbox()
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
            if not in_region(p, loop_polys[0], loop_polys[1:]):
                continue
            if tree.query(p)[0] <= 0.7 * target_h:
                continue
            out.append(p)
    return np.array(out) if out else np.empty((0, 2))


# ---- elevation and curving ---------------------------------------------------


def elevate_and_curve(mesh, order, domain):
    """Raise a linear mesh to order P, curving boundary edges onto the geometry."""
    if mesh.order != 1:
        raise MeshError("elevate_and_curve expects a linear mesh")
    curved_kinds = {seg.kind for loop in domain.loops for seg in loop.segments}
    if order < 2 and curved_kinds - {"line"}:
        raise MeshError("order >= 2 required to curve non-line boundaries")

    ref = ref_triangle(order)
    nb = ref.n_nodes
    params = ref.edge_node_params            # P+1 Gauss-Lobatto values in [-1,1]
    inner = params[1:-1]

    bface_by_edge = {}
    for f in mesh.boundary_faces:
        a = int(mesh.triangles[f.elem][f.ledge])
        b = int(mesh.triangles[f.elem][(f.ledge + 1) % 3])
        bface_by_edge[(a, b)] = f

    # per-global-edge high-order node coordinates, keyed (min, max), ordered min->max
    edge_nodes = {}
    edge_curves = {}                          # (a, b) directed -> callable mu -> point
    for key in mesh.edge_use:
        a, b = sorted(key)
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        face = bface_by_edge.get((a, b)) or bface_by_edge.get((b, a))
        if face is None:
            lam = 0.5 * (inner + 1.0)
            edge_nodes[(a, b)] = pa[None, :] + lam[:, None] * (pb - pa)[None, :]
        else:
            seg = domain.loops[face.loop].segments[face.seg]
            v0 = int(mesh.triangles[face.elem][face.ledge])
            # mu measured a->b equals -mu measured along the loop when v0 == b
            curve = _edge_curve(seg, face.t0, face.t1, 1.0 if v0 == a else -1.0)
            edge_nodes[(a, b)] = curve(inner).reshape(-1, 2)
            edge_curves[(a, b)] = curve

    geom = np.zeros((mesh.n_elements(), nb, 2))
    bary = ref.barycentric(ref.nodes)
    for e in range(mesh.n_elements()):
        tri = [int(v) for v in mesh.triangles[e]]
        pverts = mesh.vertices[tri]
        g = bary @ pverts                      # affine placement for every node
        # overwrite edge nodes with the stored per-edge coordinates
        for le in range(3):
            va, vb = tri[le], tri[(le + 1) % 3]
            a, b = (va, vb) if va < vb else (vb, va)
            nodes = edge_nodes[(a, b)]
            ids = ref.edge_ids[le][1:-1]
            g[ids] = nodes if va == a else nodes[::-1]
        # transfinite blend of curved-edge deviations into interior nodes
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

    out = TriMesh(mesh.vertices.copy(), mesh.triangles.copy(), order, geom,
                  list(mesh.boundary_faces), domain=domain)
    bad = [e for e in range(out.n_elements()) if out.det_jacobians(e).min() <= 0.0]
    if bad:
        raise MeshError(f"curving produced negative Jacobians in elements {bad}; "
                        "refine the background mesh")
    return out


def _edge_curve(seg, t0, t1, direction):
    def curve(mu):
        mu = direction * np.atleast_1d(np.asarray(mu, dtype=float))
        t = t0 + 0.5 * (mu + 1.0) * (t1 - t0)
        return np.array([seg.point(tv) for tv in t])
    return curve
