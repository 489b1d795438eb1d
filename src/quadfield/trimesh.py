"""Coarse curved triangular background meshes.

The mesh starts linear (boundary-sampled constrained Delaunay), is then
elevated to order P and curved by moving boundary edge nodes onto their
source curves; interior geometry nodes follow by transfinite blending from
the edges.  Every element exposes its polynomial reference-to-physical map,
its exact Jacobian, and Newton inversion.  What point location needs of every
element, its reach and Newton's first step from the barycenter, is built once
per mesh on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .delaunay import carve, laplacian_smooth, triangulate_pslg
from .errors import ConfigError, MeshError
from .geometry import finite, in_region, typed
from .polyline import meeting_boxes
from .reftri import map_jacobians, n_nodes, ref_triangle


@dataclass
class BoundaryFace:
    """One element edge lying on the domain boundary (interior on its left)."""

    elem: int
    ledge: int               # local edge 0,1,2 with vertices (ledge, ledge+1)
    loop: int
    seg: int
    t0: float
    t1: float

    def curve_t(self, s):
        """Curve parameter at edge parameter s in [-1, 1] (s = -1 at t0)."""
        return self.t0 + 0.5 * (s + 1.0) * (self.t1 - self.t0)


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
        self.bbox_diag = float(np.hypot(*np.ptp(self.vertices, axis=0)))

    # ---- connectivity ------------------------------------------------------

    def _build_edges(self):
        """Number every edge once, in (low, high) vertex-id order.

        edges (n, 2) holds the low and high vertex of each edge;
        elem_edges[e, le] is the edge of local edge le (vertex le -> le+1),
        forward[e, le] whether that local edge runs from low to high, and
        face_pairs[k] the (elem, ledge, elem, ledge) of the two uses of
        interior edge interior_edges[k], in ascending order.
        """
        tail = self.triangles
        head = np.roll(tail, -1, axis=1)
        nv = len(self.vertices)
        keys, inverse, counts = np.unique(
            np.minimum(tail, head) * nv + np.maximum(tail, head),
            return_inverse=True, return_counts=True)
        self.edges = np.stack(np.divmod(keys, nv), axis=1)
        self.elem_edges = inverse.reshape(tail.shape)
        self.forward = tail < head
        self.interior_edges = np.flatnonzero(counts == 2)
        uses = np.argsort(inverse, axis=None, kind="stable")       # grouped by edge
        first = (np.cumsum(counts) - counts)[self.interior_edges]
        self.face_pairs = np.stack(np.divmod(uses[np.stack([first, first + 1], axis=1)], 3),
                                   axis=2).reshape(-1, 4)
        bare = counts == 1
        bare[[self.elem_edges[f.elem, f.ledge] for f in self.boundary_faces]] = False
        for i in np.flatnonzero(bare | (counts > 2)):
            kind = "non-conforming mesh: bare edge" if counts[i] == 1 else "non-manifold edge"
            raise MeshError(f"{kind} {self.edges[i].tolist()}")

    def n_elements(self):
        return len(self.triangles)

    def node_ids(self, per_edge, per_face):
        """Global node ids per element, continuous across shared edges.

        Columns: the three vertices, then per_edge nodes of each local edge
        from vertex le to le+1, then per_face interior nodes.  Vertex v is
        node v, node k of edge i counted from its low vertex is node
        V + i * per_edge + k, and interior nodes follow all edge nodes.
        """
        ne, nv = len(self.triangles), len(self.vertices)
        along = np.arange(per_edge)
        edge = nv + self.elem_edges[:, :, None] * per_edge + \
            np.where(self.forward[:, :, None], along, along[::-1])
        face = nv + len(self.edges) * per_edge + \
            np.arange(ne)[:, None] * per_face + np.arange(per_face)
        return np.hstack([self.triangles, edge.reshape(ne, -1), face])

    # ---- geometry ----------------------------------------------------------

    def map_to_physical(self, e, xi):
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        return self.ref.basis_at(xi) @ self.geom[e]

    def jacobian(self, e, xi):
        """2x2 Jacobians d(x)/d(xi): shape (npts, 2, 2)."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        jac, _ = map_jacobians(self.ref.grad_basis_at(xi), self.geom[e][None])
        return np.ascontiguousarray(jac[..., 0].transpose(2, 0, 1))

    def det_jacobians(self, e=slice(None)):
        """Jacobian determinants at the quadrature points: (npts,) for one
        element id, (k, npts) for an index array or slice (all elements)."""
        geom = self.geom[e]
        jac, _ = map_jacobians(self.ref.grad_q, geom.reshape(-1, *geom.shape[-2:]))
        (j00, j01), (j10, j11) = jac
        det = np.ascontiguousarray((j00 * j11 - j01 * j10).T)
        return det[0] if geom.ndim == 2 else det

    def inverted_elements(self):
        """Ids of the elements with a Jacobian determinant <= 0 at a quadrature point."""
        return np.flatnonzero(self.det_jacobians().min(axis=1) <= 0.0).tolist()

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
        d = self.vertices[self.edges[:, 0]] - self.vertices[self.edges[:, 1]]
        return float(np.hypot(d[:, 0], d[:, 1]).min())

    @functools.cached_property
    def _reach(self):
        """Outward unit edge normals (ne, 3, 2) and offsets (ne, 3) of every
        element's straight vertex triangle, and its reach (ne,).

        The basis reproduces the affine map exactly, so a curved element lies
        within Lebesgue constant x (largest node displacement from its affine
        position) of its straight triangle; the reach pads that by 25% for the
        sampled constant and by 1e-6 of the element's size for the Newton
        tolerance and slack.  Built on first use: meshing and solving locate
        nothing.
        """
        ref = self.ref
        corners = self.geom[:, ref.vertex_ids]
        affine = ref.barycentric(ref.nodes) @ corners
        delta = np.hypot(*(self.geom - affine).transpose(2, 0, 1)).max(axis=1)
        side = np.roll(corners, -1, axis=1) - corners
        area = side[:, 0, 0] * side[:, 1, 1] - side[:, 0, 1] * side[:, 1, 0]
        normal = np.stack([side[..., 1], -side[..., 0]], axis=2) * np.sign(area)[:, None, None]
        normal /= np.hypot(normal[..., 0], normal[..., 1])[..., None]
        offset = np.einsum("eld,eld->el", normal, corners)
        size = np.hypot(*(self.geom.max(axis=1) - self.geom.min(axis=1)).T)
        return normal, offset, 1.25 * ref.lebesgue * delta + 1e-6 * size

    def reachable(self, points):
        """(k, ne) mask: whether the map of each element can reach each of the points (k, 2).

        It cannot when the point lies more than the element's reach outside
        one of the edge lines of its straight triangle.  A non-finite point
        passes: it compares False with every reach.
        """
        normal, offset, reach = self._reach
        beyond = np.einsum("eld,kd->kel", normal, np.reshape(points, (-1, 2))) - offset
        return ~(beyond.max(axis=2) > reach)

    @functools.cached_property
    def _first_step(self):
        """RefTriangle.first_steps of every element map: Newton's start from
        the barycenter, bitwise the one any batch of lanes computes.  Built on
        first use from geom, like _reach, so both assume that geom does not
        change once the mesh locates points."""
        return self.ref.first_steps(self.geom)

    def invert_map(self, elems, x):
        """Newton inversion of the map of every element in elems at x, in lockstep.

        x is one point (2,) or one per element (k, 2).  Returns (xis, rows),
        one entry per element in each: xi and its basis row, or None and None
        on failure.  Every lane runs: the caller picks them with reachable.
        RefTriangle.invert_maps runs with tol 1e-12 * bbox_diag, 50 steps
        and slack 1e-8, from the elements' cached first steps.
        """
        elems = np.asarray(elems, dtype=int)
        return self.ref.invert_maps(self.geom[elems], np.asarray(x, dtype=float),
                                    1e-12 * self.bbox_diag, 50, 1e-8,
                                    [a[elems] for a in self._first_step])

    def validate_jacobians(self):
        bad = self.inverted_elements()
        if bad:
            raise MeshError(f"negative Jacobian in elements {bad}")

    def euler_check(self):
        """chi = V - E + F must equal 1 - (number of holes)."""
        chi = len(self.vertices) - len(self.edges) + self.n_elements()
        holes = len(self.domain.holes) if self.domain is not None else 0
        if chi != 1 - holes:
            raise MeshError(f"Euler check failed: V-E+F = {chi}, expected {1 - holes}")

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
        """TriMesh of a mesh.json document; with a domain, its boundary faces
        must lie on the domain's segments (else ConfigError)."""
        order = typed(doc["order"], (int,), "order")
        triangles = np.array(doc["triangles"])
        if triangles.dtype.kind != "i" or triangles.shape[1:] != (3,):
            raise ValueError(f"triangles must be an integer (n, 3) array, not "
                             f"{triangles.dtype} of shape {triangles.shape}")
        geom = finite(np.array(doc["geom"], dtype=float), "geom")
        if geom.shape != (len(triangles), n_nodes(order), 2):
            raise ValueError(f"geom of shape {geom.shape} does not fit {len(triangles)} "
                             f"elements of order {order}")
        faces = [BoundaryFace(*(typed(v, (int,), "boundary face index") for v in f[:4]),
                              *(float(typed(t, (int, float), "boundary face t")) for t in f[4:]))
                 for f in doc["boundary_faces"]]
        vertices = finite(np.array(doc["vertices"], dtype=float), "vertices")
        mesh = cls(vertices, triangles, order, geom, faces, domain=domain)
        if domain is None:
            return mesh
        tol = 1e-6 * domain.bbox_diag
        for f in mesh.boundary_faces:
            segs = domain.loops[f.loop].segments if f.loop < len(domain.loops) else []
            ends = mesh.vertices[np.roll(mesh.triangles[f.elem], -f.ledge)[:2]]
            if f.seg >= len(segs) or np.hypot(
                    *(ends - segs[f.seg].points([f.t0, f.t1])).T).max() > tol:
                raise ConfigError(f"mesh boundary face ({f.elem}, {f.ledge}) is not on "
                                  f"domain segment ({f.loop}, {f.seg}); rerun mesh")
        return mesh


# ---- background mesh generation ---------------------------------------------

_KIND_MIN_INTERVALS = {"line": 1, "arc": 2, "spline": 8, "naca4": 32}


def _sample_segment_params(seg, target_h):
    """Boundary sample parameters (t values, first = 0, last < 1)."""
    n = max(1, int(round(seg.arclength() / target_h)), _KIND_MIN_INTERVALS.get(seg.kind, 4))
    if seg.kind == "arc":
        n = max(n, int(math.ceil(abs(seg.a1 - seg.a0) / 0.5)))
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
    if target_h >= domain.bbox_diag:
        raise MeshError("target_h must be smaller than the domain bounding box")
    if abs(domain.area()) < 1e-12 * domain.bbox_diag ** 2:
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
    constrained = {tuple(sorted((e[0] + 3, e[1] + 3))) for e in edges}

    carve(tri, super_ids, constrained,
          lambda pt: in_region(pt, loop_polys[0], loop_polys[1:]))

    live = tri.table[tri.live]
    if not len(live):
        raise MeshError("meshing produced no interior triangles")
    used = np.unique(live)
    verts = tri.points[used]
    tris = np.searchsorted(used, live)
    tris = tris[np.lexsort(tris.T[::-1])]

    # new ids of each boundary edge's ends, and whether carving kept them;
    # the loops are closed, so every edge end is the start of another edge
    ends = np.array([e[:2] for e in edges]) + 3
    at = np.minimum(np.searchsorted(used, ends), len(used) - 1)
    kept = used[at] == ends
    laplacian_smooth(verts, tris, set(at[kept[:, 0], 0].tolist()))

    # each boundary edge is the local edge (vertex ledge -> ledge + 1) whose
    # directed key matches; the last one, as a dict of all of them would hold
    directed = (tris * len(used) + np.roll(tris, -1, axis=1)).ravel()
    order = np.argsort(directed, kind="stable")
    want = at[:, 0] * len(used) + at[:, 1]
    hit = order[np.searchsorted(directed[order], want, side="right") - 1]
    if not (kept.all(axis=1) & (directed[hit] == want)).all():
        raise MeshError("boundary edge lost during meshing; domain may be "
                        "self-intersecting or target_h too coarse")
    elems, ledges = np.divmod(hit, 3)
    faces = [BoundaryFace(e, le, *edge[2:])
             for e, le, edge in zip(elems.tolist(), ledges.tolist(), edges)]

    geom = verts[tris]                           # (ne, 3, 2) order-1 geometry
    mesh = TriMesh(verts, tris, 1, geom, faces, domain=domain)
    mesh.validate_jacobians()
    mesh.euler_check()
    return mesh


def _near_pairs(points, r):
    """(i, j) with i < j: the pairs of points within r in x and in y, from the
    cut's box grid; boxes grow by 1e-9 relative so rounding loses no pair at r."""
    half = 0.5 * r * (1.0 + 1e-9)
    i, j = meeting_boxes(np.concatenate([points.T - half, points.T + half]))
    return i[i < j], j[i < j]


def _check_feature_size(points, edges, target_h):
    """Reject gaps thinner than the local boundary sampling can resolve.

    _sample_segment_params rounds arclength / target_h, so samples lie under
    1.5 target_h apart and only pairs under 0.2 local_h < 0.3 target_h apart
    are refused: the candidates _near_pairs adds beyond 0.35 target_h change
    no outcome."""
    a, b = np.array([e[:2] for e in edges]).T
    d = np.hypot(*(points[a] - points[b]).T)
    local_h = np.full(len(points), np.inf)
    np.minimum.at(local_h, np.r_[a, b], np.r_[d, d])
    i, j = _near_pairs(points, 0.35 * target_h)
    edge = np.isin(i * len(points) + j, np.minimum(a, b) * len(points) + np.maximum(a, b))
    thin = np.hypot(*(points[i] - points[j]).T) < 0.2 * np.minimum(local_h[i], local_h[j])
    if (thin & ~edge).any():
        raise MeshError(
            "boundary features thinner than the sampling resolves; "
            f"retry with target_h <= {target_h / 2:.4g}")


def _interior_lattice(domain, boundary_pts, target_h, loop_polys):
    """Staggered lattice points, row by row, inside the domain and farther
    than 0.7 target_h from every boundary sample."""
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
    both = np.concatenate([boundary_pts, pts])
    i, j = _near_pairs(both, 0.7 * target_h)
    sx, sy = (both[i] - both[j]).T     # sqrt(sx * sx + sy * sy) rounds as scipy's KD-tree
    far = np.ones(len(both), dtype=bool)
    far[j[(i < len(boundary_pts)) & (np.sqrt(sx * sx + sy * sy) <= 0.7 * target_h)]] = False
    return pts[far[len(boundary_pts):]]


# ---- elevation and curving ---------------------------------------------------


def elevate_and_curve(mesh, order, domain):
    """Raise a linear mesh to order P, curving boundary edges onto the geometry."""
    if mesh.order != 1:
        raise MeshError("elevate_and_curve expects a linear mesh")
    curved_kinds = {seg.kind for loop in domain.loops for seg in loop.segments}
    if order < 2 and curved_kinds - {"line"}:
        raise MeshError("order >= 2 required to curve non-line boundaries")

    ref = ref_triangle(order)
    inner = ref.edge_node_params[1:-1]       # inner Gauss-Lobatto values in (-1, 1)

    # high-order edge nodes per edge, ordered from its low to its high vertex
    low, high = mesh.vertices[mesh.edges[:, 0]], mesh.vertices[mesh.edges[:, 1]]
    lam = 0.5 * (inner + 1.0)
    edge_nodes = low[:, None, :] + lam[None, :, None] * (high - low)[:, None, :]
    for f in mesh.boundary_faces:
        seg = domain.loops[f.loop].segments[f.seg]
        # f.curve_t runs along the face, from its vertex ledge to ledge+1
        s = inner if mesh.forward[f.elem, f.ledge] else -inner
        edge_nodes[mesh.elem_edges[f.elem, f.ledge]] = \
            np.array([seg.point(t) for t in f.curve_t(s)]).reshape(-1, 2)

    bary = ref.barycentric(ref.nodes)
    geom = bary @ mesh.vertices[mesh.triangles]               # affine
    for le in range(3):
        nodes = edge_nodes[mesh.elem_edges[:, le]]
        geom[:, ref.edge_ids[le][1:-1]] = np.where(
            mesh.forward[:, le, None, None], nodes, nodes[:, ::-1])
    # transfinite blend of curved-edge deviations into interior nodes; an
    # element with two curved edges adds them in local-edge order
    for f in sorted(mesh.boundary_faces, key=lambda face: (face.elem, face.ledge)):
        seg = domain.loops[f.loop].segments[f.seg]
        le = f.ledge
        pverts = mesh.vertices[mesh.triangles[f.elem]]
        la = bary[:, le]
        lb = bary[:, (le + 1) % 3]
        denom = la + lb
        mask = (denom > 1e-12) & (bary[:, (le + 2) % 3] > 1e-12)
        mu = np.zeros(ref.n_nodes)
        mu[mask] = (lb[mask] - la[mask]) / denom[mask]
        straight = 0.5 * (1.0 - mu)[:, None] * pverts[le] + \
            0.5 * (1.0 + mu)[:, None] * pverts[(le + 1) % 3]
        delta = np.array([seg.point(t) for t in f.curve_t(mu)]) - straight
        geom[f.elem, mask] += denom[mask, None] * delta[mask]

    out = TriMesh(mesh.vertices.copy(), mesh.triangles.copy(), order, geom,
                  list(mesh.boundary_faces), domain=domain)
    bad = out.inverted_elements()
    if bad:
        raise MeshError(f"curving produced negative Jacobians in elements {bad}; "
                        "refine the background mesh")
    return out
