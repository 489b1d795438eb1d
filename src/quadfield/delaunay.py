"""Constrained Delaunay triangulation via Bowyer-Watson with edge recovery.

The triangulation is numpy arrays that grow in place: the points, and the
vertex ids, vertex coordinates and live flag of every triangle id; a deleted
triangle keeps its row and id.  Every step reads those arrays: Bowyer-Watson
runs one vectorized in-circle predicate over the live triangles per inserted
point, counts the few edges of the cavity in a Python dict and orients its
boundary edges in Python floats (numpy's call overhead outweighs a dozen
edges), and adds its new triangles as one block; edge recovery scans the
sorted unique live edges for crossings in one pass, and carving takes
connected components of the triangles that share an unconstrained edge.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import MeshError

# Flip passes before edge recovery gives up, and Laplacian smoothing passes.
RECOVER_MAX_PASSES = 10000
SMOOTH_PASSES = 3


def _orient(pa, pb, pc):
    """Twice the signed area of (pa, pb, pc); any argument may be a (2, k) array."""
    return (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])


def _segments_cross(p1, p2, q1, q2):
    """Strict proper crossing of open segments; q1 and q2 may be (2, k) arrays."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return (((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
            & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0))


def _doubled(arr):
    """arr with its row capacity doubled (at least 16 rows), filled with zeros."""
    out = np.zeros((max(2 * len(arr), 16),) + arr.shape[1:], dtype=arr.dtype)
    out[:len(arr)] = arr
    return out


def _edges(table):
    """(3m, 2) sorted vertex pairs of the edges ab, bc, ca of each of m triangles."""
    return np.sort(table[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)


class Triangulation:
    """Points and triangles, grown in place by doubling.

    Triangle id t is row t of table, its vertex ids counter-clockwise, and
    live[t] is False once it is deleted; ids are never reused.
    """

    def __init__(self, points):
        self._points = np.array(points, dtype=float).reshape(-1, 2)
        self._n_points = len(self._points)
        self._table = np.zeros((0, 3), dtype=np.intp)
        self._coords = np.zeros((0, 3, 2))
        self._live = np.zeros(0, dtype=bool)
        self._n_tris = 0

    @property
    def points(self):
        """(n, 2) point coordinates; row i is point id i."""
        return self._points[:self._n_points]

    @property
    def table(self):
        """(m, 3) vertex ids of every triangle id, deleted ones included."""
        return self._table[:self._n_tris]

    @property
    def coords(self):
        """(m, 3, 2) points[table]: the vertex coordinates of every triangle id."""
        return self._coords[:self._n_tris]

    @property
    def live(self):
        """(m,) True where the triangle id is not deleted (a view: writable)."""
        return self._live[:self._n_tris]

    def add_point(self, p):
        pid = self._n_points
        if pid == len(self._points):
            self._points = _doubled(self._points)
        self._points[pid] = p
        self._n_points += 1
        return pid

    def add_triangle(self, a, b, c):
        if _orient(self.points[a], self.points[b], self.points[c]) < 0:
            a, b = b, a
        self.add_triangles(np.array([(a, b, c)]))

    def add_triangles(self, rows):
        """Append the (k, 3) counter-clockwise rows as the next k triangle ids."""
        start, stop = self._n_tris, self._n_tris + len(rows)
        while stop > len(self._table):
            self._table, self._coords, self._live = map(
                _doubled, (self._table, self._coords, self._live))
        self._table[start:stop] = rows
        self._coords[start:stop] = self.points[rows]
        self._live[start:stop] = True
        self._n_tris = stop

    def edges(self):
        """(k, 2) the live edges as (low, high) vertex ids, sorted and unique."""
        return np.unique(_edges(self.table[self.live]), axis=0)

    def edge_triangles(self, a, b):
        """Ascending ids of the live triangles with edge (a, b)."""
        ids = np.flatnonzero(self.live)
        t = self.table[ids]
        return ids[(t == a).any(axis=1) & (t == b).any(axis=1)].tolist()

    def has_edge(self, a, b):
        return bool(self.edge_triangles(a, b))


def bowyer_watson_insert(tri, pid, eps):
    """Insert point pid into the triangulation (cavity retriangulation).

    The cavity is every live triangle whose circumcircle holds the point up
    to eps: one in-circle determinant for all live triangles at once, in
    ascending id order.  Its boundary edges, those of one cavity triangle
    only, not in line with the point, make new triangles in (low, high) order,
    each turned counter-clockwise by the _orient product of (low, high, point).
    """
    pts = tri.points
    p = pts[pid]
    ids = np.flatnonzero(tri.live)
    (ax, ay), (bx, by), (cx, cy) = (tri.coords[ids] - p).transpose(1, 2, 0)
    det = ((ax * ax + ay * ay) * (bx * cy - cx * by)
           - (bx * bx + by * by) * (ax * cy - cx * ay)
           + (cx * cx + cy * cy) * (ax * by - bx * ay))
    bad = ids[det > -eps]
    if not len(bad):
        raise MeshError("point insertion found no containing circumcircle")
    count = {}
    for edge in zip(*_edges(tri.table[bad]).T.tolist()):
        count[edge] = count.get(edge, 0) + 1
    edges = sorted(edge for edge, n in count.items() if n == 1)
    px, py = p.tolist()
    rows = []
    for (a, b), ((xa, ya), (xb, yb)) in zip(edges, pts[edges].tolist()):
        turn = (xb - xa) * (py - ya) - (yb - ya) * (px - xa)   # _orient(pts[a], pts[b], p)
        if turn < 0:
            rows.append((b, a, pid))
        elif turn != 0:
            rows.append((a, b, pid))
    tri.live[bad] = False
    tri.add_triangles(np.array(rows, dtype=np.intp).reshape(-1, 3))


def _third_vertex(t, a, b):
    return next(v for v in t if v != a and v != b)


def flip_edge(tri, a, b):
    """Replace shared edge (a,b) by the cross diagonal; returns the new edge."""
    tids = tri.edge_triangles(a, b)
    if len(tids) != 2:
        raise MeshError("cannot flip a boundary edge")
    t0, t1 = tri.table[tids].tolist()
    c = _third_vertex(t0, a, b)
    d = _third_vertex(t1, a, b)
    pa, pb, pc, pd = tri.points[[a, b, c, d]]
    # flip only valid if quad a-c-b-d is strictly convex
    if _orient(pc, pd, pa) == 0 or _orient(pc, pd, pb) == 0:
        return None
    if (_orient(pa, pc, pd) > 0) == (_orient(pb, pc, pd) > 0):
        return None
    tri.live[tids] = False
    tri.add_triangle(a, c, d)
    tri.add_triangle(b, c, d)
    return (c, d)


def recover_edge(tri, a, b):
    """Flip crossing edges until segment (a,b) is an edge of the triangulation.

    Each pass flips, in sorted (low, high) order, the live edges that cross
    the segment, skipping those an earlier flip of the pass removed.  A pass
    depends on the live edge set alone, so a set seen before is a cycle that
    never ends: it fails at once, as it would after RECOVER_MAX_PASSES passes.
    """
    pa, pb = tri.points[a], tri.points[b]
    seen = set()
    for _ in range(RECOVER_MAX_PASSES):
        if tri.has_edge(a, b):
            return
        edges = tri.edges()
        key = hashlib.blake2b(edges.tobytes(), digest_size=16).digest()   # 16 bytes a pass
        if key in seen:
            break
        seen.add(key)
        edges = edges[~np.isin(edges, (a, b)).any(axis=1)]
        pts = tri.points
        crossing = edges[_segments_cross(pa, pb, pts[edges[:, 0]].T, pts[edges[:, 1]].T)]
        if not len(crossing):
            raise MeshError(f"edge ({a},{b}) missing and nothing crosses it")
        progressed = False
        for c, d in crossing.tolist():
            if tri.has_edge(c, d) and flip_edge(tri, c, d) is not None:
                progressed = True
        if not progressed:
            raise MeshError(f"edge recovery stalled for ({a},{b})")
    raise MeshError(f"edge recovery did not terminate for ({a},{b})")


def triangulate_pslg(points, constrained_edges):
    """CDT of a planar straight-line graph.

    points: (n,2) array; constrained_edges: list of (i,j) index pairs.
    Returns (Triangulation, super_vertex_ids).
    """
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1])) or 1.0
    eps = 1e-12 * span * span * span
    mid = 0.5 * (lo + hi)
    m = 10.0 * span
    tri = Triangulation([mid + np.array([-m, -m]), mid + np.array([m, -m]),
                         mid + np.array([0.0, m])])
    tri.add_triangle(0, 1, 2)
    super_ids = (0, 1, 2)
    for p in pts:
        pid = tri.add_point(p)
        bowyer_watson_insert(tri, pid, eps)
    present = set(map(tuple, tri.edges().tolist()))
    for (i, j) in constrained_edges:
        if (min(i, j) + 3, max(i, j) + 3) not in present:
            recover_edge(tri, i + 3, j + 3)
            present = set(map(tuple, tri.edges().tolist()))
    return tri, super_ids


def carve(tri, super_ids, constrained, classify_component):
    """Drop outside/hole triangles.

    constrained: set of (low, high) edges (already offset to triangulation
    ids).  classify_component: callable(point) -> bool, True to keep.
    Components are the live triangles joined across unconstrained edges.
    One that touches a super vertex goes; every other one is classified by
    the centroid of its largest triangle (the lowest id among equal areas).
    """
    tids = np.flatnonzero(tri.live)
    t = tri.table[tids]
    edges = _edges(t)
    owner = np.repeat(np.arange(len(t)), 3)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    edges, owner = edges[order], owner[order]
    shared = np.flatnonzero((edges[1:] == edges[:-1]).all(axis=1))
    shared = shared[[tuple(e) not in constrained for e in edges[shared].tolist()]]
    adjacency = coo_matrix((np.ones(len(shared)), (owner[shared], owner[shared + 1])),
                           shape=(len(t), len(t)))
    n_comp, comp = connected_components(adjacency, directed=False)

    pa, pb, pc = tri.points[t].transpose(1, 2, 0)          # each (2, len(t))
    area = np.abs(_orient(pa, pb, pc))
    best = np.lexsort((np.arange(len(t)), -area, comp))
    best = best[np.r_[True, comp[best][1:] != comp[best][:-1]]]   # one per component
    touches_super = np.zeros(n_comp, dtype=bool)
    touches_super[comp[np.isin(t, super_ids).any(axis=1)]] = True
    keep = np.zeros(n_comp, dtype=bool)
    for k in best:
        if not touches_super[comp[k]]:
            keep[comp[k]] = bool(classify_component((pa[:, k] + pb[:, k] + pc[:, k]) / 3.0))
    tri.live[tids[~keep[comp]]] = False


def laplacian_smooth(points, triangles, fixed):
    """In-place Gauss-Seidel neighbour-average smoothing of the non-fixed vertices.

    A pass moves each vertex in id order, on Python floats, to the mean of its
    neighbours (summed from 0.0 in ascending id order, as np.mean sums), and
    undoes the move if an incident triangle's _orient is not above 1e-14.
    """
    tris = np.asarray(triangles).reshape(-1, 3)
    rows = tris.tolist()
    n = len(points)
    low, high = _edges(tris).T
    keys = np.unique(np.concatenate([low * n + high, high * n + low]))
    nbr_at = np.searchsorted(keys, np.arange(n + 1) * n).tolist()
    nbrs = (keys % n).tolist()
    corner_tris = (np.argsort(tris, axis=None, kind="stable") // 3).tolist()
    tri_at = np.r_[0, np.cumsum(np.bincount(tris.ravel(), minlength=n))].tolist()
    moving = [(v, nbrs[nbr_at[v]:nbr_at[v + 1]],
               [rows[t] for t in corner_tris[tri_at[v]:tri_at[v + 1]]])
              for v in range(n) if v not in fixed and nbr_at[v] < nbr_at[v + 1]]
    xs, ys = points.T.tolist()
    for _ in range(SMOOTH_PASSES):
        for v, around, incident in moving:
            sx = sy = 0.0
            for u in around:
                sx += xs[u]
                sy += ys[u]
            old = xs[v], ys[v]
            xs[v] = sx / len(around)
            ys[v] = sy / len(around)
            for a, b, c in incident:
                area = (xs[b] - xs[a]) * (ys[c] - ys[a]) - (ys[b] - ys[a]) * (xs[c] - xs[a])
                if not area > 1e-14:
                    xs[v], ys[v] = old
                    break
    points[:] = np.array([xs, ys]).T
