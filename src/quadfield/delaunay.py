"""Constrained Delaunay triangulation via Bowyer-Watson with edge recovery.

The triangulation keeps its points and its (a, b, c) triangle table as numpy
arrays that grow in place, so the Bowyer-Watson cavity test is one vectorized
in-circle predicate over every triangle per inserted point.  Constraint
recovery (flip based, scalar crossing scan) and the flood-fill carving stay
plain Python; background meshes stay coarse and the shipped domains need no
flips.
"""

from __future__ import annotations

import numpy as np

from .errors import MeshError


def _orient(pa, pb, pc):
    return (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])


def _segments_cross(p1, p2, q1, q2):
    """Strict proper crossing of open segments."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and \
        d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0


def _doubled(arr):
    """arr with its row capacity doubled (at least 16 rows), filled with zeros."""
    out = np.zeros((max(2 * len(arr), 16),) + arr.shape[1:], dtype=arr.dtype)
    out[:len(arr)] = arr
    return out


class Triangulation:
    """Mutable triangle soup with an edge->triangles index.

    triangles is the list of (a, b, c) CCW or None (deleted) by triangle id;
    the same table is kept as numpy arrays (points, table, live), grown in
    place by doubling, for the vectorized cavity test.
    """

    def __init__(self, points):
        self._points = np.array(points, dtype=float).reshape(-1, 2)
        self._n_points = len(self._points)
        self._table = np.zeros((0, 3), dtype=np.intp)
        self._live = np.zeros(0, dtype=bool)
        self.triangles = []
        self.edge_map = {}           # frozenset edge -> set of triangle ids

    @property
    def points(self):
        """(n, 2) point coordinates; row i is point id i."""
        return self._points[:self._n_points]

    @property
    def table(self):
        """(m, 3) vertex ids of every triangle id, deleted ones included."""
        return self._table[:len(self.triangles)]

    @property
    def live(self):
        """(m,) True where the triangle id is not deleted."""
        return self._live[:len(self.triangles)]

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
        tid = len(self.triangles)
        if tid == len(self._table):
            self._table = _doubled(self._table)
            self._live = _doubled(self._live)
        self.triangles.append((a, b, c))
        self._table[tid] = (a, b, c)
        self._live[tid] = True
        for e in ((a, b), (b, c), (c, a)):
            self.edge_map.setdefault(frozenset(e), set()).add(tid)
        return tid

    def remove_triangle(self, tid):
        tri = self.triangles[tid]
        if tri is None:
            return
        a, b, c = tri
        for e in ((a, b), (b, c), (c, a)):
            key = frozenset(e)
            self.edge_map[key].discard(tid)
            if not self.edge_map[key]:
                del self.edge_map[key]
        self.triangles[tid] = None
        self._live[tid] = False

    def live_triangles(self):
        return [(tid, t) for tid, t in enumerate(self.triangles) if t is not None]

    def has_edge(self, a, b):
        return frozenset((a, b)) in self.edge_map

    def edge_triangles(self, a, b):
        return sorted(self.edge_map.get(frozenset((a, b)), ()))


def bowyer_watson_insert(tri, pid, eps):
    """Insert point pid into the triangulation (cavity retriangulation).

    The cavity is every live triangle whose circumcircle holds the point up
    to eps: one in-circle determinant for all triangles at once, ascending
    in triangle id.
    """
    pts = tri.points
    p = pts[pid]
    table = tri.table
    ax, ay = (pts[table[:, 0]] - p).T
    bx, by = (pts[table[:, 1]] - p).T
    cx, cy = (pts[table[:, 2]] - p).T
    det = ((ax * ax + ay * ay) * (bx * cy - cx * by)
           - (bx * bx + by * by) * (ax * cy - cx * ay)
           + (cx * cx + cy * cy) * (ax * by - bx * ay))
    bad = np.flatnonzero(tri.live & (det > -eps)).tolist()
    if not bad:
        raise MeshError("point insertion found no containing circumcircle")
    # boundary of the cavity: edges appearing exactly once among bad triangles
    edge_count = {}
    for tid in bad:
        a, b, c = tri.triangles[tid]
        for e in ((a, b), (b, c), (c, a)):
            key = frozenset(e)
            edge_count[key] = edge_count.get(key, 0) + 1
    for tid in bad:
        tri.remove_triangle(tid)
    for key, cnt in sorted(edge_count.items(), key=lambda kv: sorted(kv[0])):
        if cnt == 1:
            a, b = sorted(key)
            if _orient(tri.points[a], tri.points[b], p) == 0:
                continue
            tri.add_triangle(a, b, pid)


def _third_vertex(t, a, b):
    return next(v for v in t if v != a and v != b)


def flip_edge(tri, a, b):
    """Replace shared edge (a,b) by the cross diagonal; returns the new edge."""
    tids = tri.edge_triangles(a, b)
    if len(tids) != 2:
        raise MeshError("cannot flip a boundary edge")
    t0, t1 = (tri.triangles[t] for t in tids)
    c = _third_vertex(t0, a, b)
    d = _third_vertex(t1, a, b)
    # flip only valid if quad a-c-b-d is strictly convex
    if _orient(tri.points[c], tri.points[d], tri.points[a]) == 0 or \
       _orient(tri.points[c], tri.points[d], tri.points[b]) == 0:
        return None
    if (_orient(tri.points[a], tri.points[c], tri.points[d]) > 0) == \
       (_orient(tri.points[b], tri.points[c], tri.points[d]) > 0):
        return None
    for t in tids:
        tri.remove_triangle(t)
    tri.add_triangle(a, c, d)
    tri.add_triangle(b, c, d)
    return (c, d)


def recover_edge(tri, a, b, max_iter=10000):
    """Flip crossing edges until segment (a,b) is an edge of the triangulation."""
    pa, pb = tri.points[a], tri.points[b]
    for _ in range(max_iter):
        if tri.has_edge(a, b):
            return
        crossing = []
        for key in tri.edge_map:
            c, d = sorted(key)
            if a in key or b in key:
                continue
            if _segments_cross(pa, pb, tri.points[c], tri.points[d]):
                crossing.append((c, d))
        if not crossing:
            raise MeshError(f"edge ({a},{b}) missing and nothing crosses it")
        crossing.sort()
        progressed = False
        for c, d in crossing:
            if not tri.has_edge(c, d):
                continue
            new = flip_edge(tri, c, d)
            if new is not None:
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
    for (i, j) in constrained_edges:
        recover_edge(tri, i + 3, j + 3)
    return tri, super_ids


def carve(tri, super_ids, constrained, classify_component):
    """Drop outside/hole triangles.

    constrained: set of frozenset edges (already offset to triangulation ids).
    classify_component: callable(point) -> bool, True to keep.  Components are
    separated by constrained edges; each is classified by the centroid of its
    largest triangle.
    """
    live = tri.live_triangles()
    comp = {tid: -1 for tid, _ in live}
    n_comp = 0
    for tid0, _ in live:
        if comp[tid0] != -1:
            continue
        stack = [tid0]
        comp[tid0] = n_comp
        while stack:
            tid = stack.pop()
            a, b, c = tri.triangles[tid]
            for e in ((a, b), (b, c), (c, a)):
                key = frozenset(e)
                if key in constrained:
                    continue
                for nb in tri.edge_map.get(key, ()):
                    if tri.triangles[nb] is not None and comp.get(nb, -2) == -1:
                        comp[nb] = n_comp
                        stack.append(nb)
        n_comp += 1

    keep_comp = []
    for ci in range(n_comp):
        members = [tid for tid, c in comp.items() if c == ci]
        if any(v in super_ids for tid in members for v in tri.triangles[tid]):
            keep_comp.append(False)
            continue
        best, area_best = None, -1.0
        for tid in members:
            a, b, c = tri.triangles[tid]
            ar = abs(_orient(tri.points[a], tri.points[b], tri.points[c]))
            if ar > area_best:
                area_best, best = ar, tid
        a, b, c = tri.triangles[best]
        centroid = (tri.points[a] + tri.points[b] + tri.points[c]) / 3.0
        keep_comp.append(bool(classify_component(centroid)))

    for tid, ci in comp.items():
        if not keep_comp[ci]:
            tri.remove_triangle(tid)


def laplacian_smooth(points, triangles, fixed, passes=3):
    """In-place neighbor-average smoothing of non-fixed vertices."""
    pts = points
    nbrs = {}
    for (a, b, c) in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
    incident = {}
    for ti, t in enumerate(triangles):
        for v in t:
            incident.setdefault(v, []).append(ti)
    for _ in range(passes):
        for v in range(len(pts)):
            if v in fixed or v not in nbrs:
                continue
            old = pts[v].copy()
            pts[v] = np.mean([pts[u] for u in sorted(nbrs[v])], axis=0)
            ok = all(_orient(pts[triangles[ti][0]], pts[triangles[ti][1]],
                             pts[triangles[ti][2]]) > 1e-14 for ti in incident[v])
            if not ok:
                pts[v] = old
