"""The array triangulation against the list-and-edge-index triangulation it replaced.

The reference below is the whole mesher as it stood before the numpy table
and live mask became the only store: a Python triangle list with None
slots and a frozenset edge index kept beside the arrays, a scalar in-circle
test per live triangle, flips, a per-edge crossing scan for recovery and a
flood fill for carving.  Every test runs both and requires the same ids,
table rows, live mask and points, the same MeshError text, and the same
centroids handed to the carve's classifier, in the same order.
"""

import copy
import functools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import OFFSETS
from quadfield import delaunay, trimesh
from quadfield.delaunay import laplacian_smooth, triangulate_pslg
from quadfield.errors import MeshError
from quadfield.geometry import in_region, load_fixture
from reference.delaunay import unique_insert


# ---- reference: triangle list, frozenset edge index, scalar loops ----------------


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


def _circumcircle_contains(pts, tri, p, eps):
    a, b, c = (pts[i] for i in tri)
    ax, ay = a - p
    bx, by = b - p
    cx, cy = c - p
    det = ((ax * ax + ay * ay) * (bx * cy - cx * by)
           - (bx * bx + by * by) * (ax * cy - cx * ay)
           + (cx * cx + cy * cy) * (ax * by - bx * ay))
    return det > eps


def reference_insert(tri, pid, eps):
    """Insert point pid into the triangulation (cavity retriangulation)."""
    p = tri.points[pid]
    bad = [tid for tid, t in tri.live_triangles()
           if _circumcircle_contains(tri.points, t, p, -eps)]
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


def reference_flip(tri, a, b):
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


def reference_recover(tri, a, b, max_iter=10000):
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
            new = reference_flip(tri, c, d)
            if new is not None:
                progressed = True
        if not progressed:
            raise MeshError(f"edge recovery stalled for ({a},{b})")
    raise MeshError(f"edge recovery did not terminate for ({a},{b})")


def reference_triangulate(points, constrained_edges):
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
        reference_insert(tri, pid, eps)
    for (i, j) in constrained_edges:
        reference_recover(tri, i + 3, j + 3)
    return tri, super_ids


def reference_carve(tri, super_ids, constrained, classify_component):
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


def all_rows_insert(tri, pid, eps):
    """bowyer_watson_insert as it was before it skipped deleted rows: the
    in-circle determinant of every row of the table, dead or live."""
    pts = tri.points
    p = pts[pid]
    table = tri.table
    ax, ay = (pts[table[:, 0]] - p).T
    bx, by = (pts[table[:, 1]] - p).T
    cx, cy = (pts[table[:, 2]] - p).T
    det = ((ax * ax + ay * ay) * (bx * cy - cx * by)
           - (bx * bx + by * by) * (ax * cy - cx * ay)
           + (cx * cx + cy * cy) * (ax * by - bx * ay))
    bad = np.flatnonzero(tri.live & (det > -eps))
    if not len(bad):
        raise MeshError("point insertion found no containing circumcircle")
    edge_count = {}
    for e in map(tuple, delaunay._edges(table[bad]).tolist()):
        edge_count[e] = edge_count.get(e, 0) + 1
    tri.live[bad] = False
    for (a, b), cnt in sorted(edge_count.items()):
        if cnt == 1 and _orient(pts[a], pts[b], p) != 0:
            tri.add_triangle(a, b, pid)


def reference_smooth(points, triangles, fixed):
    """laplacian_smooth as it was: dict neighbour sets and np.mean per vertex."""
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
    for _ in range(delaunay.SMOOTH_PASSES):
        for v in range(len(pts)):
            if v in fixed or v not in nbrs:
                continue
            old = pts[v].copy()
            pts[v] = np.mean([pts[u] for u in sorted(nbrs[v])], axis=0)
            ok = all(_orient(pts[triangles[ti][0]], pts[triangles[ti][1]],
                             pts[triangles[ti][2]]) > 1e-14 for ti in incident[v])
            if not ok:
                pts[v] = old


def _incircle_det(pts, tri, p):
    """The determinant _circumcircle_contains compares, in its operation order."""
    a, b, c = (pts[i] for i in tri)
    ax, ay = a - p
    bx, by = b - p
    cx, cy = c - p
    return ((ax * ax + ay * ay) * (bx * cy - cx * by)
            - (bx * bx + by * by) * (ax * cy - cx * ay)
            + (cx * cx + cy * cy) * (ax * by - bx * ay))


# ---- running both ways -----------------------------------------------------------

# The reference recovery flips a cycle for its 10,000 passes before the
# MeshError, seconds per case; both implementations stop after PASSES here
# (recover_edge itself stops at the first repeated edge set).
PASSES = 40

# (triangulate, carve, constrained-edge key) of each implementation
NEW = (triangulate_pslg, delaunay.carve, lambda e: tuple(sorted(e)))
REFERENCE = (reference_triangulate, reference_carve, frozenset)


def _state(tri):
    return tri.table.tolist(), tri.live.tolist(), tri.points.tolist()


def _run(impl, points, edges, polys=None):
    """(state, classifier centroids) after meshing and, given polys, carving them
    (outer polygon first, then holes); or the MeshError text."""
    triangulate, carve, key = impl
    centroids = []

    def classify(pt):
        centroids.append(pt.tolist())
        return in_region(pt, polys[0], polys[1:])

    try:
        tri, super_ids = triangulate(points, edges)
        if polys is not None:
            carve(tri, super_ids, {key((i + 3, j + 3)) for i, j in edges}, classify)
    except MeshError as exc:
        return f"MeshError: {exc}"
    return _state(tri), centroids


def _both(points, edges, polys=None):
    """_run of both implementations, each recovery capped at PASSES flip passes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delaunay, "RECOVER_MAX_PASSES", PASSES)
        mp.setitem(globals(), "reference_recover",
                   functools.partial(reference_recover, max_iter=PASSES))
        return _run(NEW, points, edges, polys), _run(REFERENCE, points, edges, polys)


def _insert_copy(insert, tri, pid, eps):
    tri = copy.deepcopy(tri)
    try:
        insert(tri, pid, eps)
    except MeshError as exc:
        return f"MeshError: {exc}"
    return _state(tri)


def _cycle(n):
    return [(k, (k + 1) % n) for k in range(n)]


# ---- point sets --------------------------------------------------------------------

_coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
_spacing = st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def square_lattice(draw):
    """nx x ny lattice, every cell a co-circular quadruple; rows may be staggered."""
    nx, ny = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    h, x0, y0 = draw(_spacing), draw(_coord), draw(_coord)
    stagger = draw(st.booleans())
    dy = h * math.sqrt(3.0) / 2.0 if stagger else h
    pts = [(x0 + (i + (0.5 if stagger and j % 2 else 0.0)) * h, y0 + j * dy)
           for j in range(ny) for i in range(nx)]
    return pts, []


@st.composite
def arc_samples(draw):
    """Samples of a circular arc, closed into a polygon, with or without the centre."""
    n = draw(st.integers(3, 24))
    r = draw(st.floats(0.05, 5.0))
    a0 = draw(st.floats(-math.pi, math.pi))
    sweep = draw(st.floats(0.3, 2.0 * math.pi))
    cx, cy = draw(_coord), draw(_coord)
    closed = sweep > 2.0 * math.pi - 1e-9
    ts = np.linspace(a0, a0 + sweep, n, endpoint=not closed)
    pts = [(cx + r * math.cos(t), cy + r * math.sin(t)) for t in ts]
    edges = _cycle(n) if closed or sweep < math.pi else []
    if draw(st.booleans()):
        pts.append((cx, cy))
    return pts, edges


@st.composite
def regular_polygon(draw):
    """Regular polygon vertices, all on one circle, plus the centre."""
    n = draw(st.integers(3, 16))
    r = draw(st.floats(0.05, 5.0))
    rot = draw(st.floats(0.0, 2.0 * math.pi))
    cx, cy = draw(_coord), draw(_coord)
    pts = [(cx + r * math.cos(rot + 2.0 * math.pi * k / n),
            cy + r * math.sin(rot + 2.0 * math.pi * k / n)) for k in range(n)]
    return pts + [(cx, cy)], _cycle(n)


@st.composite
def collinear_run(draw):
    """Evenly spaced points on one line, then a few points off it."""
    n = draw(st.integers(2, 12))
    h = draw(_spacing)
    ang = draw(st.sampled_from([0.0, math.pi / 2.0, math.pi / 4.0,
                                draw(st.floats(0.0, math.pi))]))
    x0, y0 = draw(_coord), draw(_coord)
    pts = [(x0 + k * h * math.cos(ang), y0 + k * h * math.sin(ang)) for k in range(n)]
    pts += draw(st.lists(st.tuples(_coord, _coord), min_size=0, max_size=3))
    return pts, []


@st.composite
def random_points(draw):
    return draw(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=30)), []


@st.composite
def point_sets(draw):
    pts, edges = draw(st.one_of(square_lattice(), arc_samples(), regular_polygon(),
                                collinear_run(), random_points()))
    dx, dy = draw(st.sampled_from(OFFSETS))
    return np.array(pts, dtype=float) + np.array([dx, dy]), edges


@st.composite
def star_polygons(draw):
    """A star-shaped polygon (vertices at sorted angles, random radii) as a
    constrained cycle, with random points inside and around it.  Its edges
    are rarely Delaunay edges, so recovery flips, and some cycles stall."""
    n = draw(st.integers(5, 14))
    angles = sorted(draw(st.lists(st.floats(0.0, 2.0 * math.pi, exclude_max=True),
                                  min_size=n, max_size=n, unique=True)))
    radii = draw(st.lists(st.floats(0.2, 2.0), min_size=n, max_size=n))
    ring = [(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]
    inner = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                          max_size=12))
    dx, dy = draw(st.sampled_from(OFFSETS))
    pts = np.array(ring + inner, dtype=float) + np.array([dx, dy])
    return pts, _cycle(n), [pts[:n]]


# A dart: vertex 0 inside the concave quadrilateral 1-2-3-4, whose reflex
# corner 4 lies above the mean of the four (0, -0.125): moving vertex 0 there
# turns two of its triangles over, so the move is undone.
DART = [(0.0, 0.7), (1.0, -1.0), (0.0, 1.0), (-1.0, -1.0), (0.0, 0.5)]
DART_TRIS = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1)]
# Vertex 0 with three neighbours on x = -0.0: their x sum is +0.0 from a 0.0
# start (np.mean's) and -0.0 from the first neighbour.  The move is undone.
SIGNED_ZERO = [(0.5, 0.0), (-0.0, 1.0), (-0.0, 0.0), (-0.0, -1.0)]
SIGNED_ZERO_TRIS = [(0, 1, 2), (0, 2, 3)]


@st.composite
def smoothing_cases(draw):
    """(points, triangles, fixed, dart centre, signed-zero centre): a wheel of
    9-16 spokes with random radii, a dart and a signed-zero fan, under a
    random vertex numbering.  Any wheel vertex may be fixed but its hub; the
    dart's and the fan's outer vertices always are."""
    k = draw(st.integers(9, 16))
    jitter = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    radii = draw(st.lists(st.floats(0.3, 1.5), min_size=k, max_size=k))
    x0, y0 = draw(_coord), draw(_coord)
    angles = [2.0 * math.pi * (i + 0.5 * u) / k for i, u in enumerate(jitter)]
    wheel = [(x0, y0)] + [(x0 + r * math.cos(a), y0 + r * math.sin(a))
                          for a, r in zip(angles, radii)]
    wheel_tris = [(0, 1 + i, 1 + (i + 1) % k) for i in range(k)]
    dx, dy = draw(_coord), draw(_coord)
    dart = [(x + dx, y + dy) for x, y in DART]
    points, triangles, fixed = [], [], set()
    for part, tris, rim_fixed in ((wheel, wheel_tris, False), (dart, DART_TRIS, True),
                                  (SIGNED_ZERO, SIGNED_ZERO_TRIS, True)):
        base = len(points)
        points += part
        triangles += [tuple(base + v for v in t) for t in tris]
        fixed |= {base + v for v in range(1, len(part))
                  if rim_fixed or draw(st.booleans())}
    ids = draw(st.permutations(range(len(points))))
    moved = np.empty((len(points), 2))
    moved[ids] = points
    return (moved, [tuple(ids[v] for v in t) for t in triangles], {ids[v] for v in fixed},
            ids[len(wheel)], ids[len(wheel) + len(DART)])


# ---- tests --------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_triangulate_matches_scalar_reference(case):
    """A closed constrained polygon is carved too, with itself as the region."""
    points, edges = case
    polys = [points[:len(edges)]] if edges else None
    new, ref = _both(points, edges, polys)
    assert new == ref


@settings(max_examples=60, deadline=None)
@given(point_sets(), st.tuples(_coord, _coord))
def test_insert_matches_reference_at_every_threshold(case, p):
    """Set eps so that one triangle's determinant sits exactly on -eps, for each
    live triangle in turn: the strict comparison and the operation order of
    the determinant decide whether that triangle joins the cavity.  The
    live-row insert must also match the all-rows insert and the np.unique
    insert it replaced."""
    points, edges = case
    try:
        tri = triangulate_pslg(points, edges)[0]
    except MeshError:
        return
    ref = reference_triangulate(points, edges)[0]
    assert _state(tri) == _state(ref)
    q = np.array(p) + points.mean(axis=0)
    pid = tri.add_point(q)
    assert ref.add_point(q) == pid
    for _, t in ref.live_triangles():
        eps = -_incircle_det(ref.points, t, ref.points[pid])
        new = _insert_copy(delaunay.bowyer_watson_insert, tri, pid, eps)
        assert new == _insert_copy(all_rows_insert, tri, pid, eps)
        assert new == _insert_copy(unique_insert, tri, pid, eps)
        assert new == _insert_copy(reference_insert, ref, pid, eps)


@pytest.mark.filterwarnings("error")    # in_region must not overflow on flat edges
@settings(max_examples=200, deadline=None)
@given(star_polygons())
def test_star_polygon_recovery_and_carve_match_reference(case):
    points, edges, polys = case
    new, ref = _both(points, edges, polys)
    assert new == ref


# A star 5-gon with 12 points around it whose edge (6, 7) never comes back:
# every pass flips the edges that cross it and makes new ones that do.
CYCLING_RING = [(0.29, 1.41), (-0.1, 1.96), (-0.5, 1.02), (-0.26, 0.29), (0.97, -1.06)]
CYCLING_INNER = [(0.22, -0.06), (-0.47, 0.59), (-0.42, 0.96), (-0.58, -0.73), (0.27, 0.33),
                 (0.58, -0.23), (0.07, -0.95), (-0.54, -0.01), (-0.8, -0.41), (0.25, -0.6),
                 (-0.33, -0.5), (-0.02, -0.77)]


def test_star_polygons_flip_and_fail_like_the_reference():
    """Fixed cases under every benchmark offset: a star 12-gon whose cycle is
    recovered by flips and then carved, a cycle that flips without end, and
    an edge split by a vertex on it, which nothing crosses."""
    angles = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    radii = np.where(np.arange(12) % 2, 0.3, 1.6)
    star = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    star = np.vstack([star, [(0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)]])
    cycling = np.array(CYCLING_RING + CYCLING_INNER)
    split = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (1.0, 0.0)])
    flips = []

    def counted_flip(tri, a, b):
        flips.append((a, b))
        return flip(tri, a, b)

    flip = delaunay.flip_edge
    for dx, dy in OFFSETS:
        for points, n, outcome in ((star, 12, tuple),
                                   (cycling, 5, "MeshError: edge recovery did not terminate"),
                                   (split, 3, "MeshError: edge (3,4) missing")):
            points = points + [dx, dy]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(delaunay, "flip_edge", counted_flip)
                new, ref = _both(points, _cycle(n), [points[:n]])
            assert new == ref
            assert isinstance(new, tuple) if outcome is tuple else new.startswith(outcome)
            assert flips or n == 3
            flips.clear()


def test_cycling_recovery_fails_at_its_first_repeat():
    """At RECOVER_MAX_PASSES the cycling case fails as soon as an edge set
    repeats, with the cap's message, not after its 10,000 passes."""
    for dx, dy in OFFSETS:
        points = np.array(CYCLING_RING + CYCLING_INNER) + [dx, dy]
        start = time.perf_counter()
        with pytest.raises(MeshError, match="edge recovery did not terminate"):
            triangulate_pslg(points, _cycle(5))
        assert time.perf_counter() - start < 0.5


def test_cocircular_lattice_and_fixture_offsets():
    """A 6 x 6 square lattice under every benchmark offset, with its boundary
    constrained: the co-circular cells resolve the same way as the reference."""
    h = 0.12
    grid = [(i * h, j * h) for j in range(6) for i in range(6)]
    ring = [0, 1, 2, 3, 4, 5, 11, 17, 23, 29, 35, 34, 33, 32, 31, 30, 24, 18, 12, 6]
    edges = [(ring[k], ring[(k + 1) % len(ring)]) for k in range(len(ring))]
    for dx, dy in OFFSETS:
        new, ref = _both(np.array(grid) + [dx, dy], edges)
        assert isinstance(new, tuple) and new == ref


def test_carve_with_hole_at_fixture_offsets():
    """A square with a square hole on a dyadic lattice under every benchmark
    offset: every triangle of a component has exactly the same area, so the
    classifier sees the centroid of the lowest-id triangle of each."""
    h = 0.125
    grid = [(i * h, j * h) for j in range(9) for i in range(9)]

    def ring(lo, hi):
        """Lattice ids around the square [lo, hi]^2, counter-clockwise."""
        side = [(i, lo) for i in range(lo, hi)] + [(hi, j) for j in range(lo, hi)]
        side += [(i, hi) for i in range(hi, lo, -1)] + [(lo, j) for j in range(hi, lo, -1)]
        return [j * 9 + i for i, j in side]

    outer, hole = ring(0, 8), ring(3, 5)[::-1]
    edges = [(loop[k - 1], loop[k]) for loop in (outer, hole) for k in range(len(loop))]
    for dx, dy in OFFSETS:
        points = np.array(grid) + [dx, dy]
        polys = [points[outer], points[hole]]
        new, ref = _both(points, edges, polys)
        assert isinstance(new, tuple) and new == ref
        assert len(new[1]) == 2                 # the region and the hole
        assert sum(new[0][1]) == 2 * 64 - 2 * 4


@settings(max_examples=200, deadline=None)
@given(smoothing_cases())
def test_smoothing_matches_reference(case):
    """Gauss-Seidel order, the summation from 0.0 and the undone moves give
    the reference's bytes; the dart's and the signed-zero fan's centres are
    put back."""
    points, triangles, fixed, dart, signed_zero = case
    start = points.copy()
    ref = points.copy()
    reference_smooth(ref, triangles, fixed)
    laplacian_smooth(points, triangles, fixed)
    assert points.tobytes() == ref.tobytes()
    assert points[[dart, signed_zero]].tobytes() == start[[dart, signed_zero]].tobytes()


@pytest.mark.parametrize("target_h", [0.35, 0.12])
@pytest.mark.parametrize("name", ["half_disc", "nautilus", "polygon_III", "geometry_I",
                                  "naca_IV", "holed_nautilus"])
def test_smoothing_matches_reference_on_fixture_meshes(monkeypatch, name, target_h):
    """Each fixture's background mesh is smoothed to the reference's bytes."""
    same = []

    def both(points, triangles, fixed):
        ref = points.copy()
        reference_smooth(ref, triangles, fixed)
        laplacian_smooth(points, triangles, fixed)
        same.append(points.tobytes() == ref.tobytes())

    monkeypatch.setattr(trimesh, "laplacian_smooth", both)
    trimesh.generate_background_mesh(load_fixture(name), target_h)
    assert same == [True]


def _coords_after_flips(points, edges, polys):
    """Flips of meshing and carving the polygon, after checking that row t of
    coords is points[table[t]]; None if meshing fails."""
    flips = []

    def counted_flip(tri, a, b):
        flips.append((a, b))
        return flip(tri, a, b)

    flip = delaunay.flip_edge
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delaunay, "RECOVER_MAX_PASSES", PASSES)
        mp.setattr(delaunay, "flip_edge", counted_flip)
        try:
            tri, super_ids = triangulate_pslg(points, edges)
        except MeshError:
            return None
    delaunay.carve(tri, super_ids, {tuple(sorted((i + 3, j + 3))) for i, j in edges},
                   lambda pt: in_region(pt, polys[0], []))
    assert tri.coords.tobytes() == tri.points[tri.table].tobytes()
    return flips


@settings(max_examples=100, deadline=None)
@given(star_polygons())
def test_coordinate_table_holds_the_points_of_every_row(case):
    _coords_after_flips(*case)


def test_coordinate_table_holds_the_points_after_flips():
    """A star 12-gon with four inner points, recovered by flips, under every
    benchmark offset."""
    angles = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    radii = np.where(np.arange(12) % 2, 0.3, 1.6)
    star = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    star = np.vstack([star, [(0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)]])
    for offset in OFFSETS:
        points = star + offset
        assert _coords_after_flips(points, _cycle(12), [points[:12]])
