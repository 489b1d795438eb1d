"""Vectorized Bowyer-Watson insertion against the scalar per-triangle reference."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadfield import delaunay
from quadfield.delaunay import _orient, triangulate_pslg
from quadfield.errors import MeshError

# The benchmark's exact rigid translations of the shipped fixtures.
OFFSETS = ((0.0, 0.0), (0.5, -0.25), (-0.75, 1.0), (1.25, 0.5))


# ---- scalar reference: one in-circle call per live triangle --------------------


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


def _state(tri):
    return tri.triangles, tri.edge_map, tri.points.tolist()


def _outcome(fn, *args):
    """_state of the triangulation fn returns or modifies, or the MeshError text."""
    try:
        return _state(fn(*args))
    except MeshError as exc:
        return f"MeshError: {exc}"


def _triangulate(points, edges):
    return triangulate_pslg(points, edges)[0]


def _insert_copy(insert, tri, pid, eps):
    tri = copy.deepcopy(tri)
    insert(tri, pid, eps)
    return tri


def _triangulate_both(points, edges):
    new = _outcome(_triangulate, points, edges)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delaunay, "bowyer_watson_insert", reference_insert)
        ref = _outcome(_triangulate, points, edges)
    return new, ref


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


# ---- tests --------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_triangulate_matches_scalar_reference(case):
    points, edges = case
    new, ref = _triangulate_both(points, edges)
    assert new == ref


@settings(max_examples=60, deadline=None)
@given(point_sets(), st.tuples(_coord, _coord))
def test_insert_matches_reference_at_every_threshold(case, p):
    """Set eps so that one triangle's determinant sits exactly on -eps, for each
    live triangle in turn: the strict comparison and the operation order of
    the determinant decide whether that triangle joins the cavity."""
    points, edges = case
    try:
        tri = _triangulate(points, edges)
    except MeshError:
        return
    pid = tri.add_point(np.array(p) + points.mean(axis=0))
    q = tri.points[pid]
    for _, t in tri.live_triangles():
        eps = -_incircle_det(tri.points, t, q)
        new = _outcome(_insert_copy, delaunay.bowyer_watson_insert, tri, pid, eps)
        assert new == _outcome(_insert_copy, reference_insert, tri, pid, eps)


def test_cocircular_lattice_and_fixture_offsets():
    """A 6 x 6 square lattice under every benchmark offset, with its boundary
    constrained: the co-circular cells resolve the same way as the reference."""
    h = 0.12
    grid = [(i * h, j * h) for j in range(6) for i in range(6)]
    ring = [0, 1, 2, 3, 4, 5, 11, 17, 23, 29, 35, 34, 33, 32, 31, 30, 24, 18, 12, 6]
    edges = [(ring[k], ring[(k + 1) % len(ring)]) for k in range(len(ring))]
    for dx, dy in OFFSETS:
        new, ref = _triangulate_both(np.array(grid) + [dx, dy], edges)
        assert isinstance(new, tuple) and new == ref

