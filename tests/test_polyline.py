import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quadfield import polyline
from quadfield.polyline import BBOX_PAD, END_TOL, PARALLEL_TOL


# ---- references: the scalar loops and the full pair table the module replaces ---


def _seg_intersection(p, p2, q, q2):
    """Proper intersection point of two closed segments, or None."""
    r = p2 - p
    s = q2 - q
    denom = r[0] * s[1] - r[1] * s[0]
    if abs(denom) < 1e-18:
        return None
    dq = q - p
    t = (dq[0] * s[1] - dq[1] * s[0]) / denom
    u = (dq[0] * r[1] - dq[1] * r[0]) / denom
    if 1e-9 < t < 1 - 1e-9 and 1e-9 < u < 1 - 1e-9:
        return p + t * r
    return None


def _seg_boxes_meet(p, p2, q, q2):
    """Whether the boxes of two segments, each grown by 1e-12, overlap."""
    return all(min(p[k], p2[k]) - 1e-12 <= max(q[k], q2[k]) + 1e-12
               and min(q[k], q2[k]) - 1e-12 <= max(p[k], p2[k]) + 1e-12
               for k in (0, 1))


def _polyline_intersections(pa, pb, skip_ends=True):
    """Proper crossings between two dense polylines: list of (sa, point).

    Only segment pairs whose grown boxes overlap are tested: a proper
    crossing lies in both boxes, and near-parallel segments far apart give
    false hits through rounding.
    """
    out = []
    la = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pa, axis=0).T))])
    for i in range(len(pa) - 1):
        for j in range(len(pb) - 1):
            if not _seg_boxes_meet(pa[i], pa[i + 1], pb[j], pb[j + 1]):
                continue
            x = _seg_intersection(pa[i], pa[i + 1], pb[j], pb[j + 1])
            if x is not None:
                frac = np.hypot(*(x - pa[i]))
                out.append((la[i] + frac, x))
    return out


def _full_table_crossings(pa, pb):
    """Proper crossings of two polylines as arrays (i, j, t, u).

    Segment i of pa, at fraction t along it, crosses segment j of pb at
    fraction u along that one.  Pairs come in row-major order: i along pa,
    then j along pb.
    """
    amin = pa.min(axis=0) - BBOX_PAD
    amax = pa.max(axis=0) + BBOX_PAD
    if (pb.max(axis=0) < amin).any() or (pb.min(axis=0) > amax).any():
        none = np.empty(0, dtype=int)
        return none, none, np.empty(0), np.empty(0)
    r = np.diff(pa, axis=0)[:, None, :]
    s = np.diff(pb, axis=0)[None, :, :]
    dq = pb[None, :-1, :] - pa[:-1, None, :]
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    ok = np.abs(denom) >= PARALLEL_TOL
    denom = np.where(ok, denom, 1.0)
    t = (dq[..., 0] * s[..., 1] - dq[..., 1] * s[..., 0]) / denom
    u = (dq[..., 0] * r[..., 1] - dq[..., 1] * r[..., 0]) / denom
    hit = (ok & (END_TOL < t) & (t < 1 - END_TOL)
           & (END_TOL < u) & (u < 1 - END_TOL))
    i, j = np.nonzero(hit)
    return i, j, t[i, j], u[i, j]


def _dist_to_polyline(poly, point):
    best = math.inf
    for i in range(len(poly) - 1):
        a, b = poly[i], poly[i + 1]
        ab = b - a
        L2 = float(ab @ ab)
        f = 0.0 if L2 == 0 else float(np.clip((point - a) @ ab / L2, 0.0, 1.0))
        best = min(best, float(np.hypot(*(a + f * ab - point))))
    return best


def _split_polyline_at(poly, point):
    """Split a dense polyline at the given on-curve point."""
    d2 = np.sum((poly - point) ** 2, axis=1)
    best, bestf, bestd = 0, 0.0, math.inf
    for i in range(len(poly) - 1):
        a, b = poly[i], poly[i + 1]
        ab = b - a
        L2 = float(ab @ ab)
        f = 0.0 if L2 == 0 else float(np.clip((point - a) @ ab / L2, 0.0, 1.0))
        p = a + f * ab
        d = float(np.hypot(*(p - point)))
        if d < bestd:
            best, bestf, bestd = i, f, d
    first = np.vstack([poly[:best + 1], [point]])
    second = np.vstack([[point], poly[best + 1:]])
    if len(second) < 2:
        second = np.vstack([[point], poly[-1:]])
    return first, second


# ---- strategies ----------------------------------------------------------------

# small integers give exact collinear, parallel and vertex-on-segment cases
coord = st.one_of(st.integers(-4, 4).map(float),
                  st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))
point = st.tuples(coord, coord).map(lambda p: np.array(p, dtype=float))
polylines = st.lists(st.tuples(coord, coord), min_size=2, max_size=12).map(
    lambda pts: np.array(pts, dtype=float))


@st.composite
def polyline_pairs(draw):
    pa = draw(polylines)
    kind = draw(st.sampled_from(
        ["random", "parallel", "collinear", "shared", "disjoint", "reversed"]))
    if kind == "random":
        pb = draw(polylines)
    elif kind == "parallel":
        pb = pa + draw(point)
    elif kind == "collinear":
        i = draw(st.integers(0, len(pa) - 2))
        ks = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
                           | st.floats(-1.0, 2.0), min_size=2, max_size=6))
        pb = pa[i] + np.outer(ks, pa[i + 1] - pa[i])
    elif kind == "shared":
        pb = draw(polylines)
        pb[0] = pa[draw(st.integers(0, len(pa) - 1))]
        pb[-1] = pa[draw(st.integers(0, len(pa) - 1))]
    elif kind == "disjoint":
        pb = draw(polylines) + np.array([100.0, -50.0])
    else:
        pb = pa[::-1].copy()
    return pa, pb, kind


def assert_same_hits(new, ref):
    assert len(new) == len(ref)
    for (s_new, x_new), (s_ref, x_ref) in zip(new, ref):
        assert np.float64(s_new).tobytes() == np.float64(s_ref).tobytes()
        assert np.asarray(x_new).tobytes() == np.asarray(x_ref).tobytes()


# ---- intersections ---------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(polyline_pairs())
@example((np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]),
          np.array([[0.0, 1.0], [2.0, 1.0 / 3.0], [0.0, 0.2]]), "random"))
@example((np.array([[-1.0, 1.0], [1.5, 0.9], [4.0, 1.1]]),      # 3 hits
          np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 0.0], [3.0, 2.0]]), "random"))
def test_intersections_match_segment_loop(pair):
    pa, pb, kind = pair
    new = polyline.intersections(pa, pb)
    assert_same_hits(new, _polyline_intersections(pa, pb))
    if kind == "disjoint":
        assert new == []


def _dense(ctrl, k):
    """ctrl with k - 1 evenly spaced points inserted into each of its segments."""
    f = (np.arange(k) / k)[:, None]
    pts = ctrl[:-1, None] + f * (ctrl[1:] - ctrl[:-1])[:, None]
    return np.vstack([pts.reshape(-1, 2), ctrl[-1:]])


@st.composite
def chunked_pairs(draw):
    """Densified polylines of up to about 10 broad-phase chunks each."""
    limit = 10 * polyline.CHUNK

    def dense_polyline():
        ctrl = draw(polylines)
        return _dense(ctrl, draw(st.integers(1, max(1, limit // (len(ctrl) - 1)))))

    pa = dense_polyline()
    kind = draw(st.sampled_from(
        ["crossing", "touching", "collinear", "near_parallel", "disjoint"]))
    if kind == "crossing":
        pb = dense_polyline()
    elif kind == "touching":
        # control points on pa's vertices and segments: vertex and T touches
        idx = draw(st.lists(st.integers(0, len(pa) - 2), min_size=2, max_size=8))
        f = draw(st.sampled_from([0.0, 0.5, 0.25]))
        ctrl = np.array([pa[i] + f * (pa[i + 1] - pa[i]) for i in idx])
        pb = _dense(ctrl, draw(st.integers(1, 40)))
    elif kind == "collinear":
        i0 = draw(st.integers(0, len(pa) - 2))
        i1 = draw(st.integers(i0 + 1, len(pa) - 1))
        pb = pa[i0:i1 + 1].copy()
        if draw(st.booleans()):
            pb = pb[::-1].copy()
    elif kind == "near_parallel":
        i0 = draw(st.integers(0, len(pa) - 2))
        pb = pa[i0:].copy() + draw(st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6])) * \
            np.array(draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, -1.0)])))
    else:
        pb = dense_polyline() + np.array([100.0, -50.0])
    return pa, pb


def _order_example():
    # pa's first chunk meets pb's first chunk at i = 20 and a later chunk of
    # pb at i = 10; pa's partial last chunk meets pb's partial last chunk
    pa = np.column_stack([np.arange(101.0), np.zeros(101)])
    pb = _dense(np.array([[20.5, -1.0], [20.5, 1.3], [10.5, 1.3], [10.5, -1.0],
                          [60.0, -1.0], [98.5, -0.9], [98.5, 0.3]]), 17)
    return pa, pb


@settings(max_examples=300, deadline=None)
@given(chunked_pairs())
@example(_order_example())
def test_crossings_match_the_full_pair_table(pair):
    """On every segment pair whose grown boxes overlap, crossings gives the
    full table's (i, j, t, u) bytes in the same row-major order."""
    pa, pb = pair
    i, j, t, u = _full_table_crossings(pa, pb)
    keep = np.array([_seg_boxes_meet(pa[a], pa[a + 1], pb[b], pb[b + 1])
                     for a, b in zip(i, j)], dtype=bool)
    want = (i[keep], j[keep], t[keep], u[keep])
    got = polyline.crossings(pa, pb)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def test_order_example_spans_chunks_out_of_row_order():
    pa, pb = _order_example()
    i, j, _, _ = _full_table_crossings(pa, pb)
    assert i.tolist() == [10, 20, 98]
    assert j[0] // polyline.CHUNK > j[1] // polyline.CHUNK      # not chunk-pair order
    last = 3 * polyline.CHUNK               # 100 and 102 segments: partial 4th chunks
    assert len(pa) - 1 < 4 * polyline.CHUNK and len(pb) - 1 < 4 * polyline.CHUNK
    assert i[2] >= last and j[2] >= last


# near-parallel segments whose boxes are disjoint: rounding in t and u gave
# a "crossing" inside both, and other segments made the polyline boxes overlap
FAR_NEAR_PARALLEL = [
    (np.array([[0.9375351813103654, 1.8838060356745183],
               [6.779685293657197, 2.025728713678817],
               [6.010907937657133, 33.67192352822032],
               [24.998624826382038, 34.133189941820355]]),
     np.array([[10.66255853870709, 2.1200549050110276],
               [6.853982436692281, 2.027533605594436]])),
    (np.array([[-9.076895371880905, -5.839154512618028],
               [-4.068592582407246, 1.841225150768346],
               [4.0, 6.0]]),
     np.array([[-3.670514033627667, 2.451690316113979],
               [1.2773626603482824, 10.03940478442192]])),
]


@pytest.mark.parametrize("pa, pb", FAR_NEAR_PARALLEL, ids=["pair_a", "pair_b"])
def test_far_near_parallel_segments_do_not_cross(pa, pb):
    i, _, _, _ = _full_table_crossings(pa, pb)
    assert i.tolist() == [0]                       # the false hit of the full table
    assert not _seg_boxes_meet(pa[0], pa[1], pb[0], pb[1])
    i, j, t, u = polyline.crossings(pa, pb)
    assert len(i) == len(j) == len(t) == len(u) == 0
    assert polyline.intersections(pa, pb) == []


# ---- projection ------------------------------------------------------------------


@st.composite
def polyline_and_point(draw):
    poly = draw(polylines)
    kind = draw(st.sampled_from(["free", "vertex", "on_segment", "crossing"]))
    if kind == "free":
        pt = draw(point)
    elif kind == "vertex":
        pt = poly[draw(st.integers(0, len(poly) - 1))].copy()
    elif kind == "on_segment":
        i = draw(st.integers(0, len(poly) - 2))
        f = draw(st.floats(0.0, 1.0))
        pt = poly[i] + f * (poly[i + 1] - poly[i])
    else:
        hits = polyline.intersections(poly, draw(polylines))
        pt = hits[0][1] if hits else draw(point)
    return poly, pt


@settings(max_examples=400, deadline=None)
@given(polyline_and_point())
@example((np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0], [2.0, 0.0], [2.0, 2.0]]),
          np.array([2.0, 1.0])))                    # zero-length segments
def test_nearest_segment_and_split_match_projection_loop(case):
    poly, pt = case
    first_ref, second_ref = _split_polyline_at(poly, pt)
    i, d = polyline.nearest_segment(poly, pt)
    assert i == len(first_ref) - 2
    assert np.float64(d).tobytes() == np.float64(_dist_to_polyline(poly, pt)).tobytes()
    first, second = polyline.split_at(poly, pt)
    assert first.tobytes() == first_ref.tobytes()
    assert second.tobytes() == second_ref.tobytes()


# ---- arclength ------------------------------------------------------------------


def test_cumlen_midpoint_direction():
    poly = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0], [3.0, 5.0]])
    assert polyline.cumlen(poly).tolist() == [0.0, 3.0, 7.0, 8.0]
    assert polyline.midpoint(poly).tolist() == [3.0, 1.0]
    assert polyline.direction(poly, 0) == 0.0
    assert polyline.direction(poly, 1) == math.atan2(4.0, 3.0)
    assert polyline.direction(poly, 3) == math.pi / 2
    knots = polyline.cumlen(poly)
    assert polyline.sample(poly, knots, [1.5, 7.5]).tolist() == [[1.5, 0.0],
                                                                  [3.0, 4.5]]
