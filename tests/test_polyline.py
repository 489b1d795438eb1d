import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from quadfield import polyline


# ---- per-segment reference: the scalar loops the module replaces -------------


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


def _polyline_intersections(pa, pb, skip_ends=True):
    """Proper crossings between two dense polylines: list of (sa, point)."""
    out = []
    amin = pa.min(axis=0) - 1e-12
    amax = pa.max(axis=0) + 1e-12
    if (pb.max(axis=0) < amin).any() or (pb.min(axis=0) > amax).any():
        return out
    la = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pa, axis=0).T))])
    for i in range(len(pa) - 1):
        for j in range(len(pb) - 1):
            x = _seg_intersection(pa[i], pa[i + 1], pb[j], pb[j + 1])
            if x is not None:
                frac = np.hypot(*(x - pa[i]))
                out.append((la[i] + frac, x))
    return out


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
