import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quadfield import polyline
from quadfield.polyline import BBOX_PAD, CHUNK, END_TOL, PARALLEL_TOL


# ---- references: the scalar loops, the full pair table and the chunk-row
# ---- broad phase that the module replaces ----------------------------------------


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


def _chunked_segment_boxes(poly):
    """Padded segment boxes of poly in chunks, shape (4, chunks, CHUNK).

    The last chunk is filled up with empty boxes (lo = inf, hi = -inf),
    which meet nothing.
    """
    a, b = poly[:-1], poly[1:]
    n = len(a)
    boxes = np.empty((4, -(-n // CHUNK) * CHUNK))
    boxes[:2, :n] = (np.minimum(a, b) - BBOX_PAD).T
    boxes[2:, :n] = (np.maximum(a, b) + BBOX_PAD).T
    boxes[:2, n:] = np.inf
    boxes[2:, n:] = -np.inf
    return boxes.reshape(4, -1, CHUNK)


def _chunk_boxes(seg_boxes):
    return np.concatenate([seg_boxes[:2].min(axis=2), seg_boxes[2:].max(axis=2)])


def chunk_row_crossings(pa, pb):
    """Proper crossings of two polylines as arrays (i, j, t, u).

    The broad phase before pair_crossings: CHUNK chunks of pa against all of
    pb's at a time, then the segment boxes inside the chunk pairs that meet.
    """
    sa, sb = _chunked_segment_boxes(pa), _chunked_segment_boxes(pb)
    ba, bb = _chunk_boxes(sa), _chunk_boxes(sb)
    # CHUNK chunks of pa against all of pb's at a time: O(m) table entries
    ca, cb = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for row in range(0, ba.shape[1], CHUNK):
        c, d = np.nonzero(polyline.boxes_meet(ba[:, row:row + CHUNK, None], bb[:, None]))
        ca.append(c + row)
        cb.append(d)
    ca, cb = np.concatenate(ca), np.concatenate(cb)
    k, a, b = np.nonzero(polyline.boxes_meet(sa[:, ca, :, None], sb[:, cb, None, :]))
    if not len(k):
        return k, k, np.empty(0), np.empty(0)
    i = ca[k] * CHUNK + a
    j = cb[k] * CHUNK + b
    r = pa[i + 1] - pa[i]
    s = pb[j + 1] - pb[j]
    dq = pb[j] - pa[i]
    denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    ok = np.abs(denom) >= PARALLEL_TOL
    denom = np.where(ok, denom, 1.0)
    t = (dq[:, 0] * s[:, 1] - dq[:, 1] * s[:, 0]) / denom
    u = (dq[:, 0] * r[:, 1] - dq[:, 1] * r[:, 0]) / denom
    hit = (ok & (END_TOL < t) & (t < 1 - END_TOL)
           & (END_TOL < u) & (u < 1 - END_TOL))
    order = np.flatnonzero(hit)
    order = order[np.lexsort((j[order], i[order]))]
    return i[order], j[order], t[order], u[order]


def chunk_row_intersections(pa, pb):
    """Proper crossings of two polylines as a list of (arclength along pa, point).

    Segment pairs come in row-major order: i along pa, then j along pb.
    """
    i, _, t, _ = chunk_row_crossings(pa, pb)
    if not len(i):
        return []
    x = pa[i] + t[:, None] * (pa[i + 1] - pa[i])
    s_along = polyline.cumlen(pa)[i] + np.hypot(*(x - pa[i]).T)
    return list(zip(s_along, x))


def reference_bbox(poly):
    """(xmin, ymin, xmax, ymax) of poly's points, grown by BBOX_PAD on each side."""
    lo = poly.min(axis=0) - BBOX_PAD
    hi = poly.max(axis=0) + BBOX_PAD
    return (*lo.tolist(), *hi.tolist())


def reference_intersections(pa, pb):
    """Proper crossings of two polylines as a list of (arclength along pa, point).

    Segment pairs come in row-major order: i along pa, then j along pb.
    """
    i, _, t, _ = polyline.crossings(pa, pb)
    if not len(i):
        return []
    return list(zip(*polyline.points_along(pa, i, t)))


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
    new = reference_intersections(pa, pb)
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
    assert reference_intersections(pa, pb) == []


# ---- batched crossings ------------------------------------------------------------

half = st.integers(-4, 4).map(lambda k: k / 2)      # box sides on cell edges


@st.composite
def polyline_sets(draw):
    """Up to six polylines and distinct (a, b) pairs of them, self-pairs included.

    Besides random and densified polylines: zero-length segments, all points
    equal, points on a lattice of halves (boxes that touch exactly, on the
    grid's cell edges too) and near copies of an earlier polyline.
    """
    polys = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(
            ["random", "dense", "repeated", "all_equal", "lattice", "shifted"]))
        if kind == "random":
            poly = draw(polylines)
        elif kind == "dense":
            ctrl = draw(polylines)
            poly = _dense(ctrl, draw(st.integers(1, max(1, 8 * CHUNK // (len(ctrl) - 1)))))
        elif kind == "repeated":
            poly = draw(polylines)
            poly = np.repeat(poly, draw(st.lists(st.integers(1, 3), min_size=len(poly),
                                                 max_size=len(poly))), axis=0)
        elif kind == "all_equal":
            poly = np.repeat(draw(point)[None], draw(st.integers(2, 2 * CHUNK + 3)), axis=0)
        elif kind == "lattice":
            poly = np.array(draw(st.lists(st.tuples(half, half), min_size=2,
                                          max_size=3 * CHUNK)), dtype=float)
        else:
            base = polys[draw(st.integers(0, len(polys) - 1))] if polys else draw(polylines)
            poly = base + draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 0.5])) * \
                np.array(draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, -1.0)])))
            if draw(st.booleans()):
                poly = poly[::-1].copy()
        polys.append(poly)
    n = len(polys)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          unique=True, max_size=3 * n))
    return polys, pairs


def _chunk_row_table(polys, pairs):
    """(p, i, j, t, u) of chunk_row_crossings, pair by pair."""
    parts = [chunk_row_crossings(polys[a], polys[b]) for a, b in pairs]
    p = [np.full(len(part[0]), k, dtype=np.intp) for k, part in enumerate(parts)]
    empty = (np.empty(0, dtype=np.intp),) * 3 + (np.empty(0),) * 2
    columns = [p] + [[part[m] for part in parts] for m in range(4)]
    return tuple(np.concatenate([e] + column) for e, column in zip(empty, columns))


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@settings(max_examples=300, deadline=None)
@given(polyline_sets())
@example(([np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0]]),
           np.array([[0.0, 2.0], [2.0, 0.0], [0.0, 1.0]])], [(0, 1), (1, 0), (0, 0)]))
def test_pair_crossings_match_the_chunk_row_crossings(case):
    """Every hit of every pair, bitwise, sorted by pair and then row-major,
    with the chunk boxes computed here or handed in."""
    polys, pairs = case
    want = _chunk_row_table(polys, pairs)
    assert_same_arrays(polyline.pair_crossings(polys, pairs), want)
    boxes = [polyline.chunk_boxes(q) for q in polys]
    assert_same_arrays(polyline.pair_crossings(polys, pairs, boxes), want)


@settings(max_examples=200, deadline=None)
@given(chunked_pairs())
@example(_order_example())
def test_crossings_match_the_chunk_row_crossings(pair):
    pa, pb = pair
    assert_same_arrays(polyline.crossings(pa, pb), chunk_row_crossings(pa, pb))
    assert_same_hits(reference_intersections(pa, pb), chunk_row_intersections(pa, pb))


@st.composite
def box_sets(draw):
    """(4, n) boxes with corners on a lattice of halves, some long, some not finite."""
    n = draw(st.integers(1, 40))
    lo = np.array(draw(st.lists(st.tuples(half, half), min_size=n, max_size=n)))
    side = st.sampled_from([0.0, 0.5, 1.0, 1.5, 4.0]) | st.floats(0.0, 8.0)
    boxes = np.concatenate([lo.T, lo.T + np.array(
        draw(st.lists(st.tuples(side, side), min_size=n, max_size=n))).T])
    for k in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        boxes[draw(st.integers(0, 3)), k] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return boxes


@settings(max_examples=300, deadline=None)
@given(box_sets())
@example(np.concatenate([np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]).T,
                         np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0], [2.0, 2.0]]).T]))
def test_meeting_boxes_match_the_pair_table(boxes):
    """Each pair of finite boxes that meet, once, with c1 <= c2."""
    c1, c2 = polyline.meeting_boxes(boxes)
    got = list(zip(c1.tolist(), c2.tolist()))
    finite = np.isfinite(boxes).all(axis=0)
    table = polyline.boxes_meet(boxes[:, :, None], boxes[:, None, :])
    want = {(a, b) for a, b in zip(*np.nonzero(table)) if a <= b and finite[a] and finite[b]}
    assert len(got) == len(set(got))
    assert set(got) == want


def test_boxes_that_touch_on_a_cell_edge_meet_once():
    """Unit squares on the integer lattice: the cell side is 1, so every two
    neighbours touch exactly on a cell edge, and each pair is found once."""
    lo = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [3.0, 3.0]]).T
    boxes = np.concatenate([lo, lo + 1.0])
    cl, ch = polyline.grid_cells(boxes)
    assert ch[0, 0] == cl[0, 1] == 1 and ch[1, 0] == cl[1, 2] == 1
    c1, c2 = polyline.meeting_boxes(boxes)
    touching = [(a, b) for a in range(4) for b in range(a, 4)] + [(4, 4)]
    assert sorted(zip(c1.tolist(), c2.tolist())) == touching


def test_a_ray_across_a_dense_polyline_adds_linear_grid_entries(monkeypatch):
    """The ray_crossings shape: a 2-point segment across the whole domain
    against a wavy circle of 20,001 points.  The hits are the chunk-row
    ones.  At the median chunk side the ray's box alone would cover about
    57,000 cells; the grid's cell entries stay within 4 per box."""
    theta = np.linspace(0.0, 2 * math.pi, 20_001)
    dense = 0.5 + (0.4 + 0.02 * np.sin(50 * theta))[:, None] * np.column_stack(
        [np.cos(theta), np.sin(theta)])
    ray = np.array([[-0.1, -0.05], [1.1, 1.05]])
    entries = []
    grid_cells = polyline.grid_cells

    def recorded(boxes):
        lo, hi = grid_cells(boxes)
        entries.append(((hi - lo + 1).prod(axis=0), boxes.shape[1]))
        return lo, hi

    monkeypatch.setattr(polyline, "grid_cells", recorded)
    for pa, pb in ((ray, dense), (dense, ray)):
        got = polyline.crossings(pa, pb)
        assert len(got[0]) == 2
        assert_same_arrays(got, chunk_row_crossings(pa, pb))
    assert len(entries) == 2
    for cells, n in entries:
        assert n == 1 + -(-20_000 // CHUNK)
        assert cells.max() > 50                        # the ray's box
        assert cells.sum() <= 4 * n


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
        hits = reference_intersections(poly, draw(polylines))
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
