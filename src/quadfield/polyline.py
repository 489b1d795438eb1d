"""Polyline geometry shared by the tracer, the subdivision and the blocks.

A polyline is an (n, 2) float array of points joined by straight segments.
Each function evaluates all segments in one numpy pass, and every value is
bit-identical to the scalar per-segment formula that tests/test_polyline.py
keeps as the reference.

Crossings keep a box contract.  A box is the coordinate range of a segment
or a polyline, grown by BBOX_PAD on each side (bbox), and two segments are
tested only if their boxes meet (boxes_meet).  A proper crossing lies in
both boxes, so the contract drops only the false hits that rounding makes
between near-parallel segments far apart.  A broad phase (Ericson,
Real-Time Collision Detection, 2004, ch. 7) finds the pairs to test on two
levels, without the full (n - 1) x (m - 1) pair table:

- records: a caller that keeps a polyline's bbox (blockdecomp.EdgeRec.box)
  skips a pair of polylines whose boxes do not meet, with no numpy call;
- segments: crossings cuts both polylines into chunks of CHUNK segments,
  tests the chunk boxes against each other, then the segment boxes inside
  the chunk pairs that meet, and runs the narrow test on the pairs left.

Memory is O(n + m + candidates).
"""

from __future__ import annotations

import math

import numpy as np

PARALLEL_TOL = 1e-18    # |cross(r, s)| below this: the segments never cross
END_TOL = 1e-9          # crossings must lie this far inside both segments
BBOX_PAD = 1e-12        # boxes grow by this on each side
CHUNK = 32              # segments per box of the broad phase in crossings


def seglen(poly):
    """Lengths of the n - 1 segments."""
    return np.hypot(*np.diff(poly, axis=0).T)


def cumlen(poly):
    """Cumulative arclength at each point, starting at 0."""
    return np.concatenate([[0.0], np.cumsum(seglen(poly))])


def sample(poly, knots, s):
    """Points at parameters s, linear between the knots of poly's points."""
    return np.stack([np.interp(s, knots, poly[:, 0]),
                     np.interp(s, knots, poly[:, 1])], axis=1)


def signed_area(poly):
    """Shoelace area of the closed polygon through the points; > 0 if counterclockwise."""
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _rowdot(a, b):
    # stacked matmul runs the BLAS dot of `a[i] @ b[i]` per row, so the
    # rounding (fused or not) is that of the scalar expression
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def bbox(poly):
    """(xmin, ymin, xmax, ymax) of poly's points, grown by BBOX_PAD on each side."""
    lo = poly.min(axis=0) - BBOX_PAD
    hi = poly.max(axis=0) + BBOX_PAD
    return (*lo.tolist(), *hi.tolist())


def boxes_meet(a, b):
    """Whether two boxes as bbox gives them overlap; touching counts.

    a and b may also be arrays of boxes along their first axis, which
    broadcast against each other.
    """
    return (a[0] <= b[2]) & (b[0] <= a[2]) & (a[1] <= b[3]) & (b[1] <= a[3])


def _segment_boxes(poly):
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


def crossings(pa, pb):
    """Proper crossings of two polylines as arrays (i, j, t, u).

    Segment i of pa, at fraction t along it, crosses segment j of pb at
    fraction u along that one.  Pairs come in row-major order: i along pa,
    then j along pb.  Only segment pairs whose boxes (see bbox) meet are tested;
    a proper crossing lies in both boxes, so this drops only the false hits
    that rounding makes between near-parallel segments far apart.
    """
    sa, sb = _segment_boxes(pa), _segment_boxes(pb)
    ba, bb = _chunk_boxes(sa), _chunk_boxes(sb)
    # CHUNK chunks of pa against all of pb's at a time: O(m) table entries
    ca, cb = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for row in range(0, ba.shape[1], CHUNK):
        c, d = np.nonzero(boxes_meet(ba[:, row:row + CHUNK, None], bb[:, None]))
        ca.append(c + row)
        cb.append(d)
    ca, cb = np.concatenate(ca), np.concatenate(cb)
    k, a, b = np.nonzero(boxes_meet(sa[:, ca, :, None], sb[:, cb, None, :]))
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


def intersections(pa, pb):
    """Proper crossings of two polylines as a list of (arclength along pa, point).

    Segment pairs come in row-major order: i along pa, then j along pb.
    """
    i, _, t, _ = crossings(pa, pb)
    if not len(i):
        return []
    x = pa[i] + t[:, None] * (pa[i + 1] - pa[i])
    s_along = cumlen(pa)[i] + np.hypot(*(x - pa[i]).T)
    return list(zip(s_along, x))


def nearest_segment(poly, point):
    """(i, distance) of the segment of poly nearest to point; first on ties."""
    a = poly[:-1]
    ab = poly[1:] - a
    L2 = _rowdot(ab, ab)
    degenerate = L2 == 0
    f = np.clip(_rowdot(point - a, ab) / np.where(degenerate, 1.0, L2), 0.0, 1.0)
    f[degenerate] = 0.0
    d = np.hypot(*(a + f[:, None] * ab - point).T)
    i = int(np.argmin(d))
    return i, float(d[i])


def split_at(poly, point):
    """(first, second) halves of poly, cut at a point on or next to it."""
    i, _ = nearest_segment(poly, point)
    return (np.vstack([poly[:i + 1], [point]]),
            np.vstack([[point], poly[i + 1:]]))


def direction(poly, i):
    """Angle of the central-difference tangent at point i, one-sided at the ends."""
    d = poly[min(i + 1, len(poly) - 1)] - poly[max(i - 1, 0)]
    return math.atan2(d[1], d[0])


def midpoint(poly):
    """The point halfway along poly by arclength."""
    cum = cumlen(poly)
    smid = 0.5 * cum[-1]
    i = int(np.searchsorted(cum, smid) - 1)
    i = max(0, min(i, len(poly) - 2))
    f = (smid - cum[i]) / max(cum[i + 1] - cum[i], 1e-300)
    return poly[i] + f * (poly[i + 1] - poly[i])
