"""Polyline geometry shared by the tracer, the subdivision and the blocks.

A polyline is an (n, 2) float array of points joined by straight segments.
Each function evaluates all segments in one numpy pass, and every value is
bit-identical to the scalar per-segment formula that tests/test_polyline.py
keeps as the reference.

Crossings keep a box contract.  A box (xmin, ymin, xmax, ymax) is the
coordinate range of a segment or a polyline, grown by BBOX_PAD on each side,
and two segments are tested only if their boxes meet (boxes_meet).  A
proper crossing lies in both boxes, so the contract drops only the false
hits that rounding makes between near-parallel segments far apart.
pair_crossings tests many polyline pairs in one pass, with a broad phase
(Ericson, Real-Time Collision Detection, 2004, ch. 7) on three levels,
without the full (n - 1) x (m - 1) pair table:

- records: a caller that keeps a polyline's box, the range of its chunk
  boxes (blockdecomp.EdgeRec.box), skips a pair of polylines whose boxes do
  not meet;
- chunks: every polyline is cut into chunks of CHUNK segments, and a
  uniform grid over the chunk boxes of all polylines of a call finds the
  chunk pairs whose boxes meet, each once (meeting_boxes);
- segments: the segment boxes inside those chunk pairs are tested against
  each other, and the narrow test runs on the pairs left.

Memory is O(points + chunk pairs that meet + candidates).
"""

from __future__ import annotations

import math

import numpy as np

PARALLEL_TOL = 1e-18    # |cross(r, s)| below this: the segments never cross
END_TOL = 1e-9          # crossings must lie this far inside both segments
BBOX_PAD = 1e-12        # boxes grow by this on each side
CHUNK = 32              # segments per chunk box of the broad phase


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
    """Shoelace area of the closed polygon through the points; > 0 if counterclockwise.

    A stack of polygons, shape (..., n, 2), gives one area each.
    """
    x, y = poly[..., 0], poly[..., 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1)


def _rowdot(a, b):
    # stacked matmul runs the BLAS dot of `a[i] @ b[i]` per row, so the
    # rounding (fused or not) is that of the scalar expression
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def boxes_meet(a, b):
    """Whether two boxes (xmin, ymin, xmax, ymax) overlap; touching counts.

    a and b may also be arrays of boxes along their first axis, which
    broadcast against each other.
    """
    return (a[0] <= b[2]) & (b[0] <= a[2]) & (a[1] <= b[3]) & (b[1] <= a[3])


def chunk_boxes(poly):
    """Boxes of poly's chunks, shape (4, chunks), as pair_crossings takes them.

    Column k is the range of the padded boxes of segments k * CHUNK, ...,
    (k + 1) * CHUNK - 1, the last chunk holding what is left.
    """
    n = len(poly) - 1
    lo = np.full((-(-n // CHUNK) * CHUNK, 2), np.inf)
    hi = -lo
    lo[:n] = np.minimum(poly[:-1], poly[1:])
    hi[:n] = np.maximum(poly[:-1], poly[1:])
    return np.concatenate([lo.reshape(-1, CHUNK, 2).min(axis=1).T - BBOX_PAD,
                           hi.reshape(-1, CHUNK, 2).max(axis=1).T + BBOX_PAD])


def grid_cells(boxes):
    """(lo, hi): the cell range, each (2, n), of every box of (4, n) in a uniform grid.

    The grid starts at the boxes' lowest corner.  The cell side starts at
    the median of the boxes' longer sides, or at the span over n if that is
    longer, and doubles until the boxes cover at most 4 n cells in all, so
    that one long box (a ray across a dense polyline) adds O(n) entries.
    Every box must be finite.
    """
    lo, hi = boxes[:2], boxes[2:]
    n = boxes.shape[1]
    origin = lo.min(axis=1, keepdims=True)
    side = max(float(np.median((hi - lo).max(axis=0))),
               float((hi.max(axis=1) - origin[:, 0]).max()) / n)
    if not side > 0:
        side = 1.0
    while True:
        # (v - origin) / side is monotone in v, so a box's cells are those of its corners
        cl = ((lo - origin) / side).astype(np.intp)
        ch = ((hi - origin) / side).astype(np.intp)
        if int(((ch - cl + 1).prod(axis=0)).sum()) <= 4 * n:
            return cl, ch
        side *= 2.0


def meeting_boxes(boxes):
    """(c1, c2) with c1 <= c2: every pair of the (4, n) boxes that meet, each once.

    Each box goes into every grid cell it covers (grid_cells), and a pair is
    kept in the one cell that holds the low corner of its overlap, so the
    work grows with the entries and the pairs that share a cell, not with
    n * n.  A box with a coordinate that is not finite meets nothing here.
    """
    ids = np.flatnonzero(np.isfinite(boxes).all(axis=0))
    none = np.empty(0, dtype=np.intp)
    if not len(ids):
        return none, none
    b = boxes[:, ids]
    cl, ch = grid_cells(b)
    span = ch - cl + 1
    count = span[0] * span[1]
    box = np.repeat(np.arange(len(ids)), count)
    k = np.arange(len(box)) - np.repeat(np.cumsum(count) - count, count)
    ny = int(ch[1].max()) + 1
    cell = (cl[0, box] + k // span[1, box]) * ny + cl[1, box] + k % span[1, box]
    order = np.argsort(cell, kind="stable")           # boxes ascend within a cell
    cell, box = cell[order], box[order]
    ends = np.flatnonzero(np.diff(cell)) + 1
    size = np.diff(ends, prepend=0, append=len(cell))           # entries per cell
    # entry e pairs with itself and the entries after it in its cell
    after = np.repeat(np.append(ends, len(cell)), size) - np.arange(len(cell))
    left = np.repeat(np.arange(len(cell)), after)
    right = left + np.arange(len(left)) - np.repeat(np.cumsum(after) - after, after)
    c1, c2 = box[left], box[right]
    corner = np.maximum(cl[:, c1], cl[:, c2])
    own = np.flatnonzero(corner[0] * ny + corner[1] == cell[left])
    c1, c2 = c1[own], c2[own]
    keep = boxes_meet(b[:, c1], b[:, c2])
    return ids[c1[keep]], ids[c2[keep]]


def pair_crossings(polys, pairs, boxes=None):
    """Proper crossings of many polyline pairs as arrays (p, i, j, t, u).

    pairs holds distinct (a, b) index pairs into polys.  For pair p = (a, b),
    segment i of polys[a], at fraction t along it, crosses segment j of
    polys[b] at fraction u along that one.  Hits come sorted by p, then
    row-major (i, then j), and each is bitwise a hit of crossings(polys[a],
    polys[b]).  boxes, if given, holds chunk_boxes(polys[k]) at k for every
    k that a pair names.
    """
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    none = np.empty(0, dtype=np.intp)
    if not len(pairs):
        return none, none, none, np.empty(0), np.empty(0)
    used = np.unique(pairs).tolist()
    if boxes is None:
        boxes = {k: chunk_boxes(polys[k]) for k in used}
    nchunk = np.array([boxes[k].shape[1] for k in used], dtype=np.intp)
    npts = np.array([len(polys[k]) for k in used], dtype=np.intp)
    xy = np.concatenate([polys[k].T for k in used], axis=1)   # (2, points)
    start = np.cumsum(npts) - npts                          # each polyline's first point
    # per chunk: its polyline, its first segment in xy, and its polyline's last point
    slot = np.repeat(np.arange(len(used)), nchunk)
    first = start[slot] + CHUNK * (np.arange(len(slot))
                                   - np.repeat(np.cumsum(nchunk) - nchunk, nchunk))
    end = (start + npts - 1)[slot]
    c1, c2 = meeting_boxes(np.concatenate([boxes[k] for k in used], axis=1))
    twin = c1 != c2
    c1, c2 = np.concatenate([c1, c2[twin]]), np.concatenate([c2, c1[twin]])
    # keep the chunk pairs whose polylines make a pair, oriented as it is
    owner = np.array(used)[slot]
    want = pairs[:, 0] * len(polys) + pairs[:, 1]
    rank = np.argsort(want)
    key = owner[c1] * len(polys) + owner[c2]
    at = np.minimum(np.searchsorted(want[rank], key), len(want) - 1)
    ok = want[rank[at]] == key
    p, c1, c2 = rank[at[ok]], c1[ok], c2[ok]
    # the padded segment boxes of those chunks, (4, 2 * chunk pairs, CHUNK); the
    # segments past the end of their polyline get empty boxes, which meet nothing
    g = np.concatenate([first[c1], first[c2]])[:, None] + np.arange(CHUNK)
    empty = g >= np.concatenate([end[c1], end[c2]])[:, None]
    g = np.minimum(g, xy.shape[1] - 2)
    ends = xy[:, g], xy[:, g + 1]
    seg = np.concatenate([np.minimum(*ends) - BBOX_PAD, np.maximum(*ends) + BBOX_PAD])
    seg[:2, empty] = np.inf
    seg[2:, empty] = -np.inf
    # flat indices: np.nonzero of a 3-d mask costs tens of microseconds even when empty
    k, ab = np.divmod(np.flatnonzero(
        boxes_meet(seg[:, :len(c1), :, None], seg[:, len(c1):, None])), CHUNK * CHUNK)
    a, b = np.divmod(ab, CHUNK)
    p, c1, c2 = p[k], c1[k], c2[k]
    ga, gb = first[c1] + a, first[c2] + b                   # segments in xy
    i = ga - start[slot[c1]]
    j = gb - start[slot[c2]]
    r = xy[:, ga + 1] - xy[:, ga]
    s = xy[:, gb + 1] - xy[:, gb]
    dq = xy[:, gb] - xy[:, ga]
    denom = r[0] * s[1] - r[1] * s[0]
    ok = np.abs(denom) >= PARALLEL_TOL
    denom = np.where(ok, denom, 1.0)
    t = (dq[0] * s[1] - dq[1] * s[0]) / denom
    u = (dq[0] * r[1] - dq[1] * r[0]) / denom
    hit = (ok & (END_TOL < t) & (t < 1 - END_TOL)
           & (END_TOL < u) & (u < 1 - END_TOL))
    order = np.flatnonzero(hit)
    order = order[np.lexsort((j[order], i[order], p[order]))]
    return p[order], i[order], j[order], t[order], u[order]


def crossings(pa, pb):
    """Proper crossings of two polylines as arrays (i, j, t, u): pair_crossings of one pair.

    Segment i of pa, at fraction t along it, crosses segment j of pb at
    fraction u along that one.  Pairs come in row-major order: i along pa,
    then j along pb.  Only segment pairs whose boxes meet are tested; a
    proper crossing lies in both boxes, so this drops only the false hits
    that rounding makes between near-parallel segments far apart.
    """
    _, i, j, t, u = pair_crossings([pa, pb], [(0, 1)])
    return i, j, t, u


def points_along(pa, i, t):
    """(arclength along pa, point) arrays of the points at fraction t along segments i."""
    x = pa[i] + t[:, None] * (pa[i + 1] - pa[i])
    return cumlen(pa)[i] + np.hypot(*(x - pa[i]).T), x


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
