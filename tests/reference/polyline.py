"""The chunk-row broad phase, bbox and intersections before pair_crossings."""

import numpy as np

from quadfield import polyline
from quadfield.polyline import BBOX_PAD, CHUNK, END_TOL, PARALLEL_TOL


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
