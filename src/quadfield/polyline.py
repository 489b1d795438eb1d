"""Polyline geometry shared by the tracer, the subdivision and the blocks.

A polyline is an (n, 2) float array of points joined by straight segments.
Each function evaluates all segments (or segment pairs) in one numpy pass,
and every value is bit-identical to the scalar per-segment formula that
tests/test_polyline.py keeps as the reference.
"""

from __future__ import annotations

import math

import numpy as np

PARALLEL_TOL = 1e-18    # |cross(r, s)| below this: the segments never cross
END_TOL = 1e-9          # crossings must lie this far inside both segments
BBOX_PAD = 1e-12


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


def intersections(pa, pb):
    """Proper crossings of two polylines as a list of (arclength along pa, point).

    Segment pairs come in row-major order: i along pa, then j along pb.
    """
    amin = pa.min(axis=0) - BBOX_PAD
    amax = pa.max(axis=0) + BBOX_PAD
    if (pb.max(axis=0) < amin).any() or (pb.min(axis=0) > amax).any():
        return []
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
    x = pa[i] + t[i, j][:, None] * r[i, 0]
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
