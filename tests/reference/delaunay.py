"""The Bowyer-Watson insert before the cavity boundary was counted in Python."""

import numpy as np

from quadfield import delaunay
from quadfield.errors import MeshError


def unique_insert(tri, pid, eps):
    """bowyer_watson_insert as it was before the cavity boundary was counted in
    Python: np.unique over (low, high) keys and one vectorized _orient."""
    pts = tri.points
    p = pts[pid]
    ids = np.flatnonzero(tri.live)
    (ax, ay), (bx, by), (cx, cy) = (tri.coords[ids] - p).transpose(1, 2, 0)
    det = ((ax * ax + ay * ay) * (bx * cy - cx * by)
           - (bx * bx + by * by) * (ax * cy - cx * ay)
           + (cx * cx + cy * cy) * (ax * by - bx * ay))
    bad = ids[det > -eps]
    if not len(bad):
        raise MeshError("point insertion found no containing circumcircle")
    low, high = delaunay._edges(tri.table[bad]).T
    keys, count = np.unique(low * len(pts) + high, return_counts=True)
    a, b = np.divmod(keys[count == 1], len(pts))
    turn = delaunay._orient(pts[a].T, pts[b].T, p)   # add_triangle's orientation of (a, b, pid)
    cw = turn < 0
    rows = np.stack([np.where(cw, b, a), np.where(cw, a, b), np.full_like(a, pid)], axis=1)
    tri.live[bad] = False
    tri.add_triangles(rows[turn != 0])
