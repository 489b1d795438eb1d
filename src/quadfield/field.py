"""Point location and high-order evaluation of the solved guiding field.

The mesh's reach mask (TriMesh.reachable) picks the Newton lanes: it keeps
the (point, element) pairs whose element map can reach the point, and one
lockstep Newton inversion of those lanes settles membership, with ties on
shared edges broken toward the lowest element id so evaluation is
deterministic.  It is the only spatial filter, with no grid or tree: the
meshes served have at most a few hundred elements, so one (points x
elements) mask per batch is cheap.  Newton starts each lane from its
element's first step, which the mesh caches (TriMesh._first_step), so a
call computes no map or Jacobian before its first kernel table.  A probe
answers batches (a valence circle, an arc, one tracing round) and keeps no
per-point state: locate_many inverts once for the whole batch, one lane per
pair the mask keeps; eval_v_many gives (u, v) from the basis rows that
Newton built at the located xi, with no kernel table of its own, each row
bitwise FieldSolution.eval there; eval_psi_many gives the principal phase
of those rows.  A point's answer does not depend on the rest of its batch,
so callers may locate points they might never visit.  locate and eval_v are
one-point wrappers, kept for the benchmark, which wraps and calls them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TopologyError

QUARTER_PI = 0.25 * math.pi
HALF_PI = 0.5 * math.pi
CRITICAL_EPS = 1e-12


class Outside:
    """Sentinel: the queried point is not in any element."""

    def __repr__(self):
        return "Outside"


OUTSIDE = Outside()


def adjust_branch(psi, alpha_prev):
    """Branch psi + k*pi/2 (k = 0..3) closest to alpha_prev on the circle."""
    best = None
    best_dist = None
    for k in range(4):
        cand = psi + k * HALF_PI
        d = abs(math.remainder(cand - alpha_prev, 2.0 * math.pi))
        if best_dist is None or d < best_dist:
            best, best_dist = cand, d
    # report the equivalent angle nearest alpha_prev, not just the branch class
    return alpha_prev + math.remainder(best - alpha_prev, 2.0 * math.pi)


class FieldProbe:
    """Read-only spatial evaluator over a FieldSolution."""

    def __init__(self, solution):
        self.solution = solution
        self.mesh = solution.mesh

    def locate(self, x):
        """(element id, xi) of the element containing x, or OUTSIDE."""
        return self.locate_many([x])[0]

    def locate_many(self, points):
        """[locate(p) for p in points], with one Newton solve for the batch."""
        return [loc if loc is OUTSIDE else loc[:2] for loc in self._locations(points)]

    def _locations(self, points):
        """(element id, xi, basis row) or OUTSIDE per point, from one Newton solve.

        Its lanes are the (point, element) pairs that pass the mesh's reach
        mask, point-major with ascending element ids, so a point's first hit
        is its lowest-id containing element.  A non-finite point is OUTSIDE.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        mask = self.mesh.reachable(pts) & np.isfinite(pts).all(axis=1)[:, None]
        point, elem = np.nonzero(mask)
        found = [OUTSIDE] * len(pts)
        for i, e, xi, row in zip(point.tolist(), elem.tolist(),
                                 *self.mesh.invert_map(elem, pts[point])):
            if xi is not None and found[i] is OUTSIDE:
                found[i] = (e, xi, row)
        return found

    def eval_v(self, x):
        """(u, v) at the physical point x, or OUTSIDE; one-sided for DG."""
        return self.eval_v_many([x])[0]

    def eval_v_many(self, points):
        """(u, v) or OUTSIDE per point, from Newton's basis rows; no kernel table.

        Every located point multiplies the basis row Newton built at its xi
        with its element's coefficients as its own 1 x n product, so its
        row is bitwise FieldSolution.eval at the located xi.
        """
        locs = self._locations(points)
        found = [i for i, loc in enumerate(locs) if loc is not OUTSIDE]
        vals = [OUTSIDE] * len(locs)
        if found:
            basis = np.array([locs[i][2] for i in found])
            coeffs = self.solution.coeffs[[locs[i][0] for i in found]]
            for i, uv in zip(found, (basis[:, None, :] @ coeffs)[:, 0]):
                vals[i] = uv
        return vals

    def eval_psi_many(self, points):
        """Principal phase in [-pi/4, pi/4] or OUTSIDE per point; undefined at
        critical points."""
        return _psis(self.eval_v_many(points))


def psi_of(uv):
    u, v = float(uv[0]), float(uv[1])
    if math.hypot(u, v) < CRITICAL_EPS:
        raise TopologyError("critical point: psi undefined where the field vanishes")
    return 0.25 * math.atan2(v, u)


def _psis(vals):
    """psi_of of each (u, v) row; OUTSIDE stays OUTSIDE."""
    return [OUTSIDE if v is OUTSIDE else psi_of(v) for v in vals]


class AnalyticProbe:
    """Probe over closed-form (u, v) fields; used for synthetic topology tests."""

    def __init__(self, fn, region=None):
        self.fn = fn
        self.region = region

    def eval_v_many(self, points):
        return [np.asarray(self.fn(float(p[0]), float(p[1])), dtype=float)
                if self.region is None or self.region(p) else OUTSIDE for p in points]

    def eval_psi_many(self, points):
        return _psis(self.eval_v_many(points))
