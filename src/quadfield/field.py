"""Point location and high-order evaluation of the solved guiding field.

A uniform grid of element bounding boxes gives candidate elements; one
lockstep Newton inversion of the element maps that can reach the point
settles membership, with ties on shared edges broken toward the lowest
element id so evaluation is deterministic.  A probe answers batches (a
valence circle, an arc, one tracing round): locate_many inverts once for the
whole batch, one lane per (point, candidate) pair; contains_many tells which
points lie in the mesh; eval_v_many gives (u, v) from one basis_rows table,
each row bitwise FieldSolution.eval at the located xi; eval_psi_many gives
the principal phase of those rows.  Locations are memoised, since contours
are tested for containment and then evaluated at the same points, and do not
depend on the rest of the batch, so callers may locate points they might
never visit.  locate and eval_v are one-point wrappers, kept for the
benchmark, which wraps and calls them.
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
        self._located = {}
        self._build_grid()

    def _build_grid(self):
        mesh = self.mesh
        boxes = [mesh.element_bbox(e) for e in range(mesh.n_elements())]
        lo = np.min([b[0] for b in boxes], axis=0)
        hi = np.max([b[1] for b in boxes], axis=0)
        mean_r = np.mean([mesh.circumradius(e) for e in range(mesh.n_elements())])
        cell = max(float(mean_r), 1e-12)
        nx = max(1, int(math.ceil((hi[0] - lo[0]) / cell)))
        ny = max(1, int(math.ceil((hi[1] - lo[1]) / cell)))
        grid = {}
        for e, (blo, bhi) in enumerate(boxes):
            i0 = int((blo[0] - lo[0]) / cell)
            i1 = int((bhi[0] - lo[0]) / cell)
            j0 = int((blo[1] - lo[1]) / cell)
            j1 = int((bhi[1] - lo[1]) / cell)
            for i in range(max(i0, 0), min(i1, nx - 1) + 1):
                for j in range(max(j0, 0), min(j1, ny - 1) + 1):
                    grid.setdefault((i, j), []).append(e)
        self._grid = grid
        self._lo = lo
        self._cell = cell
        self._nx, self._ny = nx, ny

    def candidates(self, x):
        if not np.isfinite(x).all():
            return []
        i = int((x[0] - self._lo[0]) / self._cell)
        j = int((x[1] - self._lo[1]) / self._cell)
        if not (0 <= i < self._nx and 0 <= j < self._ny):
            return []
        return self._grid.get((i, j), [])

    def locate(self, x):
        """(element id, xi) of the element containing x, or OUTSIDE.

        Memoised on the bytes of x; xi is a fresh copy on every call.
        """
        return self.locate_many([x])[0]

    def locate_many(self, points):
        """[locate(p) for p in points], with one Newton solve for every new point."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        keys = [p.tobytes() for p in points]
        fresh = {}
        for key, p in zip(keys, points):
            if key not in self._located and key not in fresh:
                fresh[key] = (p, self.candidates(p))
        if fresh:
            elems = [e for _, cands in fresh.values() for e in cands]
            targets = [p for p, cands in fresh.values() for _ in cands]
            lanes = iter(self.mesh.invert_map(elems, np.reshape(targets, (-1, 2))))
            for key, (_, cands) in fresh.items():
                hits = [(e, xi) for e, xi in zip(cands, lanes) if xi is not None]
                self._located[key] = hits[0] if hits else OUTSIDE
        return [OUTSIDE if loc is OUTSIDE else (loc[0], loc[1].copy())
                for loc in map(self._located.__getitem__, keys)]

    def contains_many(self, points):
        return [loc is not OUTSIDE for loc in self.locate_many(points)]

    def eval_v(self, x):
        """(u, v) at the physical point x, or OUTSIDE; one-sided for DG."""
        return self.eval_v_many([x])[0]

    def eval_v_many(self, points):
        """(u, v) or OUTSIDE per point, from one locate_many and one basis table.

        Every located point gets its own basis_rows row and its own 1 x n
        product with its element's coefficients, so its row is bitwise
        FieldSolution.eval at the located xi.
        """
        locs = self.locate_many(points)
        found = [i for i, loc in enumerate(locs) if loc is not OUTSIDE]
        vals = [OUTSIDE] * len(locs)
        if found:
            basis, _ = self.mesh.ref.basis_rows(np.array([locs[i][1] for i in found]))
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

    def contains_many(self, points):
        return [self.region is None or bool(self.region(p)) for p in points]

    def eval_v_many(self, points):
        return [np.asarray(self.fn(float(p[0]), float(p[1])), dtype=float) if inside
                else OUTSIDE for p, inside in zip(points, self.contains_many(points))]

    def eval_psi_many(self, points):
        return _psis(self.eval_v_many(points))
