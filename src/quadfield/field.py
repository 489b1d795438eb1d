"""Point location and high-order evaluation of the solved guiding field.

A uniform grid of element bounding boxes gives candidate elements; one
lockstep Newton inversion of the element maps that can reach the point
settles membership, with ties on shared edges broken toward the lowest
element id so evaluation is deterministic.  locate_many runs that inversion
once for a whole batch of points (a valence circle, an arc, one tracing
round), one lane per (point, candidate) pair.  Each probe memoises its
locations, since the valence circles test containment and then evaluate the
field at the same points.  A point's location does not depend on what else
is in its batch, so callers may locate points they might never visit.
eval_psi_many evaluates the phase of a whole batch from one Jacobi table,
with one basis_rows row and one 1 x n product per point, so each value is
bitwise the one eval_psi gives.
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

    def contains(self, x):
        return self.locate(x) is not OUTSIDE

    def contains_many(self, points):
        return [loc is not OUTSIDE for loc in self.locate_many(points)]

    def eval_v(self, x):
        """(u, v) at the physical point x; one-sided for DG."""
        loc = self.locate(x)
        if loc is OUTSIDE:
            return OUTSIDE
        e, xi = loc
        return self.solution.eval(e, xi)[0]

    def eval_psi(self, x):
        """Principal phase in [-pi/4, pi/4]; undefined at critical points."""
        v = self.eval_v(x)
        if v is OUTSIDE:
            return OUTSIDE
        return psi_of(v)

    def eval_psi_many(self, points):
        """[eval_psi(p) for p in points], from one locate_many and one basis table.

        Every located point gets its own basis_rows row and its own 1 x n
        product with its element's coefficients, so its psi is bitwise the
        one eval_psi returns.
        """
        locs = self.locate_many(points)
        found = [i for i, loc in enumerate(locs) if loc is not OUTSIDE]
        psis = [OUTSIDE] * len(locs)
        if found:
            basis, _ = self.mesh.ref.basis_rows(np.array([locs[i][1] for i in found]))
            coeffs = self.solution.coeffs[[locs[i][0] for i in found]]
            for i, uv in zip(found, (basis[:, None, :] @ coeffs)[:, 0]):
                psis[i] = psi_of(uv)
        return psis


def psi_of(uv):
    u, v = float(uv[0]), float(uv[1])
    if math.hypot(u, v) < CRITICAL_EPS:
        raise TopologyError("critical point: psi undefined where the field vanishes")
    return 0.25 * math.atan2(v, u)


class AnalyticProbe:
    """Probe over closed-form (u, v) fields; used for synthetic topology tests."""

    def __init__(self, fn, region=None):
        self.fn = fn
        self.region = region

    def eval_v(self, x):
        if self.region is not None and not self.region(x):
            return OUTSIDE
        return np.asarray(self.fn(float(x[0]), float(x[1])), dtype=float)

    def eval_psi(self, x):
        v = self.eval_v(x)
        if v is OUTSIDE:
            return OUTSIDE
        return psi_of(v)

    def eval_psi_many(self, points):
        return [self.eval_psi(p) for p in points]

    def contains(self, x):
        return self.region is None or bool(self.region(x))

    def contains_many(self, points):
        return [self.contains(p) for p in points]
