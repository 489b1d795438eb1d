"""Point location and high-order evaluation of the solved guiding field.

A uniform grid of element bounding boxes gives candidate elements; one
lockstep Newton inversion of all their element maps settles membership,
with ties on shared edges broken toward the lowest element id so evaluation
is deterministic.  Each probe memoises its locations, since the valence
circles test contains() and then evaluate the field at the same points.
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
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        loc = self._located.get(key)
        if loc is None:
            loc = self._located[key] = self._invert(x)
        if loc is OUTSIDE:
            return OUTSIDE
        e, xi = loc
        return e, xi.copy()

    def _invert(self, x):
        elems = self.candidates(x)
        for e, xi in zip(elems, self.mesh.invert_map(elems, x)):
            if xi is not None:
                return e, xi
        return OUTSIDE

    def contains(self, x):
        return self.locate(x) is not OUTSIDE

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


def psi_of(uv):
    u, v = float(uv[0]), float(uv[1])
    if math.hypot(u, v) < CRITICAL_EPS:
        raise TopologyError("critical point: psi undefined where the field vanishes")
    return 0.25 * math.atan2(v, u)


def cross_vectors(psi):
    """The four unit vectors of the cross with phase psi."""
    angles = psi + HALF_PI * np.arange(4)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


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

    def contains(self, x):
        return self.region is None or bool(self.region(x))
