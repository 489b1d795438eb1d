"""Separatrix tracing: synchronized Adams-Bashforth streamline integration.

Every irregular node and corner launches its refined directions; all fronts
advance one step per round (RK4 until a streamline has four directions, AB4
from then on), meeting pairs merge with trigonometric weights, and fronts
that leave the domain are cut and snapped onto the true boundary.
Everything is ordered deterministically so repeated runs are bit-identical.

A round evaluates the field in few, large batches: each RK4 stage of every
start-up front, then every front's new point, goes through one
eval_psi_many.  The cut bisects an exiting step BISECT_STEPS times, and
locates speculatively: the 2^k - 1 midpoints the next k = BISECT_LEVELS
levels could visit are built breadth first, each by the 0.5 * (a + b) of
the one-step loop, and located in one batch; the walk down that tree then
takes the loop's steps.  Location does not depend on the batch (see
field.FieldProbe.locate_many), so every result is the one-step result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polyline
from .errors import LimitCycleError, TracingError
from .field import HALF_PI, OUTSIDE, adjust_branch

DIRECTION_TOL = 1e-9
DIRECTION_MAX_ITER = 100
BRANCH_COLLAPSE_TOL = 1e-6
BOUNDARY_COINCIDE_TOL = 1e-3
DEFAULT_N_MAX = 100_000
DEFAULT_LENGTH_FACTOR = 60.0
DEFAULT_KAPPA = 5.0
# Halvings of an exiting step, and the levels of them located per batch.  A
# batch holds 2^k - 1 points and a cut makes 60 / k of them; k = 3-5 ran
# fastest of 1-8 on nautilus and half_disc.
BISECT_STEPS = 60
BISECT_LEVELS = 4

# AB4 weights of the last four directions, newest first
_AB4_COEFFS = (55.0 / 24.0, -59.0 / 24.0, 37.0 / 24.0, -9.0 / 24.0)


@dataclass
class Anchor:
    kind: str                 # "critical" | "corner" | "boundary" | "artificial"
    ident: int
    position: np.ndarray
    loop: int = -1
    seg: int = -1
    t: float = 0.0

    def key(self):
        return (self.kind, self.ident)


@dataclass
class Streamline:
    origin: Anchor
    branch: int
    points: list
    alphas: list
    status: str = "active"    # active | merged | hit_boundary | aborted
    end_anchor: Anchor = None
    length: float = 0.0

    def front(self):
        return self.points[-1]

    def front_alpha(self):
        return self.alphas[-1]

    def order_key(self):
        rank = {"critical": 0, "corner": 1, "artificial": 2}.get(self.origin.kind, 3)
        return (rank, self.origin.ident, self.branch)


@dataclass
class Separatrix:
    points: np.ndarray
    start: Anchor
    end: Anchor


# ---- initial directions --------------------------------------------------------


def refine_direction(origin, alpha0, probe, c, eps=DIRECTION_TOL,
                     max_iter=DIRECTION_MAX_ITER):
    """Fixed-point refinement of a streamline direction at probe distance c."""
    alpha = float(alpha0)
    for _ in range(max_iter):
        psi = _probe_psi(origin, alpha, probe, c)
        new = adjust_branch(psi, alpha)
        dalpha = abs(new - alpha)
        alpha = new
        if dalpha <= eps:
            return alpha
    raise TracingError(f"initial direction did not converge from guess {alpha0:.6f}")


def _probe_psi(origin, alpha, probe, c):
    step = np.array([math.cos(alpha), math.sin(alpha)])
    dist = c
    for _ in range(6):
        psi = probe.eval_psi(origin + dist * step)
        if psi is not OUTSIDE:
            return psi
        dist *= 0.5
    raise TracingError("direction probe kept leaving the domain")


def initial_directions(origin, valence, probe, c, first_guess=0.0):
    """The valence refined directions around an interior irregular node."""
    if valence < 1:
        raise TracingError("initial_directions requires valence >= 1")
    base = refine_direction(origin, first_guess, probe, c)
    dirs = [base]
    for j in range(1, valence):
        dirs.append(refine_direction(origin, base + 2.0 * math.pi * j / valence,
                                     probe, c))
    _check_distinct(dirs)
    return dirs


def corner_directions(corner_node, probe):
    """Interior launch directions of a corner (boundary rays excluded)."""
    corner = corner_node.corner
    v = corner_node.valence
    if v <= 1:
        return []
    th_start, th_end = corner.wedge_angles()
    c = corner_node.radius
    dirs = []
    for j in range(1, v):
        guess = th_start + corner.delta_theta * j / v
        alpha = refine_direction(corner.position, guess, probe, c)
        if _near_ray(alpha, th_start) or _near_ray(alpha, th_end):
            continue
        dirs.append(alpha)
    _check_distinct(dirs)
    return dirs


def _near_ray(alpha, ray, tol=BOUNDARY_COINCIDE_TOL):
    return abs(math.remainder(alpha - ray, 2.0 * math.pi)) < tol


def _check_distinct(dirs):
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            if abs(math.remainder(dirs[i] - dirs[j], 2.0 * math.pi)) < BRANCH_COLLAPSE_TOL:
                raise TracingError("branch collapse: two directions converged together")


# ---- stepping ------------------------------------------------------------------


def _unit(alpha):
    return np.array([math.cos(alpha), math.sin(alpha)])


def _rk4_steps(fronts, h, probe):
    """Startup steps: one-step 4th order so the AB4 history is clean.

    Stage s of every front is evaluated in one eval_psi_many batch.
    """
    xs = [sl.front() for sl in fronts]
    alpha0 = [sl.front_alpha() for sl in fronts]
    ks = [[_unit(a)] for a in alpha0]
    steps = [None] * len(fronts)
    live = range(len(fronts))
    for frac in (0.5, 0.5, 1.0):
        psis = probe.eval_psi_many([xs[i] + frac * h * ks[i][-1] for i in live])
        for i, psi in zip(live, psis):
            if psi is OUTSIDE:
                steps[i] = xs[i] + h * ks[i][0]    # exiting: order is irrelevant, cut follows
            else:
                ks[i].append(_unit(adjust_branch(psi, alpha0[i])))
        live = [i for i in live if steps[i] is None]
    for i in live:
        k1, k2, k3, k4 = ks[i]
        steps[i] = xs[i] + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return steps


def _ab4_step(sl, h):
    """Adams-Bashforth 4 from the last four directions."""
    delta = np.zeros(2)
    for c, alpha in zip(_AB4_COEFFS, sl.alphas[::-1]):
        delta += c * _unit(alpha)
    return sl.front() + h * delta


def detect_meeting(a, b, threshold):
    """Fronts closer than threshold and advancing in opposite directions."""
    d = float(np.hypot(*(a.front() - b.front())))
    if d >= threshold:
        return False
    diff = abs(a.front_alpha() - b.front_alpha()) % (2.0 * math.pi)
    return round(diff / HALF_PI) * HALF_PI == round(math.pi / HALF_PI) * HALF_PI


def _resample(points, n):
    """Arclength-uniform resampling of a polyline to n points."""
    pts = np.asarray(points, dtype=float)
    s = polyline.cumlen(pts)
    total = s[-1]
    if total <= 0:
        return np.repeat(pts[:1], n, axis=0)
    out = polyline.sample(pts, s, np.linspace(0.0, total, n))
    out[0] = pts[0]
    out[-1] = pts[-1]
    return out


def merge(a, b):
    """Trigonometric-weight merge of two met streamlines into one separatrix."""
    pa = list(a.points) + list(b.points)[::-1]
    pb = list(b.points) + list(a.points)[::-1]
    n = len(a.points) + len(b.points)
    if n < 2:
        raise TracingError("cannot merge degenerate streamlines")
    A = _resample(pa, n)
    B = _resample(pb, n)
    x = np.linspace(0.0, 1.0, n)
    w0 = np.cos(0.5 * math.pi * x) ** 2
    w1 = np.sin(0.5 * math.pi * x) ** 2
    pts = w0[:, None] * A + w1[:, None] * B[::-1]
    pts[0] = a.points[0]
    pts[-1] = b.points[0]
    return Separatrix(points=pts, start=a.origin, end=b.origin)


class BoundaryAnchors:
    """Registry that snaps nearby boundary hits onto shared anchors."""

    def __init__(self, corners, snap_radius):
        self.snap_radius = snap_radius
        self.anchors = []
        self.corner_anchors = []
        for i, c in enumerate(corners):
            a = Anchor("corner", i, np.asarray(c.position, dtype=float))
            self.corner_anchors.append(a)

    def resolve(self, position, loop, seg, t):
        for a in self.corner_anchors:
            if np.hypot(*(position - a.position)) < self.snap_radius:
                return a
        for a in self.anchors:
            if np.hypot(*(position - a.position)) < self.snap_radius:
                return a
        a = Anchor("boundary", len(self.anchors), np.asarray(position, dtype=float),
                   loop=loop, seg=seg, t=float(t))
        self.anchors.append(a)
        return a


def _bisection_tree(inside, outside, levels):
    """Every midpoint the next levels of bisection could visit, breadth first.

    Node n bisects its interval (a, b) at 0.5 * (a + b), the expression of
    the one-step loop; child 2n + 1 bisects (mid, b), reached when mid is
    inside, and child 2n + 2 bisects (a, mid).
    """
    a, b = inside[None], outside[None]
    mids = []
    for _ in range(levels):
        mid = 0.5 * (a + b)
        mids.append(mid)
        a = np.stack([mid, a], axis=1).reshape(-1, 2)
        b = np.stack([b, mid], axis=1).reshape(-1, 2)
    return np.concatenate(mids)


def _bisect_to_skin(inside, outside, probe):
    """The inside end of BISECT_STEPS halvings of the segment (inside, outside).

    A one-step loop would locate each midpoint on its own.  Here every
    midpoint of the next BISECT_LEVELS levels, on the walk's path or not,
    is located in one batch.  Location does not depend on the batch, so the
    walk visits the midpoints of that loop and gets its answers.
    """
    for done in range(0, BISECT_STEPS, BISECT_LEVELS):
        levels = min(BISECT_LEVELS, BISECT_STEPS - done)
        mids = _bisection_tree(inside, outside, levels)
        flags = probe.contains_many(mids)
        node = 0
        for _ in range(levels):
            if flags[node]:
                inside, node = mids[node], 2 * node + 1
            else:
                outside, node = mids[node], 2 * node + 2
    return inside


def _cut_to_boundary(sl, candidate, probe, domain, registry):
    """Bisect the exiting segment onto the mesh skin, then snap to the curve."""
    inside = _bisect_to_skin(sl.front(), candidate, probe)
    loop, seg, t, dist = domain.closest_boundary_point(inside)
    snapped = domain.loops[loop].segments[seg].point(t)
    anchor = registry.resolve(snapped, loop, seg, t)
    sl.points.append(anchor.position.copy())
    sl.alphas.append(sl.front_alpha())
    sl.status = "hit_boundary"
    sl.end_anchor = anchor


def advance_all(streamlines, probe, h, domain=None, registry=None,
                threshold=None, n_max=DEFAULT_N_MAX, max_length=None):
    """One synchronous round: step every active streamline, then merge meetings."""
    threshold = h if threshold is None else threshold
    order = sorted((sl for sl in streamlines if sl.status == "active"),
                   key=lambda sl: sl.order_key())
    startup = iter(_rk4_steps([sl for sl in order if len(sl.alphas) < 4], h, probe))
    candidates = [next(startup) if len(sl.alphas) < 4 else _ab4_step(sl, h)
                  for sl in order]
    for sl, candidate, psi in zip(order, candidates, probe.eval_psi_many(candidates)):
        if psi is OUTSIDE:
            if domain is None or registry is None:
                raise TracingError("streamline left the domain with no boundary handler")
            _cut_to_boundary(sl, candidate, probe, domain, registry)
            continue
        alpha = adjust_branch(psi, sl.front_alpha())
        sl.length += float(np.hypot(*(candidate - sl.front())))
        sl.points.append(candidate)
        sl.alphas.append(alpha)
        if len(sl.points) > n_max or (max_length is not None and sl.length > max_length):
            sl.status = "aborted"

    merged = []
    active = [sl for sl in order if sl.status == "active"]
    candidates = []
    for i in range(len(active)):
        for j in range(i + 1, len(active)):
            a, b = active[i], active[j]
            if detect_meeting(a, b, threshold):
                d = float(np.hypot(*(a.front() - b.front())))
                candidates.append((d, i, j))
    for d, i, j in sorted(candidates):
        a, b = active[i], active[j]
        if a.status != "active" or b.status != "active":
            continue
        sep = merge(a, b)
        a.status = b.status = "merged"
        merged.append(sep)
    return merged


def trace_all(critical_points, corner_nodes, probe, domain, h, mode="normal",
              kappa=DEFAULT_KAPPA, n_max=DEFAULT_N_MAX,
              length_factor=DEFAULT_LENGTH_FACTOR):
    """Trace every separatrix; raises LimitCycleError if any streamline spirals."""
    if mode not in ("normal", "aggressive"):
        raise TracingError(f"unknown merge mode {mode!r}")
    threshold = h * (kappa if mode == "aggressive" else 1.0)
    registry = BoundaryAnchors([cn.corner for cn in corner_nodes], snap_radius=h)
    max_length = length_factor * domain.bbox_diag()

    streamlines = []
    for i, cp in enumerate(sorted(critical_points,
                                  key=lambda c: (c.position[0], c.position[1]))):
        anchor = Anchor("critical", i, cp.position)
        for b, alpha in enumerate(initial_directions(cp.position, cp.valence,
                                                     probe, cp.radius)):
            streamlines.append(Streamline(anchor, b, [cp.position.copy()], [alpha]))
    for i, cn in enumerate(corner_nodes):
        anchor = registry.corner_anchors[i]
        for b, alpha in enumerate(corner_directions(cn, probe)):
            streamlines.append(Streamline(anchor, b, [cn.corner.position.copy()],
                                          [alpha]))

    separatrices = []
    while any(sl.status == "active" for sl in streamlines):
        separatrices.extend(advance_all(
            streamlines, probe, h, domain=domain, registry=registry,
            threshold=threshold, n_max=n_max, max_length=max_length))

    aborted = [sl for sl in streamlines if sl.status == "aborted"]
    if aborted:
        origins = ", ".join(f"{sl.origin.kind}#{sl.origin.ident}.{sl.branch}"
                            for sl in aborted)
        raise LimitCycleError(f"streamlines aborted as limit cycles: {origins}")

    for sl in sorted(streamlines, key=lambda s: s.order_key()):
        if sl.status == "hit_boundary":
            separatrices.append(Separatrix(points=np.asarray(sl.points),
                                           start=sl.origin, end=sl.end_anchor))
    return separatrices, streamlines


def separatrices_to_json(separatrices):
    def anchor_doc(a):
        return {"kind": a.kind, "ident": int(a.ident),
                "position": np.asarray(a.position).tolist(),
                "loop": int(a.loop), "seg": int(a.seg), "t": float(a.t)}
    return [{"start": anchor_doc(s.start), "end": anchor_doc(s.end),
             "points": np.asarray(s.points).tolist()} for s in separatrices]
