"""Separatrix tracing: synchronized Adams-Bashforth streamline integration.

Every irregular node and corner launches its refined directions; all fronts
advance one step per round (RK4 until a streamline has four directions, AB4
from then on), meeting pairs merge with trigonometric weights, and fronts
that leave the domain end where their step crosses the true boundary.
Everything is ordered deterministically so repeated runs are bit-identical.

The field is evaluated in few, large batches, with no one-lane loop left.
refine_directions refines many launch directions in lockstep, one
eval_psi_many per fixed-point iteration; trace_all runs it twice, for every
node's base direction with every corner direction, then for every other
node direction.  A round evaluates each RK4 stage of every start-up front,
then every front's new point, in one eval_psi_many.  A front whose new
point lies outside the mesh ends on the curve, not on the mesh skin, and
with no further evaluation: the line of its step is crossed with every
boundary segment (geometry.DomainSpec.ray_exit: lines and arcs in closed
form, other curves by their dense polyline and Newton on t), and where it
finds no exit the point of the boundary closest to the step's end is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polyline
from .errors import LimitCycleError, TracingError
from .field import HALF_PI, OUTSIDE, adjust_branch
from .geometry import as_points, typed

DIRECTION_TOL = 1e-9
DIRECTION_MAX_ITER = 100
BRANCH_COLLAPSE_TOL = 1e-6
BOUNDARY_COINCIDE_TOL = 1e-3
DEFAULT_N_MAX = 100_000
DEFAULT_LENGTH_FACTOR = 60.0
DEFAULT_KAPPA = 1.0

# AB4 weights of the last four directions, newest first
_AB4_COEFFS = (55.0 / 24.0, -59.0 / 24.0, 37.0 / 24.0, -9.0 / 24.0)


ANCHOR_KINDS = ("critical", "corner", "boundary", "artificial")


@dataclass
class Anchor:
    kind: str                 # one of ANCHOR_KINDS
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


def refine_directions(origins, guesses, probe, radii):
    """Fixed-point refinement of many streamline directions in lockstep.

    Lane i refines guesses[i] at origins[i]: each iteration probes psi at
    distance radii[i] along its angle, halving that distance while the probe
    point is OUTSIDE (five times at most), and moves the angle to the branch
    of psi nearest it, until a move is at most DIRECTION_TOL.  Each lane
    keeps its own distance and convergence test, and every live lane's probe
    point goes into one eval_psi_many per iteration.  Location does not
    depend on the batch, so each lane ends where refining it alone would.
    Returns, per lane, the refined angle or the TracingError it ended in.
    """
    n = len(guesses)
    out = [None] * n
    alpha = [float(g) for g in guesses]
    dist = list(radii)
    halvings = [0] * n
    iters = [0] * n
    live = range(n)
    while live:
        psis = probe.eval_psi_many([origins[i] + dist[i] * _unit(alpha[i]) for i in live])
        for i, psi in zip(live, psis):
            if psi is OUTSIDE:
                halvings[i] += 1
                dist[i] *= 0.5
                if halvings[i] == 6:
                    out[i] = TracingError("direction probe kept leaving the domain")
                continue
            new = adjust_branch(psi, alpha[i])
            dalpha = abs(new - alpha[i])
            alpha[i] = new
            iters[i] += 1
            if dalpha <= DIRECTION_TOL:
                out[i] = new
            elif iters[i] == DIRECTION_MAX_ITER:
                out[i] = TracingError(
                    f"initial direction did not converge from guess {guesses[i]:.6f}")
            dist[i], halvings[i] = radii[i], 0
        live = [i for i in live if out[i] is None]
    return out


def _raise_failed(results):
    """results, unless one is a TracingError: then the first one is raised."""
    for r in results:
        if isinstance(r, TracingError):
            raise r
    return results


def _refine_lanes(lanes, probe):
    """refine_directions over (origin, guess, radius) lanes."""
    return refine_directions([o for o, _, _ in lanes], [g for _, g, _ in lanes], probe,
                             [r for _, _, r in lanes])


def launch_directions(nodes, corner_nodes, probe):
    """Launch directions of interior irregular nodes and of corners.

    nodes holds (origin, valence, radius, first_guess) per node.  Two
    refine_directions calls serve them all: every node's base direction
    with every corner direction, then every other node direction
    base + 2 pi j / valence.  Returns one list of directions per node and
    one per corner (boundary rays excluded).  A failure raises the error
    that refining one direction at a time would raise first: nodes in
    order, each base first, then corners.
    """
    wedges = [cn.corner.wedge_angles() for cn in corner_nodes]
    first = [(origin, guess, radius) for origin, valence, radius, guess in nodes
             if valence >= 1]
    first += [(cn.corner.position, th0 + cn.corner.delta_theta * j / cn.valence, cn.radius)
              for cn, (th0, _) in zip(corner_nodes, wedges) for j in range(1, cn.valence)]
    done = iter(_refine_lanes(first, probe))
    bases = [next(done) if valence >= 1 else None for _, valence, _, _ in nodes]
    second = [(origin, base + 2.0 * math.pi * j / valence, radius)
              for (origin, valence, radius, _), base in zip(nodes, bases)
              if isinstance(base, float) for j in range(1, valence)]
    rest = iter(_refine_lanes(second, probe))

    node_dirs = []
    for (_, valence, _, _), base in zip(nodes, bases):
        if valence < 1:
            raise TracingError("initial_directions requires valence >= 1")
        dirs = _raise_failed([base])
        dirs = _raise_failed(dirs + [next(rest) for _ in range(1, valence)])
        _check_distinct(dirs)
        node_dirs.append(dirs)
    corner_dirs = []
    for cn, (th0, th1) in zip(corner_nodes, wedges):
        dirs = [a for a in _raise_failed([next(done) for _ in range(1, cn.valence)])
                if not (_near_ray(a, th0) or _near_ray(a, th1))]
        _check_distinct(dirs)
        corner_dirs.append(dirs)
    return node_dirs, corner_dirs


def initial_directions(origin, valence, probe, c, first_guess=0.0):
    """The valence refined directions around an interior irregular node."""
    return launch_directions([(origin, valence, c, first_guess)], [], probe)[0][0]


def corner_directions(corner_node, probe):
    """Interior launch directions of a corner (boundary rays excluded)."""
    return launch_directions([], [corner_node], probe)[1][0]


def _near_ray(alpha, ray):
    return abs(math.remainder(alpha - ray, 2.0 * math.pi)) < BOUNDARY_COINCIDE_TOL


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

    Stage s of every front is evaluated in one eval_psi_many batch, and a
    stage with no live front makes no call.
    """
    xs = [sl.front() for sl in fronts]
    alpha0 = [sl.front_alpha() for sl in fronts]
    ks = [[_unit(a)] for a in alpha0]
    steps = [None] * len(fronts)
    live = range(len(fronts))
    for frac in (0.5, 0.5, 1.0):
        if not live:
            break
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


def _cut_to_boundary(sl, candidate, domain, registry):
    """End sl where its step to candidate leaves the true boundary.

    The hit is domain.ray_exit of the step; where the ray finds none, the
    point of the boundary closest to candidate.
    """
    hit = domain.ray_exit(sl.front(), candidate)
    loop, seg, t = hit if hit else domain.closest_boundary_point(candidate)[:3]
    anchor = registry.resolve(domain.loops[loop].segments[seg].point(t), loop, seg, t)
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
            _cut_to_boundary(sl, candidate, domain, registry)
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


def trace_all(critical_points, corner_nodes, probe, domain, h, kappa=DEFAULT_KAPPA,
              n_max=DEFAULT_N_MAX, length_factor=DEFAULT_LENGTH_FACTOR):
    """Trace every separatrix; fronts meet closer than kappa steps of length h.
    Raises LimitCycleError if any streamline spirals."""
    threshold = h * kappa
    registry = BoundaryAnchors([cn.corner for cn in corner_nodes], snap_radius=h)
    max_length = length_factor * domain.bbox_diag

    cps = sorted(critical_points, key=lambda c: (c.position[0], c.position[1]))
    node_dirs, corner_dirs = launch_directions(
        [(cp.position, cp.valence, cp.radius, 0.0) for cp in cps], corner_nodes, probe)
    streamlines = []
    for i, (cp, dirs) in enumerate(zip(cps, node_dirs)):
        anchor = Anchor("critical", i, cp.position)
        for b, alpha in enumerate(dirs):
            streamlines.append(Streamline(anchor, b, [cp.position.copy()], [alpha]))
    for i, (cn, dirs) in enumerate(zip(corner_nodes, corner_dirs)):
        anchor = registry.corner_anchors[i]
        for b, alpha in enumerate(dirs):
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


def separatrices_from_json(doc, domain):
    """Separatrices of a separatrices.json document of domain.  A boundary
    anchor must lie, within 1e-6 bbox_diag, at its t in [0, 1] on its segment
    of the domain, as a mesh's boundary face must."""
    def anchor(d):
        if d["kind"] not in ANCHOR_KINDS:
            raise ValueError(f"anchor kind {d['kind']!r} is not one of "
                             f"{', '.join(ANCHOR_KINDS)}")
        a = Anchor(d["kind"], typed(d["ident"], (int,), "ident"),
                   as_points(d["position"], "position"),
                   loop=typed(d["loop"], (int,), "loop"), seg=typed(d["seg"], (int,), "seg"),
                   t=float(typed(d["t"], (int, float), "t")))
        if a.kind == "boundary":
            segs = domain.loops[a.loop].segments if 0 <= a.loop < len(domain.loops) else []
            if not (0 <= a.seg < len(segs) and 0.0 <= a.t <= 1.0) or np.hypot(
                    *(a.position - segs[a.seg].point(a.t))) > 1e-6 * domain.bbox_diag:
                raise ValueError(f"boundary anchor {a.ident} is not on domain segment "
                                 f"({a.loop}, {a.seg}) at t = {a.t!r}")
        return a
    return [Separatrix(points=as_points(rec["points"], "points", polyline=True),
                       start=anchor(rec["start"]), end=anchor(rec["end"]))
            for rec in doc]
