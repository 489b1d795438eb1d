"""Domain boundaries: parametric curve segments, oriented loops, corners.

A domain is one counter-clockwise outer loop plus optional clockwise hole
loops, so the interior always lies to the left of the oriented boundary.
Segments are parametrized over t in [0, 1] and expose points and exact
derivatives; everything downstream (boundary conditions, corner valences,
streamline termination) is driven by the tangent angle along these curves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import polyline
from .errors import GeometryError

TWO_PI = 2.0 * math.pi

# Tangent-angle jump beyond this is a modeled corner; below it is noise.
CORNER_ANGLE_TOL = 1e-3

# Samples per loop for zero counting and point-in-domain polygons.
LOOP_SAMPLES = 4096

# Uniform parameter intervals of a segment's arclength table.
ARC_TABLE_SAMPLES = 256

# A ray crossing is looked for within this fraction of the bounding-box
# diagonal before the step's start and past its end (DomainSpec.ray_exit).
RAY_MARGIN = 1e-3
# Newton steps on t that take a crossing of the dense polyline onto the curve.
RAY_NEWTON_STEPS = 8


def wrap_2pi(a):
    """Wrap angle(s) into [0, 2*pi)."""
    return np.mod(a, TWO_PI)


def wrap_pi(a):
    """Wrap angle(s) into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(a), TWO_PI)


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _on_segment(s, t, s0, s1):
    """[(s, t)] if s0 <= s <= s1 and 0 <= t <= 1, else []."""
    return [(float(s), float(t))] if s0 <= s <= s1 and 0.0 <= t <= 1.0 else []


def boundary_field(theta_b):
    """Boundary guiding field (cos 4*theta, sin 4*theta) for tangent angle theta_b.

    Invariant under theta_b -> theta_b + k*pi/2, which encodes the 4-fold
    symmetry of a cross.
    """
    t4 = 4.0 * np.asarray(theta_b, dtype=float)
    return np.cos(t4), np.sin(t4)


# ---- shape checks of JSON input: domain files and stage artifacts ------------


def finite(a, what):
    """The array a, unless it holds a NaN or an infinity (a ValueError naming what)."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


def check_finite(arrays, error, what):
    """Raise error, naming what, when one of arrays (or tuples of numbers) holds
    a NaN or an infinity: a stage checks what it hands on before writing it."""
    bad = sum(not np.isfinite(a).all() for a in arrays)
    if bad:
        raise error(f"{what} hold a NaN or an infinity in {bad} of {len(arrays)} arrays")


def as_points(value, what, polyline=False):
    """value as finite floats: a point [x, y] (2,), or with polyline a polyline (n >= 2, 2).

    Anything else is a ValueError naming what.
    """
    a = np.asarray(value, dtype=float)
    ok = a.ndim == 2 and a.shape[1] == 2 and len(a) >= 2 if polyline else a.shape == (2,)
    if not ok:
        kind = "a polyline (n >= 2, 2)" if polyline else "a point [x, y]"
        raise ValueError(f"{what} must be {kind}, got shape {a.shape}")
    return finite(a, what)


def typed(value, kinds, what):
    """value if it is of kinds (never a bool); else a TypeError naming what (a
    ValueError for a float that is not finite)."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{what} must be {' or '.join(k.__name__ for k in kinds)}, "
                        f"not {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, not {value!r}")
    return value


def _finite(text):
    """The float of a JSON number or NaN/Infinity constant, unless it is not finite."""
    value = float(text)                 # 1e999 overflows to inf
    if not -math.inf < value < math.inf:
        raise ValueError(f"{text} is not a finite number")
    return value


def read_json(path, error, every_number=True):
    """The JSON document in path; invalid JSON, NaN, Infinity and, with every_number,
    a number that overflows (1e999) raise error naming path.  Without it the caller
    checks each value it takes (as_points, typed, finite): a number costs no Python call."""
    hooks = {"parse_float": _finite} if every_number else {}
    with open(path) as f:
        try:
            return json.load(f, parse_constant=_finite, **hooks)
        except ValueError as ex:
            raise error(f"{path}: not valid JSON ({ex})") from None


class CurveSegment:
    """Base class for parametric boundary curves on t in [0, 1]."""

    kind = "abstract"

    def point(self, t):
        raise NotImplementedError

    def deriv(self, t):
        raise NotImplementedError

    def points(self, ts):
        ts = np.asarray(ts, dtype=float)
        return np.stack([self.point(t) for t in ts])

    def start(self):
        return self.point(0.0)

    def end(self):
        return self.point(1.0)

    def tangent_angle(self, t):
        """Angle of the oriented tangent at parameter t."""
        d = self.deriv(t)
        n = math.hypot(d[0], d[1])
        if n < 1e-14 * (1.0 + self._scale):
            raise GeometryError(f"singular parametrization of {self.kind} segment at t={t}")
        return math.atan2(d[1], d[0])

    @cached_property
    def _scale(self):
        """Coordinate magnitude of the end points."""
        return float(np.abs(self.start()).max() + np.abs(self.end()).max())

    @cached_property
    def arclength_table(self):
        """(ts, points, cum): ARC_TABLE_SAMPLES + 1 uniform t, their points and arclength."""
        ts = np.linspace(0.0, 1.0, ARC_TABLE_SAMPLES + 1)
        pts = self.points(ts)
        return ts, pts, polyline.cumlen(pts)

    def arclength(self):
        return float(self.arclength_table[2][-1])

    def t_at_arclength(self, s):
        """Parameter t at arclength s from the segment start (s may be an array)."""
        ts, _, cum = self.arclength_table
        return np.interp(s, cum, ts)

    def arclength_at(self, t):
        """Arclength from the segment start at parameter t: the inverse of t_at_arclength."""
        ts, _, cum = self.arclength_table
        return np.interp(t, ts, cum)

    def closest_point(self, x):
        """(t, distance) of the closest point on this segment to x."""
        ts, pts, _ = self.arclength_table
        d2 = (pts[:, 0] - x[0]) ** 2 + (pts[:, 1] - x[1]) ** 2
        i = int(np.argmin(d2))
        # refine by 40 bisection steps on the sign of d/dt |p(t)-x|^2
        # between the neighbouring table parameters
        lo = ts[max(i - 1, 0)]
        hi = ts[min(i + 1, len(ts) - 1)]
        t = ts[i]
        for _ in range(40):
            p = self.point(t)
            dp = self.deriv(t)
            g = 2.0 * np.dot(p - x, dp)
            if g > 0:
                hi = t
            else:
                lo = t
            t = 0.5 * (lo + hi)
        p = self.point(t)
        return float(t), float(math.hypot(p[0] - x[0], p[1] - x[1]))

    def ray_crossings(self, origin, d, s0, s1):
        """(s, t) where origin + s * d, s0 <= s <= s1, crosses this segment at point(t).

        Each crossing of the dense polyline of arclength_table is taken onto
        the curve by Newton on t for cross(point(t) - origin, d) = 0.
        """
        ts, pts, _ = self.arclength_table
        _, j, _, u = polyline.crossings(np.array([origin + s0 * d, origin + s1 * d]), pts)
        out = []
        for t in ts[j] + u * (ts[j + 1] - ts[j]):
            for _ in range(RAY_NEWTON_STEPS):
                slope = _cross(self.deriv(t), d)
                if slope == 0.0:
                    break
                t_new = min(max(t - _cross(self.point(t) - origin, d) / slope, 0.0), 1.0)
                if t_new == t:
                    break
                t = t_new
            out += _on_segment(np.dot(self.point(t) - origin, d) / np.dot(d, d), t, s0, s1)
        return out


class Line(CurveSegment):
    kind = "line"

    def __init__(self, p0, p1):
        self.p0 = as_points(p0, "line p0")
        self.p1 = as_points(p1, "line p1")

    def point(self, t):
        return self.p0 + t * (self.p1 - self.p0)

    def points(self, ts):
        ts = np.asarray(ts, dtype=float)[:, None]
        return self.p0 + ts * (self.p1 - self.p0)

    def deriv(self, t):
        return self.p1 - self.p0

    def ray_crossings(self, origin, d, s0, s1):
        e = self.p1 - self.p0
        denom = _cross(d, e)
        if denom == 0.0:
            return []
        w = self.p0 - origin
        return _on_segment(_cross(w, e) / denom, _cross(w, d) / denom, s0, s1)

    def to_json(self):
        return {"kind": "line", "p0": list(self.p0), "p1": list(self.p1)}


class Arc(CurveSegment):
    """Circular arc from angle a0 to a1 (signed sweep sets orientation)."""

    kind = "arc"

    def __init__(self, center, radius, a0, a1):
        if radius <= 0:
            raise GeometryError("arc radius must be positive")
        if a0 == a1:
            raise GeometryError("arc sweep must be nonzero")
        self.center = as_points(center, "arc center")
        self.radius = float(radius)
        self.a0 = float(a0)
        self.a1 = float(a1)

    def _angle(self, t):
        return self.a0 + t * (self.a1 - self.a0)

    def point(self, t):
        a = self._angle(t)
        return self.center + self.radius * np.array([math.cos(a), math.sin(a)])

    def points(self, ts):
        a = self._angle(np.asarray(ts, dtype=float))
        return self.center + self.radius * np.stack([np.cos(a), np.sin(a)], axis=-1)

    def deriv(self, t):
        a = self._angle(t)
        sweep = self.a1 - self.a0
        return self.radius * sweep * np.array([-math.sin(a), math.cos(a)])

    def ray_crossings(self, origin, d, s0, s1):
        # |w + s d| = radius, solved without cancellation; each root's angle
        # is measured from a0 along the sweep and taken nearest the arc
        w = origin - self.center
        a, b, c = float(d @ d), float(d @ w), float(w @ w) - self.radius ** 2
        disc = b * b - a * c
        if disc < 0.0:
            return []
        q = -(b + math.copysign(math.sqrt(disc), b))
        sweep = abs(self.a1 - self.a0)
        out = []
        for s in {q / a, c / q} if q else {0.0}:
            x = w + s * d
            u = (math.atan2(x[1], x[0]) - self.a0) * math.copysign(1.0, self.a1 - self.a0)
            u %= TWO_PI
            if u > 0.5 * (sweep + TWO_PI):
                u -= TWO_PI
            out += _on_segment(s, u / sweep, s0, s1)
        return out

    def to_json(self):
        return {"kind": "arc", "center": list(self.center), "radius": self.radius,
                "a0": self.a0, "a1": self.a1}


class Spline(CurveSegment):
    """Natural cubic spline through the given points, chord-length parametrized."""

    kind = "spline"

    def __init__(self, points):
        pts = as_points(points, "spline points", polyline=True)
        if len(pts) < 3:
            raise GeometryError("spline needs at least 3 points")
        from scipy.interpolate import CubicSpline
        chord = polyline.cumlen(pts)
        if chord[-1] <= 0:
            raise GeometryError("spline control points are coincident")
        self._u = chord / chord[-1]
        self._cs = CubicSpline(self._u, pts, bc_type="natural")
        self.ctrl = pts

    def point(self, t):
        return np.asarray(self._cs(t), dtype=float)

    def points(self, ts):
        return np.asarray(self._cs(np.asarray(ts, dtype=float)), dtype=float)

    def deriv(self, t):
        return np.asarray(self._cs(t, 1), dtype=float)

    def to_json(self):
        return {"kind": "spline", "points": [list(p) for p in self.ctrl]}


class Naca4(CurveSegment):
    """Closed 4-digit airfoil traversed TE -> lower -> LE -> upper -> TE.

    That direction keeps the exterior flow domain on the left, so a naca4
    segment forms a complete hole loop on its own.  The trailing edge uses
    the closed-TE thickness coefficient, so point(0) == point(1) exactly and
    the TE is a finite-angle corner.  The leading edge is parametrized via
    x = s^2, which keeps the derivative finite and nonzero there.
    """

    kind = "naca4"

    _C = (0.2969, -0.1260, -0.3516, 0.2843, -0.1036)

    def __init__(self, code, chord=1.0, origin=(0.0, 0.0)):
        code = str(code)
        if len(code) != 4 or not code.isdigit():
            raise GeometryError(f"invalid naca4 code {code!r}")
        self.code = code
        self.m = int(code[0]) / 100.0
        self.p = int(code[1]) / 10.0
        self.thick = int(code[2:]) / 100.0
        if self.thick <= 0:
            raise GeometryError("zero-thickness airfoil is degenerate")
        self.chord = float(chord)
        self.origin = as_points(origin, "naca4 origin")

    def _half_thickness(self, s):
        # thickness polynomial in s = sqrt(x/c); analytic in s through the LE
        c0, c1, c2, c3, c4 = self._C
        return 5.0 * self.thick * (c0 * s + c1 * s**2 + c2 * s**4 + c3 * s**6 + c4 * s**8)

    def _half_thickness_ds(self, s):
        c0, c1, c2, c3, c4 = self._C
        return 5.0 * self.thick * (c0 + 2 * c1 * s + 4 * c2 * s**3 + 6 * c3 * s**5 + 8 * c4 * s**7)

    def _camber(self, x):
        m, p = self.m, self.p
        if m == 0.0:
            return 0.0, 0.0
        if x < p:
            return m / p**2 * (2 * p * x - x * x), 2 * m / p**2 * (p - x)
        return m / (1 - p) ** 2 * ((1 - 2 * p) + 2 * p * x - x * x), 2 * m / (1 - p) ** 2 * (p - x)

    def _surface(self, s, side):
        """Point and d/ds on the given surface (+1 upper, -1 lower), unit chord."""
        x = s * s
        yt = self._half_thickness(s)
        dyt = self._half_thickness_ds(s)
        if self.m == 0.0:
            return np.array([x, side * yt]), np.array([2 * s, side * dyt])
        yc, dyc_dx = self._camber(x)
        th = math.atan(dyc_dx)
        # d(theta)/ds: camber slope is linear in x on each branch
        d2yc = -2 * self.m / (self.p**2 if x < self.p else (1 - self.p) ** 2)
        dth_ds = d2yc * 2 * s / (1 + dyc_dx**2)
        px = x - side * yt * math.sin(th)
        py = yc + side * yt * math.cos(th)
        dpx = 2 * s - side * (dyt * math.sin(th) + yt * math.cos(th) * dth_ds)
        dpy = dyc_dx * 2 * s + side * (dyt * math.cos(th) - yt * math.sin(th) * dth_ds)
        return np.array([px, py]), np.array([dpx, dpy])

    def _eval(self, t):
        if t <= 0.5:
            s = 1.0 - 2.0 * t
            p, dp = self._surface(s, -1.0)
            dp = -2.0 * dp
        else:
            s = 2.0 * t - 1.0
            p, dp = self._surface(s, +1.0)
            dp = 2.0 * dp
        return self.origin + self.chord * p, self.chord * dp

    def point(self, t):
        return self._eval(float(t))[0]

    def deriv(self, t):
        return self._eval(float(t))[1]

    def to_json(self):
        return {"kind": "naca4", "code": self.code, "chord": self.chord,
                "origin": list(self.origin)}


def tangent_angle(segment, t):
    """Tangent angle theta_b = atan2(y', x') of the oriented curve at t."""
    if not 0.0 <= t <= 1.0:
        raise GeometryError(f"parameter t={t} outside [0, 1]")
    return segment.tangent_angle(t)


@dataclass
class CornerSpec:
    """A tangent-angle discontinuity at a segment junction."""

    position: np.ndarray
    theta_in: float        # incoming tangent angle
    theta_out: float       # outgoing tangent angle
    delta_theta: float     # interior angle in (0, 2*pi)
    loop_index: int
    seg_in: int            # index of the incoming segment within the loop
    seg_out: int
    bc_continuous: bool    # interior angle is a multiple of pi/2

    def wedge_angles(self):
        """Direction interval [start, start+delta] covering the interior wedge."""
        return self.theta_out, self.theta_out + self.delta_theta


class BoundaryLoop:
    """Closed chain of segments; orientation 'outer' (ccw) or 'hole' (cw)."""

    def __init__(self, segments, orientation):
        if orientation not in ("outer", "hole"):
            raise GeometryError(f"unknown loop orientation {orientation!r}")
        if not segments:
            raise GeometryError("empty loop")
        self.segments = list(segments)
        self.orientation = orientation
        self._check_closed()

    def _check_closed(self):
        pts = [(s.start(), s.end()) for s in self.segments]
        diag = self._bbox_diag(pts)
        tol = max(1e-12 * diag, 1e-14)
        for i, seg in enumerate(self.segments):
            nxt = self.segments[(i + 1) % len(self.segments)]
            gap = np.hypot(*(seg.end() - nxt.start()))
            if gap > tol:
                raise GeometryError(
                    f"loop not closed: segment {i} ends {gap:.3e} away from segment "
                    f"{(i + 1) % len(self.segments)}")

    @staticmethod
    def _bbox_diag(endpoint_pairs):
        arr = np.array([p for pair in endpoint_pairs for p in pair])
        return float(np.hypot(*(arr.max(axis=0) - arr.min(axis=0)))) or 1.0

    @cached_property
    def cumlen(self):
        """Loop arclength at each segment start, then the loop length."""
        return np.concatenate([[0.0], np.cumsum([seg.arclength() for seg in self.segments])])

    def arclength_at(self, seg, t):
        """Loop arclength in [0, length) at parameter t of segment seg."""
        cum = self.cumlen
        return (cum[seg] + float(self.segments[seg].arclength_at(t))) % cum[-1]

    def arc_points(self, s0, s1, spacing):
        """Points from loop arclength s0 to s1, across the seam when s1 <= s0.

        Uniform in arclength, at most spacing apart, and at least 9.
        """
        cum = self.cumlen
        if s1 <= s0:
            s1 += cum[-1]
        n = max(8, int(math.ceil((s1 - s0) / spacing)))
        s = np.linspace(s0, s1, n + 1) % cum[-1]
        seg_of = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(self.segments) - 1)
        out = np.empty((n + 1, 2))
        for i, seg in enumerate(self.segments):
            on = seg_of == i
            if on.any():
                out[on] = seg.points(seg.t_at_arclength(s[on] - cum[i]))
        return out

    def sample_arclength(self, n=LOOP_SAMPLES):
        """About n points uniform in arclength on each segment, at least 8 per segment.

        Returns (points[m,2], seg_indices[m], ts[m]).
        """
        lens = np.array([s.arclength() for s in self.segments])
        total = lens.sum()
        counts = np.maximum(np.round(n * lens / total).astype(int), 8)
        pts, sids, ts = [], [], []
        for i, (seg, cnt) in enumerate(zip(self.segments, counts)):
            tvals = seg.t_at_arclength(np.linspace(0.0, lens[i], cnt, endpoint=False))
            pts.append(seg.points(tvals))
            sids.append(np.full(cnt, i))
            ts.append(tvals)
        return np.concatenate(pts), np.concatenate(sids), np.concatenate(ts)

    @cached_property
    def polygon(self):
        """Dense polygon approximation for point-in-domain tests."""
        return self.sample_arclength()[0]

    def tangent_angles(self, n=LOOP_SAMPLES):
        """Tangent angle at each point of sample_arclength(n)."""
        _, sids, ts = self.sample_arclength(n)
        return np.array([self.segments[i].tangent_angle(t) for i, t in zip(sids, ts)])

    def signed_area(self):
        return polyline.signed_area(self.polygon)

    def corners(self, loop_index=0):
        """CornerSpecs at every junction with tangent jump beyond CORNER_ANGLE_TOL."""
        out = []
        nseg = len(self.segments)
        for j in range(nseg):
            seg_in = self.segments[j]
            seg_out = self.segments[(j + 1) % nseg]
            th_in = seg_in.tangent_angle(1.0)
            th_out = seg_out.tangent_angle(0.0)
            jump = abs(float(wrap_pi(th_out - th_in)))
            if jump <= CORNER_ANGLE_TOL:
                continue
            delta = float(wrap_2pi(th_in + math.pi - th_out))
            if delta < CORNER_ANGLE_TOL:
                delta = TWO_PI  # full reversal: treat as a cusp wedge
            frac = delta % (math.pi / 2.0)
            bc_cont = min(frac, math.pi / 2.0 - frac) <= CORNER_ANGLE_TOL
            out.append(CornerSpec(
                position=seg_out.start().copy(),
                theta_in=th_in, theta_out=th_out, delta_theta=delta,
                loop_index=loop_index, seg_in=j, seg_out=(j + 1) % nseg,
                bc_continuous=bc_cont))
        return out

    def to_json(self):
        return {"orientation": self.orientation,
                "segments": [s.to_json() for s in self.segments]}


def boundary_zero_count(loop, component):
    """Sign changes of one boundary-field component around a smooth loop."""
    if loop.corners():
        raise GeometryError("smooth loop required: boundary_zero_count with corners present")
    if component not in ("u", "v"):
        raise GeometryError(f"component must be 'u' or 'v', got {component!r}")
    u, v = boundary_field(loop.tangent_angles())
    vals = u if component == "u" else v
    signs = np.sign(vals)
    # treat exact zeros as the following sample's sign
    for i in range(len(signs) - 2, -1, -1):
        if signs[i] == 0:
            signs[i] = signs[i + 1]
    return int(np.sum(signs != np.roll(signs, -1)) // 1) if len(signs) else 0


def boundary_zero_positions(loop, component):
    """Arclength fractions of the zero crossings (midpoint of the straddle)."""
    u, v = boundary_field(loop.tangent_angles())
    vals = u if component == "u" else v
    nxt = np.roll(vals, -1)
    idx = np.nonzero(np.sign(vals) * np.sign(nxt) < 0)[0]
    return (idx + 0.5) / len(vals)


class DomainSpec:
    """One outer loop plus zero or more hole loops."""

    def __init__(self, loops, name="domain"):
        outers = [lp for lp in loops if lp.orientation == "outer"]
        holes = [lp for lp in loops if lp.orientation == "hole"]
        if len(outers) != 1:
            raise GeometryError(f"domain needs exactly one outer loop, got {len(outers)}")
        self.name = str(name)
        self.outer = outers[0]
        self.holes = holes
        self.loops = [self.outer] + self.holes
        self._validate()

    def _validate(self):
        if self.outer.signed_area() <= 0:
            raise GeometryError("outer loop must be counter-clockwise")
        for i, h in enumerate(self.holes):
            if h.signed_area() >= 0:
                raise GeometryError(f"hole loop {i} must be clockwise")
            if not _point_in_polygon(h.polygon[::97], self.outer.polygon).all():
                raise GeometryError(f"hole loop {i} not inside the outer loop")
        for i in range(len(self.holes)):
            for j in range(i + 1, len(self.holes)):
                if _point_in_polygon(self.holes[i].polygon[::257], self.holes[j].polygon).any():
                    raise GeometryError(f"hole loops {i} and {j} overlap")

    @cached_property
    def bbox(self):
        """(lo, hi) corners of the bounding box of the dense polygons."""
        pts = np.concatenate([lp.polygon for lp in self.loops])
        return pts.min(axis=0), pts.max(axis=0)

    @cached_property
    def bbox_diag(self):
        lo, hi = self.bbox
        return float(np.hypot(*(hi - lo)))

    def area(self):
        """Domain area by the shoelace formula on the dense polygons."""
        return float(sum(lp.signed_area() for lp in self.loops))

    def corner_inventory(self):
        out = []
        for li, lp in enumerate(self.loops):
            out.extend(lp.corners(loop_index=li))
        return out

    def ray_exit(self, front, candidate):
        """(loop, seg, t) where the step front -> candidate leaves the domain, or None.

        Every segment is crossed with the line front + s * d, d = candidate -
        front, within RAY_MARGIN * bbox_diag before the front and past the
        candidate.  A crossing exits where d points to the right of the
        oriented tangent, out of the domain.  The exit is the first exiting
        crossing at s >= 0, unless the last crossing at s < 0 exits: the
        front then lies just outside the curve, and that crossing is the exit.
        """
        d = np.asarray(candidate, dtype=float) - front
        margin = RAY_MARGIN * self.bbox_diag / math.hypot(d[0], d[1])
        hits = sorted((s, li, si, t) for li, lp in enumerate(self.loops)
                      for si, seg in enumerate(lp.segments)
                      for s, t in seg.ray_crossings(front, d, -margin, 1.0 + margin))

        def exits(hit):
            _, li, si, t = hit
            return _cross(self.loops[li].segments[si].deriv(t), d) < 0.0

        behind = [hit for hit in hits if hit[0] < 0.0]
        if behind and exits(behind[-1]):
            return behind[-1][1:]
        return next((hit[1:] for hit in hits if hit[0] >= 0.0 and exits(hit)), None)

    def closest_boundary_point(self, x):
        """(loop_index, seg_index, t, distance) of the globally closest boundary point."""
        best = None
        for li, lp in enumerate(self.loops):
            for si, seg in enumerate(lp.segments):
                t, d = seg.closest_point(np.asarray(x, dtype=float))
                if best is None or d < best[3]:
                    best = (li, si, t, d)
        return best

    def to_json(self):
        return {"name": self.name, "loops": [lp.to_json() for lp in self.loops]}


def in_region(x, outer, holes):
    """Whether x lies inside the outer polygon and outside every hole polygon:
    a bool for one point (2,), a (k,) mask for k points (k, 2)."""
    pts = np.reshape(np.asarray(x, dtype=float), (-1, 2))
    inside = _point_in_polygon(pts, outer)
    for h in holes:
        inside &= ~_point_in_polygon(pts, h)
    return inside if np.ndim(x) == 2 else bool(inside[0])


# Point-edge pairs per pass of the crossing-number test: its tables stay near 2 MB.
PIP_PAIRS = 1 << 18


def _point_in_polygon(pts, poly):
    """Crossing-number test of each of k points (k, 2): a (k,) mask.

    Points on the boundary may land either way.  Each point counts the
    polygon edges that straddle its y and cross its ray to the right.
    """
    xs, ys = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(xs, -1), np.roll(ys, -1)
    odd = np.zeros(len(pts), dtype=bool)
    step = max(1, PIP_PAIRS // len(xs))
    for s in range(0, len(pts), step):
        px, py = pts[s:s + step, :1], pts[s:s + step, 1:]
        straddle = (ys > py) != (yn > py)
        # the abscissa of an edge that does not straddle py is never read
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            xint = xs + (py - ys) / (yn - ys) * (xn - xs)
        odd[s:s + step] = np.count_nonzero(straddle & (px < xint), axis=1) % 2 == 1
    return odd


def _json_object(doc, where):
    if not isinstance(doc, dict):
        raise GeometryError(f"{where} must be a JSON object, not {type(doc).__name__}")
    return doc


def _json_list(doc, key, where):
    """doc[key] of the JSON object doc, which must hold a list."""
    if key not in _json_object(doc, where):
        raise GeometryError(f"{where} is missing key {key!r}")
    if not isinstance(doc[key], list):
        raise GeometryError(f"{where} {key!r} must be a JSON list, not {type(doc[key]).__name__}")
    return doc[key]


def _segment_from_json(d, where):
    kind = _json_object(d, where).get("kind")
    try:
        if kind == "line":
            return Line(d["p0"], d["p1"])
        if kind == "arc":
            return Arc(d["center"], d["radius"], d["a0"], d["a1"])
        if kind == "spline":
            return Spline(d["points"])
        if kind == "naca4":
            return Naca4(d["code"], d.get("chord", 1.0), d.get("origin", (0.0, 0.0)))
    except KeyError as ex:
        raise GeometryError(f"{where} is missing key {ex.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError, GeometryError) as ex:
        raise GeometryError(f"{where}: {ex}") from None
    raise GeometryError(f"{where}: unknown segment kind {kind!r}")


def domain_from_json(doc):
    loops = []
    for i, lp in enumerate(_json_list(doc, "loops", "domain")):
        segments = [_segment_from_json(seg, f"loop {i} segment {j}")
                    for j, seg in enumerate(_json_list(lp, "segments", f"loop {i}"))]
        if "orientation" not in lp:
            raise GeometryError(f"loop {i} is missing key 'orientation'")
        loops.append(BoundaryLoop(segments, lp["orientation"]))
    return DomainSpec(loops, name=doc.get("name", "domain"))


def load_domain(path):
    return domain_from_json(read_json(path, GeometryError))


_FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name):
    p = _FIXTURES / f"{name}.json"
    if not p.exists():
        raise GeometryError(f"no fixture named {name!r}")
    return p


def load_fixture(name):
    return load_domain(fixture_path(name))
