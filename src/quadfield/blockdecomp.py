"""Planar subdivision of the domain by boundary arcs and separatrices.

Boundary loops are split at corners and separatrix feet, separatrices become
interior edges, and faces are extracted from a half-edge structure by
minimum-turn walking.  Degenerate (zero-valence corner) triangles are
repaired by midpoint division: an artificial 3-valent node on a field
streamline launched from the bad corner, joined to the surrounding sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polyline
from .errors import DecompositionError
from .errors import TracingError
from .tracer import (Anchor, BoundaryAnchors, Streamline, advance_all,
                     refine_direction)

AREA_TOL = 1e-14


@dataclass
class VertexRec:
    key: tuple
    position: np.ndarray
    kind: str                   # critical|corner|boundary|artificial|cross|seam
    corner_valence: int = -1    # kind == "corner" only


@dataclass(eq=False)            # identity equality: records.remove must not compare polylines
class EdgeRec:
    v0: tuple
    v1: tuple
    polyline: np.ndarray        # dense, polyline[0] == pos(v0), [-1] == pos(v1)
    kind: str                   # boundary | separatrix | branch | tail


def catmull_rom_densify(points, subdiv=6):
    """C1 interpolating spline through the polyline points, densely sampled.

    One broadcast over (segment, k) evaluates every sample; each takes the
    operations of the one-sample loop in the same order, so its bytes too.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 3 or subdiv < 2:
        return pts.copy()
    ext = np.vstack([2 * pts[0] - pts[1], pts, 2 * pts[-1] - pts[-2]])
    p0, p1, p2, p3 = (ext[i:i + n - 1, None] for i in range(4))
    t = (np.arange(1, subdiv + 1) / subdiv)[:, None]
    t2, t3 = t * t, t * t * t
    out = 0.5 * ((2 * p1) + (-p0 + p2) * t
                 + (2 * p0 - 5 * p1 + 4 * p2 - p3) * t2
                 + (-p0 + 3 * p1 - 3 * p2 + p3) * t3)
    out = np.concatenate([pts[:1], out.reshape(-1, 2)])
    out[-1] = pts[-1]
    return out


def _loop_cumlen(loop):
    lens = [seg.arclength() for seg in loop.segments]
    return np.concatenate([[0.0], np.cumsum(lens)])


def _loop_point(loop, cum, s):
    total = cum[-1]
    s = s % total
    seg_i = int(np.searchsorted(cum, s, side="right") - 1)
    seg_i = min(seg_i, len(loop.segments) - 1)
    t = float(loop.segments[seg_i].t_at_arclength(s - cum[seg_i]))
    return loop.segments[seg_i].point(t)


def _sample_boundary_arc(loop, cum, s0, s1, spacing):
    total = cum[-1]
    if s1 <= s0:
        s1 += total
    n = max(8, int(math.ceil((s1 - s0) / spacing)))
    svals = np.linspace(s0, s1, n + 1)
    return np.array([_loop_point(loop, cum, s) for s in svals])


def boundary_records(domain, corner_nodes, boundary_anchors):
    """Vertices and boundary-arc edges from corners and separatrix feet."""
    vertices = {}
    records = []
    spacing = domain.bbox_diag() / 400.0

    corner_events = {}
    for i, cn in enumerate(corner_nodes):
        c = cn.corner
        key = ("corner", i)
        vertices[key] = VertexRec(key, np.asarray(c.position, dtype=float), "corner",
                                  corner_valence=cn.valence)
        corner_events.setdefault(c.loop_index, []).append((key, c))

    anchor_events = {}
    for a in boundary_anchors:
        key = ("boundary", a.ident)
        vertices[key] = VertexRec(key, np.asarray(a.position, dtype=float), "boundary")
        anchor_events.setdefault(a.loop, []).append((key, a))

    for li, loop in enumerate(domain.loops):
        cum = _loop_cumlen(loop)
        total = cum[-1]
        events = []
        for key, c in corner_events.get(li, []):
            s = cum[c.seg_out] % total
            events.append((s, key))
        for key, a in anchor_events.get(li, []):
            ts, cl = loop.segments[a.seg].arclength_table()
            s = cum[a.seg] + float(np.interp(a.t, ts, cl))
            events.append((s % total, key))
        if not events:
            key = ("seam", li)
            pos = loop.segments[0].point(0.0)
            vertices[key] = VertexRec(key, pos, "seam")
            poly = _sample_boundary_arc(loop, cum, 0.0, total, spacing)
            poly[0] = pos
            poly[-1] = pos
            records.append(EdgeRec(key, key, poly, "boundary"))
            continue
        events.sort(key=lambda ev: ev[0])
        m = len(events)
        for i in range(m):
            s0, k0 = events[i]
            s1, k1 = events[(i + 1) % m]
            poly = _sample_boundary_arc(loop, cum, s0, s1, spacing)
            poly[0] = vertices[k0].position
            poly[-1] = vertices[k1].position
            records.append(EdgeRec(k0, k1, poly, "boundary"))
    return vertices, records


def _trim_near_anchors(points):
    """Drop interior points inside one step of either anchor.

    Boundary snapping can fold the last integrated points back across the
    anchor; removing that sub-step zigzag keeps the densified curve clean.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 4:
        return pts
    step = float(np.median(polyline.seglen(pts)))
    keep = [pts[0]]
    for p in pts[1:-1]:
        if np.hypot(*(p - pts[0])) > 1.05 * step and \
           np.hypot(*(p - pts[-1])) > 1.05 * step:
            keep.append(p)
    keep.append(pts[-1])
    return np.asarray(keep)


def separatrix_records(separatrices, vertices):
    records = []
    for s in separatrices:
        for a in (s.start, s.end):
            key = a.key()
            if key not in vertices:
                vertices[key] = VertexRec(key, np.asarray(a.position, dtype=float),
                                          a.kind)
        poly = catmull_rom_densify(_trim_near_anchors(np.asarray(s.points, dtype=float)))
        poly[0] = vertices[s.start.key()].position
        poly[-1] = vertices[s.end.key()].position
        records.append(EdgeRec(s.start.key(), s.end.key(), poly, "separatrix"))
    return records


# ---- geometric crossing checks ------------------------------------------------


TANGENTIAL_CROSSING_DEG = 25.0


def resolve_crossings(vertices, records):
    """Split transversal separatrix crossings into 4-valent cross vertices.

    Separatrices of the two orthogonal cross families legitimately intersect;
    near-tangential intersections mean the traced graph is invalid.  Crossing
    the domain boundary is always an error.
    """
    for r in records:
        if r.kind == "boundary":
            continue
        for b in records:
            if b.kind != "boundary":
                continue
            if polyline.intersections(r.polyline, b.polyline):
                raise DecompositionError(
                    "invalid separatrix graph: a separatrix crosses the boundary")

    settled = set()
    counter = 0
    while True:
        found = _first_crossing([r for r in records if r.kind != "boundary"], settled)
        if found is None:
            return records
        a, b, x = found
        # tangent directions at the polyline points nearest to the crossing
        da, db = (polyline.direction(p, int(np.argmin(np.sum((p - x) ** 2, axis=1))))
                  for p in (a.polyline, b.polyline))
        ang = abs(math.remainder(da - db, math.pi))
        acute = min(ang, math.pi - ang)
        if acute < math.radians(TANGENTIAL_CROSSING_DEG):
            raise DecompositionError(
                "invalid separatrix graph: separatrices cross tangentially "
                f"({math.degrees(acute):.1f} deg) away from anchors")
        key = ("cross", f"sx{counter}")
        counter += 1
        vertices[key] = VertexRec(key, np.asarray(x, dtype=float), "cross")
        _split_record(records, a, x, key)
        _split_record(records, b, x, key)


def _first_crossing(movable, settled):
    """(a, b, point) of the first crossing pair in scan order, or None.

    The point is the crossing nearest the start of a.  settled holds the pairs
    already found disjoint: a record's polyline never changes, so testing such
    a pair again would give the same empty result.  Pairs found disjoint here
    are added to it.
    """
    for i, a in enumerate(movable):
        for b in movable[i + 1:]:
            if (a, b) in settled:
                continue
            hits = polyline.intersections(a.polyline, b.polyline)
            if hits:
                return a, b, min(hits, key=lambda hx: hx[0])[1]
            settled.add((a, b))
    return None


def _split_record(records, rec, point, key):
    """Replace rec in records by its two halves, joined at vertex key."""
    first, second = polyline.split_at(rec.polyline, point)
    records.remove(rec)
    records.append(EdgeRec(rec.v0, key, first, rec.kind))
    records.append(EdgeRec(key, rec.v1, second, rec.kind))


# ---- half-edge structure -------------------------------------------------------


@dataclass
class Face:
    half_edges: list            # indices into subdivision.half_edges
    area: float
    walk_keys: list             # vertex keys in walk order
    polygon: np.ndarray


class PlanarSubdivision:
    """Half-edge arrangement of the boundary/separatrix graph."""

    def __init__(self, vertices, records, domain=None, validate=True):
        self.vertices = dict(vertices)
        self.records = list(records)
        self.domain = domain
        if validate:
            self.records = resolve_crossings(self.vertices, self.records)
        self._build()
        self._extract_faces()

    # half-edge i: record i//2, forward if i even (v0->v1)
    def _he_vertices(self, he):
        rec = self.records[he // 2]
        return (rec.v0, rec.v1) if he % 2 == 0 else (rec.v1, rec.v0)

    def _he_polyline(self, he):
        rec = self.records[he // 2]
        return rec.polyline if he % 2 == 0 else rec.polyline[::-1]

    def _build(self):
        outgoing = {}
        for ei, rec in enumerate(self.records):
            for he in (2 * ei, 2 * ei + 1):
                tail, _ = self._he_vertices(he)
                poly = self._he_polyline(he)
                d = poly[1] - poly[0]
                k = 1
                while np.hypot(*d) < 1e-15 and k + 1 < len(poly):
                    k += 1
                    d = poly[k] - poly[0]
                outgoing.setdefault(tail, []).append((math.atan2(d[1], d[0]), he))
        self.next_he = {}
        for v, lst in outgoing.items():
            lst.sort()
            n = len(lst)
            order = [he for _, he in lst]
            for idx, he in enumerate(order):
                # face continues from the twin's CCW predecessor around v
                prev = order[(idx - 1) % n]
                self.next_he[_twin(he)] = prev

    def _extract_faces(self):
        seen = set()
        faces = []
        for he0 in sorted(self.next_he):
            if he0 in seen:
                continue
            walk = []
            he = he0
            while True:
                seen.add(he)
                walk.append(he)
                he = self.next_he[he]
                if he == he0:
                    break
                if len(walk) > 4 * len(self.records) + 8:
                    raise DecompositionError("face walk failed to close")
            pts = np.vstack([self._he_polyline(h)[:-1] for h in walk]
                            + [self._he_polyline(walk[-1])[-1:]])
            area = polyline.signed_area(pts[:-1])
            keys = [self._he_vertices(h)[0] for h in walk]
            faces.append(Face(walk, area, keys, pts))
        self.faces = faces
        self.bounded_faces = [f for f in faces if f.area > AREA_TOL]

    def euler_check(self):
        holes = len(self.domain.holes) if self.domain is not None else 0
        v = len(self.vertices)
        e = len(self.records)
        f = len(self.bounded_faces) + 1
        if v - e + f != 2 - holes:
            raise DecompositionError(
                f"Euler check failed: V-E+F = {v}-{e}+{f} = {v - e + f}, "
                f"expected {2 - holes}")
        n_neg = sum(1 for fc in self.faces if fc.area <= AREA_TOL)
        if n_neg != holes + 1:
            raise DecompositionError(
                f"expected {holes + 1} unbounded/hole faces, found {n_neg}")

    def face_corners(self, face):
        """(corner keys, zero-valence corner keys) along the face walk."""
        corners = []
        zeros = []
        for key in face.walk_keys:
            vr = self.vertices[key]
            if vr.kind == "seam":
                continue
            if vr.kind == "corner" and vr.corner_valence == 0:
                zeros.append(key)
                continue
            corners.append(key)
        return corners, zeros


def _twin(he):
    return he ^ 1


def drop_converging_separatrices(separatrices, corner_nodes):
    """Split off separatrices that terminate at a zero-valence corner.

    Streamlines converging into a dead corner bound no block; they are the
    raw material of the midpoint division, which reuses the same field line
    away from the corner.  Returns (kept, dropped).
    """
    dead = {i for i, cn in enumerate(corner_nodes) if cn.valence == 0}
    kept, dropped = [], []
    for s in separatrices:
        if any(a.kind == "corner" and a.ident in dead for a in (s.start, s.end)):
            dropped.append(s)
        else:
            kept.append(s)
    return kept, dropped


def build_subdivision(domain, separatrices, corner_nodes):
    """Arrangement of the traced separatrices over the domain boundary."""
    separatrices, _dropped = drop_converging_separatrices(separatrices, corner_nodes)
    bnd_anchors = []
    seen = set()
    for s in separatrices:
        for a in (s.start, s.end):
            if a.kind == "boundary" and a.key() not in seen:
                seen.add(a.key())
                bnd_anchors.append(a)
    vertices, records = boundary_records(domain, corner_nodes, bnd_anchors)
    records.extend(separatrix_records(separatrices, vertices))
    sub = PlanarSubdivision(vertices, records, domain=domain)
    sub.euler_check()
    return sub


def classify_faces(sub):
    """Partition bounded faces into quads and degenerate triangles.

    Other face shapes are tolerated while a degenerate face is pending: a
    node whose converging branch was withheld leaves an unfinished sector
    that midpoint division completes.  With none pending they are an error.
    """
    quads, degenerate, other = [], [], []
    for f in sub.bounded_faces:
        corners, zeros = sub.face_corners(f)
        if zeros:
            if len(zeros) > 1 or len(corners) not in (2, 3):
                raise DecompositionError(
                    f"face with {len(corners)} corners and {len(zeros)} dead corners")
            degenerate.append(f)
        elif len(corners) == 4:
            quads.append(f)
        else:
            other.append(len(corners))
    if other and not degenerate:
        raise DecompositionError(
            f"non-quadrilateral face with {other[0]} block corners")
    return quads, degenerate


# ---- midpoint division ---------------------------------------------------------


def _face_sides(sub, face):
    """Sides between consecutive counted corners: list of (start key, he list)."""
    walk = face.half_edges
    keys = face.walk_keys
    counted = [i for i, k in enumerate(keys) if sub.vertices[k].kind != "seam"]
    if not counted:
        raise DecompositionError("face has no corner vertices")
    sides = []
    m = len(counted)
    for a in range(m):
        i0 = counted[a]
        i1 = counted[(a + 1) % m]
        idxs = []
        i = i0
        while True:
            idxs.append(walk[i])
            i = (i + 1) % len(walk)
            if i == i1:
                break
        sides.append((keys[i0], idxs))
    return sides


def _side_polyline(sub, hes):
    pts = [sub._he_polyline(h)[:-1] for h in hes]
    pts.append(sub._he_polyline(hes[-1])[-1:])
    return np.vstack(pts)


def trace_tail(origin, alpha0, probe, domain, h, critical_points=(), n_max=20000):
    """Integrate a field streamline from origin until it terminates.

    Termination is either the domain boundary or a critical point: the tail
    re-creates the converging streamline that the dead corner swallowed, so
    it ends on the node whose branch was withheld from the subdivision.
    """
    sl = Streamline(Anchor("artificial", 0, np.asarray(origin, dtype=float)), 0,
                    [np.asarray(origin, dtype=float)], [float(alpha0)])
    reg = BoundaryAnchors((), 0.0)      # every boundary hit is a fresh anchor
    rounds = 0
    while sl.status == "active" and rounds < n_max:
        advance_all([sl], probe, h, domain=domain, registry=reg, n_max=n_max)
        for ci, cp in enumerate(critical_points):
            if np.hypot(*(sl.front() - cp.position)) < max(cp.radius, h):
                sl.points.append(cp.position.copy())
                sl.status = "hit_boundary"
                sl.end_anchor = Anchor("critical", ci, cp.position)
                break
        rounds += 1
    if sl.status != "hit_boundary":
        raise DecompositionError("midpoint-division streamline failed to terminate")
    return np.asarray(sl.points), sl.end_anchor


def _pick_node(tail, exit_len, m1, m2):
    """Node on the tail whose straight branches best sit at +-2pi/3."""
    cum = polyline.cumlen(tail)
    best = None
    best_err = math.inf
    for i in range(1, len(tail) - 1):
        if cum[i] < 0.08 * exit_len or cum[i] > 0.92 * exit_len:
            continue
        d = polyline.direction(tail, i)
        a1 = math.atan2(*(m1 - tail[i])[::-1])
        a2 = math.atan2(*(m2 - tail[i])[::-1])
        plus, minus = d + 2 * math.pi / 3, d - 2 * math.pi / 3
        err = min(_angdist(a1, plus) ** 2 + _angdist(a2, minus) ** 2,
                  _angdist(a1, minus) ** 2 + _angdist(a2, plus) ** 2)
        if err < best_err:
            best_err = err
            best = i
    if best is None:
        raise DecompositionError("no admissible artificial node position on the tail")
    return best


def _angdist(a, b):
    return abs(math.remainder(a - b, 2.0 * math.pi))


class MidpointDivider:
    """Rewrites the record set to replace one degenerate triangle by 3 quads."""

    def __init__(self, sub, probe, domain, h, corner_nodes, critical_points=(),
                 dropped=()):
        self.sub = sub
        self.probe = probe
        self.domain = domain
        self.h = h
        self.corner_nodes = corner_nodes
        self.critical_points = list(critical_points)
        self.dropped = list(dropped)
        self.counter = 0

    def _tail_for(self, qkey, q, corner, cn):
        """The physical streamline away from the dead corner.

        A separatrix that converged into the corner is the same field line;
        reuse it reversed so the far end lands exactly on its origin node.
        Otherwise integrate a fresh one from the corner wedge.
        """
        for s in self.dropped:
            for this_end, other_end, pts in ((s.end, s.start, s.points[::-1]),
                                             (s.start, s.end, s.points)):
                if this_end.kind == "corner" and this_end.ident == qkey[1]:
                    tail = np.asarray(pts, dtype=float).copy()
                    tail[0] = q
                    return tail, other_end
        bisector = corner.theta_out + 0.5 * corner.delta_theta
        try:
            alpha = refine_direction(q, bisector, self.probe, cn.radius)
        except TracingError:
            alpha = bisector           # oscillating refinement: the field line
        return trace_tail(q, alpha, self.probe, self.domain, self.h,
                          critical_points=self.critical_points)

    def divide(self, face):
        sub = self.sub
        _, zeros = sub.face_corners(face)
        qkey = zeros[0]
        cn = self.corner_nodes[qkey[1]]
        corner = cn.corner
        q = sub.vertices[qkey].position

        tail, hit = self._tail_for(qkey, q, corner, cn)

        sides = _face_sides(sub, face)
        adj_out = next(s for s in sides if s[0] == qkey)
        adj_in = next(s for s in sides if sub._he_vertices(s[1][-1])[1] == qkey)
        others = [s for s in sides if s is not adj_out and s is not adj_in]

        # first exit of the tail through the rest of the face boundary
        exits = []
        tail_len = float(np.sum(polyline.seglen(tail)))
        for _, hes in others:
            spoly = _side_polyline(sub, hes)
            for s_along, x in polyline.intersections(tail, spoly):
                exits.append((s_along, x, hes))
            if not exits:
                # a boundary-terminated tail ends ON a side instead of crossing it
                _, d = polyline.nearest_segment(spoly, tail[-1])
                if d < 1e-6 * (1.0 + self.probe.mesh.bbox_diag):
                    exits.append((tail_len, tail[-1], hes))
        if not exits:
            raise DecompositionError("midpoint streamline never leaves its face")
        exits.sort(key=lambda ex: ex[0])
        exit_len, exit_pt, exit_hes = exits[0]

        # In a triangle, q sits between its two adjacent sides: the node joins
        # their midpoints and the tail runs on to the exit.  Between two
        # adjacent and two far sides, the streamline head is q's connection
        # and the node joins the far-side midpoints.
        far = len(others) == 2
        joined = others if far else [adj_out, adj_in]
        mids = [polyline.midpoint(_side_polyline(sub, hes)) for _, hes in joined]
        ni = _pick_node(tail, exit_len, *mids)
        node_pos = tail[ni]
        node_key = ("artificial", self.counter)
        self.counter += 1

        records = list(sub.records)
        vertices = dict(sub.vertices)

        def split_record(hes_side, at_point, new_vkey, kind):
            """Split the (single) record under a side at a point on it."""
            if len(hes_side) != 1:
                raise DecompositionError("block side spans multiple edges")
            vertices[new_vkey] = VertexRec(new_vkey, np.asarray(at_point, dtype=float),
                                           kind)
            _split_record(records, sub.records[hes_side[0] // 2], at_point, new_vkey)

        vertices[node_key] = VertexRec(node_key, node_pos, "artificial")
        mid_keys = [("cross", f"m{k}-{node_key[1]}") for k in (1, 2)]
        for (_, hes), m, mk in zip(joined, mids, mid_keys):
            split_record(hes, m, mk, "boundary")
        if far:
            head = tail[:ni + 1][::-1].copy()
            head[-1] = q
            records.append(EdgeRec(node_key, qkey, head, "tail"))
        else:
            # the tail runs from the node to the exit point; past an interior
            # edge it continues through the next faces
            ek = ("cross", f"x-{node_key[1]}")
            on_boundary = sub.records[exit_hes[0] // 2].kind == "boundary"
            split_record(exit_hes, exit_pt, ek, "boundary" if on_boundary else "cross")
            records.append(EdgeRec(node_key, ek, _cut_tail(tail, ni, exit_pt), "tail"))
            if not on_boundary:
                _, rest = polyline.split_at(tail, exit_pt)
                self._propagate(records, vertices, rest, ek, hit, node_key)
        for m, mk in zip(mids, mid_keys):
            records.append(EdgeRec(node_key, mk, np.vstack([node_pos, m]), "branch"))

        vertices[qkey] = VertexRec(qkey, vertices[qkey].position, "corner",
                                   corner_valence=1)
        return PlanarSubdivision(vertices, records, domain=self.domain, validate=False)

    def _propagate(self, records, vertices, rest, from_key, hit, node_key):
        """Continue the tail through subsequent faces, splitting crossed edges."""
        current = rest
        start_key = from_key
        guard = 0
        while True:
            guard += 1
            if guard > 50:
                raise DecompositionError("midpoint tail crossed too many edges")
            hits = []
            for rec in list(records):
                if rec.kind == "branch" or rec.v0 == start_key or rec.v1 == start_key:
                    continue
                for s_along, x in polyline.intersections(current, rec.polyline):
                    hits.append((s_along, x, rec))
            if not hits:
                if hit.kind == "critical":
                    endk = ("critical", hit.ident)
                else:
                    endk = ("boundary", f"tail-{node_key[1]}")
                    vertices[endk] = VertexRec(endk, np.asarray(hit.position),
                                               "boundary")
                poly = current.copy()
                poly[-1] = vertices[endk].position if endk in vertices else hit.position
                records.append(EdgeRec(start_key, endk, poly, "tail"))
                return
            hits.sort(key=lambda hx: hx[0])
            s_along, x, rec = hits[0]
            xk = ("cross", f"x{guard}-{node_key[1]}")
            vertices[xk] = VertexRec(xk, np.asarray(x), "cross")
            _split_record(records, rec, x, xk)
            upto, beyond = polyline.split_at(current, x)
            records.append(EdgeRec(start_key, xk, upto, "tail"))
            current = beyond
            start_key = xk


def _cut_tail(tail, ni, exit_pt):
    upto, _ = polyline.split_at(tail, exit_pt)
    cut = upto[ni:]
    if len(cut) < 2:
        cut = np.vstack([tail[ni], exit_pt])
    return cut


def decompose(domain, probe, corner_nodes, separatrices, h, critical_points=()):
    """Full subdivision with degenerate triangles repaired; all faces quads."""
    sub = build_subdivision(domain, separatrices, corner_nodes)
    _kept, dropped = drop_converging_separatrices(separatrices, corner_nodes)
    quads, degenerate = classify_faces(sub)
    divider = MidpointDivider(sub, probe, domain, h, corner_nodes,
                              critical_points=critical_points, dropped=dropped)
    rounds = 0
    while degenerate:
        rounds += 1
        if rounds > 8:
            raise DecompositionError("midpoint division failed to converge")
        sub = divider.divide(degenerate[0])
        divider.sub = sub
        sub.euler_check()
        quads, degenerate = classify_faces(sub)
    return sub, quads
