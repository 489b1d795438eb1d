"""Planar subdivision of the domain by boundary arcs and separatrices.

Boundary loops are split at corners and separatrix feet, separatrices become
interior edges, and faces are extracted from a half-edge structure by
minimum-turn walking.  Degenerate (zero-valence corner) triangles are
repaired by midpoint division: an artificial 3-valent node on a field
streamline launched from the bad corner, joined to the surrounding sides.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import polyline
from .errors import DecompositionError, TracingError
from .tracer import Anchor, BoundaryAnchors, Streamline, advance_all, refine_directions

AREA_TOL = 1e-14
# Rounds (and steps) before a midpoint-division streamline counts as unterminated.
TAIL_MAX_ROUNDS = 20000


@dataclass
class VertexRec:
    key: tuple
    position: np.ndarray
    kind: str                   # critical|corner|boundary|artificial|cross|seam
    corner_valence: int = -1    # kind == "corner" only


@dataclass(eq=False, frozen=True)   # identity equality: records.remove must not compare polylines
class EdgeRec:
    v0: tuple
    v1: tuple
    polyline: np.ndarray        # dense, polyline[0] == pos(v0), [-1] == pos(v1); read-only
    kind: str                   # boundary | separatrix | branch | tail

    def __post_init__(self):
        # the cached boxes and resolve_crossings' hit table assume a fixed polyline
        self.polyline.setflags(write=False)

    @functools.cached_property
    def box(self):
        """(xmin, ymin, xmax, ymax) of the polyline grown by BBOX_PAD, the range of
        its chunk boxes: records whose boxes do not meet never cross."""
        cb = self.chunk_boxes
        return (*cb[:2].min(axis=1).tolist(), *cb[2:].max(axis=1).tolist())

    @functools.cached_property
    def chunk_boxes(self):
        """polyline.chunk_boxes of the polyline."""
        return polyline.chunk_boxes(self.polyline)


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


def boundary_records(domain, corner_nodes, boundary_anchors):
    """Vertices and boundary-arc edges from corners and separatrix feet.

    A loop with neither gets a seam vertex at its start and one closed edge.
    """
    vertices = {}
    records = []
    spacing = domain.bbox_diag / 400.0

    corner_events = {}
    for i, cn in enumerate(corner_nodes):
        c = cn.corner
        key = ("corner", i)
        vertices[key] = VertexRec(key, np.asarray(c.position, dtype=float), "corner",
                                  corner_valence=cn.valence)
        corner_events.setdefault(c.loop_index, []).append((key, c.seg_out, 0.0))

    anchor_events = {}
    for a in boundary_anchors:
        key = ("boundary", a.ident)
        vertices[key] = VertexRec(key, np.asarray(a.position, dtype=float), "boundary")
        anchor_events.setdefault(a.loop, []).append((key, a.seg, a.t))

    for li, loop in enumerate(domain.loops):
        events = [(loop.arclength_at(seg, t), key) for key, seg, t in
                  corner_events.get(li, []) + anchor_events.get(li, [])]
        if not events:
            key = ("seam", li)
            vertices[key] = VertexRec(key, loop.segments[0].point(0.0), "seam")
            events = [(0.0, key)]
        events.sort(key=lambda ev: ev[0])
        m = len(events)
        for i in range(m):
            s0, k0 = events[i]
            s1, k1 = events[(i + 1) % m]
            poly = loop.arc_points(s0, s1, spacing)
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
    inner = pts[1:-1]
    far = (np.hypot(*(inner - pts[0]).T) > 1.05 * step) & \
        (np.hypot(*(inner - pts[-1]).T) > 1.05 * step)
    return np.vstack([pts[:1], inner[far], pts[-1:]])


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

    The records other than boundary arcs are scanned in list order, pair by
    pair, and the first pair that crosses is split at its crossing nearest
    the start of its first record; the halves go to the end of the list and
    the scan starts again.  A record's polyline never changes, so one batched
    test fills a table of the crossing pairs, and after each split one more
    tests the four halves against every live record and each other.
    """
    movable = [r for r in records if r.kind != "boundary"]
    boundary = [r for r in records if r.kind == "boundary"]
    if _crossing_hits(itertools.product(movable, boundary)):
        raise DecompositionError(
            "invalid separatrix graph: a separatrix crosses the boundary")

    live = dict.fromkeys(movable)           # in scan order: halves go last
    hits = _crossing_hits(itertools.combinations(movable, 2))
    counter = 0
    while hits:
        halves = _split_first_crossing(vertices, records, live, hits, f"sx{counter}")
        counter += 1
        hits.update(_crossing_hits([(r, h) for r in live for h in halves]
                                   + list(itertools.combinations(halves, 2))))
        live.update(dict.fromkeys(halves))
    return records


def _split_first_crossing(vertices, records, live, hits, name):
    """Split the first crossing pair (a, b) of live in scan order at the
    crossing nearest the start of a, under the cross vertex name; drop a and
    b from live and hits, and return the four halves.
    """
    rank = {r: k for k, r in enumerate(live)}
    a, b = min(hits, key=lambda ab: (rank[ab[0]], rank[ab[1]]))
    s_along, xs = polyline.points_along(a.polyline, *hits[a, b])
    x = xs[np.argmin(s_along)]
    # tangent directions at the polyline points nearest to the crossing
    da, db = (polyline.direction(p, int(np.argmin(np.sum((p - x) ** 2, axis=1))))
              for p in (a.polyline, b.polyline))
    ang = abs(math.remainder(da - db, math.pi))
    acute = min(ang, math.pi - ang)
    if acute < math.radians(TANGENTIAL_CROSSING_DEG):
        raise DecompositionError(
            "invalid separatrix graph: separatrices cross tangentially "
            f"({math.degrees(acute):.1f} deg) away from anchors")
    key = ("cross", name)
    del live[a], live[b]
    for ab in [ab for ab in hits if a in ab or b in ab]:
        del hits[ab]
    return (_split_record(records, vertices, a, x, key, "cross")
            + _split_record(records, vertices, b, x, key, "cross"))


def _crossing_hits(pairs):
    """{(a, b): (i, t)} of the record pairs that cross, for a pair_crossings table.

    Segments i of a.polyline cross b at fractions t along them, in row-major
    order.  The pairs whose boxes meet are tested, in one call.
    """
    pairs = list(pairs)
    recs = list(dict.fromkeys(r for pair in pairs for r in pair))
    index = {r: k for k, r in enumerate(recs)}
    ab = np.array([(index[a], index[b]) for a, b in pairs], dtype=np.intp).reshape(-1, 2)
    box = np.array([r.box for r in recs]).reshape(-1, 4).T
    meet = np.flatnonzero(polyline.boxes_meet(box[:, ab[:, 0]], box[:, ab[:, 1]]))
    p, i, _, t, _ = polyline.pair_crossings([r.polyline for r in recs], ab[meet],
                                            [r.chunk_boxes for r in recs])
    starts = np.flatnonzero(np.diff(p, prepend=-1)).tolist()
    return {pairs[meet[p[s]]]: (i[s:e], t[s:e])
            for s, e in zip(starts, starts[1:] + [len(p)])}


def _split_record(records, vertices, rec, point, key, kind):
    """Add vertex key of kind at point and replace rec in records by its two
    halves, joined there; return the halves."""
    vertices[key] = VertexRec(key, np.asarray(point, dtype=float), kind)
    first, second = polyline.split_at(rec.polyline, point)
    records.remove(rec)
    halves = [EdgeRec(rec.v0, key, first, rec.kind), EdgeRec(key, rec.v1, second, rec.kind)]
    records.extend(halves)
    return halves


# ---- half-edge structure -------------------------------------------------------


@dataclass
class Face:
    half_edges: list            # indices into subdivision.half_edges
    area: float
    walk_keys: list             # vertex keys in walk order
    polygon: np.ndarray


class PlanarSubdivision:
    """Half-edge arrangement of the boundary/separatrix graph."""

    def __init__(self, vertices, records, domain=None):
        self.vertices = dict(vertices)
        self.records = list(records)
        self.domain = domain
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

    def face_sides(self, face):
        """Sides between consecutive non-seam vertices of the face walk.

        Each side is (start key, half-edge list); a face with no such vertex
        has none.
        """
        keys = face.walk_keys
        starts = [i for i, k in enumerate(keys) if self.vertices[k].kind != "seam"]
        ends = starts[1:] + starts[:1]
        twice = face.half_edges * 2
        return [(keys[i0], twice[i0:i1 if i1 > i0 else i1 + len(keys)])
                for i0, i1 in zip(starts, ends)]

    def side_polyline(self, half_edges):
        """The dense polyline along consecutive half-edges."""
        pts = [self._he_polyline(h)[:-1] for h in half_edges]
        pts.append(self._he_polyline(half_edges[-1])[-1:])
        return np.vstack(pts)

    def face_corners(self, face):
        """(corner keys, zero-valence corner keys) of the face's side starts."""
        corners = []
        zeros = []
        for key, _ in self.face_sides(face):
            vr = self.vertices[key]
            if vr.kind == "corner" and vr.corner_valence == 0:
                zeros.append(key)
            else:
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
    sub = PlanarSubdivision(vertices, resolve_crossings(vertices, records), domain=domain)
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


def trace_tail(origin, alpha0, probe, domain, h, critical_points=()):
    """Integrate a field streamline from origin until it terminates.

    Termination is either the domain boundary or a critical point: the tail
    re-creates the converging streamline that the dead corner swallowed, so
    it ends on the node whose branch was withheld from the subdivision.
    """
    sl = Streamline(Anchor("artificial", 0, np.asarray(origin, dtype=float)), 0,
                    [np.asarray(origin, dtype=float)], [float(alpha0)])
    reg = BoundaryAnchors((), 0.0)      # every boundary hit is a fresh anchor
    rounds = 0
    while sl.status == "active" and rounds < TAIL_MAX_ROUNDS:
        advance_all([sl], probe, h, domain=domain, registry=reg, n_max=TAIL_MAX_ROUNDS)
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


def _first_exit(tail, sides, tol):
    """(arclength, point, k) of the tail's first exit, through sides[k].

    The exits are the tail's crossings of each side in turn, row-major, from
    one pair_crossings call.  While none is found, a tail that ends on a
    side (nearer than tol) instead of crossing it exits at its end.  The
    exit nearest along the tail wins, the first of them on ties.
    """
    p, i, _, t, _ = polyline.pair_crossings([tail] + sides,
                                            [(0, k + 1) for k in range(len(sides))])
    s_along, xs = polyline.points_along(tail, i, t)
    tail_len = float(np.sum(polyline.seglen(tail)))
    exits = []
    for k, spoly in enumerate(sides):
        exits += [(s_along[h], xs[h], k) for h in np.flatnonzero(p == k)]
        if not exits and polyline.nearest_segment(spoly, tail[-1])[1] < tol:
            exits.append((tail_len, tail[-1], k))
    if not exits:
        raise DecompositionError("midpoint streamline never leaves its face")
    return min(exits, key=lambda ex: ex[0])


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
        alpha = refine_directions([q], [bisector], self.probe, [cn.radius])[0]
        if isinstance(alpha, TracingError):
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

        sides = sub.face_sides(face)
        adj_out = next(s for s in sides if s[0] == qkey)
        adj_in = next(s for s in sides if sub._he_vertices(s[1][-1])[1] == qkey)
        others = [s for s in sides if s is not adj_out and s is not adj_in]

        exit_len, exit_pt, k = _first_exit(tail, [sub.side_polyline(hes) for _, hes in others],
                                           1e-6 * (1.0 + self.probe.mesh.bbox_diag))
        exit_hes = others[k][1]

        # In a triangle, q sits between its two adjacent sides: the node joins
        # their midpoints and the tail runs on to the exit.  Between two
        # adjacent and two far sides, the streamline head is q's connection
        # and the node joins the far-side midpoints.
        far = len(others) == 2
        joined = others if far else [adj_out, adj_in]
        mids = [polyline.midpoint(sub.side_polyline(hes)) for _, hes in joined]
        ni = _pick_node(tail, exit_len, *mids)
        node_pos = tail[ni]
        node_key = ("artificial", self.counter)
        self.counter += 1

        records = list(sub.records)
        vertices = dict(sub.vertices)

        def split_side(hes, point, key, kind):
            """Split the (single) record under a side at a point on it."""
            if len(hes) != 1:
                raise DecompositionError("block side spans multiple edges")
            _split_record(records, vertices, sub.records[hes[0] // 2], point, key, kind)

        vertices[node_key] = VertexRec(node_key, node_pos, "artificial")
        mid_keys = [("cross", f"m{k}-{node_key[1]}") for k in (1, 2)]
        for (_, hes), m, mk in zip(joined, mids, mid_keys):
            split_side(hes, m, mk, "boundary")
        if far:
            head = tail[:ni + 1][::-1].copy()
            head[-1] = q
            records.append(EdgeRec(node_key, qkey, head, "tail"))
        else:
            # the tail runs from the node to the exit point; past an interior
            # edge it continues through the next faces
            ek = ("cross", f"x-{node_key[1]}")
            on_boundary = sub.records[exit_hes[0] // 2].kind == "boundary"
            split_side(exit_hes, exit_pt, ek, "boundary" if on_boundary else "cross")
            upto, rest = polyline.split_at(tail, exit_pt)
            cut = upto[ni:]
            if len(cut) < 2:
                cut = np.vstack([tail[ni], exit_pt])
            records.append(EdgeRec(node_key, ek, cut, "tail"))
            if not on_boundary:
                self._propagate(records, vertices, rest, ek, hit, node_key)
        for m, mk in zip(mids, mid_keys):
            records.append(EdgeRec(node_key, mk, np.vstack([node_pos, m]), "branch"))

        vertices[qkey] = VertexRec(qkey, vertices[qkey].position, "corner",
                                   corner_valence=1)
        return PlanarSubdivision(vertices, records, domain=self.domain)

    def _propagate(self, records, vertices, rest, from_key, hit, node_key):
        """Continue the tail through subsequent faces, splitting crossed edges."""
        current = rest
        start_key = from_key
        guard = 0
        while True:
            guard += 1
            if guard > 50:
                raise DecompositionError("midpoint tail crossed too many edges")
            piece = EdgeRec(start_key, None, current, "tail")
            found = _crossing_hits((piece, rec) for rec in records if rec.kind != "branch"
                                   and start_key not in (rec.v0, rec.v1))
            if not found:
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
            # the crossing nearest along the tail, the first in record order on ties
            _, x, rec = min(((s, x, rec) for (_, rec), (i, t) in found.items()
                             for s, x in zip(*polyline.points_along(current, i, t))),
                            key=lambda hx: hx[0])
            xk = ("cross", f"x{guard}-{node_key[1]}")
            _split_record(records, vertices, rec, x, xk, "cross")
            upto, beyond = polyline.split_at(current, x)
            records.append(EdgeRec(start_key, xk, upto, "tail"))
            current = beyond
            start_key = xk


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
