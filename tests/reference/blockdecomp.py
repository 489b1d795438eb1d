"""The cut's record split before the batched pass, a subdivision's state, two divisions."""

import math

import numpy as np

from quadfield import polyline
from quadfield.blockdecomp import EdgeRec, MidpointDivider, PlanarSubdivision, VertexRec
from quadfield.field import AnalyticProbe
from quadfield.geometry import DomainSpec, Line
from quadfield.singular import CornerNode


def reference_split_record(records, rec, point, key):
    """Replace rec in records by its two halves, joined at vertex key."""
    first, second = polyline.split_at(rec.polyline, point)
    records.remove(rec)
    records.append(EdgeRec(rec.v0, key, first, rec.kind))
    records.append(EdgeRec(key, rec.v1, second, rec.kind))


def _state(vertices, records):
    """Vertices (key, kind, position bytes, corner valence) and records (keys,
    kind, polyline shape and bytes), in order."""
    return ([(k, v.kind, np.asarray(v.position).tobytes(), v.corner_valence)
             for k, v in vertices.items()],
            [(r.v0, r.v1, r.kind, r.polyline.shape, r.polyline.tobytes()) for r in records])


def equilateral_division():
    """(subdivision, (apex, left, right)) of an equilateral face divided once."""
    # synthetic degenerate triangle: equilateral with a dead corner at the apex
    apex = np.array([0.0, math.sqrt(3.0)])
    left = np.array([-1.0, 0.0])
    right = np.array([1.0, 0.0])
    vertices = {
        ("corner", 0): VertexRec(("corner", 0), apex, "corner", corner_valence=0),
        ("boundary", 0): VertexRec(("boundary", 0), left, "boundary"),
        ("boundary", 1): VertexRec(("boundary", 1), right, "boundary"),
    }

    def seg(a, b):
        return np.column_stack([np.linspace(a[0], b[0], 30),
                                np.linspace(a[1], b[1], 30)])

    records = [
        EdgeRec(("corner", 0), ("boundary", 0), seg(apex, left), "boundary"),
        EdgeRec(("boundary", 0), ("boundary", 1), seg(left, right), "boundary"),
        EdgeRec(("boundary", 1), ("corner", 0), seg(right, apex), "boundary"),
    ]
    sub = PlanarSubdivision(vertices, records, domain=None)
    face = sub.bounded_faces[0]

    class FakeDomain:
        @staticmethod
        def contains(p):
            x, y = p
            return (y > 1e-9 and y < math.sqrt(3.0) * (1 - abs(x)) - 0.0)

        @staticmethod
        def closest_boundary_point(p):
            return (0, 1, max(0.0, min(1.0, (p[0] + 1) / 2.0)), abs(p[1]))

        # the streamline leaves through the base, segment 1
        loops = [type("L", (), {"segments": [Line(apex, left), Line(left, right),
                                             Line(right, apex)]})()]
        bbox_diag = 2.0
        ray_exit = DomainSpec.ray_exit

    fd = FakeDomain()

    class FakeProbe(AnalyticProbe):
        def __init__(self):
            super().__init__(lambda x, y: (1.0, 0.0), region=fd.contains)
            self.mesh = type("M", (), {"bbox_diag": 2.0})()

        def eval_psi_many(self, points):
            from quadfield.field import OUTSIDE
            # principal phase of a field aligned with the median
            return [0.0 if fd.contains(p) else OUTSIDE for p in points]

    corner = type("C", (), {
        "position": apex, "theta_out": math.radians(-60.0) - math.pi / 2,
        "delta_theta": math.radians(60.0), "theta_in": 0.0})()
    cn = CornerNode(corner=corner, corner_id=0, valence=0, radius=0.2)

    return MidpointDivider(sub, FakeProbe(), fd, 0.05, [cn]).divide(face), (apex, left, right)


def dead_corner_division():
    """The subdivision of a quadrilateral face with a dead corner, divided once."""
    # a quadrilateral face with a dead corner q: two sides meet at q and two
    # lie across from it, so the node joins q and the far-side midpoints
    q, a, b, c = (np.array(p) for p in [(0.0, 1.5), (-1.0, 0.0), (0.3, -1.0),
                                         (1.0, 0.0)])
    ring = [q, a, b, c]
    keys = [("corner", 0), ("boundary", 0), ("boundary", 1), ("boundary", 2)]
    vertices = {k: VertexRec(k, p, "boundary") for k, p in zip(keys, ring)}
    vertices[keys[0]] = VertexRec(keys[0], q, "corner", corner_valence=0)
    records = [EdgeRec(keys[i], keys[(i + 1) % 4],
                       np.linspace(ring[i], ring[(i + 1) % 4], 30), "boundary")
               for i in range(4)]
    sub = PlanarSubdivision(vertices, records, domain=None)

    def inside(p):
        return all((w[0] - v[0]) * (p[1] - v[1]) - (w[1] - v[1]) * (p[0] - v[0]) > 1e-9
                   for v, w in zip(ring, ring[1:] + ring[:1]))

    class FakeDomain:
        # the streamline from q leaves through the far side a -> b, segment 1
        loops = [type("L", (), {"segments": [Line(q, a), Line(a, b), Line(b, c),
                                             Line(c, q)]})()]
        bbox_diag = 3.0
        ray_exit = DomainSpec.ray_exit

        @staticmethod
        def closest_boundary_point(p):
            t = min(max(float(np.dot(p - a, b - a) / np.dot(b - a, b - a)), 0.0), 1.0)
            return 0, 1, t, float(np.hypot(*(a + t * (b - a) - p)))

    class FakeProbe(AnalyticProbe):
        def __init__(self):
            super().__init__(lambda x, y: (1.0, 0.0), region=inside)
            self.mesh = type("M", (), {"bbox_diag": 3.0})()

        def eval_psi_many(self, points):
            from quadfield.field import OUTSIDE
            return [0.0 if inside(p) else OUTSIDE for p in points]

    corner = type("C", (), {"position": q, "theta_out": -math.pi / 2 - 0.5,
                            "delta_theta": 1.0})()
    cn = CornerNode(corner=corner, corner_id=0, valence=0, radius=0.2)

    return MidpointDivider(sub, FakeProbe(), FakeDomain(), 0.05, [cn]).divide(
        sub.bounded_faces[0])
