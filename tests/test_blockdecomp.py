import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadfield import blockdecomp, polyline
from quadfield.blockdecomp import (EdgeRec, MidpointDivider, PlanarSubdivision,
                                   VertexRec, build_subdivision, catmull_rom_densify,
                                   classify_faces, decompose, resolve_crossings)
from quadfield.errors import DecompositionError, TracingError
from quadfield.field import AnalyticProbe
from quadfield.geometry import DomainSpec, Line
from quadfield.quadblocks import (QuadBlock, SidePath, build_blocks,
                                  child_quality, isoparametric_split)
from quadfield.singular import CornerNode
from quadfield.tracer import Anchor, Separatrix

from conftest import square_domain


def _record_signature(records):
    """(v0, v1, kind, polyline digest) per record, in record order."""
    return [(r.v0, r.v1, r.kind, hashlib.sha256(r.polyline.tobytes()).hexdigest()[:16])
            for r in records]


# The record polylines of the midpoint-division tests when a streamline's exit
# was bisected onto the region of the fake probe and then snapped to the curve.
SKIN_CUT_POLYLINES = json.loads(
    (Path(__file__).parent / "data" / "midpoint_division_polylines.json").read_text())


def _assert_records(records, test_name, signature):
    """records have the pinned signature, and each polyline lies within 1e-4
    of its polyline under the skin-bisecting cut."""
    assert _record_signature(records) == signature
    old = SKIN_CUT_POLYLINES[test_name]
    assert len(old) == len(records)
    for r, o in zip(records, old):
        assert r.polyline.shape == np.shape(o)
        assert np.abs(r.polyline - o).max() <= 1e-4, (r.v0, r.v1)


def corner_nodes_for(domain, valences):
    corners = domain.corner_inventory()
    return [CornerNode(corner=c, corner_id=i, valence=v,
                       radius=0.1 * domain.bbox_diag)
            for i, (c, v) in enumerate(zip(corners, valences))]


def _reference_densify(points, subdiv=6):
    """The one-sample loop of catmull_rom_densify before it was one broadcast."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 3 or subdiv < 2:
        return pts.copy()
    ext = np.vstack([2 * pts[0] - pts[1], pts, 2 * pts[-1] - pts[-2]])
    out = [pts[0]]
    for i in range(n - 1):
        p0, p1, p2, p3 = ext[i], ext[i + 1], ext[i + 2], ext[i + 3]
        for k in range(1, subdiv + 1):
            t = k / subdiv
            t2, t3 = t * t, t * t * t
            out.append(0.5 * ((2 * p1) + (-p0 + p2) * t
                              + (2 * p0 - 5 * p1 + 4 * p2 - p3) * t2
                              + (-p0 + 3 * p1 - 3 * p2 + p3) * t3))
    out[-1] = pts[-1]
    return np.asarray(out)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000), st.sampled_from([1, 2, 3, 6, 7]), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-3, 1.0, 1e3]))
def test_densify_matches_the_one_sample_loop(n, subdiv, seed, scale):
    pts = np.random.default_rng(seed).normal(scale=scale, size=(n, 2))
    got = catmull_rom_densify(pts, subdiv)
    want = _reference_densify(pts, subdiv)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_square_single_face():
    dom = square_domain()
    cns = corner_nodes_for(dom, [1, 1, 1, 1])
    sub = build_subdivision(dom, [], cns)
    quads, degenerate = classify_faces(sub)
    assert len(quads) == 1 and not degenerate
    corners, zeros = sub.face_corners(quads[0])
    assert len(corners) == 4 and not zeros


def test_crossing_separatrices_rejected():
    dom = square_domain()
    cns = corner_nodes_for(dom, [1, 1, 1, 1])
    # two nearly-parallel diagonals that cross tangentially mid-domain
    line1 = np.column_stack([np.linspace(0.1, 0.9, 40),
                             np.linspace(0.48, 0.523, 40)])
    line2 = np.column_stack([np.linspace(0.13, 0.9, 41),
                             np.linspace(0.517, 0.48, 41)])
    seps = [
        Separatrix(points=line1, start=Anchor("critical", 0, line1[0]),
                   end=Anchor("critical", 1, line1[-1])),
        Separatrix(points=line2, start=Anchor("critical", 2, line2[0]),
                   end=Anchor("critical", 3, line2[-1])),
    ]
    with pytest.raises(DecompositionError, match="invalid separatrix graph"):
        build_subdivision(dom, seps, cns)


def test_transversal_crossing_becomes_vertex():
    dom = square_domain()
    cns = corner_nodes_for(dom, [1, 1, 1, 1])
    horiz = np.column_stack([np.linspace(0.0, 1.0, 40), np.full(40, 0.47)])
    vert = np.column_stack([np.full(41, 0.53), np.linspace(0.0, 1.0, 41)])
    seps = [
        Separatrix(points=horiz, start=Anchor("boundary", 0, horiz[0],
                                              loop=0, seg=3, t=0.53),
                   end=Anchor("boundary", 1, horiz[-1], loop=0, seg=1, t=0.47)),
        Separatrix(points=vert, start=Anchor("boundary", 2, vert[0],
                                             loop=0, seg=0, t=0.53),
                   end=Anchor("boundary", 3, vert[-1], loop=0, seg=2, t=0.47)),
    ]
    sub = build_subdivision(dom, seps, cns)
    quads, degenerate = classify_faces(sub)
    assert len(quads) == 4 and not degenerate
    assert any(k[0] == "cross" for k in sub.vertices)


def test_grid_of_separatrices_gives_cross_vertices_in_scan_order():
    dom = square_domain()
    cns = corner_nodes_for(dom, [1, 1, 1, 1])
    ys, xs = (0.31, 0.69), (0.33, 0.67)
    seps = []
    for y in ys:
        line = np.column_stack([np.linspace(0.0, 1.0, 40), np.full(40, y)])
        seps.append(Separatrix(
            points=line,
            start=Anchor("boundary", len(seps), line[0], loop=0, seg=3, t=1 - y),
            end=Anchor("boundary", len(seps) + 4, line[-1], loop=0, seg=1, t=y)))
    for x in xs:
        line = np.column_stack([np.full(41, x), np.linspace(0.0, 1.0, 41)])
        seps.append(Separatrix(
            points=line,
            start=Anchor("boundary", len(seps), line[0], loop=0, seg=0, t=x),
            end=Anchor("boundary", len(seps) + 4, line[-1], loop=0, seg=2, t=1 - x)))
    sub = build_subdivision(dom, seps, cns)
    quads, degenerate = classify_faces(sub)
    assert len(quads) == 9 and not degenerate
    cross = {k[1]: v.position for k, v in sub.vertices.items() if v.kind == "cross"}
    # the restarted pair scan numbers the crossings in this order
    expected = {"sx0": (xs[0], ys[0]), "sx1": (xs[1], ys[1]),
                "sx2": (xs[1], ys[0]), "sx3": (xs[0], ys[1])}
    assert sorted(cross) == sorted(expected)
    for key, pos in expected.items():
        assert np.allclose(cross[key], pos, atol=1e-12)


def test_grid_scan_tests_each_record_pair_once(monkeypatch):
    tested = []
    intersections = polyline.intersections

    def recorded(pa, pb):
        tested.append((pa.tobytes(), pb.tobytes()))
        return intersections(pa, pb)

    monkeypatch.setattr(polyline, "intersections", recorded)
    test_grid_of_separatrices_gives_cross_vertices_in_scan_order()
    # records are never mutated, so a pair tested again gives the same answer
    assert len(tested) == len(set(tested))


def test_crossing_on_second_of_two_parallel_edges():
    # two separatrices join the same pair of nodes; only the second is crossed
    keys = [("critical", k) for k in range(4)]
    vertices = {k: VertexRec(k, np.array(p), "critical") for k, p in
                zip(keys, [(0.0, 0.0), (1.0, 0.0), (0.5, -0.5), (0.5, -0.1)])}
    x = np.linspace(0.0, 1.0, 20)
    bump = 0.3 * np.sin(math.pi * x)
    upper = EdgeRec(keys[0], keys[1], np.column_stack([x, bump]), "separatrix")
    lower = EdgeRec(keys[0], keys[1], np.column_stack([x, -bump]), "separatrix")
    stub = EdgeRec(keys[2], keys[3], np.column_stack([np.full(10, 0.5),
                                                      np.linspace(-0.5, -0.1, 10)]),
                   "separatrix")
    records = resolve_crossings(vertices, [upper, lower, stub])
    assert records[0] is upper and len(records) == 5
    assert np.allclose(vertices[("cross", "sx0")].position, [0.5, -0.299], atol=1e-3)


def test_half_disc_decomposition(half_disc, half_disc_probe, half_disc_topology,
                                 half_disc_traced):
    cps, cns = half_disc_topology
    seps, _, h_s = half_disc_traced
    sub, quads = decompose(half_disc, half_disc_probe, cns, seps, h_s,
                           critical_points=cps)
    assert len(quads) == 4
    sub.euler_check()
    for f in quads:
        corners, zeros = sub.face_corners(f)
        assert len(corners) == 4


def test_polygon_division_two_irregular_nodes(polygon_iii, polygon_iii_pipeline):
    mesh, sol, probe, cps, cns = polygon_iii_pipeline
    from quadfield.tracer import trace_all
    h_s = 0.25 * mesh.shortest_edge()
    seps, _ = trace_all(cps, cns, probe, polygon_iii, h_s)
    pre = build_subdivision(polygon_iii, seps, cns)
    _, degenerate = classify_faces(pre)
    assert len(degenerate) == 1
    sub, quads = decompose(polygon_iii, probe, cns, seps, h_s,
                           critical_points=cps)
    irregular = [k for k in sub.vertices if k[0] in ("critical", "artificial")]
    assert sorted(k[0] for k in irregular) == ["artificial", "critical"]
    blocks = build_blocks(sub, quads)
    assert sum(b.area() for b in blocks) == pytest.approx(polygon_iii.area(),
                                                          rel=2e-3)


def test_midpoint_division_equilateral_symmetry():
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
    sub = PlanarSubdivision(vertices, records, domain=None, validate=False)
    face = sub.bounded_faces[0]

    # field aligned with the downward median so the streamline runs apex->base
    probe = AnalyticProbe(lambda x, y: (math.cos(4 * (-math.pi / 2)),
                                        math.sin(4 * (-math.pi / 2))))

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

    sub2 = MidpointDivider(sub, FakeProbe(), fd, 0.05, [cn]).divide(face)
    quads, degenerate = classify_faces(sub2)
    assert len(quads) == 3 and not degenerate
    node_key = next(k for k in sub2.vertices if k[0] == "artificial")
    node = sub2.vertices[node_key].position
    centroid = (apex + left + right) / 3.0
    assert np.hypot(*(node - centroid)) < 0.35
    areas = sorted(abs(f.area) for f in sub2.bounded_faces)
    assert areas[-1] / areas[0] < 1.6
    _assert_records(sub2.records, "test_midpoint_division_equilateral_symmetry", [
        (("corner", 0), ("cross", "m1-0"), "boundary", "709660eb12570b51"),
        (("cross", "m1-0"), ("boundary", 0), "boundary", "9a3d6f08a5a87f28"),
        (("boundary", 1), ("cross", "m2-0"), "boundary", "6180928ff315a228"),
        (("cross", "m2-0"), ("corner", 0), "boundary", "9cd6e27b7d200af3"),
        (("boundary", 0), ("cross", "x-0"), "boundary", "c14bd087fb23c435"),
        (("cross", "x-0"), ("boundary", 1), "boundary", "bdd8aefd5009c7fd"),
        (("artificial", 0), ("cross", "x-0"), "tail", "0710927d053bd5a0"),
        (("artificial", 0), ("cross", "m1-0"), "branch", "42875abb8b559dd4"),
        (("artificial", 0), ("cross", "m2-0"), "branch", "d0e3fd41e2cc8229")])


@pytest.mark.parametrize("refined", [0.7, TracingError("oscillating")])
def test_midpoint_tail_starts_from_the_refined_direction_or_the_bisector(monkeypatch,
                                                                         refined):
    lanes, started = [], []
    monkeypatch.setattr(blockdecomp, "refine_directions",
                        lambda *lane: lanes.append(lane) or [refined])
    monkeypatch.setattr(blockdecomp, "trace_tail",
                        lambda q, alpha, *_, **__: started.append(alpha))
    q = np.array([0.0, 1.0])
    corner = type("C", (), {"theta_out": -2.0, "delta_theta": 1.0})()
    cn = CornerNode(corner=corner, corner_id=0, valence=0, radius=0.2)
    divider = MidpointDivider(None, "probe", None, 0.05, [cn])
    divider._tail_for(("corner", 0), q, corner, cn)
    assert lanes == [([q], [-1.5], "probe", [0.2])]
    assert started == [-1.5 if isinstance(refined, TracingError) else 0.7]


def test_midpoint_division_dead_corner_between_adjacent_and_far_sides():
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
    sub = PlanarSubdivision(vertices, records, domain=None, validate=False)

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

    sub2 = MidpointDivider(sub, FakeProbe(), FakeDomain(), 0.05, [cn]).divide(
        sub.bounded_faces[0])
    quads, degenerate = classify_faces(sub2)
    assert len(quads) == 3 and not degenerate
    assert all(f.area > 0 for f in quads)
    _assert_records(sub2.records,
                    "test_midpoint_division_dead_corner_between_adjacent_and_far_sides", [
        (("corner", 0), ("boundary", 0), "boundary", "e42a278b70c06fa4"),
        (("boundary", 2), ("corner", 0), "boundary", "1ec778095fa11624"),
        (("boundary", 0), ("cross", "m1-0"), "boundary", "dc3bcb358f8aeccd"),
        (("cross", "m1-0"), ("boundary", 1), "boundary", "91650f0b943268a4"),
        (("boundary", 1), ("cross", "m2-0"), "boundary", "4eaf610ee9e6418f"),
        (("cross", "m2-0"), ("boundary", 2), "boundary", "a8aa7908bd081d16"),
        (("artificial", 0), ("corner", 0), "tail", "c185dd9257967e29"),
        (("artificial", 0), ("cross", "m1-0"), "branch", "0ee1b718ee14e93e"),
        (("artificial", 0), ("cross", "m2-0"), "branch", "e752b2d75e2487e3")])


def test_coons_square_affine():
    c = [np.array(p) for p in [(0, 0), (2, 0), (2, 2), (0, 2)]]
    sides = [SidePath(np.linspace(c[i], c[(i + 1) % 4], 20)) for i in range(4)]
    block = QuadBlock(0, ["a", "b", "c", "d"], sides, [(0, 1)] * 4)
    mid = block.eval(0.5, 0.5)[0]
    assert np.allclose(mid, [1.0, 1.0], atol=1e-12)
    sj = block.scaled_jacobians()
    assert np.abs(sj - 1.0).max() < 1e-4


def _scaled_jacobians_per_point(block, svals, tvals, delta=1e-6):
    """Reference: one clamped central difference per sample point."""
    out = np.empty((len(svals), len(tvals)))
    for i, s in enumerate(svals):
        for j, t in enumerate(tvals):
            sp = min(max(s, delta), 1 - delta)
            tp = min(max(t, delta), 1 - delta)
            qs = (block.eval(sp + delta, tp) - block.eval(sp - delta, tp))[0] / (2 * delta)
            qt = (block.eval(sp, tp + delta) - block.eval(sp, tp - delta))[0] / (2 * delta)
            det = qs[0] * qt[1] - qs[1] * qt[0]
            denom = np.hypot(*qs) * np.hypot(*qt)
            out[i, j] = det / denom if denom > 0 else 0.0
    return out


def _area_per_point(block, n=24):
    g = 0.5 / math.sqrt(3.0)
    offs = [0.5 - g, 0.5 + g]
    delta = 1e-6
    total = 0.0
    for i in range(n):
        for j in range(n):
            for os in offs:
                for ot in offs:
                    s = (i + os) / n
                    t = (j + ot) / n
                    qs = (block.eval(s + delta, t) - block.eval(s - delta, t))[0] \
                        / (2 * delta)
                    qt = (block.eval(s, t + delta) - block.eval(s, t - delta))[0] \
                        / (2 * delta)
                    total += (qs[0] * qt[1] - qs[1] * qt[0]) / (4 * n * n)
    return total


def _quarter_annulus_block(r1=1.0, r2=2.0, n=2400):
    th = np.linspace(0.0, math.pi / 2, n)
    inner = np.column_stack([r1 * np.cos(th), r1 * np.sin(th)])
    outer = np.column_stack([r2 * np.cos(th), r2 * np.sin(th)])
    bottom = np.linspace([r1, 0], [r2, 0], 200)
    top = np.linspace([0, r2], [0, r1], 200)
    return QuadBlock(0, ["a", "b", "c", "d"],
                     [SidePath(bottom), SidePath(outer),
                      SidePath(top), SidePath(inner[::-1])],
                     [(0, 1)] * 4)


@pytest.mark.parametrize("svals, tvals", [
    (None, None),
    (np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 5)),
    ([0.0, 1e-7, 0.5, 1.0 - 1e-7, 1.0], [1.0, 0.25, 0.0]),
])
def test_scaled_jacobians_match_per_point_loop(svals, tvals):
    pinched = QuadBlock(1, ["a", "b", "c", "d"],
                        [SidePath([[0.0, 0.0], [0.0, 0.0]]),
                         SidePath(np.linspace([0.0, 0.0], [1.0, 1.0], 30)),
                         SidePath([[1.0, 1.0], [-0.5, 1.2], [-1.0, 1.0]]),
                         SidePath(np.linspace([-1.0, 1.0], [0.0, 0.0], 30))],
                        [(0, 1)] * 4)
    # every side is one point: Q_s = Q_t = 0, so the zero-denominator branch
    collapsed = QuadBlock(2, ["a", "b", "c", "d"],
                          [SidePath([[0.5, 0.5], [0.5, 0.5]])] * 4, [(0, 1)] * 4)
    assert not collapsed.scaled_jacobians().any()
    for block in (_quarter_annulus_block(n=300), pinched, collapsed):
        sj = block.scaled_jacobians(svals, tvals)
        ref = _scaled_jacobians_per_point(
            block, (np.arange(10) + 0.5) / 10.0 if svals is None else svals,
            (np.arange(10) + 0.5) / 10.0 if tvals is None else tvals)
        assert sj.shape == ref.shape
        assert sj.tobytes() == ref.tobytes()


def test_eval_grid_and_area_match_per_point_loop():
    block = _quarter_annulus_block(n=300)
    svals, tvals = np.linspace(0.0, 1.0, 6), [0.0, 0.3, 1.0]
    grid = block.eval_grid(svals, tvals)
    for j, t in enumerate(tvals):
        assert grid[:, j, :].tobytes() == block.eval(svals, np.full(6, t)).tobytes()
    # the vectorized area sums its terms pairwise, the loop sequentially
    assert block.area(n=8) == pytest.approx(_area_per_point(block, n=8), rel=1e-13)


def test_coons_quarter_annulus_area():
    r1, r2 = 1.0, 2.0
    block = _quarter_annulus_block(r1, r2)
    exact = math.pi * (r2 ** 2 - r1 ** 2) / 4.0
    assert block.area(n=48) == pytest.approx(exact, rel=1e-6)
    assert block.scaled_jacobians().min() > 0


def test_isoparametric_split_square():
    c = [np.array(p) for p in [(0, 0), (1, 0), (1, 1), (0, 1)]]
    sides = [SidePath(np.linspace(c[i], c[(i + 1) % 4], 20)) for i in range(4)]
    block = QuadBlock(0, ["a", "b", "c", "d"], sides, [(i, 1) for i in range(4)])
    qm = isoparametric_split([block], 2)
    assert len(qm.quads) == 4
    areas = []
    for q in qm.quads:
        pts = qm.nodes[q]
        x, y = pts[:, 0], pts[:, 1]
        areas.append(0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))
    assert np.allclose(areas, 0.25, atol=1e-12)


def test_split_conformity_and_quality(half_disc, half_disc_probe,
                                      half_disc_topology, half_disc_traced):
    cps, cns = half_disc_topology
    seps, _, h_s = half_disc_traced
    sub, quads = decompose(half_disc, half_disc_probe, cns, seps, h_s,
                           critical_points=cps)
    blocks = build_blocks(sub, quads)
    qm = isoparametric_split(blocks, 4)
    assert len(qm.quads) == 16 * len(blocks)
    qm.check_conforming()
    qm.check_orientation()
    qm.euler_check()
    child_min, parent_min = child_quality(blocks, qm)
    for qi, cmin in child_min.items():
        assert cmin >= parent_min[int(qm.block_of[qi])] - 1e-8
