import math

import numpy as np
import pytest

from quadfield.blockdecomp import (EdgeRec, PlanarSubdivision, VertexRec,
                                   build_subdivision, classify_faces, decompose,
                                   midpoint_division)
from quadfield.errors import DecompositionError
from quadfield.field import AnalyticProbe
from quadfield.quadblocks import (QuadBlock, SidePath, build_blocks,
                                  child_quality, isoparametric_split,
                                  split_fractions)
from quadfield.singular import CornerNode
from quadfield.tracer import Anchor, Separatrix

from conftest import square_domain


def corner_nodes_for(domain, valences):
    corners = domain.corner_inventory()
    return [CornerNode(corner=c, corner_id=i, valence=v,
                       radius=0.1 * domain.bbox_diag())
            for i, (c, v) in enumerate(zip(corners, valences))]


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
    _, degenerate, _ = classify_faces(pre, strict=False)
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
        EdgeRec(("corner", 0), ("boundary", 0), seg(apex, left), "boundary", loop=0),
        EdgeRec(("boundary", 0), ("boundary", 1), seg(left, right), "boundary",
                loop=0),
        EdgeRec(("boundary", 1), ("corner", 0), seg(right, apex), "boundary",
                loop=0),
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

        class loops:
            pass

    fd = FakeDomain()
    fd.loops = [type("L", (), {"segments": [None, type("S", (), {
        "point": staticmethod(lambda t: np.array([2 * t - 1, 0.0]))})()]})()]
    fd.bbox_diag = lambda: 2.0

    class FakeProbe(AnalyticProbe):
        def __init__(self):
            super().__init__(lambda x, y: (1.0, 0.0))
            self.mesh = type("M", (), {"bbox_diag": 2.0})()

        def eval_psi(self, p):
            from quadfield.field import OUTSIDE
            if not fd.contains(p):
                return OUTSIDE
            return 0.0      # principal phase of a field aligned with the median

    corner = type("C", (), {
        "position": apex, "theta_out": math.radians(-60.0) - math.pi / 2,
        "delta_theta": math.radians(60.0), "theta_in": 0.0})()
    cn = CornerNode(corner=corner, corner_id=0, valence=0, radius=0.2)

    sub2 = midpoint_division(sub, face, FakeProbe(), fd, 0.05, [cn])
    quads, degenerate = classify_faces(sub2)
    assert len(quads) == 3 and not degenerate
    node_key = next(k for k in sub2.vertices if k[0] == "artificial")
    node = sub2.vertices[node_key].position
    centroid = (apex + left + right) / 3.0
    assert np.hypot(*(node - centroid)) < 0.35
    areas = sorted(abs(f.area) for f in sub2.bounded_faces)
    assert areas[-1] / areas[0] < 1.6


def test_coons_square_affine():
    c = [np.array(p) for p in [(0, 0), (2, 0), (2, 2), (0, 2)]]
    sides = [SidePath(np.linspace(c[i], c[(i + 1) % 4], 20)) for i in range(4)]
    block = QuadBlock(0, ["a", "b", "c", "d"], sides, [(0, 1)] * 4)
    mid = block.eval(0.5, 0.5)[0]
    assert np.allclose(mid, [1.0, 1.0], atol=1e-12)
    sj = block.scaled_jacobians()
    assert np.abs(sj - 1.0).max() < 1e-4


def test_coons_quarter_annulus_area():
    r1, r2 = 1.0, 2.0
    th = np.linspace(0.0, math.pi / 2, 2400)
    inner = np.column_stack([r1 * np.cos(th), r1 * np.sin(th)])
    outer = np.column_stack([r2 * np.cos(th), r2 * np.sin(th)])
    bottom = np.linspace([r1, 0], [r2, 0], 200)
    top = np.linspace([0, r2], [0, r1], 200)
    block = QuadBlock(0, ["a", "b", "c", "d"],
                      [SidePath(bottom), SidePath(outer),
                       SidePath(top), SidePath(inner[::-1])],
                      [(0, 1)] * 4)
    exact = math.pi * (r2 ** 2 - r1 ** 2) / 4.0
    assert block.area(n=48) == pytest.approx(exact, rel=1e-6)
    assert block.scaled_jacobians().min() > 0


def test_split_fractions_grading():
    f = split_fractions(4, grade=2.0)
    widths = np.diff(f)
    assert np.allclose(widths[1:] / widths[:-1], 2.0)
    assert f[0] == 0.0 and f[-1] == 1.0


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


def test_graded_split_aspect_ratio():
    c = [np.array(p) for p in [(0, 0), (1, 0), (1, 1), (0, 1)]]
    sides = [SidePath(np.linspace(c[i], c[(i + 1) % 4], 20)) for i in range(4)]
    block = QuadBlock(0, ["a", "b", "c", "d"], sides, [(i, 1) for i in range(4)])
    qm = isoparametric_split([block], 4, per_block={0: {"ns": 4, "nt": 4,
                                                        "grade_t": 3.0}})
    assert len(qm.quads) == 16
    heights = []
    for q in qm.quads[:4]:
        pts = qm.nodes[q]
        heights.append(pts[:, 1].max() - pts[:, 1].min())
    assert min(h for h in heights if h > 0) < 0.05
    sj_min = min(block.scaled_jacobians().min(), 0.0) + 1.0
    assert sj_min > 0


def test_nonconforming_split_rejected(half_disc, half_disc_probe,
                                      half_disc_topology, half_disc_traced):
    cps, cns = half_disc_topology
    seps, _, h_s = half_disc_traced
    sub, quads = decompose(half_disc, half_disc_probe, cns, seps, h_s,
                           critical_points=cps)
    blocks = build_blocks(sub, quads)
    with pytest.raises(DecompositionError, match="non-conforming"):
        isoparametric_split(blocks, 2, per_block={0: {"ns": 3, "nt": 2}})
