import dataclasses
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import block_area
from quadfield import blockdecomp, polyline
from quadfield.blockdecomp import (EdgeRec, MidpointDivider, PlanarSubdivision,
                                   VertexRec, build_subdivision, catmull_rom_densify,
                                   classify_faces, decompose, resolve_crossings)
from quadfield.cli import main
from quadfield.errors import DecompositionError, TracingError
from quadfield.geometry import fixture_path
from quadfield.quadblocks import (QuadBlock, SidePath, build_blocks,
                                  child_quality, isoparametric_split)
from quadfield.singular import CornerNode
from quadfield.tracer import Anchor, Separatrix

from reference.blockdecomp import dead_corner_division, equilateral_division
from reference.polyline import reference_bbox


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


def _reference_trim_near_anchors(points):
    """The point loop of _trim_near_anchors before it was one vectorized pass."""
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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 400), st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e3]))
def test_trim_near_anchors_matches_the_point_loop(n, seed, scale):
    """Random walks whose ends fold back over their anchors, and points
    exactly 1.05 steps from an anchor, keep the loop's points to the byte."""
    rng = np.random.default_rng(seed)
    pts = np.cumsum(rng.normal(scale=scale, size=(n, 2)), axis=0)
    if n >= 4:
        step = float(np.median(polyline.seglen(pts)))
        pts[1] = pts[0] + rng.uniform(-1.2, 1.2, size=2) * step
        pts[-2] = pts[-1] + np.array([1.05 * step, 0.0])
    got = blockdecomp._trim_near_anchors(pts)
    want = _reference_trim_near_anchors(pts)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_trim_near_anchors_drops_a_point_exactly_one_bound_from_an_anchor():
    """Unit steps along x: 1.05 from the first anchor is not beyond 1.05 steps."""
    pts = np.stack([[0.0, 1.05, 2.0, 3.0, 4.0, 5.0, 6.0], np.zeros(7)], axis=1)
    got = blockdecomp._trim_near_anchors(pts)
    assert got[:, 0].tolist() == [0.0, 2.0, 3.0, 4.0, 6.0]
    assert got.tobytes() == _reference_trim_near_anchors(pts).tobytes()


def test_trim_near_anchors_keeps_the_separatrices_points(half_disc_traced):
    seps, _, _ = half_disc_traced
    for s in seps:
        pts = np.asarray(s.points, dtype=float)
        got = blockdecomp._trim_near_anchors(pts)
        assert got.tobytes() == _reference_trim_near_anchors(pts).tobytes()


def _face_sides_loop(sub, face):
    """The index loop of face_sides before it sliced a doubled walk."""
    walk = face.half_edges
    keys = face.walk_keys
    counted = [i for i, k in enumerate(keys) if sub.vertices[k].kind != "seam"]
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=12))
def test_face_sides_match_the_index_loop(seams):
    keys = [("seam" if seam else "corner", i) for i, seam in enumerate(seams)]
    sub = type("S", (), {"vertices": {k: VertexRec(k, np.zeros(2), k[0]) for k in keys}})()
    face = blockdecomp.Face([7 * i for i in range(len(keys))], 1.0, keys, None)
    assert PlanarSubdivision.face_sides(sub, face) == _face_sides_loop(sub, face)


def test_square_single_face(unit_square):
    cns = corner_nodes_for(unit_square, [1, 1, 1, 1])
    sub = build_subdivision(unit_square, [], cns)
    quads, degenerate = classify_faces(sub)
    assert len(quads) == 1 and not degenerate
    corners, zeros = sub.face_corners(quads[0])
    assert len(corners) == 4 and not zeros


def test_crossing_separatrices_rejected(unit_square):
    cns = corner_nodes_for(unit_square, [1, 1, 1, 1])
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
        build_subdivision(unit_square, seps, cns)


def test_transversal_crossing_becomes_vertex(unit_square):
    cns = corner_nodes_for(unit_square, [1, 1, 1, 1])
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
    sub = build_subdivision(unit_square, seps, cns)
    quads, degenerate = classify_faces(sub)
    assert len(quads) == 4 and not degenerate
    assert any(k[0] == "cross" for k in sub.vertices)


def test_grid_of_separatrices_gives_cross_vertices_in_scan_order(unit_square):
    cns = corner_nodes_for(unit_square, [1, 1, 1, 1])
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
    sub = build_subdivision(unit_square, seps, cns)
    quads, degenerate = classify_faces(sub)
    assert len(quads) == 9 and not degenerate
    cross = {k[1]: v.position for k, v in sub.vertices.items() if v.kind == "cross"}
    # the restarted pair scan numbers the crossings in this order
    expected = {"sx0": (xs[0], ys[0]), "sx1": (xs[1], ys[1]),
                "sx2": (xs[1], ys[0]), "sx3": (xs[0], ys[1])}
    assert sorted(cross) == sorted(expected)
    for key, pos in expected.items():
        assert np.allclose(cross[key], pos, atol=1e-12)


def _recorded_pair_calls(monkeypatch):
    """The pairs of every pair_crossings call, as (polyline bytes, polyline
    bytes, whether the polylines' boxes meet), one list per call."""
    calls = []
    pair_crossings = polyline.pair_crossings

    def recorded(polys, pairs, boxes=None):
        calls.append([(polys[a].tobytes(), polys[b].tobytes(),
                       polyline.boxes_meet(reference_bbox(polys[a]), reference_bbox(polys[b])))
                      for a, b in pairs])
        return pair_crossings(polys, pairs, boxes)

    monkeypatch.setattr(polyline, "pair_crossings", recorded)
    return calls


def test_grid_scan_passes_each_record_pair_to_the_crossing_test_once(monkeypatch, unit_square):
    calls = _recorded_pair_calls(monkeypatch)
    test_grid_of_separatrices_gives_cross_vertices_in_scan_order(unit_square)
    # records are never mutated, so a pair tested again gives the same answer
    tested = [(a, b) for call in calls for a, b, _ in call]
    assert len(tested) == len(set(tested))
    assert all(meet for call in calls for _, _, meet in call)
    assert len(calls) == 4 + 2                  # the boundary, the scan, one per split


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


def test_edge_record_is_frozen_and_its_polyline_read_only():
    poly = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
    rec = EdgeRec(("critical", 0), ("critical", 1), poly, "separatrix")
    assert rec.box == reference_bbox(poly)
    with pytest.raises(ValueError):
        rec.polyline[1, 0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.polyline = poly.copy()


@st.composite
def box_polylines(draw):
    """2 to 200 points (1 to 7 chunks), some repeated, with -0.0 and 0.0 among
    the coordinates."""
    coord = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3)
    pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=100)))
    pts = np.repeat(pts, draw(st.lists(st.integers(1, 2), min_size=len(pts),
                                       max_size=len(pts))), axis=0)
    return pts if len(pts) > 1 else np.repeat(pts, 2, axis=0)


@settings(max_examples=300, deadline=None)
@given(box_polylines())
def test_edge_record_box_is_the_range_of_its_chunk_boxes(poly):
    rec = EdgeRec(("critical", 0), ("critical", 1), poly, "separatrix")
    assert 1 <= rec.chunk_boxes.shape[1] <= 7
    assert rec.box == reference_bbox(poly)
    assert np.array(rec.box).tobytes() == np.array(reference_bbox(poly)).tobytes()


def test_nautilus_cut_batches_each_meeting_record_pair_once(tmp_path, monkeypatch):
    """A full nautilus run tests its crossings in 19 pair_crossings calls:
    one for the boundary, one for the scan and one after each of the 17
    splits.  Every pair passed has meeting boxes, and no record pair is
    passed twice (the one-pair scan made 237 intersections calls)."""
    calls = _recorded_pair_calls(monkeypatch)
    argv = ["run", str(fixture_path("nautilus")), "--out", str(tmp_path), "--order", "3",
            "--target-h", "0.5", "--split", "2"]
    assert main(argv) == 0
    assert len(calls) == 17 + 2
    tested = [(a, b) for call in calls for a, b, _ in call]
    assert len(tested) == len(set(tested))
    assert all(meet for call in calls for _, _, meet in call)


# Peak traced allocation of the long-polyline test below.  Two crossing
# polylines of 10^5 points each take about 10 MB.  The full (n - 1) x (m - 1)
# pair table of the narrow test passes 32 MB from about 810 points each
# (40 MB at 900, 49 MB at 1,000) and would ask for about 500 GB here.
LONG_POLYLINE_PEAK = 32e6


def test_long_polylines_cross_in_bounded_memory():
    x = np.linspace(0.0, 1.0, 100_000)
    wave = 0.2 * np.sin(6 * math.pi * x + 0.1)
    pa, pb = np.column_stack([x, wave]), np.column_stack([x, -wave])
    tracemalloc.start()
    try:
        i, j, _, _ = polyline.crossings(pa, pb)
        crossings_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        keys = [("critical", k) for k in range(4)]
        vertices = {k: VertexRec(k, p, "critical")
                    for k, p in zip(keys, [pa[0], pa[-1], pb[0], pb[-1]])}
        records = resolve_crossings(vertices, [EdgeRec(keys[0], keys[1], pa, "separatrix"),
                                               EdgeRec(keys[2], keys[3], pb, "separatrix")])
        resolve_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(i) == 6 and (i == j).all()            # the curves are mirror images
    assert len(records) == 2 + 2 * 6
    assert sum(v.kind == "cross" for v in vertices.values()) == 6
    assert crossings_peak < LONG_POLYLINE_PEAK
    assert resolve_peak < LONG_POLYLINE_PEAK


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


def test_polygon_division_two_irregular_nodes(polygon_iii, captured):
    state = captured("polygon_III")
    probe, (cps, cns), (seps, _, h_s) = state.probe, state.topology, state.traced
    pre = build_subdivision(polygon_iii, seps, cns)
    _, degenerate = classify_faces(pre)
    assert len(degenerate) == 1
    sub, quads = decompose(polygon_iii, probe, cns, seps, h_s,
                           critical_points=cps)
    irregular = [k for k in sub.vertices if k[0] in ("critical", "artificial")]
    assert sorted(k[0] for k in irregular) == ["artificial", "critical"]
    blocks = build_blocks(sub, quads)
    assert sum(block_area(b) for b in blocks) == pytest.approx(polygon_iii.area(),
                                                          rel=2e-3)


def test_midpoint_division_equilateral_symmetry():
    sub2, (apex, left, right) = equilateral_division()
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
    sub2 = dead_corner_division()
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
    assert block_area(block, n=8) == pytest.approx(_area_per_point(block, n=8), rel=1e-13)


def test_coons_quarter_annulus_area():
    r1, r2 = 1.0, 2.0
    block = _quarter_annulus_block(r1, r2)
    exact = math.pi * (r2 ** 2 - r1 ** 2) / 4.0
    assert block_area(block, n=48) == pytest.approx(exact, rel=1e-6)
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
