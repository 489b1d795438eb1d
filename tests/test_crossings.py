"""The batched crossing pass of the cut against the lazy pair scan it replaced.

resolve_crossings fills a table of crossing record pairs with one
pair_crossings call, and one more after each split.  The reference below is
the scan before it: the pairs in list order, one intersections call each,
restarted after every split.  Both must give the same records (order, keys,
polyline bytes), the same vertices and the same errors, raised at the same
point, on the captured cut inputs of every fixture under every benchmark
offset and on hypothesis grids of crossing separatrices.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadfield import blockdecomp, polyline
from quadfield.blockdecomp import (TANGENTIAL_CROSSING_DEG, EdgeRec, VertexRec,
                                   resolve_crossings)
from quadfield.errors import DecompositionError
from quadfield.field import FieldProbe
from quadfield.singular import corner_valences, find_critical_points
from quadfield.solver import choose_discretization, solve_guiding_field
from quadfield.tracer import trace_all
from quadfield.trimesh import elevate_and_curve, generate_background_mesh
from test_delaunay import OFFSETS
from test_fixture_meshes import translated
from test_polyline import chunk_row_intersections
from test_singular import TOPOLOGY_RUNS


# ---- reference: the lazy pair scan, restarted after every split ------------------


def reference_resolve_crossings(vertices, records):
    """Split transversal separatrix crossings into 4-valent cross vertices.

    Separatrices of the two orthogonal cross families legitimately intersect;
    near-tangential intersections mean the traced graph is invalid.  Crossing
    the domain boundary is always an error.
    """
    for r in records:
        if r.kind == "boundary":
            continue
        for b in records:
            if b.kind != "boundary" or not polyline.boxes_meet(r.box, b.box):
                continue
            if chunk_row_intersections(r.polyline, b.polyline):
                raise DecompositionError(
                    "invalid separatrix graph: a separatrix crosses the boundary")

    settled = set()
    counter = 0
    while True:
        found = reference_first_crossing([r for r in records if r.kind != "boundary"],
                                         settled)
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
        reference_split_record(records, a, x, key)
        reference_split_record(records, b, x, key)


def reference_first_crossing(movable, settled):
    """(a, b, point) of the first crossing pair in scan order, or None.

    The point is the crossing nearest the start of a.  settled holds the pairs
    already found disjoint: a record's polyline never changes, so testing such
    a pair again would give the same empty result.  Pairs found disjoint here,
    by their boxes or by their segments, are added to it.
    """
    for i, a in enumerate(movable):
        for b in movable[i + 1:]:
            if (a, b) in settled:
                continue
            hits = (polyline.boxes_meet(a.box, b.box)
                    and chunk_row_intersections(a.polyline, b.polyline))
            if hits:
                return a, b, min(hits, key=lambda hx: hx[0])[1]
            settled.add((a, b))
    return None


def reference_split_record(records, rec, point, key):
    """Replace rec in records by its two halves, joined at vertex key."""
    first, second = polyline.split_at(rec.polyline, point)
    records.remove(rec)
    records.append(EdgeRec(rec.v0, key, first, rec.kind))
    records.append(EdgeRec(key, rec.v1, second, rec.kind))


# ---- comparison ------------------------------------------------------------------


def _state(vertices, records):
    """Vertices (key, kind, position bytes, corner valence) and records (keys,
    kind, polyline shape and bytes), in order."""
    return ([(k, v.kind, np.asarray(v.position).tobytes(), v.corner_valence)
             for k, v in vertices.items()],
            [(r.v0, r.v1, r.kind, r.polyline.shape, r.polyline.tobytes()) for r in records])


def _resolved(resolve, vertices, records):
    """(error message or None, state) after resolve ran on copies of the inputs."""
    vertices, records = dict(vertices), list(records)
    try:
        assert resolve(vertices, records) is records
        error = None
    except DecompositionError as ex:
        error = str(ex)
    return error, _state(vertices, records)


def assert_same_resolution(vertices, records):
    got = _resolved(resolve_crossings, vertices, records)
    assert got == _resolved(reference_resolve_crossings, vertices, records)
    return got


# ---- the captured cut inputs of every fixture ------------------------------------


class _Captured(Exception):
    pass


def _cut_inputs(domain, h):
    """(vertices, records) that build_subdivision hands to resolve_crossings
    after an order-3 solve, topology and trace at spacing h."""
    mesh = elevate_and_curve(generate_background_mesh(domain, h), 3, domain)
    probe = FieldProbe(solve_guiding_field(mesh, domain, choose_discretization(domain)))
    cps = find_critical_points(probe.solution, probe)
    cns = corner_valences(domain, probe)
    seps, _ = trace_all(cps, cns, probe, domain, 0.25 * mesh.shortest_edge())
    seen = []

    def capture(vertices, records):
        seen.append((dict(vertices), list(records)))
        raise _Captured

    with mock.patch.object(blockdecomp, "resolve_crossings", capture), \
            pytest.raises(_Captured):
        blockdecomp.build_subdivision(domain, seps, cns)
    return seen[0]


@pytest.mark.parametrize("offset", OFFSETS, ids=lambda o: f"{o[0]}_{o[1]}")
@pytest.mark.parametrize("name", sorted(TOPOLOGY_RUNS))
def test_fixture_cut_inputs_resolve_as_the_pair_scan(name, offset):
    """Every fixture at order 3, moved by every benchmark offset."""
    vertices, records = _cut_inputs(translated(name, *offset), TOPOLOGY_RUNS[name])
    error, (verts, _) = assert_same_resolution(vertices, records)
    crosses = sum(kind == "cross" for _, kind, _, _ in verts)
    if name == "nautilus":
        assert error is None and crosses == 17


# ---- hypothesis grids of crossing separatrices ------------------------------------


def _line(p0, p1, n, wobble, phase):
    """n points from p0 to p1, bent sideways by wobble * sin(pi s + phase)."""
    s = np.linspace(0.0, 1.0, n)
    p0, p1 = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    d = p1 - p0
    normal = np.array([-d[1], d[0]]) / max(math.hypot(*d), 1e-300)
    pts = p0 + s[:, None] * d + (wobble * np.sin(math.pi * s + phase))[:, None] * normal
    pts[0], pts[-1] = p0, p1
    return pts


coord = st.integers(0, 8).map(lambda k: k / 8) | st.floats(0.0, 1.0)


@st.composite
def separatrix_grids(draw):
    """(vertices, records): the unit square's four sides as boundary records,
    then separatrices between points on or near its boundary.

    Families of near-horizontal and near-vertical lines cross each other;
    a line of any direction may cross them tangentially, and an end pushed
    past the boundary makes a line cross it.
    """
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    vertices = {("corner", k): VertexRec(("corner", k), np.array(c), "corner",
                                         corner_valence=1) for k, c in enumerate(corners)}
    records = [EdgeRec(("corner", k), ("corner", (k + 1) % 4),
                       _line(corners[k], corners[(k + 1) % 4], draw(st.integers(2, 40)),
                             0.0, 0.0), "boundary") for k in range(4)]
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        y0, y1 = draw(coord), draw(coord)
        lines.append(((0.0, y0), (1.0, y1)))
    for _ in range(draw(st.integers(0, 4))):
        x0, x1 = draw(coord), draw(coord)
        lines.append(((x0, 0.0), (x1, 1.0)))
    for _ in range(draw(st.integers(0, 2))):
        lines.append(((draw(coord), draw(coord)), (draw(coord), draw(coord))))
    for p0, p1 in lines:
        if draw(st.integers(0, 9)) == 0:         # past the boundary
            p1 = (1.25 * p1[0] - 0.125, 1.25 * p1[1] - 0.125)
        if p0 == p1:
            continue
        keys = [("critical", 2 * len(records)), ("critical", 2 * len(records) + 1)]
        for key, p in zip(keys, (p0, p1)):
            vertices[key] = VertexRec(key, np.array(p, dtype=float), "critical")
        wobble = draw(st.sampled_from([0.0, 0.0, 0.02, 0.1, 0.3]))
        poly = _line(p0, p1, draw(st.integers(2, 3 * polyline.CHUNK)), wobble,
                     draw(st.floats(0.0, math.pi)))
        records.append(EdgeRec(keys[0], keys[1], poly, "separatrix"))
    return vertices, draw(st.permutations(records))


@settings(max_examples=300, deadline=None)
@given(separatrix_grids())
def test_separatrix_grids_resolve_as_the_pair_scan(case):
    assert_same_resolution(*case)


def test_grids_meet_every_outcome():
    """The strategy above reaches a full resolution after splits, the
    tangential error after splits and the boundary error."""
    outcomes = set()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(separatrix_grids())
    def collect(case):
        error, (verts, _) = _resolved(resolve_crossings, *case)
        kind = ("none" if error is None else
                "tangential" if "tangentially" in error else "boundary")
        outcomes.add((kind, any(k == "cross" for _, k, _, _ in verts)))

    collect()
    assert {("none", True), ("tangential", True), ("boundary", False)} <= outcomes


@pytest.mark.parametrize("first", ["upper", "lower"])
def test_tangential_error_comes_after_the_earlier_splits(first):
    """A transversal pair earlier in scan order is split before a tangential
    pair raises, in either record order."""
    keys = [("critical", k) for k in range(6)]
    x = np.linspace(0.0, 1.0, 50)
    upper = EdgeRec(keys[0], keys[1], np.column_stack([x, 0.5 + 0.05 * x]), "separatrix")
    lower = EdgeRec(keys[2], keys[3], np.column_stack([x, 0.55 - 0.05 * x]), "separatrix")
    cross = EdgeRec(keys[4], keys[5], np.column_stack([np.full(50, 0.2), x]), "separatrix")
    pair = [upper, lower] if first == "upper" else [lower, upper]
    vertices = {}
    for r in [cross] + pair:
        for key, p in ((r.v0, r.polyline[0]), (r.v1, r.polyline[-1])):
            vertices[key] = VertexRec(key, p, "critical")
    error, (verts, recs) = assert_same_resolution(vertices, [cross] + pair)
    assert "tangentially" in error
    assert sum(kind == "cross" for _, kind, _, _ in verts) == 2
    assert len(recs) == 7                   # two splits, each of two records into four


def test_scan_order_picks_the_crossing_pair_by_list_position():
    """Three mutually crossing lines: the pair of the two earliest records
    goes first whatever the pairs' hits are, and the halves go last."""
    keys = [("critical", k) for k in range(6)]
    lines = [((0.0, 0.3), (1.0, 0.7)), ((0.0, 0.7), (1.0, 0.3)), ((0.3, 0.0), (0.5, 1.0))]
    records = [EdgeRec(keys[2 * k], keys[2 * k + 1], _line(p0, p1, 30, 0.0, 0.0), "separatrix")
               for k, (p0, p1) in enumerate(lines)]
    vertices = {}
    for r in records:
        for key, p in ((r.v0, r.polyline[0]), (r.v1, r.polyline[-1])):
            vertices[key] = VertexRec(key, p, "critical")
    for perm in itertools.permutations(records):
        error, (verts, recs) = assert_same_resolution(vertices, list(perm))
        assert error is None and sum(kind == "cross" for _, kind, _, _ in verts) == 3
