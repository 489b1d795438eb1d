"""Midpoint division through the batched crossing pass against the loops it replaced.

MidpointDivider.divide finds the tail's exit with one pair_crossings call
(blockdecomp._first_exit), and _propagate tests each piece of the tail
against the records with one more per round (blockdecomp._crossing_hits).
The references below are the code before them, verbatim: the exit search
with one intersections call per side, and the propagation with one per
record behind a bbox test.  Both must give the same records (order, keys,
kind, polyline bytes), the same vertices and the same errors on the
captured divisions of polygon_III under every benchmark offset, on the two
synthetic divisions of test_blockdecomp and on hypothesis tails.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quadfield import blockdecomp, polyline
from quadfield.blockdecomp import (EdgeRec, MidpointDivider, PlanarSubdivision, VertexRec,
                                   decompose)
from quadfield.errors import DecompositionError
from quadfield.field import FieldProbe
from quadfield.singular import corner_valences, find_critical_points
from quadfield.solver import choose_discretization, solve_guiding_field
from quadfield.tracer import trace_all
from quadfield.trimesh import elevate_and_curve, generate_background_mesh
import test_blockdecomp
from test_crossings import _state, reference_split_record
from test_delaunay import OFFSETS
from test_fixture_meshes import translated
from test_polyline import reference_bbox, reference_intersections


# ---- reference: one intersections call per side and per record -------------------


def reference_first_exit(tail, spolys, tol):
    """(arclength, point, k) of the exit search before _first_exit, k the side."""
    exits = []
    tail_len = float(np.sum(polyline.seglen(tail)))
    for k, spoly in enumerate(spolys):
        for s_along, x in reference_intersections(tail, spoly):
            exits.append((s_along, x, k))
        if not exits:
            # a boundary-terminated tail ends ON a side instead of crossing it
            _, d = polyline.nearest_segment(spoly, tail[-1])
            if d < tol:
                exits.append((tail_len, tail[-1], k))
    if not exits:
        raise DecompositionError("midpoint streamline never leaves its face")
    exits.sort(key=lambda ex: ex[0])
    return exits[0]


def reference_cut_tail(tail, ni, exit_pt):
    upto, _ = polyline.split_at(tail, exit_pt)
    cut = upto[ni:]
    if len(cut) < 2:
        cut = np.vstack([tail[ni], exit_pt])
    return cut


def reference_propagate(records, vertices, rest, from_key, hit, node_key):
    """Continue the tail through subsequent faces, splitting crossed edges."""
    current = rest
    start_key = from_key
    guard = 0
    while True:
        guard += 1
        if guard > 50:
            raise DecompositionError("midpoint tail crossed too many edges")
        hits = []
        box = reference_bbox(current)
        for rec in list(records):
            if rec.kind == "branch" or rec.v0 == start_key or rec.v1 == start_key \
                    or not polyline.boxes_meet(box, rec.box):
                continue
            for s_along, x in reference_intersections(current, rec.polyline):
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
        reference_split_record(records, rec, x, xk)
        upto, beyond = polyline.split_at(current, x)
        records.append(EdgeRec(start_key, xk, upto, "tail"))
        current = beyond
        start_key = xk


def reference_divide(self, face):
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

    # first exit of the tail through the rest of the face boundary
    exits = []
    tail_len = float(np.sum(polyline.seglen(tail)))
    for _, hes in others:
        spoly = sub.side_polyline(hes)
        for s_along, x in reference_intersections(tail, spoly):
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

    far = len(others) == 2
    joined = others if far else [adj_out, adj_in]
    mids = [polyline.midpoint(sub.side_polyline(hes)) for _, hes in joined]
    ni = blockdecomp._pick_node(tail, exit_len, *mids)
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
        reference_split_record(records, sub.records[hes_side[0] // 2], at_point, new_vkey)

    vertices[node_key] = VertexRec(node_key, node_pos, "artificial")
    mid_keys = [("cross", f"m{k}-{node_key[1]}") for k in (1, 2)]
    for (_, hes), m, mk in zip(joined, mids, mid_keys):
        split_record(hes, m, mk, "boundary")
    if far:
        head = tail[:ni + 1][::-1].copy()
        head[-1] = q
        records.append(EdgeRec(node_key, qkey, head, "tail"))
    else:
        ek = ("cross", f"x-{node_key[1]}")
        on_boundary = sub.records[exit_hes[0] // 2].kind == "boundary"
        split_record(exit_hes, exit_pt, ek, "boundary" if on_boundary else "cross")
        records.append(EdgeRec(node_key, ek, reference_cut_tail(tail, ni, exit_pt), "tail"))
        if not on_boundary:
            _, rest = polyline.split_at(tail, exit_pt)
            reference_propagate(records, vertices, rest, ek, hit, node_key)
    for m, mk in zip(mids, mid_keys):
        records.append(EdgeRec(node_key, mk, np.vstack([node_pos, m]), "branch"))

    vertices[qkey] = VertexRec(qkey, vertices[qkey].position, "corner",
                               corner_valence=1)
    return PlanarSubdivision(vertices, records, domain=self.domain)


# ---- comparison ------------------------------------------------------------------


def _outcome(run):
    """(error message or None, result or None) of run()."""
    try:
        return None, run()
    except DecompositionError as ex:
        return str(ex), None


def _checked_divisions(monkeypatch):
    """Make MidpointDivider.divide also run reference_divide on the same
    inputs and require the same state or error; return the list that gets
    each division's (error, state, callers), callers naming the blockdecomp
    function of each pair_crossings call that divide made."""
    checked = []
    callers = None
    divide = MidpointDivider.divide
    pair_crossings = polyline.pair_crossings

    def recorded(*args):
        frame = sys._getframe(1)
        if callers is not None and frame.f_globals["__name__"] == blockdecomp.__name__:
            callers.append(frame.f_code.co_name)
        return pair_crossings(*args)

    def both(self, face):
        nonlocal callers
        counter = self.counter
        want_error, want = _outcome(lambda: reference_divide(self, face))
        self.counter = counter
        callers = []
        got_error, got = _outcome(lambda: divide(self, face))
        assert got_error == want_error
        if got is not None:
            assert _state(got.vertices, got.records) == _state(want.vertices, want.records)
        checked.append((got_error, None if got is None else _state(got.vertices, got.records),
                        callers))
        callers = None
        if got_error is not None:
            raise DecompositionError(got_error)
        return got

    monkeypatch.setattr(MidpointDivider, "divide", both)
    monkeypatch.setattr(polyline, "pair_crossings", recorded)
    return checked


# ---- polygon_III: the fixture whose cut divides ----------------------------------


def _decompose(domain, order, h):
    """decompose after an order-`order` solve, topology and trace at spacing h."""
    mesh = elevate_and_curve(generate_background_mesh(domain, h), order, domain)
    probe = FieldProbe(solve_guiding_field(mesh, domain, choose_discretization(domain)))
    cps = find_critical_points(probe.solution, probe)
    cns = corner_valences(domain, probe)
    h_s = 0.25 * mesh.shortest_edge()
    seps, _ = trace_all(cps, cns, probe, domain, h_s)
    decompose(domain, probe, cns, seps, h_s, critical_points=cps)


@pytest.mark.parametrize("offset", OFFSETS, ids=lambda o: f"{o[0]}_{o[1]}")
@pytest.mark.parametrize("h", [0.35, 0.3, 0.2])
@pytest.mark.parametrize("order", [3, 4, 5])
def test_polygon_iii_divisions_match_the_reference(monkeypatch, order, h, offset):
    """polygon_III at orders 3-5 and three spacings, moved by every benchmark
    offset: one division each, whose tail crosses two records past its exit.
    Its crossing tests are one pair_crossings call for the exit and one per
    propagation round."""
    checked = _checked_divisions(monkeypatch)
    _decompose(translated("polygon_III", *offset), order, h)
    assert len(checked) == 1
    error, (vertices, _), callers = checked[0]
    assert error is None
    keys = [key for key, _, _, _ in vertices]
    assert ("cross", "x1-0") in keys and ("cross", "x2-0") in keys
    assert callers == ["_first_exit"] + ["_crossing_hits"] * 3


@pytest.mark.parametrize("synthetic", [
    "test_midpoint_division_equilateral_symmetry",
    "test_midpoint_division_dead_corner_between_adjacent_and_far_sides"])
def test_synthetic_divisions_match_the_reference(monkeypatch, synthetic):
    checked = _checked_divisions(monkeypatch)
    getattr(test_blockdecomp, synthetic)()
    assert len(checked) == 1 and checked[0][0] is None
    assert checked[0][2] == ["_first_exit"]             # no propagation


# ---- hypothesis tails ------------------------------------------------------------

coord = st.integers(0, 8).map(lambda k: k / 8) | st.floats(0.0, 1.0)


def polylines(max_size=12):
    return st.lists(st.tuples(coord, coord), min_size=2, max_size=max_size).map(
        lambda pts: np.array(pts, dtype=float))


@st.composite
def tails_and_sides(draw):
    """(tail, sides, tol): random sides, copies of an earlier side (exits at
    equal arclengths) and sides through or beside the tail's end."""
    tail = draw(polylines())
    sides = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["random", "copy", "at_end"]))
        if kind == "copy" and sides:
            side = sides[draw(st.integers(0, len(sides) - 1))].copy()
        elif kind == "at_end":
            side = draw(polylines())
            side[draw(st.integers(0, len(side) - 1))] = tail[-1] + draw(
                st.sampled_from([0.0, 1e-9, 1e-4]))
        else:
            side = draw(polylines())
        sides.append(side)
    return tail, sides, draw(st.sampled_from([0.0, 1e-6, 1e-3]))


def _exit_bytes(run):
    error, found = _outcome(run)
    if found is None:
        return error, None
    s_along, x, k = found
    return error, (np.float64(s_along).tobytes(), np.asarray(x).tobytes(), k)


@settings(max_examples=300, deadline=None)
@given(tails_and_sides())
@example((np.array([[0.0, 0.5], [1.0, 0.5]]),
          [np.array([[0.5, 0.0], [0.5, 1.0]])] * 2, 0.0))
def test_first_exit_matches_the_side_loop(case):
    tail, sides, tol = case
    assert (_exit_bytes(lambda: blockdecomp._first_exit(tail, sides, tol))
            == _exit_bytes(lambda: reference_first_exit(tail, sides, tol)))


@st.composite
def propagations(draw):
    """(vertices, records, rest, hit): a tail piece from the cross vertex
    ("cross", "x-0") and records to cross, some copies of an earlier one
    (crossings at equal arclengths), some branches and some that touch the
    piece's start vertex."""
    start = ("cross", "x-0")
    rest = draw(polylines(6))
    vertices = {start: VertexRec(start, rest[0], "cross")}
    records = []
    for n in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "copy", "branch", "from_start"]))
        if kind == "copy" and records:
            poly = records[draw(st.integers(0, len(records) - 1))].polyline.copy()
        else:
            poly = draw(polylines(4))
        keys = [("critical", 2 * n), ("critical", 2 * n + 1)]
        if kind == "from_start":
            keys[draw(st.integers(0, 1))] = start
        for key, p in zip(keys, (poly[0], poly[-1])):
            vertices.setdefault(key, VertexRec(key, p, "critical"))
        records.append(EdgeRec(keys[0], keys[1], poly,
                               "branch" if kind == "branch" else "separatrix"))
    hit_kind = draw(st.sampled_from(["critical", "boundary"]))
    hit = type("Hit", (), {"kind": hit_kind, "ident": draw(st.integers(0, 20)),
                           "position": rest[-1] + draw(st.sampled_from([0.0, 1e-3]))})()
    return vertices, records, rest, hit


@settings(max_examples=300, deadline=None)
@given(propagations())
def test_propagation_matches_the_record_loop(case):
    vertices, records, rest, hit = case
    divider = MidpointDivider(None, None, None, 0.05, [])

    def run(propagate):
        v, r = dict(vertices), list(records)
        error, _ = _outcome(lambda: propagate(r, v, rest.copy(), ("cross", "x-0"), hit,
                                              ("artificial", 0)))
        return error, _state(v, r)

    assert run(divider._propagate) == run(reference_propagate)
