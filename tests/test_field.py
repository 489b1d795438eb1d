import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadfield.errors import TopologyError
from quadfield.field import OUTSIDE, AnalyticProbe, FieldProbe, adjust_branch, psi_of
from quadfield.geometry import boundary_field, tangent_angle
from quadfield.reftri import VERTICES
from quadfield.trimesh import TriMesh
from reference.solver import solution_eval
from reference.trimesh import _count_kernel_calls, _invert_map_scalar


def test_locate_barycenter(half_disc_probe, half_disc_mesh):
    for e in (0, half_disc_mesh.n_elements() // 2):
        x = half_disc_mesh.map_to_physical(e, np.array([-1 / 3, -1 / 3]))[0]
        loc = half_disc_probe.locate(x)
        assert loc is not OUTSIDE
        assert loc[0] == e


def test_locate_far_outside(half_disc_probe):
    assert half_disc_probe.locate(np.array([30.0, 30.0])) is OUTSIDE


def test_locate_non_finite_point_is_outside(half_disc_probe):
    for x in ([math.nan, 0.0], [0.0, math.nan], [math.inf, 0.0], [0.0, -math.inf]):
        assert half_disc_probe.locate(np.array(x)) is OUTSIDE
        assert half_disc_probe.locate_many([x]) == [OUTSIDE]
        assert half_disc_probe.eval_v(x) is OUTSIDE


def test_locate_many_of_a_far_point_runs_no_newton_step(half_disc_solution, monkeypatch):
    probe = FieldProbe(half_disc_solution)
    probe.mesh.reachable(np.zeros(2))            # the reach tables are built lazily
    counts = _count_kernel_calls(monkeypatch)
    assert probe.locate_many([[50.0, 50.0], [math.nan, 0.0]]) == [OUTSIDE, OUTSIDE]
    # no element can reach a far point and a non-finite one has no lane,
    # so no Newton step runs
    assert counts == {"table": 0, "basis_at": 0, "grad_basis_at": 0}


def test_a_second_locate_of_a_point_gives_equal_bytes(half_disc_solution, monkeypatch):
    probe = FieldProbe(half_disc_solution)
    x = half_disc_solution.mesh.map_to_physical(5, np.array([-0.4, -0.3]))[0]
    first = probe.locate(x)
    expected = first[1].tobytes()
    first[1][:] = 99.0                # the caller owns what it was handed
    calls = []
    invert_map = TriMesh.invert_map

    def counted(self, elems, y, **kw):
        calls.append(elems)
        return invert_map(self, elems, y, **kw)

    monkeypatch.setattr(TriMesh, "invert_map", counted)
    second = probe.locate(x.copy())
    assert len(calls) == 1            # the probe remembers nothing: a new solve
    assert second[0] == first[0] == 5
    assert second[1].tobytes() == expected


def _same_location(a, b):
    if a is OUTSIDE or b is OUTSIDE:
        return a is b
    return a[0] == b[0] and a[1].tobytes() == b[1].tobytes()


def test_locate_many_matches_locate(half_disc_solution, monkeypatch):
    mesh = half_disc_solution.mesh
    rng = np.random.default_rng(11)
    inside = [mesh.map_to_physical(e, xi)[0]
              for e, xi in zip(rng.integers(0, mesh.n_elements(), 40),
                               rng.uniform(-1.0, -0.1, (40, 2)) * [1.0, 0.9])]
    key = mesh.interior_edges[0]
    on_edge = 0.5 * (mesh.vertices[mesh.edges[key, 0]] + mesh.vertices[mesh.edges[key, 1]])
    boundary = mesh.geom[mesh.boundary_faces[0].elem][mesh.ref.edge_ids[0][1]]
    points = inside + [on_edge, boundary, np.array([0.3, -0.2]), np.array([30.0, 30.0]),
                       np.array([np.nan, 0.0]), np.array([0.0, np.inf])]
    points += [inside[3], inside[3].copy(), on_edge.copy()]       # duplicates, copies
    single = FieldProbe(half_disc_solution)
    expected = [single.locate(p) for p in points]
    assert sum(loc is OUTSIDE for loc in expected) == 4

    batched = FieldProbe(half_disc_solution)
    earlier = batched.locate(inside[5])             # one point was located before
    calls = []
    invert_map = TriMesh.invert_map

    def counted(self, elems, y):
        calls.append(len(elems))
        return invert_map(self, elems, y)

    monkeypatch.setattr(TriMesh, "invert_map", counted)
    got = batched.locate_many(points)
    assert len(calls) == 1                          # one solve for the whole batch
    assert all(_same_location(a, b) for a, b in zip(got, expected))
    assert _same_location(earlier, expected[5])
    # a repeated batch runs its own solve, to equal answers
    got[0][1][:] = 99.0
    again = batched.locate_many(points)
    assert len(calls) == 2
    assert all(_same_location(a, b) for a, b in zip(again, expected))
    assert all(_same_location(batched.locate(p.copy()), b) for p, b in zip(points, expected))
    assert batched.locate_many([]) == []


def test_locate_tie_break_lower_id(half_disc_probe, half_disc_mesh):
    mesh = half_disc_mesh
    key = mesh.interior_edges[0]
    first = mesh.face_pairs[0, 0]
    a, b = mesh.edges[key]
    mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
    loc = half_disc_probe.locate(mid)
    assert loc[0] == first


def test_eval_at_node_is_coefficient(half_disc_probe, half_disc_solution):
    mesh = half_disc_solution.mesh
    e = 3
    n = int(mesh.ref.interior_ids[0]) if len(mesh.ref.interior_ids) else 0
    x = mesh.geom[e][n]
    uv = half_disc_probe.eval_v(x)
    assert np.abs(uv - half_disc_solution.coeffs[e][n]).max() < 1e-9


def test_boundary_values_match_tangent_field(half_disc, half_disc_probe,
                                             half_disc_mesh, half_disc_solution):
    mesh = half_disc_mesh
    ref = mesh.ref
    for f in mesh.boundary_faces:
        seg = half_disc.loops[f.loop].segments[f.seg]
        # trace values at the edge nodes agree with the boundary data
        svals = ref.edge_node_params
        xi = ref.edge_points(f.ledge, svals)
        uv = solution_eval(half_disc_solution, f.elem, xi)
        tvals = f.t0 + 0.5 * (svals + 1.0) * (f.t1 - f.t0)
        for k, t in enumerate(tvals):
            ub, vb = boundary_field(tangent_angle(seg, min(max(t, 0.0), 1.0)))
            assert np.hypot(uv[k, 0] - ub, uv[k, 1] - vb) < 1e-6
    # and interpolated values just inside stay close to the data
    for f in mesh.boundary_faces[::5]:
        seg = half_disc.loops[f.loop].segments[f.seg]
        t = 0.5 * (f.t0 + f.t1)
        p = seg.point(t)
        inward = p * (1 - 1e-7) if f.seg == 1 else p + np.array([0.0, 1e-7])
        uv = half_disc_probe.eval_v(inward)
        if uv is OUTSIDE:
            continue
        ub, vb = boundary_field(tangent_angle(seg, t))
        assert np.hypot(uv[0] - ub, uv[1] - vb) < 1e-3


def test_psi_values():
    assert psi_of((1.0, 0.0)) == pytest.approx(0.0)
    assert psi_of((0.0, 1.0)) == pytest.approx(math.pi / 8)
    assert psi_of((-1.0, 0.0)) == pytest.approx(math.pi / 4)


def test_psi_undefined_at_critical_point():
    with pytest.raises(TopologyError, match="critical"):
        psi_of((0.0, 1e-13))


def test_psi_always_principal(half_disc_probe):
    rng = np.random.default_rng(3)
    count = 0
    while count < 50:
        x = np.array([rng.uniform(-1, 1), rng.uniform(0, 1)])
        (psi,) = half_disc_probe.eval_psi_many([x])
        if psi is OUTSIDE:
            continue
        assert -math.pi / 4 - 1e-12 <= psi <= math.pi / 4 + 1e-12
        count += 1


def test_adjust_branch_trivials():
    assert adjust_branch(0.0, math.pi / 2) == pytest.approx(math.pi / 2)
    assert adjust_branch(math.pi / 4 - 0.01, math.pi / 4 + 0.02) == \
        pytest.approx(math.pi / 4 - 0.01)


def test_adjust_branch_across_jump():
    psi = -math.pi / 4 + 0.01
    out = adjust_branch(psi, math.pi / 4)
    assert out == pytest.approx(math.pi / 4 + 0.01)
    # exhaustive check: out is the k-branch with minimal circular distance
    dists = [abs(math.remainder(psi + k * math.pi / 2 - math.pi / 4, 2 * math.pi))
             for k in range(4)]
    assert abs(math.remainder(out - math.pi / 4, 2 * math.pi)) == \
        pytest.approx(min(dists))


def test_adjust_branch_within_quarter():
    rng = np.random.default_rng(11)
    for _ in range(200):
        psi = rng.uniform(-math.pi / 4, math.pi / 4)
        alpha = rng.uniform(-10, 10)
        out = adjust_branch(psi, alpha)
        assert abs(math.remainder(out - alpha, 2 * math.pi)) <= math.pi / 4 + 1e-12


def test_cg_continuity_across_edges(half_disc_mesh, half_disc_solution):
    mesh = half_disc_mesh
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 100:
        e0, le0, e1, le1 = mesh.face_pairs[int(rng.integers(len(mesh.face_pairs)))]
        s = rng.uniform(-0.9, 0.9)
        xi0 = mesh.ref.edge_points(le0, np.array([s]))
        x = mesh.map_to_physical(e0, xi0)[0]
        (xi1,), _ = mesh.invert_map([e1], x)
        if xi1 is None:
            continue
        v0 = solution_eval(half_disc_solution, e0, xi0)[0]
        v1 = solution_eval(half_disc_solution, e1, xi1)[0]
        assert np.abs(v0 - v1).max() < 1e-9
        checked += 1


def test_analytic_probe_region():
    probe = AnalyticProbe(lambda x, y: (1.0, 0.0),
                          region=lambda p: p[0] ** 2 + p[1] ** 2 < 1)
    inside, outside = probe.eval_v_many([(0.1, 0.1), (2.0, 0.0)])
    assert inside.tolist() == [1.0, 0.0] and outside is OUTSIDE
    assert probe.eval_psi_many([(0.1, 0.1), (2.0, 0.0)]) == [0.0, OUTSIDE]


def _reference_eval_v(probe, x):
    """The one-point (u, v): solution_eval at the located xi."""
    loc = probe.locate(x)
    return OUTSIDE if loc is OUTSIDE else solution_eval(probe.solution, loc[0], loc[1])[0]


def _reference_eval_psi(probe, x):
    v = _reference_eval_v(probe, x)
    return OUTSIDE if v is OUTSIDE else psi_of(v)


def _row_bytes(rows):
    return [row if row is OUTSIDE else np.asarray(row, dtype=np.float64).tobytes()
            for row in rows]


def _draw_points(data, mesh):
    """Mixed elements (curved and affine), nodes, repeats and OUTSIDE points."""
    points = []
    for _ in range(data.draw(st.integers(1, 12))):
        e = data.draw(st.integers(0, mesh.n_elements() - 1))
        u = data.draw(st.floats(0.0, 1.0))
        w = data.draw(st.floats(0.0, 1.0))
        kind = data.draw(st.sampled_from(["inside", "node", "outside", "repeat"]))
        if kind == "inside":
            x = mesh.map_to_physical(e, [-1.0 + 2.0 * u * (1.0 - w),
                                         -1.0 + 2.0 * w * (1.0 - u)])[0]
        elif kind == "node":
            x = mesh.geom[e][data.draw(st.integers(0, mesh.ref.n_nodes - 1))]
        elif kind == "outside":
            x = np.array([4.0 * u - 2.0, -1e-3 - w])
        else:
            x = points[-1].copy() if points else mesh.vertices[0]
        points.append(x)
    return points


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_eval_v_many_matches_the_one_point_eval(half_disc_solution, data):
    points = _draw_points(data, half_disc_solution.mesh)
    single = FieldProbe(half_disc_solution)
    want = [_reference_eval_v(single, p) for p in points]
    got = FieldProbe(half_disc_solution).eval_v_many(points)
    assert _row_bytes(got) == _row_bytes(want)
    assert _row_bytes([single.eval_v(p) for p in points]) == _row_bytes(want)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_eval_psi_many_matches_eval_psi(half_disc_solution, data):
    points = _draw_points(data, half_disc_solution.mesh)
    single = FieldProbe(half_disc_solution)
    want = [_reference_eval_psi(single, p) for p in points]
    got = FieldProbe(half_disc_solution).eval_psi_many(points)
    assert _row_bytes(got) == _row_bytes(want)


def _locate_reference(mesh, x):
    """The first element in id order whose one-lane Newton inversion holds x."""
    for e in range(mesh.n_elements()):
        xi = _invert_map_scalar(mesh, e, x)
        if xi is not None:
            return e, xi
    return OUTSIDE


def _draw_location_point(data, mesh, curved):
    kind = data.draw(st.sampled_from(["inside", "edge", "skin", "beyond_bbox", "far",
                                      "non_finite"]))
    u = data.draw(st.floats(0.0, 1.0))
    w = data.draw(st.floats(0.0, 1.0))
    if kind == "inside":
        e = data.draw(st.integers(0, mesh.n_elements() - 1))
        return mesh.map_to_physical(e, [-1.0 + 2.0 * u * (1.0 - w),
                                        -1.0 + 2.0 * w * (1.0 - u)])[0]
    if kind == "edge":
        e, le = data.draw(st.sampled_from(mesh.face_pairs[:, :2].tolist()))
        return mesh.map_to_physical(e, mesh.ref.edge_points(le, np.array([2.0 * u - 1.0])))[0]
    if kind == "skin":
        # within 1e-9 of a curved boundary edge, on either side
        f = data.draw(st.sampled_from(curved))
        xi = mesh.ref.edge_points(f.ledge, np.array([2.0 * u - 1.0]))
        along = mesh.jacobian(f.elem, xi)[0] @ (VERTICES[(f.ledge + 1) % 3] - VERTICES[f.ledge])
        outward = np.array([along[1], -along[0]]) / np.hypot(*along)
        return mesh.map_to_physical(f.elem, xi)[0] + \
            data.draw(st.sampled_from([-1e-9, 1e-9])) * outward
    if kind == "beyond_bbox":
        # just past one side of a curved element's node bounding box
        g = mesh.geom[data.draw(st.sampled_from(curved)).elem]
        lo, hi = g.min(axis=0), g.max(axis=0)
        axis = data.draw(st.integers(0, 1))
        x = lo + u * (hi - lo)
        x[axis] = lo[axis] - 1e-9 if w < 0.5 else hi[axis] + 1e-9
        return x
    if kind == "far":
        angle = 2.0 * math.pi * w
        return mesh.vertices.mean(axis=0) + (1.0 + 40.0 * u) * mesh.bbox_diag * \
            np.array([math.cos(angle), math.sin(angle)])
    return np.array(data.draw(st.sampled_from([[math.nan, 0.0], [0.0, math.inf],
                                               [-math.inf, math.nan]])))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_locate_many_matches_the_first_hit_reference(half_disc, half_disc_solution, data):
    mesh = half_disc_solution.mesh
    curved = [f for f in mesh.boundary_faces
              if half_disc.loops[f.loop].segments[f.seg].kind == "arc"]
    points = [_draw_location_point(data, mesh, curved)
              for _ in range(data.draw(st.integers(1, 6)))]
    got = FieldProbe(half_disc_solution).locate_many(points)
    assert all(_same_location(a, _locate_reference(mesh, p)) for a, p in zip(got, points))
