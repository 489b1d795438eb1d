import math

import numpy as np
import pytest

from quadfield.errors import TopologyError
from quadfield.field import (OUTSIDE, AnalyticProbe, FieldProbe, adjust_branch,
                             cross_vectors, psi_of)
from quadfield.geometry import boundary_field, tangent_angle
from quadfield.trimesh import TriMesh


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
        assert not half_disc_probe.contains(x)
        assert half_disc_probe.eval_v(x) is OUTSIDE


def test_locate_memo_skips_inversion_and_returns_copies(half_disc_solution, monkeypatch):
    probe = FieldProbe(half_disc_solution)
    x = half_disc_solution.mesh.map_to_physical(5, np.array([-0.4, -0.3]))[0]
    first = probe.locate(x)
    expected = first[1].copy()
    calls = []
    invert_map = TriMesh.invert_map

    def counted(self, elems, y, **kw):
        calls.append(elems)
        return invert_map(self, elems, y, **kw)

    monkeypatch.setattr(TriMesh, "invert_map", counted)
    second = probe.locate(x.copy())
    assert calls == []
    assert second[0] == first[0] == 5
    first[1][:] = 99.0
    second[1][:] = 99.0
    third = probe.locate(x)
    assert calls == []
    assert np.array_equal(third[1], expected)
    probe.locate(x + 1e-3)
    assert calls                      # a new point is still inverted


def test_locate_tie_break_lower_id(half_disc_probe, half_disc_mesh):
    mesh = half_disc_mesh
    key = mesh.interior_edges[0]
    uses = sorted(mesh.edge_use[key])
    a, b = sorted(key)
    mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
    loc = half_disc_probe.locate(mid)
    assert loc[0] == uses[0][0]


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
        uv = half_disc_solution.eval(f.elem, xi)
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
        psi = half_disc_probe.eval_psi(x)
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


def test_cross_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        psi = rng.uniform(-math.pi / 4, math.pi / 4)
        a = np.sort(cross_vectors(psi).view(float).reshape(-1))
        b = np.sort(cross_vectors(psi + math.pi / 2).view(float).reshape(-1))
        assert np.abs(a - b).max() < 1e-14


def test_cg_continuity_across_edges(half_disc_mesh, half_disc_solution):
    mesh = half_disc_mesh
    rng = np.random.default_rng(9)
    checked = 0
    keys = list(mesh.interior_edges)
    while checked < 100:
        key = keys[int(rng.integers(len(keys)))]
        (e0, le0), (e1, le1) = sorted(mesh.edge_use[key])
        s = rng.uniform(-0.9, 0.9)
        xi0 = mesh.ref.edge_points(le0, np.array([s]))
        x = mesh.map_to_physical(e0, xi0)[0]
        (xi1,) = mesh.invert_map([e1], x)
        if xi1 is None:
            continue
        v0 = half_disc_solution.eval(e0, xi0)[0]
        v1 = half_disc_solution.eval(e1, xi1)[0]
        assert np.abs(v0 - v1).max() < 1e-9
        checked += 1


def test_analytic_probe_region():
    probe = AnalyticProbe(lambda x, y: (1.0, 0.0),
                          region=lambda p: p[0] ** 2 + p[1] ** 2 < 1)
    assert probe.eval_psi((0.1, 0.1)) == pytest.approx(0.0)
    assert probe.eval_v((2.0, 0.0)) is OUTSIDE
