import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import neighbors
from quadfield import singular
from quadfield.cli import main
from quadfield.errors import TopologyError
from quadfield.field import AnalyticProbe, FieldProbe
from quadfield.geometry import fixture_path, load_fixture
from quadfield.reftri import BARYCENTER, in_reference
from quadfield.singular import (ARC_ENDPOINT_GAP, ARC_SAMPLES, NEWTON_MAX_ITER,
                                NEWTON_SLACK, NEWTON_TOL, CriticalPoint,
                                corner_valence, corner_valences,
                                find_critical_points, interior_roots,
                                interior_valence, topology_report)
from quadfield.solver import (DiscretizationChoice, FieldSolution, choose_discretization,
                             solve_guiding_field)
from quadfield.trimesh import elevate_and_curve, generate_background_mesh

ORIGIN = np.array([0.0, 0.0])


def synthetic_solution(mesh, fn):
    """Inject nodal values of an analytic field as a FieldSolution."""
    coeffs = np.zeros((mesh.n_elements(), mesh.ref.n_nodes, 2))
    for e in range(mesh.n_elements()):
        g = mesh.geom[e]
        u, v = fn(g[:, 0], g[:, 1])
        coeffs[e, :, 0] = u
        coeffs[e, :, 1] = v
    return FieldSolution(mesh, coeffs, DiscretizationChoice("cg"))


@pytest.mark.parametrize("fn,expected", [
    (lambda x, y: (x, y), (1, 3)),
    (lambda x, y: (x, -y), (-1, 5)),
    (lambda x, y: (np.ones_like(x), np.zeros_like(y)), (0, 4)),
])
def test_table_one_oracle(fn, expected):
    probe = AnalyticProbe(lambda x, y: np.array([np.asarray(fn(np.asarray(x),
                                                               np.asarray(y)))[0],
                                                 np.asarray(fn(np.asarray(x),
                                                               np.asarray(y)))[1]]))
    index, valence = interior_valence(ORIGIN, probe, 1.0)
    assert (index, valence) == expected


def test_index_sample_count_stable(monkeypatch):
    probe = AnalyticProbe(lambda x, y: np.array([x, y]))
    for samples in (64, 128):
        monkeypatch.setattr(singular, "CIRCLE_SAMPLES", samples)
        index, valence = interior_valence(ORIGIN, probe, 0.5)
        assert (index, valence) == (1, 3)


def test_index_radius_stable():
    probe = AnalyticProbe(lambda x, y: np.array([x, -y]))
    for c in (1.0, 0.5):
        index, valence = interior_valence(ORIGIN, probe, c)
        assert (index, valence) == (-1, 5)


def test_coalesced_index_rejected():
    # double saddle-like field with winding -2 on the contour
    probe = AnalyticProbe(lambda x, y: np.array(
        [x * x - y * y, -2 * x * y]))
    with pytest.raises(TopologyError, match="refine"):
        interior_valence(ORIGIN, probe, 1.0)


# ---- one-element reference: the Newton loop that invert_maps runs per lane ----


def _eval_ref_gradient(solution, e, xi):
    """d(components)/d(xi): shape (npts, ncomp, 2)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    g = solution.mesh.ref.grad_basis_at(xi)
    return np.einsum("pnd,nc->pcd", g, solution.coeffs[e])


def newton_locate(e, solution):
    """Newton root of the interpolated field inside element e, or None."""
    mesh = solution.mesh
    xi = BARYCENTER.copy()
    for _ in range(NEWTON_MAX_ITER):
        val = solution.eval(e, xi)[0]
        vmag = math.hypot(val[0], val[1])
        if vmag < NEWTON_TOL:
            break
        jac = _eval_ref_gradient(solution, e, xi)[0]     # d(u,v)/d(xi)
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if abs(det) < 1e-300:
            return None
        dxi = np.array([(jac[1, 1] * val[0] - jac[0, 1] * val[1]) / det,
                        (-jac[1, 0] * val[0] + jac[0, 0] * val[1]) / det])
        xi = xi - dxi
        if np.abs(xi).max() > 10.0:
            return None
    else:
        return None
    if not in_reference(xi, slack=NEWTON_SLACK):
        return None            # dismissed: a neighbor search will find it
    pos = mesh.map_to_physical(e, xi)[0]
    return CriticalPoint(position=pos, elem=e, xi=xi.copy(), vmag=vmag)


def _assert_roots_match_newton_loop(solution):
    got = {cp.elem: cp for cp in interior_roots(solution)}
    for e in range(solution.mesh.n_elements()):
        ref = newton_locate(e, solution)
        assert (e in got) == (ref is not None), e
        if ref is not None:
            cp = got[e]
            assert cp.xi.tobytes() == ref.xi.tobytes(), e
            assert np.float64(cp.vmag).tobytes() == np.float64(ref.vmag).tobytes(), e
            assert cp.position.tobytes() == ref.position.tobytes(), e
    return got


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_interior_roots_match_newton_loop(square_mesh_p3, data):
    mesh = square_mesh_p3
    kind = data.draw(st.sampled_from(
        ["inside", "edge", "vertex", "just_outside", "no_root", "degenerate", "zero"]))
    u = data.draw(st.floats(0.0, 1.0))
    w = data.draw(st.floats(0.0, 1.0))
    if kind == "inside":
        e = data.draw(st.integers(0, mesh.n_elements() - 1))
        xi = np.array([-1.0 + 2.0 * u * (1.0 - w), -1.0 + 2.0 * w * (1.0 - u)])
        x0 = mesh.map_to_physical(e, xi)[0]
    elif kind == "edge":
        a, b = mesh.edges[mesh.interior_edges[data.draw(
            st.integers(0, len(mesh.interior_edges) - 1))]]
        x0 = mesh.vertices[a] + u * (mesh.vertices[b] - mesh.vertices[a])
    elif kind == "vertex":
        x0 = mesh.vertices[data.draw(st.integers(0, len(mesh.vertices) - 1))]
    else:
        # beside one of the four sides of the unit square, 1e-9 to 1e-3 out
        gap = 10.0 ** (-9.0 + 6.0 * w)
        x0 = [np.array([u, -gap]), np.array([1.0 + gap, u]), np.array([u, 1.0 + gap]),
              np.array([-gap, u])][data.draw(st.integers(0, 3))]
    coef = st.floats(-2.0, 2.0)
    a11, a12, a21, a22, q1, q2 = (data.draw(coef) for _ in range(6))
    if kind == "degenerate":       # v = k u: a singular Jacobian everywhere
        k = data.draw(coef)
        a21, a22, q1, q2 = k * a11, k * a12, 0.0, 0.0

    def fn(x, y):
        dx, dy = x - x0[0], y - x0[1]
        if kind == "zero":
            return 0.0 * x, 0.0 * y
        uu = a11 * dx + a12 * dy + q1 * dx * dy
        vv = a21 * dx + a22 * dy + q2 * dx * dx
        if kind == "no_root":      # |u| >= 2 - 2 * 0.5 * 2 > 0 on the square
            uu = 2.0 + 0.5 * np.tanh(uu)
        return uu, vv

    _assert_roots_match_newton_loop(synthetic_solution(mesh, fn))


def test_interior_roots_match_newton_loop_on_half_disc(half_disc_solution):
    got = _assert_roots_match_newton_loop(half_disc_solution)
    assert len(got) >= 2


def test_newton_locate_linear_field(square_mesh_p3):
    sol = synthetic_solution(square_mesh_p3, lambda x, y: (x - 0.47, y - 0.53))
    probe = FieldProbe(sol)
    cps = find_critical_points(sol, probe)
    assert len(cps) == 1
    assert np.abs(cps[0].position - [0.47, 0.53]).max() < 1e-10
    assert cps[0].valence == 3


def test_flag_candidates_linear_field(square_mesh_p3):
    # critical point near the square's center for (u,v) = (x-.47, y-.53)
    sol = synthetic_solution(square_mesh_p3, lambda x, y: (x - 0.47, y - 0.53))
    roots = interior_roots(sol)
    assert roots
    probe = FieldProbe(sol)
    host = probe.locate(np.array([0.47, 0.53]))[0]
    neighborhood = {cp.elem for cp in roots}
    for cp in roots:
        neighborhood.update(neighbors(square_mesh_p3, cp.elem))
    assert host in neighborhood
    # the root's host element is the one point location returns
    assert find_critical_points(sol, probe)[0].elem == host


def test_newton_dismisses_roots_outside_element(square_mesh_p3):
    sol = synthetic_solution(square_mesh_p3, lambda x, y: (x - 0.47, y - 0.53))
    probe = FieldProbe(sol)
    host = probe.locate(np.array([0.47, 0.53]))[0]
    far = (host + square_mesh_p3.n_elements() // 2) % square_mesh_p3.n_elements()
    assert newton_locate(far, sol) is None
    assert far not in [cp.elem for cp in interior_roots(sol)]


def test_half_disc_critical_points(half_disc_topology):
    cps, _ = half_disc_topology
    assert len(cps) == 2
    assert all(cp.valence == 3 for cp in cps)
    assert all(cp.vmag < 1e-10 for cp in cps)
    a, b = sorted(cps, key=lambda c: c.position[0])
    assert abs(a.position[0] + b.position[0]) < 1e-3
    assert abs(a.position[1] - b.position[1]) < 1e-3
    # dedup: pairwise separation beyond the local circle radius
    d = np.hypot(*(a.position - b.position))
    assert d > max(a.radius, b.radius)


def test_half_disc_corner_valences(half_disc_topology):
    _, cns = half_disc_topology
    assert [cn.valence for cn in cns] == [1, 1]
    assert all(cn.residual < 0.05 for cn in cns)


def test_polygon_topology(polygon_iii_pipeline):
    _, _, _, cps, cns = polygon_iii_pipeline
    assert len(cps) == 1 and cps[0].valence == 3
    valences = [cn.valence for cn in cns]
    assert valences.count(0) == 1
    sharp = min(cns, key=lambda cn: cn.corner.delta_theta)
    assert sharp.valence == 0


def test_topology_report_shape(half_disc_topology):
    cps, cns = half_disc_topology
    doc = topology_report(cps, cns)
    assert len(doc["critical_points"]) == 2
    assert len(doc["corners"]) == 2
    assert all("valence" in c for c in doc["critical_points"])


# ---- contours ------------------------------------------------------------------


def _reference_corner_arc(corner, probe, c0, samples=ARC_SAMPLES):
    """The radius/gap loop of corner_valence before _fit_contour: (c, arc) or None."""
    th_start, th_end = corner.wedge_angles()
    delta = corner.delta_theta
    pos = corner.position
    c = c0
    arc = None
    for _ in range(5):
        gap = ARC_ENDPOINT_GAP
        while gap <= delta / 8.0:
            angles = np.linspace(th_start + gap, th_end - gap, samples)
            pts = pos[None, :] + c * np.stack([np.cos(angles), np.sin(angles)], axis=1)
            if all(probe.contains_many(pts)):
                arc = pts
                break
            gap *= 2.0
        if arc is not None:
            break
        c *= 0.5
    return None if arc is None else (c, arc)


@settings(max_examples=40, deadline=None)
@given(fixture=st.sampled_from(["half_disc", "polygon_III"]), corner=st.integers(0, 99),
       scale=st.integers(-2, 9))
def test_fit_contour_finds_the_arc_of_the_old_corner_loop(half_disc, half_disc_probe,
                                                          polygon_iii, polygon_iii_pipeline,
                                                          fixture, corner, scale):
    """Starting radii from c0 / 4 to 128 c0, so that arcs fail at the outer
    radii or at the small endpoint gaps and the loop has to go on."""
    domain, probe = ((half_disc, half_disc_probe) if fixture == "half_disc"
                     else (polygon_iii, polygon_iii_pipeline[2]))
    corners = domain.corner_inventory()
    cs = corners[corner % len(corners)]
    fits = []
    fit_contour = singular._fit_contour

    def recorded(probe, center, c0, angle_sets):
        fits.append((c0, fit_contour(probe, center, c0, angle_sets)))
        return fits[-1][1]

    with mock.patch.object(singular, "_fit_contour", recorded), \
            mock.patch.object(singular, "RADIUS_FACTOR", singular.RADIUS_FACTOR * 2.0 ** scale):
        try:
            corner_valence(cs, probe)
        except TopologyError:
            pass                        # an ambiguous valence at an odd radius
    [(c0, got)] = fits
    want = _reference_corner_arc(cs, probe, c0)
    assert (got is None) == (want is None)
    if got is not None:
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_nautilus_topology_reads_each_contour_in_one_call(tmp_path, monkeypatch):
    """One eval_v_many per critical point and one eval_psi_many per corner;
    the only one-point call left is the corner's inward locate."""
    flags = ["--out", str(tmp_path), "--order", "3", "--target-h", "0.5"]
    for stage in ("mesh", "solve"):
        assert main([stage, str(fixture_path("nautilus"))] + flags) == 0
    calls = {"eval_v_many": 0, "eval_psi_many": 0, "locate": 0, "eval_v": 0}
    for name in calls:
        method = getattr(FieldProbe, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(FieldProbe, name, counted)
    assert main(["topology", str(fixture_path("nautilus"))] + flags) == 0
    doc = json.loads((tmp_path / "topology.json").read_text())
    n_cps, n_corners = len(doc["critical_points"]), len(doc["corners"])
    assert n_cps == 4 and n_corners > 0
    # each eval_psi_many evaluates its arc through one eval_v_many
    assert calls == {"eval_v_many": n_cps + n_corners, "eval_psi_many": n_corners,
                     "locate": n_corners, "eval_v": 0}


# Largest distance from a critical point at order P to its nearest one at P=7,
# on one background mesh per fixture (its target_h here) with the fixture's
# own scheme, as first measured.  Past P=3 the convergence is algebraic and
# not monotone (half_disc and polygon_III get worse from P=4 to P=5), which
# the corner singularities of the Laplace solution would explain.  The test
# allows twice these distances; a change that breaks that envelope degrades
# the field, and the envelope is not to be widened for it.
P_REFINEMENT = {
    "half_disc": (0.35, {3: 1.3e-4, 4: 1.5e-5, 5: 1.7e-5, 6: 3.0e-6}),
    "geometry_I": (0.35, {3: 5.0e-4, 4: 1.1e-4, 5: 5.1e-5, 6: 3.3e-5}),
    "polygon_III": (0.35, {3: 1.4e-3, 4: 5.8e-5, 5: 1.3e-4, 6: 3.4e-5}),     # DG
    "nautilus": (0.5, {3: 3.4e-3, 4: 1.4e-3, 5: 6.0e-4, 6: 2.2e-4}),
}


@pytest.mark.parametrize("name", sorted(P_REFINEMENT))
def test_critical_points_converge_under_p_refinement(name):
    """The paper's accuracy claim: the irregular nodes of the order-P field
    keep their count and valences at orders 3-6 and approach those at P=7."""
    target_h, measured = P_REFINEMENT[name]
    domain = load_fixture(name)
    linear = generate_background_mesh(domain, target_h)
    choice = choose_discretization(domain)

    def critical_points(order):
        sol = solve_guiding_field(elevate_and_curve(linear, order, domain), domain, choice)
        cps = find_critical_points(sol, FieldProbe(sol))
        return np.array([cp.position for cp in cps]), sorted(cp.valence for cp in cps)

    top, top_valences = critical_points(7)
    assert len(top)
    for order, dist in measured.items():
        pos, valences = critical_points(order)
        assert valences == top_valences, order
        gap = np.linalg.norm(pos[:, None, :] - top[None, :, :], axis=2).min(axis=1).max()
        assert gap <= 2.0 * dist, (order, gap)
