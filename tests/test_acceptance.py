"""Acceptance suite: one test per pipeline-level criterion.

Each test prints a single PASS line (run with -s or -rP to see them all).
"""

import json
import math
import time

import numpy as np
import pytest

from quadfield.blockdecomp import decompose
from quadfield.cli import main as cli_main
from quadfield.field import AnalyticProbe
from quadfield.geometry import (Arc, BoundaryLoop, boundary_zero_count,
                                boundary_zero_positions, fixture_path)
from quadfield.quadblocks import build_blocks, child_quality, isoparametric_split
from quadfield.singular import find_critical_points, interior_valence
from quadfield.solver import (DiscretizationChoice, FunctionBC, choose_discretization,
                              solve_laplace)
from quadfield.tracer import (Anchor, Streamline, advance_all, detect_meeting,
                              merge, trace_all)
from quadfield.trimesh import elevate_and_curve

from conftest import l2_error
from reference import REPORT_LINES


def _report(num, text):
    line = f"PASS criterion {num}: {text}"
    REPORT_LINES.append((num, line))
    print(line)


def test_criterion_1_spectral_convergence(unit_square, square_mesh_linear):
    start = time.time()
    square, linear = unit_square, square_mesh_linear
    assert linear.n_elements() <= 32
    fn = lambda x, y: np.real((x + 1j * y) ** 6)
    factors = {"cg": 5.0, "dg": 4.0}
    for scheme, factor in factors.items():
        errs = []
        for order in (2, 3, 4, 5):
            mesh = elevate_and_curve(linear, order, square)
            sol = solve_laplace(mesh, FunctionBC(mesh, [fn]),
                                DiscretizationChoice(scheme))
            errs.append(l2_error(sol, fn))
        for i in range(len(errs) - 1):
            if errs[i] < 1e-10:
                break
            assert errs[i] / errs[i + 1] >= factor, (scheme, errs)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(1, f"CG/DG L2 errors drop >=5x/4x per order ({elapsed:.1f}s)")


def test_criterion_2_boundary_field_structure():
    start = time.time()
    loop = BoundaryLoop([Arc((0.0, 0.0), 1.0, 0.0, 2 * math.pi)], "outer")
    nu = boundary_zero_count(loop, "u")
    nv = boundary_zero_count(loop, "v")
    assert (nu, nv) == (8, 8)
    zu = boundary_zero_positions(loop, "u")
    zv = boundary_zero_positions(loop, "v")
    merged = sorted([(s, "u") for s in zu] + [(s, "v") for s in zv])
    kinds = [k for _, k in merged]
    assert all(kinds[i] != kinds[(i + 1) % 16] for i in range(16))
    assert time.time() - start < 1.0
    _report(2, "full circle has 8 interlaced zeros in each component")


def test_criterion_3_table_one_oracle():
    start = time.time()
    cases = [
        (lambda x, y: np.array([x, y]), (1, 3)),
        (lambda x, y: np.array([x, -y]), (-1, 5)),
        (lambda x, y: np.array([1.0, 0.0]), (0, 4)),
    ]
    for fn, expected in cases:
        probe = AnalyticProbe(fn)
        assert interior_valence(np.zeros(2), probe, 1.0) == expected
    assert time.time() - start < 1.0
    _report(3, "contour index maps to valence: (+1,3) (-1,5) (0,4)")


@pytest.fixture(scope="module")
def half_disc_run(captured):
    state = captured("half_disc")
    domain, mesh, probe = state.domain, state.mesh, state.probe
    (cps, cns), (seps, _, h_s) = state.topology, state.traced
    sub, faces = decompose(domain, probe, cns, seps, h_s, critical_points=cps)
    blocks = build_blocks(sub, faces)
    return domain, mesh, probe, cps, cns, seps, sub, faces, blocks


def test_criterion_4_half_disc_topology(half_disc_run):
    start = time.time()
    domain, mesh, probe, cps, cns, seps, sub, faces, blocks = half_disc_run
    assert len(cps) == 2
    assert all(cp.valence == 3 for cp in cps)
    a, b = sorted(cps, key=lambda c: c.position[0])
    radius = 1.0
    assert abs(a.position[0] + b.position[0]) < 1e-3 * radius
    assert abs(a.position[1] - b.position[1]) < 1e-3 * radius
    assert [cn.valence for cn in cns] == [1, 1]
    sub.euler_check()
    for f in faces:
        corners, zeros = sub.face_corners(f)
        assert len(corners) == 4 and not zeros
    for blk in blocks:
        assert blk.scaled_jacobians().min() > 0
    assert time.time() - start < 60.0
    _report(4, f"half disc: 2 mirror 3-valent nodes, corner valence 1, "
               f"{len(blocks)} valid quad blocks")


def test_criterion_5_polygon_iii(captured):
    start = time.time()
    state = captured("polygon_III")
    domain, probe, (cps, cns) = state.domain, state.probe, state.topology
    assert choose_discretization(domain).scheme == "dg"
    assert len(cps) == 1
    assert [cn.valence for cn in cns].count(0) == 1
    seps, _, h_s = state.traced
    sub, faces = decompose(domain, probe, cns, seps, h_s, critical_points=cps)
    irregular = [k for k in sub.vertices if k[0] in ("critical", "artificial")]
    assert len(irregular) == 2
    assert sorted(k[0] for k in irregular) == ["artificial", "critical"]
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(5, f"polygon III: 1 critical point + 1 dead corner -> midpoint "
               f"division -> 2 interior irregular nodes ({elapsed:.1f}s)")


def test_criterion_6_geometry_i_symmetry(captured):
    start = time.time()
    state = captured("geometry_I", order=4)
    cps = find_critical_points(state.solution, state.probe)
    assert len(cps) == 2
    assert all(cp.valence == 3 for cp in cps)
    height = 2.0                      # mirror axis of the fixture: y = 1
    a, b = sorted(cps, key=lambda c: c.position[1])
    mirror_err = np.hypot(a.position[0] - b.position[0],
                          (height - a.position[1]) - b.position[1])
    assert mirror_err < 1e-3
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(6, f"geometry I: exactly two 3-valent nodes, mirror error "
               f"{mirror_err:.1e} ({elapsed:.1f}s)")


def test_criterion_7_ab4_order():
    start = time.time()
    probe = AnalyticProbe(lambda x, y: (
        math.cos(4 * (math.atan2(y, x) + math.pi / 2)),
        math.sin(4 * (math.atan2(y, x) + math.pi / 2))))
    drifts = []
    for n in (300, 600, 1200):
        h = 2 * math.pi / n
        sl = Streamline(Anchor("critical", 0, np.array([1.0, 0.0])), 0,
                        [np.array([1.0, 0.0])], [math.pi / 2])
        for _ in range(n):
            advance_all([sl], probe, h)
        drifts.append(float(np.hypot(*(sl.front() - np.array([1.0, 0.0])))))
    orders = [math.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
    for order in orders:
        assert 3.5 <= order <= 4.5, (orders, drifts)
    assert time.time() - start < 5.0
    _report(7, f"AB4 drift orders across h halvings: "
               f"{', '.join(f'{o:.2f}' for o in orders)}")


def test_criterion_8_merging_properties():
    start = time.time()
    n = 30
    xs = np.linspace(0.0, 1.0, n)
    pa = [np.array([x, 0.0]) for x in xs]
    pb = [np.array([1.0 - x, 0.25]) for x in xs]
    a = Streamline(Anchor("critical", 0, pa[0]), 0, pa, [0.0] * n)
    b = Streamline(Anchor("critical", 1, pb[0]), 0, pb, [math.pi] * n)
    sep = merge(a, b)
    assert np.array_equal(sep.points[0], pa[0])
    assert np.array_equal(sep.points[-1], pb[0])
    for tangent, ref in ((sep.points[1] - sep.points[0], 0.0),
                         (sep.points[-1] - sep.points[-2], 0.0)):
        ang = math.atan2(tangent[1], tangent[0])
        assert abs(math.remainder(ang - ref, math.pi)) < 1e-3

    h = 0.01
    front_a = Streamline(Anchor("critical", 0, np.zeros(2)), 0,
                         [np.array([0.0, 0.0])], [0.0])
    front_b = Streamline(Anchor("critical", 1, np.ones(2)), 0,
                         [np.array([3 * h, 0.0])], [math.pi])
    assert not detect_meeting(front_a, front_b, h)
    assert detect_meeting(front_a, front_b, 5 * h)
    assert time.time() - start < 1.0
    _report(8, "trig merge preserves endpoints/tangents; kappa=5 widens "
               "meeting to 3 h_s")


def test_criterion_9_nautilus(half_disc_run, captured):
    start = time.time()
    state = captured("nautilus", target_h=0.5)
    domain, probe, (cps, cns) = state.domain, state.probe, state.topology
    assert len(cps) == 4
    assert all(cp.valence == 3 for cp in cps)
    h_s = 0.25 * state.mesh.shortest_edge()
    seps_normal, sls_normal = trace_all(cps, cns, probe, domain, h_s)
    assert all(sl.status in ("merged", "hit_boundary") for sl in sls_normal)
    seps_aggr, sls_aggr = trace_all(cps, cns, probe, domain, h_s, kappa=5.0)
    assert all(sl.status in ("merged", "hit_boundary") for sl in sls_aggr)
    assert len(seps_aggr) < len(seps_normal)
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(9, f"nautilus: four 3-valent nodes, zero limit cycles, aggressive "
               f"{len(seps_aggr)} < normal {len(seps_normal)} separatrices "
               f"({elapsed:.1f}s)")


def test_criterion_10_holed_nautilus(tmp_path, captured):
    start = time.time()
    cps, _ = captured("holed_nautilus").topology
    assert len(cps) == 0
    rc = cli_main(["run", str(fixture_path("holed_nautilus")), "--out",
                   str(tmp_path / "hn"), "--target-h", "0.35"])
    assert rc in (5, 6)
    topo = json.loads((tmp_path / "hn" / "topology.json").read_text())
    assert len(topo["critical_points"]) == 0
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(10, f"holed nautilus: 0 critical points, pipeline exits {rc} "
                f"({elapsed:.1f}s)")


def test_criterion_11_splitting_quality(half_disc_run):
    start = time.time()
    *_, blocks = half_disc_run
    qmesh = isoparametric_split(blocks, 4)
    assert len(qmesh.quads) == 16 * len(blocks)
    qmesh.check_conforming()
    qmesh.check_orientation()
    qmesh.euler_check()
    child_min, parent_min = child_quality(blocks, qmesh)
    for qi, cmin in child_min.items():
        assert cmin >= parent_min[int(qmesh.block_of[qi])] - 1e-8
    assert time.time() - start < 10.0
    _report(11, f"4x4 split of {len(blocks)} half-disc blocks: conforming, "
                "quality inherited")


def test_criterion_12_determinism(tmp_path):
    start = time.time()
    args = ["run", str(fixture_path("half_disc")), "--target-h", "0.35",
            "--order", "3", "--split", "4"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    names = ["mesh.json", "field.json", "topology.json", "separatrices.json",
             "blocks.json", "quadmesh.msh", "manifest.json"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(12, f"two full runs produced byte-identical artifacts "
                f"({elapsed:.1f}s)")
