import json
import math
from collections import Counter
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quadfield.blockdecomp import boundary_records
from quadfield.cli import main
from quadfield.errors import GeometryError
from quadfield.geometry import (Arc, BoundaryLoop, CurveSegment, DomainSpec, Line,
                                Naca4, Spline, boundary_field, boundary_zero_count,
                                boundary_zero_positions, domain_from_json,
                                fixture_path, load_fixture, tangent_angle)

from conftest import square_domain

FIXTURES = ("half_disc", "geometry_I", "polygon_III", "naca_IV", "nautilus",
            "holed_nautilus")


def test_tangent_angle_horizontal_line():
    seg = Line((0.0, 0.0), (2.0, 0.0))
    for t in (0.0, 0.3, 1.0):
        assert tangent_angle(seg, t) == pytest.approx(0.0, abs=1e-15)


def test_tangent_angle_ccw_arc_top():
    seg = Arc((0.0, 0.0), 1.0, 0.0, math.pi)
    assert tangent_angle(seg, 0.5) == pytest.approx(math.pi, abs=1e-12)


def test_singular_parametrization_rejected_on_every_call():
    seg = Line((3.0, -2.0), (3.0, -2.0))
    for t in (0.0, 0.5, 1.0):
        with pytest.raises(GeometryError, match="singular parametrization"):
            tangent_angle(seg, t)
    assert seg._scale == 6.0


def test_tangent_angle_naca_trailing_edge_against_finite_differences():
    foil = Naca4("0012")
    # upper surface near the trailing edge: t slightly below 1
    for t in (0.92, 0.96, 0.99):
        ang = tangent_angle(foil, t)
        assert -math.pi / 2 < ang < 0.0
        eps = 1e-7
        p0 = foil.point(t - eps)
        p1 = foil.point(t + eps)
        fd = math.atan2(p1[1] - p0[1], p1[0] - p0[0])
        assert ang == pytest.approx(fd, abs=1e-5)


def test_naca_closed_trailing_edge():
    foil = Naca4("0012", chord=2.0, origin=(0.5, -0.25))
    assert np.allclose(foil.point(0.0), foil.point(1.0), atol=1e-14)
    assert np.allclose(foil.point(0.0), [2.5, -0.25], atol=1e-12)


def test_degenerate_segment_raises():
    seg = Line((1.0, 1.0), (1.0, 1.0))
    with pytest.raises(GeometryError, match="singular"):
        tangent_angle(seg, 0.5)


def test_boundary_field_trivials():
    assert boundary_field(0.0) == pytest.approx((1.0, 0.0))
    u, v = boundary_field(math.pi / 8)
    assert u == pytest.approx(0.0, abs=1e-15)
    assert v == pytest.approx(1.0)
    u, v = boundary_field(math.pi / 4)
    assert u == pytest.approx(-1.0)
    assert v == pytest.approx(0.0, abs=1e-15)


@given(st.floats(-10.0, 10.0), st.integers(-8, 8))
def test_boundary_field_quarter_turn_symmetry(theta, k):
    u1, v1 = boundary_field(theta)
    u2, v2 = boundary_field(theta + k * math.pi / 2)
    assert u1 == pytest.approx(u2, abs=1e-9)
    assert v1 == pytest.approx(v2, abs=1e-9)


def test_boundary_field_symmetry_bulk():
    rng = np.random.default_rng(0)
    thetas = rng.uniform(-20, 20, 1000)
    u1, v1 = boundary_field(thetas)
    u2, v2 = boundary_field(thetas + math.pi / 2)
    assert np.abs(u1 - u2).max() < 1e-12
    assert np.abs(v1 - v2).max() < 1e-12


@pytest.mark.parametrize("radius", [1.0, 0.3, 7.5])
@pytest.mark.parametrize("component", ["u", "v"])
def test_circle_zero_count(radius, component):
    loop = BoundaryLoop([Arc((0, 0), radius, 0.0, 2 * math.pi)], "outer")
    assert boundary_zero_count(loop, component) == 8


def test_circle_zeros_interlace():
    loop = BoundaryLoop([Arc((0, 0), 1.0, 0.0, 2 * math.pi)], "outer")
    zu = boundary_zero_positions(loop, "u")
    zv = boundary_zero_positions(loop, "v")
    assert len(zu) == len(zv) == 8
    merged = sorted([(s, "u") for s in zu] + [(s, "v") for s in zv])
    kinds = [k for _, k in merged]
    assert all(kinds[i] != kinds[(i + 1) % 16] for i in range(16))


def _rounded_rectangle_loop(w=3.0, h=1.6, r=0.5, rot=0.3):
    """Smooth closed generic loop: rotated lines joined by tangent arcs.

    Rotation keeps every straight run away from the special tangent angles
    where one field component vanishes identically.
    """
    c, s = math.cos(rot), math.sin(rot)

    def R(p):
        return (c * p[0] - s * p[1], s * p[0] + c * p[1])

    segs = [
        Line(R((r, 0.0)), R((w - r, 0.0))),
        Arc(R((w - r, r)), r, -math.pi / 2 + rot, 0.0 + rot),
        Line(R((w, r)), R((w, h - r))),
        Arc(R((w - r, h - r)), r, 0.0 + rot, math.pi / 2 + rot),
        Line(R((w - r, h)), R((r, h))),
        Arc(R((r, h - r)), r, math.pi / 2 + rot, math.pi + rot),
        Line(R((0.0, h - r)), R((0.0, r))),
        Arc(R((r, r)), r, math.pi + rot, 1.5 * math.pi + rot),
    ]
    return BoundaryLoop(segs, "outer")


def test_smooth_noncircular_loop_zeros_interlace():
    loop = _rounded_rectangle_loop()
    assert not loop.corners()
    assert boundary_zero_count(loop, "u") == 8
    assert boundary_zero_count(loop, "v") == 8
    zu = boundary_zero_positions(loop, "u")
    zv = boundary_zero_positions(loop, "v")
    merged = sorted([(s, "u") for s in zu] + [(s, "v") for s in zv])
    kinds = [k for _, k in merged]
    assert all(kinds[i] != kinds[(i + 1) % 16] for i in range(16))


def test_zero_count_requires_smooth_loop(half_disc):
    with pytest.raises(GeometryError, match="smooth"):
        boundary_zero_count(half_disc.outer, "u")


def test_half_disc_corners(half_disc):
    corners = half_disc.corner_inventory()
    assert len(corners) == 2
    for c in corners:
        assert c.delta_theta == pytest.approx(math.pi / 2, abs=1e-9)
        assert c.bc_continuous
    assert sorted(round(c.position[0]) for c in corners) == [-1, 1]


def test_square_corners():
    corners = square_domain().corner_inventory()
    assert len(corners) == 4
    assert all(c.bc_continuous for c in corners)


def test_polygon_iii_has_discontinuous_corner(polygon_iii):
    corners = polygon_iii.corner_inventory()
    assert any(not c.bc_continuous for c in corners)


def test_corner_inventory_rotation_invariant(half_disc):
    segs = half_disc.outer.segments
    rotated = BoundaryLoop(segs[1:] + segs[:1], "outer")
    base = {tuple(np.round(c.position, 9)): round(c.delta_theta, 9)
            for c in half_disc.outer.corners()}
    rot = {tuple(np.round(c.position, 9)): round(c.delta_theta, 9)
           for c in rotated.corners()}
    assert base == rot


def test_smooth_loop_tangent_continuity():
    loop = BoundaryLoop([Arc((0, 0), 1.0, 0.0, 2 * math.pi)], "outer")
    thetas = loop.tangent_angles(2048)
    jumps = np.abs(np.remainder(np.diff(thetas) + math.pi, 2 * math.pi) - math.pi)
    assert jumps.max() < 1e-2


def test_spline_segment_interpolates_points():
    pts = [(0, 0), (1, 0.5), (2, 0.2), (3, 1.0)]
    seg = Spline(pts)
    assert np.allclose(seg.point(0.0), pts[0], atol=1e-12)
    assert np.allclose(seg.point(1.0), pts[-1], atol=1e-12)


def test_domain_json_roundtrip(tmp_path, half_disc):
    doc = half_disc.to_json()
    again = domain_from_json(doc)
    assert again.to_json() == doc
    assert again.area() == pytest.approx(half_disc.area())


def test_orientation_validation():
    cw = [Line((0, 0), (0, 1)), Line((0, 1), (1, 1)), Line((1, 1), (1, 0)),
          Line((1, 0), (0, 0))]
    with pytest.raises(GeometryError, match="counter-clockwise"):
        domain_from_json({"name": "bad", "loops": [
            {"orientation": "outer",
             "segments": [s.to_json() for s in cw]}]})


def test_hole_must_be_inside():
    doc = square_domain().to_json()
    doc["loops"].append({"orientation": "hole", "segments": [
        {"kind": "arc", "center": [5.0, 5.0], "radius": 0.3,
         "a0": 2 * math.pi, "a1": 0.0}]})
    with pytest.raises(GeometryError, match="inside"):
        domain_from_json(doc)


def test_fixture_files_load():
    for name in FIXTURES:
        dom = load_fixture(name)
        assert dom.area() > 0


def test_domain_contains(half_disc):
    assert half_disc.contains((0.0, 0.5))
    assert not half_disc.contains((0.0, -0.5))
    assert not half_disc.contains((5.0, 5.0))


# ---- the loop arclength map against the per-point loop it replaced --------------


def _loop_cumlen(loop):
    lens = [seg.arclength() for seg in loop.segments]
    return np.concatenate([[0.0], np.cumsum(lens)])


def _loop_point(loop, cum, s):
    total = cum[-1]
    s = s % total
    seg_i = int(np.searchsorted(cum, s, side="right") - 1)
    seg_i = min(seg_i, len(loop.segments) - 1)
    t = float(loop.segments[seg_i].t_at_arclength(s - cum[seg_i]))
    return loop.segments[seg_i].point(t)


def _sample_boundary_arc(loop, cum, s0, s1, spacing):
    total = cum[-1]
    if s1 <= s0:
        s1 += total
    n = max(8, int(math.ceil((s1 - s0) / spacing)))
    svals = np.linspace(s0, s1, n + 1)
    return np.array([_loop_point(loop, cum, s) for s in svals])


@pytest.mark.parametrize("name", FIXTURES)
def test_loop_arcs_match_the_per_point_sampler(name):
    domain = load_fixture(name)
    spacing = domain.bbox_diag / 400.0
    rng = np.random.default_rng(7)
    for loop in domain.loops:
        cum = _loop_cumlen(loop)
        total = cum[-1]
        assert loop.cumlen.tobytes() == cum.tobytes()
        # random arcs (about half wrap around the seam), arcs from and to
        # every segment start, and the full loop from each segment start
        arcs = [tuple(rng.uniform(0.0, total, 2)) for _ in range(20)]
        arcs += [(cum[i], cum[(i + 1) % len(loop.segments)]) for i in range(len(cum) - 1)]
        arcs += [(c, c) for c in cum[:-1]]
        assert any(s1 <= s0 for s0, s1 in arcs)
        for s0, s1 in arcs:
            got = loop.arc_points(s0, s1, spacing)
            assert got.tobytes() == _sample_boundary_arc(loop, cum, s0, s1, spacing).tobytes()
        # an event at parameter t of a segment sits where the interpolated table says
        for si, seg in enumerate(loop.segments):
            ts, _, cl = seg.arclength_table
            for t in (0.0, *rng.uniform(0.0, 1.0, 3)):
                s = cum[si] + float(np.interp(t, ts, cl))
                assert loop.arclength_at(si, t) == s % total


def _rounded_square_domain():
    r = 0.25
    segs = [Line((r, 0), (1 - r, 0)), Arc((1 - r, r), r, -math.pi / 2, 0.0),
            Line((1, r), (1, 1 - r)), Arc((1 - r, 1 - r), r, 0.0, math.pi / 2),
            Line((1 - r, 1), (r, 1)), Arc((r, 1 - r), r, math.pi / 2, math.pi),
            Line((0, 1 - r), (0, r)), Arc((r, r), r, math.pi, 1.5 * math.pi)]
    return DomainSpec([BoundaryLoop(segs, "outer")])


@pytest.mark.parametrize("domain", [
    DomainSpec([BoundaryLoop([Arc((0.3, -0.2), 2.0, 0.0, 2 * math.pi)], "outer")]),
    _rounded_square_domain()], ids=["circle", "rounded_square"])
def test_seam_edge_matches_the_per_point_sampler(domain):
    # with no corner and no separatrix foot, the loop is one edge from a seam vertex
    vertices, records = boundary_records(domain, [], [])
    loop = domain.outer
    pos = loop.segments[0].point(0.0)
    cum = _loop_cumlen(loop)
    ref = _sample_boundary_arc(loop, cum, 0.0, cum[-1], domain.bbox_diag / 400.0)
    ref[0] = pos
    ref[-1] = pos
    assert list(vertices) == [("seam", 0)] and len(records) == 1
    assert (records[0].v0, records[0].v1) == (("seam", 0), ("seam", 0))
    assert records[0].polyline.tobytes() == ref.tobytes()


def test_polygon_iii_run_samples_each_boundary_once(tmp_path, monkeypatch):
    polygon_builds, table_builds, sampling, angles_in_sampling = Counter(), Counter(), [], []
    sample = BoundaryLoop.sample_arclength
    tangent = CurveSegment.tangent_angle
    table = CurveSegment.__dict__["arclength_table"].func

    def counted_sample(loop, *args):
        polygon_builds[id(loop)] += 1
        sampling.append(loop)
        try:
            return sample(loop, *args)
        finally:
            sampling.pop()

    def watched_tangent(seg, t):
        if sampling:
            angles_in_sampling.append(t)
        return tangent(seg, t)

    def counted_table(seg):
        table_builds[id(seg)] += 1
        return table(seg)

    counted = cached_property(counted_table)
    counted.__set_name__(CurveSegment, "arclength_table")
    monkeypatch.setattr(BoundaryLoop, "sample_arclength", counted_sample)
    monkeypatch.setattr(CurveSegment, "tangent_angle", watched_tangent)
    monkeypatch.setattr(CurveSegment, "arclength_table", counted)
    argv = ["run", str(fixture_path("polygon_III")), "--order", "3", "--target-h", "0.35",
            "--split", "2", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert polygon_builds and max(polygon_builds.values()) == 1
    assert table_builds and max(table_builds.values()) == 1
    assert not angles_in_sampling
