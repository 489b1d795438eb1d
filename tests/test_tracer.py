import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quadfield import tracer
from quadfield.cli import main
from quadfield.errors import TracingError
from quadfield.field import OUTSIDE, AnalyticProbe, FieldProbe, adjust_branch
from quadfield.geometry import fixture_path
from quadfield.tracer import (BISECT_LEVELS, BISECT_STEPS, Anchor, Streamline,
                              _bisect_to_skin, _rk4_steps, _unit, advance_all,
                              detect_meeting, initial_directions, merge,
                              refine_direction, trace_all)
from quadfield.trimesh import TriMesh

UNIFORM = AnalyticProbe(lambda x, y: (1.0, 0.0))


def circular_probe():
    return AnalyticProbe(lambda x, y: (
        math.cos(4 * (math.atan2(y, x) + math.pi / 2)),
        math.sin(4 * (math.atan2(y, x) + math.pi / 2))))


def test_refine_direction_uniform_field():
    assert refine_direction(np.zeros(2), 0.1, UNIFORM, 0.05) == \
        pytest.approx(0.0, abs=1e-9)
    assert refine_direction(np.zeros(2), 1.5, UNIFORM, 0.05) == \
        pytest.approx(math.pi / 2, abs=1e-9)


def test_initial_directions_distinct():
    dirs = initial_directions(np.zeros(2), 4, UNIFORM, 0.05, first_guess=0.2)
    assert len(dirs) == 4
    gaps = sorted(d % (2 * math.pi) for d in dirs)
    assert np.allclose(np.diff(gaps), math.pi / 2, atol=1e-8)


def test_half_disc_node_directions(half_disc_topology, half_disc_probe):
    cps, _ = half_disc_topology
    cp = cps[0]
    dirs = initial_directions(cp.position, cp.valence, half_disc_probe, cp.radius)
    assert len(dirs) == 3
    angles = np.sort(np.mod(dirs, 2 * math.pi))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
    assert np.abs(gaps - 2 * math.pi / 3).max() < math.radians(15)


def test_uniform_field_straight_polyline():
    sl = Streamline(Anchor("critical", 0, np.zeros(2)), 0, [np.zeros(2)], [0.0])
    h = 0.01
    for _ in range(10):
        advance_all([sl], UNIFORM, h)
    assert np.abs(sl.front() - np.array([10 * h, 0.0])).max() < 1e-12


def test_ab4_order_on_circle():
    drifts = []
    for n in (300, 600, 1200):
        h = 2 * math.pi / n
        sl = Streamline(Anchor("critical", 0, np.array([1.0, 0.0])), 0,
                        [np.array([1.0, 0.0])], [math.pi / 2])
        probe = circular_probe()
        for _ in range(n):
            advance_all([sl], probe, h)
        drifts.append(float(np.hypot(*(sl.front() - np.array([1.0, 0.0])))))
    orders = [math.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
    for o in orders:
        assert 3.5 <= o <= 4.5


def test_branch_continuity_along_streamlines(half_disc_traced):
    _, streamlines, _ = half_disc_traced
    for sl in streamlines:
        alphas = np.asarray(sl.alphas)
        if len(alphas) > 1:
            assert np.abs(np.diff(alphas)).max() < math.pi / 4


def test_detect_meeting_antiparallel():
    a = Streamline(Anchor("critical", 0, np.zeros(2)), 0,
                   [np.array([0.0, 0.0])], [0.0])
    b = Streamline(Anchor("critical", 1, np.ones(2)), 0,
                   [np.array([0.005, 0.0])], [math.pi])
    assert detect_meeting(a, b, 0.01)
    b.alphas = [0.0]
    assert not detect_meeting(a, b, 0.01)


def test_detect_meeting_aggressive_threshold():
    h = 0.01
    a = Streamline(Anchor("critical", 0, np.zeros(2)), 0,
                   [np.array([0.0, 0.0])], [0.0])
    b = Streamline(Anchor("critical", 1, np.ones(2)), 0,
                   [np.array([3 * h, 0.0])], [math.pi])
    assert not detect_meeting(a, b, h)
    assert detect_meeting(a, b, 5 * h)


def test_merge_weights():
    pa = [np.array([0.0, 0.0]), np.array([0.5, 0.1]), np.array([1.0, 0.0])]
    pb = [np.array([1.0, 0.3]), np.array([0.5, 0.4]), np.array([0.0, 0.3])]
    a = Streamline(Anchor("critical", 0, pa[0]), 0, [p.copy() for p in pa],
                   [0.0, 0.0, 0.0])
    b = Streamline(Anchor("critical", 1, pb[0]), 0, [p.copy() for p in pb],
                   [math.pi, math.pi, math.pi])
    sep = merge(a, b)
    assert np.allclose(sep.points[0], pa[0], atol=0)
    assert np.allclose(sep.points[-1], pb[0], atol=0)
    mid = sep.points[len(sep.points) // 2]
    assert 0.1 < mid[1] < 0.35


def test_merge_preserves_end_tangents():
    n = 40
    xs = np.linspace(0, 1, n)
    pa = [np.array([x, 0.0]) for x in xs]
    pb = [np.array([1 - x, 0.2]) for x in xs]
    a = Streamline(Anchor("critical", 0, pa[0]), 0, pa, [0.0] * n)
    b = Streamline(Anchor("critical", 1, pb[0]), 0, pb, [math.pi] * n)
    sep = merge(a, b)
    t0 = sep.points[1] - sep.points[0]
    t1 = sep.points[-1] - sep.points[-2]
    assert abs(math.atan2(t0[1], t0[0]) - 0.0) < 1e-3
    assert abs(math.remainder(math.atan2(t1[1], t1[0]) - 0.0, math.pi)) < 1e-3


def test_half_disc_trace_topology(half_disc_traced, half_disc_topology):
    seps, streamlines, h_s = half_disc_traced
    cps, _ = half_disc_topology
    assert len(streamlines) == 6          # two 3-valent nodes
    assert all(sl.status in ("merged", "hit_boundary") for sl in streamlines)
    assert len(seps) == 5
    kinds = sorted((s.start.kind, s.end.kind) for s in seps)
    assert kinds.count(("critical", "critical")) == 1
    assert kinds.count(("critical", "boundary")) == 4


def test_no_separatrix_exits_domain(half_disc, half_disc_traced):
    seps, _, _ = half_disc_traced
    for s in seps:
        for p in s.points:
            if half_disc.contains(p):
                continue
            _, _, _, dist = half_disc.closest_boundary_point(p)
            assert dist < 1e-9


def test_trace_determinism(half_disc, half_disc_mesh, half_disc_probe,
                           half_disc_topology):
    cps, cns = half_disc_topology
    h_s = 0.25 * half_disc_mesh.shortest_edge()
    a, _ = trace_all(cps, cns, half_disc_probe, half_disc, h_s)
    b, _ = trace_all(cps, cns, half_disc_probe, half_disc, h_s)
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert np.array_equal(np.asarray(sa.points), np.asarray(sb.points))


def test_limit_cycle_abort():
    probe = circular_probe()
    from quadfield.geometry import Arc, BoundaryLoop, DomainSpec
    ring = DomainSpec([
        BoundaryLoop([Arc((0, 0), 2.0, 0.0, 2 * math.pi)], "outer"),
        BoundaryLoop([Arc((0, 0), 0.5, 2 * math.pi, 0.0)], "hole"),
    ], name="ring")

    class FakeCp:
        position = np.array([1.0, 0.0])
        valence = 1
        radius = 0.05

    with pytest.raises(TracingError):
        # single streamline riding concentric circles never terminates
        sl = Streamline(Anchor("critical", 0, FakeCp.position), 0,
                        [FakeCp.position.copy()], [math.pi / 2])
        registry = type("R", (), {"resolve": lambda self, *a: None,
                                  "corner_anchors": []})()
        for _ in range(4000):
            advance_all([sl], probe, 0.02, domain=ring, registry=registry,
                        n_max=1000)
            if sl.status == "aborted":
                raise TracingError("limit cycle")
        raise AssertionError("streamline should have aborted")


# ---- references of the batched rewrites ----------------------------------------


def _reference_bisection(inside, outside, probe):
    """The one-step bisection loop of _cut_to_boundary before it was batched.

    Returns the inside end and the midpoints the loop visited, in order.
    """
    inside = inside.copy()
    outside = outside.copy()
    visited = []
    for _ in range(60):
        mid = 0.5 * (inside + outside)
        visited.append(mid)
        if probe.contains(mid):
            inside = mid
        else:
            outside = mid
    return inside, visited


def _reference_rk4_step(sl, h, probe):
    """The one-front RK4 start-up step, before stages were batched across fronts."""
    x = sl.front()
    alpha0 = sl.front_alpha()
    k1 = _unit(alpha0)
    ks = [k1]
    for frac, kprev in ((0.5, k1), (0.5, None), (1.0, None)):
        kp = ks[-1] if kprev is None else kprev
        psi = probe.eval_psi(x + frac * h * kp)
        if psi is OUTSIDE:
            return x + h * k1          # exiting: order is irrelevant, cut follows
        ks.append(_unit(adjust_branch(psi, alpha0)))
    k1, k2, k3, k4 = ks
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _BatchRecorder:
    """A probe that records the batches passed to contains_many."""

    def __init__(self, probe):
        self.probe = probe
        self.batches = []

    def contains_many(self, points):
        self.batches.append(np.array(points))
        return self.probe.contains_many(points)


def _half_disc_point(data, r_lo, r_hi):
    r = data.draw(st.floats(r_lo, r_hi))
    a = data.draw(st.floats(0.0, math.pi))
    return np.array([r * math.cos(a), r * math.sin(a)])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_batched_bisection_visits_the_midpoints_of_the_loop(half_disc_solution, data):
    """Segments that cross the half-disc skin: through the arc, the base or a corner."""
    ref_probe = FieldProbe(half_disc_solution)
    inside = _half_disc_point(data, 0.0, 1.0)
    kind = data.draw(st.sampled_from(["arc", "base", "far", "grazing"]))
    if kind == "arc":
        outside = _half_disc_point(data, 1.0, 1.2)
    elif kind == "base":
        outside = np.array([data.draw(st.floats(-1.2, 1.2)), -data.draw(st.floats(0.0, 0.2))])
    elif kind == "far":
        outside = _half_disc_point(data, 1.0, 40.0) * [1.0, -1.0]
    else:
        outside = inside * (1.0 + 1e-9) / max(float(np.hypot(*inside)), 1e-3)
    assume(ref_probe.contains(inside) and not ref_probe.contains(outside))
    want, visited = _reference_bisection(inside, outside, ref_probe)

    probe = _BatchRecorder(FieldProbe(half_disc_solution))
    got = _bisect_to_skin(inside, outside, probe)
    assert got.tobytes() == want.tobytes()
    assert len(probe.batches) == math.ceil(BISECT_STEPS / BISECT_LEVELS)
    for level, mid in enumerate(visited):
        batch = probe.batches[level // BISECT_LEVELS]
        assert mid.tobytes() in {p.tobytes() for p in batch}, level


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batched_rk4_stages_match_the_one_front_step(half_disc_solution, data):
    """Start-up fronts inside and near the skin, some of which exit at a stage."""
    h = data.draw(st.sampled_from([0.005, 0.05, 0.2]))
    fronts = []
    for b in range(data.draw(st.integers(1, 6))):
        x = _half_disc_point(data, 0.0, 0.999)
        alphas = [data.draw(st.floats(-math.pi, math.pi))
                  for _ in range(data.draw(st.integers(1, 3)))]
        fronts.append(Streamline(Anchor("critical", 0, x), b, [x], alphas))
    ref_probe = FieldProbe(half_disc_solution)
    want = [_reference_rk4_step(sl, h, ref_probe) for sl in fronts]
    got = _rk4_steps(fronts, h, FieldProbe(half_disc_solution))
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_nautilus_run_locates_in_few_batches(tmp_path, monkeypatch):
    """A full nautilus run makes fewer invert_map calls than it did with the
    one-step bisection (1,000), and each cut locates its midpoints in
    ceil(BISECT_STEPS / BISECT_LEVELS) batches, with at most one solve each."""
    inverts = [0]
    batches = [0]
    per_cut = []
    invert_map = TriMesh.invert_map
    contains_many = FieldProbe.contains_many
    cut = tracer._cut_to_boundary

    def counted_invert(self, elems, x):
        inverts[0] += 1
        return invert_map(self, elems, x)

    def counted_contains(self, points):
        batches[0] += 1
        return contains_many(self, points)

    def counted_cut(*args):
        before = batches[0], inverts[0]
        cut(*args)
        per_cut.append((batches[0] - before[0], inverts[0] - before[1]))

    monkeypatch.setattr(TriMesh, "invert_map", counted_invert)
    monkeypatch.setattr(FieldProbe, "contains_many", counted_contains)
    monkeypatch.setattr(tracer, "_cut_to_boundary", counted_cut)
    argv = ["run", str(fixture_path("nautilus")), "--out", str(tmp_path), "--order", "3",
            "--target-h", "0.5", "--split", "2"]
    assert main(argv) == 0
    per_batch = math.ceil(BISECT_STEPS / BISECT_LEVELS)
    assert len(per_cut) == 12
    assert all(n == per_batch and solves <= per_batch for n, solves in per_cut)
    assert inverts[0] < 1000
