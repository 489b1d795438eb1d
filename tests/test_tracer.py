import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quadfield import tracer
from quadfield.cli import main
from quadfield.errors import TracingError
from quadfield.field import OUTSIDE, AnalyticProbe, FieldProbe, adjust_branch
from quadfield.geometry import fixture_path
from quadfield.singular import CornerNode
from quadfield.tracer import (BISECT_LEVELS, BISECT_STEPS, DIRECTION_MAX_ITER,
                              DIRECTION_TOL, Anchor, Streamline, _bisect_to_skin,
                              _check_distinct, _near_ray, _rk4_steps, _unit, advance_all,
                              detect_meeting, initial_directions, launch_directions, merge,
                              refine_directions, trace_all)
from quadfield.trimesh import TriMesh

UNIFORM = AnalyticProbe(lambda x, y: (1.0, 0.0))


def circular_probe():
    return AnalyticProbe(lambda x, y: (
        math.cos(4 * (math.atan2(y, x) + math.pi / 2)),
        math.sin(4 * (math.atan2(y, x) + math.pi / 2))))


def test_refine_direction_uniform_field():
    got = refine_directions([np.zeros(2)] * 2, [0.1, 1.5], UNIFORM, [0.05, 0.05])
    assert got == pytest.approx([0.0, math.pi / 2], abs=1e-9)


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
        if probe.contains_many([mid])[0]:
            inside = mid
        else:
            outside = mid
    return inside, visited


def _reference_refine_direction(origin, alpha0, probe, c, eps=DIRECTION_TOL,
                                max_iter=DIRECTION_MAX_ITER):
    """The one-lane refine_direction before directions were refined in lockstep."""
    alpha = float(alpha0)
    for _ in range(max_iter):
        psi = _reference_probe_psi(origin, alpha, probe, c)
        new = adjust_branch(psi, alpha)
        dalpha = abs(new - alpha)
        alpha = new
        if dalpha <= eps:
            return alpha
    raise TracingError(f"initial direction did not converge from guess {alpha0:.6f}")


def _reference_probe_psi(origin, alpha, probe, c):
    step = np.array([math.cos(alpha), math.sin(alpha)])
    dist = c
    for _ in range(6):
        (psi,) = probe.eval_psi_many([origin + dist * step])
        if psi is not OUTSIDE:
            return psi
        dist *= 0.5
    raise TracingError("direction probe kept leaving the domain")


def _reference_initial_directions(origin, valence, probe, c, first_guess=0.0):
    if valence < 1:
        raise TracingError("initial_directions requires valence >= 1")
    base = _reference_refine_direction(origin, first_guess, probe, c)
    dirs = [base]
    for j in range(1, valence):
        dirs.append(_reference_refine_direction(origin, base + 2.0 * math.pi * j / valence,
                                                probe, c))
    _check_distinct(dirs)
    return dirs


def _reference_corner_directions(corner_node, probe):
    corner = corner_node.corner
    v = corner_node.valence
    if v <= 1:
        return []
    th_start, th_end = corner.wedge_angles()
    c = corner_node.radius
    dirs = []
    for j in range(1, v):
        guess = th_start + corner.delta_theta * j / v
        alpha = _reference_refine_direction(corner.position, guess, probe, c)
        if _near_ray(alpha, th_start) or _near_ray(alpha, th_end):
            continue
        dirs.append(alpha)
    _check_distinct(dirs)
    return dirs


def _reference_launch(nodes, corner_nodes, probe):
    """The one-direction-at-a-time order of trace_all: nodes, then corners."""
    return ([_reference_initial_directions(o, v, probe, c, g) for o, v, c, g in nodes],
            [_reference_corner_directions(cn, probe) for cn in corner_nodes])


def _outcome(fn, *args):
    """fn(*args) with every float as its hex, or the type and message of its TracingError."""
    try:
        return _hexed(fn(*args))
    except TracingError as ex:
        return _hexed(ex)


def _hexed(x):
    if isinstance(x, TracingError):
        return type(x), str(x)
    if isinstance(x, float):
        return x.hex()
    return [_hexed(v) for v in x]


def _reference_rk4_step(sl, h, probe):
    """The one-front RK4 start-up step, before stages were batched across fronts."""
    x = sl.front()
    alpha0 = sl.front_alpha()
    k1 = _unit(alpha0)
    ks = [k1]
    for frac, kprev in ((0.5, k1), (0.5, None), (1.0, None)):
        kp = ks[-1] if kprev is None else kprev
        (psi,) = probe.eval_psi_many([x + frac * h * kp])
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


def _crossing_segment(data, probe):
    """(inside, outside) across the half-disc skin: through the arc, the base or a
    corner; None when the drawn ends do not straddle the mesh skin."""
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
    return (inside, outside) if probe.contains_many([inside, outside]) == [True, False] else None


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_batched_bisection_visits_the_midpoints_of_the_loop(half_disc_solution, data):
    """One to four crossing segments bisected in one call, as an exit round does."""
    ref_probe = FieldProbe(half_disc_solution)
    segments = [seg for seg in (_crossing_segment(data, ref_probe)
                                for _ in range(data.draw(st.integers(1, 4)))) if seg]
    assume(segments)
    wanted = [_reference_bisection(inside, outside, ref_probe) for inside, outside in segments]

    probe = _BatchRecorder(FieldProbe(half_disc_solution))
    got = _bisect_to_skin([a for a, _ in segments], [b for _, b in segments], probe)
    assert [x.tobytes() for x in got] == [want.tobytes() for want, _ in wanted]
    assert len(probe.batches) == math.ceil(BISECT_STEPS / BISECT_LEVELS)
    for _, visited in wanted:
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


class _OutsideCounter:
    """A probe that counts the OUTSIDE answers of eval_psi_many."""

    def __init__(self, probe):
        self.probe = probe
        self.outside = 0

    def eval_psi_many(self, points):
        psis = self.probe.eval_psi_many(points)
        self.outside += sum(psi is OUTSIDE for psi in psis)
        return psis


def _check_lanes(make_probe, origins, guesses, radii):
    """refine_directions lane by lane against the one-lane loop, each on a fresh
    probe; returns the number of OUTSIDE answers the lanes met."""
    ref_probe = make_probe()
    want = [_outcome(_reference_refine_direction, o, g, ref_probe, r)
            for o, g, r in zip(origins, guesses, radii)]
    probe = _OutsideCounter(make_probe())
    assert _hexed(refine_directions(origins, guesses, probe, radii)) == want
    return probe.outside


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lockstep_refinement_matches_the_one_lane_loop(half_disc_solution, data):
    """Mixed guesses and probe distances on the half-disc field, some lanes aimed
    out through the skin, and on the analytic fields."""
    field = data.draw(st.sampled_from(["half_disc", "uniform", "circular"]))
    make_probe = {"half_disc": lambda: FieldProbe(half_disc_solution),
                  "uniform": lambda: UNIFORM, "circular": circular_probe}[field]
    origins, guesses, radii = [], [], []
    for _ in range(data.draw(st.integers(1, 6))):
        x = _half_disc_point(data, 0.0, 0.999)
        origins.append(x)
        if data.draw(st.booleans()):
            guesses.append(math.atan2(x[1], x[0]) + data.draw(st.floats(-0.3, 0.3)))
        else:
            guesses.append(data.draw(st.floats(-math.pi, math.pi)))
        radii.append(data.draw(st.sampled_from([0.01, 0.05, 0.2, 0.6])))
    _check_lanes(make_probe, origins, guesses, radii)


def test_lockstep_refinement_halves_at_the_skin(half_disc_solution):
    origins = [np.array([0.0, 0.99]), np.array([0.5, 0.01]), np.array([-0.3, 0.4])]
    guesses = [math.pi / 2, -math.pi / 2, 0.3]
    radii = [0.2, 0.6, 0.05]
    assert _check_lanes(lambda: FieldProbe(half_disc_solution), origins, guesses, radii) > 0


def _spin_inside_unit_circle(x, y):
    """Uniform, except inside the unit circle, where psi is the polar angle + pi/4:
    every refinement there jumps by pi/4 and never converges."""
    if math.hypot(x, y) < 1.0:
        a = 4.0 * (math.atan2(y, x) + math.pi / 4)
        return math.cos(a), math.sin(a)
    return 1.0, 0.0


class _Wedge:
    """The part of a CornerSpec that corner directions read."""

    def __init__(self, position, theta_out, delta_theta):
        self.position = np.array(position, dtype=float)
        self.theta_out = theta_out
        self.delta_theta = delta_theta

    def wedge_angles(self):
        return self.theta_out, self.theta_out + self.delta_theta


_EDGE = 10.0 - 1e-6       # the region is x < 10: a probe aimed at +x leaves at once
_NODES = {
    "ok": ((5.0, 5.0), 4, 0.05, 0.2),
    "collapse": ((5.0, -5.0), 5, 0.05, 0.0),         # base + 2 pi j / 5 meet on a branch
    "spin": ((0.0, 0.0), 3, 0.05, 0.0),              # base does not converge
    "leaves": ((_EDGE, 3.0), 3, 0.05, 0.0),          # base probe leaves six times
    "later_leaves": ((_EDGE, 5.0), 2, 0.05, math.pi),  # base converges, base + pi leaves
    "no_valence": ((5.0, 5.0), 0, 0.05, 0.0),
}
_CORNERS = {
    "ok": ((5.0, 0.0), 0.0, math.pi, 2),
    "rays": ((5.0, 0.0), 0.0, math.pi / 2, 3),       # both directions land on the rays
    "spin": ((0.0, 0.0), 0.0, math.pi, 2),
    "leaves": ((_EDGE, -3.0), -math.pi / 2, math.pi, 2),
    "collapse": ((5.0, -3.0), -math.pi, 2 * math.pi, 5),
    "valence_1": ((5.0, 0.0), 0.0, math.pi, 1),
}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(sorted(_NODES)), max_size=4),
       st.lists(st.sampled_from(sorted(_CORNERS)), max_size=3))
def test_launch_raises_what_one_direction_at_a_time_raises_first(node_names, corner_names):
    """Non-convergence, a probe that keeps leaving and branch collapse, at
    nodes and corners in any order: the error, or the directions, of refining
    them one at a time, nodes in order with the base first, then corners."""
    def make_probe():
        return AnalyticProbe(_spin_inside_unit_circle, region=lambda p: p[0] < 10.0)

    nodes = [(np.array(o), v, c, g) for o, v, c, g in (_NODES[n] for n in node_names)]
    corners = [CornerNode(corner=_Wedge(p, th, dth), corner_id=i, valence=v, radius=0.05)
               for i, (p, th, dth, v) in enumerate(_CORNERS[n] for n in corner_names)]
    assert _outcome(launch_directions, nodes, corners, make_probe()) == \
        _outcome(_reference_launch, nodes, corners, make_probe())
    for node in nodes:
        assert _outcome(initial_directions, node[0], node[1], make_probe(), *node[2:]) == \
            _outcome(_reference_initial_directions, node[0], node[1], make_probe(), *node[2:])
    for cn in corners:
        assert _outcome(tracer.corner_directions, cn, make_probe()) == \
            _outcome(_reference_corner_directions, cn, make_probe())


def test_nautilus_run_locates_in_few_batches(tmp_path, monkeypatch):
    """A full nautilus run makes fewer invert_map calls than it did with the
    one-step bisection (1,000).  Its 12 exiting fronts leave in 10 rounds, and
    each round bisects all of its exits in ceil(BISECT_STEPS / BISECT_LEVELS)
    batches, with at most one solve each: 150 batches, where cutting front by
    front made 180.  Refining the launch directions in lockstep takes at most
    40 eval_psi_many batches, where one direction at a time took 190."""
    counts = {"invert": 0, "contains": 0, "psi": 0}
    per_round = []
    launch_batches = []
    invert_map = TriMesh.invert_map
    contains_many = FieldProbe.contains_many
    eval_psi_many = FieldProbe.eval_psi_many
    cut = tracer._cut_to_boundary
    launch = tracer.launch_directions

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def counted_cut(fronts, *args):
        before = counts["contains"], counts["invert"]
        cut(fronts, *args)
        per_round.append((len(fronts), counts["contains"] - before[0],
                          counts["invert"] - before[1]))

    def counted_launch(*args):
        before = counts["psi"]
        result = launch(*args)
        launch_batches.append(counts["psi"] - before)
        return result

    monkeypatch.setattr(TriMesh, "invert_map", counted("invert", invert_map))
    monkeypatch.setattr(FieldProbe, "contains_many", counted("contains", contains_many))
    monkeypatch.setattr(FieldProbe, "eval_psi_many", counted("psi", eval_psi_many))
    monkeypatch.setattr(tracer, "_cut_to_boundary", counted_cut)
    monkeypatch.setattr(tracer, "launch_directions", counted_launch)
    argv = ["run", str(fixture_path("nautilus")), "--out", str(tmp_path), "--order", "3",
            "--target-h", "0.5", "--split", "2"]
    assert main(argv) == 0
    per_batch = math.ceil(BISECT_STEPS / BISECT_LEVELS)
    assert len(per_round) == 10
    assert sum(fronts for fronts, _, _ in per_round) == 12
    assert all(n == per_batch and solves <= per_batch for _, n, solves in per_round)
    assert sum(n for _, n, _ in per_round) == 150
    assert len(launch_batches) == 1 and launch_batches[0] <= 40
    assert counts["invert"] < 1000
