"""The topological split against the coordinate merge it replaced, the
one-eval patch derivatives and the one-shoelace orientation check against
their loops, and the failure paths of the quad mesh checks."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import block_area
from quadfield import polyline
from quadfield.cli import main
from quadfield.errors import DecompositionError
from quadfield.geometry import fixture_path
from quadfield.quadblocks import (DIFF_STEP, QuadBlock, QuadMesh, blocks_from_json,
                                  child_quality, isoparametric_split, split_fractions)

RUNS = {"half_disc": ["--order", "3", "--target-h", "0.35"],
        "nautilus": ["--order", "3", "--target-h", "0.5"],
        "polygon_III": ["--order", "3", "--target-h", "0.35"]}


# ---- reference: the split that merged nodes on rounded coordinates -------------


class _NodeMerge:
    def __init__(self, scale):
        self.tol = 1e-9 * max(scale, 1.0)
        self.table = {}
        self.points = []

    def add(self, p):
        key = (round(p[0] / self.tol), round(p[1] / self.tol))
        if key in self.table:
            return self.table[key]
        nid = len(self.points)
        self.table[key] = nid
        self.points.append(np.asarray(p, dtype=float))
        return nid


def _merge_split(blocks, n=2, holes=0):
    """Split every block along parameter lines into an n x n conforming quad mesh."""
    fr = split_fractions(n)
    scale = max(max(np.abs(s.points).max() for s in b.sides) for b in blocks)
    merge = _NodeMerge(scale)
    quads = []
    block_of = []
    child_ij = []
    for b in blocks:
        grid = b.eval_grid(fr, fr)
        ids = np.array([[merge.add(grid[i, j]) for j in range(n + 1)]
                        for i in range(n + 1)])
        for i in range(n):
            for j in range(n):
                quads.append([ids[i, j], ids[i + 1, j], ids[i + 1, j + 1], ids[i, j + 1]])
                block_of.append(b.index)
                child_ij.append((i, j))
    mesh = QuadMesh(np.array(merge.points), np.array(quads, dtype=int),
                    np.array(block_of, dtype=int), child_ij)
    mesh.check_conforming()
    mesh.check_orientation()
    mesh.euler_check(holes=holes)
    return mesh


def _rescan_child_quality(blocks, mesh, samples=10):
    """Min scaled Jacobian per child and per parent over matching points."""
    spec_cache = {}
    child_min = {}
    parent_pts = {b.index: ([], []) for b in blocks}
    block_by_id = {b.index: b for b in blocks}
    for qi in range(len(mesh.quads)):
        bi = int(mesh.block_of[qi])
        b = block_by_id[bi]
        i, j = mesh.child_ij[qi]
        key = bi
        if key not in spec_cache:
            counts = {}
            for q2 in range(len(mesh.quads)):
                if int(mesh.block_of[q2]) == bi:
                    counts[mesh.child_ij[q2]] = True
            ns = 1 + max(ij[0] for ij in counts)
            nt = 1 + max(ij[1] for ij in counts)
            spec_cache[key] = (ns, nt)
        ns, nt = spec_cache[key]
        sv = (i + (np.arange(samples) + 0.5) / samples) / ns
        tv = (j + (np.arange(samples) + 0.5) / samples) / nt
        sj = b.scaled_jacobians(sv, tv)
        child_min[qi] = float(sj.min())
        parent_pts[bi][0].extend(sv)
        parent_pts[bi][1].extend(tv)
    parent_min = {}
    for bi, (svs, tvs) in parent_pts.items():
        b = block_by_id[bi]
        sj = b.scaled_jacobians(np.unique(np.array(svs)), np.unique(np.array(tvs)))
        parent_min[bi] = float(sj.min())
    return child_min, parent_min


@pytest.fixture(scope="module")
def fixture_blocks(tmp_path_factory):
    """The blocks of each fixture, read back from its blocks.json."""
    blocks = {}
    for name, flags in RUNS.items():
        out = tmp_path_factory.mktemp(name)
        assert main(["run", str(fixture_path(name)), "--out", str(out)] + flags) == 0
        blocks[name] = blocks_from_json(json.loads((out / "blocks.json").read_text()))
    return blocks


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", list(RUNS))
def test_topological_split_matches_the_coordinate_merge(fixture_blocks, name, n):
    blocks = fixture_blocks[name]
    got, want = isoparametric_split(blocks, n), _merge_split(blocks, n)
    assert got.nodes.shape == want.nodes.shape
    assert got.nodes.tobytes() == want.nodes.tobytes()
    assert np.array_equal(got.quads, want.quads)
    assert np.array_equal(got.block_of, want.block_of)
    assert got.child_ij == want.child_ij
    assert child_quality(blocks, got) == _rescan_child_quality(blocks, want)


# ---- reference: four evals per stencil, one shoelace per quad --------------------


def four_eval_derivatives(self, s, t):
    """Central differences (Q_s, Q_t), each (n, 2), at parameter arrays s, t."""
    qs = (self.eval(s + DIFF_STEP, t) - self.eval(s - DIFF_STEP, t)) / (2 * DIFF_STEP)
    qt = (self.eval(s, t + DIFF_STEP) - self.eval(s, t - DIFF_STEP)) / (2 * DIFF_STEP)
    return qs, qt


def one_signed_area(poly):
    """Shoelace area of the closed polygon through the points; > 0 if counterclockwise."""
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def loop_check_orientation(self):
    for qi, q in enumerate(self.quads):
        if one_signed_area(self.nodes[q]) <= 0:
            raise DecompositionError(f"quad {qi} is not counterclockwise")


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 40), st.integers(1, 30), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-3, 1.0, 1e3]))
def test_stacked_shoelace_gives_each_polygon_its_bytes(n, k, seed, scale):
    polys = np.random.default_rng(seed).normal(scale=scale, size=(k, n, 2))
    got = polyline.signed_area(polys)
    assert got.shape == (k,)
    assert got.tobytes() == np.array([one_signed_area(q) for q in polys]).tobytes()
    assert np.float64(polyline.signed_area(polys[0])).tobytes() == got[:1].tobytes()


def _jacobian_bytes(blocks, svals=None, tvals=None):
    return [b.scaled_jacobians(svals, tvals).tobytes() for b in blocks]


@pytest.mark.parametrize("name", list(RUNS))
def test_one_eval_derivatives_give_the_four_eval_bytes(fixture_blocks, name):
    """scaled_jacobians on every block, on the default grid, on the sample
    points of a 3 x 3 split and at the parameter square's corners (the
    clamped centres), and block_area."""
    blocks = fixture_blocks[name]
    grids = [(None, None), ((np.arange(30) + 0.5) / 30, (np.arange(10) + 0.5) / 10),
             (np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0]))]
    got = [_jacobian_bytes(blocks, *g) for g in grids] + [[block_area(b) for b in blocks]]
    with mock.patch.object(QuadBlock, "_derivatives", four_eval_derivatives):
        want = [_jacobian_bytes(blocks, *g) for g in grids] + [[block_area(b) for b in blocks]]
    assert got == want


def _orientation_error(check, mesh):
    try:
        check(mesh)
    except DecompositionError as ex:
        return str(ex)
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e3]),
       st.floats(0.0, 0.5))
def test_one_shoelace_refuses_the_quad_of_the_loop(nq, seed, scale, flip):
    """Random quads, some reversed, some collapsed to a segment or a point:
    the same first quad is refused with the same message, or none."""
    rng = np.random.default_rng(seed)
    centre = rng.normal(scale=scale, size=(nq, 1, 2))
    angle = np.sort(rng.uniform(0.0, 2 * np.pi, size=(nq, 4)), axis=1)
    nodes = (centre + scale * np.stack([np.cos(angle), np.sin(angle)], axis=-1)).reshape(-1, 2)
    quads = np.arange(4 * nq).reshape(nq, 4)
    reverse = rng.random(nq) < flip
    quads[reverse] = quads[reverse, ::-1]
    collapsed = rng.random(nq) < flip / 4
    quads[collapsed, 2:] = quads[collapsed, :2]
    mesh = _quad_mesh(nodes, quads)
    assert (_orientation_error(QuadMesh.check_orientation, mesh)
            == _orientation_error(loop_check_orientation, mesh))


@pytest.mark.parametrize("name", list(RUNS))
def test_one_shoelace_passes_every_fixture_split(fixture_blocks, name):
    for n in (1, 2, 5):
        mesh = isoparametric_split(fixture_blocks[name], n)
        assert _orientation_error(QuadMesh.check_orientation, mesh) is None
        mesh.nodes[mesh.quads[-1, 1]] = mesh.nodes[mesh.quads[-1, 0]]     # collapse a side
        mesh.nodes[mesh.quads[-1, 2]] = mesh.nodes[mesh.quads[-1, 0]]
        error = _orientation_error(QuadMesh.check_orientation, mesh)
        assert error is not None and error == _orientation_error(loop_check_orientation, mesh)


# ---- the quad mesh checks --------------------------------------------------------


def _quad_mesh(nodes, quads):
    quads = np.array(quads, dtype=int)
    return QuadMesh(np.array(nodes, dtype=float), quads, np.zeros(len(quads), dtype=int),
                    [(0, 0)] * len(quads))


def test_edge_table_counts_a_shared_side_once():
    mesh = _quad_mesh([(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1)],
                      [[0, 1, 2, 3], [1, 4, 5, 2]])
    edges, counts = mesh.edges
    assert mesh.edge_count() == 7
    assert edges[counts == 2].tolist() == [[1, 2]]
    mesh.check_conforming()
    mesh.check_orientation()
    mesh.euler_check()


def test_edge_of_three_quads_is_not_conforming():
    mesh = _quad_mesh([(0, 0), (1, 0), (1, 1), (0, 1), (1, -1), (0, -1), (2, 0), (2, 1)],
                      [[0, 1, 2, 3], [1, 0, 5, 4], [0, 1, 6, 7]])
    with pytest.raises(DecompositionError, match=r"edge \(0, 1\) shared by 3 quads"):
        mesh.check_conforming()


def test_clockwise_quad_is_refused():
    mesh = _quad_mesh([(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1)],
                      [[0, 1, 2, 3], [1, 2, 5, 4]])
    with pytest.raises(DecompositionError, match="quad 1 is not counterclockwise"):
        mesh.check_orientation()


def test_euler_check_counts_holes():
    # two quads apart: one component too many for a disc
    apart = _quad_mesh([(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (3, 0), (3, 1), (2, 1)],
                       [[0, 1, 2, 3], [4, 5, 6, 7]])
    with pytest.raises(DecompositionError, match=r"V-E\+F = 2 != 1"):
        apart.euler_check()
    # a ring of four quads around a square hole
    ring = _quad_mesh([(0, 0), (3, 0), (3, 3), (0, 3), (1, 1), (2, 1), (2, 2), (1, 2)],
                      [[0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]])
    ring.check_conforming()
    ring.check_orientation()
    ring.euler_check(holes=1)
    with pytest.raises(DecompositionError, match=r"V-E\+F = 0 != 1"):
        ring.euler_check()
