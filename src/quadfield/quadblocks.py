"""Curved quad blocks (transfinite maps over four sides) and their splitting.

Each subdivision face becomes a Coons patch over its four arclength
parametrized sides.  Isoparametric splitting samples the same patch along
parameter lines, so children inherit the parent quality pointwise; neighboring
blocks share the nodes of a common corner or side through the cut's vertex
keys and side records.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import polyline
from .errors import DecompositionError
from .geometry import as_points, typed

# Central-difference step of the patch derivatives, in parameter units.
DIFF_STEP = 1e-6
# Sample points per parameter direction of a scaled-Jacobian grid.
SJ_SAMPLES = 10


class SidePath:
    """Arclength-normalized evaluator over a dense polyline."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        cum = polyline.cumlen(self.points)
        self.length = float(cum[-1])
        self._s = cum / cum[-1] if cum[-1] > 0 else np.linspace(0, 1, len(cum))

    def __call__(self, fracs):
        fracs = np.atleast_1d(np.asarray(fracs, dtype=float))
        return polyline.sample(self.points, self._s, fracs)


@dataclass
class QuadBlock:
    index: int
    corner_keys: list          # 4 vertex keys, CCW
    sides: list                # 4 SidePath, side i runs corner i -> corner i+1
    side_records: list         # (record index, +1/-1 direction) per side

    def eval(self, s, t):
        """Coons patch point(s) at parameters s, t in [0, 1]."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        bottom, right, top, left = self.sides
        c0 = bottom.points[0]
        c1 = right.points[0]
        c2 = top.points[0]
        c3 = left.points[0]
        b = bottom(s)
        tp = top(1.0 - s)
        lf = left(1.0 - t)
        rg = right(t)
        st = s[:, None]
        tt = t[:, None]
        out = ((1 - tt) * b + tt * tp + (1 - st) * lf + st * rg
               - ((1 - st) * (1 - tt) * c0 + st * (1 - tt) * c1
                  + st * tt * c2 + (1 - st) * tt * c3))
        return out

    def eval_grid(self, svals, tvals):
        """Grid of points: shape (len(svals), len(tvals), 2)."""
        S, T = np.meshgrid(svals, tvals, indexing="ij")
        return self.eval(S.ravel(), T.ravel()).reshape(S.shape + (2,))

    def _derivatives(self, s, t):
        """Central differences (Q_s, Q_t), each (n, 2), at parameter arrays s, t.

        The four stencil points of every centre go through one eval; each
        point's value does not depend on the others of the batch.
        """
        q = self.eval(np.concatenate([s + DIFF_STEP, s - DIFF_STEP, s, s]),
                      np.concatenate([t, t, t + DIFF_STEP, t - DIFF_STEP])).reshape(4, -1, 2)
        return (q[0] - q[1]) / (2 * DIFF_STEP), (q[2] - q[3]) / (2 * DIFF_STEP)

    def scaled_jacobians(self, svals=None, tvals=None):
        """det J / (|Q_s||Q_t|) on a sample grid (default SJ_SAMPLES^2 interior)."""
        if svals is None:
            svals = (np.arange(SJ_SAMPLES) + 0.5) / SJ_SAMPLES
        if tvals is None:
            tvals = (np.arange(SJ_SAMPLES) + 0.5) / SJ_SAMPLES
        S, T = np.meshgrid(svals, tvals, indexing="ij")
        # differences stay inside [0, 1]: clamp the centres DIFF_STEP from the edges
        qs, qt = self._derivatives(np.clip(S.ravel(), DIFF_STEP, 1 - DIFF_STEP),
                                   np.clip(T.ravel(), DIFF_STEP, 1 - DIFF_STEP))
        det = qs[:, 0] * qt[:, 1] - qs[:, 1] * qt[:, 0]
        denom = np.hypot(qs[:, 0], qs[:, 1]) * np.hypot(qt[:, 0], qt[:, 1])
        out = np.divide(det, denom, out=np.zeros_like(det), where=denom > 0)
        return out.reshape(S.shape)


def build_blocks(sub, faces=None):
    """QuadBlocks from the all-quad subdivision faces."""
    if faces is None:
        faces = sub.bounded_faces
    blocks = []
    for bi, face in enumerate(faces):
        sides = sub.face_sides(face)
        if len(sides) != 4:
            raise DecompositionError(
                f"face {bi} has {len(sides)} sides; expected a quad")
        paths = []
        srecs = []
        keys = []
        for skey, hes in sides:
            if len(hes) != 1:
                raise DecompositionError(f"face {bi} side spans multiple edges")
            keys.append(skey)
            paths.append(SidePath(sub.side_polyline(hes)))
            he = hes[0]
            srecs.append((he // 2, 1 if he % 2 == 0 else -1))
        block = QuadBlock(bi, keys, paths, srecs)
        sj = block.scaled_jacobians()
        if sj.min() <= 0:
            raise DecompositionError(
                f"block {bi} has nonpositive scaled Jacobian {sj.min():.3e}")
        blocks.append(block)
    return blocks


def blocks_to_json(blocks):
    return {"blocks": [{
        "corners": [list(k) for k in b.corner_keys],
        "sides": [s.points.tolist() for s in b.sides],
        "side_records": [[int(r), int(d)] for (r, d) in b.side_records],
    } for b in blocks]}


def blocks_from_json(doc):
    """QuadBlocks of a blocks.json document.

    The split shares nodes through the corner keys and side records, so a
    record named by two sides must be named once each way, by sides that are
    exact reverses between the same two corners.
    """
    blocks = []
    named = {}                  # side record -> (block, side) of each side naming it
    for bi, rec in enumerate(doc["blocks"]):
        sides = [SidePath(as_points(p, "side", polyline=True)) for p in rec["sides"]]
        keys = [_pair(k, "corner key", ((str,), (int, str))) for k in rec["corners"]]
        srecs = [_pair(sr, "side record", ((int,), (int,))) for sr in rec["side_records"]]
        if not len(sides) == len(keys) == len(srecs) == 4:
            raise ValueError(f"block {bi} is not a quadrilateral")
        if any(d not in (1, -1) for _, d in srecs):
            raise ValueError(f"block {bi} has a side direction other than 1 or -1")
        block = QuadBlock(bi, keys, sides, srecs)
        blocks.append(block)
        for k, (r, _) in enumerate(srecs):
            named.setdefault(r, []).append((block, k))
    if not blocks:
        raise ValueError("no blocks")
    for r, uses in named.items():
        if len(uses) > 2:
            raise ValueError(f"side record {r} is named by {len(uses)} sides")
        if len(uses) == 2:
            (a, ka), (b, kb) = uses
            if a.side_records[ka][1] == b.side_records[kb][1]:
                raise ValueError(f"side record {r} is named twice in one direction")
            if not np.array_equal(a.sides[ka].points, b.sides[kb].points[::-1]):
                raise ValueError(f"the two sides of record {r} are not reverses")
            if (a.corner_keys[ka], a.corner_keys[(ka + 1) % 4]) != \
                    (b.corner_keys[(kb + 1) % 4], b.corner_keys[kb]):
                raise ValueError(f"the two sides of record {r} end at other corners")
    return blocks


def _pair(value, what, kinds):
    """A two-item list whose items are of kinds, as a tuple."""
    if len(typed(value, (list,), what)) != 2:
        raise ValueError(f"{what} must have two items, not {value!r}")
    return tuple(typed(v, k, what) for v, k in zip(value, kinds))


# ---- splitting -----------------------------------------------------------------


def split_fractions(n):
    """n+1 uniform fractions in [0, 1]."""
    if n < 1:
        raise DecompositionError("split count must be >= 1")
    return np.linspace(0.0, 1.0, n + 1)


@dataclass
class QuadMesh:
    nodes: np.ndarray           # (nn, 2)
    quads: np.ndarray           # (nq, 4) CCW corner node ids
    block_of: np.ndarray        # (nq,)
    child_ij: list              # (i, j) per quad within its block
    ho_nodes: list = None       # unused; kept for five-field callers

    def n_nodes(self):
        return len(self.nodes)

    @functools.cached_property
    def edges(self):
        """(edges, counts): each quad side once as a sorted node pair, and its uses."""
        sides = np.stack([self.quads, np.roll(self.quads, -1, axis=1)], axis=-1)
        return np.unique(np.sort(sides.reshape(-1, 2), axis=1), axis=0,
                         return_counts=True)

    def edge_count(self):
        return len(self.edges[0])

    def check_conforming(self):
        edges, counts = self.edges
        over = np.flatnonzero(counts > 2)
        if len(over):
            a, b = edges[over[0]].tolist()
            raise DecompositionError(f"edge ({a}, {b}) shared by {counts[over[0]]} quads")

    def check_orientation(self):
        """Refuse the first quad whose shoelace area is not > 0, all quads in one pass."""
        bad = np.flatnonzero(polyline.signed_area(self.nodes[self.quads]) <= 0)
        if len(bad):
            raise DecompositionError(f"quad {bad[0]} is not counterclockwise")

    def euler_check(self, holes=0):
        v = self.n_nodes()
        e = self.edge_count()
        f = len(self.quads)
        if v - e + f != 1 - holes:
            raise DecompositionError(
                f"quad mesh Euler check failed: V-E+F = {v - e + f} != {1 - holes}")


def _node_key(block, i, j, n):
    """The key of grid node (i, j) of block's n x n split, shared with its neighbours.

    A block corner is its vertex key and a node inside side k is the side's
    record with the node's position counted from the record's v0; any other
    node belongs to the block alone.
    """
    corner = {(0, 0): 0, (n, 0): 1, (n, n): 2, (0, n): 3}.get((i, j))
    if corner is not None:
        return "vertex", block.corner_keys[corner]
    # side k runs from corner k; pos counts its nodes from there
    for k, pos, on_side in ((0, i, j == 0), (1, j, i == n), (2, n - i, j == n),
                            (3, n - j, i == 0)):
        if on_side:
            rec, direction = block.side_records[k]
            return "side", rec, pos if direction > 0 else n - pos
    return "inner", block.index, i, j


def isoparametric_split(blocks, n=2, holes=0):
    """Split every block along parameter lines into an n x n conforming quad mesh.

    Nodes are numbered in first-appearance order of their keys (_node_key);
    a node takes its coordinates from the first block that holds it.
    """
    fr = split_fractions(n)
    node_ids = {}
    nodes = []
    quads = []
    block_of = []
    child_ij = []
    for b in blocks:
        grid = b.eval_grid(fr, fr)
        ids = np.empty((n + 1, n + 1), dtype=int)
        for i in range(n + 1):
            for j in range(n + 1):
                ids[i, j] = node_ids.setdefault(_node_key(b, i, j, n), len(node_ids))
                if ids[i, j] == len(nodes):
                    nodes.append(grid[i, j])
        for i in range(n):
            for j in range(n):
                quads.append([ids[i, j], ids[i + 1, j], ids[i + 1, j + 1], ids[i, j + 1]])
                block_of.append(b.index)
                child_ij.append((i, j))
    mesh = QuadMesh(np.array(nodes), np.array(quads, dtype=int),
                    np.array(block_of, dtype=int), child_ij)
    mesh.check_conforming()
    mesh.check_orientation()
    mesh.euler_check(holes=holes)
    return mesh


def child_quality(blocks, mesh):
    """Min scaled Jacobian per child and per parent over matching points."""
    children = {}
    for qi, bi in enumerate(mesh.block_of.tolist()):
        children.setdefault(bi, []).append(qi)
    offsets = (np.arange(SJ_SAMPLES) + 0.5) / SJ_SAMPLES
    child_min = {}
    parent_min = {}
    for b in blocks:
        qis = children[b.index]
        ns = 1 + max(mesh.child_ij[qi][0] for qi in qis)
        nt = 1 + max(mesh.child_ij[qi][1] for qi in qis)
        svs, tvs = [], []
        for qi in qis:
            i, j = mesh.child_ij[qi]
            sv = (i + offsets) / ns
            tv = (j + offsets) / nt
            child_min[qi] = float(b.scaled_jacobians(sv, tv).min())
            svs.extend(sv)
            tvs.extend(tv)
        parent_min[b.index] = float(b.scaled_jacobians(np.unique(svs),
                                                       np.unique(tvs)).min())
    return child_min, parent_min
