"""Curved quad blocks (transfinite maps over four sides) and their splitting.

Each subdivision face becomes a Coons patch over its four arclength
parametrized sides.  Isoparametric splitting samples the same patch along
parameter lines, so children inherit the parent quality pointwise and shared
sides induce identical node sequences in neighboring blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polyline
from .errors import DecompositionError
from .geometry import as_points


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

    def reversed(self):
        return SidePath(self.points[::-1])


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

    def _derivatives(self, s, t, delta):
        """Central differences (Q_s, Q_t), each (n, 2), at parameter arrays s, t."""
        qs = (self.eval(s + delta, t) - self.eval(s - delta, t)) / (2 * delta)
        qt = (self.eval(s, t + delta) - self.eval(s, t - delta)) / (2 * delta)
        return qs, qt

    def scaled_jacobians(self, svals=None, tvals=None, delta=1e-6):
        """det J / (|Q_s||Q_t|) on a sample grid (default 10x10 interior)."""
        if svals is None:
            svals = (np.arange(10) + 0.5) / 10.0
        if tvals is None:
            tvals = (np.arange(10) + 0.5) / 10.0
        S, T = np.meshgrid(svals, tvals, indexing="ij")
        # differences stay inside [0, 1]: clamp the centres delta from the edges
        qs, qt = self._derivatives(np.clip(S.ravel(), delta, 1 - delta),
                                   np.clip(T.ravel(), delta, 1 - delta), delta)
        det = qs[:, 0] * qt[:, 1] - qs[:, 1] * qt[:, 0]
        denom = np.hypot(qs[:, 0], qs[:, 1]) * np.hypot(qt[:, 0], qt[:, 1])
        out = np.divide(det, denom, out=np.zeros_like(det), where=denom > 0)
        return out.reshape(S.shape)

    def area(self, n=24):
        """2x2 Gauss per cell on an n x n grid of the parameter square."""
        g = 0.5 / math.sqrt(3.0)
        u = ((np.arange(n)[:, None] + [0.5 - g, 0.5 + g]) / n).ravel()
        S, T = np.meshgrid(u, u, indexing="ij")
        qs, qt = self._derivatives(S.ravel(), T.ravel(), 1e-6)
        return float(np.sum((qs[:, 0] * qt[:, 1] - qs[:, 1] * qt[:, 0]) / (4 * n * n)))


def build_blocks(sub, faces=None):
    """QuadBlocks from the all-quad subdivision faces."""
    from .blockdecomp import _face_sides, _side_polyline

    if faces is None:
        faces = sub.bounded_faces
    blocks = []
    for bi, face in enumerate(faces):
        sides = _face_sides(sub, face)
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
            paths.append(SidePath(_side_polyline(sub, hes)))
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
    """QuadBlocks of a blocks.json document."""
    blocks = []
    for bi, rec in enumerate(doc["blocks"]):
        sides = [SidePath(as_points(p, "side", polyline=True)) for p in rec["sides"]]
        keys = [tuple(k) for k in rec["corners"]]
        srecs = [tuple(sr) for sr in rec["side_records"]]
        if not len(sides) == len(keys) == len(srecs) == 4:
            raise ValueError(f"block {bi} is not a quadrilateral")
        blocks.append(QuadBlock(bi, keys, sides, srecs))
    return blocks


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

    def edge_count(self):
        edges = set()
        for q in self.quads:
            for k in range(4):
                a, b = int(q[k]), int(q[(k + 1) % 4])
                edges.add((min(a, b), max(a, b)))
        return len(edges)

    def check_conforming(self):
        use = {}
        for qi, q in enumerate(self.quads):
            for k in range(4):
                a, b = int(q[k]), int(q[(k + 1) % 4])
                use.setdefault((min(a, b), max(a, b)), []).append(qi)
        for e, qs in use.items():
            if len(qs) > 2:
                raise DecompositionError(f"edge {e} shared by {len(qs)} quads")
        return use

    def check_orientation(self):
        for qi, q in enumerate(self.quads):
            if polyline.signed_area(self.nodes[q]) <= 0:
                raise DecompositionError(f"quad {qi} is not counterclockwise")

    def euler_check(self, holes=0):
        v = self.n_nodes()
        e = self.edge_count()
        f = len(self.quads)
        if v - e + f != 1 - holes:
            raise DecompositionError(
                f"quad mesh Euler check failed: V-E+F = {v - e + f} != {1 - holes}")


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


def isoparametric_split(blocks, n=2, holes=0):
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


def child_quality(blocks, mesh, samples=10):
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
