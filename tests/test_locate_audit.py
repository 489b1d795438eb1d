"""Location audit: every point location of two full runs against the unfiltered solve.

FieldProbe.locate_many sends to Newton only the (point, element) pairs that
pass the mesh's reach mask.  This audit records every locate_many batch of
full half_disc and nautilus runs and solves every (fresh point, element)
pair again with the unfiltered lockstep RefTriangle.invert_maps: a pair the
mask rejects must be a miss there, a kept one must give the same xi bytes,
and each answer must be the point's first unfiltered hit in element-id order.
"""

import numpy as np
import pytest

from quadfield.cli import main
from quadfield.field import OUTSIDE, FieldProbe
from quadfield.geometry import fixture_path
from quadfield.trimesh import TriMesh


def _bytes(xi):
    return None if xi is None else xi.tobytes()


@pytest.mark.parametrize("fixture,flags", [
    ("half_disc", ["--target-h", "0.35", "--split", "4"]),
    ("nautilus", ["--target-h", "0.5", "--split", "2"]),
])
def test_every_lane_of_a_full_run_matches_the_unfiltered_solve(tmp_path, monkeypatch,
                                                               fixture, flags):
    batches = []
    lanes = []
    locate_many = FieldProbe.locate_many
    invert_map = TriMesh.invert_map

    def recorded_invert(self, elems, x):
        got = invert_map(self, elems, x)
        lanes.append((np.array(elems, dtype=int), np.array(x, dtype=float), got))
        return got

    def recorded_locate(self, points):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        fresh = {p.tobytes(): p for p in pts if p.tobytes() not in self._located}
        del lanes[:]
        got = locate_many(self, points)
        answers = dict(zip((p.tobytes() for p in pts), got))
        batches.append((self.mesh, np.array(list(fresh.values())).reshape(-1, 2),
                        [answers[key] for key in fresh], list(lanes)))
        return got

    monkeypatch.setattr(TriMesh, "invert_map", recorded_invert)
    monkeypatch.setattr(FieldProbe, "locate_many", recorded_locate)
    argv = ["run", str(fixture_path(fixture)), "--out", str(tmp_path), "--order", "3"]
    assert main(argv + flags) == 0
    monkeypatch.undo()

    pairs = rejected = mismatches = 0
    for mesh, pts, answers, calls in batches:
        if not len(pts):
            continue
        ne = mesh.n_elements()
        point, elem = np.divmod(np.arange(len(pts) * ne), ne)
        ref = mesh.ref.invert_maps(mesh.geom[elem], pts[point], 1e-12 * mesh.bbox_diag,
                                   50, 1e-8)
        mask = mesh.reachable(pts).ravel()
        pairs += len(ref)
        rejected += int((~mask).sum())
        # 1. every pair the mask rejects is a miss
        mismatches += sum(ref[k] is not None for k in np.flatnonzero(~mask))
        # 2. the probe solved exactly the kept pairs of its finite points, to the same bytes
        index = {p.tobytes(): i for i, p in enumerate(pts)}
        kept = {(i, e) for i, e in zip(point, elem)
                if mask[i * ne + e] and np.isfinite(pts[i]).all()}
        solved = {}
        for elems, x, got in calls:
            for e, y, xi in zip(elems, x, got):
                solved[index[y.tobytes()], int(e)] = xi
        mismatches += set(solved) != kept
        mismatches += sum(_bytes(xi) != _bytes(ref[i * ne + e])
                          for (i, e), xi in solved.items())
        # 3. each answer is the first unfiltered hit in element-id order
        for i, loc in enumerate(answers):
            hits = [e for e in range(ne) if ref[i * ne + e] is not None]
            if not hits:
                mismatches += loc is not OUTSIDE
            else:
                mismatches += loc is OUTSIDE or loc[0] != hits[0] or \
                    loc[1].tobytes() != ref[i * ne + hits[0]].tobytes()
    assert mismatches == 0
    # 4. the audit covers many pairs, and the reach mask rejects most of them
    assert pairs > 1000
    assert rejected > pairs // 2
