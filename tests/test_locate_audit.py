"""Location audit: every point location of two full runs against the unfiltered solve.

FieldProbe sends to Newton only the (point, element) pairs that pass the
mesh's reach mask.  This audit records every batch of points of full
half_disc and nautilus runs and solves every (point, element) pair again
with the unfiltered lockstep RefTriangle.invert_maps: a pair the mask
rejects must be a miss there, a kept one must give the same xi bytes, and
each answer must be the point's first unfiltered hit in element-id order.
Each answer's basis row must be the one-point basis_rows row at its xi, and
eval_v_many must give FieldSolution.eval there, to the byte.
"""

import numpy as np
import pytest

from quadfield.cli import main
from quadfield.field import OUTSIDE, FieldProbe
from quadfield.geometry import fixture_path
from quadfield.trimesh import TriMesh
from reference.solver import solution_eval


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
    locations = FieldProbe._locations
    invert_map = TriMesh.invert_map

    def recorded_invert(self, elems, x):
        got = invert_map(self, elems, x)
        lanes.append((np.array(elems, dtype=int), np.array(x, dtype=float), got[0]))
        return got

    def recorded_locations(self, points):
        del lanes[:]
        got = locations(self, points)
        batches.append((self, np.asarray(points, dtype=float).reshape(-1, 2), got,
                        list(lanes)))
        return got

    monkeypatch.setattr(TriMesh, "invert_map", recorded_invert)
    monkeypatch.setattr(FieldProbe, "_locations", recorded_locations)
    argv = ["run", str(fixture_path(fixture)), "--out", str(tmp_path), "--order", "3"]
    assert main(argv + flags) == 0
    monkeypatch.undo()

    pairs = rejected = mismatches = 0
    located = 0
    for probe, pts, answers, calls in batches:
        if not len(pts):
            continue
        mesh = probe.mesh
        ne = mesh.n_elements()
        point, elem = np.divmod(np.arange(len(pts) * ne), ne)
        ref, _ = mesh.ref.invert_maps(mesh.geom[elem], pts[point], 1e-12 * mesh.bbox_diag,
                                      50, 1e-8)
        mask = mesh.reachable(pts).ravel()
        pairs += len(ref)
        rejected += int((~mask).sum())
        # 1. every pair the mask rejects is a miss
        mismatches += sum(ref[k] is not None for k in np.flatnonzero(~mask))
        # 2. the probe solved exactly the kept pairs of its finite points,
        # point-major, to the same bytes
        kept = [(i, e) for i, e in zip(point, elem)
                if mask[i * ne + e] and np.isfinite(pts[i]).all()]
        solved = [(int(e), y, xi) for elems, x, got in calls for e, y, xi in zip(elems, x, got)]
        mismatches += len(solved) != len(kept)
        mismatches += sum(e != k or y.tobytes() != pts[i].tobytes() or
                          _bytes(xi) != _bytes(ref[i * ne + k])
                          for (e, y, xi), (i, k) in zip(solved, kept))
        # 3. each answer is the first unfiltered hit in element-id order
        for i, loc in enumerate(answers):
            hits = [e for e in range(ne) if ref[i * ne + e] is not None]
            if not hits:
                mismatches += loc is not OUTSIDE
            else:
                mismatches += loc is OUTSIDE or loc[0] != hits[0] or \
                    loc[1].tobytes() != ref[i * ne + hits[0]].tobytes()
        # 5. each answer's basis row is the one-point row at its xi, and
        # eval_v_many gives solution_eval there
        found = [(p, loc) for p, loc in zip(pts, answers) if loc is not OUTSIDE]
        located += len(found)
        mismatches += sum(row.tobytes() != mesh.ref.basis_rows(xi[None])[0][0].tobytes()
                          for _, (e, xi, row) in found)
        evals = probe.eval_v_many([p for p, _ in found])
        mismatches += sum(uv.tobytes() != solution_eval(probe.solution, e, xi)[0].tobytes()
                          for uv, (_, (e, xi, _)) in zip(evals, found))
    assert mismatches == 0
    # 4. the audit covers many pairs, and the reach mask rejects most of them
    assert pairs > 1000
    assert rejected > pairs // 2
    assert located > 100
