"""Lane audit: every point location of two full runs against the unfiltered solve.

TriMesh.invert_map drops the lanes whose element cannot reach the point
before Newton runs.  This audit records every invert_map call of full
half_disc and nautilus runs and solves each of its lanes again with the
unfiltered lockstep RefTriangle.invert_maps: a dropped lane must be a miss
there, and a kept one must give the same xi bytes.
"""

import numpy as np
import pytest

from quadfield.cli import main
from quadfield.geometry import fixture_path
from quadfield.trimesh import TriMesh


@pytest.mark.parametrize("fixture,flags", [
    ("half_disc", ["--target-h", "0.35", "--split", "4"]),
    ("nautilus", ["--target-h", "0.5", "--split", "2"]),
])
def test_every_lane_of_a_full_run_matches_the_unfiltered_solve(tmp_path, monkeypatch,
                                                               fixture, flags):
    calls = []
    invert_map = TriMesh.invert_map

    def recorded(self, elems, x):
        got = invert_map(self, elems, x)
        calls.append((self, np.array(elems, dtype=int), np.array(x, dtype=float), got))
        return got

    monkeypatch.setattr(TriMesh, "invert_map", recorded)
    argv = ["run", str(fixture_path(fixture)), "--out", str(tmp_path), "--order", "3"]
    assert main(argv + flags) == 0
    monkeypatch.undo()

    lanes = dropped = mismatches = 0
    for mesh, elems, x, got in calls:
        ref = mesh.ref.invert_maps(mesh.geom[elems], x, 1e-12 * mesh.bbox_diag, 50, 1e-8)
        reach = mesh.reachable(elems, x)
        lanes += len(elems)
        dropped += int((~reach).sum())
        mismatches += sum((a is None) != (b is None) or
                          (a is not None and a.tobytes() != b.tobytes())
                          for a, b in zip(got, ref))
    assert mismatches == 0
    # the audit covers many lanes, and the reach test drops most misses
    assert lanes > 1000
    assert dropped > lanes // 2
