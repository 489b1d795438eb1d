"""Workload definitions and the seed's input generator.

A workload names shipped fixtures and the CLI commands one operation runs on
each of them.  The pipeline is deterministic, so the seed does not perturb
the program; it picks a rigid translation of every domain instead, with
seed 0 giving the shipped fixture unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# Exactly representable offsets.  At the seed commit each of them leaves the
# mesh connectivity, the critical points, the valences and the block count of
# every workload unchanged (see NOTES.md).
OFFSETS = ((0.0, 0.0), (0.5, -0.25), (-0.75, 1.0), (1.25, 0.5))


@dataclass(frozen=True)
class Workload:
    name: str
    domains: tuple          # fixture names, run in this order every round
    commands: tuple         # CLI commands one operation runs per domain
    flags: tuple            # CLI flags shared by every command
    order: int              # polynomial order, built during set-up

    @property
    def full_run(self):
        return self.commands == ("run",)


WORKLOADS = {
    "half_disc": Workload(
        "half_disc", ("half_disc",), ("run",),
        ("--order", "3", "--target-h", "0.35", "--split", "4",
         "--formats", "svg,vtk"), 3),
    "nautilus": Workload(
        "nautilus", ("nautilus",), ("run",),
        ("--order", "3", "--target-h", "0.5", "--split", "2"), 3),
    "fine_mesh_solve": Workload(
        "fine_mesh_solve", ("polygon_III", "geometry_I"), ("mesh", "solve"),
        ("--order", "4", "--target-h", "0.12"), 4),
}


def offset_index(seed):
    return seed % len(OFFSETS)


def translate(doc, dx, dy):
    """Copy of a domain document moved by (dx, dy)."""
    doc = json.loads(json.dumps(doc))
    for loop in doc["loops"]:
        for seg in loop["segments"]:
            for key in ("p0", "p1", "center", "origin"):
                if key in seg:
                    seg[key] = [seg[key][0] + dx, seg[key][1] + dy]
            if "points" in seg:
                seg["points"] = [[x + dx, y + dy] for x, y in seg["points"]]
    return doc


def write_inputs(root, workload, seed, work_dir):
    """Write the seed's domain files into work_dir; {fixture name: path}."""
    dx, dy = OFFSETS[offset_index(seed)]
    fixtures = Path(root) / "src" / "quadfield" / "fixtures"
    paths = {}
    for name in workload.domains:
        doc = json.loads((fixtures / f"{name}.json").read_text())
        path = Path(work_dir) / f"{name}.json"
        path.write_text(json.dumps(translate(doc, dx, dy), indent=1, sort_keys=True))
        paths[name] = str(path)
    return paths


def op_argvs(workload, domain_path, out_dir):
    """The quadfield CLI argument lists of one operation on one domain."""
    return [[cmd, str(domain_path), "--out", str(out_dir), *workload.flags]
            for cmd in workload.commands]
