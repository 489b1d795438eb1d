"""Point-location microbenchmark: the cost of one FieldProbe location call, by layer.

    PYTHONPATH=src OMP_NUM_THREADS=1 python tools/locate_micro.py <fixture> [run flags]

Runs `quadfield run` on a shipped fixture in process (the flags are the CLI's,
for example --order 3 --target-h 0.35 --split 4), captures the points of every
FieldProbe location call it makes, then replays the calls 30 times and prints,
per call, the median over the replays of the time spent in:

- reach: the reach mask and the lane pairs it keeps (TriMesh.reachable, the
  finiteness test, np.nonzero);
- newton: TriMesh.invert_map on those lanes, kernel tables included;
- tables: the DubinerKernel.table calls that Newton makes, replayed alone on
  the points they were given;
- eval: eval_v_many's product of the located basis rows with the element
  coefficients.

A first, untimed pass records the kernel tables' points and builds the
mesh's cached properties.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time

import numpy as np

from quadfield.cli import main
from quadfield.field import OUTSIDE, FieldProbe
from quadfield.geometry import fixture_path
from quadfield.reftri import DubinerKernel

REPLAYS = 30


def capture(fixture, flags):
    """(probe, points) of every location call of one run."""
    calls = []
    locations = FieldProbe._locations

    def recorded(self, points):
        calls.append((self, np.array(points, dtype=float).reshape(-1, 2)))
        return locations(self, points)

    FieldProbe._locations = recorded
    try:
        with tempfile.TemporaryDirectory() as out:
            code = main(["run", str(fixture_path(fixture)), "--out", out, *flags])
    finally:
        FieldProbe._locations = locations
    if code:
        sys.exit(f"quadfield run exited {code}")
    return calls


def newton_tables(calls):
    """(kernel, points) of every kernel table that Newton builds over the calls."""
    tables = []
    table = DubinerKernel.table

    def recorded(self, xi):
        tables.append((self, np.array(xi)))
        return table(self, xi)

    DubinerKernel.table = recorded
    try:
        for probe, pts in calls:
            probe._locations(pts)
    finally:
        DubinerKernel.table = table
    return tables


def replay(calls):
    """Seconds spent in (reach, newton, eval) over one replay of every call."""
    spent = np.zeros(3)
    for probe, pts in calls:
        mesh = probe.mesh
        t0 = time.perf_counter()
        mask = mesh.reachable(pts) & np.isfinite(pts).all(axis=1)[:, None]
        point, elem = np.nonzero(mask)
        t1 = time.perf_counter()
        mesh.invert_map(elem, pts[point])
        t2 = time.perf_counter()
        locs = probe._locations(pts)
        t3 = time.perf_counter()
        found = [i for i, loc in enumerate(locs) if loc is not OUTSIDE]
        if found:
            basis = np.array([locs[i][2] for i in found])
            coeffs = probe.solution.coeffs[[locs[i][0] for i in found]]
            (basis[:, None, :] @ coeffs)[:, 0]
        spent += (t1 - t0, t2 - t1, time.perf_counter() - t3)
    return spent


def time_tables(tables):
    t0 = time.perf_counter()
    for kernel, xi in tables:
        kernel.table(xi)
    return time.perf_counter() - t0


def run(fixture, flags):
    calls = capture(fixture, flags)
    tables = newton_tables(calls)             # builds the cached properties
    layers = {"reach": [], "newton": [], "tables": [], "eval": []}
    for _ in range(REPLAYS):
        reach, newton, evaluation = replay(calls)
        layers["reach"].append(reach)
        layers["newton"].append(newton)
        layers["eval"].append(evaluation)
        layers["tables"].append(time_tables(tables))
    lanes = sum(int((probe.mesh.reachable(pts) & np.isfinite(pts).all(axis=1)[:, None]).sum())
                for probe, pts in calls)
    print(f"{fixture} {' '.join(flags)}: {len(calls)} location calls, "
          f"{sum(len(p) for _, p in calls)} points, {lanes} Newton lanes, "
          f"{len(tables)} kernel tables; median of {REPLAYS} replays")
    for name, seconds in layers.items():
        total = statistics.median(seconds)
        print(f"  {name:7s} {1e6 * total / len(calls):8.1f} us per call "
              f"({1e3 * total:.2f} ms in all)")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    run(sys.argv[1], sys.argv[2:])
