"""The benchmark wraps quadfield names listed in perfbench/spans.py and calls
program names from perfbench/check.py.

A name that disappears from the program makes ``perfbench/run.py`` fail, so
every traced target must still resolve and every check must still run on
fresh artifacts.  Both files are executed from their source text: nothing is
imported from perfbench/ and no bytecode is written there.
"""

import importlib

import numpy as np

from conftest import load_perfbench
from quadfield.cli import main
from quadfield.geometry import fixture_path


def test_every_traced_target_resolves():
    targets = load_perfbench("spans").TARGETS
    assert targets
    missing = []
    for module, qualname, _pre, _post in targets:
        owner = importlib.import_module(module)
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = vars(owner).get(part)
            if owner is None:
                break
        # the tracer patches vars(owner)[attr], so an inherited name does not count
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{module}.{qualname}")
    assert missing == []


def test_artifact_checks_run_on_fresh_output(tmp_path):
    check = load_perfbench("check")
    out = tmp_path / "half_disc"
    argv = ["run", str(fixture_path("half_disc")), "--out", str(out),
            "--order", "3", "--target-h", "0.35", "--split", "2"]
    assert main(argv) == 0

    sol = check.load_solution(out)
    sj = check._triangle_scaled_jacobians(sol.mesh)
    assert sj.size and sj.min() > 0
    values = check.sample_field(sol, check.probe_points(sol.mesh))
    assert values.shape[1] == 2 and np.isfinite(values).all()
    assert check._check_quad_mesh(out / "quadmesh.msh", holes=0) == []
