"""The benchmark wraps quadfield names listed in perfbench/spans.py and calls
program names from perfbench/check.py.

A name that disappears from the program makes ``perfbench/run.py`` fail, so
every traced target must still resolve and every check must still run on
fresh artifacts.  Both files are executed from their source text: nothing is
imported from perfbench/ and no bytecode is written there.
"""

import importlib
import types
from pathlib import Path

import numpy as np

from quadfield.cli import main
from quadfield.geometry import fixture_path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves():
    targets = _load("spans").TARGETS
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
    check = _load("check")
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
