"""Shared fixtures and helpers; pipeline states are built once per session."""

import json
import math
import sys
import types
from functools import cache, cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from quadfield.field import FieldProbe
from quadfield.geometry import (BoundaryLoop, DomainSpec, Line, domain_from_json, fixture_path,
                                in_region)
from quadfield.reftri import collapsed_quadrature
from quadfield.singular import corner_valences, find_critical_points
from quadfield.solver import choose_discretization, solve_guiding_field
from quadfield.tracer import trace_all
from quadfield.trimesh import elevate_and_curve, generate_background_mesh
from reference import REPORT_LINES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py run from its source: no import, no bytecode in perfbench/."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module        # dataclasses look their module up
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


_workloads = load_perfbench("workloads")

# The benchmark's exact rigid translations of the shipped fixtures.
OFFSETS = _workloads.OFFSETS


def translated(name, dx, dy):
    """The fixture domain moved by (dx, dy), as the benchmark moves it."""
    return domain_from_json(_workloads.translate(json.loads(fixture_path(name).read_text()),
                                                 dx, dy))


# hypothesis coordinates in [0, 1], half of them on the eighths
coord = st.integers(0, 8).map(lambda k: k / 8) | st.floats(0.0, 1.0)


def square_domain(side=1.0, name="square"):
    loop = BoundaryLoop([
        Line((0.0, 0.0), (side, 0.0)),
        Line((side, 0.0), (side, side)),
        Line((side, side), (0.0, side)),
        Line((0.0, side), (0.0, 0.0)),
    ], "outer")
    return DomainSpec([loop], name=name)


def contains(domain, x):
    """Point-in-domain test of a DomainSpec on its dense polygon approximation."""
    return in_region(x, domain.outer.polygon, (h.polygon for h in domain.holes))


def l2_error(sol, fn, component=0):
    """L2 norm of one component of sol minus fn(x, y), by degree-16 quadrature."""
    mesh = sol.mesh
    pts, w = collapsed_quadrature(9)
    basis = mesh.ref.basis_at(pts)
    grad = mesh.ref.grad_basis_at(pts)
    total = 0.0
    for e in range(mesh.n_elements()):
        xy = basis @ mesh.geom[e]
        jac = np.einsum("pnd,nx->pxd", grad, mesh.geom[e])
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        vals = basis @ sol.coeffs[e][:, component]
        total += float(np.sum(w * det * (vals - fn(xy[:, 0], xy[:, 1])) ** 2))
    return math.sqrt(total)


def block_area(block, n=24):
    """Area of a QuadBlock: 2x2 Gauss per cell on an n x n grid of the parameter square."""
    g = 0.5 / math.sqrt(3.0)
    u = ((np.arange(n)[:, None] + [0.5 - g, 0.5 + g]) / n).ravel()
    S, T = np.meshgrid(u, u, indexing="ij")
    qs, qt = block._derivatives(S.ravel(), T.ravel())
    return float(np.sum((qs[:, 0] * qt[:, 1] - qs[:, 1] * qt[:, 0]) / (4 * n * n)))


def neighbors(mesh, e):
    """Element ids sharing an edge with element e, by its local edges 0, 1, 2."""
    out = []
    for i in mesh.elem_edges[e]:
        k = np.searchsorted(mesh.interior_edges, i)
        if k < len(mesh.interior_edges) and mesh.interior_edges[k] == i:
            e0, _, e1, _ = mesh.face_pairs[k].tolist()
            out.append(e1 if e0 == e else e0)
    return out


# ---- captured pipeline states ------------------------------------------------------


class PipelineState:
    """A shipped fixture moved by offset, meshed at target_h and order (order 1
    is the background mesh), solved, probed, its topology found and traced,
    each stage on first use.  A test that changes a state takes a deep copy."""

    def __init__(self, name, offset, target_h, order):
        self.name, self.offset, self.target_h, self.order = name, offset, target_h, order
        self.domain = _domain(name, offset)

    @cached_property
    def mesh(self):
        if self.order == 1:
            return generate_background_mesh(self.domain, self.target_h)
        linear = capture(self.name, self.offset, self.target_h, 1).mesh
        return elevate_and_curve(linear, self.order, self.domain)

    @cached_property
    def solution(self):
        return solve_guiding_field(self.mesh, self.domain, choose_discretization(self.domain))

    @cached_property
    def probe(self):
        return FieldProbe(self.solution)

    @cached_property
    def topology(self):
        """(critical points, corner nodes)."""
        return (find_critical_points(self.solution, self.probe),
                corner_valences(self.domain, self.probe))

    @cached_property
    def traced(self):
        """(separatrices, streamlines, h_s)."""
        h_s = 0.25 * self.mesh.shortest_edge()
        return (*trace_all(*self.topology, self.probe, self.domain, h_s), h_s)


@cache
def _domain(name, offset):
    return translated(name, *offset)


def capture(name, offset=(0.0, 0.0), target_h=0.35, order=3):
    """The session's PipelineState of (fixture, offset, target_h, order)."""
    return _state(name, tuple(offset), target_h, order)


_state = cache(PipelineState)


@pytest.fixture(scope="session")
def captured():
    return capture


@pytest.fixture(scope="session")
def unit_square():
    return square_domain()


@pytest.fixture(scope="session")
def square_mesh_linear(unit_square):
    return generate_background_mesh(unit_square, 0.27)


@pytest.fixture(scope="session")
def square_mesh_p3(unit_square, square_mesh_linear):
    return elevate_and_curve(square_mesh_linear, 3, unit_square)


@pytest.fixture(scope="session")
def half_disc(captured):
    return captured("half_disc").domain


@pytest.fixture(scope="session")
def half_disc_mesh(captured):
    return captured("half_disc").mesh


@pytest.fixture(scope="session")
def half_disc_solution(captured):
    return captured("half_disc").solution


@pytest.fixture(scope="session")
def half_disc_probe(captured):
    return captured("half_disc").probe


@pytest.fixture(scope="session")
def half_disc_topology(captured):
    return captured("half_disc").topology


@pytest.fixture(scope="session")
def half_disc_traced(captured):
    return captured("half_disc").traced


@pytest.fixture(scope="session")
def polygon_iii(captured):
    return captured("polygon_III").domain


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion results after the run."""
    if REPORT_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(REPORT_LINES):
            terminalreporter.write_line(line)
