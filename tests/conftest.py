"""Shared fixtures; expensive pipeline stages are session-cached."""

import numpy as np
import pytest

from quadfield.field import FieldProbe
from quadfield.geometry import BoundaryLoop, DomainSpec, Line, in_region, load_fixture
from quadfield.singular import corner_valences, find_critical_points
from quadfield.solver import choose_discretization, solve_guiding_field
from quadfield.tracer import trace_all
from quadfield.trimesh import elevate_and_curve, generate_background_mesh


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


def neighbors(mesh, e):
    """Element ids sharing an edge with element e, by its local edges 0, 1, 2."""
    out = []
    for i in mesh.elem_edges[e]:
        k = np.searchsorted(mesh.interior_edges, i)
        if k < len(mesh.interior_edges) and mesh.interior_edges[k] == i:
            e0, _, e1, _ = mesh.face_pairs[k].tolist()
            out.append(e1 if e0 == e else e0)
    return out


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
def half_disc():
    return load_fixture("half_disc")


@pytest.fixture(scope="session")
def half_disc_mesh(half_disc):
    return elevate_and_curve(generate_background_mesh(half_disc, 0.35), 3, half_disc)


@pytest.fixture(scope="session")
def half_disc_solution(half_disc, half_disc_mesh):
    return solve_guiding_field(half_disc_mesh, half_disc,
                               choose_discretization(half_disc))


@pytest.fixture(scope="session")
def half_disc_probe(half_disc_solution):
    return FieldProbe(half_disc_solution)


@pytest.fixture(scope="session")
def half_disc_topology(half_disc, half_disc_solution, half_disc_probe):
    cps = find_critical_points(half_disc_solution, half_disc_probe)
    cns = corner_valences(half_disc, half_disc_probe)
    return cps, cns


@pytest.fixture(scope="session")
def half_disc_traced(half_disc, half_disc_mesh, half_disc_probe, half_disc_topology):
    cps, cns = half_disc_topology
    h_s = 0.25 * half_disc_mesh.shortest_edge()
    seps, streamlines = trace_all(cps, cns, half_disc_probe, half_disc, h_s)
    return seps, streamlines, h_s


@pytest.fixture(scope="session")
def polygon_iii():
    return load_fixture("polygon_III")


@pytest.fixture(scope="session")
def polygon_iii_pipeline(polygon_iii):
    mesh = elevate_and_curve(generate_background_mesh(polygon_iii, 0.35), 3,
                             polygon_iii)
    sol = solve_guiding_field(mesh, polygon_iii, choose_discretization(polygon_iii))
    probe = FieldProbe(sol)
    cps = find_critical_points(sol, probe)
    cns = corner_valences(polygon_iii, probe)
    return mesh, sol, probe, cps, cns


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion results after the run."""
    try:
        from test_acceptance import REPORT_LINES
    except ImportError:
        return
    if REPORT_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(REPORT_LINES):
            terminalreporter.write_line(line)
