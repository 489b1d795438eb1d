import math

import numpy as np
import pytest
import scipy.sparse as sp

from quadfield.errors import SolverError
from quadfield.reftri import RefTriangle, quadrature_for_degree
from quadfield.solver import (CrossFieldBC, DiscretizationChoice, FaceGeometry,
                              FunctionBC, _face_penalty, _matched_face_basis,
                              _physical_gradients, build_cg_system,
                              build_dg_system, choose_discretization,
                              element_stiffness, interior_face_pairs, jump_norm,
                              solve_guiding_field, solve_laplace)
from quadfield.geometry import load_fixture
from quadfield.trimesh import TriMesh, elevate_and_curve, generate_background_mesh


def l2_error(sol, fn, component=0):
    mesh = sol.mesh
    pts, w = quadrature_for_degree(16)
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


def test_choose_discretization_per_fixture():
    assert choose_discretization(load_fixture("half_disc")).scheme == "cg"
    assert choose_discretization(load_fixture("polygon_III")).scheme == "dg"
    assert choose_discretization(load_fixture("naca_IV")).scheme == "dg"
    assert choose_discretization(load_fixture("nautilus")).scheme == "cg"


@pytest.mark.parametrize("scheme", ["cg", "dg"])
def test_constant_bc_reproduced(scheme, unit_square, square_mesh_p3):
    bc = FunctionBC(square_mesh_p3, [lambda x, y: np.full_like(x, 0.7)])
    sol = solve_laplace(square_mesh_p3, bc, DiscretizationChoice(scheme))
    for e in range(square_mesh_p3.n_elements()):
        assert np.abs(sol.quad_values(e) - 0.7).max() < 1e-10


@pytest.mark.parametrize("scheme", ["cg", "dg"])
def test_harmonic_polynomial_exact(scheme, square_mesh_p3):
    fn = lambda x, y: x * x - y * y
    bc = FunctionBC(square_mesh_p3, [fn])
    sol = solve_laplace(square_mesh_p3, bc, DiscretizationChoice(scheme))
    assert l2_error(sol, fn) < 1e-9


def test_spectral_convergence_cg(unit_square, square_mesh_linear):
    fn = lambda x, y: np.real((x + 1j * y) ** 6)
    errs = []
    for order in (2, 3, 4, 5):
        mesh = elevate_and_curve(square_mesh_linear, order, unit_square)
        sol = solve_laplace(mesh, FunctionBC(mesh, [fn]),
                            DiscretizationChoice("cg"))
        errs.append(l2_error(sol, fn))
    for i in range(len(errs) - 1):
        if errs[i] < 1e-10:
            break
        assert errs[i] / errs[i + 1] > 5.0


def test_iterative_branch_matches_direct(unit_square, square_mesh_p3, monkeypatch):
    import quadfield.solver as solver_mod
    fn = lambda x, y: x * x - y * y
    bc = FunctionBC(square_mesh_p3, [fn])
    direct = solve_laplace(square_mesh_p3, bc, DiscretizationChoice("cg"))
    monkeypatch.setattr(solver_mod, "DIRECT_SOLVE_LIMIT", 1)
    iterative = solve_laplace(square_mesh_p3, bc, DiscretizationChoice("cg"))
    assert np.abs(direct.coeffs - iterative.coeffs).max() < 1e-7


def test_cg_system_spd(square_mesh_p3):
    bc = FunctionBC(square_mesh_p3, [lambda x, y: x])
    K, dir_ids, dir_data, space = build_cg_system(square_mesh_p3, bc)
    free = np.setdiff1d(np.arange(space.ndof), dir_ids)
    Kff = K[free][:, free]
    asym = abs(Kff - Kff.T).max()
    assert asym < 1e-12
    assert Kff.diagonal().min() > 0


def test_dg_system_symmetric(square_mesh_p3):
    bc = FunctionBC(square_mesh_p3, [lambda x, y: x])
    K, rhs = build_dg_system(square_mesh_p3, bc, DiscretizationChoice("dg"))
    assert abs(K - K.T).max() < 1e-12


def test_assembly_order_independent(half_disc, half_disc_mesh, half_disc_solution):
    mesh = half_disc_mesh
    perm = np.arange(mesh.n_elements())[::-1]
    faces = [type(f)(int(np.where(perm == f.elem)[0][0]), f.ledge, f.loop,
                     f.seg, f.t0, f.t1) for f in mesh.boundary_faces]
    permuted = TriMesh(mesh.vertices.copy(), mesh.triangles[perm].copy(),
                       mesh.order, mesh.geom[perm].copy(), faces, domain=half_disc)
    sol2 = solve_guiding_field(permuted, half_disc,
                               choose_discretization(half_disc))
    vids = mesh.ref.vertex_ids
    for e in range(mesh.n_elements()):
        e2 = int(np.where(perm == e)[0][0])
        assert np.abs(half_disc_solution.coeffs[e][vids]
                      - sol2.coeffs[e2][vids]).max() < 1e-10


def test_max_principle_half_disc(half_disc_solution):
    half_disc_solution.check_max_principle()
    lo, hi = half_disc_solution.value_range()
    assert lo >= -1 - 1e-6 and hi <= 1 + 1e-6


def test_singular_system_rejected(half_disc, half_disc_mesh):
    bc = CrossFieldBC(half_disc_mesh, half_disc)
    bare = TriMesh(half_disc_mesh.vertices, half_disc_mesh.triangles,
                   half_disc_mesh.order, half_disc_mesh.geom,
                   half_disc_mesh.boundary_faces, domain=half_disc)
    bare.boundary_faces = []
    with pytest.raises(SolverError, match="Dirichlet"):
        solve_laplace(bare, _EmptyBC(), DiscretizationChoice("cg"))


class _EmptyBC:
    ncomp = 1

    def values_at(self, elem, ledge, svals):
        raise AssertionError("should not be called")


def test_boundary_data_one_sided(polygon_iii, polygon_iii_pipeline):
    mesh, _, _, _, _ = polygon_iii_pipeline
    bc = CrossFieldBC(mesh, polygon_iii)
    sharp = next(c for c in polygon_iii.corner_inventory()
                 if not c.bc_continuous and c.delta_theta < 1.0)
    incident = []
    for f in mesh.boundary_faces:
        vals = bc.values_at(f.elem, f.ledge, mesh.ref.edge_node_params)
        seg = polygon_iii.loops[f.loop].segments[f.seg]
        for t, v in ((f.t0, vals[0]), (f.t1, vals[-1])):
            p = seg.point(t)
            if np.hypot(*(p - sharp.position)) < 1e-9:
                incident.append(v)
    assert len(incident) >= 2
    spread = max(np.hypot(*(a - b)) for a in incident for b in incident)
    assert spread > 0.1


def test_jump_norm_cg_zero(half_disc_solution):
    per_edge, summary = jump_norm(half_disc_solution)
    assert summary["max"] < 1e-12


def test_jump_norm_dg_polygon(polygon_iii):
    lin = generate_background_mesh(polygon_iii, 0.45)
    jumps = {}
    for order in (2, 5):
        mesh = elevate_and_curve(lin, order, polygon_iii)
        sol = solve_laplace(mesh, CrossFieldBC(mesh, polygon_iii),
                            DiscretizationChoice("dg"))
        per_edge, summary = jump_norm(sol)
        jumps[order] = summary["max"]
        if order == 5:
            # largest jumps hug the discontinuous corners
            edges = list(interior_face_pairs(mesh))
            worst = edges[int(np.argmax(per_edge.max(axis=1)))]
            a = mesh.vertices[mesh.triangles[worst[0]]].mean(axis=0)
            corners = [c.position for c in polygon_iii.corner_inventory()
                       if not c.bc_continuous]
            assert min(np.hypot(*(a - c)) for c in corners) < 1.0
    assert jumps[5] < jumps[2]


def _per_face_table(ref, edge, reverse=False):
    """face_table without the cache: basis_at / grad_basis_at at every call."""
    s = -ref.edge_quad_x if reverse else ref.edge_quad_x
    xi = ref.edge_points(edge, s)
    return ref.basis_at(xi), ref.grad_basis_at(xi)


def test_face_tables_match_per_face_evaluation(square_mesh_p3, monkeypatch):
    mesh = square_mesh_p3
    for edge in range(3):
        for reverse in (False, True):
            table = mesh.ref.face_table(edge, reverse)
            assert table is mesh.ref.face_table(edge, reverse)
            for cached, direct in zip(table, _per_face_table(mesh.ref, edge, reverse)):
                assert not cached.flags.writeable
                assert cached.tobytes() == direct.tobytes()

    bc = FunctionBC(mesh, [lambda x, y: x * x - y * y, lambda x, y: np.sin(x) * y])
    choice = DiscretizationChoice("dg")

    def assembled():
        K, rhs = build_dg_system(mesh, bc, choice)
        jumps, _ = jump_norm(solve_laplace(mesh, bc, choice))
        return [a.tobytes() for a in (K.data, K.indices, K.indptr, rhs, jumps)]

    cached = assembled()
    monkeypatch.setattr(RefTriangle, "face_table", _per_face_table)
    assert cached == assembled()


def _four_block_dg_system(mesh, bc, choice):
    """SIPG assembly spelled as four interior-face blocks and one boundary form.

    Reference for build_dg_system, which writes every face as one jump/average
    form over the face's unknowns and builds the matrix with one scatter.
    """
    ref = mesh.ref
    nb = ref.n_nodes
    ne = mesh.n_elements()
    ndof = ne * nb
    rows, cols, vals = [], [], []
    rhs = np.zeros((ndof, bc.ncomp))

    def add_block(ei, ej, block):
        gi = ei * nb + np.arange(nb)
        gj = ej * nb + np.arange(nb)
        grid = np.meshgrid(gi, gj, indexing="ij")
        rows.append(grid[0].ravel())
        cols.append(grid[1].ravel())
        vals.append(block.ravel())

    for e in range(ne):
        ke = element_stiffness(mesh, e)
        add_block(e, e, ke)

    for (eL, leL, eR, leR) in interior_face_pairs(mesh):
        fL = FaceGeometry(mesh, eL, leL)
        BR, gradR = _matched_face_basis(mesh, eR, leR, fL)
        _, _, gphysR = _physical_gradients(gradR, mesh.geom[eR])

        BL = fL.basis
        DnL = fL.normal_deriv()
        DnR = np.einsum("px,pnx->pn", fL.normal, gphysR)
        w = fL.wq
        mu = _face_penalty(choice, mesh, fL.length)

        def face_int(A, B):
            return np.einsum("p,pn,pm->nm", w, A, B)

        add_block(eL, eL, -0.5 * face_int(BL, DnL) - 0.5 * face_int(DnL, BL)
                  + mu * face_int(BL, BL))
        add_block(eL, eR, -0.5 * face_int(BL, DnR) + 0.5 * face_int(DnL, BR)
                  - mu * face_int(BL, BR))
        add_block(eR, eL, -0.5 * face_int(DnR, BL) + 0.5 * face_int(BR, DnL)
                  - mu * face_int(BR, BL))
        add_block(eR, eR, 0.5 * face_int(BR, DnR) + 0.5 * face_int(DnR, BR)
                  + mu * face_int(BR, BR))

    for f in mesh.boundary_faces:
        fg = FaceGeometry(mesh, f.elem, f.ledge)
        B = fg.basis
        Dn = fg.normal_deriv()
        w = fg.wq
        mu = _face_penalty(choice, mesh, fg.length)
        g = bc.values_at(f.elem, f.ledge, ref.edge_quad_x)          # (nq, ncomp)
        add_block(f.elem, f.elem,
                  -np.einsum("p,pn,pm->nm", w, B, Dn)
                  - np.einsum("p,pn,pm->nm", w, Dn, B)
                  + mu * np.einsum("p,pn,pm->nm", w, B, B))
        gidx = f.elem * ref.n_nodes + np.arange(ref.n_nodes)
        rhs[gidx] += (-np.einsum("p,pn,pc->nc", w, Dn, g)
                      + mu * np.einsum("p,pn,pc->nc", w, B, g))

    K = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(ndof, ndof)).tocsr()
    return K, rhs


def _dg_bytes(system):
    K, rhs = system
    return [a.tobytes() for a in (K.data, K.indices, K.indptr, rhs)]


def test_sipg_face_form_matches_four_block_reference_square(square_mesh_p3):
    bc = FunctionBC(square_mesh_p3, [lambda x, y: x * x - y * y,
                                     lambda x, y: np.sin(x) * y])
    choice = DiscretizationChoice("dg")
    assert (_dg_bytes(build_dg_system(square_mesh_p3, bc, choice))
            == _dg_bytes(_four_block_dg_system(square_mesh_p3, bc, choice)))


@pytest.mark.parametrize("order,h", [(3, 0.35), (4, 0.12)])
def test_sipg_face_form_matches_four_block_reference_polygon(polygon_iii, order, h):
    mesh = elevate_and_curve(generate_background_mesh(polygon_iii, h), order,
                             polygon_iii)
    bc = CrossFieldBC(mesh, polygon_iii)
    choice = choose_discretization(polygon_iii)
    assert choice.scheme == "dg"
    assert (_dg_bytes(build_dg_system(mesh, bc, choice))
            == _dg_bytes(_four_block_dg_system(mesh, bc, choice)))
