import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import neighbors
from quadfield import solver
from quadfield.errors import SolverError
from quadfield.reftri import VERTICES, RefTriangle, quadrature_for_degree
from quadfield.solver import (CGSpace, CrossFieldBC, DiscretizationChoice,
                              FunctionBC, _face_penalty, build_cg_system,
                              build_dg_system, choose_discretization,
                              corner_elements, jump_norm,
                              solve_guiding_field, solve_laplace)
from quadfield.geometry import load_fixture
from quadfield.trimesh import TriMesh, elevate_and_curve, generate_background_mesh


# ---- reference: the per-element and per-face assembly the batched one replaced ----
# Each routine is the scalar version as it stood before the element and face
# passes took a leading batch index; the byte tests below hold the batched
# solver to them.


def _physical_gradients(grad, geom):
    """(jac, det, gphys) of an element map at reference points.

    grad: (npts, nb, 2) reference basis gradients; geom: (nb, 2) element
    nodes.  jac is d(x)/d(xi) (npts, 2, 2) and gphys the physical basis
    gradients (npts, nb, 2).
    """
    jac = np.einsum("pnd,nx->pxd", grad, geom)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1] / det
    inv[:, 0, 1] = -jac[:, 0, 1] / det
    inv[:, 1, 0] = -jac[:, 1, 0] / det
    inv[:, 1, 1] = jac[:, 0, 0] / det
    # physical gradients: dphi/dx_i = inv[j,i] * dphi/dxi_j  (inv = d(xi)/d(x))
    return jac, det, np.einsum("pds,pnd->pns", inv, grad)


def element_stiffness(mesh, e):
    ref = mesh.ref
    _, det, gphys = _physical_gradients(ref.grad_q, mesh.geom[e])
    w = ref.quad_weights * det
    return np.einsum("p,pns,pms->nm", w, gphys, gphys)


class FaceGeometry:
    """Quadrature geometry of one element edge (normals point out of elem)."""

    def __init__(self, mesh, elem, ledge):
        self.basis, grad = mesh.ref.face_table(ledge)
        jac, _, self.gphys = _physical_gradients(grad, mesh.geom[elem])
        dxi_ds = 0.5 * (VERTICES[(ledge + 1) % 3] - VERTICES[ledge])
        tang = np.einsum("pxd,d->px", jac, dxi_ds)
        self.sjac = np.hypot(tang[:, 0], tang[:, 1])
        self.normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / self.sjac[:, None]
        self.wq = mesh.ref.edge_quad_w * self.sjac
        self.length = float(self.wq.sum())
        self.points = self.basis @ mesh.geom[elem]

    def normal_deriv(self):
        """Matrix D with D[p, n] = normal . grad(phi_n) at quad point p."""
        return np.einsum("px,pnx->pn", self.normal, self.gphys)


def _assemble(blocks, ndof):
    """CSR matrix summing dense blocks, each (dofs, block) on rows and columns dofs."""
    rows = np.concatenate([np.repeat(d, len(d)) for d, _ in blocks])
    cols = np.concatenate([np.tile(d, len(d)) for d, _ in blocks])
    vals = np.concatenate([block.ravel() for _, block in blocks])
    return sp.coo_matrix((vals, (rows, cols)), shape=(ndof, ndof)).tocsr()


def per_element_cg_system(mesh, bc):
    """(K, dirichlet dof ids, dirichlet values (ndir, ncomp), space)."""
    space = CGSpace(mesh)
    K = _assemble([(space.local_to_global[e], element_stiffness(mesh, e))
                   for e in range(mesh.n_elements())], space.ndof)
    dir_vals = {}
    ref = mesh.ref
    for f in mesh.boundary_faces:
        dofs = space.local_to_global[f.elem][ref.edge_ids[f.ledge]]
        vals_f = bc.values_at(f.elem, f.ledge, ref.edge_node_params)  # (P+1, ncomp)
        dir_vals.update(zip(dofs.tolist(), vals_f))
    dir_ids = np.array(sorted(dir_vals), dtype=int)
    dir_data = np.array([dir_vals[d] for d in dir_ids])
    return K, dir_ids, dir_data, space


def _sipg_face(w, jump, avg, mu):
    """-{dn u}[v] - {dn v}[u] + mu [u][v] over the unknowns of one face.

    jump and avg: (nq, n) values of [phi] and {dn phi} of the face's n
    unknowns at its quadrature points, w the quadrature weights.
    """
    def face_int(a, b):
        return np.einsum("p,pn,pm->nm", w, a, b)

    return -face_int(jump, avg) - face_int(avg, jump) + mu * face_int(jump, jump)


def per_face_dg_system(mesh, bc, choice):
    """(K, rhs (ndof, ncomp)) with ndof = elements x nodes."""
    nb = mesh.ref.n_nodes
    dofs = np.arange(mesh.n_elements() * nb).reshape(-1, nb)
    blocks = [(dofs[e], element_stiffness(mesh, e)) for e in range(mesh.n_elements())]
    rhs = np.zeros((dofs.size, bc.ncomp))

    for (eL, leL, eR, leR) in mesh.face_pairs:
        fL = FaceGeometry(mesh, eL, leL)
        BR, gradR = _matched_face_basis(mesh, eR, leR, fL)
        _, _, gphysR = _physical_gradients(gradR, mesh.geom[eR])
        DnR = np.einsum("px,pnx->pn", fL.normal, gphysR)
        jump = np.hstack([fL.basis, -BR])
        avg = 0.5 * np.hstack([fL.normal_deriv(), DnR])
        mu = _face_penalty(choice, mesh, fL.length)
        blocks.append((np.concatenate([dofs[eL], dofs[eR]]),
                       _sipg_face(fL.wq, jump, avg, mu)))

    for f in mesh.boundary_faces:
        fg = FaceGeometry(mesh, f.elem, f.ledge)
        B, Dn, w = fg.basis, fg.normal_deriv(), fg.wq
        mu = _face_penalty(choice, mesh, fg.length)
        blocks.append((dofs[f.elem], _sipg_face(w, B, Dn, mu)))
        g = bc.values_at(f.elem, f.ledge, mesh.ref.edge_quad_x)    # (nq, ncomp)
        rhs[dofs[f.elem]] += (-np.einsum("p,pn,pc->nc", w, Dn, g)
                              + mu * np.einsum("p,pn,pc->nc", w, B, g))
    return _assemble(blocks, dofs.size), rhs


def _matched_face_basis(mesh, eR, leR, fL):
    """(basis, grad) of eR at the reference points matching fL's quadrature points.

    Conforming meshes share the edge geometry, so the match is the affine
    parameter reversal; verified against the physical points.
    """
    basis, grad = mesh.ref.face_table(leR, reverse=True)
    err = np.abs(basis @ mesh.geom[eR] - fL.points).max()
    if err > 1e-9 * (1.0 + mesh.bbox_diag):
        raise SolverError(f"face geometry mismatch across an interior edge: {err:.3e}")
    return basis, grad


def per_face_jump_norm(solution):
    """The per-edge array of jump_norm, one face at a time."""
    mesh = solution.mesh
    per_edge = []
    for (eL, leL, eR, leR) in mesh.face_pairs:
        fL = FaceGeometry(mesh, eL, leL)
        BR, _ = _matched_face_basis(mesh, eR, leR, fL)
        uL = fL.basis @ solution.coeffs[eL]
        uR = BR @ solution.coeffs[eR]
        jump = uL - uR
        per_edge.append(np.sqrt(np.einsum("p,pc->c", fL.wq, jump**2)))
    return np.array(per_edge) if per_edge else np.zeros((0, solution.ncomp))


def per_element_corner_elements(mesh, domain, rings=2):
    """Elements within a couple of rings of any geometry corner."""
    corners = [c.position for c in domain.corner_inventory()]
    if not corners:
        return set()
    out = set()
    for e in range(mesh.n_elements()):
        for v in mesh.vertices[mesh.triangles[e]]:
            if any(np.hypot(*(v - c)) < 1e-9 * (1.0 + mesh.bbox_diag) for c in corners):
                out.add(e)
                break
    ring = set(out)
    for _ in range(rings):
        for e in list(ring):
            ring.update(neighbors(mesh, e))
    return ring


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
        assert np.abs(sol.mesh.ref.basis_q @ sol.coeffs[e] - 0.7).max() < 1e-10


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


def reference_value_range(solution, exclude=()):
    """value_range as the per-element loop that the one product replaced."""
    lo = np.inf
    hi = -np.inf
    skip = set(exclude)
    for e in range(solution.mesh.n_elements()):
        if e in skip:
            continue
        vals = solution.mesh.ref.basis_q @ solution.coeffs[e]
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
    return lo, hi


@pytest.mark.parametrize("fixture", ["half_disc", "polygon_III"])
def test_value_range_matches_the_element_loop(fixture, half_disc_solution,
                                              polygon_iii_pipeline):
    """The one product gives each element's quadrature values bitwise, and
    value_range the loop's bounds: over every element, without the corner
    rings, with ids out of range, with none left, and with NaN values."""
    sol = half_disc_solution if fixture == "half_disc" else polygon_iii_pipeline[1]
    mesh = sol.mesh
    ne = mesh.n_elements()
    vals = mesh.ref.basis_q @ sol.coeffs
    for e in range(ne):
        assert vals[e].tobytes() == (mesh.ref.basis_q @ sol.coeffs[e]).tobytes()
    nan = solver.FieldSolution(mesh, sol.coeffs.copy(), sol.choice)
    nan.coeffs[::7, 0, 0] = np.nan
    corners = corner_elements(mesh, load_fixture(fixture))
    for s in (sol, nan):
        for exclude in ((), corners, range(ne), [0, 3, ne, -1, ne + 5],
                        np.arange(1, ne, 2)):
            got = s.value_range(exclude=exclude)
            want = reference_value_range(s, exclude=exclude)
            assert np.array(got).tobytes() == np.array(want).tobytes(), exclude
    assert sol.value_range(exclude=range(ne)) == (np.inf, -np.inf)


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
            edges = list(mesh.face_pairs)
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
    Its element and face geometry is the per-element and per-face reference
    above.
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

    for (eL, leL, eR, leR) in mesh.face_pairs:
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


# ---- the batched element and face passes against the per-face reference ----------


@functools.lru_cache(maxsize=None)
def _fixture_mesh(name, order, h):
    domain = load_fixture(name)
    return domain, elevate_and_curve(generate_background_mesh(domain, h), order, domain)


@pytest.mark.parametrize("batch", [solver.BATCH, 7])
def test_batched_assembly_matches_per_face_reference(batch, monkeypatch):
    """DG on polygon_III and CG on geometry_I at order 3, h = 0.35: the bytes of
    the matrix, the right-hand side and the Dirichlet data equal those of
    the per-element and per-face assembly, whatever the batch size."""
    monkeypatch.setattr(solver, "BATCH", batch)
    domain, mesh = _fixture_mesh("polygon_III", 3, 0.35)
    bc = CrossFieldBC(mesh, domain)
    choice = choose_discretization(domain)
    assert choice.scheme == "dg"
    assert (_dg_bytes(build_dg_system(mesh, bc, choice))
            == _dg_bytes(per_face_dg_system(mesh, bc, choice)))

    domain, mesh = _fixture_mesh("geometry_I", 3, 0.35)
    bc = CrossFieldBC(mesh, domain)
    assert choose_discretization(domain).scheme == "cg"
    new, ref = build_cg_system(mesh, bc), per_element_cg_system(mesh, bc)
    assert ([a.tobytes() for a in (new[0].data, new[0].indices, new[0].indptr, *new[1:3])]
            == [a.tobytes() for a in (ref[0].data, ref[0].indices, ref[0].indptr, *ref[1:3])])


def test_batched_face_geometry_matches_per_face_reference():
    """Every array of the batched FaceGeometry, face by face, on polygon_III at
    order 4 (the benchmark's order), interior faces from both sides."""
    domain, mesh = _fixture_mesh("polygon_III", 4, 0.35)
    pairs = mesh.face_pairs
    faces = np.concatenate([pairs[:, :2], pairs[:, 2:],
                            [(f.elem, f.ledge) for f in mesh.boundary_faces]])
    batch = solver.FaceGeometry(mesh, faces[:, 0], faces[:, 1])
    for k, (e, le) in enumerate(faces.tolist()):
        ref = FaceGeometry(mesh, e, le)
        for name in ("basis", "gphys", "sjac", "normal", "wq"):
            assert getattr(batch, name)[k].tobytes() == getattr(ref, name).tobytes()
        assert batch.length[k] == ref.length
        assert batch.normal_deriv()[k].tobytes() == ref.normal_deriv().tobytes()


def test_jump_norm_matches_per_face_reference():
    domain, mesh = _fixture_mesh("polygon_III", 3, 0.35)
    sol = solve_laplace(mesh, CrossFieldBC(mesh, domain), choose_discretization(domain))
    per_edge, summary = jump_norm(sol)
    assert per_edge.tobytes() == per_face_jump_norm(sol).tobytes()
    assert summary["max"] == float(per_edge.max()) > 0.0


@pytest.mark.parametrize("name", ["polygon_III", "geometry_I", "half_disc", "naca_IV"])
def test_corner_elements_match_per_element_reference(name):
    domain, mesh = _fixture_mesh(name, 2, 0.35)
    for rings in (0, 1, 2):
        assert (corner_elements(mesh, domain, rings)
                == per_element_corner_elements(mesh, domain, rings))


def test_interior_face_mismatch_is_reported(square_mesh_p3):
    """A geometry node moved off a shared edge breaks the match of that face."""
    mesh = square_mesh_p3
    eL, leL, eR, leR = mesh.face_pairs[-1]
    geom = mesh.geom.copy()
    geom[eR, mesh.ref.edge_ids[leR][1]] += 1e-3
    bent = TriMesh(mesh.vertices, mesh.triangles, mesh.order, geom, mesh.boundary_faces)
    bc = FunctionBC(bent, [lambda x, y: x])
    with pytest.raises(SolverError, match="face geometry mismatch"):
        build_dg_system(bent, bc, DiscretizationChoice("dg"))
