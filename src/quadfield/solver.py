"""CG and interior-penalty DG spectral element solvers for the guiding field.

Both components of the field satisfy an independent Laplace problem with
Dirichlet data from the boundary tangent angle, so one factorization serves
both right-hand sides.  CG couples shared nodes strongly; DG keeps
element-local unknowns and imposes boundary data weakly through SIPG face
fluxes, which is what makes discontinuous corner data consistent.

In the jump/average notation of Arnold, Brezzi, Cockburn & Marini (SIAM J.
Numer. Anal. 39, 2002) every face, interior or boundary, adds the symmetric
form

    -{dn u}[v] - {dn v}[u] + mu [u][v],   mu = penalty (P+1)^2 / |face|,

with [u] = u_L - u_R and {dn u} = (dn u_L + dn u_R) / 2 on an interior face
(n the outward normal of L), and [u] = u, {dn u} = dn u on a boundary face,
whose data g enters the right-hand side as -{dn v} g + mu v g.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, SolverError
from .geometry import boundary_field, tangent_angle
from .reftri import VERTICES

DEFAULT_PENALTY = 10.0
DIRECT_SOLVE_LIMIT = 200_000
LINEAR_TOL = 1e-10


@dataclass
class DiscretizationChoice:
    scheme: str                  # "cg" | "dg"
    _: KW_ONLY
    penalty: float = DEFAULT_PENALTY


def choose_discretization(domain, penalty=DEFAULT_PENALTY, scheme="auto"):
    """CG when all corner data is continuous, else SIPG DG.

    scheme "cg" or "dg" forces one; CG on discontinuous corner data is a
    ConfigError.
    """
    continuous = all(c.bc_continuous for c in domain.corner_inventory())
    if scheme == "auto":
        scheme = "cg" if continuous else "dg"
    elif scheme == "cg" and not continuous:
        raise ConfigError("CG requires continuous BCs: this domain has "
                          "corners with discontinuous boundary data")
    return DiscretizationChoice(scheme, penalty=penalty)


class CrossFieldBC:
    """Dirichlet data (cos 4*theta_b, sin 4*theta_b) per boundary face.

    Values are one-sided: each face evaluates the tangent of its own curve
    segment, so the two faces meeting at a discontinuous corner carry their
    own limits and nothing is averaged.
    """

    ncomp = 2

    def __init__(self, mesh, domain):
        self.domain = domain
        self._faces = {(f.elem, f.ledge): f for f in mesh.boundary_faces}

    def values_at(self, elem, ledge, svals):
        """(n, 2) boundary values at edge parameters svals in [-1, 1]."""
        f = self._faces[(elem, ledge)]
        seg = self.domain.loops[f.loop].segments[f.seg]
        svals = np.asarray(svals, dtype=float)
        tvals = f.t0 + 0.5 * (svals + 1.0) * (f.t1 - f.t0)
        thetas = np.array([tangent_angle(seg, min(max(t, 0.0), 1.0)) for t in tvals])
        u, v = boundary_field(thetas)
        return np.stack([u, v], axis=1)


class FunctionBC:
    """Dirichlet data from explicit functions of the physical point."""

    def __init__(self, mesh, fns):
        self.mesh = mesh
        self.fns = list(fns)
        self.ncomp = len(self.fns)

    def values_at(self, elem, ledge, svals):
        xi = self.mesh.ref.edge_points(ledge, np.asarray(svals, dtype=float))
        xy = self.mesh.map_to_physical(elem, xi)
        return np.stack([fn(xy[:, 0], xy[:, 1]) for fn in self.fns], axis=1)


class FieldSolution:
    """Per-element modal-free coefficient arrays of the solved components."""

    def __init__(self, mesh, coeffs, choice):
        self.mesh = mesh
        self.coeffs = np.asarray(coeffs, dtype=float)   # (ne, nb, ncomp)
        self.choice = choice

    @property
    def ncomp(self):
        return self.coeffs.shape[2]

    def eval(self, e, xi):
        """Interpolated components at reference points xi of element e."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        return self.mesh.ref.basis_at(xi) @ self.coeffs[e]

    def quad_values(self, e):
        return self.mesh.ref.basis_q @ self.coeffs[e]

    def value_range(self, exclude=()):
        lo = np.inf
        hi = -np.inf
        skip = set(exclude)
        for e in range(self.mesh.n_elements()):
            if e in skip:
                continue
            vals = self.quad_values(e)
            lo = min(lo, float(vals.min()))
            hi = max(hi, float(vals.max()))
        return lo, hi

    def check_max_principle(self, bound=1.0, slack=1e-6, exclude=()):
        """Quadrature values must stay within the boundary-data bounds.

        exclude: element ids to skip.  Elements pinned to a discontinuous
        corner carry a persistent Galerkin overshoot of the jump data, so the
        guided-field pipeline exempts that one ring.
        """
        lo, hi = self.value_range(exclude=exclude)
        if lo < -bound - slack or hi > bound + slack:
            raise SolverError(
                f"discrete maximum principle violated: range [{lo:.3e}, {hi:.3e}]")

    def to_json(self):
        return {"scheme": self.choice.scheme, "order": self.mesh.order,
                "penalty": self.choice.penalty, "coeffs": self.coeffs.tolist()}

    @classmethod
    def from_json(cls, doc, mesh):
        coeffs = np.array(doc["coeffs"])
        want = (mesh.n_elements(), mesh.ref.n_nodes)
        if coeffs.shape[:2] != want:
            raise ConfigError(f"field coefficients of shape {coeffs.shape[:2]} do not "
                              f"fit the mesh's (elements, nodes) = {want}; rerun solve")
        choice = DiscretizationChoice(
            doc["scheme"], penalty=float(doc.get("penalty", DEFAULT_PENALTY)))
        return cls(mesh, coeffs, choice)


# ---- shared element/face machinery -------------------------------------------


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


def interior_face_pairs(mesh):
    """(eL, leL, eR, leR) per interior edge, deterministic order."""
    out = []
    for key in mesh.interior_edges:
        (e0, le0), (e1, le1) = sorted(mesh.edge_use[key])
        out.append((e0, le0, e1, le1))
    return out


def _assemble(blocks, ndof):
    """CSR matrix summing dense blocks, each (dofs, block) on rows and columns dofs."""
    rows = np.concatenate([np.repeat(d, len(d)) for d, _ in blocks])
    cols = np.concatenate([np.tile(d, len(d)) for d, _ in blocks])
    vals = np.concatenate([block.ravel() for _, block in blocks])
    return sp.coo_matrix((vals, (rows, cols)), shape=(ndof, ndof)).tocsr()


# ---- CG ----------------------------------------------------------------------


class CGSpace:
    """Global continuous numbering: vertex, edge, then interior unknowns."""

    def __init__(self, mesh):
        self.mesh = mesh
        ref = mesh.ref
        p = mesh.order
        nv = len(mesh.vertices)
        self.edge_index = {key: i for i, key in enumerate(
            sorted(mesh.edge_use, key=lambda k: sorted(k)))}
        n_edge = len(self.edge_index)
        per_edge = max(p - 1, 0)
        n_int = len(ref.interior_ids)
        self.ndof = nv + n_edge * per_edge + mesh.n_elements() * n_int
        self.local_to_global = np.zeros((mesh.n_elements(), ref.n_nodes), dtype=int)
        for e in range(mesh.n_elements()):
            tri = [int(v) for v in mesh.triangles[e]]
            l2g = np.empty(ref.n_nodes, dtype=int)
            for k in range(3):
                l2g[ref.vertex_ids[k]] = tri[k]
            for le in range(3):
                va, vb = tri[le], tri[(le + 1) % 3]
                gid = self.edge_index[frozenset((va, vb))]
                dofs = nv + gid * per_edge + np.arange(per_edge)
                ids = ref.edge_ids[le][1:-1]
                l2g[ids] = dofs if va < vb else dofs[::-1]
            base = nv + n_edge * per_edge + e * n_int
            l2g[ref.interior_ids] = base + np.arange(n_int)
            self.local_to_global[e] = l2g


def _linear_solve(matrix, rhs_cols):
    """Direct factorization below the size cutoff, diagonally scaled CG above."""
    n = matrix.shape[0]
    csc = matrix.tocsc()
    out = np.empty((n, rhs_cols.shape[1]))
    if n < DIRECT_SOLVE_LIMIT:
        lu = spla.factorized(csc)
        for c in range(rhs_cols.shape[1]):
            out[:, c] = lu(rhs_cols[:, c])
    else:
        pre = sp.diags(1.0 / csc.diagonal())
        for c in range(rhs_cols.shape[1]):
            x, info = spla.cg(csc, rhs_cols[:, c], rtol=LINEAR_TOL, maxiter=20000, M=pre)
            if info != 0:
                raise SolverError(f"iterative solve failed to converge (info={info})")
            out[:, c] = x
    for c in range(rhs_cols.shape[1]):
        r = np.linalg.norm(csc @ out[:, c] - rhs_cols[:, c])
        b = np.linalg.norm(rhs_cols[:, c])
        if b > 0 and r / b > 100 * LINEAR_TOL:
            raise SolverError(f"linear solve residual {r / b:.3e} exceeds tolerance")
    return out


def build_cg_system(mesh, bc):
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


def solve_cg(mesh, bc, choice):
    K, dir_ids, dir_data, space = build_cg_system(mesh, bc)
    ndof = space.ndof
    free = np.setdiff1d(np.arange(ndof), dir_ids)
    Kff = K[free][:, free]
    Kfd = K[free][:, dir_ids]
    rhs = -Kfd @ dir_data
    xf = _linear_solve(Kff, rhs)
    x = np.zeros((ndof, bc.ncomp))
    x[dir_ids] = dir_data
    x[free] = xf
    coeffs = x[space.local_to_global]               # (ne, nb, ncomp)
    return FieldSolution(mesh, coeffs, choice)


# ---- DG (symmetric interior penalty) ------------------------------------------


def _face_penalty(choice, mesh, length):
    return choice.penalty * (mesh.order + 1) ** 2 / length


def _sipg_face(w, jump, avg, mu):
    """-{dn u}[v] - {dn v}[u] + mu [u][v] over the unknowns of one face.

    jump and avg: (nq, n) values of [phi] and {dn phi} of the face's n
    unknowns at its quadrature points, w the quadrature weights.
    """
    def face_int(a, b):
        return np.einsum("p,pn,pm->nm", w, a, b)

    return -face_int(jump, avg) - face_int(avg, jump) + mu * face_int(jump, jump)


def build_dg_system(mesh, bc, choice):
    """(K, rhs (ndof, ncomp)) with ndof = elements x nodes."""
    nb = mesh.ref.n_nodes
    dofs = np.arange(mesh.n_elements() * nb).reshape(-1, nb)
    blocks = [(dofs[e], element_stiffness(mesh, e)) for e in range(mesh.n_elements())]
    rhs = np.zeros((dofs.size, bc.ncomp))

    for (eL, leL, eR, leR) in interior_face_pairs(mesh):
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


def solve_dg(mesh, bc, choice):
    K, rhs = build_dg_system(mesh, bc, choice)
    x = _linear_solve(K, rhs)
    nb = mesh.ref.n_nodes
    coeffs = x.reshape(mesh.n_elements(), nb, bc.ncomp)
    return FieldSolution(mesh, coeffs, choice)


def solve_laplace(mesh, bc, choice):
    """Solve one Laplace problem per boundary-data component."""
    if not mesh.boundary_faces:
        raise SolverError("empty Dirichlet set: the Laplace system is singular")
    if choice.scheme == "cg":
        return solve_cg(mesh, bc, choice)
    if choice.scheme == "dg":
        return solve_dg(mesh, bc, choice)
    raise SolverError(f"unknown scheme {choice.scheme!r}")


def corner_elements(mesh, domain, rings=2):
    """Elements within a couple of rings of any geometry corner.

    Boundary data rotates fastest there (and jumps at discontinuous corners),
    so the high-order solution overshoots the unit bound by a mesh-dependent
    amount in exactly these elements.
    """
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
            ring.update(mesh.neighbors(e))
    return ring


def solve_guiding_field(mesh, domain, choice):
    bc = CrossFieldBC(mesh, domain)
    sol = solve_laplace(mesh, bc, choice)
    sol.check_max_principle(exclude=corner_elements(mesh, domain))
    return sol


# ---- diagnostics ---------------------------------------------------------------


def jump_norm(solution):
    """L2 jump of every component across each interior edge.

    Returns (per_edge (nedges, ncomp), summary dict).  CG solutions give
    zeros up to roundoff.
    """
    mesh = solution.mesh
    per_edge = []
    for (eL, leL, eR, leR) in interior_face_pairs(mesh):
        fL = FaceGeometry(mesh, eL, leL)
        BR, _ = _matched_face_basis(mesh, eR, leR, fL)
        uL = fL.basis @ solution.coeffs[eL]
        uR = BR @ solution.coeffs[eR]
        jump = uL - uR
        per_edge.append(np.sqrt(np.einsum("p,pc->c", fL.wq, jump**2)))
    arr = np.array(per_edge) if per_edge else np.zeros((0, solution.ncomp))
    summary = {
        "max": float(arr.max()) if arr.size else 0.0,
        "mean": float(arr.mean()) if arr.size else 0.0,
    }
    return arr, summary
