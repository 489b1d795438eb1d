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

Elements and faces are handled BATCH at a time.  Their Jacobians come from
reftri.map_jacobians with the element index innermost, so every loop over
nodes or quadrature points runs on contiguous rows of BATCH lanes, in the
summation order of the einsum kernels it replaced.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, SolverError
from .geometry import boundary_field, finite, tangent_angle, typed
from .reftri import VERTICES, map_jacobians

DEFAULT_PENALTY = 10.0
DIRECT_SOLVE_LIMIT = 200_000
LINEAR_TOL = 1e-10
# Slack of the discrete maximum principle over the boundary data's bound of 1.
MAX_PRINCIPLE_SLACK = 1e-6


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
        thetas = np.array([tangent_angle(seg, min(max(t, 0.0), 1.0))
                           for t in f.curve_t(svals)])
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

    def value_range(self, exclude=()):
        """(min, max) of the quadrature values of the elements not in exclude, from
        one product; an element with a NaN value is skipped.  (inf, -inf) if none is left."""
        kept = np.setdiff1d(np.arange(self.mesh.n_elements()), list(exclude))
        vals = self.mesh.ref.basis_q @ self.coeffs[kept]
        vals = vals[~np.isnan(vals).any(axis=(1, 2))]
        return float(vals.min(initial=np.inf)), float(vals.max(initial=-np.inf))

    def check_max_principle(self, exclude=()):
        """Quadrature values must stay within the boundary-data bounds [-1, 1].

        exclude: element ids to skip.  Elements pinned to a discontinuous
        corner carry a persistent Galerkin overshoot of the jump data, so the
        guided-field pipeline exempts that one ring, but not from holding
        finite coefficients, which value_range would skip.
        """
        bad = np.count_nonzero(~np.isfinite(self.coeffs).all(axis=(1, 2)))
        if bad:
            raise SolverError(f"field coefficients are NaN or infinite in {bad} of "
                              f"{self.mesh.n_elements()} elements")
        lo, hi = self.value_range(exclude=exclude)
        if lo < -1.0 - MAX_PRINCIPLE_SLACK or hi > 1.0 + MAX_PRINCIPLE_SLACK:
            raise SolverError(
                f"discrete maximum principle violated: range [{lo:.3e}, {hi:.3e}]")

    def to_json(self):
        return {"scheme": self.choice.scheme, "order": self.mesh.order,
                "penalty": self.choice.penalty, "coeffs": self.coeffs.tolist()}

    @classmethod
    def from_json(cls, doc, mesh):
        coeffs = finite(np.array(doc["coeffs"], dtype=float), "field coefficients")
        want = (mesh.n_elements(), mesh.ref.n_nodes)
        if coeffs.shape[:2] != want:
            raise ConfigError(f"field coefficients of shape {coeffs.shape[:2]} do not "
                              f"fit the mesh's (elements, nodes) = {want}; rerun solve")
        if coeffs.shape[2:] != (2,):
            raise ValueError(f"field coefficients of shape {coeffs.shape} do not have "
                             f"2 components")
        if typed(doc["order"], (int,), "order") != mesh.order:
            raise ValueError(f"field order {doc['order']} is not the mesh's {mesh.order}")
        penalty = float(typed(doc["penalty"], (int, float), "penalty"))
        if typed(doc["scheme"], (str,), "scheme") not in ("cg", "dg"):
            raise ValueError(f"scheme must be cg or dg, not {doc['scheme']!r}")
        return cls(mesh, coeffs, DiscretizationChoice(doc["scheme"], penalty=penalty))


# ---- shared element/face machinery -------------------------------------------

# Elements or faces per batched pass: every temporary stays near 2 MB at order 4.
BATCH = 256


def _batches(n):
    """Slices of range(n), BATCH long; one empty slice when n is 0."""
    return [slice(s, s + BATCH) for s in range(0, max(n, 1), BATCH)]


def _physical_gradients(grad, geom):
    """(jac, det, gphys) of k element maps at reference points, element index innermost.

    grad: (npts, nb, 2) reference basis gradients shared by every map, or
    (k, npts, nb, 2) one table per map; geom: (k, nb, 2) element nodes.  jac
    is reftri.map_jacobians' d(x)/d(xi) (2, 2, npts, k), det (npts, k) and
    gphys the physical basis gradients (2, npts, nb, k).
    """
    jac, g = map_jacobians(grad, geom)
    (j00, j01), (j10, j11) = jac
    det = j00 * j11 - j01 * j10
    inv = np.array([[j11 / det, -j01 / det], [-j10 / det, j00 / det]])[:, :, :, None]
    # physical gradients: dphi/dx_i = inv[j,i] * dphi/dxi_j  (inv = d(xi)/d(x)),
    # summed over j from 0.0 as einsum("pds,pnd->pns") sums: the 0.0 turns a
    # -0.0 first term into +0.0
    gphys = inv[0] * g[0] + 0.0 + inv[1] * g[1]
    return jac, det, gphys


def element_stiffness(mesh, elems):
    """(k, nb, nb) stiffness matrices of the elements elems (ids or a slice).

    Entry (n, m) sums w_p det_p grad(phi_n) . grad(phi_m) over the quadrature
    points p in order, adding each point's two gradient products first: the
    order in which einsum("p,pns,pms->nm", w, gphys, gphys) sums one element.
    The sums run on _physical_gradients' element-innermost arrays, k lanes
    at a time; the result is a (k, nb, nb) view of them.
    """
    ref = mesh.ref
    _, det, gphys = _physical_gradients(ref.grad_q, mesh.geom[elems])
    wg = (ref.quad_weights[:, None] * det)[:, None] * gphys
    out = np.zeros((ref.n_nodes, ref.n_nodes, len(det[0])))
    term, second = np.empty_like(out), np.empty_like(out)
    for p in range(len(det)):
        np.multiply(wg[0, p, :, None], gphys[0, p, None], out=term)
        np.multiply(wg[1, p, :, None], gphys[1, p, None], out=second)
        term += second
        out += term
    return out.transpose(2, 0, 1)


def _stiffness_blocks(mesh):
    """element_stiffness of every element, one batch at a time."""
    return np.concatenate([element_stiffness(mesh, b) for b in _batches(mesh.n_elements())])


class FaceGeometry:
    """Quadrature geometry of k element edges (normals point out of their elements).

    elems and ledges: (k,) element ids and local edges; reverse takes each
    edge's quadrature points in reverse, as the neighbour across it sees
    them (RefTriangle.face_table).  Arrays carry a leading face index:
    basis (k, nq, nb), gphys (k, nq, nb, 2), normal and points (k, nq, 2),
    wq (k, nq), length (k,).
    """

    def __init__(self, mesh, elems, ledges, reverse=False):
        tables = [mesh.ref.face_table(le, reverse) for le in range(3)]
        self.basis = np.stack([basis for basis, _ in tables])[ledges]
        grad = np.stack([grad for _, grad in tables])[ledges]
        jac, _, gphys = _physical_gradients(grad, mesh.geom[elems])
        # the face index back in front: the face einsums keep the operands they had
        jac = np.ascontiguousarray(jac.transpose(3, 2, 0, 1))
        self.gphys = np.ascontiguousarray(gphys.transpose(3, 1, 2, 0))
        dxi_ds = 0.5 * (VERTICES[(ledges + 1) % 3] - VERTICES[ledges])
        tang = np.einsum("epxd,ed->epx", jac, dxi_ds)
        self.sjac = np.hypot(tang[..., 0], tang[..., 1])
        self.normal = np.stack([tang[..., 1], -tang[..., 0]], axis=2) / self.sjac[..., None]
        self.wq = mesh.ref.edge_quad_w * self.sjac
        self.length = self.wq.sum(axis=1)
        self.points = self.basis @ mesh.geom[elems]

    def normal_deriv(self):
        """D with D[k, p, n] = normal . grad(phi_n) at quad point p of face k."""
        return np.einsum("epx,epnx->epn", self.normal, self.gphys)


def _assemble(groups, ndof):
    """CSR matrix summing dense blocks.

    groups: (dofs (k, n), blocks (k, n, n)) pairs; block i sits on rows and
    columns dofs[i].  Entries go in group order, then block order, which
    fixes how the CSR conversion sums duplicates.  The indices are int32,
    which SuperLU takes without a copy.
    """
    dofs = [d.astype(np.int32) for d, _ in groups]
    rows = np.concatenate([np.repeat(d, d.shape[1], axis=1).ravel() for d in dofs])
    cols = np.concatenate([np.tile(d, d.shape[1]).ravel() for d in dofs])
    vals = np.concatenate([blocks.ravel() for _, blocks in groups])
    return sp.coo_matrix((vals, (rows, cols)), shape=(ndof, ndof)).tocsr()


# ---- CG ----------------------------------------------------------------------


class CGSpace:
    """Global continuous numbering: vertex, edge, then interior unknowns."""

    def __init__(self, mesh):
        self.mesh = mesh
        ref = mesh.ref
        per_edge = mesh.order - 1
        n_int = len(ref.interior_ids)
        self.ndof = len(mesh.vertices) + len(mesh.edges) * per_edge + mesh.n_elements() * n_int
        local = np.concatenate([ref.vertex_ids, *(ids[1:-1] for ids in ref.edge_ids),
                                ref.interior_ids])
        self.local_to_global = np.empty((mesh.n_elements(), ref.n_nodes), dtype=int)
        self.local_to_global[:, local] = mesh.node_ids(per_edge, n_int)


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
    K = _assemble([(space.local_to_global, _stiffness_blocks(mesh))], space.ndof)
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
    Kf = K[free]
    xf = _linear_solve(Kf[:, free], -Kf[:, dir_ids] @ dir_data)
    x = np.zeros((ndof, bc.ncomp))
    x[dir_ids] = dir_data
    x[free] = xf
    coeffs = x[space.local_to_global]               # (ne, nb, ncomp)
    return FieldSolution(mesh, coeffs, choice)


# ---- DG (symmetric interior penalty) ------------------------------------------


def _face_penalty(choice, mesh, length):
    return choice.penalty * (mesh.order + 1) ** 2 / length


def _sipg_face(w, jump, avg, mu):
    """-{dn u}[v] - {dn v}[u] + mu [u][v] over the unknowns of k faces.

    jump and avg: (k, nq, n) values of [phi] and {dn phi} of each face's n
    unknowns at its quadrature points, w (k, nq) the quadrature weights and
    mu (k,) the penalties.
    """
    def face_int(a, b):
        return np.einsum("ep,epn,epm->enm", w, a, b)

    return (-face_int(jump, avg) - face_int(avg, jump)
            + mu[:, None, None] * face_int(jump, jump))


def _matched_faces(mesh, eL, leL, eR, leR):
    """FaceGeometry of k interior faces seen from eL and, reversed, from eR.

    Conforming meshes share the edge geometry, so the reversed edge
    parameter of eR meets each quadrature point of eL; verified against the
    physical points of every face.
    """
    fL = FaceGeometry(mesh, eL, leL)
    fR = FaceGeometry(mesh, eR, leR, reverse=True)
    err = np.abs(fR.points - fL.points).max(axis=(1, 2))
    bad = np.flatnonzero(err > 1e-9 * (1.0 + mesh.bbox_diag))
    if len(bad):
        raise SolverError(f"face geometry mismatch across an interior edge: {err[bad[0]]:.3e}")
    return fL, fR


def _interior_blocks(mesh, choice, eL, leL, eR, leR):
    """SIPG blocks (k, 2 nb, 2 nb) of k interior faces on the unknowns of eL, then eR."""
    fL, fR = _matched_faces(mesh, eL, leL, eR, leR)
    DnR = np.einsum("epx,epnx->epn", fL.normal, fR.gphys)
    jump = np.concatenate([fL.basis, -fR.basis], axis=2)
    avg = 0.5 * np.concatenate([fL.normal_deriv(), DnR], axis=2)
    return _sipg_face(fL.wq, jump, avg, _face_penalty(choice, mesh, fL.length))


def build_dg_system(mesh, bc, choice):
    """(K, rhs (ndof, ncomp)) with ndof = elements x nodes.

    Blocks go in element order, then interior faces in mesh.face_pairs
    order, then boundary faces.  An element with two boundary faces gets
    their right-hand sides in face order.
    """
    nb = mesh.ref.n_nodes
    dofs = np.arange(mesh.n_elements() * nb).reshape(-1, nb)
    pairs = mesh.face_pairs
    interior = np.concatenate(
        [_interior_blocks(mesh, choice, *pairs[b].T) for b in _batches(len(pairs))])

    # boundary faces are few (they grow like the square root of the elements): one pass
    elems, ledges = np.array([(f.elem, f.ledge) for f in mesh.boundary_faces]).T
    fg = FaceGeometry(mesh, elems, ledges)
    B, Dn, w = fg.basis, fg.normal_deriv(), fg.wq
    mu = _face_penalty(choice, mesh, fg.length)
    g = np.array([bc.values_at(e, le, mesh.ref.edge_quad_x)          # (k, nq, ncomp)
                  for e, le in zip(elems.tolist(), ledges.tolist())])
    rhs = np.zeros((dofs.size, bc.ncomp))
    np.add.at(rhs, dofs[elems], -np.einsum("ep,epn,epc->enc", w, Dn, g)
              + mu[:, None, None] * np.einsum("ep,epn,epc->enc", w, B, g))
    K = _assemble([(dofs, _stiffness_blocks(mesh)),
                   (np.concatenate([dofs[pairs[:, 0]], dofs[pairs[:, 2]]], axis=1), interior),
                   (dofs[elems], _sipg_face(w, B, Dn, mu))], dofs.size)
    return K, rhs


def solve_dg(mesh, bc, choice):
    K, rhs = build_dg_system(mesh, bc, choice)
    K = K.tocsc()                   # no CSR copy stays alive through the factorization
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
    corners = np.array([c.position for c in domain.corner_inventory()]).reshape(-1, 2)
    d = mesh.vertices[mesh.triangles][:, :, None, :] - corners        # (ne, 3, corners, 2)
    ring = (np.hypot(d[..., 0], d[..., 1]) < 1e-9 * (1.0 + mesh.bbox_diag)).any(axis=(1, 2))
    left, _, right, _ = mesh.face_pairs.T
    for _ in range(rings):
        grown = ring.copy()
        grown[right[ring[left]]] = True
        grown[left[ring[right]]] = True
        ring = grown
    return set(np.flatnonzero(ring).tolist())


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
    pairs = mesh.face_pairs
    per_edge = []
    for b in _batches(len(pairs)):
        eL, leL, eR, leR = pairs[b].T
        fL, fR = _matched_faces(mesh, eL, leL, eR, leR)
        jump = fL.basis @ solution.coeffs[eL] - fR.basis @ solution.coeffs[eR]
        per_edge.append(np.sqrt(np.einsum("ep,epc->ec", fL.wq, jump**2)))
    arr = np.concatenate(per_edge)
    summary = {
        "max": float(arr.max()) if arr.size else 0.0,
        "mean": float(arr.mean()) if arr.size else 0.0,
    }
    return arr, summary
