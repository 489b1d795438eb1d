"""The solver's einsum gradients and stiffness, before reftri.map_jacobians,
and FieldSolution.eval, the direct evaluation probe values are checked against."""

import numpy as np


def solution_eval(solution, e, xi):
    """Interpolated components at reference points xi of element e."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    return solution.mesh.ref.basis_at(xi) @ solution.coeffs[e]


def einsum_physical_gradients(grad, geom):
    """(jac, det, gphys) of k element maps at reference points.

    grad: (npts, nb, 2) reference basis gradients shared by every map, or
    (k, npts, nb, 2) one table per map; geom: (k, nb, 2) element nodes.  jac
    is d(x)/d(xi) (k, npts, 2, 2) and gphys the physical basis gradients
    (k, npts, nb, 2).
    """
    grad = np.broadcast_to(grad, (len(geom),) + grad.shape[-3:])
    jac = np.einsum("epnd,enx->epxd", grad, geom)
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    inv = np.empty_like(jac)
    inv[..., 0, 0] = jac[..., 1, 1] / det
    inv[..., 0, 1] = -jac[..., 0, 1] / det
    inv[..., 1, 0] = -jac[..., 1, 0] / det
    inv[..., 1, 1] = jac[..., 0, 0] / det
    # physical gradients: dphi/dx_i = inv[j,i] * dphi/dxi_j  (inv = d(xi)/d(x)),
    # summed over j from 0.0 as einsum("pds,pnd->pns") sums: the 0.0 turns a
    # -0.0 first term into +0.0
    row = inv[:, :, None]                       # (k, npts, 1, 2, 2): one per node
    gphys = row[..., 0, :] * grad[..., 0, None] + 0.0 + row[..., 1, :] * grad[..., 1, None]
    return jac, det, gphys


def einsum_element_stiffness(mesh, elems):
    """(k, nb, nb) stiffness matrices of the elements elems (ids or a slice).

    Entry (n, m) sums w_p det_p grad(phi_n) . grad(phi_m) over the quadrature
    points p in order, adding each point's two gradient products first: the
    order in which einsum("p,pns,pms->nm", w, gphys, gphys) sums one element.
    """
    ref = mesh.ref
    _, det, gphys = einsum_physical_gradients(ref.grad_q, mesh.geom[elems])
    wg = (ref.quad_weights * det)[..., None, None] * gphys
    out = np.zeros((len(gphys), ref.n_nodes, ref.n_nodes))
    term, second = np.empty_like(out), np.empty_like(out)
    for p in range(gphys.shape[1]):
        np.multiply(wg[:, p, :, None, 0], gphys[:, p, None, :, 0], out=term)
        np.multiply(wg[:, p, :, None, 1], gphys[:, p, None, :, 1], out=second)
        term += second
        out += term
    return out
