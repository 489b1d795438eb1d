"""The one-lane Newton loop, a kernel-call counter, the proximity queries on
scipy's KD-tree and the einsum Jacobian kernels of TriMesh."""

import math

import numpy as np
from scipy.spatial import cKDTree

from quadfield.errors import MeshError
from quadfield.geometry import in_region
from quadfield.reftri import BARYCENTER, RefTriangle, _JacobiTable
from reference.reftri import in_reference


def _invert_map_scalar(mesh, e, x, max_iter=50, slack=1e-8):
    """Newton inversion of the element map; None on failure."""
    x = np.asarray(x, dtype=float)
    tol = 1e-12 * mesh.bbox_diag
    xi = BARYCENTER.copy()
    for _ in range(max_iter):
        r = mesh.map_to_physical(e, xi)[0] - x
        if np.hypot(*r) < tol:
            break
        j = mesh.jacobian(e, xi)[0]
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        if abs(det) < 1e-300:
            return None
        dxi = np.array([(j[1, 1] * r[0] - j[0, 1] * r[1]) / det,
                        (-j[1, 0] * r[0] + j[0, 0] * r[1]) / det])
        xi = xi - dxi
        if np.abs(xi).max() > 10.0:
            return None
    else:
        return None
    if not in_reference(xi, slack=slack):
        return None
    return xi


def _count_kernel_calls(monkeypatch):
    counts = {"table": 0, "basis_at": 0, "grad_basis_at": 0}

    def counted(name, method):
        def wrapper(self, xi):
            counts[name] += 1
            return method(self, xi)
        return wrapper

    monkeypatch.setattr(_JacobiTable, "__call__", counted("table", _JacobiTable.__call__))
    for name in ("basis_at", "grad_basis_at"):
        monkeypatch.setattr(RefTriangle, name, counted(name, getattr(RefTriangle, name)))
    return counts


def reference_check_feature_size(points, edges, target_h):
    """_check_feature_size as it stood, on cKDTree.query_pairs."""
    tree = cKDTree(points)
    adjacency = {}
    local_h = {}
    for (i, j, *_rest) in edges:
        adjacency.setdefault(i, set()).add(j)
        adjacency.setdefault(j, set()).add(i)
        d = float(np.hypot(*(points[i] - points[j])))
        local_h[i] = min(local_h.get(i, math.inf), d)
        local_h[j] = min(local_h.get(j, math.inf), d)
    pairs = tree.query_pairs(0.35 * target_h)
    for (i, j) in sorted(pairs):
        if j in adjacency.get(i, ()):
            continue
        d = float(np.hypot(*(points[i] - points[j])))
        if d < 0.2 * min(local_h[i], local_h[j]):
            raise MeshError(
                "boundary features thinner than the sampling resolves; "
                f"retry with target_h <= {target_h / 2:.4g}")


def reference_interior_lattice(domain, boundary_pts, target_h, loop_polys):
    """_interior_lattice as it stood, its distance filter on cKDTree.query."""
    lo, hi = domain.bbox
    dy = target_h * math.sqrt(3.0) / 2.0
    rows = []
    for r in range(1, int(math.floor((hi[1] - lo[1]) / dy)) + 1):
        x0 = lo[0] + (target_h / 2.0 if r % 2 else target_h)
        cols = int(math.floor((hi[0] - x0) / target_h)) + 1
        rows.append(np.stack([x0 + np.arange(cols) * target_h,
                              np.full(cols, lo[1] + r * dy)], axis=1))
    pts = np.concatenate(rows) if rows else np.empty((0, 2))
    pts = pts[in_region(pts, loop_polys[0], loop_polys[1:])]
    return pts[~(cKDTree(boundary_pts).query(pts)[0] <= 0.7 * target_h)]


def einsum_jacobian(mesh, e, xi):
    """TriMesh.jacobian as it was: 2x2 Jacobians d(x)/d(xi), shape (npts, 2, 2)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    g = mesh.ref.grad_basis_at(xi)            # (npts, nb, 2)
    return np.einsum("pnd,nx->pxd", g, mesh.geom[e])


def einsum_det_jacobians(mesh, e=slice(None)):
    """TriMesh.det_jacobians as it was: (npts,) for one element id, (k, npts) else."""
    jac = np.einsum("pnd,...nx->...pxd", mesh.ref.grad_q, mesh.geom[e])
    return jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
