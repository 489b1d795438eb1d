import math

import numpy as np
import pytest

from quadfield.reftri import (VERTICES, _index_pairs, _JacobiTable, _xi_to_ab,
                              collapsed_quadrature, gauss_lobatto,
                              quadrature_for_degree, ref_triangle,
                              warp_blend_nodes)


# ---- per-mode reference: one Jacobi recursion per Dubiner mode ---------------


def jacobi_polynomial(x, alpha, beta, n):
    """Orthonormal Jacobi polynomial values (L2-normalized on [-1,1])."""
    x = np.asarray(x, dtype=float)
    gamma0 = (2.0 ** (alpha + beta + 1) / (alpha + beta + 1.0)
              * math.gamma(alpha + 1) * math.gamma(beta + 1)
              / math.gamma(alpha + beta + 1))
    p_prev = np.full_like(x, 1.0 / math.sqrt(gamma0))
    if n == 0:
        return p_prev
    gamma1 = (alpha + 1.0) * (beta + 1.0) / (alpha + beta + 3.0) * gamma0
    p = ((alpha + beta + 2.0) * x / 2.0 + (alpha - beta) / 2.0) / math.sqrt(gamma1)
    if n == 1:
        return p
    aold = (2.0 / (2.0 + alpha + beta)
            * math.sqrt((alpha + 1.0) * (beta + 1.0) / (alpha + beta + 3.0)))
    for i in range(1, n):
        h1 = 2.0 * i + alpha + beta
        anew = (2.0 / (h1 + 2.0)
                * math.sqrt((i + 1.0) * (i + 1.0 + alpha + beta)
                            * (i + 1.0 + alpha) * (i + 1.0 + beta)
                            / ((h1 + 1.0) * (h1 + 3.0))))
        bnew = -(alpha * alpha - beta * beta) / (h1 * (h1 + 2.0))
        p, p_prev = ((x - bnew) * p - aold * p_prev) / anew, p
        aold = anew
    return p


def grad_jacobi_polynomial(x, alpha, beta, n):
    if n == 0:
        return np.zeros_like(np.asarray(x, dtype=float))
    return (math.sqrt(n * (n + alpha + beta + 1.0))
            * jacobi_polynomial(x, alpha + 1, beta + 1, n - 1))


def dubiner(xi, i, j):
    a, b = _xi_to_ab(np.asarray(xi, dtype=float))
    h1 = jacobi_polynomial(a, 0.0, 0.0, i)
    h2 = jacobi_polynomial(b, 2.0 * i + 1.0, 0.0, j)
    return math.sqrt(2.0) * h1 * h2 * (1.0 - b) ** i


def grad_dubiner(xi, i, j):
    a, b = _xi_to_ab(np.asarray(xi, dtype=float))
    fa = jacobi_polynomial(a, 0.0, 0.0, i)
    dfa = grad_jacobi_polynomial(a, 0.0, 0.0, i)
    gb = jacobi_polynomial(b, 2.0 * i + 1.0, 0.0, j)
    dgb = grad_jacobi_polynomial(b, 2.0 * i + 1.0, 0.0, j)

    dr = dfa * gb
    if i > 0:
        dr = dr * (0.5 * (1.0 - b)) ** (i - 1)
    ds = dfa * gb * 0.5 * (1.0 + a)
    if i > 0:
        ds = ds * (0.5 * (1.0 - b)) ** (i - 1)
    tmp = dgb * (0.5 * (1.0 - b)) ** i
    if i > 0:
        tmp = tmp - 0.5 * i * gb * (0.5 * (1.0 - b)) ** (i - 1)
    ds = ds + fa * tmp
    scale = 2.0 ** (i + 0.5)
    return dr * scale, ds * scale


def dubiner_vandermonde(order, xi):
    xi = np.asarray(xi, dtype=float)
    cols = [dubiner(xi, i, j) for i, j in _index_pairs(order)]
    return np.stack(cols, axis=1)


def dubiner_grad_vandermonde(order, xi):
    xi = np.asarray(xi, dtype=float)
    vr, vs = [], []
    for i, j in _index_pairs(order):
        dr, ds = grad_dubiner(xi, i, j)
        vr.append(dr)
        vs.append(ds)
    return np.stack(vr, axis=1), np.stack(vs, axis=1)


def _kernel_points(n):
    """n points in the reference triangle; the three vertices come first."""
    rng = np.random.default_rng(n)
    lam = rng.dirichlet(np.ones(3), size=n)
    pts = lam @ VERTICES
    pts[:min(n, 3)] = VERTICES[:min(n, 3)]
    return pts


def assert_same_bits(got, want):
    """Equal values, and equal bytes, so signed zeros must match as well."""
    assert np.array_equal(got, want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_kernel_matches(order, pts):
    kernel = ref_triangle(order).kernel
    assert_same_bits(kernel.values(pts), dubiner_vandermonde(order, pts))
    for got, want in zip(kernel.gradients(pts), dubiner_grad_vandermonde(order, pts)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("families", [
    [(0.0, 0.0, 1)], [(0.0, 0.0, 6)],
    [(1.0, 0.0, 5), (3.0, 0.0, 4), (4.0, 1.0, 4), (2.0, 1.0, 2), (9.0, 0.0, 0)]])
def test_jacobi_table_matches_recursion_bitwise(families):
    x = np.linspace(-1.0, 1.0, 11)[:, None] * np.arange(1, len(families) + 1)
    table = _JacobiTable(families)(x)
    for f, (alpha, beta, top) in enumerate(families):
        want = np.stack([jacobi_polynomial(x[:, f], alpha, beta, n)
                         for n in range(top + 1)], axis=1)
        assert_same_bits(table[:, f, :top + 1], want)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("npts", [1, 3, 7, 200])
def test_kernel_matches_per_mode_recursion_bitwise(order, npts):
    assert_kernel_matches(order, _kernel_points(npts))


@pytest.mark.parametrize("order", [1, 3, 6])
def test_kernel_bitwise_at_the_collapsed_vertex_and_outside(order):
    """(-1, 1) is where a is clamped; Newton iterates also leave T."""
    rng = np.random.default_rng(order)
    pts = np.vstack([[-1.0, 1.0], [0.5, 1.0], rng.uniform(-3.0, 3.0, size=(50, 2))])
    assert_kernel_matches(order, pts)


def test_reference_vandermonde_is_the_nodal_one():
    ref = ref_triangle(4)
    assert_same_bits(ref.vandermonde, dubiner_vandermonde(4, ref.nodes))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_node_count(order):
    assert len(warp_blend_nodes(order)) == (order + 1) * (order + 2) // 2


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_quadrature_weights(order):
    ref = ref_triangle(order)
    assert ref.quad_weights.min() > 0
    assert ref.quad_weights.sum() == pytest.approx(2.0, abs=1e-13)


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_quadrature_exactness(order):
    ref = ref_triangle(order)
    fine_pts, fine_w = collapsed_quadrature(40)
    degree = 2 * order + 2
    for a in range(degree + 1):
        b = degree - a
        val = ref.quad_weights @ (ref.quad_points[:, 0] ** a
                                  * ref.quad_points[:, 1] ** b)
        exact = fine_w @ (fine_pts[:, 0] ** a * fine_pts[:, 1] ** b)
        assert val == pytest.approx(exact, abs=1e-13)


def test_quadrature_for_degree():
    pts, w = quadrature_for_degree(8)
    fine_pts, fine_w = collapsed_quadrature(40)
    val = w @ (pts[:, 0] ** 5 * pts[:, 1] ** 3)
    exact = fine_w @ (fine_pts[:, 0] ** 5 * fine_pts[:, 1] ** 3)
    assert val == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("order", [1, 3, 5])
def test_lagrange_cardinality(order):
    ref = ref_triangle(order)
    v = ref.basis_at(ref.nodes)
    assert np.abs(v - np.eye(ref.n_nodes)).max() < 1e-11


def test_edge_nodes_are_gauss_lobatto():
    ref = ref_triangle(4)
    gl = gauss_lobatto(4)
    r = ref.nodes[ref.edge_ids[0]][:, 0]
    assert np.abs(r - gl).max() < 1e-10


def test_gradient_consistency():
    ref = ref_triangle(3)
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(-0.9, -0.1, 20),
                           rng.uniform(-0.9, -0.1, 20)])
    eps = 1e-6
    g = ref.grad_basis_at(pts)
    for d in range(2):
        shift = np.zeros(2)
        shift[d] = eps
        fd = (ref.basis_at(pts + shift) - ref.basis_at(pts - shift)) / (2 * eps)
        assert np.abs(fd - g[:, :, d]).max() < 1e-7


def test_basis_reproduces_polynomials():
    ref = ref_triangle(3)
    f = lambda x, y: 1.0 + x - 2 * y + x * y - x**3 + y**2
    coeffs = f(ref.nodes[:, 0], ref.nodes[:, 1])
    pts, _ = collapsed_quadrature(6)
    vals = ref.basis_at(pts) @ coeffs
    assert np.abs(vals - f(pts[:, 0], pts[:, 1])).max() < 1e-11
