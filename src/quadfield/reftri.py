"""Reference triangle: node sets, quadrature, and the nodal polynomial basis.

The reference element is T = {(x1, x2): x1, x2 >= -1, x1 + x2 <= 0} with
vertices (-1,-1), (1,-1), (-1,1).  Interpolation nodes are warp-and-blend
points (well conditioned up to high order, with Gauss-Lobatto distributions
along the edges so that shared-edge node sets coincide between neighboring
elements).  The orthonormal Dubiner basis provides Vandermonde matrices from
which Lagrange basis values and gradients at arbitrary points follow.

DubinerKernel builds every Dubiner mode and its gradient for all points in
one pass (the all-modes Vandermonde of Hesthaven & Warburton, 2008): one
three-term Jacobi recurrence runs over an array of (alpha, beta) families,
one row per family.  Its constants are the Python floats that the
recursion for a single family computes, and every table entry goes through
the same IEEE operations in the same order as that recursion run once per
mode, so the Vandermonde matrices are bit-identical to the per-mode
construction; only the Python overhead per mode is gone.  Point location
inverts element maps by lockstep Newton (invert_maps), which hands each
root's basis row to its caller, so evaluating the field there needs no
further table.  Every lane starts from the barycenter, so its first step
(first_steps: the image of the barycenter and the Jacobian there) does not
depend on the target; TriMesh caches it per element, and a location call's
first iteration is gathers and elementwise arithmetic.

Quadrature uses collapsed-coordinate Gauss x Gauss-Jacobi(1,0) rules: with n
points per direction the rule is exact for total degree 2n - 1, has strictly
positive weights, and the weights sum to the reference area 2.  The
Gauss-Jacobi rules, (1, 0) for quadrature and (1, 1) for the Gauss-Lobatto
interior nodes, come from the Golub-Welsch method (Math. Comp. 23, 1969):
the eigenvalues of the Jacobi matrix, then one Newton step.  _gauss_jacobi
runs scipy.special.roots_jacobi's algorithm with the same IEEE operations
in the same order, so its nodes and weights are bitwise roots_jacobi's.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import eigvals_banded

VERTICES = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
BARYCENTER = np.array([-1.0 / 3.0, -1.0 / 3.0])
# entries (j11, j01, j00, j10) of a flat 2 x 2 Jacobian, times (r0, r1, r1, r0)
_ADJUGATE = np.array([3, 1, 0, 2])
_ADJUGATE_R = np.array([0, 1, 1, 0])

# Warp-and-blend alpha constants, indexed by polynomial order 1..15.
_ALPHA_OPT = (0.0, 0.0, 1.4152, 0.1001, 0.2751, 0.9800, 1.0999, 1.2832,
              1.3648, 1.4773, 1.4959, 1.5743, 1.5770, 1.6223, 1.6258)


def n_nodes(order):
    return (order + 1) * (order + 2) // 2


def _jacobi_constants(alpha, beta, n):
    """Python-float constants of the orthonormal Jacobi recurrence up to degree n.

    Returns (p0, c1, c2, sqrt_gamma1, steps): P_0 = p0, P_1(x) =
    (c1 * x / 2 + c2) / sqrt_gamma1, and steps[k - 1] = (b, a_old, a_new)
    gives P_{k+1}(x) = ((x - b) * P_k(x) - a_old * P_{k-1}(x)) / a_new.
    """
    gamma0 = (2.0 ** (alpha + beta + 1) / (alpha + beta + 1.0)
              * math.gamma(alpha + 1) * math.gamma(beta + 1)
              / math.gamma(alpha + beta + 1))
    gamma1 = (alpha + 1.0) * (beta + 1.0) / (alpha + beta + 3.0) * gamma0
    steps = []
    aold = (2.0 / (2.0 + alpha + beta)
            * math.sqrt((alpha + 1.0) * (beta + 1.0) / (alpha + beta + 3.0)))
    for i in range(1, n):
        h1 = 2.0 * i + alpha + beta
        anew = (2.0 / (h1 + 2.0)
                * math.sqrt((i + 1.0) * (i + 1.0 + alpha + beta)
                            * (i + 1.0 + alpha) * (i + 1.0 + beta)
                            / ((h1 + 1.0) * (h1 + 3.0))))
        bnew = -(alpha * alpha - beta * beta) / (h1 * (h1 + 2.0))
        steps.append((bnew, aold, anew))
        aold = anew
    return (1.0 / math.sqrt(gamma0), alpha + beta + 2.0, (alpha - beta) / 2.0,
            math.sqrt(gamma1), steps)


def _jacobi_p(n, a, b, x):
    """P_n^(a,b)(x) for integer a and b: scipy.special.eval_jacobi's loop for
    an integer degree, operation for operation."""
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return 0.5 * (2 * (a + 1) + (a + b + 2) * (x - 1))
    d = (a + b + 2) * (x - 1) / (2 * (a + 1))
    p = d + 1
    for k in map(float, range(1, n)):
        t = 2 * k + a + b
        d = ((t * (t + 1) * (t + 2) * (x - 1) * p + 2 * k * (k + b) * (t + 2) * d)
             / (2 * (k + a + 1) * (k + a + b + 1) * t))
        p = d + p
    # scipy's binom(n + a, n): an exact integer here, as math.comb's
    return math.comb(n + int(a), n) * p


def _gegenbauer_c(n, x):
    """C_n^(3/2)(x): scipy.special.eval_gegenbauer's loop for an integer
    degree, operation for operation, at every x (scipy itself switches to a
    power series where |x| < 1e-5)."""
    if n == 0:
        return np.ones_like(x)
    d = x - 1                            # n = 1 skips the loop: 3 x, scipy's 2 lambda x
    p = x
    for k in map(float, range(1, n)):
        d = (2 * (k + 1.5) / (k + 3.0)) * (x - 1) * p + (k / (k + 3.0)) * d
        p = d + p
    return math.comb(n + 2, n) * p


def _mid_scaled(v):
    """v divided by the geometric mean of its largest and smallest |v|."""
    log_v = np.log(np.abs(v))
    return v / np.exp((log_v.max() + log_v.min()) / 2.)


def _gauss_jacobi(n, beta):
    """n-point Gauss-Jacobi rule for the weight (1 - x) (1 + x)^beta, beta = 1 or 0.

    Bitwise scipy.special.roots_jacobi(n, 1, beta): the eigenvalues of the
    Jacobi matrix band scipy builds, one Newton step, and for beta = 0 the
    weights from log-normalised P_{n-1} and P_n', scaled to sum to
    mu0 = 2^2 B(2, 1) = 2.  scipy takes beta = 1 as Gegenbauer with
    lambda = 3/2 and symmetrises the nodes, which makes the middle node of
    an odd n exactly 0; it is the only node in eval_gegenbauer's |x| <
    1e-5 branch, so _gegenbauer_c needs no such branch.  Returns (nodes,
    weights), with weights None for beta = 1.
    """
    # scipy's band with the parameters put in; what drops is exact: + 0.0,
    # and the factor 1.0 that (1, 0)'s np.where takes at k = 1, sqrt(1) here
    k = np.arange(1.0, n)
    band = np.zeros((2, n))              # upper band form: superdiagonal, diagonal
    if beta == 1.0:
        band[0, 1:] = np.sqrt(k * (k + 2.0) / (4 * (k + 1.5) * (k + 0.5)))
        x = eigvals_banded(band, overwrite_a_band=True)
        dy = (-n * x * _gegenbauer_c(n, x) + (n + 2.0) * _gegenbauer_c(n - 1, x)) / (1 - x ** 2)
        x -= _gegenbauer_c(n, x) / dy
        return (x - x[::-1]) / 2, None
    band[0, 1:] = (2.0 / (2.0 * k + 1.0) * np.sqrt((k + 1.0) * k / (2 * k + 2.0))
                   * np.sqrt(k * (k + 1.0) / (2.0 * k)))
    k = np.arange(float(n))
    band[1] = -1.0 / ((2.0 * k + 1.0) * (2.0 * k + 3.0))
    x = eigvals_banded(band, overwrite_a_band=True)
    dy = 0.5 * (n + 2.0) * _jacobi_p(n - 1, 2.0, 1.0, x)
    x -= _jacobi_p(n, 1.0, 0.0, x) / dy
    w = 1.0 / (_mid_scaled(_jacobi_p(n - 1, 1.0, 0.0, x)) * _mid_scaled(dy))
    w *= 2.0 / w.sum()
    return x, w


def gauss_lobatto(order):
    """order+1 Gauss-Lobatto points on [-1, 1]."""
    if order == 1:
        return np.array([-1.0, 1.0])
    interior, _ = _gauss_jacobi(order - 1, 1.0)
    return np.concatenate([[-1.0], np.sort(interior), [1.0]])


def _xi_to_ab(xi):
    """Collapsed coordinates for Dubiner evaluation: a is -1 where s is within 1e-14 of 1."""
    r, s = xi[:, 0], xi[:, 1]
    d = 1.0 - s
    ok = np.abs(d) > 1e-14
    return np.where(ok, 2.0 * (1.0 + r) / np.where(ok, d, 1.0) - 1.0, -1.0), s


def _index_pairs(order):
    return [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]


class _JacobiTable:
    """Orthonormal Jacobi values of many (alpha, beta) families in one recurrence.

    families: [(alpha, beta, top degree)] with non-increasing top degrees,
    the first one >= 1.  The families still recurring at degree k are then a
    prefix, and each step of the recurrence is one slice over all families
    and points.
    """

    def __init__(self, families):
        tops = [top for _, _, top in families]
        self.top = tops[0]
        consts = [_jacobi_constants(al, be, top) for al, be, top in families]
        self.rows = [sum(t >= k for t in tops) for k in range(self.top + 1)]
        self.p0 = np.array([c[0] for c in consts])[:, None]
        linear = consts[:self.rows[1]]
        self.c1, self.c2, self.sqrt_gamma1 = (np.array([c[q] for c in linear])[:, None]
                                              for q in (1, 2, 3))
        self.steps = []                      # per degree: (b, a_old, a_new) columns
        for k in range(1, self.top):
            live = [c[4][k - 1] for c in consts[:self.rows[k + 1]]]
            self.steps.append(tuple(np.array(v)[:, None] for v in zip(*live)))

    def __call__(self, x):
        """x: (nfam, npts) abscissae -> (top + 1, nfam, npts); unset above a family's top."""
        out = np.empty((self.top + 1,) + x.shape)
        out[0] = self.p0
        n = self.rows[1]
        np.divide(self.c1 * x[:n] / 2.0 + self.c2, self.sqrt_gamma1, out=out[1, :n])
        for k, (bnew, aold, anew) in enumerate(self.steps, start=1):
            n = self.rows[k + 1]
            np.divide((x[:n] - bnew) * out[k, :n] - aold * out[k - 1, :n], anew,
                      out=out[k + 1, :n])
        return out


class DubinerKernel:
    """Every orthonormal Dubiner mode of one order, and its gradient, at once.

    Mode (i, j) is sqrt(2) P_i^(0,0)(a) P_j^(2i+1,0)(b) (1 - b)^i in the
    collapsed coordinates (a, b), and d/dx P_n^(al,be) =
    sqrt(n (n + al + be + 1)) P_{n-1}^(al+1,be+1) (Hesthaven & Warburton,
    2008, sec. 6.1).  One _JacobiTable holds the four kinds of Jacobi factor
    of every mode at every point, and one table the powers of (1 - b) and
    (1 - b) / 2; each is gathered for all modes with one row take.  The
    tables are mode-major (modes x points), so values and gradients come
    out as the transposes of C-ordered arrays.  Modes are ordered i-major,
    so those with i > 0 are a suffix.
    """

    def __init__(self, order):
        self.order = p = order
        pairs = _index_pairs(p)
        # (key, alpha, beta, top degree) of P^(0,0)(a), P^(2i+1,0)(b) and of
        # their derivative families P^(1,1)(a), P^(2i+2,1)(b)
        fams = ([("a", 0.0, 0.0, p)]
                + [(("b", i), 2.0 * i + 1.0, 0.0, p - i) for i in range(p + 1)]
                + [("da", 1.0, 1.0, p - 1)]
                + [(("db", i), 2.0 * i + 2.0, 1.0, p - i - 1) for i in range(p)])
        fams.sort(key=lambda f: -f[3])
        col = {f[0]: c for c, f in enumerate(fams)}
        self._jacobi = _JacobiTable([f[1:] for f in fams])
        self._on_a = np.array([f[0] in ("a", "da") for f in fams])[:, None]

        def row(key, degree):                # row of (family, degree) in the flat table
            return degree * len(fams) + col[key]

        fa = [row("a", i) for i, _ in pairs]
        dfa = [row("da", max(i - 1, 0)) for i, _ in pairs]
        dgb = [row(("db", i), j - 1) if j else row("da", 0) for i, j in pairs]
        # Per mode, the rows of: fa = P_i(a), to become the value; P_{i-1}(a),
        # to become d/dr; a slot for d/ds; P_{j-1}(b); gb = P_j(b); fa.  A mode
        # without a derivative reads the constant p0 > 0 times scale 0: +0.0.
        self._factor_rows = np.array(
            fa + dfa + dfa + dgb + [row(("b", i), j) for i, j in pairs] + fa)
        # sqrt(2) for the value, and sqrt(n (n + alpha + beta + 1)) of
        # d/dx P_n (every sum an exact integer) for the derivatives
        self._scale = np.array(
            [[math.sqrt(2.0)] * len(pairs), [math.sqrt(i * (i + 1.0)) for i, _ in pairs],
             [1.0] * len(pairs), [math.sqrt(j * (j + 2.0 * i + 2.0)) for i, j in pairs]])[:, :, None]
        # rows of (1 - b)^i, ((1 - b) / 2)^(i - 1) twice (^0 for i = 0), ((1 - b) / 2)^i
        hp_m1 = [2 * max(i - 1, 0) + 1 for i, _ in pairs]
        self._power_rows = np.array([2 * i for i, _ in pairs] + hp_m1 + hp_m1
                                    + [2 * i + 1 for i, _ in pairs])
        self._upper = slice(p + 1, None)     # modes with i > 0
        self._half_i = np.array([0.5 * i for i, _ in pairs[p + 1:]])[:, None]
        self._grad_scale = np.array([2.0 ** (i + 0.5) for i, _ in pairs])[:, None]

    def values(self, xi):
        """Vandermonde matrix V[p, m] = mode m at xi[p]: shape (npts, n_modes)."""
        return self.table(xi)[0].T

    def gradients(self, xi):
        """(d/dr, d/ds) of the Vandermonde matrix: two (npts, n_modes) arrays."""
        _, dr, ds = self.table(xi)
        return dr.T, ds.T

    def table(self, xi):
        """(3, n_modes, npts): the Vandermonde matrix, d/dr and d/ds, mode-major.

        Every entry takes the IEEE operations, in the order, of the
        per-mode recursion: values sqrt(2) fa gb (1 - b)^i, and gradients
        as in Hesthaven & Warburton's GradSimplex2DP.
        """
        a, b = _xi_to_ab(np.asarray(xi, dtype=float))
        npts = len(a)
        modes = len(self._grad_scale)
        jac = self._jacobi(np.where(self._on_a, a, b))
        # explicit row counts: reshape cannot infer -1 when npts is 0
        jac = jac.reshape(jac.shape[0] * jac.shape[1], npts)
        f = jac[self._factor_rows].reshape(6, modes, npts)
        _, dr, ds, tmp, gb, fa = f
        # (1 - b)^n and ((1 - b) / 2)^n; n = 0 and 1 are exact, as numpy's
        # own x ** 0 and x ** 1 are, and every other n stays a power
        powers = np.empty((self.order + 1, 2, npts))
        powers[0] = 1.0
        np.subtract(1.0, b, out=powers[1, 0])
        np.multiply(0.5, powers[1, 0], out=powers[1, 1])
        for n in range(2, self.order + 1):
            powers[n] = powers[1] ** n
        pw = powers.reshape(2 * self.order + 2, npts)[self._power_rows].reshape(4, modes, npts)

        # in place through views: f[s] *= t would copy each result back onto itself
        head, pair, vals, grads = f[:4], f[:2], f[:3], f[1:3]
        head *= self._scale
        pair *= gb                           # sqrt(2) fa gb, dfa gb
        np.multiply(dr, 0.5, out=ds)
        ds *= 1.0 + a
        vals *= pw[:3]                       # v (1 - b)^i; dr, ds times 1.0 where i = 0
        tmp *= pw[3]
        up = self._upper
        t = tmp[up]
        t -= self._half_i * gb[up] * pw[1, up]
        ds += fa * tmp
        grads *= self._grad_scale
        return vals


def _map_jacobian(grad, nodes):
    """Flat Jacobian (j00, j01, j10, j11) (k, 4) and its determinant (k,) of k
    maps nodes (k, n_nodes, 2), each at the point of its gradient rows grad[k]."""
    j = np.einsum("knd,knx->kxd", grad, nodes).reshape(-1, 4)
    return j, j[:, 0] * j[:, 3] - j[:, 1] * j[:, 2]


def map_jacobians(grad, geom):
    """Jacobians d(x)/d(xi) of k element maps at reference points, element index innermost.

    grad: (npts, nb, 2) reference basis gradients shared by every map, or
    (k, npts, nb, 2) one table per map; geom: (k, nb, 2) element nodes.
    Returns (jac, g), both C-contiguous: jac (2, 2, npts, k) with jac[x, d,
    p, e] = d(x_x)/d(xi_d) of map e at point p, and the gradients g as (2,
    npts, nb, 1) or (2, npts, nb, k).  Each entry is summed over the nodes
    in ascending order from 0.0, one in-place multiply-add per node: the
    order, and so the bits, of einsum("epnd,enx->epxd", grad, geom).
    """
    gx = np.ascontiguousarray(geom.transpose(2, 1, 0))             # (2, nb, k)
    g = np.ascontiguousarray(np.moveaxis(grad, (-1, -3, -2), (0, 1, 2)))
    if g.ndim == 3:
        g = g[..., None]
    jac = np.zeros((2, 2, g.shape[1], gx.shape[2]))
    term = np.empty_like(jac)
    for n in range(gx.shape[1]):
        np.multiply(gx[:, None, None, n], g[None, :, :, n], out=term)
        jac += term
    return jac, g


def _warp_factor(order, rout):
    """1D warp from equidistant to Gauss-Lobatto, evaluated at rout."""
    lgl = gauss_lobatto(order)
    req = np.linspace(-1.0, 1.0, order + 1)
    legendre = _JacobiTable([(0.0, 0.0, order)])
    veq = legendre(req[None, :])[:, 0]
    pmat = legendre(rout[None, :])[:, 0]
    lagrange = np.linalg.solve(veq, pmat)
    warp = lagrange.T @ (lgl - req)
    zerof = (np.abs(rout) < 1.0 - 1e-10).astype(float)
    sf = 1.0 - (zerof * rout) ** 2
    return warp / sf + warp * (zerof - 1.0)


def warp_blend_nodes(order):
    """Warp-and-blend interpolation nodes on the reference triangle."""
    if order == 0:
        return BARYCENTER[None, :].copy()
    alpha = _ALPHA_OPT[order - 1] if order <= 15 else 5.0 / 3.0

    nn = n_nodes(order)
    l1 = np.empty(nn)
    l3 = np.empty(nn)
    k = 0
    for i in range(order + 1):
        for j in range(order + 1 - i):
            l1[k] = i / order
            l3[k] = j / order
            k += 1
    l2 = 1.0 - l1 - l3
    x = -l2 + l3
    y = (-l2 - l3 + 2.0 * l1) / math.sqrt(3.0)

    blend1 = 4.0 * l2 * l3
    blend2 = 4.0 * l1 * l3
    blend3 = 4.0 * l1 * l2
    warpf1 = _warp_factor(order, l3 - l2)
    warpf2 = _warp_factor(order, l1 - l3)
    warpf3 = _warp_factor(order, l2 - l1)
    warp1 = blend1 * warpf1 * (1.0 + (alpha * l1) ** 2)
    warp2 = blend2 * warpf2 * (1.0 + (alpha * l2) ** 2)
    warp3 = blend3 * warpf3 * (1.0 + (alpha * l3) ** 2)

    x = x + 1.0 * warp1 + math.cos(2.0 * math.pi / 3.0) * warp2 + math.cos(4.0 * math.pi / 3.0) * warp3
    y = y + 0.0 * warp1 + math.sin(2.0 * math.pi / 3.0) * warp2 + math.sin(4.0 * math.pi / 3.0) * warp3

    # equilateral (x, y) back to the right reference triangle
    l1e = (math.sqrt(3.0) * y + 1.0) / 3.0
    l2e = (-3.0 * x - math.sqrt(3.0) * y + 2.0) / 6.0
    l3e = (3.0 * x - math.sqrt(3.0) * y + 2.0) / 6.0
    r = -l2e + l3e - l1e
    s = -l2e - l3e + l1e
    return np.stack([r, s], axis=1)


def collapsed_quadrature(n):
    """n*n collapsed Gauss rule on T, exact for total degree 2n-1."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(n)
    gj_x, gj_w = _gauss_jacobi(n, 0.0)
    pts = np.empty((n * n, 2))
    wts = np.empty(n * n)
    k = 0
    for q in range(n):
        for p in range(n):
            eta1, eta2 = gl_x[p], gj_x[q]
            pts[k, 0] = 0.5 * (1.0 + eta1) * (1.0 - eta2) - 1.0
            pts[k, 1] = eta2
            wts[k] = 0.5 * gl_w[p] * gj_w[q]
            k += 1
    return pts, wts


class RefTriangle:
    """Order-P nodal reference element with cached operators."""

    def __init__(self, order):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.nodes = warp_blend_nodes(order)
        self.n_nodes = len(self.nodes)
        self.kernel = DubinerKernel(order)
        self.vandermonde = self.kernel.values(self.nodes)
        self.v_inv = np.linalg.inv(self.vandermonde)
        self.quad_points, self.quad_weights = collapsed_quadrature(order + 2)
        self.basis_q = self.basis_at(self.quad_points)
        self.grad_q = self.grad_basis_at(self.quad_points)
        self._classify_nodes()
        self._edge_quadrature()
        self._face_tables = {}

    # ---- basis evaluation -------------------------------------------------

    def basis_at(self, xi):
        """Lagrange basis values: shape (npts, n_nodes).

        On a batch the rows are not bitwise equal to one-point calls: the
        kernel returns Fortran-ordered rows when npts > 1, and one 2-D
        product takes another BLAS path than a 1 x n one, so the last bits
        differ.  basis_rows gives rows that match one-point calls.
        """
        return self.kernel.values(xi) @ self.v_inv

    def grad_basis_at(self, xi):
        """Lagrange basis gradients: shape (npts, n_nodes, 2); batches as in basis_at."""
        vr, vs = self.kernel.gradients(xi)
        return np.stack([vr @ self.v_inv, vs @ self.v_inv], axis=2)

    def basis_rows(self, xi):
        """basis_at and grad_basis_at of every point from one kernel table.

        Row p of each is bitwise equal to the one-point call at xi[p]: the
        table is copied into C-contiguous rows and every row, of values and
        of both derivatives, is multiplied as its own 1 x n product in one
        stacked matmul.
        """
        rows = np.ascontiguousarray(self.kernel.table(xi).transpose(0, 2, 1))
        out = (rows[:, :, None, :] @ self.v_inv)[:, :, 0]
        return out[0], np.ascontiguousarray(out[1:].transpose(1, 2, 0))

    @functools.cached_property
    def lebesgue(self):
        """Lebesgue constant max over T of sum_n |l_n|, sampled on a 121 x 121 grid.

        An element map deviates from its straight triangle by at most this
        times the largest displacement of a node from its affine position.
        """
        g = np.linspace(-1.0, 1.0, 121)
        r, s = np.meshgrid(g, g)
        inside = r + s <= 1e-12
        pts = np.stack([r[inside], s[inside]], axis=1)
        # in chunks: the Jacobi table of all 7,381 points would take megabytes
        return max(float(np.abs(self.basis_at(chunk)).sum(axis=1).max())
                   for chunk in np.array_split(pts, 32))

    @functools.cached_property
    def _barycenter_rows(self):
        """basis_rows at the barycenter, where every Newton lane starts; read-only."""
        rows = self.basis_rows(BARYCENTER[None])
        for a in rows:
            a.flags.writeable = False
        return rows

    def first_steps(self, nodes):
        """Newton's start on each of k maps nodes (k, n_nodes, 2), from the barycenter.

        Returns (x0, j, det): the image of the barycenter (k, 2), the flat
        Jacobian (j00, j01, j10, j11) there (k, 4) and its determinant (k,),
        from the stacked product and _map_jacobian of every later step, so
        each map's entries are bitwise those of any batch that holds it.
        """
        nodes = np.ascontiguousarray(nodes)
        basis, grad = (a.repeat(len(nodes), axis=0) for a in self._barycenter_rows)
        return ((basis[:, None, :] @ nodes)[:, 0], *_map_jacobian(grad, nodes))

    def invert_maps(self, nodes, target, tol, max_iter, slack, start=None):
        """Newton solve of basis_at(xi) @ nodes[k] = target[k] for every lane k, in lockstep.

        nodes: (k, n_nodes, 2) nodal values of k maps from T to the plane;
        target: one point (2,) for all lanes or one per lane (k, 2); start:
        first_steps(nodes), which a caller that inverts the same maps again
        builds once (TriMesh caches it per mesh), or None to build it here.
        Returns (xis, rows), one entry per lane in each: xi and its basis
        row (bitwise basis_rows(xi)[0][0], the row Newton's last step
        built), or None and None when the residual does not drop below tol
        in max_iter steps, the Jacobian vanishes, xi leaves |xi| <= 10, or
        the root lies outside T inflated by slack.  Every lane starts at the
        barycenter; each later iteration makes one kernel table for all
        lanes still running, and a lane stops where a one-lane loop would
        stop, after the same IEEE operations, so its xi is bitwise that
        loop's.  Each lane carries its nodes and target, gathered only on
        iterations where some lane ends, and an iteration whose lanes all
        end builds no Jacobian.
        """
        xis, rows = [None] * len(nodes), [None] * len(nodes)
        if not len(nodes):
            return xis, rows
        m = np.ascontiguousarray(nodes)
        x, j, det = self.first_steps(m) if start is None else start
        lane = np.arange(len(m))
        xi = BARYCENTER[None].repeat(len(m), axis=0)
        tgt = np.empty((len(m), 2))
        tgt[:] = target
        # a vanishing Jacobian divides by zero; its lane stops after the step
        with np.errstate(divide="ignore", invalid="ignore"):
            for it in range(max_iter):
                if it:
                    basis, grad = self.basis_rows(xi)
                    x = (basis[:, None, :] @ m)[:, 0]
                r = x - tgt
                done = np.hypot(r[:, 0], r[:, 1]) < tol
                ended = np.count_nonzero(done)
                if ended:
                    hit = np.flatnonzero(done)
                    ids = lane.tolist()
                    # xi in T inflated by slack, tested on Python floats
                    for k, (u, w) in zip(hit.tolist(), xi[hit].tolist()):
                        if u >= -1.0 - slack and w >= -1.0 - slack and u + w <= slack:
                            xis[ids[k]] = xi[k]
                            rows[ids[k]] = basis[k] if it else self._barycenter_rows[0][0]
                    if ended == len(done):
                        break
                    go = ~done
                    xi, lane, m, tgt, r = (a[go] for a in (xi, lane, m, tgt, r))
                    if it:
                        grad = grad[go]
                    else:
                        j, det = j[go], det[go]
                if it:                       # the Jacobian only of lanes that go on
                    j, det = _map_jacobian(grad, m)
                # (j11 r0 - j01 r1, j00 r1 - j10 r0) / det, the one-lane
                # loop's (j11 r0 - j01 r1, -j10 r0 + j00 r1) / det
                q = j[:, _ADJUGATE] * r[:, _ADJUGATE_R]
                xi = xi - (q[:, 0::2] - q[:, 1::2]) / det[:, None]
                # the one-lane loop's tests, each False on NaN: a NaN lane runs on
                stop = (np.abs(det) < 1e-300) | (np.abs(xi).max(axis=1) > 10.0)
                ended = np.count_nonzero(stop)
                if ended:
                    if ended == len(stop):
                        break
                    go = ~stop
                    xi, lane, m, tgt = xi[go], lane[go], m[go], tgt[go]
        return xis, rows

    # ---- node classification ----------------------------------------------

    def _classify_nodes(self):
        tol = 1e-9
        r, s = self.nodes[:, 0], self.nodes[:, 1]
        self.vertex_ids = np.array([
            int(np.argmin(np.abs(r - vx) + np.abs(s - vy))) for vx, vy in VERTICES])
        on_edge = [np.abs(s + 1.0) < tol,            # edge 0: v0 -> v1
                   np.abs(r + s) < tol,              # edge 1: v1 -> v2
                   np.abs(r + 1.0) < tol]            # edge 2: v2 -> v0
        along = [r, s, -s]
        self.edge_ids = []
        for e in range(3):
            ids = np.nonzero(on_edge[e])[0]
            ids = ids[np.argsort(along[e][ids])]
            self.edge_ids.append(ids)            # includes the two end vertices
        edge_set = set(int(i) for ids in self.edge_ids for i in ids)
        self.interior_ids = np.array([i for i in range(self.n_nodes) if i not in edge_set],
                                     dtype=int)
        # 1D positions of edge nodes in [-1,1] (same Gauss-Lobatto set on all edges)
        self.edge_node_params = gauss_lobatto(self.order)

    # ---- edge quadrature --------------------------------------------------

    def _edge_quadrature(self):
        n1 = self.order + 2
        gx, gw = np.polynomial.legendre.leggauss(n1)
        self.edge_quad_x = gx          # 1D points in [-1,1] along each edge
        self.edge_quad_w = gw

    def edge_points(self, edge, svals):
        """Reference coordinates of 1D params svals in [-1,1] along an edge."""
        svals = np.asarray(svals, dtype=float)
        a = VERTICES[edge]
        b = VERTICES[(edge + 1) % 3]
        lam = 0.5 * (svals + 1.0)
        return a[None, :] + lam[:, None] * (b - a)[None, :]

    def face_table(self, edge, reverse=False):
        """(basis_at, grad_basis_at) at the edge quadrature points of one edge.

        The points are edge_points(edge, edge_quad_x), or at -edge_quad_x
        when reverse is set (the neighbour's view of a shared edge).  Each
        of the six tables is built on first use and is read-only.
        """
        key = (edge, reverse)
        if key not in self._face_tables:
            xi = self.edge_points(edge, -self.edge_quad_x if reverse else self.edge_quad_x)
            table = (self.basis_at(xi), self.grad_basis_at(xi))
            for a in table:
                a.flags.writeable = False
            self._face_tables[key] = table
        return self._face_tables[key]

    def barycentric(self, xi):
        """Barycentric coordinates (l0, l1, l2) w.r.t. the reference vertices."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        l1 = 0.5 * (1.0 + xi[:, 0])
        l2 = 0.5 * (1.0 + xi[:, 1])
        l0 = 1.0 - l1 - l2
        return np.stack([l0, l1, l2], axis=1)


_CACHE = {}


def ref_triangle(order):
    """Shared cached instance per order."""
    if order not in _CACHE:
        _CACHE[order] = RefTriangle(order)
    return _CACHE[order]
