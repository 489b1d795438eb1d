import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_jacobi

from quadfield import reftri
from quadfield.reftri import (_ADJUGATE, _ADJUGATE_R, BARYCENTER, VERTICES, _gauss_jacobi,
                              _index_pairs, _jacobi_constants, _JacobiTable, _xi_to_ab,
                              collapsed_quadrature, gauss_lobatto, in_reference,
                              quadrature_for_degree, RefTriangle, ref_triangle, warp_blend_nodes)


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
    table = _JacobiTable(families)(x.T)
    for f, (alpha, beta, top) in enumerate(families):
        want = np.stack([jacobi_polynomial(x[:, f], alpha, beta, n)
                         for n in range(top + 1)])
        assert_same_bits(table[:top + 1, f], want)


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


# ---- byte reference: the kernel, basis_rows and invert_maps before the lean table ----
# Kept verbatim; only the class names differ.  The Jacobi table was
# point-major and zero-filled, the kernel gathered each factor with its own
# fancy index and stacked its powers, basis_rows made three products, and
# Newton filtered its lanes twice per iteration.


def _reference_xi_to_ab(xi):
    """Collapsed coordinates for Dubiner evaluation."""
    r, s = xi[:, 0], xi[:, 1]
    a = np.where(np.abs(1.0 - s) > 1e-14, 2.0 * (1.0 + r) / np.where(s == 1.0, 1.0, 1.0 - s) - 1.0, -1.0)
    return a, s


class _ReferenceJacobiTable:
    def __init__(self, families):
        tops = [top for _, _, top in families]
        self.top = tops[0]
        consts = [_jacobi_constants(al, be, top) for al, be, top in families]
        self.rows = [sum(t >= k for t in tops) for k in range(self.top + 1)]
        self.p0 = np.array([c[0] for c in consts])
        linear = consts[:self.rows[1]]
        self.c1, self.c2, self.sqrt_gamma1 = (np.array([c[q] for c in linear]) for q in (1, 2, 3))
        self.steps = []                      # per degree: (b, a_old, a_new) arrays
        for k in range(1, self.top):
            live = [c[4][k - 1] for c in consts[:self.rows[k + 1]]]
            self.steps.append(tuple(np.array(v) for v in zip(*live)))

    def __call__(self, x):
        """x: (npts, nfam) abscissae -> (npts, nfam, top + 1); zero above a family's top."""
        out = np.zeros(x.shape + (self.top + 1,))
        out[:, :, 0] = self.p0
        n = self.rows[1]
        out[:, :n, 1] = (self.c1 * x[:, :n] / 2.0 + self.c2) / self.sqrt_gamma1
        for k, (bnew, aold, anew) in enumerate(self.steps, start=1):
            n = self.rows[k + 1]
            out[:, :n, k + 1] = ((x[:, :n] - bnew) * out[:, :n, k]
                                 - aold * out[:, :n, k - 1]) / anew
        return out


class _ReferenceKernel:
    def __init__(self, order):
        self.order = p = order
        pairs = _index_pairs(p)
        upper = pairs[p + 1:]                            # modes with i > 0
        jpos = [(i, j) for i, j in pairs if j > 0]
        # (key, alpha, beta, top degree) of P^(0,0)(a), P^(2i+1,0)(b) and of
        # their derivative families P^(1,1)(a), P^(2i+2,1)(b)
        fams = ([("a", 0.0, 0.0, p)]
                + [(("b", i), 2.0 * i + 1.0, 0.0, p - i) for i in range(p + 1)]
                + [("da", 1.0, 1.0, p - 1)]
                + [(("db", i), 2.0 * i + 2.0, 1.0, p - i - 1) for i in range(p)])
        fams.sort(key=lambda f: -f[3])
        col = {f[0]: c for c, f in enumerate(fams)}
        self._jacobi = _ReferenceJacobiTable([f[1:] for f in fams])
        self._on_a = np.array([f[0] in ("a", "da") for f in fams])

        self.i = np.array([i for i, _ in pairs])
        self.j = np.array([j for _, j in pairs])
        self._upper = slice(p + 1, None)
        self._i_up_m1 = np.array([i - 1 for i, _ in upper])
        self._has_dgb = self.j > 0
        self._j_m1 = np.array([j - 1 for _, j in jpos])
        self._col_a, self._col_da = col["a"], col["da"]
        self._col_b = np.array([col[("b", i)] for i, _ in pairs])
        self._col_db = np.array([col[("db", i)] for i, _ in jpos])
        # sqrt(n (n + alpha + beta + 1)) of d/dx P_n; every sum is an exact integer
        self._dfa_scale = np.array([math.sqrt(i * (i + 1.0)) for i, _ in upper])
        self._dgb_scale = np.array([math.sqrt(j * (j + 2.0 * i + 2.0)) for i, j in jpos])
        self._half_i = np.array([0.5 * i for i, _ in upper])
        self._grad_scale = np.array([2.0 ** (i + 0.5) for i, _ in pairs])

    def _table(self, xi):
        a, b = _reference_xi_to_ab(np.asarray(xi, dtype=float))
        return a, b, self._jacobi(np.where(self._on_a, a[:, None], b[:, None]))

    def _powers(self, base):
        return np.stack([base ** n for n in range(self.order + 1)], axis=1)

    def values(self, xi):
        """Vandermonde matrix V[p, m] = mode m at xi[p]: shape (npts, n_modes)."""
        return self._values(*self._table(xi))

    def gradients(self, xi):
        """(d/dr, d/ds) of the Vandermonde matrix: two (npts, n_modes) arrays."""
        return self._gradients(*self._table(xi))

    def values_and_gradients(self, xi):
        """values(xi) and gradients(xi) from one Jacobi table."""
        table = self._table(xi)
        return self._values(*table), self._gradients(*table)

    def _values(self, a, b, t):
        return (math.sqrt(2.0) * t[:, self._col_a, self.i] * t[:, self._col_b, self.j]
                * self._powers(1.0 - b)[:, self.i])

    def _gradients(self, a, b, t):
        up = self._upper
        fa = t[:, self._col_a, self.i]
        gb = t[:, self._col_b, self.j]
        dfa = np.zeros_like(fa)
        dfa[:, up] = self._dfa_scale * t[:, self._col_da, self._i_up_m1]
        dgb = np.zeros_like(gb)
        dgb[:, self._has_dgb] = self._dgb_scale * t[:, self._col_db, self._j_m1]
        hp = self._powers(0.5 * (1.0 - b))
        hp_up = hp[:, self._i_up_m1]
        dr = dfa * gb
        ds = dr * 0.5 * (1.0 + a)[:, None]
        dr[:, up] *= hp_up
        ds[:, up] *= hp_up
        tmp = dgb * hp[:, self.i]
        tmp[:, up] -= self._half_i * gb[:, up] * hp_up
        ds = ds + fa * tmp
        return dr * self._grad_scale, ds * self._grad_scale


class _ReferenceTriangle:
    def __init__(self, order):
        self.kernel = _ReferenceKernel(order)
        self.v_inv = np.linalg.inv(self.kernel.values(warp_blend_nodes(order)))

    def basis_at(self, xi):
        return self.kernel.values(xi) @ self.v_inv

    def grad_basis_at(self, xi):
        vr, vs = self.kernel.gradients(xi)
        return np.stack([vr @ self.v_inv, vs @ self.v_inv], axis=2)

    def basis_rows(self, xi):
        v, (vr, vs) = self.kernel.values_and_gradients(xi)

        def rows(m):
            return (np.ascontiguousarray(m)[:, None, :] @ self.v_inv)[:, 0]

        return rows(v), np.stack([rows(vr), rows(vs)], axis=2)

    def invert_maps(self, nodes, target, tol, max_iter, slack):
        out = [None] * len(nodes)
        target = np.broadcast_to(target, (len(nodes), 2))
        lane = np.arange(len(nodes))
        xi = np.tile(BARYCENTER, (len(nodes), 1))
        for _ in range(max_iter):
            if not len(lane):
                break
            m = nodes[lane]
            basis, grad = self.basis_rows(xi)
            r = (basis[:, None, :] @ m)[:, 0] - target[lane]
            done = np.hypot(r[:, 0], r[:, 1]) < tol
            hit = np.flatnonzero(done)
            if len(hit):
                for k in hit[np.atleast_1d(in_reference(xi[hit], slack=slack))]:
                    out[lane[k]] = xi[k]
            j = np.einsum("knd,knx->kxd", grad, m)
            det = j[:, 0, 0] * j[:, 1, 1] - j[:, 0, 1] * j[:, 1, 0]
            # negated tests, as in the one-lane loop: a NaN lane runs on
            go = ~done & ~(np.abs(det) < 1e-300)
            j, r, det = j[go], r[go], det[go]
            dxi = np.stack([(j[:, 1, 1] * r[:, 0] - j[:, 0, 1] * r[:, 1]) / det,
                            (-j[:, 1, 0] * r[:, 0] + j[:, 0, 0] * r[:, 1]) / det], axis=1)
            xi = xi[go] - dxi
            inside = ~(np.abs(xi).max(axis=1) > 10.0)
            xi, lane = xi[inside], lane[go][inside]
        return out


@functools.lru_cache(maxsize=None)
def _reference_triangle(order):
    return _ReferenceTriangle(order)


def _batch(seed, npts):
    """npts points: (-1, 1), where a is clamped, then points of T, on s = 1 and far outside T."""
    rng = np.random.default_rng(seed)
    pts = np.vstack([[[-1.0, 1.0], [0.5, 1.0], [0.0, 1.0 - 1e-15]],
                     rng.dirichlet(np.ones(3), size=npts) @ VERTICES,
                     rng.uniform(-3.0, 3.0, size=(npts, 2))])
    return np.vstack([pts[:1], rng.permutation(pts[1:])])[:npts]


@settings(max_examples=150, deadline=None)
@given(order=st.integers(1, 6), npts=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_lean_kernel_matches_the_reference_bytes(order, npts, seed):
    ref, want = ref_triangle(order), _reference_triangle(order)
    pts = _batch(seed, npts)
    assert_same_bits(ref.kernel.values(pts), want.kernel.values(pts))
    for got, exp in zip(ref.kernel.gradients(pts), want.kernel.gradients(pts)):
        assert_same_bits(got, exp)
    # the layout of the kernel's output picks the BLAS path of these products
    assert_same_bits(ref.basis_at(pts), want.basis_at(pts))
    assert_same_bits(ref.grad_basis_at(pts), want.grad_basis_at(pts))
    for got, exp in zip(ref.basis_rows(pts), want.basis_rows(pts)):
        assert_same_bits(got, exp)


@settings(max_examples=100, deadline=None)
@given(order=st.integers(1, 6), lanes=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_lean_newton_matches_the_reference_bytes(order, lanes, seed):
    """Curved maps of T and targets in and around them: same xi bytes, and
    each root's row is the one-point basis_rows row at its xi."""
    ref, want = ref_triangle(order), _reference_triangle(order)
    rng = np.random.default_rng(seed)
    scale = rng.choice([0.0, 0.02, 0.2], size=(lanes, 1, 1))
    nodes = ref.nodes[None] + scale * rng.normal(size=(lanes, ref.n_nodes, 2))
    target = rng.uniform(-1.5, 1.0, size=(lanes, 2))
    xis, rows = ref.invert_maps(nodes, target, 1e-12, 50, 1e-8)
    exp = want.invert_maps(nodes, target, 1e-12, 50, 1e-8)
    assert [None if xi is None else xi.tobytes() for xi in xis] == \
        [None if xi is None else xi.tobytes() for xi in exp]
    assert [row is None for row in rows] == [xi is None for xi in xis]
    assert all(row.tobytes() == want.basis_rows(xi[None])[0][0].tobytes()
               for xi, row in zip(xis, rows) if xi is not None)


# ---- byte reference: invert_maps before it stopped with its last lane ----
# Kept verbatim as a function of the RefTriangle: every running lane took the
# Newton step, and lanes that were done were dropped after it.


def stepping_invert_maps(ref, nodes, target, tol, max_iter, slack):
    xis, rows = [None] * len(nodes), [None] * len(nodes)
    target = np.broadcast_to(target, (len(nodes), 2))
    lane = np.arange(len(nodes))
    xi = BARYCENTER[None].repeat(len(nodes), axis=0)
    start = [a.repeat(len(nodes), axis=0) for a in ref._barycenter_rows]
    # a lane that stops this iteration still takes the step, on numbers
    # it then drops, so a vanishing Jacobian may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(max_iter):
            if not len(lane):
                break
            m = nodes[lane]
            basis, grad = ref.basis_rows(xi) if it else start
            r = (basis[:, None, :] @ m)[:, 0] - target[lane]
            done = np.hypot(r[:, 0], r[:, 1]) < tol
            if done.any():
                hit = np.flatnonzero(done)
                for k in hit[in_reference(xi[hit], slack=slack)]:
                    xis[lane[k]], rows[lane[k]] = xi[k], basis[k]
            j = np.einsum("knd,knx->kxd", grad, m).reshape(-1, 4)
            det = j[:, 0] * j[:, 3] - j[:, 1] * j[:, 2]
            # (j11 r0 - j01 r1, j00 r1 - j10 r0) / det, the one-lane
            # loop's (j11 r0 - j01 r1, -j10 r0 + j00 r1) / det
            q = j[:, _ADJUGATE] * r[:, _ADJUGATE_R]
            xi = xi - (q[:, 0::2] - q[:, 1::2]) / det[:, None]
            # the one-lane loop's tests, each False on NaN: a NaN lane runs on
            stop = done | (np.abs(det) < 1e-300) | (np.abs(xi).max(axis=1) > 10.0)
            xi, lane = xi[~stop], lane[~stop]
    return xis, rows


LANE_KINDS = ("curved", "curved", "curved", "nan target", "flat", "collapsed", "far")


@st.composite
def newton_lanes(draw):
    """(order, nodes, targets) of lanes of every kind: curved maps of T with
    targets in and around them, NaN targets, maps with a vanishing Jacobian
    (flat: every node on y = 0; collapsed: every node at the origin), and
    targets so far that xi leaves |xi| <= 10."""
    order = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(LANE_KINDS), min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ref = ref_triangle(order)
    nodes = ref.nodes[None] + rng.choice([0.0, 0.02, 0.2], size=(len(kinds), 1, 1)) * \
        rng.normal(size=(len(kinds), ref.n_nodes, 2))
    target = rng.uniform(-1.5, 1.0, size=(len(kinds), 2))
    for k, kind in enumerate(kinds):
        if kind == "nan target":
            target[k, :rng.integers(1, 3)] = np.nan          # x, or both
        elif kind == "flat":
            nodes[k, :, 1] = 0.0
        elif kind == "collapsed":
            nodes[k] = 0.0
        elif kind == "far":
            target[k] = rng.choice([-1.0, 1.0], size=2) * rng.uniform(1e2, 1e6, size=2)
    return order, nodes, target


@settings(max_examples=150, deadline=None)
@given(lanes=newton_lanes(), tol=st.sampled_from([1e-12, 1e-6, 1e-2]),
       max_iter=st.integers(1, 50), slack=st.sampled_from([0.0, 1e-8, 0.1]))
def test_newton_without_done_lanes_matches_the_reference_bytes(lanes, tol, max_iter, slack):
    order, nodes, target = lanes
    ref = ref_triangle(order)
    for tgt in (target, target[0]):                   # one target per lane, or one for all
        got = ref.invert_maps(nodes, tgt, tol, max_iter, slack)
        want = stepping_invert_maps(ref, nodes, tgt, tol, max_iter, slack)
        for g, w in zip(got, want):
            assert [None if a is None else a.tobytes() for a in g] == \
                [None if a is None else a.tobytes() for a in w]


def test_newton_takes_no_step_once_every_lane_is_done(monkeypatch):
    """Lanes whose targets are their maps' barycenters are done before the
    first step; a lane that converges in n steps takes n steps.  Every step
    is followed by the basis rows at the new xi, so the lanes passed to
    basis_rows count the steps (the first step's rows are cached)."""
    ref = ref_triangle(3)
    ref._barycenter_rows                 # built once per reference element
    steps = []
    basis_rows = RefTriangle.basis_rows

    def counted(self, xi):
        steps.append(len(xi))
        return basis_rows(self, xi)

    monkeypatch.setattr(RefTriangle, "basis_rows", counted)
    rng = np.random.default_rng(5)
    nodes = ref.nodes[None] + 0.05 * rng.normal(size=(3, ref.n_nodes, 2))
    centers = (ref._barycenter_rows[0] @ nodes)[:, 0]
    xis, _ = ref.invert_maps(nodes, centers, 1e-12, 50, 0.0)
    assert all(xi.tobytes() == BARYCENTER.tobytes() for xi in xis)
    assert steps == []
    xis, _ = ref.invert_maps(nodes, np.vstack([centers[:2], [-0.9, -0.9]]), 1e-12, 50, 0.0)
    assert all(xi is not None for xi in xis)
    assert steps and set(steps) == {1}           # only the third lane steps


def test_newton_builds_no_jacobian_where_its_last_lanes_end(monkeypatch):
    """From a given start, a call takes one Jacobian per kernel table but the
    last: the iteration where its last lanes end builds none."""
    ref = ref_triangle(3)
    rng = np.random.default_rng(7)
    nodes = ref.nodes[None] + 0.05 * rng.normal(size=(3, ref.n_nodes, 2))
    start = ref.first_steps(nodes)
    targets = (ref.basis_at(np.array([[-0.2, -0.3]])) @ nodes)[:, 0]
    counts = {"tables": 0, "jacobians": 0}
    basis_rows, einsum = RefTriangle.basis_rows, np.einsum

    def rows(self, xi):
        counts["tables"] += 1
        return basis_rows(self, xi)

    def jacobian(*args, **kwargs):
        counts["jacobians"] += 1
        return einsum(*args, **kwargs)

    monkeypatch.setattr(RefTriangle, "basis_rows", rows)
    monkeypatch.setattr(np, "einsum", jacobian)
    xis, _ = ref.invert_maps(nodes, targets, 1e-12, 50, 0.0, start)
    assert all(xi is not None for xi in xis)
    assert counts["tables"] >= 2 and counts["jacobians"] == counts["tables"] - 1


def test_in_reference_returns_a_mask_for_any_batch():
    assert in_reference(np.empty((0, 2))).shape == (0,)
    assert in_reference([-0.5, -0.5]).tolist() == [True]
    assert in_reference([0.5, 0.5]).tolist() == [False]
    assert in_reference([[0.0, 0.0], [1e-9, 0.0]], slack=1e-8).tolist() == [True, True]
    ref = ref_triangle(2)
    assert ref.invert_maps(np.empty((0, ref.n_nodes, 2)), np.zeros(2), 1e-12, 50, 0.0) == ([], [])


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


# ---- Gauss-Jacobi rules: scipy.special.roots_jacobi is the reference ----------


@pytest.mark.parametrize("n", range(1, 61))
def test_gauss_jacobi_is_roots_jacobi_bitwise(n):
    assert_same_bits(_gauss_jacobi(n, 1.0)[0], roots_jacobi(n, 1.0, 1.0)[0])
    for got, want in zip(_gauss_jacobi(n, 0.0), roots_jacobi(n, 1.0, 0.0)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("order", range(1, 21))
def test_gauss_lobatto_is_the_roots_jacobi_one_bitwise(order):
    interior = np.sort(roots_jacobi(order - 1, 1.0, 1.0)[0]) if order > 1 else []
    assert_same_bits(gauss_lobatto(order), np.concatenate([[-1.0], interior, [1.0]]))


@pytest.mark.parametrize("order", range(1, 16))
def test_reference_tables_are_the_roots_jacobi_ones_bitwise(order, monkeypatch):
    got = RefTriangle(order)
    monkeypatch.setattr(reftri, "_gauss_jacobi", lambda n, beta: roots_jacobi(n, 1.0, beta))
    want = RefTriangle(order)
    for name in ("nodes", "quad_points", "quad_weights", "edge_node_params", "v_inv"):
        assert_same_bits(getattr(got, name), getattr(want, name))


def test_empty_batches_give_empty_tables():
    ref = ref_triangle(3)
    none = np.empty((0, 2))
    assert ref.kernel.table(none).shape == (3, 10, 0)
    assert ref.basis_at(none).shape == (0, 10)
    assert ref.grad_basis_at(none).shape == (0, 10, 2)
    values, grads = ref.basis_rows(none)
    assert values.shape == (0, 10) and grads.shape == (0, 10, 2)


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
