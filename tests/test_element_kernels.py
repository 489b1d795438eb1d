"""The element-innermost Jacobian kernels against the einsum kernels they replaced.

The references (reference.solver, reference.trimesh) are the batched einsum
versions of the solver's physical gradients and element stiffness and of
TriMesh.det_jacobians and TriMesh.jacobian, as they stood before
reftri.map_jacobians put the element index innermost.  Every test requires
equal bytes.  Signed zeros are drawn on purpose: a Jacobian entry whose
every node term is -0.0 is +0.0 only when the sum starts from 0.0, a
physical gradient whose two terms are -0.0 is +0.0 only with the + 0.0, and
a stiffness entry whose every point term is -0.0 is +0.0 only when its sum
starts from zeros.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadfield import solver
from quadfield.reftri import map_jacobians, ref_triangle
from quadfield.trimesh import TriMesh
from reference.solver import einsum_element_stiffness, einsum_physical_gradients
from reference.trimesh import einsum_det_jacobians, einsum_jacobian


# ---- element batches --------------------------------------------------------------


def negative_zeros(grad_row):
    """Signed zeros whose product with each entry of grad_row is -0.0."""
    return -np.copysign(0.0, grad_row)


@st.composite
def element_batches(draw, per_map=True):
    """(ref, grad, geom, k): k maps of order 1-7 (k = 1, 3, 17, BATCH or more),
    curved random triangles scaled by 1e-3, 1 or 1e3 and moved by an exact
    offset, over the reference gradient table, a random shared table or
    (with per_map) one random table per map.  Options put signed zeros
    where a summation order shows: random (point, node) entries of a random
    table; nodes whose x coordinates make every term of one Jacobian entry
    -0.0; or a node at the origin whose gradients are +0.0, in a mirrored
    element whose determinant is negative throughout.
    """
    order = draw(st.integers(1, 7))
    ref = ref_triangle(order)
    k = draw(st.sampled_from([1, 3, 17, solver.BATCH, solver.BATCH + 44]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    corners = rng.normal(size=(k, 3, 2))
    corners[:, 1:] = corners[:, :1] + np.abs(rng.normal(size=(k, 2, 2))) * np.eye(2)
    geom = ref.barycentric(ref.nodes) @ corners + 0.05 * rng.normal(size=(k, ref.n_nodes, 2))
    geom = geom * scale + draw(st.sampled_from([(0.0, 0.0), (0.5, -0.25), (-0.75, 1.0)]))
    npts = len(ref.quad_points)
    table = draw(st.sampled_from(["reference", "shared", "per_map"] if per_map
                                 else ["reference", "shared"]))
    if table == "reference":
        grad = ref.grad_q.copy()
    else:
        grad = rng.normal(size=((k,) if table == "per_map" else ()) + (npts, ref.n_nodes, 2))
    zeros = draw(st.sampled_from(["none", "entries", "column", "node"]))
    if zeros == "entries" and table != "reference":
        hit = rng.random(grad.shape[:-1]) < 0.3
        grad[hit] = np.copysign(0.0, rng.normal(size=(hit.sum(), 2)))
    elif zeros == "column":
        p0, d0 = draw(st.integers(0, npts - 1)), draw(st.integers(0, 1))
        geom[..., 0] = negative_zeros(grad[..., p0, :, d0])
    elif zeros == "node":
        n0 = draw(st.integers(0, ref.n_nodes - 1))
        geom = geom - geom[:, n0, None]
        if draw(st.booleans()):
            geom[..., 0] = -geom[..., 0]
        grad[..., n0, :] = 0.0
    return ref, grad, geom, k


def _fake_mesh(ref, geom, grad_q=None):
    """What the kernels read of a mesh: its reference element and geometry nodes."""
    if grad_q is not None:
        ref = types.SimpleNamespace(grad_q=grad_q, quad_weights=ref.quad_weights,
                                    n_nodes=ref.n_nodes, grad_basis_at=ref.grad_basis_at)
    return types.SimpleNamespace(ref=ref, geom=geom)


# ---- tests --------------------------------------------------------------------------

# degenerate maps (a column of signed-zero x coordinates) divide by a zero determinant
pytestmark = pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning",
                                        "ignore:invalid value:RuntimeWarning")


@settings(max_examples=150, deadline=None)
@given(element_batches())
def test_physical_gradients_match_einsum_reference(case):
    ref, grad, geom, k = case
    jac, det, gphys = solver._physical_gradients(grad, geom)
    want = einsum_physical_gradients(grad, geom)
    npts, nb = grad.shape[-3:-1]
    assert jac.shape == (2, 2, npts, k) and jac.flags.c_contiguous
    assert gphys.shape == (2, npts, nb, k) and gphys.flags.c_contiguous
    assert jac.transpose(3, 2, 0, 1).tobytes() == want[0].tobytes()
    assert det.T.tobytes() == want[1].tobytes()
    assert gphys.transpose(3, 1, 2, 0).tobytes() == want[2].tobytes()


@settings(max_examples=100, deadline=None)
@given(element_batches(per_map=False), st.sampled_from(["all", "ids", "one"]))
def test_element_stiffness_matches_einsum_reference(case, pick):
    ref, grad, geom, k = case
    mesh = _fake_mesh(ref, geom, grad_q=grad)
    elems = {"all": slice(None), "ids": np.arange(k)[::-2], "one": [k - 1]}[pick]
    new = solver.element_stiffness(mesh, elems)
    assert new.shape == (len(geom[elems]), ref.n_nodes, ref.n_nodes)
    assert new.tobytes() == einsum_element_stiffness(mesh, elems).tobytes()


@settings(max_examples=100, deadline=None)
@given(element_batches(per_map=False), st.integers(0, 2 ** 32 - 1))
def test_det_jacobians_and_jacobian_match_einsum_reference(case, seed):
    ref, grad, geom, k = case
    mesh = _fake_mesh(ref, geom, grad_q=grad)
    for e in (slice(None), np.arange(k)[::-3], k - 1, 0):
        new = TriMesh.det_jacobians(mesh, e)
        assert new.flags.c_contiguous
        assert new.tobytes() == einsum_det_jacobians(mesh, e).tobytes()
    rng = np.random.default_rng(seed)
    xi = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 9)), 2))
    e = int(rng.integers(k))
    if rng.random() < 0.5:        # every term of entry (0, d) at xi[0] is -0.0
        geom[e, :, 0] = negative_zeros(ref.grad_basis_at(xi[:1])[0, :, rng.integers(2)])
    new = TriMesh.jacobian(mesh, e, xi)
    assert new.shape == (len(xi), 2, 2) and new.flags.c_contiguous
    assert new.tobytes() == einsum_jacobian(mesh, e, xi).tobytes()


def test_map_jacobians_take_both_table_layouts():
    """A shared table gives the bits of the same table repeated per map, and
    the result lays the element index innermost."""
    ref = ref_triangle(3)
    geom = np.random.default_rng(5).normal(size=(7, ref.n_nodes, 2))
    shared, g = map_jacobians(ref.grad_q, geom)
    per_map, _ = map_jacobians(np.repeat(ref.grad_q[None], 7, axis=0), geom)
    assert shared.tobytes() == per_map.tobytes()
    assert shared.shape == (2, 2, len(ref.quad_points), 7)
    assert g.shape == (2, len(ref.quad_points), ref.n_nodes, 1)
    assert shared[1, 0, 4, 6] == sum(float(ref.grad_q[4, n, 0]) * float(geom[6, n, 1])
                                     for n in range(ref.n_nodes))
