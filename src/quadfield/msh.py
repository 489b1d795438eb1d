"""Gmsh MSH 2.2 ASCII writers.

Triangle meshes are written at orders 1..3, with geometry re-interpolated to
the equidistant nodes gmsh expects (higher orders as straight 3-node
triangles); quad meshes are written linear.
"""

from __future__ import annotations

import numpy as np

from .vtkio import _table

GMSH_LINE = 1
GMSH_TRI = 2
GMSH_QUAD = 3
GMSH_TRI6 = 9
GMSH_TRI10 = 21

_TRI_TYPE_BY_ORDER = {1: GMSH_TRI, 2: GMSH_TRI6, 3: GMSH_TRI10}


def _equidistant_tri_nodes(order):
    """Gmsh node ordering: vertices, then edges in order, then interior."""
    v = [(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)]
    nodes = list(v)
    for e in range(3):
        a = np.array(v[e])
        b = np.array(v[(e + 1) % 3])
        for k in range(1, order):
            nodes.append(tuple(a + (b - a) * k / order))
    if order == 3:
        nodes.append((-1.0 / 3.0, -1.0 / 3.0))
    return np.array(nodes)


def _write(path, points, blocks):
    """MSH 2.2 ASCII file of 2D points and element blocks (gmsh type, tags, nodes).

    tags (n, 2) holds each element's physical and elementary tag, nodes
    (n, k) its 0-based node ids; the file numbers everything from 1.  The
    node table and each block are formatted by one % template.
    """
    # %d writes the float ids 1.0, 2.0, ... of the node table as integers
    text = [f"$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n{len(points)}\n",
            _table("%d %r %r 0\n", np.column_stack([np.arange(1.0, len(points) + 1), points])),
            f"$EndNodes\n$Elements\n{sum(len(ids) for _, _, ids in blocks)}\n"]
    first = 1
    for etype, tags, ids in blocks:
        text.append(_table(f"%d {etype} 2 %d %d{' %d' * ids.shape[1]}\n", np.column_stack(
            [np.arange(first, first + len(ids)), tags, ids + 1])))
        first += len(ids)
    text.append("$EndElements\n")
    with open(path, "w") as f:
        f.write("".join(text))


def write_msh(path, mesh):
    """Write a TriMesh: orders 1-3 with all their nodes, higher orders as
    straight 3-node triangles through the element vertices.

    High-order nodes are shared through the mesh's edge table and numbered in
    order of first appearance; linear meshes keep their vertex ids and add
    tagged boundary lines.
    """
    order = mesh.order if mesh.order in _TRI_TYPE_BY_ORDER else 1
    blocks = []
    if order == 1:
        points, conn = mesh.vertices, mesh.triangles
        elem, ledge, loop = np.array([(f.elem, f.ledge, f.loop) for f in mesh.boundary_faces],
                                     dtype=int).reshape(-1, 3).T
        ends = np.take_along_axis(conn[elem], np.stack([ledge, (ledge + 1) % 3], axis=1), 1)
        blocks.append((GMSH_LINE, np.stack([loop + 1, loop + 1], axis=1), ends))
    else:
        basis = mesh.ref.basis_at(_equidistant_tri_nodes(order))
        xy = (basis @ mesh.geom).reshape(-1, 2)
        ids = mesh.node_ids(order - 1, int(order == 3))
        _, first = np.unique(ids, return_index=True)
        first.sort()
        renumber = np.empty(ids.max() + 1, dtype=int)
        renumber[ids.ravel()[first]] = np.arange(len(first))
        points, conn = xy[first], renumber[ids]
    blocks.append((_TRI_TYPE_BY_ORDER[order], np.tile([0, 1], (len(conn), 1)), conn))
    _write(path, points, blocks)


def write_quad_msh(path, qmesh):
    """Linear quads; block provenance as the physical tag."""
    tags = np.asarray(qmesh.block_of, dtype=int)
    _write(path, qmesh.nodes, [(GMSH_QUAD, np.stack([tags, tags], axis=1), qmesh.quads)])
