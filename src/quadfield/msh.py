"""Gmsh MSH 2.2 ASCII reading and writing.

The reader accepts linear meshes (3-node triangles plus 2-node boundary
lines) and re-associates boundary edges with the domain's curve segments by
closest-point projection.  Writers emit triangle meshes (orders 1..3, with
geometry re-interpolated to the equidistant nodes gmsh expects; higher orders
as straight 3-node triangles) and linear quad meshes.
"""

from __future__ import annotations

import numpy as np

from .errors import MeshError
from .trimesh import BoundaryFace, TriMesh, local_edges
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


def read_msh(path):
    """Parse nodes, triangles, and tagged boundary lines from MSH 2.2 ASCII."""
    with open(path) as f:
        tokens = f.read().split("\n")
    try:
        i = tokens.index("$MeshFormat")
        version = tokens[i + 1].split()[0]
    except (ValueError, IndexError):
        raise MeshError(f"{path}: not a MSH file")
    if not version.startswith("2.2"):
        raise MeshError(f"{path}: unsupported MSH version {version}")

    def section(name):
        if f"${name}" not in tokens or f"$End{name}" not in tokens:
            raise MeshError(f"{path}: no ${name} section")
        return tokens[tokens.index(f"${name}") + 1:tokens.index(f"$End{name}")]

    try:
        node_lines = section("Nodes")
        n_nodes = int(node_lines[0])
        coords = np.zeros((n_nodes, 2))
        ids = {}
        for row in node_lines[1:n_nodes + 1]:
            parts = row.split()
            ids[int(parts[0])] = len(ids)
            coords[ids[int(parts[0])]] = [float(parts[1]), float(parts[2])]
        if len(ids) != n_nodes:
            raise MeshError(f"{path}: $Nodes declares {n_nodes} nodes but lists "
                            f"{len(ids)} distinct ids")
        if len(node_lines) - 1 > n_nodes:
            raise MeshError(f"{path}: $Nodes declares {n_nodes} nodes but lists "
                            f"{len(node_lines) - 1} rows")

        elem_lines = section("Elements")
        n_elem = int(elem_lines[0])
        if len(elem_lines) - 1 != n_elem:
            raise MeshError(f"{path}: $Elements declares {n_elem} elements but lists "
                            f"{len(elem_lines) - 1} rows")
        tris = []
        blines = []
        for row in elem_lines[1:]:
            parts = [int(p) for p in row.split()]
            etype, ntags = parts[1], parts[2]
            if etype not in (GMSH_TRI, GMSH_LINE):
                raise MeshError(f"{path}: unsupported element type {etype}; "
                                "only 3-node triangles and 2-node lines accepted")
            nodes = [ids[n] for n in parts[3 + ntags:]]
            want = 3 if etype == GMSH_TRI else 2
            if len(nodes) != want:
                raise MeshError(f"{path}: element {parts[0]} (type {etype}) has node "
                                f"count {len(nodes)}, not {want}")
            if etype == GMSH_TRI:
                tris.append(nodes)
            else:
                blines.append((nodes, parts[3] if ntags else 0))
    except KeyError as ex:
        raise MeshError(f"{path}: an element names node {ex}, which $Nodes does not "
                        "list") from None
    except (ValueError, IndexError) as ex:
        raise MeshError(f"{path}: malformed MSH file ({ex})") from None
    if not tris:
        raise MeshError(f"{path}: no triangles found")
    return coords, np.array(tris, dtype=int), blines


def import_msh(path, domain):
    """Linear TriMesh from file, boundary edges re-bound to domain segments."""
    coords, tris, blines = read_msh(path)
    tol = 1e-6 * domain.bbox_diag

    # orient triangles counterclockwise
    p0, p1, p2 = coords[tris].transpose(1, 0, 2)
    cw = (p1 - p0)[:, 0] * (p2 - p0)[:, 1] - (p1 - p0)[:, 1] * (p2 - p0)[:, 0] < 0
    tris[cw] = tris[cw][:, [0, 2, 1]]

    directed = local_edges(tris)
    # boundary edges: either the tagged lines or the edges used in one direction only
    if blines:
        edge_pairs = [(nodes[0], nodes[1]) for (nodes, _tag) in blines]
    else:
        edge_pairs = [(u, v) for (u, v) in directed if (v, u) not in directed]

    faces = []
    for (u, v) in edge_pairs:
        a, b = (u, v) if (u, v) in directed else (v, u)
        if (a, b) not in directed:
            raise MeshError("boundary line does not match any triangle edge")
        pa, pb = coords[a], coords[b]
        la, sa, ta, da = domain.closest_boundary_point(pa)
        lb, sb, tb, db = domain.closest_boundary_point(pb)
        if da > tol or db > tol:
            raise MeshError(
                f"mesh/geometry mismatch: boundary vertex {max(da, db):.2e} "
                "away from every segment")
        if (la, sa) != (lb, sb):
            # junction edge: one endpoint is the shared corner, so exactly one
            # of the two segments hosts both endpoints
            seg_b = domain.loops[lb].segments[sb]
            ta_on_b, da_on_b = seg_b.closest_point(pa)
            seg_a = domain.loops[la].segments[sa]
            tb_on_a, db_on_a = seg_a.closest_point(pb)
            if da_on_b <= tol:
                la, sa, ta, tb = lb, sb, ta_on_b, tb
            elif db_on_a <= tol:
                tb = tb_on_a
            else:
                raise MeshError("mesh/geometry mismatch at a segment junction")
        ei, le = directed[(a, b)]
        faces.append(BoundaryFace(ei, le, la, sa, float(ta), float(tb)))

    geom = coords[tris]
    mesh = TriMesh(coords, tris, 1, geom, faces, domain=domain)
    mesh.validate_jacobians()
    return mesh
