import numpy as np
import pytest

from quadfield.msh import GMSH_LINE, GMSH_TRI, GMSH_TRI6, GMSH_TRI10, write_msh
from quadfield.trimesh import elevate_and_curve


def _msh_elements(path, etype):
    """Node coordinates of a MSH file, and the (tags, 1-based node ids) of each
    of its elements of gmsh type etype."""
    lines = path.read_text().splitlines()
    start = lines.index("$Nodes") + 2
    points = np.array([[float(v) for v in row.split()[1:3]]
                       for row in lines[start:lines.index("$EndNodes")]])
    start = lines.index("$Elements") + 2
    rows = [[int(v) for v in row.split()] for row in lines[start:lines.index("$EndElements")]]
    return points, [(row[3:5], row[5:]) for row in rows if row[1] == etype]


def test_roundtrip_half_disc(tmp_path, half_disc, captured):
    """The order-1 file holds the mesh's vertices and triangles, and one line per
    boundary face along its directed edge, tagged with its loop."""
    mesh = captured("half_disc", order=1).mesh
    path = tmp_path / "hd.msh"
    write_msh(path, mesh)
    points, tris = _msh_elements(path, GMSH_TRI)
    assert np.array_equal(points, mesh.vertices)
    tri = (mesh.triangles + 1).tolist()
    assert [ids for _, ids in tris] == tri
    _, lines = _msh_elements(path, GMSH_LINE)
    assert lines == [([f.loop + 1] * 2, [tri[f.elem][f.ledge], tri[f.elem][(f.ledge + 1) % 3]])
                     for f in mesh.boundary_faces]
    curved = elevate_and_curve(mesh, 3, half_disc)
    assert all(curved.det_jacobians(e).min() > 0 for e in range(curved.n_elements()))


def test_write_high_order(tmp_path, half_disc_mesh):
    path = tmp_path / "p3.msh"
    write_msh(path, half_disc_mesh)
    text = path.read_text()
    assert "$MeshFormat" in text and "2.2 0 8" in text
    # 10-node triangles
    for row in text.splitlines():
        parts = row.split()
        if len(parts) > 2 and parts[1] == "21":
            assert len(parts) == 3 + 2 + 10
            break
    else:
        raise AssertionError("no order-3 triangles written")


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("name", ["half_disc", "nautilus", "polygon_III", "geometry_I",
                                  "naca_IV", "holed_nautilus"])
def test_high_order_nodes_shared_by_topology(tmp_path, captured, name, order):
    mesh = captured(name, order=order).mesh
    path = tmp_path / "mesh.msh"
    write_msh(path, mesh)
    points, elements = _msh_elements(path, GMSH_TRI6 if order == 2 else GMSH_TRI10)
    conn = [ids for _, ids in elements]
    uses = {}
    for e, tri in enumerate(mesh.triangles.tolist()):
        for le in range(3):
            uses.setdefault(frozenset((tri[le], tri[(le + 1) % 3])), []).append((e, le))
    assert len(points) == (len(mesh.vertices) + len(uses) * (order - 1)
                           + mesh.n_elements() * (order == 3))

    def edge_nodes(e, le):
        # gmsh order: three vertices, then order - 1 nodes along each local edge
        ids = conn[e]
        inner = ids[3 + le * (order - 1):3 + (le + 1) * (order - 1)]
        return [ids[le]] + inner + [ids[(le + 1) % 3]]

    for pair in uses.values():
        if len(pair) == 2:
            (e0, le0), (e1, le1) = pair
            assert edge_nodes(e0, le0) == edge_nodes(e1, le1)[::-1]
