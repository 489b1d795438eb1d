import re

import pytest

from quadfield.errors import MeshError
from quadfield.geometry import load_fixture
from quadfield.msh import import_msh, read_msh, write_msh
from quadfield.trimesh import elevate_and_curve, generate_background_mesh

from conftest import square_domain

TWO_TRI_SQUARE = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
6
1 1 2 1 1 1 2
2 1 2 2 2 2 3
3 1 2 3 3 3 4
4 1 2 4 4 4 1
5 2 2 0 1 1 2 3
6 2 2 0 1 1 3 4
$EndElements
"""


def test_import_two_triangle_square(tmp_path):
    path = tmp_path / "square.msh"
    path.write_text(TWO_TRI_SQUARE)
    dom = square_domain()
    mesh = import_msh(path, dom)
    assert mesh.n_elements() == 2
    assert len(mesh.boundary_faces) == 4
    mesh.euler_check()


def test_import_rejects_quads(tmp_path):
    bad = TWO_TRI_SQUARE.replace("6\n1 1 2 1 1 1 2",
                                 "3\n1 3 2 0 1 1 2 3 4")
    bad = bad.replace("2 1 2 2 2 2 3\n3 1 2 3 3 3 4\n4 1 2 4 4 4 1\n", "")
    path = tmp_path / "quad.msh"
    path.write_text(bad)
    with pytest.raises(MeshError, match="unsupported element type"):
        import_msh(path, square_domain())


@pytest.mark.parametrize("old, new, message", [
    (TWO_TRI_SQUARE[TWO_TRI_SQUARE.index("$Elements"):], "", "no $Elements section"),
    ("$Nodes\n4\n", "$Nodes\nabc\n", "malformed MSH file"),
    ("6 2 2 0 1 1 3 4", "6 2 2 0 1 1 3 9", "an element names node 9, which $Nodes"),
    ("1 0 0 0", "1 0", "malformed MSH file"),
    ("$Nodes\n4\n", "$Nodes\n5\n", "$Nodes declares 5 nodes but lists 4 distinct ids"),
    ("4 0 1 0\n", "4 0 1 0\n5 9 9 0\n", "$Nodes declares 4 nodes but lists 5 rows"),
    ("$Elements\n6\n", "$Elements\n10\n", "$Elements declares 10 elements but lists 6 rows"),
    ("$Elements\n6\n", "$Elements\n4\n", "$Elements declares 4 elements but lists 6 rows"),
    ("5 2 2 0 1 1 2 3", "5 2 2 0 1 1 2", "element 5 (type 2) has node count 2, not 3"),
    ("1 1 2 1 1 1 2", "1 1 2 1 1 1", "element 1 (type 1) has node count 1, not 2"),
], ids=["no-elements", "node-count", "unknown-node", "short-node-row", "missing-node-row",
        "extra-node-row", "element-count-high", "element-count-low", "two-node-triangle",
        "one-node-line"])
def test_malformed_msh_raises_mesh_error_naming_the_file(tmp_path, old, new, message):
    path = tmp_path / "bad.msh"
    path.write_text(TWO_TRI_SQUARE.replace(old, new))
    with pytest.raises(MeshError, match=re.escape(f"{path}: {message}")):
        read_msh(path)


def test_import_rejects_offset_geometry(tmp_path):
    shifted = TWO_TRI_SQUARE.replace("2 1 0 0", "2 1.5 0 0")
    path = tmp_path / "shifted.msh"
    path.write_text(shifted)
    with pytest.raises(MeshError, match="mismatch"):
        import_msh(path, square_domain())


def test_roundtrip_half_disc(tmp_path, half_disc):
    mesh = generate_background_mesh(half_disc, 0.35)
    path = tmp_path / "hd.msh"
    write_msh(path, mesh)
    again = import_msh(path, half_disc)
    assert again.n_elements() == mesh.n_elements()
    assert len(again.boundary_faces) == len(mesh.boundary_faces)
    again.euler_check()
    curved = elevate_and_curve(again, 3, half_disc)
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


def _msh_triangles(path):
    """Node count and per-element node-id rows of the triangles in a MSH file."""
    lines = path.read_text().splitlines()
    n_nodes = int(lines[lines.index("$Nodes") + 1])
    start = lines.index("$Elements") + 2
    rows = [[int(v) for v in row.split()] for row in lines[start:lines.index("$EndElements")]]
    return n_nodes, [row[5:] for row in rows if row[1] in (9, 21)]


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("name", ["half_disc", "nautilus", "polygon_III", "geometry_I",
                                  "naca_IV", "holed_nautilus"])
def test_high_order_nodes_shared_by_topology(tmp_path, name, order):
    domain = load_fixture(name)
    mesh = elevate_and_curve(generate_background_mesh(domain, 0.35), order, domain)
    path = tmp_path / "mesh.msh"
    write_msh(path, mesh)
    n_nodes, conn = _msh_triangles(path)
    uses = {}
    for e, tri in enumerate(mesh.triangles.tolist()):
        for le in range(3):
            uses.setdefault(frozenset((tri[le], tri[(le + 1) % 3])), []).append((e, le))
    assert n_nodes == (len(mesh.vertices) + len(uses) * (order - 1)
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
