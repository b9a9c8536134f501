import numpy as np
import pytest
from numpy.testing import assert_allclose

from maxwell2d import (CRACKED_SQUARE, L_SHAPE, SQUARE_PI, MeshError,
                       boundary_axes, build_criss_cross,
                       build_dofmap, build_uniform, dump_mesh,
                       powell_sabin_refine)
from maxwell2d import fem, meshgen
from maxwell2d.meshgen import (GEOM_TOL, classify_boundary, crack_closure_mask,
                               edge_table)


ALL_DOMAINS = [SQUARE_PI, L_SHAPE, CRACKED_SQUARE]


def sample_meshes():
    cases = [
        ("uniform-square", build_uniform(SQUARE_PI, 4)),
        ("uniform-L", build_uniform(L_SHAPE, 3)),
        ("uniform-crack", build_uniform(CRACKED_SQUARE, 6)),
        ("cc-square", build_criss_cross(SQUARE_PI, 4)),
        ("cc-L", build_criss_cross(L_SHAPE, 3)),
        ("cc-crack", build_criss_cross(CRACKED_SQUARE, 8)),
        ("cc-crack-graded", build_criss_cross(CRACKED_SQUARE, 8,
                                              graded=True)),
        ("uniform-crack-min", build_uniform(CRACKED_SQUARE, 2)),
    ]
    cases += [("ps-" + name, powell_sabin_refine(mesh))
              for name, mesh in list(cases)]
    return cases


MESHES = sample_meshes()


def test_uniform_square_counts():
    mesh = build_uniform(SQUARE_PI, 2)
    assert mesh.n_points == 9
    assert mesh.n_triangles == 8
    assert_allclose(mesh.signed_areas().sum(), np.pi ** 2, rtol=1e-12)


def test_uniform_lshape_counts():
    mesh = build_uniform(L_SHAPE, 1)
    assert mesh.n_points == 8
    assert mesh.n_triangles == 6
    # the corner of the removed quadrant never becomes a node
    assert not np.any((np.abs(mesh.points[:, 0] - 1) < 1e-12)
                      & (np.abs(mesh.points[:, 1] + 1) < 1e-12))


def test_uniform_h_is_cell_diagonal():
    mesh = build_uniform(SQUARE_PI, 5)
    assert_allclose(mesh.h, np.sqrt(2) * np.pi / 5, rtol=1e-14)


def test_criss_cross_counts():
    mesh = build_criss_cross(SQUARE_PI, 2)
    assert (mesh.n_points, mesh.n_triangles) == (13, 16)
    mesh = build_criss_cross(SQUARE_PI, 5)
    assert (mesh.n_points, mesh.n_triangles) == (61, 100)
    assert_allclose(mesh.h, np.pi / 5, rtol=1e-14)


def test_crack_duplicates():
    mesh = build_criss_cross(CRACKED_SQUARE, 8)
    pts = np.round(mesh.points, 12)
    uniq, counts = np.unique(pts, axis=0, return_counts=True)
    dup = uniq[counts == 2]
    assert len(dup) == 3
    assert_allclose(sorted(dup[:, 0]), [0.25, 0.5, 0.75])
    assert np.all(dup[:, 1] == 0)
    # the tip coordinate appears exactly once
    tip = (np.abs(pts[:, 0]) < 1e-12) & (np.abs(pts[:, 1]) < 1e-12)
    assert tip.sum() == 1


def test_rejects_invalid_division_counts():
    with pytest.raises(ValueError):
        build_uniform(SQUARE_PI, 0)
    with pytest.raises(ValueError):
        build_criss_cross(SQUARE_PI, 0)
    with pytest.raises(ValueError, match="even division count"):
        build_uniform(CRACKED_SQUARE, 3)


def test_grading_restricted_to_crack():
    for domain in (SQUARE_PI, L_SHAPE):
        with pytest.raises(ValueError):
            build_criss_cross(domain, 4, graded=True)


def test_grading_identity_at_unit_exponent():
    # the power law is the identity at exponent 1: the plain crack grid
    for N in (2, 8):
        assert np.array_equal(meshgen._graded_axis(N, 1.0),
                              np.linspace(-1.0, 1.0, N + 1))
    assert meshgen.GRADING_EXPONENT == 2.0


def test_grading_clusters_toward_crack():
    graded = build_criss_cross(CRACKED_SQUARE, 8, graded=True)
    ys = np.unique(np.round(graded.points[:, 1], 12))
    gaps = np.diff(ys)
    # spacing shrinks toward y = 0
    mid = len(gaps) // 2
    assert gaps[mid] < gaps[0]
    assert 0.0 in ys
    xs = np.unique(np.round(graded.points[:, 0], 12))
    assert 0.0 in xs and 1.0 in xs


def test_powell_sabin_small_counts():
    base = build_uniform(SQUARE_PI, 1)  # 2-triangle square: V=4, E=5, T=2
    ps = powell_sabin_refine(base)
    assert ps.n_points == 11
    assert ps.n_triangles == 12
    assert_allclose(ps.signed_areas().sum(), base.signed_areas().sum(), rtol=1e-12)


def test_powell_sabin_numbering():
    # vertices, then edge midpoints in first-seen order, then barycenters;
    # the numbering feeds the fill-reducing ordering of the eigensolve
    ps = powell_sabin_refine(build_uniform(SQUARE_PI, 1))
    h, t = np.pi / 2, np.pi / 3
    assert_allclose(ps.points, [
        [0, 0], [np.pi, 0], [np.pi, np.pi], [0, np.pi],
        [h, 0], [np.pi, h], [h, h], [h, np.pi], [0, h],
        [2 * t, t], [t, 2 * t]], atol=1e-15)
    assert np.array_equal(ps.triangles, [
        [0, 4, 9], [4, 1, 9], [1, 5, 9], [5, 2, 9], [2, 6, 9], [6, 0, 9],
        [0, 6, 10], [6, 2, 10], [2, 7, 10], [7, 3, 10], [3, 8, 10],
        [8, 0, 10]])


def test_powell_sabin_lshape_count():
    ps = powell_sabin_refine(build_uniform(L_SHAPE, 5))
    assert ps.n_triangles == 900


@pytest.mark.parametrize("name,mesh", MESHES, ids=[n for n, _ in MESHES])
def test_orientation_and_area(name, mesh):
    areas = mesh.signed_areas()
    assert np.all(areas > 0)
    assert_allclose(areas.sum(), mesh.domain.area, rtol=1e-12)


@pytest.mark.parametrize("name,mesh", MESHES, ids=[n for n, _ in MESHES])
def test_edge_manifoldness(name, mesh):
    owners = np.bincount(mesh.edge_ids.ravel(), minlength=len(mesh.edges))
    assert set(owners.tolist()) <= {1, 2}
    # the nodes of the one-owner edges are exactly the marked nodes
    on_edge = np.zeros(mesh.n_points, dtype=bool)
    on_edge[boundary_edges(mesh)[:, :2]] = True
    assert np.array_equal(on_edge, mesh.on_h | mesh.on_v)


def boundary_edges(mesh):
    """The keys of the edges that the census counts once."""
    _, _, counts = edge_table(mesh.points, mesh.triangles, mesh.domain)
    return mesh.edges[counts == 1]


def loop_edge_census(points, triangles, domain):
    """Reference for edge_table: owners (t, local edge) per key, keys in
    first-seen order, built one triangle at a time."""
    on_crack = crack_closure_mask(points, domain)
    owners = {}
    for t, (a, b, c) in enumerate(triangles.tolist()):
        for loc, (i, j, opp) in enumerate(((a, b, c), (b, c, a), (c, a, b))):
            side = 0
            if on_crack[i] and on_crack[j]:
                side = 1 if points[opp, 1] > 0.0 else -1
            owners.setdefault((min(i, j), max(i, j), side), []).append((t, loc))
    return owners


@pytest.mark.parametrize("name,mesh", MESHES, ids=[n for n, _ in MESHES])
def test_edge_table_matches_loop_census(name, mesh):
    keys, edge_ids, counts = edge_table(mesh.points, mesh.triangles, mesh.domain)
    owners = loop_edge_census(mesh.points, mesh.triangles, mesh.domain)
    assert list(map(tuple, keys.tolist())) == list(owners)
    assert counts.tolist() == [len(v) for v in owners.values()]
    for e, owned in enumerate(owners.values()):
        assert all(edge_ids[t, loc] == e for t, loc in owned)
    # the census the mesh stores is the same one
    assert np.array_equal(mesh.edges, keys)
    assert np.array_equal(mesh.edge_ids, edge_ids)


@pytest.mark.parametrize("name,mesh", [c for c in MESHES if not c[0].startswith("ps")],
                         ids=[n for n, _ in MESHES if not n.startswith("ps")])
def test_powell_sabin_counting(name, mesh):
    ps = powell_sabin_refine(mesh)
    assert ps.n_points == mesh.n_points + len(mesh.edges) + mesh.n_triangles
    assert ps.n_triangles == 6 * mesh.n_triangles


@pytest.mark.parametrize("name,mesh", MESHES, ids=[n for n, _ in MESHES])
def test_crack_duplication_invariant(name, mesh):
    if not mesh.domain.has_crack:
        return
    pts = np.round(mesh.points, 12)
    uniq, counts = np.unique(pts, axis=0, return_counts=True)
    dup = uniq[counts > 1]
    assert np.all(counts <= 2)
    # duplicated coordinates all lie strictly inside the crack
    assert np.all(np.abs(dup[:, 1]) < 1e-12)
    assert np.all((dup[:, 0] > 0) & (dup[:, 0] < 1))
    on_crack_open = (np.abs(pts[:, 1]) < 1e-12) & (pts[:, 0] > 1e-12) \
        & (pts[:, 0] < 1 - 1e-12)
    assert 2 * len(dup) == on_crack_open.sum()


def test_square_corner_tags():
    mesh = build_criss_cross(SQUARE_PI, 3)
    corners = np.flatnonzero(mesh.on_h & mesh.on_v)
    assert_allclose(np.sort(np.abs(mesh.points[corners]).sum(axis=1)),
                    [0.0, np.pi, np.pi, 2 * np.pi], atol=1e-14)


def test_lshape_corner_tags():
    mesh = build_uniform(L_SHAPE, 2)
    # five convex corners and the re-entrant one at the origin
    assert (mesh.on_h & mesh.on_v).sum() == 6
    assert mesh.on_h[mesh.singular_node] and mesh.on_v[mesh.singular_node]


@pytest.mark.parametrize("name,mesh", MESHES, ids=[n for n, _ in MESHES])
def test_singular_node_is_origin(name, mesh):
    if mesh.domain is SQUARE_PI:
        assert mesh.singular_node == -1
        return
    at_origin = np.flatnonzero(np.all(np.abs(mesh.points) < 1e-12, axis=1))
    assert at_origin.tolist() == [mesh.singular_node]


def test_crack_tags_n4():
    mesh = build_criss_cross(CRACKED_SQUARE, 4)
    x, y = mesh.points.T
    # one grid node strictly inside the crack, duplicated per face
    face = np.flatnonzero((np.abs(y) < 1e-12) & (x > 1e-12) & (x < 1 - 1e-12))
    assert_allclose(mesh.points[face], [[0.5, 0.0], [0.5, 0.0]], atol=1e-14)
    assert np.all(mesh.on_h[face]) and not np.any(mesh.on_v[face])
    # each copy belongs to the triangles of one side only
    above = [y[mesh.triangles[np.any(mesh.triangles == i, axis=1)]].sum(axis=1)
             > 0 for i in face]
    assert sorted((a.all(), a.any()) for a in above) == \
        [(False, False), (True, True)]
    # the crack mouth joins the outer boundary and pins both components
    mouth = np.where((np.abs(x - 1) < 1e-12) & (np.abs(y) < 1e-12))[0]
    assert len(mouth) == 1
    assert mesh.on_h[mouth[0]] and mesh.on_v[mouth[0]]


def test_minimal_crack_mesh_is_pinched_but_valid():
    # N=2: no interior crack nodes; the two crack faces share both endpoints
    mesh = build_uniform(CRACKED_SQUARE, 2)
    crack = mesh.edges[:, 2] != 0
    assert sorted(mesh.edges[crack, 2].tolist()) == [-1, 1]
    # both faces are boundary edges, and their nodes are on the h axis
    boundary = boundary_edges(mesh)
    assert sorted(boundary[boundary[:, 2] != 0, 2].tolist()) == [-1, 1]
    assert np.all(mesh.on_h[mesh.edges[crack, :2]])
    ps = powell_sabin_refine(mesh)
    # the PS split must give each face its own midpoint at (1/2, 0)
    pts = np.round(ps.points, 12)
    at_mid = np.flatnonzero((np.abs(pts[:, 0] - 0.5) < 1e-12)
                            & (np.abs(pts[:, 1]) < 1e-12))
    assert at_mid.size == 2
    assert np.all(ps.on_h[at_mid]) and not np.any(ps.on_v[at_mid])
    # each midpoint closes the boundary edges of its own face
    sides = {int(side) for lo, hi, side in boundary_edges(ps)
             if lo in at_mid or hi in at_mid}
    assert sides == {-1, 1}


@pytest.mark.parametrize("name,mesh", MESHES, ids=[n for n, _ in MESHES])
def test_boundary_edges_axis_aligned(name, mesh):
    i, j, _ = boundary_edges(mesh).T
    dx = np.abs(mesh.points[i, 0] - mesh.points[j, 0])
    dy = np.abs(mesh.points[i, 1] - mesh.points[j, 1])
    horizontal, vertical = dy < 1e-12, dx < 1e-12
    assert np.all(horizontal | vertical)
    # each end of a horizontal edge is on_h, each end of a vertical one on_v
    assert np.all(mesh.on_h[i[horizontal]] & mesh.on_h[j[horizontal]])
    assert np.all(mesh.on_v[i[vertical]] & mesh.on_v[j[vertical]])


# (domain, points, axes): "b" on both axes, "h" or "v" on one, "-" inside
HAND_PICKED = [
    (SQUARE_PI, [[0, 0], [np.pi, 0], [np.pi, np.pi], [0, np.pi],
                 [np.pi / 2, 0], [np.pi, np.pi / 2], [np.pi / 2, np.pi],
                 [0, np.pi / 2], [np.pi / 2, np.pi / 2]], "bbbbhvhv-"),
    (L_SHAPE, [[0, 0], [0.5, 0], [0, -0.5], [-0.5, 0], [0, 0.5]], "bhv--"),
    (CRACKED_SQUARE, [[0, 0], [0.5, 0], [1, 0], [-0.5, 0]], "hhb-"),
]


@pytest.mark.parametrize("domain,points,axes", HAND_PICKED,
                         ids=[d.value for d, _, _ in HAND_PICKED])
def test_boundary_axes_at_hand_picked_points(domain, points, axes):
    on_h, on_v = boundary_axes(np.array(points, dtype=float), domain)
    assert on_h.tolist() == [a in "bh" for a in axes]
    assert on_v.tolist() == [a in "bv" for a in axes]


def test_classify_rejects_clockwise_triangle():
    square = np.array([[0.0, 0.0], [np.pi, 0.0], [np.pi, np.pi], [0.0, np.pi]])
    with pytest.raises(MeshError, match="non-CCW"):
        classify_boundary(square, np.array([[0, 1, 2], [0, 3, 2]]),
                          SQUARE_PI, 1.0)


def test_classify_rejects_slanted_boundary_edge():
    # the hypotenuse of a lone half-square is a boundary edge off both axes
    half = np.array([[0.0, 0.0], [np.pi, 0.0], [0.0, np.pi]])
    with pytest.raises(MeshError, match="not axis-aligned"):
        classify_boundary(half, np.array([[0, 1, 2]]), SQUARE_PI, 1.0)


def test_classify_rejects_boundary_mismatch():
    square = build_uniform(SQUARE_PI, 2)
    # the full square read as the L-shape: the origin sits on the notch
    # but inside the mesh
    points = square.points * (2 / np.pi) - 1.0
    with pytest.raises(MeshError, match="at \\(0.0, 0.0\\) is on the "
                       "geometric boundary but on no boundary edge"):
        classify_boundary(points, square.triangles, L_SHAPE, 1.0)
    # one cell of the square: its upper-right corner closes two boundary
    # edges inside the domain
    with pytest.raises(MeshError, match="on a boundary edge but inside"):
        classify_boundary(square.points[:4], square.triangles[:2],
                          SQUARE_PI, 1.0)


def test_powell_sabin_rejects_nonconforming_base():
    # three counter-clockwise triangles sharing the edge (1, 2) cannot be a
    # planar mesh, so no such base mesh, and hence no split of one, exists
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                       [0.2, 0.2]])
    triangles = np.array([[0, 1, 2], [1, 3, 2], [1, 2, 4]])
    with pytest.raises(MeshError, match="shared by 3 triangles"):
        classify_boundary(points, triangles, SQUARE_PI, 1.0)


def reference_boundary_masks(mesh, degree):
    """on_h and on_v of the nodal points, from a loop over the boundary
    edges that tags each one by its geometry: vertical when it lies off
    the crack with equal end abscissae, horizontal otherwise.  P2 edge
    nodes follow the sorted edge keys."""
    owners = loop_edge_census(mesh.points, mesh.triangles, mesh.domain)
    keys = sorted(owners) if degree == 2 else []
    n = mesh.n_points + len(keys)
    on_h, on_v = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    node = {key: mesh.n_points + k for k, key in enumerate(keys)}
    for (i, j, side), owned in owners.items():
        if len(owned) != 1:
            continue
        vertical = side == 0 and \
            abs(mesh.points[i, 0] - mesh.points[j, 0]) < GEOM_TOL
        hit = [i, j] + ([node[(i, j, side)]] if degree == 2 else [])
        (on_v if vertical else on_h)[hit] = True
    return on_h, on_v


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name,mesh", MESHES, ids=[n for n, _ in MESHES])
def test_dofmap_boundary_masks_match_geometry(name, mesh, degree):
    dofmap = build_dofmap(mesh, degree, "sg")
    on_h, on_v = reference_boundary_masks(mesh, degree)
    assert np.array_equal(dofmap.on_h, on_h)
    assert np.array_equal(dofmap.on_v, on_v)
    if degree == 1:
        assert np.array_equal(mesh.on_h, on_h)
        assert np.array_equal(mesh.on_v, on_v)


def test_edge_census_taken_once_per_mesh(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return edge_table(*args)

    monkeypatch.setattr(meshgen, "edge_table", counted)
    # a copy bound into fem would escape the count; catch that too
    monkeypatch.setattr(fem, "edge_table", counted, raising=False)
    # base mesh and split mesh: one census each
    build_dofmap(powell_sabin_refine(build_uniform(L_SHAPE, 3)), 2, "osgs")
    assert len(calls) == 2
    calls.clear()
    build_dofmap(build_criss_cross(L_SHAPE, 3), 2, "osgs")
    assert len(calls) == 1


def test_mesh_dump(tmp_path):
    mesh = build_uniform(SQUARE_PI, 2)
    path = tmp_path / "mesh.txt"
    dump_mesh(mesh, path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# nodes {mesh.n_points}"
    assert len(lines) == 2 + mesh.n_points + mesh.n_triangles
    # nodes 0-3 are the corners of the first cell: (0, 0) is a domain
    # corner, (pi/2, 0) on the bottom edge and (pi/2, pi/2) inside
    assert lines[1] == "0 0.0 0.0 1 1"
    assert lines[2].split()[3:] == ["1", "0"]
    assert lines[3].split()[3:] == ["0", "0"]
