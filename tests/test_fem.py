import math
from enum import Enum

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.linalg as la
from numpy.testing import assert_allclose

from maxwell2d import (CRACKED_SQUARE, L_SHAPE, SQUARE_PI, AssemblyError,
                       assemble_form, build_criss_cross, build_dofmap,
                       build_uniform, make_quadrature, powell_sabin_refine,
                       reference_basis)
from maxwell2d.fem import scalar_kernels
from bare_mesh import bare_mesh
from projection import l2_project


def monomial_integral(a, b):
    # exact value of x^a y^b over the reference triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def reference_nodes(degree):
    # vertices, then for P2 the midpoints of edges (0,1), (1,2), (2,0)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    if degree == 1:
        return verts
    mids = 0.5 * (verts + np.roll(verts, -1, axis=0))
    return np.vstack([verts, mids])


def single_triangle_mesh():
    # classification is irrelevant for pure element tests
    return bare_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])


def test_quadrature_weights_sum_to_reference_area():
    rule = make_quadrature()
    assert len(rule.weights) == 7
    assert_allclose(rule.weights.sum(), 0.5, rtol=1e-15)
    assert np.all(rule.points >= 0.0) and np.all(rule.points.sum(axis=1) <= 1.0)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(6) for b in range(6)
                                 if a + b <= 5])
def test_quadrature_degree_five_exact(a, b):
    rule = make_quadrature()
    val = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
    assert_allclose(val, monomial_integral(a, b), rtol=1e-14)


def test_quadrature_examples():
    rule = make_quadrature()
    assert_allclose(np.sum(rule.weights), 0.5, rtol=1e-15)
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert_allclose(np.sum(rule.weights * x ** 2 * y ** 2), 1 / 180, rtol=1e-14)
    assert_allclose(np.sum(rule.weights * x ** 5), 1 / 42, rtol=1e-14)


@pytest.mark.parametrize("degree", [1, 2])
def test_partition_of_unity(degree):
    rule = make_quadrature()
    vals = reference_basis(degree, rule.points)[:, 0]
    assert_allclose(vals.sum(axis=1), 1.0, atol=1e-14)
    grads = reference_basis(degree, rule.points)[:, 1:].transpose(0, 2, 1)
    assert_allclose(grads.sum(axis=1), 0.0, atol=1e-14)


@pytest.mark.parametrize("degree", [1, 2])
def test_kronecker_property(degree):
    nodes = reference_nodes(degree)
    vals = reference_basis(degree, nodes)[:, 0]
    assert_allclose(vals, np.eye(len(nodes)), atol=1e-14)


@pytest.mark.parametrize("formulation,expected", [("sg", 122), ("ag", 183),
                                                  ("osgs", 366)])
def test_dofmap_field_counts(formulation, expected):
    mesh = build_criss_cross(SQUARE_PI, 5)
    dofmap = build_dofmap(mesh, 1, formulation)
    assert dofmap.ndof == expected
    assert dofmap.n_scalar == 61


def test_dofmap_rejects_unknown_formulation():
    mesh = build_uniform(SQUARE_PI, 2)
    with pytest.raises(AssemblyError):
        build_dofmap(mesh, 1, "galerkin")
    with pytest.raises(AssemblyError):
        build_dofmap(mesh, 3, "sg")
    kernels = scalar_kernels(build_dofmap(mesh, 1, "sg"))
    with pytest.raises(AssemblyError):
        assemble_form("galerkin", kernels)


def test_reference_basis_rejects_unknown_degree():
    with pytest.raises(AssemblyError, match="unsupported polynomial degree 3"):
        reference_basis(3, np.array([[0.2, 0.3]]))


def test_dofmap_p2_adds_edge_nodes():
    mesh = build_uniform(SQUARE_PI, 2)
    dofmap = build_dofmap(mesh, 2, "sg")
    # V + E for the 2x2 uniform square: 9 + 16
    assert dofmap.n_scalar == 25
    assert dofmap.element_nodes.shape == (8, 6)
    # midpoints listed after the vertices, coordinates consistent
    t0 = dofmap.element_nodes[0]
    mid = 0.5 * (mesh.points[t0[0]] + mesh.points[t0[1]])
    assert_allclose(dofmap.coords[t0[3]], mid, atol=1e-14)


def test_dofmap_p2_edge_node_numbering():
    # edge nodes follow the sorted (lo, hi) vertex pairs: (0,1), (0,2),
    # (0,3), (1,2), (2,3); the numbering feeds the fill-reducing ordering
    dofmap = build_dofmap(build_uniform(SQUARE_PI, 1), 2, "sg")
    h = np.pi / 2
    assert_allclose(dofmap.coords[4:], [[h, 0], [h, h], [0, h], [np.pi, h],
                                        [h, np.pi]], atol=1e-15)
    assert np.array_equal(dofmap.element_nodes, [[0, 1, 2, 4, 7, 5],
                                                 [0, 2, 3, 5, 8, 6]])
    assert dofmap.on_h[4:].tolist() == [True, False, False, False, True]
    assert dofmap.on_v[4:].tolist() == [False, False, True, True, False]


def test_dofmap_p2_crack_edges_per_face():
    mesh = build_uniform(CRACKED_SQUARE, 2)
    dofmap = build_dofmap(mesh, 2, "sg")
    coords = np.round(dofmap.coords, 12)
    at_mid = (np.abs(coords[:, 0] - 0.5) < 1e-12) & (np.abs(coords[:, 1]) < 1e-12)
    assert at_mid.sum() == 2  # one midpoint node per crack face copy
    assert np.all(dofmap.on_h[at_mid])


def test_mass_scalar_single_triangle():
    mesh = single_triangle_mesh()
    dofmap = build_dofmap(mesh, 1, "ag")
    mass = scalar_kernels(dofmap)["mass"].toarray()
    expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    assert_allclose(mass, expected, atol=1e-15)


def test_grad_grad_single_triangle():
    mesh = single_triangle_mesh()
    dofmap = build_dofmap(mesh, 1, "ag")
    kernels = scalar_kernels(dofmap)
    kgg = (kernels["kxx"] + kernels["kyy"]).toarray()
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert_allclose(kgg, expected, atol=1e-14)


def test_curl_curl_single_triangle_diagonal():
    mesh = single_triangle_mesh()
    dofmap = build_dofmap(mesh, 1, "sg")
    kcc = assemble_form("sg", scalar_kernels(dofmap))[0].toarray()
    # u2 dof of the node at (1, 0): integral of (d lambda_1 / dx)^2 = 1/2
    d = dofmap.dof("u2", 1)
    assert_allclose(kcc[d, d], 0.5, atol=1e-14)


def loop_scalar_kernels(dofmap):
    """The six kernels the long way, the reference for ``scalar_kernels``:
    physical gradients at each quadrature point, J^-T from an inverted
    Jacobian, summed per element and scattered through COO."""
    rule = make_quadrature()
    basis = reference_basis(dofmap.degree, rule.points)
    shape, ref_grads = basis[:, 0], basis[:, 1:].transpose(0, 2, 1)
    p = dofmap.mesh.points[dofmap.mesh.triangles]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    det, inv = np.linalg.det(jac), np.linalg.inv(jac)
    nt, nloc = len(det), shape.shape[1]
    pairs = {"mass": (0, 0), "kxx": (1, 1), "kxy": (1, 2), "kyy": (2, 2),
             "gx": (0, 1), "gy": (0, 2)}
    el = {name: np.zeros((nt, nloc, nloc)) for name in pairs}
    for q, w in enumerate(rule.weights):
        g = ref_grads[q] @ inv   # (nt, nloc, 2): rows J^-T grad phi
        rows = (np.broadcast_to(shape[q], (nt, nloc)), g[..., 0], g[..., 1])
        for name, (r, s) in pairs.items():
            el[name] += (w * det[:, None, None] * rows[r][:, :, None]
                         * rows[s][:, None, :])
    nodes = dofmap.element_nodes
    i = np.repeat(nodes, nloc, axis=1).ravel()
    j = np.tile(nodes, (1, nloc)).ravel()
    n = dofmap.n_scalar
    return {name: sp.coo_matrix((e.ravel(), (i, j)), shape=(n, n)).tocsr()
            for name, e in el.items()}


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("make_mesh", [
    lambda: build_uniform(SQUARE_PI, 3),
    lambda: build_criss_cross(L_SHAPE, 3),
    lambda: powell_sabin_refine(build_uniform(L_SHAPE, 2)),
    lambda: build_uniform(CRACKED_SQUARE, 2),     # two faces on one edge
    lambda: powell_sabin_refine(build_uniform(CRACKED_SQUARE, 2)),
], ids=["square-uniform", "lshape-cc", "lshape-ps", "crack-uniform",
        "crack-ps"])
def test_kernels_match_loop_reference(make_mesh, degree):
    dofmap = build_dofmap(make_mesh(), degree, "sg")
    kernels, ref = scalar_kernels(dofmap), loop_scalar_kernels(dofmap)
    assert kernels.keys() == ref.keys()
    for name, a in kernels.items():
        b = ref[name]
        assert np.array_equal(a.indptr, b.indptr), name
        assert np.array_equal(a.indices, b.indices), name
        scale = np.abs(b.data).max()
        assert np.abs(a.data - b.data).max() <= 1e-14 * scale, name


def assert_symmetric(a):
    diff = (a - a.T)
    denom = np.abs(a.toarray()).max()
    assert np.abs(diff.toarray()).max() <= 1e-12 * denom


def div_div(kernels):
    # (div u, div v) over the component-major (u1, u2) layout
    return sp.bmat([[kernels["kxx"], kernels["kxy"]],
                    [kernels["kxy"].T, kernels["kyy"]]], format="csr")


class FormKind(Enum):
    # the four symmetric forms the pencil table is built from
    CURL_CURL = "curl_curl"
    MASS_VEC = "mass_vec"
    DIV_DIV = "div_div"
    GRAD_GRAD = "grad_grad"


def form(kind, kernels):
    if kind is FormKind.CURL_CURL:
        return assemble_form("sg", kernels)[0]
    if kind is FormKind.MASS_VEC:
        return assemble_form("sg", kernels)[1]
    if kind is FormKind.DIV_DIV:
        return div_div(kernels)
    return kernels["kxx"] + kernels["kyy"]


@pytest.mark.parametrize("kind", list(FormKind))
def test_symmetry(kind):
    mesh = build_criss_cross(SQUARE_PI, 3)
    dofmap = build_dofmap(mesh, 1, "ag")
    assert_symmetric(form(kind, scalar_kernels(dofmap)))


@pytest.mark.parametrize("formulation", ["sg", "ag", "osgs"])
def test_pencil_symmetry(formulation):
    mesh = build_criss_cross(SQUARE_PI, 3)
    dofmap = build_dofmap(mesh, 1, "ag")
    A, M = assemble_form(formulation, scalar_kernels(dofmap), 0.006, 0.03)
    assert_symmetric(A)
    assert_symmetric(M)


def test_scalar_mass_kernel_symmetry():
    mesh = build_criss_cross(SQUARE_PI, 3)
    dofmap = build_dofmap(mesh, 1, "ag")
    assert_symmetric(scalar_kernels(dofmap)["mass"])


@pytest.mark.parametrize("degree", [1, 2])
def test_semidefinite_rayleigh(degree):
    mesh = build_uniform(SQUARE_PI, 3)
    dofmap = build_dofmap(mesh, degree, "ag")
    kernels = scalar_kernels(dofmap)
    rng = np.random.default_rng(7)
    for a in (assemble_form("sg", kernels)[0],
              kernels["kxx"] + kernels["kyy"], div_div(kernels)):
        for _ in range(5):
            x = rng.standard_normal(a.shape[0])
            assert x @ (a @ x) >= -1e-10 * (x @ x)


def test_mass_positive_definite_after_reduction():
    mesh = build_uniform(SQUARE_PI, 3)
    dofmap = build_dofmap(mesh, 1, "ag")
    kernels = scalar_kernels(dofmap)
    mv = assemble_form("sg", kernels)[1].toarray()
    ms = kernels["mass"].toarray()
    interior = ~(dofmap.on_h | dofmap.on_v)
    keep = np.where(np.concatenate([interior, interior]))[0]
    assert np.all(la.eigvalsh(mv[np.ix_(keep, keep)]) > 0)
    assert np.all(la.eigvalsh(ms[np.ix_(interior, interior)][:, :]) > 0)


def test_adjoint_pairing():
    # (grad p, v) is [Gx; Gy] in the u rows and its transpose in the p
    # rows; the eta' rows carry -sqrt(tau_u) (div u, psi) = -[Gx Gy] / 2
    # at tau_u = 1/4, and the u rows its transpose
    mesh = build_criss_cross(SQUARE_PI, 3)
    dofmap = build_dofmap(mesh, 1, "osgs")
    kernels = scalar_kernels(dofmap)
    n = dofmap.n_scalar
    A = assemble_form("osgs", kernels, 0.006, 0.25)[0]
    stacked = sp.bmat([[kernels["gx"]], [kernels["gy"]]], format="csr")
    div = sp.bmat([[kernels["gx"], kernels["gy"]]], format="csr")
    u, p, eta = slice(0, 2 * n), slice(2 * n, 3 * n), slice(5 * n, 6 * n)
    assert np.abs((A[u, p] - stacked)).max() == 0
    assert np.abs((A[p, u] - stacked.T)).max() == 0
    assert np.abs((A[eta, u] + 0.5 * div)).max() == 0
    assert np.abs((A[u, eta] + 0.5 * div.T)).max() == 0


def interpolate_vector(dofmap, fx, fy):
    x, y = dofmap.coords[:, 0], dofmap.coords[:, 1]
    return np.concatenate([fx(x, y), fy(x, y)])


def test_gradient_field_has_zero_curl_energy():
    mesh = build_criss_cross(SQUARE_PI, 4)
    dofmap = build_dofmap(mesh, 1, "sg")
    kcc = assemble_form("sg", scalar_kernels(dofmap))[0]
    u = interpolate_vector(dofmap, lambda x, y: y, lambda x, y: x)  # grad(xy)
    assert abs(u @ (kcc @ u)) <= 1e-12


def test_divergence_free_field_has_zero_div_energy():
    mesh = build_criss_cross(SQUARE_PI, 4)
    dofmap = build_dofmap(mesh, 1, "sg")
    kdd = div_div(scalar_kernels(dofmap))
    u = interpolate_vector(dofmap, lambda x, y: -y, lambda x, y: x)
    assert abs(u @ (kdd @ u)) <= 1e-12


def test_forms_do_not_depend_on_fields():
    # the kernels span the nodal points only: an SG dofmap, which has no
    # p field, yields the same kernels, and so the same OSGS pencil, as an
    # OSGS one
    mesh = build_uniform(SQUARE_PI, 2)
    sg = scalar_kernels(build_dofmap(mesh, 1, "sg"))
    osgs = scalar_kernels(build_dofmap(mesh, 1, "osgs"))
    pairs = [(sg[name], osgs[name]) for name in osgs]
    pairs += zip(assemble_form("osgs", sg, 0.006, 0.03),
                 assemble_form("osgs", osgs, 0.006, 0.03))
    for a, b in pairs:
        assert a.shape == b.shape
        assert (a != b).nnz == 0


def test_l2_project_linear_fields_exact():
    mesh = build_criss_cross(SQUARE_PI, 3)
    dofmap = build_dofmap(mesh, 1, "osgs")
    x, y = dofmap.coords[:, 0], dofmap.coords[:, 1]
    p = 2.0 * x - 3.0 * y + 1.0
    xi = l2_project(dofmap, "grad", p)
    n = dofmap.n_scalar
    assert_allclose(xi[:n], 2.0, atol=1e-11)
    assert_allclose(xi[n:], -3.0, atol=1e-11)
    u = np.concatenate([x + 2 * y, 3 * x + 4 * y])  # div = 1 + 4
    eta = l2_project(dofmap, "div", u)
    assert_allclose(eta, 5.0, atol=1e-11)


def test_l2_project_matches_dense_oracle():
    mesh = build_uniform(SQUARE_PI, 1)  # 2 triangles
    dofmap = build_dofmap(mesh, 1, "osgs")
    rng = np.random.default_rng(3)
    p = rng.standard_normal(dofmap.n_scalar)
    xi = l2_project(dofmap, "grad", p)
    kernels = scalar_kernels(dofmap)
    mass = kernels["mass"].toarray()
    rhs_x = kernels["gx"].toarray() @ p
    rhs_y = kernels["gy"].toarray() @ p
    expected = np.concatenate([la.solve(mass, rhs_x), la.solve(mass, rhs_y)])
    assert_allclose(xi, expected, atol=1e-12)


def quadrature_inner_product(mesh, dofmap, grad_coeff_a, xi_a, grad_coeff_b, xi_b):
    """Elementwise quadrature of (grad pa - xi_a) . (grad pb - xi_b)."""
    rule = make_quadrature()
    basis = reference_basis(dofmap.degree, rule.points)
    shape, ref_grads = basis[:, 0], basis[:, 1:].transpose(0, 2, 1)
    n = dofmap.n_scalar
    total = 0.0
    for t, nodes in enumerate(dofmap.element_nodes):
        p = mesh.points[mesh.triangles[t]]
        jac = np.array([[p[1, 0] - p[0, 0], p[2, 0] - p[0, 0]],
                        [p[1, 1] - p[0, 1], p[2, 1] - p[0, 1]]])
        det = la.det(jac)
        grads = ref_grads @ la.inv(jac)  # (q, nloc, 2)
        for q, w in enumerate(rule.weights):
            ga = grads[q].T @ grad_coeff_a[nodes]
            gb = grads[q].T @ grad_coeff_b[nodes]
            va = np.array([shape[q] @ xi_a[nodes],
                           shape[q] @ xi_a[n:][nodes]])
            vb = np.array([shape[q] @ xi_b[nodes],
                           shape[q] @ xi_b[n:][nodes]])
            total += w * det * np.dot(ga - va, gb - vb)
    return total


def test_orthogonal_projection_identity():
    # (P_perp a, P_perp b) = (a, b) - (P a, P b) for elementwise gradients
    mesh = build_uniform(SQUARE_PI, 2)
    dofmap = build_dofmap(mesh, 1, "osgs")
    kernels = scalar_kernels(dofmap)
    kgg = (kernels["kxx"] + kernels["kyy"]).toarray()
    mv = assemble_form("sg", kernels)[1].toarray()
    rng = np.random.default_rng(11)
    n = dofmap.n_scalar
    for _ in range(4):
        pa = rng.standard_normal(n)
        pb = rng.standard_normal(n)
        xa = l2_project(dofmap, "grad", pa)
        xb = l2_project(dofmap, "grad", pb)
        full = pa @ kgg @ pb                    # (grad pa, grad pb)
        projected = xa @ mv @ xb                # (P grad pa, P grad pb)
        direct = quadrature_inner_product(mesh, dofmap, pa, xa, pb, xb)
        assert abs(direct - (full - projected)) <= 1e-10 * (1 + abs(full))
