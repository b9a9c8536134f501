import itertools

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from numpy.testing import assert_allclose

from maxwell2d import (CRACKED_SQUARE, L_SHAPE, SQUARE_PI, ConstraintError,
                       ConstraintSet, CornerStrategy, SolverConfig,
                       StabilizationParams, StudyConfig,
                       assemble_form, build_ag, build_constraints,
                       build_criss_cross, build_dofmap, build_osgs, build_sg,
                       build_uniform, filter_zeros, powell_sabin_refine,
                       reduce_system, run_case, solve_generalized,
                       square_reference)
from maxwell2d.fem import scalar_kernels
from maxwell2d.study import build_mesh, stabilization_length
from clough_tocher import clough_tocher_split
from dense_oracle import solve_dense
from projection import l2_project


def test_make_params_values():
    p = StabilizationParams(0.1, 0.01, 0.6)
    assert_allclose(p.tau_p, 0.006, rtol=1e-15)
    h = np.sqrt(2) * np.pi / 25
    assert_allclose(p.tau_u(h), h ** 2, rtol=1e-15)
    assert_allclose(p.tau_u(h), 0.03158, rtol=1e-3)
    p = StabilizationParams(0.3, 0.85, 0.5)
    assert_allclose(p.tau_p, 0.045, rtol=1e-15)


def test_make_params_rejects_nonpositive():
    # the type cannot be built invalid: no tau divides by zero or flips sign
    ok = dict(ell=0.1, c_u=0.01, c_p=0.6)
    bad = [dict(ell=0.0), dict(ell=-0.1),
           dict(c_u=-0.01), dict(c_p=-0.6),
           dict(ell=np.nan), dict(ell=np.inf), dict(c_u=np.nan),
           dict(c_p=np.inf),
           # a bool is no real, as the CLI's float readers say
           dict(ell=True), dict(c_u=True), dict(c_p=True)]
    for change in bad:
        with pytest.raises(ValueError):
            StabilizationParams(**(ok | change))
    params = StabilizationParams(**ok)
    for h in (-0.1, np.nan, np.inf, True):
        with pytest.raises(ValueError):
            params.tau_u(h)
    f = np.float64  # NumPy reals are reals
    assert StabilizationParams(f(0.1), f(0.01), f(0.6)).tau_u(f(0.5)) == \
        params.tau_u(0.5)
    zero = StabilizationParams(**(ok | dict(c_u=0.0, c_p=0.0)))
    assert zero.tau_p == zero.tau_u(0.0) == 0.0


@pytest.mark.parametrize("degree", [1, 2])
def test_pencils_nest(degree):
    # SG is the leading (u1, u2) block of AG at tau_u = 0, and AG the
    # leading (u1, u2, p) block of OSGS at the same taus
    kernels = scalar_kernels(build_dofmap(build_uniform(L_SHAPE, 3),
                                          degree, "osgs"))
    n = kernels["mass"].shape[0]

    def same(a, b):
        return a.shape == b.shape and (a != b).nnz == 0

    sg = assemble_form("sg", kernels)
    ag = assemble_form("ag", kernels, 0.006, 0.0)
    assert all(same(x, y[:2 * n, :2 * n]) for x, y in zip(sg, ag))
    ag = assemble_form("ag", kernels, 0.006, 0.03)
    osgs = assemble_form("osgs", kernels, 0.006, 0.03)
    assert all(same(x, y[:3 * n, :3 * n]) for x, y in zip(ag, osgs))
    assert osgs[0].shape == (6 * n, 6 * n)


def sg_p2_square_values(mesh_of):
    """The first 17 nonzero SG P2 values on mesh_of(N) at N = 8 and 16."""
    values = []
    for N in (8, 16):
        system = build_sg(mesh_of(N), 2)
        reduced = reduce_system(system, build_constraints(system.dofmap))
        spectrum = filter_zeros(solve_generalized(reduced,
                                                  SolverConfig(nev=17)))
        values.append(spectrum.values[:17])
    return values


def test_sg_p2_clean_on_clough_tocher_polluted_on_uniform():
    # SG P2 converges on Clough-Tocher splits (Boffi, Guzman and Neilan,
    # IMA J. Numer. Anal. 2023); on the plain uniform mesh it is polluted.
    # N=4 is left out: the split still shows a spurious 13.27 there
    refs = square_reference(17)
    v8, v16 = sg_p2_square_values(
        lambda N: clough_tocher_split(build_uniform(SQUARE_PI, N)))
    e8, e16 = np.abs(v8 - refs), np.abs(v16 - refs)
    assert np.max(e8 / refs) <= 2.5e-3 and np.max(e16 / refs) <= 2e-4
    rates = np.log2(e8 / e16)
    assert np.all((3.7 <= rates) & (rates <= 4.1)), rates
    v8, v16 = sg_p2_square_values(lambda N: build_uniform(SQUARE_PI, N))
    assert np.max(np.abs(v8 - refs) / refs) > 0.6
    assert np.max(np.abs(v16 - refs) / refs) > 0.6
    assert_allclose(v16[2], 1.3264, atol=5e-5)  # against the reference 2


def test_sg_gradient_field_curl_free():
    mesh = build_criss_cross(SQUARE_PI, 4)
    system = build_sg(mesh, 1)
    x, y = system.dofmap.coords[:, 0], system.dofmap.coords[:, 1]
    u = np.concatenate([y, x])  # grad(xy)
    assert abs(u @ (system.A @ u)) <= 1e-12


def test_sg_mass_of_constant_field_is_domain_area():
    mesh = build_criss_cross(SQUARE_PI, 4)
    system = build_sg(mesh, 1)
    n = system.dofmap.n_scalar
    u = np.concatenate([np.ones(n), np.zeros(n)])
    assert_allclose(u @ (system.M @ u), np.pi ** 2, rtol=1e-12)


def test_ag_zero_tau_equals_mixed_galerkin():
    mesh = build_criss_cross(SQUARE_PI, 3)
    params = StabilizationParams(0.1, 0.0, 0.0)
    system = build_ag(mesh, 1, params, 0.5)
    dofmap = system.dofmap
    kernels = scalar_kernels(dofmap)
    kcc = assemble_form("sg", kernels)[0]
    g = sp.bmat([[kernels["gx"]], [kernels["gy"]]], format="csr")
    plain = sp.bmat([[kcc, g], [g.T, sp.csr_matrix((dofmap.n_scalar,) * 2)]],
                    format="csr")
    assert np.abs((system.A - plain)).max() == 0


def test_ag_pressure_block_gradient_seminorm():
    mesh = build_criss_cross(SQUARE_PI, 3)
    params = StabilizationParams(0.1, 0.01, 0.6)
    system = build_ag(mesh, 1, params, 0.5)
    n = system.dofmap.n_scalar
    p_const = np.zeros(system.n)
    p_const[2 * n:] = 1.0
    assert abs(p_const @ (system.A @ p_const)) <= 1e-12
    rng = np.random.default_rng(0)
    p_rand = np.zeros(system.n)
    p_rand[2 * n:] = rng.standard_normal(n)
    assert p_rand @ (system.A @ p_rand) < 0


def test_coupling_blocks_transpose_exact():
    mesh = build_criss_cross(SQUARE_PI, 3)
    params = StabilizationParams(0.1, 0.01, 0.6)
    for system in (build_ag(mesh, 1, params, 0.5),
                   build_osgs(mesh, 1, params, 0.5)):
        n = system.dofmap.n_scalar
        u, p = slice(0, 2 * n), slice(2 * n, 3 * n)
        assert np.abs(system.A[p, u] - system.A[u, p].T).max() == 0
        if system.dofmap.fields[-1] == "eta":
            xi, eta = slice(3 * n, 5 * n), slice(5 * n, 6 * n)
            assert np.abs(system.A[xi, p] - system.A[p, xi].T).max() == 0
            assert np.abs(system.A[eta, u] - system.A[u, eta].T).max() == 0


def test_mass_kernel_is_non_u_fields():
    mesh = build_criss_cross(SQUARE_PI, 3)
    params = StabilizationParams(0.1, 0.01, 0.6)
    system = build_osgs(mesh, 1, params, 0.5)
    n = system.dofmap.n_scalar
    m = system.M.toarray()
    assert np.abs(m[2 * n:, :]).max() == 0
    assert np.abs(m[:, 2 * n:]).max() == 0
    assert np.all(la.eigvalsh(m[:2 * n, :2 * n]) > 0)


def test_osgs_zero_tau_decouples_projections():
    # a zero tau decouples its sqrt(tau)-scaled projection: at tau_p =
    # tau_u = 0 OSGS and AG are both mixed Galerkin, with one spectrum
    mesh = powell_sabin_refine(build_uniform(SQUARE_PI, 3))
    params = StabilizationParams(0.1, 0.0, 0.0)
    for build in (build_ag, build_osgs):
        system = build(mesh, 1, params, mesh.grid_step)
        reduced = reduce_system(system, build_constraints(system.dofmap))
        spectrum = solve_dense(reduced)
        assert_allclose(spectrum.values[:4],
                        [1.00798622, 1.02314585, 2.08342573, 3.39138878],
                        rtol=1e-8)
    # c_u = 0 alone leaves the p block to factor: the default path solves
    config = StudyConfig(domain=SQUARE_PI, mesh="ps", formulation="osgs",
                         N_list=(3,), c_u=0.0, c_p=0.6, nev=4)
    case = run_case(config, 3)
    assert case.spectrum.lu_nnz > 0   # Lanczos ran
    reduced = reduce_system(
        build_osgs(mesh, 1, config.stabilization, mesh.grid_step),
        case.constraints)
    dense = solve_dense(reduced)
    assert_allclose(case.values, dense.values[dense.values >= 0.5][:4],
                    rtol=1e-10)


def test_osgs_linear_pressure_forces_exact_projection():
    mesh = build_criss_cross(SQUARE_PI, 3)
    params = StabilizationParams(0.1, 0.01, 0.6)
    system = build_osgs(mesh, 1, params, 0.5)
    dofmap = system.dofmap
    n = dofmap.n_scalar
    x, y = dofmap.coords[:, 0], dofmap.coords[:, 1]
    p = 2.0 * x - 3.0 * y
    xi = l2_project(dofmap, "grad", p)
    assert_allclose(xi[:n], 2.0, atol=1e-11)
    assert_allclose(xi[n:], -3.0, atol=1e-11)
    vec = np.zeros(system.n)
    vec[2 * n:3 * n] = p
    vec[3 * n:5 * n] = np.sqrt(params.tau_p) * xi   # the unknown xi'
    # xi' rows (and the p-row stabilization) annihilate the exact pair
    resid = system.A @ vec
    assert np.abs(resid[3 * n:5 * n]).max() <= 1e-12
    # stabilization energy ||sqrt(tau_p) grad p - xi'||^2 vanishes
    quad = vec @ (system.A @ vec)
    assert abs(quad) <= 1e-10


def test_osgs_stabilization_blocks_are_psd():
    mesh = build_criss_cross(SQUARE_PI, 3)
    params = StabilizationParams(0.1, 0.01, 0.6)
    system = build_osgs(mesh, 1, params, 0.5)
    n = system.dofmap.n_scalar
    a = system.A
    rng = np.random.default_rng(5)
    kernels = scalar_kernels(system.dofmap)
    mv = assemble_form("sg", kernels)[1]
    kgg = kernels["kxx"] + kernels["kyy"]
    gv = sp.bmat([[kernels["gx"]], [kernels["gy"]]], format="csr")
    for _ in range(4):
        p = rng.standard_normal(n)
        xi = rng.standard_normal(2 * n)
        vec = np.zeros(system.n)
        vec[2 * n:3 * n] = p
        vec[3 * n:5 * n] = np.sqrt(params.tau_p) * xi   # the unknown xi'
        quad = vec @ (a @ vec)
        explicit = params.tau_p * (p @ (kgg @ p) - 2 * xi @ (gv @ p)
                                   + xi @ (mv @ xi))
        # the p and xi' rows carry the energy ||sqrt(tau_p) grad p - xi'||^2
        # = tau_p ||grad p - xi||^2 negated
        assert_allclose(quad, -explicit, rtol=1e-10, atol=1e-12)
        assert quad <= 1e-10


def fixed_set(constraints, dofmap, field, node):
    # fixed: dropped, and not the fold's slave rebuilt from its master
    dof = dofmap.dof(field, node)
    return not constraints.keep[dof] and \
        (constraints.fold is None or dof != constraints.fold[0])


def test_square_constraints():
    mesh = build_criss_cross(SQUARE_PI, 4)
    dofmap = build_dofmap(mesh, 1, "sg")
    cons = build_constraints(dofmap)
    for i, (x, y) in enumerate(dofmap.coords):
        # n x u = 0: x in {0, pi} fixes u2, y in {0, pi} fixes u1
        assert fixed_set(cons, dofmap, "u1", i) == \
            any(abs(y - e) < 1e-12 for e in (0.0, np.pi))
        assert fixed_set(cons, dofmap, "u2", i) == \
            any(abs(x - e) < 1e-12 for e in (0.0, np.pi))
    assert cons.fold is None


def test_lshape_bisector_single_mpc():
    mesh = powell_sabin_refine(build_uniform(L_SHAPE, 2))
    dofmap = build_dofmap(mesh, 1, "sg")
    cons = build_constraints(dofmap, corner=CornerStrategy.BISECTOR_NORMAL)
    slave, master = cons.fold
    origin = mesh.singular_node
    assert_allclose(dofmap.coords[origin], [0.0, 0.0], atol=1e-14)
    assert slave == dofmap.dof("u2", origin)
    assert master == dofmap.dof("u1", origin)
    assert not cons.keep[slave] and cons.keep[master]
    assert not fixed_set(cons, dofmap, "u1", origin)
    # the fold rebuilds the slave as -master
    x = cons.expand(np.arange(1.0, len(cons.retained_dofs()) + 1))
    assert x[slave] == -x[master] != 0.0


def test_lshape_corner_strategies():
    mesh = build_uniform(L_SHAPE, 2)
    dofmap = build_dofmap(mesh, 1, "ag")
    origin = mesh.singular_node
    # without a corner the L-shape takes the bisector rule
    default = build_constraints(dofmap)
    bisector = build_constraints(dofmap, corner=CornerStrategy.BISECTOR_NORMAL)
    assert np.array_equal(default.keep, bisector.keep)
    assert default.fold == bisector.fold == (dofmap.dof("u2", origin),
                                             dofmap.dof("u1", origin))
    free = build_constraints(dofmap, corner=CornerStrategy.FREE)
    assert free.fold is None
    assert not fixed_set(free, dofmap, "u1", origin)
    assert not fixed_set(free, dofmap, "u2", origin)
    # p is on the boundary at the corner, hence always fixed
    assert fixed_set(free, dofmap, "p", origin)


def test_bisector_requires_reentrant_corner():
    # every corner setting, not the bisector alone, needs the L-shape
    for domain in (SQUARE_PI, CRACKED_SQUARE):
        dofmap = build_dofmap(build_criss_cross(domain, 2), 1, "sg")
        for corner in CornerStrategy:
            with pytest.raises(ConstraintError):
                build_constraints(dofmap, corner=corner)
    # a corner that is no CornerStrategy is rejected, not read as one
    dofmap = build_dofmap(build_criss_cross(L_SHAPE, 2), 1, "sg")
    with pytest.raises(ConstraintError):
        build_constraints(dofmap, corner="bisector")


def test_crack_tip_strategies():
    mesh = build_criss_cross(CRACKED_SQUARE, 4)
    dofmap = build_dofmap(mesh, 1, "ag")
    tip = mesh.singular_node
    assert_allclose(dofmap.coords[tip], [0.0, 0.0], atol=1e-14)
    free = build_constraints(dofmap)
    assert not fixed_set(free, dofmap, "u1", tip)
    assert not fixed_set(free, dofmap, "u2", tip)
    assert fixed_set(free, dofmap, "p", tip)
    assert free.fold is None
    # crack faces pin the tangential (x) component on both copies
    x, y = dofmap.coords.T
    faces = np.flatnonzero((np.abs(y) < 1e-12) & (x > 1e-12) & (x < 1 - 1e-12))
    assert faces.size == 2
    for i in faces.tolist():
        assert fixed_set(free, dofmap, "u1", i)
        assert not fixed_set(free, dofmap, "u2", i)
        assert fixed_set(free, dofmap, "p", i)


def loop_constraints(dofmap, corner):
    """Reference for build_constraints: one node at a time."""
    keep, fold = np.ones(dofmap.ndof, dtype=bool), None
    u1, u2 = dofmap.offset("u1"), dofmap.offset("u2")
    domain = dofmap.mesh.domain
    for i in range(dofmap.n_scalar):
        if i == dofmap.mesh.singular_node:
            if domain.has_reentrant_corner and \
                    corner is not CornerStrategy.FREE:
                keep[u2 + i] = False
                fold = (u2 + i, u1 + i)
        else:
            if dofmap.on_h[i]:
                keep[u1 + i] = False
            if dofmap.on_v[i]:
                keep[u2 + i] = False
        if "p" in dofmap.fields and (dofmap.on_h[i] or dofmap.on_v[i]):
            keep[dofmap.offset("p") + i] = False
    return keep, fold


@pytest.mark.parametrize("domain,degree,formulation", [
    (SQUARE_PI, 1, "sg"), (L_SHAPE, 2, "osgs"), (CRACKED_SQUARE, 1, "ag"),
    (CRACKED_SQUARE, 2, "osgs")], ids=["domain0-1-sg", "domain1-2-osgs",
                                       "domain2-1-ag", "domain3-2-osgs"])
def test_constraints_match_loop_reference(domain, degree, formulation):
    dofmap = build_dofmap(powell_sabin_refine(build_uniform(domain, 4)),
                          degree, formulation)
    corners = [None, *CornerStrategy] if domain.has_reentrant_corner \
        else [None]
    for corner in corners:
        cs = build_constraints(dofmap, corner)
        keep, fold = loop_constraints(dofmap, corner)
        assert cs.keep.dtype == bool and np.array_equal(cs.keep, keep)
        assert cs.fold == fold


def loop_reduction_matrix(cons):
    """Reference for ConstraintSet.reduction_matrix: one triplet at a time."""
    ndof = len(cons.keep)
    keep = np.array([i for i in range(ndof) if cons.keep[i]], dtype=np.int64)
    col = -np.ones(ndof, dtype=np.int64)
    col[keep] = np.arange(len(keep))
    rows, cols, vals = list(keep), list(col[keep]), [1.0] * len(keep)
    if cons.fold is not None:
        s, m = cons.fold
        rows.append(s)
        cols.append(col[m])
        vals.append(-1.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(ndof, len(keep)))


@pytest.mark.parametrize("domain,degree,formulation", [
    (L_SHAPE, 1, "sg"), (L_SHAPE, 2, "osgs"), (CRACKED_SQUARE, 1, "ag")],
    ids=["domain0-1-sg", "domain1-2-osgs", "domain2-1-ag"])
def test_reduction_matrix_matches_loop_reference(domain, degree, formulation):
    dofmap = build_dofmap(powell_sabin_refine(build_uniform(domain, 4)),
                          degree, formulation)
    corners = list(CornerStrategy) if domain.has_reentrant_corner else [None]
    for corner in corners:
        cons = build_constraints(dofmap, corner)
        T, ref = cons.reduction_matrix(), loop_reduction_matrix(cons)
        for a, b in ((T.indptr, ref.indptr), (T.indices, ref.indices),
                     (T.data, ref.data)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_osgs_projection_fields_never_constrained():
    mesh = build_criss_cross(CRACKED_SQUARE, 4)
    dofmap = build_dofmap(mesh, 1, "osgs")
    cons = build_constraints(dofmap)
    lo = dofmap.offset("xi1")
    assert cons.keep[lo:].all()


def test_constraint_validation():
    keep = np.array([True, False, False, True])
    ConstraintSet(keep, fold=(1, 0))
    bad = [
        (np.array([]), None),              # float, not bool
        (np.array([1, 0, 0, 1]), None),    # int, not bool
        (keep.tolist(), None),             # not an array
        (keep.reshape(2, 2), None),        # 2-D
        (keep, (0, 3)),                    # kept slave
        (keep, (1, 2)),                    # dropped master
        (keep, (1, 4)), (keep, (4, 0)),    # outside [0, 4)
        (keep, (1, -1)), (keep, (-3, 0)),  # negative: would wrap to a valid pair
    ]
    for mask, fold in bad:
        with pytest.raises(ConstraintError):
            ConstraintSet(mask, fold)


def test_reduce_identity_without_constraints():
    mesh = build_criss_cross(SQUARE_PI, 2)
    system = build_sg(mesh, 1)
    cons = ConstraintSet(np.ones(system.n, dtype=bool))
    reduced = reduce_system(system, cons)
    assert reduced.n == system.n
    assert np.abs((reduced.A - system.A)).max() == 0


def test_reduce_single_fixed_dof():
    A = sp.csr_matrix(np.arange(9.0).reshape(3, 3))
    cons = ConstraintSet(np.array([True, False, True]))
    T = cons.reduction_matrix()
    out = (T.T @ A @ T).toarray()
    assert_allclose(out, [[0.0, 2.0], [6.0, 8.0]])


def test_reduce_mpc_toy():
    cons = ConstraintSet(np.array([True, False]), fold=(1, 0))
    T = cons.reduction_matrix()
    A = sp.identity(2, format="csr")
    out = (T.T @ A @ T).toarray()
    assert_allclose(out, [[2.0]])
    assert_allclose(cons.expand(np.array([3.0])), [3.0, -3.0])


def test_congruence_preserves_symmetry():
    mesh = build_uniform(L_SHAPE, 3)
    system = build_sg(mesh, 1)
    cons = build_constraints(system.dofmap,
                             corner=CornerStrategy.BISECTOR_NORMAL)
    reduced = reduce_system(system, cons)
    a = reduced.A.toarray()
    assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()


def dense_eigenvalues(A, M):
    w = la.eig(A.toarray(), M.toarray(), right=False)
    w = w[np.isfinite(w) & (np.abs(w) < 1e12)]
    w = w[np.abs(w.imag) <= 1e-8 * (1 + np.abs(w.real))].real
    return np.sort(w)


def test_osgs_matches_schur_complement_spectrum():
    # monolithic implicit projections vs dense elimination of xi and eta
    mesh = build_uniform(SQUARE_PI, 2)
    params = StabilizationParams(0.1, 0.01, 0.6)
    system = build_osgs(mesh, 1, params, mesh.h)
    cons = build_constraints(system.dofmap)
    reduced = reduce_system(system, cons)
    assert reduced.n <= 200
    n = system.dofmap.n_scalar
    retained = cons.retained_dofs()
    proj = np.zeros(system.n, dtype=bool)
    proj[3 * n:] = True
    red_proj = proj[retained]
    A = reduced.A.toarray()
    M = reduced.M.toarray()
    keep = ~red_proj
    app = A[np.ix_(red_proj, red_proj)]
    akp = A[np.ix_(keep, red_proj)]
    apk = A[np.ix_(red_proj, keep)]
    akk = A[np.ix_(keep, keep)]
    schur = akk - akp @ la.solve(app, apk)
    w_mono = dense_eigenvalues(reduced.A, reduced.M)
    w_schur = dense_eigenvalues(sp.csr_matrix(schur),
                                sp.csr_matrix(M[np.ix_(keep, keep)]))
    k = min(10, len(w_mono), len(w_schur))
    assert_allclose(w_mono[:k], w_schur[:k], rtol=1e-8)


def test_ag_osgs_spectra_strictly_positive():
    # the full finite spectrum from the dense oracle, not a shift-invert
    # window that starts at the shift: every value is real and positive
    checked = 0
    for domain, N in ((SQUARE_PI, 3), (L_SHAPE, 2), (CRACKED_SQUARE, 2)):
        corner = CornerStrategy.FREE if domain is L_SHAPE else None
        for mesh_family, degree, formulation in itertools.product(
                ("uniform", "cc", "ps"), (1, 2), ("ag", "osgs")):
            config = StudyConfig(domain=domain, mesh=mesh_family,
                                 formulation=formulation, degree=degree,
                                 N_list=(N,), corner=corner)
            mesh = build_mesh(config, N)
            build = build_ag if formulation == "ag" else build_osgs
            system = build(mesh, degree, config.stabilization,
                           stabilization_length(config, mesh))
            reduced = reduce_system(system, build_constraints(
                system.dofmap, corner=corner))
            if reduced.n > 1000:
                continue
            w = la.eig(reduced.A.toarray(), reduced.M.toarray(), right=False)
            w = w[np.isfinite(w) & (np.abs(w) < 1e12)]
            assert np.all(np.abs(w.imag) <= 1e-8 * (1 + np.abs(w.real)))
            assert w.real.min() > 0, (domain, mesh_family, degree,
                                      formulation)
            checked += 1
    # all but P2 OSGS on the Powell-Sabin square and L-shape
    assert checked == 34


def test_reduce_rejects_mask_of_wrong_length():
    system = build_sg(build_uniform(SQUARE_PI, 2), 1)
    cons = ConstraintSet(np.ones(system.n - 1, dtype=bool))
    with pytest.raises(ConstraintError, match="does not match system size"):
        reduce_system(system, cons)
