import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from maxwell2d import (CRACKED_SQUARE, L_SHAPE, SQUARE_PI, CornerStrategy,
                       EigenSolveError, EvpSystem, SolverConfig, Spectrum,
                       build_constraints, build_ag,
                       build_criss_cross, build_dofmap, build_osgs,
                       StabilizationParams, StudyConfig, build_sg,
                       build_uniform, filter_zeros, powell_sabin_refine,
                       reduce_system, run_case, run_study,
                       solve_generalized)
from maxwell2d import eig, study
from maxwell2d.eig import node_ordering
from maxwell2d.study import (build_mesh, compute_eigenfunction,
                             stabilization_length)
from dense_oracle import solve_dense


def reduced_sg(domain, mesh, **kwargs):
    system = build_sg(mesh, 1)
    cons = build_constraints(system.dofmap, **kwargs)
    return reduce_system(system, cons)


def toy_system(A, M):
    mesh = build_uniform(SQUARE_PI, 1)
    dofmap = build_dofmap(mesh, 1, "sg")
    return EvpSystem(A=sp.csr_matrix(A), M=sp.csr_matrix(M), dofmap=dofmap)


def test_identity_pencil():
    n = 40
    system = toy_system(np.eye(n), np.eye(n))
    spec = solve_dense(system)
    assert_allclose(spec.values, np.ones(n), rtol=1e-12)


def test_sg_square_first_nonzero_both_methods():
    mesh = build_criss_cross(SQUARE_PI, 5)
    reduced = reduced_sg(SQUARE_PI, mesh)
    dense = filter_zeros(solve_dense(reduced))
    arnoldi = filter_zeros(solve_generalized(reduced, SolverConfig(nev=17)))
    assert_allclose(dense.values[0], 1.0109, atol=5e-5)
    assert_allclose(arnoldi.values[0], 1.0109, atol=5e-5)
    assert dense.n_zero_filtered > 0
    assert arnoldi.n_zero_filtered == 0  # the walk upward never sees them


def reduced_stabilized(build, mesh, **kwargs):
    system = build(mesh, 1, StabilizationParams(0.1, 0.01, 0.6), mesh.h)
    return reduce_system(system, build_constraints(system.dofmap, **kwargs))


def test_shift_invert_matches_dense_oracle():
    # the default method runs Lanczos on every case, whatever its size:
    # first nev nonzero eigenvalues to relative 1e-10.  P2 edge nodes and
    # split crack-face nodes go through the node ordering; square SG/PS N=5
    # is the bench set-up solve, and crack N=2 has rank M = 45, just above
    # its window of 40.
    # Square OSGS/P2 CC N=4 at ell 0.2, c_u 0.1, c_p 1.0 ends its window in
    # two doubles just above 1/(c_p ell^2) = 25; ARPACK converges on the u
    # rows only, and only Ritz vectors lifted to the p and xi rows by the
    # block solve pass the certificate there
    square = build_criss_cross(SQUARE_PI, 5)
    lshape = build_criss_cross(L_SHAPE, 3)
    p2_square = build_criss_cross(SQUARE_PI, 3)
    crack = powell_sabin_refine(build_uniform(CRACKED_SQUARE, 4))
    coarse_crack = powell_sabin_refine(build_uniform(CRACKED_SQUARE, 2))
    p2_system = build_osgs(p2_square, 2, StabilizationParams(0.1, 0.01, 0.6),
                           p2_square.h)
    band_square = build_criss_cross(SQUARE_PI, 4)
    band_system = build_osgs(band_square, 2, StabilizationParams(0.2, 0.1, 1.0),
                             band_square.h)
    crack_system = build_osgs(coarse_crack, 1,
                              StabilizationParams(0.2, 0.1, 1.0),
                              coarse_crack.h)
    cases = [(reduced_sg(SQUARE_PI, square), 10),
             (reduced_stabilized(build_ag, square), 10),
             (reduced_stabilized(build_osgs, square), 10),
             (reduced_stabilized(build_osgs, lshape,
                                 corner=CornerStrategy.BISECTOR_NORMAL), 10),
             (reduce_system(p2_system, build_constraints(p2_system.dofmap)),
              10),
             (reduce_system(band_system, build_constraints(
                 band_system.dofmap)), 17),
             (reduced_stabilized(build_ag, crack), 10),
             (reduced_sg(SQUARE_PI, powell_sabin_refine(
                 build_uniform(SQUARE_PI, 5))), 17),
             (reduce_system(crack_system, build_constraints(
                 crack_system.dofmap)), 10)]
    assert [r.n for r, _ in cases[-2:]] == [298, 162]
    rank = eig.mass_support(cases[-1][0]).size
    assert rank == 45 > eig.lanczos_window(10) == 40
    for reduced, nev in cases:
        dense = filter_zeros(solve_dense(reduced))
        lanczos = filter_zeros(solve_generalized(reduced,
                                                 SolverConfig(nev=nev)))
        assert lanczos.lu_nnz > 0
        assert_allclose(lanczos.values[:nev], dense.values[:nev], rtol=1e-10)
        assert np.all(lanczos.residuals
                      <= 1e-8 * (1 + np.abs(lanczos.values)))
        assert lanczos.n_complex_rejected == 0


def test_small_finite_spectrum_caps_the_lanczos_window():
    # square OSGS/CC N=2: rank M = 14 is below the window of 23 for nev=3,
    # so Lanczos runs on a window of 14 vectors and reports 11 values, the
    # oracle's lowest at or above the shift.  SG's pencil of the same mesh
    # has three zero modes: its 13 pairs hold all 11 values above the shift
    # and two zero modes, which go
    reduced = reduced_stabilized(build_osgs, build_criss_cross(SQUARE_PI, 2))
    sg = reduced_sg(SQUARE_PI, build_criss_cross(SQUARE_PI, 2))
    assert eig.mass_support(reduced).size == eig.mass_support(sg).size == 14
    assert eig.lanczos_window(3) == 23
    for system, nev, reported in ((reduced, 3, 11), (sg, 17, 11)):
        spec = solve_generalized(system, SolverConfig(nev=nev))
        assert spec.lu_nnz > 0 and spec.n_op_applications > 0
        assert np.all(spec.residuals <= 1e-8 * (1 + np.abs(spec.values)))
        dense = solve_dense(system)
        above = dense.values[dense.values >= 0.5]
        assert len(spec.values) == reported
        assert_allclose(spec.values, above[:reported], rtol=1e-8)


def test_finite_spectrum_can_fall_short_of_mass_rank():
    # square OSGS/P2 uniform N=2: A is singular on the M-null rows, so QZ
    # finds fewer finite values than rank M, all of them real
    mesh = build_uniform(SQUARE_PI, 2)
    params = StabilizationParams(0.1, 0.01, 0.6)
    system = build_osgs(mesh, 2, params, mesh.h)
    reduced = reduce_system(system, build_constraints(system.dofmap))
    assert reduced.n == 114
    dense = solve_dense(reduced)
    assert dense.n_complex_rejected == 0
    assert len(dense.values) == 29 < eig.mass_support(reduced).size == 30


@pytest.mark.parametrize("solver", ["dense", "shift-invert"])
def test_double_eigenvalue_keeps_both_vectors(solver):
    # square AG/CC P2 N=2: QZ splits the double 5.2262 into a near-real
    # pair a +- ib; its two real vectors must span the eigenspace, not
    # repeat one vector.  Rank M = 62 is below the window of 68, so
    # Lanczos runs on a window of 62 vectors
    config = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="ag",
                         degree=2, N_list=(2,), ell=0.2, c_u=0.1, c_p=1.0,
                         nev=17)
    table = run_study(config)
    dense = solve_dense(reduced_case(config, 2))
    if solver == "dense":
        table = replace(table, finest=replace(table.finest, spectrum=dense))
    spec = table.finest.spectrum
    if solver == "dense":
        assert spec.lu_nnz == 0
    else:
        assert spec.lu_nnz > 0
        above = dense.values[dense.values >= 0.5]
        assert_allclose(spec.values, above[:len(spec.values)], rtol=1e-8)
    double = np.flatnonzero(np.abs(spec.values - 5.2262) < 1e-4)
    assert list(double) == [5, 6]
    x, y = spec.vectors[:, double].T
    assert abs(x @ y) < 0.9 * np.linalg.norm(x) * np.linalg.norm(y)
    mode5, mode6 = (compute_eigenfunction(table, i) for i in (5, 6))
    assert not np.allclose(np.c_[mode5.u1, mode5.u2],
                           np.c_[mode6.u1, mode6.u2])


# pencils whose rank M is at most the Lanczos window:
# (domain, mesh, formulation, degree, N, nev)
SMALL_PENCILS = {
    "square-sg-cc-1": (SQUARE_PI, "cc", "sg", 1, 2, 3),   # 3 zero modes
    "square-sg-uniform-1": (SQUARE_PI, "uniform", "sg", 1, 3, 5),
    "lshape-sg-uniform-2": (L_SHAPE, "uniform", "sg", 2, 1, 5),
    "crack-sg-cc-1": (CRACKED_SQUARE, "cc", "sg", 1, 2, 5),
    "square-ag-cc-1-rank2": (SQUARE_PI, "cc", "ag", 1, 1, 1),
    "square-ag-cc-2": (SQUARE_PI, "cc", "ag", 2, 2, 17),
    "lshape-ag-cc-1": (L_SHAPE, "cc", "ag", 1, 1, 3),
    "square-osgs-cc-1": (SQUARE_PI, "cc", "osgs", 1, 2, 3),
    "square-osgs-ps-1": (SQUARE_PI, "ps", "osgs", 1, 1, 3),
    "square-osgs-uniform-2": (SQUARE_PI, "uniform", "osgs", 2, 2, 17),
    "square-osgs-cc-2": (SQUARE_PI, "cc", "osgs", 2, 2, 17),
    "lshape-osgs-uniform-1": (L_SHAPE, "uniform", "osgs", 1, 2, 5),
    "crack-osgs-uniform-1": (CRACKED_SQUARE, "uniform", "osgs", 1, 2, 5),
}


@pytest.mark.parametrize("seed", [1, 2, 1234])
@pytest.mark.parametrize("case", SMALL_PENCILS)
def test_small_pencil_matches_the_oracle_above_the_shift(case, seed):
    # Lanczos caps its window at rank M and takes k = min(nev + 8,
    # rank M - 1) pairs, less those below the shift: every value of the
    # oracle at or above the shift, from the lowest, up to that count.  On
    # OSGS P2 the finite spectrum falls short of rank M (square uniform
    # N=2: 29 of 30, CC N=2: 59 of 62)
    domain, mesh, formulation, degree, N, nev = SMALL_PENCILS[case]
    reduced = reduced_case(StudyConfig(
        domain=domain, mesh=mesh, formulation=formulation, degree=degree,
        N_list=(N,)), N)
    rank = eig.mass_support(reduced).size
    assert 2 <= rank <= eig.lanczos_window(nev)
    spec = solve_generalized(reduced, SolverConfig(nev=nev, seed=seed))
    assert spec.lu_nnz > 0
    dense = solve_dense(reduced)
    above = dense.values[dense.values >= 0.5]
    assert len(spec.values) == min(nev + eig.GUARD_PAIRS, rank - 1,
                                   len(above))
    assert_allclose(spec.values, above[:len(spec.values)], rtol=1e-8)


def test_solver_methods():
    # shift-invert is the one method, a constant and no setting: dense QZ
    # is only the tests' oracle
    assert SolverConfig.method == "shift-invert"
    assert "method" not in {f.name for f in fields(SolverConfig)}
    assert not hasattr(eig, "METHODS")
    with pytest.raises(TypeError):
        SolverConfig(method="dense")
    with pytest.raises(ValueError, match="unknown solver"):
        StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                    N_list=(2,), solver="auto")


@pytest.mark.parametrize("case", ["crack-ps", "lshape-p2-cc"])
def test_node_ordering_fill(case):
    if case == "crack-ps":
        mesh = powell_sabin_refine(build_uniform(CRACKED_SQUARE, 8))
        params = StabilizationParams(0.2, 0.1, 1.0)
        system = build_osgs(mesh, 1, params, mesh.h)
        cons = build_constraints(system.dofmap)
    else:
        mesh = build_criss_cross(L_SHAPE, 5)
        params = StabilizationParams(0.1, 0.01, 0.6)
        system = build_osgs(mesh, 2, params, mesh.h)
        cons = build_constraints(system.dofmap,
                                 corner=CornerStrategy.BISECTOR_NORMAL)
    reduced = reduce_system(system, cons)
    perm = node_ordering(reduced)
    assert np.array_equal(np.sort(perm), np.arange(reduced.n))
    node = cons.retained_dofs()[perm] % system.dofmap.n_scalar
    runs = 1 + np.count_nonzero(np.diff(node))
    assert runs == len(np.unique(node))  # one consecutive run per node
    config = SolverConfig(nev=2)
    spec = solve_generalized(reduced, config)
    colamd = spla.splu(
        (reduced.A - config.shift * reduced.M).tocsc(),
        permc_spec="COLAMD", diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True))
    assert 0 < spec.lu_nnz < colamd.nnz


def float_fold_ordering(system):
    """Reference node ordering: the node graph as P' (|A| + |M|) P."""
    n = system.n
    dofs = system.constraints.retained_dofs() \
        if system.constraints is not None else np.arange(n)
    n_nodes = system.dofmap.n_scalar
    node = dofs % n_nodes
    P = sp.csr_matrix((np.ones(n), (np.arange(n), node)), shape=(n, n_nodes))
    G = (P.T @ (abs(system.A) + abs(system.M)) @ P).tocsc()
    G.data[:] = -1.0
    surrogate = (G + sp.diags(np.diff(G.indptr) + 1.0)).tocsc()
    position = spla.splu(surrogate, permc_spec="MMD_AT_PLUS_A").perm_c
    return np.argsort(position[node], kind="stable")


def reduced_case(config, N):
    mesh = build_mesh(config, N)
    if config.formulation == "sg":
        system = build_sg(mesh, config.degree)
    else:
        build = build_ag if config.formulation == "ag" else build_osgs
        system = build(mesh, config.degree, config.stabilization,
                       stabilization_length(config, mesh))
    return reduce_system(system, build_constraints(system.dofmap,
                                                   corner=config.corner))


@pytest.mark.parametrize("config, N", [
    (StudyConfig(domain=CRACKED_SQUARE, mesh="ps", formulation="osgs",
                 N_list=(6,)), 6),
    (StudyConfig(domain=SQUARE_PI, mesh="ps", formulation="sg",
                 N_list=(7,)), 7),
    (StudyConfig(domain=L_SHAPE, mesh="cc", formulation="osgs", degree=2,
                 N_list=(4,)), 4),
    (StudyConfig(domain=L_SHAPE, mesh="ps", formulation="ag",
                 corner=CornerStrategy.FREE, N_list=(5,)), 5),
    (StudyConfig(domain=L_SHAPE, mesh="ps", formulation="sg",
                 corner=CornerStrategy.BISECTOR_NORMAL, N_list=(5,)), 5),
    (StudyConfig(domain=L_SHAPE, mesh="cc", formulation="osgs", degree=2,
                 corner=CornerStrategy.BISECTOR_NORMAL, ell=0.3, c_u=0.85,
                 c_p=0.5, N_list=(5,)), 5),
], ids=["crack-osgs-ps", "square-sg-ps", "lshape-osgs-p2-cc",
        "lshape-ag-ps-free", "lshape-sg-ps-bisector",
        "lshape-osgs-p2-cc-bisector"])
def test_node_ordering_matches_float_fold(config, N):
    # the value-based graph and the element incidence agree wherever every
    # element-adjacent node pair has a stored nonzero in A or M
    reduced = reduced_case(config, N)
    assert np.array_equal(node_ordering(reduced),
                          float_fold_ordering(reduced))


@pytest.mark.parametrize("change", ["coupled", "scaled"])
def test_node_ordering_reads_only_mesh_and_constraints(change):
    reduced = reduced_case(StudyConfig(
        domain=CRACKED_SQUARE, mesh="ps", formulation="osgs", N_list=(6,)), 6)
    n = reduced.n
    if change == "coupled":   # first and last reduced dofs share no element
        coupling = sp.csr_matrix(([1e-3, 1e-3], ([0, n - 1], [n - 1, 0])),
                                 shape=(n, n))
        other = replace(reduced, A=(reduced.A + coupling).tocsr())
    else:
        other = replace(reduced, A=2.0 * reduced.A, M=3.0 * reduced.M)
    assert np.array_equal(node_ordering(other), node_ordering(reduced))


def test_solve_holds_one_pencil(monkeypatch):
    # live traced memory when ARPACK starts, against the pencil the solver
    # holds, K = P (A - sigma M) P' and M: beside them the mesh, dofmap and
    # ordering; the unreduced system, the reduced A and the temporaries of
    # K are gone (2.2x the pencil when the reduced A was kept beside K),
    # and M's support block shares M's arrays.  ARPACK runs on the support
    # of M: rank M dofs on OSGS, every dof on SG
    entry, solved = [], []
    eigsh, solve = spla.eigsh, study.solve_generalized

    def spy(A, *args, **kwargs):
        entry.append((tracemalloc.get_traced_memory()[0], A.shape,
                      kwargs["M"]))
        return eigsh(A, *args, **kwargs)

    def held(pencil, *args):
        solved.append(pencil)
        return solve(pencil, *args)

    monkeypatch.setattr(spla, "eigsh", spy)
    monkeypatch.setattr(study, "solve_generalized", held)
    tracemalloc.start()
    try:
        run_case(StudyConfig(domain=CRACKED_SQUARE, mesh="ps",
                             formulation="osgs", N_list=(8,)), 8)
    finally:
        tracemalloc.stop()
    run_case(StudyConfig(domain=SQUARE_PI, mesh="ps", formulation="sg",
                         N_list=(8,)), 8)
    (osgs, sg), ((live, *osgs_arpack), (_, *sg_arpack)) = solved, entry
    held_bytes = sum(X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
                     for X in (osgs.K, osgs.M))
    assert live / held_bytes <= 1.5
    rank = osgs.support.size
    assert rank < osgs.K.shape[0]
    for pencil, (shape, M), dim in ((osgs, osgs_arpack, rank),
                                    (sg, sg_arpack, sg.K.shape[0])):
        assert shape == M.shape == (dim, dim)
        assert np.shares_memory(M.data, pencil.M.data)


@pytest.mark.parametrize("config", [
    StudyConfig(domain=CRACKED_SQUARE, mesh="ps", formulation="osgs",
                N_list=(8,)),
    StudyConfig(domain=SQUARE_PI, mesh="ps", formulation="sg", N_list=(8,)),
], ids=["crack-osgs-ps", "square-sg-ps"])
def test_reduced_A_released_before_factorization(monkeypatch, config):
    # run_case hands the solve the shifted pencil and drops the reduced
    # system, so no reference keeps the reduced A alive into the factor;
    # a callee cannot drop it, as Python 3.10 keeps a caller's arguments
    # alive through the call
    refs, dead = [], []
    reduce, splu = study.reduce_system, spla.splu

    def reduced(*args):
        system = reduce(*args)
        refs.append(weakref.ref(system.A))
        return system

    def factor(*args, **kwargs):
        if kwargs["permc_spec"] == "NATURAL":
            dead.append([ref() is None for ref in refs])
        return splu(*args, **kwargs)

    monkeypatch.setattr(study, "reduce_system", reduced)
    monkeypatch.setattr(spla, "splu", factor)
    run_case(config, 8)
    assert dead == [[True]]


def test_shift_invert_releases_factor(monkeypatch):
    # the SuperLU factor is unreachable once certification starts
    class Factor:  # SuperLU takes no weak references; this proxy does
        def __init__(self, lu):
            self.lu, self.nnz, self.perm_c = lu, lu.nnz, lu.perm_c

        def solve(self, b):
            return self.lu.solve(b)

    factors, alive = [], []
    splu, certified = spla.splu, eig._certified

    def keep(*args, **kwargs):
        lu = Factor(splu(*args, **kwargs))
        factors.append(weakref.ref(lu))
        return lu

    def check(*args, **kwargs):
        alive.append([ref() is not None for ref in factors])
        return certified(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", keep)
    monkeypatch.setattr(eig, "_certified", check)
    mesh = build_criss_cross(SQUARE_PI, 4)
    solve_generalized(reduced_sg(SQUARE_PI, mesh),
                      SolverConfig(nev=4))
    assert alive == [[False, False]]  # the node-graph surrogate, the factor


def test_reduced_operator_symmetric():
    # the assembled A is symmetric and congruence keeps it so, fold included
    lshape = powell_sabin_refine(build_uniform(L_SHAPE, 3))
    crack = powell_sabin_refine(build_uniform(CRACKED_SQUARE, 4))
    for build in (build_ag, build_osgs):
        bisector = reduced_stabilized(build, lshape,
                                      corner=CornerStrategy.BISECTOR_NORMAL)
        assert bisector.constraints.fold is not None
        for reduced in (bisector, reduced_stabilized(build, crack)):
            A = reduced.A
            assert abs(A - A.T).max() <= 1e-12 * abs(A).max()


def test_dense_cap():
    n = 3001
    system = toy_system(sp.identity(n), sp.identity(n))
    with pytest.raises(EigenSolveError, match="dense solve capped at 3000"):
        solve_dense(system)


@pytest.mark.parametrize("c_u", [0.0, 0.01])
@pytest.mark.parametrize("build", [build_ag, build_osgs], ids=["ag", "osgs"])
def test_dense_rejects_a_singular_pencil(build, c_u):
    # square CC N=4 at c_p = 0: a pressure mode q with G q = 0 is a null
    # vector of both A and M, so A x = lambda M x for every lambda, and
    # QZ's arbitrary pairs would pass the certificate
    mesh = build_criss_cross(SQUARE_PI, 4)
    system = build(mesh, 1, StabilizationParams(0.1, c_u, 0.0), mesh.h)
    reduced = reduce_system(system, build_constraints(system.dofmap))
    with pytest.raises(EigenSolveError, match="singular pencil"):
        solve_dense(reduced)


def test_filter_zeros_examples():
    vecs = np.eye(3)
    spec = Spectrum(values=np.array([0.0, 0.0, 1.01]), vectors=vecs,
                    residuals=np.zeros(3))
    out = filter_zeros(spec)
    assert_allclose(out.values, [1.01])
    assert out.n_zero_filtered == 2
    spec = Spectrum(values=np.array([1e-9, 2e-7, 0.5]), vectors=vecs,
                    residuals=np.zeros(3))
    out = filter_zeros(spec)
    assert_allclose(out.values, [0.5])
    assert out.n_zero_filtered == 2


def test_ag_osgs_spectra_pass_filter_untouched():
    mesh = build_criss_cross(SQUARE_PI, 3)
    params = StabilizationParams(0.1, 0.01, 0.6)
    system = build_osgs(mesh, 1, params, mesh.h)
    reduced = reduce_system(system, build_constraints(system.dofmap))
    spec = solve_dense(reduced)
    assert spec.lu_nnz == spec.n_op_applications == spec.shift_retries == 0
    out = filter_zeros(spec)
    assert out.n_zero_filtered == 0
    assert np.all(out.values > 0)


def test_residual_certificates():
    mesh = build_criss_cross(SQUARE_PI, 4)
    reduced = reduced_sg(SQUARE_PI, mesh)
    spec = solve_generalized(reduced, SolverConfig(nev=10))
    assert np.all(spec.residuals <= 1e-8 * (1 + np.abs(spec.values)))


def test_certify_block_residuals():
    mesh = build_criss_cross(SQUARE_PI, 4)
    reduced = reduced_sg(SQUARE_PI, mesh)
    config = SolverConfig(nev=6)
    spec = solve_generalized(reduced, config)
    # the certificate's own formula, from the pencil the solve held
    pencil = eig.shifted_pencil(reduced, config.shift)
    K, M, perm, sigma = pencil.K, pencil.M, pencil.perm, pencil.sigma
    assert spec.shift == sigma
    per_pair = [np.linalg.norm(K @ x[perm] - (lam - sigma) * (M @ x)[perm])
                / np.linalg.norm(x)
                for lam, x in zip(spec.values, spec.vectors.T)]
    assert_allclose(spec.residuals, per_pair, rtol=1e-10, atol=1e-18)
    # the same residual as ||A x - lambda M x|| / ||x||, to round-off
    direct = np.array([np.linalg.norm(reduced.A @ x - lam * (reduced.M @ x))
                       / np.linalg.norm(x)
                       for lam, x in zip(spec.values, spec.vectors.T)])
    assert np.all(np.abs(spec.residuals - direct)
                  <= 1e-14 * (1.0 + np.abs(spec.values)))
    values = spec.values.copy()
    values[2] *= 1.01
    with pytest.raises(EigenSolveError, match="eigenpair 2 .* fails the "
                       "residual certificate"):
        eig._certified(K, M, sigma, values, spec.vectors, perm=perm)


def test_determinism():
    mesh = build_criss_cross(SQUARE_PI, 4)
    params = StabilizationParams(0.1, 0.01, 0.6)
    system = build_osgs(mesh, 1, params, mesh.h)
    reduced = reduce_system(system, build_constraints(system.dofmap))
    cfg = SolverConfig(nev=6, seed=77)
    a = solve_generalized(reduced, cfg)
    b = solve_generalized(reduced, cfg)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)
    assert a.lu_nnz == b.lu_nnz > 0
    assert a.n_op_applications == b.n_op_applications > 0
    assert a.n_complex_rejected == 0
    assert a.shift == cfg.shift and a.shift_retries == 0


def test_shift_independence():
    mesh = build_criss_cross(SQUARE_PI, 6)
    reduced = reduced_sg(SQUARE_PI, mesh)
    runs = []
    for sigma in (0.3, 0.5, 0.9):
        spec = filter_zeros(solve_generalized(
            reduced, SolverConfig(nev=10, shift=sigma)))
        runs.append(spec.values[:10])
    assert_allclose(runs[1], runs[0], rtol=1e-8)
    assert_allclose(runs[2], runs[0], rtol=1e-8)


def test_mass_rank_counted_once_per_solve(monkeypatch):
    # the window cap, ARPACK's support and the lift all read one support
    counts = []
    mass_support = eig.mass_support

    def counted(system):
        counts.append(system)
        return mass_support(system)

    monkeypatch.setattr(eig, "mass_support", counted)
    mesh = powell_sabin_refine(build_uniform(CRACKED_SQUARE, 4))
    osgs = reduced_stabilized(build_osgs, mesh)
    sg = reduced_sg(SQUARE_PI, build_criss_cross(SQUARE_PI, 4))
    for reduced in (osgs, sg):
        counts.clear()
        spec = solve_generalized(reduced, SolverConfig(nev=4))
        assert spec.lu_nnz > 0 and len(counts) == 1
    # a shift retry counts it no more
    counts.clear()
    A = np.diag(np.concatenate(([0.5], np.arange(1.0, 40.0))))
    spec = solve_generalized(toy_system(A, np.eye(40)),
                             SolverConfig(nev=2, shift=0.5))
    assert spec.shift_retries >= 1 and len(counts) == 1


def test_mass_support_need_not_lead():
    # M's null rows sit among its support rows: ARPACK runs on a copy of
    # M's support block, and the lift rebuilds the M-null entries
    B = np.random.default_rng(0).standard_normal((60, 60))
    d = np.ones(60)
    d[1::3] = 0.0
    system = toy_system(B @ B.T / 60 + np.eye(60), np.diag(d))
    assert eig.mass_support(system).size == 40
    spec = solve_generalized(system, SolverConfig(nev=3, shift=0.0))
    dense = solve_dense(system)
    assert len(spec.values) == 11
    assert_allclose(spec.values, dense.values[:11], rtol=1e-10)


def test_window_near_mass_rank_converges():
    # square OSGS/CC N=16 at default settings, rank M 1,022 of 3,138 dofs:
    # windows of 1,000 and 1,022 (nev 250, 300) broke down with ARPACK
    # -9999 when Lanczos ran on every dof with a semidefinite M; on the
    # support of M they converge and agree with nev 200's window of 800
    config = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="osgs",
                         N_list=(16,))
    reduced = reduced_case(config, 16)
    assert (reduced.n, eig.mass_support(reduced).size) == (3138, 1022)
    base = solve_generalized(reduced, SolverConfig(nev=200)).values
    assert len(base) == 208
    for nev in (250, 300):
        values = solve_generalized(reduced, SolverConfig(nev=nev)).values
        assert len(values) == nev + eig.GUARD_PAIRS
        assert_allclose(values[:208], base, rtol=1e-10)


def test_shift_collision_retries(monkeypatch):
    # pencil with an eigenvalue exactly at the default shift
    orderings = []

    def counting_ordering(system):
        orderings.append(system)
        return node_ordering(system)

    monkeypatch.setattr(eig, "node_ordering", counting_ordering)
    A = np.diag(np.concatenate(([0.5], np.arange(1.0, 40.0))))
    system = toy_system(A, np.eye(40))
    spec = solve_generalized(system, SolverConfig(nev=2, shift=0.5))
    assert_allclose(spec.values[0], 0.5, atol=1e-10)
    assert spec.shift_retries >= 1
    assert spec.shift < 0.5
    assert spec.lu_nnz > 0
    assert len(orderings) == 1  # the retries reuse the ordering


def test_arpack_failure_is_not_a_shift_collision(monkeypatch):
    # ArpackError is a RuntimeError: it must not take the shift retries
    calls = []

    def failing(*args, **kwargs):
        calls.append(kwargs["sigma"])
        raise spla.ArpackError(-9999)

    monkeypatch.setattr(spla, "eigsh", failing)
    A = np.diag(np.arange(1.0, 41.0))
    system = toy_system(A, np.eye(40))
    with pytest.raises(EigenSolveError, match="ARPACK failed: ARPACK error "
                                              "-9999"):
        solve_generalized(system, SolverConfig(nev=2, shift=0.5))
    assert calls == [0.5]


def test_three_failed_factorizations_end_the_solve(monkeypatch):
    shifts = []

    def failing(matrix, **kwargs):
        shifts.append(1.0 - matrix.diagonal()[0])   # A[0, 0] = 1
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(eig, "node_ordering", lambda s: np.arange(s.n))
    monkeypatch.setattr(spla, "splu", failing)
    A = np.diag(np.arange(1.0, 41.0))
    with pytest.raises(EigenSolveError, match="factorization failed near "
                       "sigma=0.5: Factor is exactly singular"):
        solve_generalized(toy_system(A, np.eye(40)),
                          SolverConfig(nev=2, shift=0.5))
    assert_allclose(shifts, [0.5, 0.4995, 0.4990005])


def test_failed_factorization_names_the_pencils_shift(monkeypatch):
    # a ShiftedPencil brings its own shift: the config's 0.5 is not it
    def failing(matrix, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    A = np.diag(np.arange(1.0, 41.0))
    pencil = eig.shifted_pencil(toy_system(A, np.eye(40)), 0.3)
    monkeypatch.setattr(spla, "splu", failing)
    with pytest.raises(EigenSolveError, match="factorization failed near "
                       "sigma=0.3: Factor is exactly singular"):
        solve_generalized(pencil, SolverConfig(nev=2))


def test_near_collision_retries_below(monkeypatch):
    # 1e-13 above the shift the factor exists, but Lanczos converges onto
    # the shift itself: _lanczos's collision check takes one retry
    factors = []
    splu = spla.splu

    def counted(matrix, **kwargs):
        lu = splu(matrix, **kwargs)
        factors.append(kwargs["permc_spec"])
        return lu

    monkeypatch.setattr(spla, "splu", counted)
    A = np.diag(np.concatenate(([0.5 + 1e-13], np.arange(1.0, 40.0))))
    spec = solve_generalized(toy_system(A, np.eye(40)),
                             SolverConfig(nev=2, shift=0.5))
    assert factors == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL"]
    assert spec.shift_retries == 1 and spec.shift == pytest.approx(0.4995)
    assert_allclose(spec.values[0], 0.5, atol=1e-10)
