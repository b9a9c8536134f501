import tracemalloc
import weakref
from dataclasses import replace

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
from maxwell2d import eig
from maxwell2d.eig import node_ordering
from maxwell2d.study import (build_mesh, compute_eigenfunction,
                             stabilization_length)


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
    spec = solve_generalized(system, SolverConfig(nev=5, method="dense"))
    assert_allclose(spec.values, np.ones(n), rtol=1e-12)


def test_sg_square_first_nonzero_both_methods():
    mesh = build_criss_cross(SQUARE_PI, 5)
    reduced = reduced_sg(SQUARE_PI, mesh)
    dense = filter_zeros(solve_generalized(
        reduced, SolverConfig(nev=17, method="dense")))
    arnoldi = filter_zeros(solve_generalized(
        reduced, SolverConfig(nev=17, method="shift-invert")))
    assert_allclose(dense.values[0], 1.0109, atol=5e-5)
    assert_allclose(arnoldi.values[0], 1.0109, atol=5e-5)
    assert dense.n_zero_filtered > 0
    assert arnoldi.n_zero_filtered == 0  # the walk upward never sees them


def reduced_stabilized(build, mesh, **kwargs):
    system = build(mesh, 1, StabilizationParams(0.1, 0.01, 0.6), mesh.h)
    return reduce_system(system, build_constraints(system.dofmap, **kwargs))


def test_shift_invert_matches_dense_oracle():
    # the default method runs Lanczos on every case whose finite spectrum
    # (rank M) exceeds the window, whatever its size: first nev nonzero
    # eigenvalues to relative 1e-10.  P2 edge nodes and split crack-face
    # nodes go through the node ordering; square SG/PS N=5 is the bench
    # set-up solve, and crack N=2 has rank M = 45 against a window of 40.
    # Square OSGS/P2 CC N=4 at ell 0.2, c_u 0.1, c_p 1.0 ends its window in
    # two doubles just above 1/(c_p ell^2) = 25; ARPACK's M-norm test cannot
    # see their error on the p and xi rows, and only purified Ritz vectors
    # pass the certificate there
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
    assert eig.mass_rank(cases[-1][0]) == 45 > eig.lanczos_window(10) == 40
    for reduced, nev in cases:
        dense = filter_zeros(solve_generalized(
            reduced, SolverConfig(nev=nev, method="dense")))
        lanczos = filter_zeros(solve_generalized(reduced,
                                                 SolverConfig(nev=nev)))
        assert lanczos.lu_nnz > 0
        assert_allclose(lanczos.values[:nev], dense.values[:nev], rtol=1e-10)
        assert np.all(lanczos.residuals
                      <= 1e-8 * (1 + np.abs(lanczos.values)))
        assert lanczos.n_complex_rejected == 0


def test_small_finite_spectrum_falls_back_to_dense():
    # square OSGS/CC N=2: rank M = 14 is below the window of 23 for nev=3,
    # where ARPACK cannot run; QZ stands in and keeps the values above
    # the shift, as Lanczos would
    reduced = reduced_stabilized(build_osgs, build_criss_cross(SQUARE_PI, 2))
    assert eig.mass_rank(reduced) == 14 < eig.lanczos_window(3)
    spec = solve_generalized(reduced, SolverConfig(nev=3))
    assert spec.lu_nnz == spec.n_op_applications == 0
    assert np.all(spec.residuals <= 1e-8 * (1 + np.abs(spec.values)))
    dense = solve_generalized(reduced, SolverConfig(nev=3, method="dense"))
    assert_allclose(spec.values, dense.values[dense.values >= 0.5])
    assert len(spec.values) >= 3 and np.all(spec.values >= 0.5)
    sg = solve_generalized(reduced_sg(SQUARE_PI, build_criss_cross(
        SQUARE_PI, 2)), SolverConfig(nev=3))
    assert sg.lu_nnz == 0 and np.all(sg.values >= 0.5)  # no zero modes


def test_finite_spectrum_can_fall_short_of_mass_rank():
    # square OSGS/P2 uniform N=2: A is singular on the M-null rows, so QZ
    # finds fewer finite values than rank M, all of them real
    mesh = build_uniform(SQUARE_PI, 2)
    params = StabilizationParams(0.1, 0.01, 0.6)
    system = build_osgs(mesh, 2, params, mesh.h)
    reduced = reduce_system(system, build_constraints(system.dofmap))
    assert reduced.n == 114
    dense = solve_generalized(reduced, SolverConfig(nev=3, method="dense"))
    assert dense.n_complex_rejected == 0
    assert len(dense.values) == 29 < eig.mass_rank(reduced) == 30


@pytest.mark.parametrize("solver", ["dense", "shift-invert"])
def test_double_eigenvalue_keeps_both_vectors(solver):
    # square AG/CC P2 N=2: QZ splits the double 5.2262 into a near-real
    # pair a +- ib; its two real vectors must span the eigenspace, not
    # repeat one vector.  The default method takes the rank-M fallback here
    config = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="ag",
                         degree=2, N_list=(2,), ell=0.2, c_u=0.1, c_p=1.0,
                         nev=17, solver=solver)
    table = run_study(config)
    spec = table.finest.spectrum
    assert spec.lu_nnz == 0
    double = np.flatnonzero(np.abs(spec.values - 5.2262) < 1e-4)
    assert list(double) == [5, 6]
    x, y = spec.vectors[:, double].T
    assert abs(x @ y) < 0.9 * np.linalg.norm(x) * np.linalg.norm(y)
    mode5, mode6 = (compute_eigenfunction(table, i) for i in (5, 6))
    assert not np.allclose(np.c_[mode5.u1, mode5.u2],
                           np.c_[mode6.u1, mode6.u2])


def test_solver_methods():
    assert SolverConfig().method == "shift-invert"
    for method in ("auto", "arnoldi"):
        with pytest.raises(ValueError, match="unknown solver method"):
            SolverConfig(method=method)
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
    config = SolverConfig(nev=2, method="shift-invert")
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
    # live traced memory when ARPACK starts: the reduced A and M, the mesh,
    # dofmap and ordering; the unreduced system, D A and the permuted copies
    # are gone (4.5x the reduced pencil when they were kept)
    entry = []
    eigsh = spla.eigsh

    def spy(A, *args, **kwargs):
        M = kwargs["M"]
        pencil = sum(X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
                     for X in (A, M))
        entry.append(tracemalloc.get_traced_memory()[0] / pencil)
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spy)
    config = StudyConfig(domain=CRACKED_SQUARE, mesh="ps", formulation="osgs",
                         N_list=(8,), solver="shift-invert")
    tracemalloc.start()
    try:
        run_case(config, 8)
    finally:
        tracemalloc.stop()
    assert len(entry) == 1 and entry[0] <= 1.5


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
                      SolverConfig(nev=4, method="shift-invert"))
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
    with pytest.raises(EigenSolveError):
        solve_generalized(system, SolverConfig(nev=2, method="dense"))


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
    spec = solve_generalized(reduced, SolverConfig(nev=8, shift=0.7,
                                                   method="dense"))
    assert spec.lu_nnz == spec.n_op_applications == 0
    assert spec.shift == 0.7 and spec.shift_retries == 0
    out = filter_zeros(spec)
    assert out.n_zero_filtered == 0
    assert np.all(out.values > 0)


def test_residual_certificates():
    mesh = build_criss_cross(SQUARE_PI, 4)
    reduced = reduced_sg(SQUARE_PI, mesh)
    spec = solve_generalized(reduced, SolverConfig(nev=10,
                                                   method="shift-invert"))
    assert np.all(spec.residuals <= 1e-8 * (1 + np.abs(spec.values)))


def test_certify_block_residuals():
    mesh = build_criss_cross(SQUARE_PI, 4)
    reduced = reduced_sg(SQUARE_PI, mesh)
    spec = solve_generalized(reduced, SolverConfig(nev=6,
                                                   method="shift-invert"))
    per_pair = [np.linalg.norm(reduced.A @ x - lam * (reduced.M @ x))
                / np.linalg.norm(x)
                for lam, x in zip(spec.values, spec.vectors.T)]
    assert_allclose(spec.residuals, per_pair, rtol=1e-10, atol=1e-18)
    values = spec.values.copy()
    values[2] *= 1.01
    with pytest.raises(EigenSolveError, match="eigenpair 2 .* fails the "
                       "residual certificate"):
        eig._certified(reduced, values, spec.vectors)


def test_determinism():
    mesh = build_criss_cross(SQUARE_PI, 4)
    params = StabilizationParams(0.1, 0.01, 0.6)
    system = build_osgs(mesh, 1, params, mesh.h)
    reduced = reduce_system(system, build_constraints(system.dofmap))
    cfg = SolverConfig(nev=6, method="shift-invert", seed=77)
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
            reduced, SolverConfig(nev=10, shift=sigma, method="shift-invert")))
        runs.append(spec.values[:10])
    assert_allclose(runs[1], runs[0], rtol=1e-8)
    assert_allclose(runs[2], runs[0], rtol=1e-8)


def test_mass_rank_counted_once_per_solve(monkeypatch):
    # the dense fallback and the purification both read one count of rank M
    counts = []
    mass_rank = eig.mass_rank

    def counted(system):
        counts.append(system)
        return mass_rank(system)

    monkeypatch.setattr(eig, "mass_rank", counted)
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


def test_shift_collision_retries(monkeypatch):
    # pencil with an eigenvalue exactly at the default shift
    orderings = []

    def counting_ordering(system):
        orderings.append(system)
        return node_ordering(system)

    monkeypatch.setattr(eig, "node_ordering", counting_ordering)
    # (n = 40: a smaller finite spectrum takes the dense fallback)
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
