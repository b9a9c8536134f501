"""The cavities' mirror and the solve by mirror sectors.

The square's y = x and the L-shape's y = -x map every uniform, criss-cross
and Powell-Sabin mesh onto itself, P1 and P2 nodal points alike; the
cracked square has no mirror.  Read as a signed permutation of the reduced
dofs the mirror commutes with A and M, so run_case solves the symmetric
and the antisymmetric sector apart, each for its share of nev, and merges
their pairs.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from maxwell2d import (CRACKED_SQUARE, L_SHAPE, SQUARE_PI, CornerStrategy,
                       StudyConfig, build_constraints, build_dofmap,
                       build_uniform, filter_zeros, reduce_system, run_case,
                       solve_generalized)
from maxwell2d import eig, study
from maxwell2d.meshgen import node_mirror
from maxwell2d.study import build_mesh, stabilization_length
from maxwell2d.system import mirror_permutation
from dense_oracle import DENSE_LIMIT, solve_dense

MESHES = ("uniform", "cc", "ps")


def reduced_case(config, N):
    mesh = build_mesh(config, N)
    build = {"sg": study.build_sg, "ag": study.build_ag,
             "osgs": study.build_osgs}[config.formulation]
    args = () if config.formulation == "sg" else (
        config.stabilization, stabilization_length(config, mesh))
    system = build(mesh, config.degree, *args)
    return reduce_system(system, build_constraints(system.dofmap,
                                                   corner=config.corner))


def triangles(dofmap, image=None):
    """The vertex sets of the dofmap's elements, mapped by image."""
    vertices = dofmap.element_nodes[:, :3]
    if image is not None:
        vertices = image[vertices]
    return {frozenset(row) for row in vertices.tolist()}


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("mesh", MESHES)
@pytest.mark.parametrize("domain", [SQUARE_PI, L_SHAPE])
def test_node_mirror_is_an_involution_onto_the_mesh(domain, mesh, degree):
    config = StudyConfig(domain=domain, mesh=mesh, formulation="sg",
                         N_list=(3,))
    dofmap = build_dofmap(build_mesh(config, 3), degree, "sg")
    image = node_mirror(dofmap)
    assert image is not None
    assert np.array_equal(image[image], np.arange(dofmap.n_scalar))
    assert np.any(image != np.arange(dofmap.n_scalar))
    assert_allclose(dofmap.coords[image], dofmap.coords @ domain.mirror.T,
                    atol=1e-12)
    assert triangles(dofmap, image) == triangles(dofmap)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("mesh", MESHES + ("cc-graded",))
def test_the_crack_has_no_mirror(mesh, degree):
    config = StudyConfig(domain=CRACKED_SQUARE, mesh=mesh, formulation="sg",
                         N_list=(4,))
    dofmap = build_dofmap(build_mesh(config, 4), degree, "sg")
    assert CRACKED_SQUARE.mirror is None
    assert node_mirror(dofmap) is None


def test_a_flipped_diagonal_breaks_the_mirror():
    # the points still reflect onto points, but one cell's diagonal now
    # runs the other way while its mirror cell's does not
    dofmap = build_dofmap(build_uniform(SQUARE_PI, 3), 1, "sg")
    elements = dofmap.element_nodes.copy()
    lower, upper = elements[2], elements[3]   # cell (2, 0): ll-ur diagonal
    assert set(lower) & set(upper) == {lower[0], lower[2]}
    ll, lr, ur, ul = lower[0], lower[1], lower[2], upper[2]
    elements[2], elements[3] = [ll, lr, ul], [lr, ur, ul]
    assert node_mirror(replace(dofmap, element_nodes=elements)) is None


def signed_permutation(mirror):
    image, sign = mirror
    return sp.csr_matrix((sign, (np.arange(len(image)), image)),
                         shape=(len(image),) * 2)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("formulation", ["sg", "ag", "osgs"])
@pytest.mark.parametrize("domain, corner", [
    (SQUARE_PI, None), (L_SHAPE, CornerStrategy.FREE),
    (L_SHAPE, CornerStrategy.BISECTOR_NORMAL)],
    ids=["square", "lshape-free", "lshape-bisector"])
def test_signed_permutation_commutes_with_the_pencil(domain, corner,
                                                     formulation, degree):
    config = StudyConfig(domain=domain, mesh="cc", formulation=formulation,
                         degree=degree, corner=corner, N_list=(3,))
    reduced = reduced_case(config, 3)
    S = signed_permutation(mirror_permutation(reduced))
    assert abs(S @ S - sp.identity(reduced.n)).max() == 0
    for X in (reduced.A, reduced.M):
        assert abs(S @ X - X @ S).max() <= 1e-13 * abs(X).max()


def test_folded_corner_is_a_fixed_point():
    # the bisector fold keeps u1 at the corner, u2 being -u1: y = -x maps
    # (u1, u2) to (-u2, -u1), so the kept u1 is its own image, sign +1;
    # with a free corner u1 and u2 there swap with sign -1
    for corner, fixed in ((CornerStrategy.BISECTOR_NORMAL, [1.0]),
                          (CornerStrategy.FREE, [])):
        config = StudyConfig(domain=L_SHAPE, mesh="cc", formulation="sg",
                             corner=corner, N_list=(2,))
        reduced = reduced_case(config, 2)
        image, sign = mirror_permutation(reduced)
        at = np.flatnonzero(image == np.arange(reduced.n))
        node = reduced.dofmap.mesh.singular_node
        u1 = reduced.constraints.retained_dofs().tolist().index(node)
        assert sign[at].tolist() == fixed
        assert (image[u1] == u1) == bool(fixed)


def test_no_mirror_on_the_crack_pencil():
    config = StudyConfig(domain=CRACKED_SQUARE, mesh="ps",
                         formulation="osgs", N_list=(2,))
    assert mirror_permutation(reduced_case(config, 2)) is None


def solved_sectors(monkeypatch):
    """Record the pencil, config and spectrum of each solve run_case
    makes."""
    solved = []
    solve = study.solve_generalized

    def record(pencil, config):
        spectrum = solve(pencil, config)
        solved.append((pencil, config, spectrum))
        return spectrum

    monkeypatch.setattr(study, "solve_generalized", record)
    return solved


@pytest.mark.parametrize("config, N", [
    (StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                 N_list=(4,), nev=4), 4),
    (StudyConfig(domain=SQUARE_PI, mesh="ps", formulation="osgs",
                 N_list=(2,), nev=6), 2),
    (StudyConfig(domain=L_SHAPE, mesh="ps", formulation="ag",
                 corner=CornerStrategy.FREE, N_list=(2,), nev=5), 2),
    (StudyConfig(domain=L_SHAPE, mesh="uniform", formulation="osgs",
                 degree=2, corner=CornerStrategy.BISECTOR_NORMAL, ell=0.3,
                 c_u=0.85, c_p=0.5, N_list=(2,), nev=5), 2),
], ids=["square-sg-cc", "square-osgs-ps", "lshape-ag-ps-free",
        "lshape-osgs-p2-bisector"])
def test_sector_solve_matches_the_whole_pencil(monkeypatch, config, N):
    solved = solved_sectors(monkeypatch)
    case = run_case(config, N)
    assert len(solved) == 2
    reduced = reduced_case(config, N)
    whole = solve_generalized(reduced, config.solver_config)
    dense = solve_dense(reduced)
    if config.formulation == "sg":
        whole, dense = filter_zeros(whole), filter_zeros(dense)
    spectrum = case.spectrum
    count = len(spectrum.values)
    assert count == config.nev + eig.GUARD_PAIRS == len(whole.values)
    assert_allclose(spectrum.values, whole.values, rtol=1e-10)
    above = dense.values[dense.values >= config.shift]
    assert_allclose(spectrum.values, above[:count], rtol=1e-10)
    # the lifted vectors are reduced-coordinate eigenvectors
    x = spectrum.vectors
    R = reduced.A @ x - (reduced.M @ x) * spectrum.values
    res = np.linalg.norm(R, axis=0) / np.linalg.norm(x, axis=0)
    assert np.all(res <= 1e-8 * (1.0 + np.abs(spectrum.values)))
    assert_allclose(res, spectrum.residuals, rtol=1e-6, atol=1e-15)


def test_double_falls_one_partner_per_sector(monkeypatch):
    # the bench's set-up pencil, square SG/CC N=4 at nev 4: the mirror
    # y = x swaps the modes (1, 2) and (2, 1) of the double 4.2647, so
    # their sum lies in one sector and their difference in the other
    solved = solved_sectors(monkeypatch)
    config = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                         N_list=(4,), nev=4)
    case = run_case(config, 4)
    for _, _, spectrum in solved:
        assert np.count_nonzero(
            np.abs(spectrum.values - 4.2647) < 5e-5) == 1
    head = case.spectrum.values[:config.nev + 1]
    assert_allclose(head, [1.0170, 1.0170, 2.0678, 4.2647, 4.2647],
                    atol=5e-5)


def test_sector_record_and_factor_size(monkeypatch):
    # L-shape OSGS/P2 CC N=5, the bench CLI's coarse case: each sector's
    # factor holds under half the whole pencil's entries, and only one
    # lives at a time
    solved = solved_sectors(monkeypatch)
    config = StudyConfig(domain=L_SHAPE, mesh="cc", formulation="osgs",
                         degree=2, corner=CornerStrategy.BISECTOR_NORMAL,
                         ell=0.3, c_u=0.85, c_p=0.5, N_list=(5,), nev=5)
    spectrum = run_case(config, 5).spectrum
    reduced = reduced_case(config, 5)
    whole = solve_generalized(reduced, config.solver_config)
    sectors = [s for _, _, s in solved]
    assert spectrum.lu_nnz == max(s.lu_nnz for s in sectors)
    assert spectrum.lu_nnz <= 0.5 * whole.lu_nnz
    assert spectrum.n_op_applications == \
        sum(s.n_op_applications for s in sectors)
    assert spectrum.shift_retries == sum(s.shift_retries for s in sectors)
    assert spectrum.shift == min(s.shift for s in sectors)
    assert sum(pencil.K.shape[0] for pencil, _, _ in solved) == reduced.n


def test_mirrorless_case_is_the_whole_pencil(monkeypatch):
    # the crack is the one-sector case: its share is all of nev, so
    # run_case solves once and its arithmetic is the whole pencil's, bit
    # for bit; test_eig checks that one sector against the whole pencil's
    # formula
    solved = solved_sectors(monkeypatch)
    config = StudyConfig(domain=CRACKED_SQUARE, mesh="ps",
                         formulation="osgs", N_list=(4,), nev=4)
    case = run_case(config, 4)
    assert [c for _, c, _ in solved] == [config.solver_config]
    whole = solve_generalized(reduced_case(config, 4), config.solver_config)
    assert np.array_equal(case.spectrum.values, whole.values)
    assert np.array_equal(case.spectrum.vectors, whole.vectors)
    assert (case.spectrum.lu_nnz, case.spectrum.n_op_applications) == \
        (whole.lu_nnz, whole.n_op_applications)


def test_factor_uses_single_column_panels(monkeypatch):
    # SuperLU's panel workspace grows with the panel size: the
    # shift-invert factor takes one column at a time
    panels = []
    splu = spla.splu

    def factor(*args, **kwargs):
        if kwargs["permc_spec"] == "NATURAL":
            panels.append(kwargs.get("panel_size"))
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", factor)
    run_case(StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                         N_list=(3,), nev=2), 3)
    assert panels == [1, 1]


def full_nev_merge(config, N):
    """The merge of every sector solved for all of nev, as run_case's
    fallback does."""
    reduced = reduced_case(config, N)
    sectors = eig.mirror_sectors(reduced, config.shift,
                                 mirror_permutation(reduced))
    spectrum = eig.merge_sectors(
        [(Q, solve_generalized(pencil, config.solver_config))
         for Q, pencil in sectors], config.nev + eig.GUARD_PAIRS)
    return filter_zeros(spectrum) if config.formulation == "sg" else spectrum


@pytest.mark.parametrize("config, N, double", [
    (StudyConfig(domain=SQUARE_PI, mesh="ps", formulation="sg",
                 N_list=(5,), nev=17), 5, None),
    (StudyConfig(domain=L_SHAPE, mesh="cc", formulation="osgs", degree=2,
                 corner=CornerStrategy.BISECTOR_NORMAL, ell=0.3, c_u=0.85,
                 c_p=0.5, N_list=(5,), nev=5), 5, None),
    # the double 4.2647 has one partner in each sector, and each sector's
    # share, 2 + 8 pairs, keeps its partner
    (StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                 N_list=(4,), nev=4), 4, 4.2647),
], ids=["square-sg-ps", "lshape-osgs-p2-cc-bisector", "square-sg-cc-double"])
def test_share_merge_matches_the_full_nev_merge(monkeypatch, config, N,
                                                double):
    solved = solved_sectors(monkeypatch)
    spectrum = run_case(config, N).spectrum
    share = replace(config.solver_config, nev=math.ceil(config.nev / 2))
    assert [c for _, c, _ in solved] == [share] * 2   # no fallback
    full = full_nev_merge(config, N)
    count = len(full.values)
    assert len(spectrum.values) == count
    assert_allclose(spectrum.values, full.values, rtol=1e-12)
    reduced = reduced_case(config, N)
    if reduced.n <= DENSE_LIMIT:
        oracle = solve_dense(reduced)
        if config.formulation == "sg":
            oracle = filter_zeros(oracle)
        oracle = oracle.values[oracle.values >= config.shift][:count]
    else:   # L-shape P2 N=5, 3,681 dofs: the unsplit pencil's Lanczos
        oracle = solve_generalized(reduced, config.solver_config).values
    assert_allclose(spectrum.values, oracle, rtol=1e-10)
    if double is not None:
        assert np.count_nonzero(
            np.abs(spectrum.values - double) < 5e-5) == 2


def test_short_share_merge_is_final_where_no_window_grows(monkeypatch):
    # square SG/CC N=2, nev 2: each sector's rank M, 7, is at most its
    # share's nev + GUARD_PAIRS + 1, so the share solve and a full-nev solve
    # get the same window, rank M, and the same rank M - 1 pairs: the share
    # merge holds fewer than nev + GUARD_PAIRS pairs, but run_case keeps it
    solved = solved_sectors(monkeypatch)
    config = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                         N_list=(2,), nev=2)
    spectrum = run_case(config, 2).spectrum
    share = replace(config.solver_config, nev=1)
    assert [c for _, c, _ in solved] == [share] * 2
    assert [p.support.size for p, _, _ in solved] == [7, 7]
    expected = full_nev_merge(config, 2)
    assert len(spectrum.values) < config.nev + eig.GUARD_PAIRS
    for name in ("values", "vectors", "residuals"):
        assert np.array_equal(getattr(spectrum, name),
                              getattr(expected, name))
    assert (spectrum.lu_nnz, spectrum.n_op_applications, spectrum.shift) == \
        (expected.lu_nnz, expected.n_op_applications, expected.shift)


def test_short_share_merge_falls_back_to_the_full_nev(monkeypatch):
    # square SG/CC N=10, nev 80: the sectors' rank M, 199, is above the
    # share's window, and the share merge holds at most 87 of nev +
    # GUARD_PAIRS = 88 pairs, even counting the partners of a double at the
    # lower top (nev 60 falls one short only where round-off puts that
    # partner above the top); run_case re-solves each sector for all of nev
    # and reports every solve
    solved = solved_sectors(monkeypatch)
    config = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                         N_list=(10,), nev=80)
    spectrum = run_case(config, 10).spectrum
    full = config.solver_config
    assert [c for _, c, _ in solved] == [replace(full, nev=40)] * 2 + \
        [full] * 2
    assert [p.support.size for p, _, _ in solved] == [199] * 4
    expected = full_nev_merge(config, 10)
    for name in ("values", "vectors", "residuals"):
        assert np.array_equal(getattr(spectrum, name),
                              getattr(expected, name))
    assert (spectrum.lu_nnz, spectrum.shift) == \
        (expected.lu_nnz, expected.shift)
    spectra = [s for _, _, s in solved]
    assert spectrum.n_op_applications == \
        sum(s.n_op_applications for s in spectra) > expected.n_op_applications
    assert spectrum.shift_retries == sum(s.shift_retries for s in spectra)
    whole = filter_zeros(solve_generalized(reduced_case(config, 10), full))
    assert len(spectrum.values) == len(whole.values) == 88
    assert_allclose(spectrum.values, whole.values, rtol=1e-12)


def test_sectors_converge_their_share():
    # square SG/PS N=25, sg-ps's finest square: 186 factor solves when
    # each sector converges nev + 8 pairs, 136 for ceil(nev / 2) + 8
    config = StudyConfig(domain=SQUARE_PI, mesh="ps", formulation="sg",
                         N_list=(25,), nev=17, seed=1)
    spectrum = run_case(config, 25).spectrum
    full = full_nev_merge(config, 25)
    assert spectrum.n_op_applications <= 0.8 * full.n_op_applications
    assert_allclose(spectrum.values, full.values, rtol=1e-12)
