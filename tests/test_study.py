import gc
import math
import types

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from maxwell2d import (CRACKED_SQUARE, L_SHAPE, SQUARE_PI, CornerStrategy,
                       EigenField, EigenTable, SolverConfig,
                       StabilizationParams, StudyConfig,
                       build_mesh, compute_eigenfunction, convergence_rate,
                       emit_table, export_eigenfunction, parse_csv_table,
                       reference_values, run_case, run_study,
                       square_reference)
from maxwell2d import eig
from maxwell2d.study import stabilization_length


def test_square_reference_first_17():
    expected = [1, 1, 2, 4, 4, 5, 5, 8, 9, 9, 10, 10, 13, 13, 16, 16, 17]
    assert_allclose(square_reference(17), expected, rtol=0)


def test_square_reference_matches_brute_force():
    # every value up to 2500 on a 51 x 51 lattice: past the 1000th (1226)
    brute = sorted(i * i + j * j for i in range(51) for j in range(51)
                   if i + j > 0)
    for count in range(1, 1001):
        assert square_reference(count).tolist() == brute[:count], count


def test_reference_values_tables():
    refs = reference_values(L_SHAPE, 5)
    assert_allclose(refs, [1.4756, 3.5340, 9.8696, 9.8696, 11.3895], atol=5e-5)
    assert refs[2] == refs[3] == math.pi ** 2
    refs = reference_values(CRACKED_SQUARE, 10)
    assert_allclose(refs, [1.0341, 2.4674, 4.0469, 9.8696, 9.8696, 10.8449,
                           12.2649, 12.3370, 19.7392, 21.2441], atol=5e-5)
    assert refs[1] == math.pi ** 2 / 4


def test_convergence_rate_examples():
    r = convergence_rate(0.0109, 0.0027, 5, 10)
    assert f"{r:.1f}" == "2.0"
    assert convergence_rate(0.5, 0.5, 5, 10) == 0.0
    assert_allclose(convergence_rate(0.5, 0.25, 10, 20), 1.0, rtol=1e-14)
    with pytest.raises(ValueError):
        convergence_rate(0.0, 0.1, 5, 10)
    with pytest.raises(ValueError):
        convergence_rate(0.1, -0.1, 5, 10)
    with pytest.raises(ValueError):
        convergence_rate(0.1, 0.1, 10, 5)


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                    N_list=(10, 5))
    with pytest.raises(ValueError):
        StudyConfig(domain=SQUARE_PI, mesh="hex", formulation="sg",
                    N_list=(5,))
    with pytest.raises(ValueError):
        StudyConfig(domain=SQUARE_PI, mesh="cc-graded", formulation="sg",
                    N_list=(4,))
    with pytest.raises(ValueError):
        StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="spectral",
                    N_list=(5,))


def test_study_config_rejects_inconsistent_combinations():
    cases = [
        dict(domain=SQUARE_PI, corner=CornerStrategy.BISECTOR_NORMAL),
        dict(domain=SQUARE_PI, corner=CornerStrategy.FREE),
        dict(domain=CRACKED_SQUARE, corner=CornerStrategy.FREE),
        # a string is no enum member: it must not run a constraint set
        # that no strategy defines
        dict(domain=L_SHAPE, corner="bisector"),
        dict(domain=CRACKED_SQUARE, tip="free"),
        dict(domain=CRACKED_SQUARE, N_list=(3,)),
        dict(domain=SQUARE_PI, formulation="sg", shift=0.0),
        dict(domain=SQUARE_PI, formulation="sg", shift=1e-9),
        dict(domain=SQUARE_PI, N_list=()),
        dict(domain=SQUARE_PI, N_list=(0, 4)),
        # N_list is a tuple: an integer is none, and a list would leave
        # the frozen config unhashable
        dict(domain=SQUARE_PI, N_list=5),
        dict(domain=SQUARE_PI, N_list=[4]),
        dict(domain=SQUARE_PI, nev=0),
        dict(domain=SQUARE_PI, seed=-1),
        dict(domain=SQUARE_PI, degree=3),
        # counts are integers from the library as from the CLI's readers
        dict(domain=SQUARE_PI, nev=5.0),
        dict(domain=SQUARE_PI, nev=True),
        dict(domain=SQUARE_PI, degree=True),
        dict(domain=SQUARE_PI, degree=2.0),
        dict(domain=SQUARE_PI, seed=1.5),
        dict(domain=SQUARE_PI, N_list=(2.0,)),
        dict(domain=SQUARE_PI, formulation="ag", ell=0.0),
        dict(domain=SQUARE_PI, formulation="ag", c_u=-0.01),
        dict(domain=SQUARE_PI, formulation="ag", c_p=-0.6),
        dict(domain=SQUARE_PI, formulation="osgs", ell=0.0),
        dict(domain=SQUARE_PI, formulation="osgs", c_p=0.0),
        dict(domain=SQUARE_PI, formulation="ag", c_p=0.0),
        dict(domain=SQUARE_PI, formulation="osgs", c_u=-0.01),
        dict(domain=SQUARE_PI, shift=math.nan),
        dict(domain=SQUARE_PI, shift=math.inf),
        dict(domain=SQUARE_PI, formulation="ag", ell=math.nan),
        dict(domain=SQUARE_PI, formulation="ag", c_u=math.nan),
        dict(domain=SQUARE_PI, formulation="ag", c_p=math.inf),
        dict(domain=SQUARE_PI, formulation="osgs", ell=math.inf),
        dict(domain=SQUARE_PI, formulation="osgs", c_u=math.nan),
        dict(domain=SQUARE_PI, formulation="osgs", c_p=math.inf),
        # a bool is no real, as the CLI's float readers say
        dict(domain=SQUARE_PI, shift=True),
        dict(domain=SQUARE_PI, formulation="ag", ell=True),
        dict(domain=SQUARE_PI, formulation="osgs", c_u=True),
        dict(domain=SQUARE_PI, formulation="osgs", c_p=True),
    ]
    base = dict(mesh="ps", formulation="osgs", N_list=(4,))
    for case in cases:
        StudyConfig(**base, domain=case["domain"])
        with pytest.raises(ValueError):
            StudyConfig(**(base | case))
    with pytest.raises(ValueError):
        StudyConfig(**base, domain="square")
    for setting in (dict(nev=5.0), dict(seed=1.5), dict(shift=True)):
        with pytest.raises(ValueError):
            SolverConfig(**setting)
    # NumPy integers are integers, and NumPy reals are reals
    i, f = np.int64, np.float64
    StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                N_list=(i(2), i(4)), degree=i(2), nev=i(5), seed=i(1))
    real = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="osgs",
                       N_list=(4,), shift=f(0.5), ell=f(0.1), c_u=f(0.01),
                       c_p=f(0.6))
    assert real.solver_config.shift == 0.5
    assert real.stabilization == StabilizationParams(0.1, 0.01, 0.6)
    # a zero c_u alone leaves the p block to pivot on; SG has no ell
    for formulation in ("ag", "osgs"):
        StudyConfig(domain=SQUARE_PI, mesh="cc", formulation=formulation,
                    N_list=(4,), c_u=0.0)
    assert StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                       N_list=(4,), ell=0.0).stabilization is None


def test_config_names_the_bad_division_count():
    # the list holds a positive value: the error is about its N=0
    with pytest.raises(ValueError, match="N=0"):
        StudyConfig(N_list=(0, 5))
    with pytest.raises(ValueError, match="N=-1"):
        StudyConfig(N_list=(5, -1))


def test_sg_shift_floor_is_the_package_zero():
    # SG's kernel sits at 0.  Below ZERO_TOL the residual certificate
    # failed (square SG/CC N=6 at 1e-9), or a shift retry took the shift
    # under the kernel and filter_zeros left no value (1e-15)
    with pytest.raises(ValueError, match="shift of at least 1e-06"):
        StudyConfig(formulation="sg", shift=1e-9)
    config = StudyConfig(mesh="cc", formulation="sg", N_list=(4,), nev=4,
                         shift=eig.ZERO_TOL)
    case = run_case(config, 4)
    assert case.spectrum.shift == eig.ZERO_TOL
    assert_allclose(case.values, square_reference(4), rtol=0.1)


def test_default_nev_per_domain():
    assert StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                       N_list=(2,)).nev_effective == 17
    assert StudyConfig(domain=L_SHAPE, mesh="cc", formulation="sg",
                       N_list=(2,)).nev_effective == 5
    assert StudyConfig(domain=CRACKED_SQUARE, mesh="cc", formulation="sg",
                       N_list=(2,)).nev_effective == 10


def test_stabilization_length_conventions():
    cfg = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="osgs",
                      N_list=(5,))
    mesh = build_mesh(cfg, 5)
    assert_allclose(stabilization_length(cfg, mesh), np.pi / 5)
    cfg = StudyConfig(domain=SQUARE_PI, mesh="uniform", formulation="osgs",
                      N_list=(5,))
    mesh = build_mesh(cfg, 5)
    assert_allclose(stabilization_length(cfg, mesh), np.sqrt(2) * np.pi / 5)
    cfg = StudyConfig(domain=L_SHAPE, mesh="ps", formulation="osgs",
                      N_list=(9,))
    mesh = build_mesh(cfg, 9)
    assert_allclose(stabilization_length(cfg, mesh), 0.5 / 9)
    cfg = StudyConfig(domain=CRACKED_SQUARE, mesh="ps", formulation="osgs",
                      N_list=(8,))
    mesh = build_mesh(cfg, 8)
    assert_allclose(stabilization_length(cfg, mesh), mesh.h)


def test_run_case_square_sg_n25():
    cfg = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                      N_list=(25,), nev=3)
    vals = run_case(cfg, 25).values
    assert_allclose(vals[0], 1.0004, atol=5e-5)


def test_run_case_lshape_sg_ps_n25():
    cfg = StudyConfig(domain=L_SHAPE, mesh="ps", formulation="sg",
                      N_list=(25,), nev=2,
                      corner=CornerStrategy.BISECTOR_NORMAL)
    vals = run_case(cfg, 25).values
    assert_allclose(vals[0], 1.4786, atol=2e-3)


def test_run_case_lshape_default_corner_is_bisector():
    # corner=None is the L-shape's own rule: the bisector fold, bit for bit
    base = dict(domain=L_SHAPE, mesh="ps", formulation="sg", N_list=(5,))
    default = run_case(StudyConfig(**base), 5)
    bisector = run_case(StudyConfig(
        **base, corner=CornerStrategy.BISECTOR_NORMAL), 5)
    assert np.array_equal(default.values, bisector.values)
    assert np.array_equal(default.constraints.keep, bisector.constraints.keep)
    assert default.constraints.fold == bisector.constraints.fold is not None


def make_table():
    values = np.array([[1.0109, 1.0027], [2.0437, 2.0110]])
    refs = np.array([1.0, 2.0])
    rates = np.full((2, 2), np.nan)
    for i in range(2):
        rates[i, 1] = convergence_rate(abs(values[i, 0] - refs[i]),
                                       abs(values[i, 1] - refs[i]), 5, 10)
    return EigenTable(domain=SQUARE_PI, N_list=(5, 10), references=refs,
                      values=values, rates=rates)


def test_emit_markdown():
    text = emit_table(make_table(), "md")
    lines = text.splitlines()
    assert lines[0] == "| Ref. | N=5 | N=10 |"
    assert "| 1.0000 | 1.0109 | 1.0027 (2.0) |" in lines
    # first column never carries a rate
    assert "(%s)" not in lines[2].split("|")[2]


def test_emit_markdown_negative_rate():
    values = np.array([[8.6504, 8.1746]])
    refs = np.array([9.0])
    rates = np.array([[np.nan,
                       convergence_rate(abs(8.6504 - 9), abs(8.1746 - 9), 5, 10)]])
    table = EigenTable(domain=SQUARE_PI, N_list=(5, 10), references=refs,
                       values=values, rates=rates)
    text = emit_table(table, "md")
    assert "(-1.2)" in text


def test_emit_saturated_rate():
    values = np.array([[1.0, 1.0]])
    refs = np.array([1.0])
    rates = np.array([[np.nan, np.inf]])
    table = EigenTable(domain=SQUARE_PI, N_list=(5, 10), references=refs,
                       values=values, rates=rates)
    assert "| 1.0000 | 1.0000 | 1.0000 (—) |" in \
        emit_table(table, "md").splitlines()
    text = emit_table(table, "csv")
    header, row = (line.split(",") for line in text.splitlines())
    cells = dict(zip(header, row))
    assert cells["rate_N10"] == cells["rate_N10_full"] == "inf"
    assert cells["rate_N5"] == cells["rate_N5_full"] == ""
    values, rates = parse_csv_table(text)
    assert np.isnan(rates[0, 0]) and rates[0, 1] == np.inf


def test_csv_round_trip():
    table = make_table()
    text = emit_table(table, "csv")
    values, rates = parse_csv_table(text)
    assert np.array_equal(values, table.values)
    mask = ~np.isnan(table.rates)
    assert np.array_equal(rates[mask], table.rates[mask])


def test_table_bytes_deterministic():
    cfg = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="osgs",
                      N_list=(2, 4), nev=3)
    a = emit_table(run_study(cfg), "csv")
    b = emit_table(run_study(cfg), "csv")
    assert a == b


def test_ascending_pairing_yields_negative_spurious_rates():
    # SG on criss-cross meshes: the 9th value drifts toward 8 while paired
    # against reference 9, so its measured rate must go non-positive
    cfg = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                      N_list=(10, 15), nev=9)
    table = run_study(cfg)
    assert table.rates[8, 1] < 0
    assert abs(table.values[8, 1] - 8.0779) < 2e-3


def test_run_study_rate_layout():
    cfg = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                      N_list=(4, 8), nev=4)
    table = run_study(cfg)
    assert table.values.shape == (4, 2)
    assert np.all(np.isnan(table.rates[:, 0]))
    assert np.all(np.isfinite(table.rates[:, 1]))
    # first eigenvalues converge at second order on the square
    assert_allclose(table.rates[0, 1], 2.0, atol=0.2)


def test_export_eigenfunction(tmp_path):
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    fld = EigenField(coords=coords, u1=np.ones(3), u2=np.zeros(3), p=None)
    path = tmp_path / "mode.txt"
    export_eigenfunction(fld, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert all(line.endswith("1.0, 0.0") for line in lines)


def test_compute_eigenfunction_lshape_peak(tmp_path):
    cfg = StudyConfig(domain=L_SHAPE, mesh="ps", formulation="sg",
                      N_list=(6,), nev=2,
                      corner=CornerStrategy.BISECTOR_NORMAL)
    fld = compute_eigenfunction(run_study(cfg), 0)
    path = tmp_path / "mode0.txt"
    export_eigenfunction(fld, path)
    rows = np.array([[float(tok) for tok in line.split(",")]
                     for line in path.read_text().splitlines()])
    assert rows.shape[0] == fld.coords.shape[0]
    mag = np.hypot(rows[:, 2], rows[:, 3])
    peak = rows[np.argmax(mag), :2]
    assert np.linalg.norm(peak) <= 2.5 / 6


def test_compute_eigenfunction_normalization():
    cfg = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="sg",
                      N_list=(4,), nev=5)
    table = run_study(cfg)
    fld = compute_eigenfunction(table, 0)
    mag = np.hypot(fld.u1, fld.u2)
    assert_allclose(mag.max(), 1.0, rtol=1e-12)
    assert fld.u1[int(np.argmax(np.abs(fld.u1)))] > 0
    assert fld.p is None
    with pytest.raises(IndexError):
        compute_eigenfunction(table, len(table.finest.spectrum.values))


def test_crack_fundamental_mode_peaks_at_tip():
    cfg = StudyConfig(domain=CRACKED_SQUARE, mesh="ps", formulation="osgs",
                      N_list=(8,), ell=0.2, c_u=0.1, c_p=1.0, nev=3)
    table = run_study(cfg)
    fld = compute_eigenfunction(table, 0)
    mag = np.hypot(fld.u1, fld.u2)
    peak = fld.coords[int(np.argmax(mag))]
    assert np.linalg.norm(peak) <= 2.5 * 2 / 8
    # p is exported, scaled by the same factor as u
    case = table.finest
    full = case.constraints.expand(case.spectrum.vectors[:, 0])
    raw_u1 = full[case.dofmap.field_slice("u1")]
    raw_p = full[case.dofmap.field_slice("p")]
    j = int(np.argmax(np.abs(raw_u1)))
    assert fld.p is not None
    assert_allclose(fld.p, raw_p * (fld.u1[j] / raw_u1[j]), rtol=1e-14,
                    atol=0)


def reachable(root):
    """Every object reachable from root through instances and containers,
    not through classes, modules or functions."""
    seen, stack = {id(root): root}, [root]
    skip = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType)
    while stack:
        for child in gc.get_referents(stack.pop()):
            if id(child) not in seen and not isinstance(child, skip):
                seen[id(child)] = child
                stack.append(child)
    return seen.values()


def test_finest_case_keeps_no_matrix():
    cfg = StudyConfig(domain=L_SHAPE, mesh="ps", formulation="osgs",
                      N_list=(3, 4), nev=2,
                      corner=CornerStrategy.BISECTOR_NORMAL)
    finest = run_study(cfg).finest
    assert not [obj for obj in reachable(finest) if sp.issparse(obj)]
    assert finest.constraints.fold is not None and "xi1" in finest.dofmap.fields


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown table format 'xml'"):
        emit_table(make_table(), "xml")
