import importlib.util
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import maxwell2d
from maxwell2d import SQUARE_PI, EigenSolveError, StudyConfig, cli, \
    cli_main, compute_eigenfunction, export_eigenfunction, run_study, study

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def count_solves(monkeypatch) -> list:
    calls = []
    solve = study.solve_generalized

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(study, "solve_generalized", counted)
    return calls


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "maxwell2d" in capsys.readouterr().out


def test_unknown_flag_rejected(capsys):
    assert cli_main(["--frobnicate", "1"]) != 0


def test_small_run_to_stdout(capsys):
    code = cli_main(["--domain", "square", "--mesh", "cc",
                     "--formulation", "sg", "--N", "2,4", "--nev", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("| Ref. | N=2 | N=4 |")
    assert "1.0000" in out


def test_python_m_maxwell2d_runs_clean():
    # pytest's filterwarnings does not reach a child interpreter, so the
    # child's stderr is read for runpy's warning
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "maxwell2d", "--domain", "square", "--mesh",
         "cc", "--formulation", "sg", "--N", "2", "--nev", "3"],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("| Ref. | N=2 |")
    assert "RuntimeWarning" not in run.stderr


def test_out_file_and_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = cli_main(["--domain", "square", "--mesh", "cc",
                     "--formulation", "osgs", "--N", "2,4", "--nev", "2",
                     "--format", "csv", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("ref,N2,rate_N2")


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "domain = square\n"
        "mesh = cc\n"
        "formulation = sg\n"
        "N = 2,4\n"
        "nev = 2   # keep it tiny\n")
    code = cli_main(["--config", str(cfg), "--N", "3,6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "N=3" in out and "N=6" in out


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("meshes = cc\n")
    assert cli_main(["--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    # a config file names no further config file
    inner = tmp_path / "inner.cfg"
    inner.write_text("nev = 3\n")
    cfg.write_text(f"config = {inner}\n")
    assert cli_main(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: unknown config key 'config'\n"


def test_inconsistent_combinations(tmp_path, monkeypatch, capsys):
    calls = count_solves(monkeypatch)
    # shift-invert is the one solver, so no flag chooses one
    for solver in ("auto", "dense"):
        assert cli_main(["--solver", solver]) == 2
        assert f"unrecognized arguments: --solver {solver}" in \
            capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("solver = auto\n")
    assert cli_main(["--config", str(cfg)]) == 2
    assert "unknown config key 'solver'" in capsys.readouterr().err
    # any corner setting off the L-shape, the free one included
    for domain in ("square", "crack"):
        for corner in ("bisector", "free"):
            assert cli_main(["--domain", domain, "--N", "4",
                             "--corner", corner]) == 2
            assert "corner settings apply to the L-shape only" in \
                capsys.readouterr().err
    assert cli_main(["--domain", "square", "--mesh", "cc-graded"]) == 2
    # the tip has one rule, which no flag sets
    assert cli_main(["--domain", "lshape", "--tip", "both-zero"]) == 2
    assert "unrecognized arguments: --tip both-zero" in capsys.readouterr().err
    assert cli_main(["--domain", "crack", "--tip", "free"]) == 2
    assert "unrecognized arguments: --tip free" in capsys.readouterr().err
    cfg.write_text("tip = free\n")
    assert cli_main(["--config", str(cfg)]) == 2
    assert "unknown config key 'tip'" in capsys.readouterr().err
    # the cc-graded exponent is fixed, not a flag
    assert cli_main(["--domain", "crack", "--mesh", "cc-graded",
                     "--grading-exponent", "3"]) == 2
    assert "unrecognized arguments: --grading-exponent 3" in \
        capsys.readouterr().err
    assert cli_main(["--domain", "crack", "--N", "2,3"]) == 2
    assert "even" in capsys.readouterr().err
    # mu is 1 in every cavity, not a flag
    sg = ["--domain", "square", "--mesh", "cc", "--formulation", "sg",
          "--N", "2,4", "--nev", "3"]
    for mu in ("0", "-1"):
        assert cli_main(sg + ["--mu", mu]) == 2
        assert f"unrecognized arguments: --mu {mu}" in capsys.readouterr().err
    # SG shift-invert needs a shift of at least 1e-6, the package's zero:
    # its kernel sits at 0
    for shift in ("0", "1e-9"):
        assert cli_main(sg + ["--shift", shift]) == 2
        assert "SG shift-invert needs a shift of at least 1e-06" in \
            capsys.readouterr().err
    assert cli_main(["--formulation", "osgs", "--ell", "0"]) == 2
    assert "ell must be positive" in capsys.readouterr().err
    # the pivot-free shift-invert factor has no pivot on a zero p block
    for formulation in ("ag", "osgs"):
        assert cli_main(["--domain", "square", "--mesh", "ps",
                         "--formulation", formulation, "--N", "3,6",
                         "--cu", "0.01", "--cp", "0", "--nev", "4"]) == 2
        assert ("AG and OSGS shift-invert need a positive c_p" in
                capsys.readouterr().err)
    assert cli_main(["--N", ","]) == 2
    assert "N list needs at least one positive value" in \
        capsys.readouterr().err
    # a negative seed: numpy would refuse it only after meshing
    assert cli_main(["--domain", "square", "--mesh", "cc", "--formulation",
                     "osgs", "--N", "8", "--nev", "3", "--seed", "-1"]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    # non-finite numbers are rejected before anything is meshed
    osgs = ["--domain", "square", "--mesh", "cc", "--formulation", "osgs",
            "--N", "4,8", "--nev", "3"]
    for flag, value in (("--shift", "nan"), ("--shift", "inf"),
                        ("--ell", "nan"), ("--ell", "inf"),
                        ("--cu", "nan"), ("--cp", "inf")):
        assert cli_main(osgs + [flag, value]) == 2
        assert "finite" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("domain,mesh,N", [
    (maxwell2d.CRACKED_SQUARE, "uniform", 3),
    (SQUARE_PI, "cc-graded", 4),
    (SQUARE_PI, "cc", 0),
])
def test_grid_rules_have_one_message(domain, mesh, N, capsys):
    # meshgen states the grid rules once: the builder, StudyConfig and the
    # command line report a bad N or grading alike
    with pytest.raises(ValueError) as built:
        if mesh == "uniform":
            maxwell2d.build_uniform(domain, N)
        else:
            maxwell2d.build_criss_cross(domain, N, mesh == "cc-graded")
    with pytest.raises(ValueError) as configured:
        StudyConfig(domain=domain, mesh=mesh, N_list=(N,))
    assert str(configured.value) == str(built.value)
    assert cli_main(["--domain", domain.value, "--mesh", mesh,
                     "--N", str(N)]) == 2
    assert capsys.readouterr().err == f"error: {built.value}\n"


def test_export_mode_out_of_range_rejected_before_solving(monkeypatch, capsys):
    calls = count_solves(monkeypatch)
    small = ["--domain", "square", "--mesh", "cc", "--formulation", "sg",
             "--N", "2"]
    assert cli_main(small + ["--export-mode", "-1"]) == 2
    assert cli_main(small + ["--nev", "2", "--export-mode", "20"]) == 2
    assert cli_main(small + ["--export-mode", "17"]) == 2   # default nev 17
    # the L-shape table stops at its 5 reference values whatever nev says
    assert cli_main(["--domain", "lshape", "--mesh", "ps", "--formulation",
                     "sg", "--corner", "bisector", "--N", "4", "--nev", "7",
                     "--export-mode", "6"]) == 2
    assert cli_main(small + ["--nev", "-3", "--export-mode", "0"]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert "--export-mode" in err and "nev must be at least 1" in err


def stop_before_solving(monkeypatch) -> list:
    """Make cli.run_study record its StudyConfig and stop with exit 2."""
    configs = []

    def stop(config):
        configs.append(config)
        raise ValueError("stopped before solving")

    monkeypatch.setattr(cli, "run_study", stop)
    return configs


def test_defaults_come_from_study_config(monkeypatch, capsys):
    configs = stop_before_solving(monkeypatch)
    assert cli_main([]) == 2
    [config] = configs
    assert config == StudyConfig()


def test_file_and_command_line_build_equal_configs(monkeypatch, tmp_path,
                                                   capsys):
    configs = stop_before_solving(monkeypatch)
    settings = {"domain": "crack", "mesh": "cc-graded", "formulation": "ag",
                "degree": "2", "N": "2,4", "ell": "0.5", "cu": "2",
                "cp": "1", "nev": "4", "shift": "0.25", "seed": "7"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {text}\n"
                           for key, text in settings.items()))
    assert cli_main(["--config", str(cfg)]) == 2
    argv = [arg for key, text in settings.items()
            for arg in (f"--{key}", text)]
    assert cli_main(argv) == 2
    assert "stopped before solving" in capsys.readouterr().err
    assert configs[0] == configs[1] != StudyConfig()


def test_file_choice_error_matches_command_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for key, text in (("domain", "disk"),
                      ("mesh", "hex"), ("degree", "3"), ("format", "txt"),
                      ("corner", "both-zero")):
        assert cli_main([f"--{key}", text]) == 2
        from_argv = capsys.readouterr().err
        assert f"invalid choice: {text!r}" in from_argv
        cfg.write_text(f"{key} = {text}\n")
        assert cli_main(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == from_argv


def test_unwritable_output_rejected_before_solving(tmp_path, monkeypatch,
                                                   capsys):
    calls = count_solves(monkeypatch)
    small = ["--domain", "square", "--mesh", "cc", "--formulation", "sg",
             "--N", "2", "--nev", "2"]
    missing = tmp_path / "missing" / "t.md"
    assert cli_main(small + ["--out", str(tmp_path)]) == 2
    assert f"--out {tmp_path} is a directory" in capsys.readouterr().err
    for extra in ([], ["--export-mode", "0"]):
        assert cli_main(small + ["--out", str(missing)] + extra) == 2
        assert (f"cannot write to {missing.parent}: not a writable "
                "directory") in capsys.readouterr().err
    # without --out the export file goes to the working directory, here
    # one that denies writing
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert cli_main(small + ["--export-mode", "0"]) == 2
    assert f"cannot write to {os.getcwd()}: not a writable directory" in \
        capsys.readouterr().err
    assert calls == []


def test_export_target_directory_rejected_before_solving(tmp_path,
                                                         monkeypatch, capsys):
    configs = stop_before_solving(monkeypatch)
    small = ["--N", "2", "--nev", "2", "--export-mode", "0"]
    out = tmp_path / "t.md"
    (tmp_path / "t.md.mode0.txt").mkdir()
    assert cli_main(small + ["--out", str(out)]) == 2
    assert f"--export-mode {out}.mode0.txt is a directory" in \
        capsys.readouterr().err
    assert not out.exists()
    # without --out the export file goes to the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "eigenfunction_mode0.txt").mkdir()
    assert cli_main(small) == 2
    assert "--export-mode eigenfunction_mode0.txt is a directory" in \
        capsys.readouterr().err
    assert configs == []


def test_flags_and_fields_match():
    # each StudyConfig field but the bench-only tip and solver has exactly
    # one flag, and each flag's field is a StudyConfig field
    fields = [flag.field for flag in cli._FLAGS.values() if flag.field]
    assert sorted(fields) == sorted(set(StudyConfig.__dataclass_fields__)
                                    - {"tip", "solver"})


def test_readme_lists_every_flag():
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("Flags:", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"--[A-Za-z][\w-]*", paragraph))
    parsed = {opt for action in cli._build_parser()._actions
              for opt in action.option_strings if opt.startswith("--")}
    assert documented == parsed - {"--help"}
    # each {a|b|...} lists exactly the parser's choices for its flag
    listed = {flag: names.split("|") for flag, names in
              re.findall(r"`(--[\w-]+) \{([^}<]*)\}`", paragraph)}
    choices = {action.option_strings[0]: list(action.choices)
               for action in cli._build_parser()._actions if action.choices}
    assert listed == choices


def test_readme_examples_build_valid_configs(monkeypatch, tmp_path, capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    commands = block.split("```", 1)[0].replace("\\\n", " ").split("\n")
    commands = [shlex.split(line) for line in commands if line.strip()]
    example = readme.split("come from a `key = value` config file", 1)[1]
    cfg = tmp_path / "example.cfg"
    cfg.write_text(example.split("```", 2)[1])
    commands.append(["maxwell2d", "--config", str(cfg)])
    configs = stop_before_solving(monkeypatch)
    for argv in commands:
        assert argv[0] == "maxwell2d"
        assert cli_main(argv[1:]) == 2
        assert "stopped before solving" in capsys.readouterr().err
    assert len(configs) == len(commands) == 4


def test_readme_sketch_names_resolve():
    readme = (ROOT / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1].split("```python", 1)[1]
    names = set(re.findall(r"\bm\.(\w+)", sketch.split("```", 1)[0]))
    assert names
    assert [name for name in sorted(names)
            if not hasattr(maxwell2d, name)] == []


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_trace_hooks_resolve(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.HOOKS
    for module, attr, *_ in spans.HOOKS:
        assert callable(getattr(getattr(maxwell2d, module), attr)), \
            f"{module}.{attr}"


def test_traced_runs_feed_every_hook(monkeypatch, tmp_path, capsys):
    # the hooks read fields of Mesh, DofMap, EvpSystem, Spectrum and
    # SolverConfig; a traced library run and a traced CLI run must reach
    # every hook and leave the package as it was
    spans = load_spans(monkeypatch)
    originals = [getattr(getattr(maxwell2d, module), attr)
                 for module, attr, *_ in spans.HOOKS]
    tracer = spans.Tracer("smoke")
    tracer.install(maxwell2d)
    try:
        study.run_study(StudyConfig(domain=SQUARE_PI, mesh="ps",
                                    formulation="sg", N_list=(2,), nev=3))
        assert cli.cli_main(["--domain", "square", "--mesh", "cc",
                             "--formulation", "osgs", "--N", "2",
                             "--nev", "3", "--out", str(tmp_path / "t.md"),
                             "--export-mode", "0"]) == 0
    finally:
        tracer.uninstall()
    assert [getattr(getattr(maxwell2d, module), attr)
            for module, attr, *_ in spans.HOOKS] == originals
    assert {s.name for s in tracer.spans} == \
        {name for _m, _a, name, *_ in spans.HOOKS}
    # shift-invert runs no dense solve, filters no zero mode and rejects no
    # complex pair: those counters are 0 by construction
    produced = set(spans.COUNTERS) - {"eig.dense_calls", "eig.zero_filtered",
                                      "eig.complex_rejected"}
    assert {c for c in produced if tracer.counters[c] > 0} == produced


@pytest.mark.parametrize("seed", ["1", "2", "1234"])
def test_pressure_band_run_exits_zero(seed, capsys):
    # square OSGS/P2 CC N=4 failed the residual certificate at these seeds
    # before the Ritz vectors were lifted by one block solve
    assert cli_main(["--domain", "square", "--mesh", "cc",
                     "--formulation", "osgs", "--degree", "2", "--N", "4",
                     "--ell", "0.2", "--cu", "0.1", "--cp", "1.0",
                     "--nev", "17", "--seed", seed]) == 0


def test_export_mode(tmp_path, capsys):
    out = tmp_path / "t.md"
    code = cli_main(["--domain", "square", "--mesh", "cc",
                     "--formulation", "sg", "--N", "2,4", "--nev", "2",
                     "--out", str(out), "--export-mode", "0"])
    assert code == 0
    exported = tmp_path / "t.md.mode0.txt"
    assert exported.exists()
    rows = exported.read_text().splitlines()
    mesh_nodes = (4 + 1) ** 2 + 4 ** 2
    assert len(rows) == mesh_nodes
    mags = []
    for line in rows:
        vals = [float(tok) for tok in line.split(",")]
        mags.append(np.hypot(vals[2], vals[3]))
    assert np.isclose(max(mags), 1.0)


def test_export_reuses_finest_solve(tmp_path, monkeypatch, capsys):
    calls = count_solves(monkeypatch)
    out = tmp_path / "t.csv"
    code = cli_main(["--domain", "square", "--mesh", "cc",
                     "--formulation", "osgs", "--N", "3,6", "--nev", "3",
                     "--seed", "7",
                     "--format", "csv", "--out", str(out),
                     "--export-mode", "1"])
    assert code == 0
    config = StudyConfig(domain=SQUARE_PI, mesh="cc", formulation="osgs",
                         N_list=(3, 6), nev=3, seed=7)
    # one solve per mirror sector, two on the square, for each of two N,
    # each at its share of nev, ceil(3 / 2); the export re-solves nothing
    share = replace(config.solver_config, nev=2)
    assert calls == [share] * 4
    expected = tmp_path / "expected.txt"
    export_eigenfunction(compute_eigenfunction(run_study(config), 1),
                         expected)
    exported = tmp_path / "t.csv.mode1.txt"
    assert exported.read_bytes() == expected.read_bytes()


def test_runtime_failure_exits_one(monkeypatch, capsys):
    # a module error past the config checks is named and exits 1
    def failing(*args, **kwargs):
        raise EigenSolveError("no convergence")

    monkeypatch.setattr(study, "solve_generalized", failing)
    code = cli_main(["--domain", "square", "--mesh", "cc",
                     "--formulation", "sg", "--N", "2", "--nev", "3"])
    assert code == 1
    assert capsys.readouterr().err == "error: EigenSolveError: no convergence\n"


@pytest.mark.parametrize("argv, message", [
    # 10 table rows on rank M = 10, split 5 + 5 by the mirror: Lanczos
    # returns at most rank M - 1 values per sector, 4 each, and the merged
    # list stops at the lower of the two top values
    (["--mesh", "ps", "--formulation", "sg", "--N", "1", "--nev", "10"],
     "RuntimeError: solver returned 7 values, need 10 (N=1)"),
    # every velocity node lies on the boundary: rank M = 0
    (["--mesh", "uniform", "--formulation", "osgs", "--N", "1"],
     "EigenSolveError: rank M is 0: too few finite eigenvalues for Lanczos"),
], ids=["too-few-values", "rank-M-zero"])
def test_too_small_pencil_exits_one(argv, message, capsys):
    assert cli_main(["--domain", "square", *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unreadable_text_exits_two(tmp_path, capsys):
    assert cli_main(["--nev", "abc"]) == 2
    assert "error: invalid value 'abc' for 'nev'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain = square\nnev 5\n")
    assert cli_main(["--config", str(cfg)]) == 2
    assert f"error: {cfg}:2: expected 'key = value'" in \
        capsys.readouterr().err
