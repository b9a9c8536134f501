import numpy as np

from maxwell2d import cli_main


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


def test_inconsistent_combinations(capsys):
    assert cli_main(["--domain", "square", "--corner", "bisector"]) == 2
    assert cli_main(["--domain", "square", "--mesh", "cc-graded"]) == 2
    assert cli_main(["--domain", "lshape", "--tip", "both-zero"]) == 2
    assert cli_main(["--domain", "square", "--mesh", "cc",
                     "--grading-exponent", "3"]) == 2
    assert cli_main(["--domain", "crack", "--N", "2,3"]) == 2
    assert "even" in capsys.readouterr().err


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
