"""The benchmark's workloads: campaigns driven through the public entry
points, and the correctness gate each campaign's table must pass.

A workload is a fixed list of campaigns.  One iteration of a workload runs
its campaigns one after the other (a closed loop with one client); the seed
is the ARPACK start-vector seed, passed as ``StudyConfig.seed`` or the CLI
``--seed``.  Each campaign returns a :class:`Outcome` with the finest-N
relative error against ``study.reference_values`` and the list of gate
violations (empty when the table matches the published digits).
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

# Published digits the gate checks against, at the acceptance tolerances of
# the paper's criteria.  They are copied here so that the gate stays fixed
# while the program and its tests change.
SG_PS_SQUARE_N25 = np.array([
    1.0001, 1.0003, 2.0008, 4.0033, 4.0033, 5.0035, 5.0067, 8.0130, 9.0157,
    9.0173, 10.0203, 10.0203, 13.0255, 13.0429, 16.0520, 16.0520, 17.0552])
SG_PS_LSHAPE_N25 = np.array([1.4786, 3.5342, 9.8713, 9.8719, 11.3913])
CRACK_LAMBDA2 = 2.4674
PI2 = 9.8696


@dataclass
class Outcome:
    """What the gate and the end-to-end metrics need from one campaign."""

    finest_rel_err: float
    violations: list


def _expect(violations: list, ok: bool, what: str) -> None:
    if not ok:
        violations.append(what)


def _finest_rel_err(values: np.ndarray, refs: np.ndarray) -> float:
    return float(np.max(np.abs(values - refs) / np.abs(refs)))


def _gate_crack(table, v: list) -> None:
    """Criterion 8: cracked square, OSGS/PS, free tip."""
    lam2 = table.values[1, -1]
    _expect(v, abs(lam2 - CRACK_LAMBDA2) <= 1e-2,
            f"crack lambda2(N=32) = {lam2:.6f}, want {CRACK_LAMBDA2} +/- 1e-2")
    rates = table.rates[3:6, -1]
    _expect(v, bool(np.all(np.abs(rates - 2.1) <= 0.3)),
            f"crack modes 4-6 final rates {rates}, want 2.1 +/- 0.3")
    _expect(v, table.rates[0, -1] < 1.0,
            f"crack first-mode rate {table.rates[0, -1]:.3f}, want < 1")


def _gate_square_sg_ps(table, v: list) -> None:
    """Criterion 4: square SG/PS; the 1e-2 branch is the split-point
    allowance the acceptance test also grants."""
    last = table.values[:, -1]
    if np.allclose(last, SG_PS_SQUARE_N25, rtol=2e-3):
        rate_tol = 0.15
    else:
        _expect(v, np.allclose(last, SG_PS_SQUARE_N25, rtol=1e-2),
                "square SG/PS N=25 values off the published column by > 1e-2")
        rate_tol = 0.2
    rates = table.rates[:, -1]
    _expect(v, bool(np.all(np.abs(rates - 2.0) <= rate_tol)),
            f"square SG/PS final rates not 2 +/- {rate_tol}")
    _expect(v, last[-1] < 17.1, f"square SG/PS 17th value {last[-1]:.4f}")


def _gate_lshape_sg_ps(table, v: list) -> None:
    """Criterion 6, SG column: L-shape SG/PS with the bisector corner."""
    _expect(v, abs(table.rates[0, -1] - 1.3) <= 0.2,
            f"L-shape first-mode rate {table.rates[0, -1]:.3f}, want 1.3")
    _expect(v, bool(np.all(np.abs(table.rates[2:4, -1] - 2.0) <= 0.2)),
            "L-shape modes 3-4 final rates not 2 +/- 0.2")
    _expect(v, bool(np.all(np.abs(table.values[2:4, -1] - PI2) <= 3e-3)),
            "L-shape modes 3-4 at N=25 not within 3e-3 of 9.8696")
    _expect(v, np.allclose(table.values[:, -1], SG_PS_LSHAPE_N25, rtol=1e-2),
            "L-shape SG/PS N=25 values off the published column by > 1e-2")


def _study_campaign(maxwell2d, gate, **config):
    from maxwell2d import study
    cfg = maxwell2d.StudyConfig(**config)

    def campaign() -> Outcome:
        table = study.run_study(cfg)
        refs = study.reference_values(table.domain, table.n_rows)
        violations: list = []
        gate(table, violations)
        return Outcome(_finest_rel_err(table.values[:, -1], refs), violations)

    return campaign


def _cli_campaign(maxwell2d, seed: int, scratch: str):
    """L-shape OSGS/P2 on criss-cross through ``cli_main``; criterion 7
    modes 3-4 at N=10, and the exported eigenfunction file."""
    from maxwell2d import cli, study
    out = os.path.join(scratch, "lshape_p2.csv")
    argv = ["--domain", "lshape", "--mesh", "cc", "--formulation", "osgs",
            "--degree", "2", "--corner", "bisector", "--N", "5,10",
            "--ell", "0.3", "--cu", "0.85", "--cp", "0.5", "--nev", "5",
            "--format", "csv", "--out", out, "--export-mode", "0",
            "--seed", str(seed)]
    export = out + ".mode0.txt"

    def campaign() -> Outcome:
        for path in (out, export):
            if os.path.exists(path):
                os.remove(path)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.cli_main(argv)
        v: list = []
        if code != 0:
            return Outcome(math.inf, [f"cli_main exited {code}"])
        with open(out) as f:
            rows = list(csv.DictReader(f))
        n10 = np.array([float(r["N10_full"]) for r in rows])
        _expect(v, len(n10) == 5, f"CLI table has {len(n10)} rows, want 5")
        _expect(v, bool(np.all(np.abs(n10[2:4] - PI2) <= 5e-5)),
                f"L-shape P2 modes 3-4 at N=10 are {n10[2:4]}, want 9.8696")
        _expect(v, os.path.isfile(export) and os.path.getsize(export) > 0,
                "eigenfunction export missing or empty")
        refs = study.reference_values(maxwell2d.L_SHAPE, len(n10))
        return Outcome(_finest_rel_err(n10, refs), v)

    return campaign


def _crack_osgs_ps(m, seed, _scratch):
    return [("crack-osgs-ps", _study_campaign(
        m, _gate_crack, domain=m.CRACKED_SQUARE, mesh="ps",
        formulation="osgs", N_list=(2, 4, 8, 16, 32), nev=10,
        tip=m.TipStrategy.FREE, ell=0.2, c_u=0.1, c_p=1.0, seed=seed))]


def _sg_ps(m, seed, _scratch):
    return [
        ("square-sg-ps", _study_campaign(
            m, _gate_square_sg_ps, domain=m.SQUARE_PI, mesh="ps",
            formulation="sg", N_list=(5, 10, 15, 20, 25), nev=17, seed=seed)),
        ("lshape-sg-ps", _study_campaign(
            m, _gate_lshape_sg_ps, domain=m.L_SHAPE, mesh="ps",
            formulation="sg", N_list=(5, 10, 15, 20, 25), nev=5,
            corner=m.CornerStrategy.BISECTOR_NORMAL, seed=seed)),
    ]


def _lshape_p2_cli(m, seed, scratch):
    return [("lshape-p2-cli", _cli_campaign(m, seed, scratch))]


# Workload name -> function taking the package, the seed and a scratch
# directory, and returning (campaign name, zero-argument campaign) pairs.
# BENCHMARK.json says why each workload was chosen.
WORKLOADS = {
    "crack-osgs-ps": _crack_osgs_ps,
    "sg-ps": _sg_ps,
    "lshape-p2-cli": _lshape_p2_cli,
}


def setup_solves(maxwell2d) -> None:
    """One tiny dense solve and one tiny shift-invert solve, so that the
    one-off costs of a first eigensolve in a process are paid here."""
    from maxwell2d import study
    dense = maxwell2d.StudyConfig(domain=maxwell2d.SQUARE_PI, mesh="ps",
                                  formulation="sg", N_list=(5,), nev=17)
    sparse = maxwell2d.StudyConfig(domain=maxwell2d.SQUARE_PI, mesh="cc",
                                   formulation="sg", N_list=(4,), nev=4,
                                   solver="shift-invert")
    for cfg in (dense, sparse):
        table = study.run_study(cfg)
        refs = study.reference_values(table.domain, table.n_rows)
        if not np.allclose(table.values[:, 0], refs, rtol=0.2):
            raise RuntimeError(f"set-up solve is wrong: {table.values[:, 0]}")
