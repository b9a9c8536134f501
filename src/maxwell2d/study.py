"""Convergence-study harness: campaign configs, rate tables, exports.

A campaign sweeps a strictly increasing list of division counts N for one
(domain, mesh family, formulation, degree) combination, solves for the
leading eigenvalues, and reports them against the domain's reference
spectrum with pairwise convergence rates in the usual benchmark layout:
values to 4 decimals, rates to 1 decimal in parentheses.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import meshgen
from .eig import SolverConfig, Spectrum, filter_zeros, is_integer, \
    solve_generalized
from .fem import DEGREES, FORMULATION_FIELDS, DofMap
from .meshgen import DomainKind, Mesh
from .system import ConstraintSet, CornerStrategy, StabilizationParams, \
    TipStrategy, build_ag, build_constraints, build_osgs, build_sg, \
    reduce_system

# Benchmark reference spectra.  Modes inherited from the enclosing square
# are analytically multiples of pi^2/4 and carried at full precision;
# the singular modes keep the published benchmark digits.
_PI2 = math.pi ** 2
L_SHAPE_REFERENCE = (1.47562182408, 3.53403136678, _PI2, _PI2, 11.3894793979)
CRACK_REFERENCE = (1.0341, _PI2 / 4, 4.0469, _PI2, _PI2,
                   10.8449, 12.2649, 5 * _PI2 / 4, 2 * _PI2, 21.2441)

MESH_FAMILIES = ("uniform", "cc", "ps", "cc-graded")
FORMULATIONS = tuple(FORMULATION_FIELDS)
TABLE_FORMATS = ("csv", "md")

DEFAULT_NEV = {
    DomainKind.SQUARE_PI: 17,
    DomainKind.L_SHAPE: 5,
    DomainKind.CRACKED_SQUARE: 10,
}


def square_reference(count: int) -> np.ndarray:
    """m^2 + n^2 over m, n >= 0, m + n > 0, ascending with multiplicity."""
    # [0, isqrt(count)]^2 holds count values of at most 2 count: m covers them
    m = math.isqrt(2 * count) + 1
    vals = [i * i + j * j
            for i in range(m + 1) for j in range(m + 1) if i + j > 0]
    vals.sort()
    return np.array(vals[:count], dtype=float)


def reference_values(domain: DomainKind, count: int) -> np.ndarray:
    if domain is DomainKind.SQUARE_PI:
        return square_reference(count)
    table = L_SHAPE_REFERENCE if domain is DomainKind.L_SHAPE \
        else CRACK_REFERENCE
    return np.array(table[:count], dtype=float)


@dataclass(frozen=True)
class StudyConfig:
    """Full description of one convergence campaign.

    Every campaign setting has its one default here, and ``StudyConfig()``
    is the paper's first table: square OSGS on criss-cross P1 at N = 5, 10,
    15, 20 and 25 with ell 0.1, c_u 0.01 and c_p 0.6, nev=None giving the
    square's 17 modes.  The command line restates none of these defaults.

    An inconsistent setting raises ValueError on construction, before any
    solve.  The properties ``solver_config`` and ``stabilization`` build,
    anew on each read, the SolverConfig that owns the nev, seed, shift and
    solver rules and the StabilizationParams that own ell, c_u and c_p;
    construction reads both once.  ``references`` is the reference column
    whose length is the table's row count.  The cc-graded exponent is the
    constant meshgen.GRADING_EXPONENT.  corner=None, like nev=None, is the
    domain's own rule: u2 folds onto -u1 at the L-shape's corner unless
    corner is FREE.  Nothing reads tip and no flag sets it; benchmark
    scripts pass it."""

    domain: DomainKind = DomainKind.SQUARE_PI
    mesh: str = "cc"
    formulation: str = "osgs"
    N_list: tuple = (5, 10, 15, 20, 25)
    degree: int = 1
    ell: float = 0.1
    c_u: float = 0.01
    c_p: float = 0.6
    corner: CornerStrategy | None = None
    tip: TipStrategy = TipStrategy.FREE
    nev: int | None = None
    shift: float = SolverConfig.shift
    solver: str = SolverConfig.method
    seed: int = SolverConfig.seed

    def __post_init__(self):
        choices = {"domain": tuple(DomainKind), "mesh": MESH_FAMILIES,
                   "formulation": FORMULATIONS, "degree": DEGREES,
                   "corner": (None, *CornerStrategy),
                   "tip": tuple(TipStrategy)}
        for name, allowed in choices.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"unknown {name} {value!r}; choose from "
                                 f"{', '.join(map(str, allowed))}")
        if not isinstance(self.N_list, tuple):
            raise ValueError(f"N_list must be a tuple, not {self.N_list!r}")
        if not all(map(is_integer, (self.degree, *self.N_list))):
            raise ValueError("degree and each N must be integers")
        if not self.N_list or min(self.N_list) < 1:
            raise ValueError("N list needs at least one positive value")
        if list(self.N_list) != sorted(set(self.N_list)):
            raise ValueError("N list must be strictly increasing")
        self.solver_config  # SolverConfig owns nev, seed and method
        if self.mesh == "cc-graded" and not self.domain.has_crack:
            raise ValueError("graded meshes are specific to the cracked square")
        if self.corner is not None and not self.domain.has_reentrant_corner:
            raise ValueError("corner settings apply to the L-shape only")
        if self.domain.has_crack and any(N % 2 for N in self.N_list):
            raise ValueError("the cracked square needs even N values: its "
                             "crack line must be a grid line")
        self.stabilization  # StabilizationParams owns the ell and c rules
        if self.solver == "shift-invert":
            if self.formulation == "sg" and self.shift <= 0.0:
                raise ValueError("SG shift-invert needs a positive shift: "
                                 "the curl-curl kernel sits at 0")
            if self.formulation != "sg" and self.c_p <= 0.0:
                raise ValueError("AG and OSGS shift-invert need a positive "
                                 "c_p: the pivot-free factor has no pivot "
                                 "on a zero p block")

    @property
    def nev_effective(self) -> int:
        return self.nev if self.nev is not None else DEFAULT_NEV[self.domain]

    @property
    def references(self) -> np.ndarray:
        """The table's reference column: nev values on the square, at most
        the published list on the L-shape and the cracked square."""
        return reference_values(self.domain, self.nev_effective)

    @property
    def solver_config(self) -> SolverConfig:
        return SolverConfig(nev=self.nev_effective, shift=self.shift,
                            method=self.solver, seed=self.seed)

    @property
    def stabilization(self) -> StabilizationParams | None:
        """ell, c_u and c_p of AG and OSGS; None for SG, which has none."""
        if self.formulation == "sg":
            return None
        return StabilizationParams(self.ell, self.c_u, self.c_p)


def build_mesh(config: StudyConfig, N: int) -> Mesh:
    if config.mesh == "uniform":
        return meshgen.build_uniform(config.domain, N)
    if config.mesh in ("cc", "cc-graded"):
        return meshgen.build_criss_cross(config.domain, N,
                                         graded=config.mesh == "cc-graded")
    return meshgen.powell_sabin_refine(meshgen.build_uniform(config.domain, N))


def stabilization_length(config: StudyConfig, mesh: Mesh) -> float:
    """Length scale entering tau_u.

    The criss-cross and uniform families use the largest element diameter.
    For Powell-Sabin meshes on the square and L-shape the published
    eigenvalues correspond to the refined grid spacing (half the base
    cell), while the cracked-square runs keep the element diameter; no
    published crack digit pins that rule down (lambda2 = 2.4677 against
    2.4674 at N=32 stays open).
    """
    if config.mesh == "ps" and not config.domain.has_crack:
        return mesh.grid_step
    return mesh.h


@dataclass(frozen=True)
class Case:
    """One solved case: the first nev values ascending, the spectrum they
    come from, and what its reduced eigenvectors need to expand to nodal
    fields: the dofmap (which holds the mesh) and the constraint set.  The
    matrices are not kept."""

    values: np.ndarray
    spectrum: Spectrum
    dofmap: DofMap
    constraints: ConstraintSet


def run_case(config: StudyConfig, N: int) -> Case:
    """Mesh, assemble, constrain, reduce and solve the case at N.  Only the
    reduced pencil is alive during the solve."""
    mesh = build_mesh(config, N)
    if config.formulation == "sg":
        system = build_sg(mesh, config.degree)
    else:
        build = build_ag if config.formulation == "ag" else build_osgs
        system = build(mesh, config.degree, config.stabilization,
                       stabilization_length(config, mesh))
    constraints = build_constraints(system.dofmap, corner=config.corner)
    reduced = reduce_system(system, constraints)
    del system
    spectrum = solve_generalized(reduced, config.solver_config)
    if config.formulation == "sg":
        spectrum = filter_zeros(spectrum)
    return Case(spectrum.values[:config.nev_effective], spectrum,
                reduced.dofmap, constraints)


def convergence_rate(e_prev: float, e_curr: float,
                     N_prev: int, N_curr: int) -> float:
    """ln(e_prev/e_curr) / ln(N_curr/N_prev) for a consecutive N pair."""
    if e_prev <= 0.0 or e_curr <= 0.0:
        raise ValueError("convergence_rate needs positive errors")
    if N_curr <= N_prev:
        raise ValueError("N values must increase")
    return math.log(e_prev / e_curr) / math.log(N_curr / N_prev)


SATURATION_FLOOR = 1e-14


@dataclass(frozen=True)
class EigenTable:
    """Per-N eigenvalue columns with pairwise rates against the references.

    rates[:, 0] is NaN (no previous column); a saturated cell (error below
    the floor on either side of the pair) carries +inf.  `finest` is the
    solved case of the last N, kept for eigenfunction export.
    """

    domain: DomainKind
    N_list: tuple
    references: np.ndarray
    values: np.ndarray
    rates: np.ndarray
    finest: Case | None = field(default=None, compare=False, repr=False)

    @property
    def n_rows(self) -> int:
        return len(self.references)


def run_study(config: StudyConfig) -> EigenTable:
    refs = config.references
    nrows = len(refs)
    columns = []
    for N in config.N_list:
        finest = None  # release the coarser case before the next solve
        finest = run_case(config, N)
        vals = finest.values
        if len(vals) < nrows:
            raise RuntimeError(
                f"solver returned {len(vals)} values, need {nrows} (N={N})")
        columns.append(vals[:nrows])
    values = np.column_stack(columns)
    rates = np.full_like(values, np.nan)
    errors = np.abs(values - refs[:, None])
    for j in range(1, values.shape[1]):
        for i in range(nrows):
            e_prev, e_curr = errors[i, j - 1], errors[i, j]
            if e_prev < SATURATION_FLOOR or e_curr < SATURATION_FLOOR:
                rates[i, j] = np.inf
            else:
                rates[i, j] = convergence_rate(e_prev, e_curr,
                                               config.N_list[j - 1],
                                               config.N_list[j])
    return EigenTable(domain=config.domain, N_list=tuple(config.N_list),
                      references=refs, values=values, rates=rates,
                      finest=finest)


def _cell(value: float, rate: float) -> str:
    """A Markdown cell: the value, then its rate, or a dash when saturated."""
    txt = f"{value:.4f}"
    if not np.isnan(rate):
        txt += " (—)" if np.isinf(rate) else f" ({rate:.1f})"
    return txt


def emit_table(table: EigenTable, fmt: str = "md") -> str:
    """Render the table; Markdown mirrors the published layout, CSV adds
    full-precision shadow columns for loss-free round trips."""
    if fmt == "md":
        header = ["Ref."] + [f"N={n}" for n in table.N_list]
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join([" --- "] * len(header)) + "|"]
        for i in range(table.n_rows):
            cells = [f"{table.references[i]:.4f}"]
            cells += [_cell(table.values[i, j], table.rates[i, j])
                      for j in range(len(table.N_list))]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = ["ref"]
        for n in table.N_list:
            header += [f"N{n}", f"rate_N{n}", f"N{n}_full", f"rate_N{n}_full"]
        writer.writerow(header)
        for i in range(table.n_rows):
            row = [f"{table.references[i]:.4f}"]
            for j in range(len(table.N_list)):
                v, r = table.values[i, j], table.rates[i, j]
                if np.isnan(r):
                    printed, full = "", ""
                elif np.isinf(r):
                    printed, full = "inf", "inf"
                else:
                    printed, full = f"{r:.1f}", repr(float(r))
                row += [f"{v:.4f}", printed, repr(float(v)), full]
            writer.writerow(row)
        return buf.getvalue()
    raise ValueError(f"unknown table format {fmt!r}")


def parse_csv_table(text: str):
    """Read back the full-precision columns of an emitted CSV table."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    n_cols = (len(header) - 1) // 4
    values = np.empty((len(body), n_cols))
    rates = np.full((len(body), n_cols), np.nan)
    for i, row in enumerate(body):
        for j in range(n_cols):
            values[i, j] = float(row[3 + 4 * j])
            raw = row[4 + 4 * j]
            if raw == "inf":
                rates[i, j] = np.inf
            elif raw:
                rates[i, j] = float(raw)
    return values, rates


@dataclass(frozen=True)
class EigenField:
    """Nodal eigenfunction data: coordinates, u components, p if present."""

    coords: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    p: np.ndarray | None = None


def export_eigenfunction(fld: EigenField, path) -> None:
    """One record per nodal point: x, y, u1, u2 and p when present."""
    with open(path, "w") as f:
        for i in range(len(fld.coords)):
            parts = [repr(float(fld.coords[i, 0])), repr(float(fld.coords[i, 1])),
                     repr(float(fld.u1[i])), repr(float(fld.u2[i]))]
            if fld.p is not None:
                parts.append(repr(float(fld.p[i])))
            f.write(", ".join(parts) + "\n")


def compute_eigenfunction(table: EigenTable, index: int) -> EigenField:
    """Expand eigenvector `index` of the table's finest case to nodal fields,
    reusing the solve `run_study` already did.  The fields are scaled so the
    largest nodal |u| is one and u1 is positive at its own largest-magnitude
    node."""
    case = table.finest
    if not 0 <= index < len(case.spectrum.values):
        raise IndexError(f"eigenpair index {index} out of range")
    full = case.constraints.expand(case.spectrum.vectors[:, index])
    dofmap = case.dofmap
    u1 = full[dofmap.field_slice("u1")]
    u2 = full[dofmap.field_slice("u2")]
    scale = 1.0 / np.hypot(u1, u2).max()
    if u1[int(np.argmax(np.abs(u1)))] < 0:
        scale = -scale
    p = scale * full[dofmap.field_slice("p")] if "p" in dofmap.fields \
        else None
    return EigenField(coords=dofmap.coords.copy(), u1=scale * u1,
                      u2=scale * u2, p=p)
