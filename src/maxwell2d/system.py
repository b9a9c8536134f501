"""Assembled generalized eigensystems A x = lambda M x for SG, AG and OSGS.

Every A is symmetric.  M vanishes on the rows of the multiplier p and of
the OSGS projections, so their test equations may carry either sign
without moving an eigenpair; the p and xi rows take the sign that makes
the (p, u) block the transpose of the (u, p) block.  The OSGS projections
are carried as implicit unknowns (xi for grad p, eta for div u) whose rows
are scaled by the corresponding tau.  The stabilization block on (p, xi)
is then negative semidefinite, and the blocks on u and on eta positive
semidefinite: A is a symmetric indefinite saddle-point operator.

Boundary conditions are applied by congruence reduction (x = T x_r,
A_r = T' A T), never by penalties, so the reduced spectrum is exact.  A
constraint set is a kept-dof mask plus at most one fold, the bisector
rule u2 = -u1 at the L-shape's re-entrant corner.

The permeability mu is 1 in every benchmark cavity and enters no form:
tau_p = c_p ell^2 and tau_u = c_u h^2 / ell^2.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .fem import DofMap, FormKind, assemble_form, build_dofmap, scalar_kernels
from .meshgen import Mesh


@dataclass(frozen=True)
class StabilizationParams:
    """Length scale ell, constants c_u / c_p, and the mesh size h.

    ell must be positive, the others nonnegative, and all finite:
    ValueError on construction otherwise."""

    ell: float
    c_u: float
    c_p: float
    h: float

    def __post_init__(self):
        if not 0.0 < self.ell < np.inf:
            raise ValueError("ell must be positive and finite")
        if not all(0.0 <= v < np.inf for v in (self.c_u, self.c_p, self.h)):
            raise ValueError("c_u, c_p and h must be nonnegative and finite")

    @property
    def tau_p(self) -> float:
        return self.c_p * self.ell ** 2

    @property
    def tau_u(self) -> float:
        return self.c_u * self.h ** 2 / self.ell ** 2


class CornerStrategy(Enum):
    BOTH_ZERO = "both-zero"
    FREE = "free"
    BISECTOR_NORMAL = "bisector"


class TipStrategy(Enum):
    FREE = "free"
    BOTH_ZERO = "both-zero"


class ConstraintError(Exception):
    pass


@dataclass(frozen=True)
class ConstraintSet:
    """The dofs that survive reduction, plus at most the bisector fold.

    keep is a boolean mask over the full system.  fold is None or one
    (slave, master) pair: the slave is dropped and rebuilt as -master.
    Anything else raises ConstraintError on construction."""

    keep: np.ndarray
    fold: tuple | None = None

    def __post_init__(self):
        keep, fold = self.keep, self.fold
        ok = isinstance(keep, np.ndarray) and keep.dtype == bool \
            and keep.ndim == 1
        if ok and fold is not None:
            ok = 0 <= min(fold) and max(fold) < len(keep) \
                and not keep[fold[0]] and keep[fold[1]]
        if not ok:
            raise ConstraintError("need a 1-D bool mask and at most one fold "
                                  "of a dropped slave onto a kept master")

    def retained_dofs(self) -> np.ndarray:
        """Full-system indices of the dofs that survive reduction, in order."""
        return np.flatnonzero(self.keep)

    def reduction_matrix(self) -> sp.csr_matrix:
        """T with x_full = T x_reduced; retained dofs keep their order."""
        kept = self.retained_dofs()
        rows, cols, vals = kept, np.arange(len(kept)), np.ones(len(kept))
        if self.fold is not None:
            rows = np.append(rows, self.fold[0])
            cols = np.append(cols, np.searchsorted(kept, self.fold[1]))
            vals = np.append(vals, -1.0)
        return sp.csr_matrix((vals, (rows, cols)),
                             shape=(len(self.keep), len(kept)))

    def expand(self, x_reduced: np.ndarray) -> np.ndarray:
        """Full vector: dropped dofs zero, the fold's slave rebuilt."""
        return self.reduction_matrix() @ x_reduced


@dataclass(frozen=True)
class EvpSystem:
    A: sp.csr_matrix
    M: sp.csr_matrix
    dofmap: DofMap
    constraints: ConstraintSet | None = None

    @property
    def n(self) -> int:
        return self.A.shape[0]


def build_sg(mesh: Mesh, degree: int) -> EvpSystem:
    """Standard Galerkin curl-curl system over (u1, u2)."""
    dofmap = build_dofmap(mesh, degree, "sg")
    kernels = scalar_kernels(dofmap)
    A = assemble_form(FormKind.CURL_CURL, kernels)
    M = assemble_form(FormKind.MASS_VEC, kernels)
    return EvpSystem(A=A, M=M, dofmap=dofmap)


def build_ag(mesh: Mesh, degree: int, params: StabilizationParams) -> EvpSystem:
    """Augmented system over (u1, u2, p); tau_p = tau_u = 0 degenerates to
    the plain mixed Galerkin matrix."""
    dofmap = build_dofmap(mesh, degree, "ag")
    kernels = scalar_kernels(dofmap)
    kcc = assemble_form(FormKind.CURL_CURL, kernels)
    kdd = assemble_form(FormKind.DIV_DIV, kernels)
    kgg = assemble_form(FormKind.GRAD_GRAD, kernels)
    g = assemble_form(FormKind.GRAD_COUPLING, kernels)
    mv = assemble_form(FormKind.MASS_VEC, kernels)
    A = sp.bmat([[kcc + params.tau_u * kdd, g],
                 [g.T, -params.tau_p * kgg]], format="csr")
    M = sp.block_diag([mv, sp.csr_matrix((dofmap.n_scalar,) * 2)],
                      format="csr")
    return EvpSystem(A=A, M=M, dofmap=dofmap)


def build_osgs(mesh: Mesh, degree: int, params: StabilizationParams) -> EvpSystem:
    """Orthogonal-subgrid-scale system over (u1, u2, p, xi1, xi2, eta).

    The projections are implicit: the xi row enforces (xi, chi) = (grad p,
    chi) and the eta row (eta, psi) = (div u, psi), both scaled by their
    tau.  Zero tau would wipe a projection row, so both must be positive.
    """
    if params.tau_p <= 0.0 or params.tau_u <= 0.0:
        raise ValueError("OSGS requires strictly positive tau_p and tau_u")
    dofmap = build_dofmap(mesh, degree, "osgs")
    kernels = scalar_kernels(dofmap)
    kcc = assemble_form(FormKind.CURL_CURL, kernels)
    kdd = assemble_form(FormKind.DIV_DIV, kernels)
    kgg = assemble_form(FormKind.GRAD_GRAD, kernels)
    g = assemble_form(FormKind.GRAD_COUPLING, kernels)
    d = assemble_form(FormKind.DIV_SCALAR, kernels)
    mv = assemble_form(FormKind.MASS_VEC, kernels)
    tp, tu = params.tau_p, params.tau_u
    A = sp.bmat([
        [kcc + tu * kdd, g,         None,     -tu * d.T],
        [g.T,            -tp * kgg, tp * g.T, None],
        [None,           tp * g,    -tp * mv, None],
        [-tu * d,        None,      None,     tu * kernels["mass"]],
    ], format="csr")
    M = sp.block_diag([mv, sp.csr_matrix((4 * dofmap.n_scalar,) * 2)],
                      format="csr")
    return EvpSystem(A=A, M=M, dofmap=dofmap)


def build_constraints(dofmap: DofMap,
                      corner: CornerStrategy = CornerStrategy.BOTH_ZERO,
                      tip: TipStrategy = TipStrategy.FREE) -> ConstraintSet:
    """Tangential-trace boundary conditions for the given field layout.

    Horizontal edges (crack faces included) fix u1, vertical edges fix u2,
    so nodes on both kinds fix both components.  p vanishes at every
    boundary node including crack-face copies; the projection fields are
    never constrained.  The mesh's singular node follows the corner
    strategy on the L-shape (the bisector-normal choice couples u2 = -u1)
    and the tip strategy on the cracked square.
    """
    if corner is CornerStrategy.BISECTOR_NORMAL and \
            not dofmap.mesh.domain.has_reentrant_corner:
        raise ConstraintError(
            "bisector-normal corner handling needs a re-entrant corner")
    keep = np.ones(dofmap.ndof, dtype=bool)
    keep[dofmap.field_slice("u1")] = ~dofmap.on_h
    keep[dofmap.field_slice("u2")] = ~dofmap.on_v
    if "p" in dofmap.fields:
        keep[dofmap.field_slice("p")] = ~(dofmap.on_h | dofmap.on_v)
    fold = None
    node = dofmap.mesh.singular_node
    if node >= 0:
        u1, u2 = dofmap.dof("u1", node), dofmap.dof("u2", node)
        rule = corner if dofmap.mesh.domain.has_reentrant_corner else tip
        keep[u1] = rule not in (CornerStrategy.BOTH_ZERO, TipStrategy.BOTH_ZERO)
        keep[u2] = rule in (CornerStrategy.FREE, TipStrategy.FREE)
        if rule is CornerStrategy.BISECTOR_NORMAL:
            fold = (u2, u1)
    return ConstraintSet(keep, fold)


def reduce_system(system: EvpSystem, constraints: ConstraintSet) -> EvpSystem:
    """Congruence reduction T' A T, T' M T onto the retained dofs."""
    if len(constraints.keep) != system.n:
        raise ConstraintError("constraint set does not match system size")
    T = constraints.reduction_matrix()
    A = (T.T @ system.A @ T).tocsr()
    M = (T.T @ system.M @ T).tocsr()
    return replace(system, A=A, M=M, constraints=constraints)
