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
A_r = T' A T), never by penalties, so the reduced spectrum is exact.

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

    ell must be positive, the others nonnegative: ValueError on
    construction otherwise."""

    ell: float
    c_u: float
    c_p: float
    h: float

    def __post_init__(self):
        if self.ell <= 0.0:
            raise ValueError("ell must be positive")
        if self.c_u < 0.0 or self.c_p < 0.0 or self.h < 0.0:
            raise ValueError("c_u, c_p and h must be nonnegative")

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
    """Homogeneous fixed dofs plus (slave, master, factor) couplings."""

    ndof: int
    fixed: np.ndarray
    mpcs: tuple

    def __post_init__(self):
        fixed = set(int(d) for d in self.fixed)
        slaves = set(int(s) for s, _m, _f in self.mpcs)
        masters = set(int(m) for _s, m, _f in self.mpcs)
        for role, dofs in (("fixed", fixed), ("slave", slaves),
                           ("master", masters)):
            outside = sorted(d for d in dofs if not 0 <= d < self.ndof)
            if outside:
                raise ConstraintError(
                    f"{role} dof {outside[0]} outside [0, {self.ndof})")
        if fixed & slaves:
            raise ConstraintError("a dof cannot be both fixed and a slave")
        if slaves & masters:
            raise ConstraintError("MPC chains (slave of a slave) are rejected")
        if fixed & masters:
            raise ConstraintError("an MPC master cannot be a fixed dof")

    def retained_dofs(self) -> np.ndarray:
        """Full-system indices of the dofs that survive reduction, in order."""
        drop = np.zeros(self.ndof, dtype=bool)
        drop[self.fixed] = True
        for s, _m, _f in self.mpcs:
            drop[s] = True
        return np.where(~drop)[0]

    def reduction_matrix(self) -> sp.csr_matrix:
        """T with x_full = T x_reduced; retained dofs keep their order."""
        keep = self.retained_dofs()
        col = -np.ones(self.ndof, dtype=np.int64)
        col[keep] = np.arange(len(keep))
        mpcs = np.array(self.mpcs, dtype=float).reshape(-1, 3)
        slaves, masters = mpcs[:, :2].astype(np.int64).T
        rows = np.concatenate([keep, slaves])
        cols = np.concatenate([col[keep], col[masters]])
        vals = np.concatenate([np.ones(len(keep)), mpcs[:, 2]])
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.ndof, len(keep)))

    def expand(self, x_reduced: np.ndarray) -> np.ndarray:
        """Full vector: fixed dofs zero, slaves reconstructed from masters."""
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
    u1, u2 = dofmap.offset("u1"), dofmap.offset("u2")
    fix_u1, fix_u2 = dofmap.on_h.copy(), dofmap.on_v.copy()
    mpcs = ()
    node = dofmap.mesh.singular_node
    if node >= 0:
        rule = corner if dofmap.mesh.domain.has_reentrant_corner else tip
        fix_u1[node] = fix_u2[node] = \
            rule in (CornerStrategy.BOTH_ZERO, TipStrategy.BOTH_ZERO)
        if rule is CornerStrategy.BISECTOR_NORMAL:
            mpcs = ((u2 + node, u1 + node, -1.0),)
    fixed = [u1 + np.flatnonzero(fix_u1), u2 + np.flatnonzero(fix_u2)]
    if "p" in dofmap.fields:
        fixed.append(dofmap.offset("p")
                     + np.flatnonzero(dofmap.on_h | dofmap.on_v))
    return ConstraintSet(ndof=dofmap.ndof, fixed=np.sort(np.concatenate(fixed)),
                         mpcs=mpcs)


def reduce_system(system: EvpSystem, constraints: ConstraintSet) -> EvpSystem:
    """Congruence reduction T' A T, T' M T onto the retained dofs."""
    if constraints.ndof != system.n:
        raise ConstraintError("constraint set does not match system size")
    T = constraints.reduction_matrix()
    A = (T.T @ system.A @ T).tocsr()
    M = (T.T @ system.M @ T).tocsr()
    return replace(system, A=A, M=M, constraints=constraints)
