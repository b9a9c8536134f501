"""Assembled generalized eigensystems A x = lambda M x for SG, AG and OSGS.

Every A is symmetric.  M vanishes on the rows of the multiplier p and of
the OSGS projections, so their test equations may carry either sign
without moving an eigenpair; the p and xi rows take the sign that makes
the (p, u) block the transpose of the (u, p) block.  The OSGS projections
are carried as implicit unknowns, scaled by the square root of their tau:
xi' = sqrt(tau_p) xi for grad p and eta' = sqrt(tau_u) eta for div u.
That is a diagonal congruence on rows where M vanishes, so it moves no
eigenpair, and a zero tau decouples its projection instead of wiping its
row: OSGS at tau_p = tau_u = 0 is mixed Galerkin, as AG is.  The
stabilization block on (p, xi') is then negative semidefinite, and the
blocks on u and on eta' positive semidefinite: A is a symmetric indefinite
saddle-point operator.  The three pencils nest, so one block table
assembles them all: SG is the leading (u1, u2) block of AG at tau_u = 0,
and AG the leading (u1, u2, p) block of OSGS at the same taus.

Boundary conditions are applied by congruence reduction (x = T x_r,
A_r = T' A T), never by penalties, so the reduced spectrum is exact.  A
constraint set is a kept-dof mask plus at most one fold, the bisector
rule u2 = -u1 at the L-shape's re-entrant corner.

The square and the L-shape each have one mirror, and so do their meshes.
``mirror_permutation`` reads it as a signed permutation of the reduced
dofs that commutes with the reduced A and M: the vector fields (u1, u2)
and (xi1', xi2') map as R u(R x), the scalars p and eta' as p(R x), and
the bisector fold u2 = -u1 is invariant under the L-shape's y = -x.

The permeability mu is 1 in every benchmark cavity and enters no form:
tau_p = c_p ell^2 and tau_u = c_u h^2 / ell^2, where the mesh size h is
known only once a mesh exists and so is passed to the builders.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .eig import is_real
from .fem import FORMULATION_FIELDS, AssemblyError, DofMap, build_dofmap, \
    scalar_kernels
from .meshgen import Mesh, node_mirror


@dataclass(frozen=True)
class StabilizationParams:
    """Length scale ell and constants c_u / c_p of AG and OSGS.

    ell must be positive, c_u and c_p nonnegative, and all finite reals
    (no bool): ValueError on construction otherwise.  The mesh size h
    enters only tau_u(h)."""

    ell: float
    c_u: float
    c_p: float

    def __post_init__(self):
        if not (is_real(self.ell) and self.ell > 0.0):
            raise ValueError("ell must be positive and a finite real")
        if not all(is_real(v) and v >= 0.0 for v in (self.c_u, self.c_p)):
            raise ValueError("c_u and c_p must be nonnegative and finite reals")

    @property
    def tau_p(self) -> float:
        return self.c_p * self.ell ** 2

    def tau_u(self, h: float) -> float:
        if not (is_real(h) and h >= 0.0):
            raise ValueError("h must be nonnegative and a finite real")
        return self.c_u * h ** 2 / self.ell ** 2


class CornerStrategy(Enum):
    FREE = "free"
    BISECTOR_NORMAL = "bisector"


class TipStrategy(Enum):
    """The crack tip's rule, kept only because benchmark scripts pass it."""
    FREE = "free"


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


def assemble_form(formulation: str, kernels: dict, tau_p: float = 0.0,
                  tau_u: float = 0.0) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The pencil (A, M) of a formulation from the six ``scalar_kernels``.

    One block table over the OSGS fields (u1, u2, p, xi1', xi2', eta')
    holds all three pencils, and a formulation keeps its leading fields.
    The u block is curl-curl plus tau_u div-div and the p block is
    -tau_p grad-grad; the xi' row enforces (xi', chi) = sqrt(tau_p)
    (grad p, chi) and the eta' row (eta', psi) = sqrt(tau_u) (div u, psi).
    M is the vector mass on (u1, u2) and zero on the other fields.
    """
    if formulation not in FORMULATION_FIELDS:
        raise AssemblyError(f"unknown formulation tag {formulation!r}")
    mass, gx, gy = kernels["mass"], kernels["gx"], kernels["gy"]
    kxx, kxy, kyy = kernels["kxx"], kernels["kxy"], kernels["kyy"]
    rp, ru = np.sqrt(tau_p), np.sqrt(tau_u)
    # one row per field, formed only if the formulation keeps that field
    table = [
        lambda: [kyy + tau_u * kxx, -kxy.T + tau_u * kxy, gx, None, None,
                 -ru * gx.T],
        lambda: [-kxy + tau_u * kxy.T, kxx + tau_u * kyy, gy, None, None,
                 -ru * gy.T],
        lambda: [gx.T, gy.T, -tau_p * (kxx + kyy), rp * gx.T, rp * gy.T,
                 None],
        lambda: [None, None, rp * gx, -mass, None, None],
        lambda: [None, None, rp * gy, None, -mass, None],
        lambda: [-ru * gx, -ru * gy, None, None, None, mass],
    ]
    k = len(FORMULATION_FIELDS[formulation])
    A = sp.bmat([row()[:k] for row in table[:k]], format="csr")
    null = sp.csr_matrix(((k - 2) * mass.shape[0],) * 2)
    M = sp.block_diag([mass, mass, null], format="csr")
    return A, M


def _build_pencil(formulation: str, mesh: Mesh, degree: int,
                  *taus: float) -> EvpSystem:
    """Dofmap, kernels and pencil of a formulation; taus (tau_p, tau_u)."""
    dofmap = build_dofmap(mesh, degree, formulation)
    A, M = assemble_form(formulation, scalar_kernels(dofmap), *taus)
    return EvpSystem(A=A, M=M, dofmap=dofmap)


def build_sg(mesh: Mesh, degree: int) -> EvpSystem:
    """Standard Galerkin curl-curl system over (u1, u2)."""
    return _build_pencil("sg", mesh, degree)


def build_ag(mesh: Mesh, degree: int, params: StabilizationParams,
             h: float) -> EvpSystem:
    """Augmented system over (u1, u2, p) at mesh size h; tau_p = tau_u = 0
    degenerates to the plain mixed Galerkin matrix."""
    return _build_pencil("ag", mesh, degree, params.tau_p, params.tau_u(h))


def build_osgs(mesh: Mesh, degree: int, params: StabilizationParams,
               h: float) -> EvpSystem:
    """Orthogonal-subgrid-scale system over (u1, u2, p, xi1', xi2', eta')
    at mesh size h."""
    return _build_pencil("osgs", mesh, degree, params.tau_p, params.tau_u(h))


def build_constraints(dofmap: DofMap,
                      corner: CornerStrategy | None = None) -> ConstraintSet:
    """Tangential-trace boundary conditions for the given field layout.

    Horizontal edges (crack faces included) fix u1, vertical edges fix u2,
    so nodes on both kinds fix both components.  p vanishes at every
    boundary node including crack-face copies; the projection fields are
    never constrained.  The mesh's singular node keeps u1 and u2, save
    that u2 folds onto -u1 at the L-shape's re-entrant corner unless corner
    is FREE.  A corner other than None or a member, or any corner off the
    L-shape, raises ConstraintError.
    """
    reentrant = dofmap.mesh.domain.has_reentrant_corner
    if corner not in ((None, *CornerStrategy) if reentrant else (None,)):
        raise ConstraintError(f"no corner rule {corner!r} on this domain")
    keep = np.ones(dofmap.ndof, dtype=bool)
    keep[dofmap.field_slice("u1")] = ~dofmap.on_h
    keep[dofmap.field_slice("u2")] = ~dofmap.on_v
    if "p" in dofmap.fields:
        keep[dofmap.field_slice("p")] = ~(dofmap.on_h | dofmap.on_v)
    fold = None
    node = dofmap.mesh.singular_node
    if node >= 0:
        u1, u2 = dofmap.dof("u1", node), dofmap.dof("u2", node)
        keep[[u1, u2]] = True
        if reentrant and corner is not CornerStrategy.FREE:
            keep[u2], fold = False, (u2, u1)
    return ConstraintSet(keep, fold)


def reduce_system(system: EvpSystem, constraints: ConstraintSet) -> EvpSystem:
    """Congruence reduction T' A T, T' M T onto the retained dofs."""
    if len(constraints.keep) != system.n:
        raise ConstraintError("constraint set does not match system size")
    T = constraints.reduction_matrix()
    A = (T.T @ system.A @ T).tocsr()
    M = (T.T @ system.M @ T).tocsr()
    return replace(system, A=A, M=M, constraints=constraints)


# the fields that pair into vectors; the others are scalars
VECTOR_FIELDS = (("u1", "u2"), ("xi1", "xi2"))


def mirror_permutation(system: EvpSystem):
    """The mesh mirror on the reduced dofs, or None without one.

    Returns ``(image, sign)``: the mirror S maps x to (S x)[i] = sign[i]
    x[image[i]], an involution that commutes with A and M.  A vector
    field maps as R u(R x) and a scalar as p(R x).  The folded corner u1
    is its own image with sign +1, its u2 being -u1.  Raises
    ConstraintError when the constraints break the mirror."""
    dofmap, constraints = system.dofmap, system.constraints
    nodes = node_mirror(dofmap)
    if nodes is None:
        return None
    R = dofmap.mesh.domain.mirror
    image, sign = [], []
    for field in dofmap.fields:   # contiguous, in declaration order
        pair = next((p for p in VECTOR_FIELDS if field in p), None)
        source, s = field, 1.0
        if pair is not None:   # row a of R u(R x)
            row = R[pair.index(field)]
            k = int(np.argmax(np.abs(row)))
            source, s = pair[k], row[k]
        image.append(dofmap.offset(source) + nodes)
        sign.append(np.full(len(nodes), s))
    image, sign = np.concatenate(image), np.concatenate(sign)
    if constraints is None:
        return image, sign
    # read S T on the retained rows: a dof mapped onto the fold's slave
    # lands on its master with the sign flipped
    kept = constraints.retained_dofs()
    reduced = np.full(dofmap.ndof, -1, dtype=np.intp)
    reduced[kept] = np.arange(len(kept))
    if constraints.fold is not None:
        slave, master = constraints.fold
        reduced[slave] = reduced[master]
        sign[image == slave] *= -1.0
    image, sign = reduced[image[kept]], sign[kept]
    if np.any(image < 0):
        raise ConstraintError("the constraints break the mesh mirror")
    return image, sign
