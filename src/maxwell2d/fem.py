"""Reference elements, quadrature, dof management and the scalar kernels.

Every pencil of the three formulations is built from six scalar kernels
over the nodal points of the chosen degree: the mass, the gradient
pairings Kxx, Kxy and Kyy (Kyx is Kxy') and the value-gradient pairings Gx
and Gy, each n_scalar x n_scalar in compressed sparse row format.  They
feed one pencil table, ``system.assemble_form``, whose fields are laid out
as the dofmap lays them: contiguous per field, in the formulation's order.

All fields share one Lagrange basis on straight triangles, so each kernel
is a block of one reference integral R = int psi psi' of psi = (phi, d_x
phi, d_y phi): an element's block is det J G R G', G = diag(1, J^-T), and
no quadrature runs per element (Kirby and Logg (2006), ACM TOMS 32(3)).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshgen import Mesh, boundary_axes


class AssemblyError(Exception):
    """Raised on an unknown formulation or polynomial degree."""


@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric rule on the reference triangle (0,0)-(1,0)-(0,1).

    points are cartesian reference coordinates, weights sum to the
    reference-triangle area 1/2.
    """

    points: np.ndarray
    weights: np.ndarray


def make_quadrature() -> QuadratureRule:
    """Degree-5-exact 7-point rule."""
    s15 = np.sqrt(15.0)
    a1 = (6.0 + s15) / 21.0
    a2 = (6.0 - s15) / 21.0
    w0 = 9.0 / 40.0
    w1 = (155.0 + s15) / 1200.0
    w2 = (155.0 - s15) / 1200.0
    bary = [(1 / 3, 1 / 3, 1 / 3)]
    weights = [w0]
    for a, w in ((a1, w1), (a2, w2)):
        b = 1.0 - 2.0 * a
        bary += [(b, a, a), (a, b, a), (a, a, b)]
        weights += [w, w, w]
    bary = np.asarray(bary)
    weights = 0.5 * np.asarray(weights)
    points = bary[:, 1:]
    return QuadratureRule(points=points, weights=weights)


def reference_basis(degree: int, pts: np.ndarray) -> np.ndarray:
    """The P1/P2 Lagrange basis at reference points, (npts, 3, nloc): row 0
    holds the values, rows 1 and 2 the x- and y-derivatives."""
    x, y = pts[:, 0], pts[:, 1]
    l0, one, zero = 1.0 - x - y, np.ones_like(x), np.zeros_like(x)
    if degree == 1:
        table = [[l0, x, y], [-one, one, zero], [-one, zero, one]]
    elif degree == 2:
        table = [
            [l0 * (2 * l0 - 1), x * (2 * x - 1), y * (2 * y - 1),
             4 * l0 * x, 4 * x * y, 4 * y * l0],
            [1 - 4 * l0, 4 * x - 1, zero, 4 * (l0 - x), 4 * y, -4 * y],
            [1 - 4 * l0, zero, 4 * y - 1, -4 * x, 4 * x, 4 * (l0 - y)],
        ]
    else:
        raise AssemblyError(f"unsupported polynomial degree {degree}")
    return np.moveaxis(np.array(table), -1, 0)


DEGREES = (1, 2)

FORMULATION_FIELDS = {
    "sg": ("u1", "u2"),
    "ag": ("u1", "u2", "p"),
    "osgs": ("u1", "u2", "p", "xi1", "xi2", "eta"),
}


@dataclass(frozen=True)
class DofMap:
    """Field layout over the scalar nodal points of the chosen degree.

    Every field spans the same n_scalar nodal points (mesh vertices, plus
    one node per mesh edge for P2, crack edges per face copy); dof indices
    are contiguous per field in declaration order.  on_h and on_v mark the
    nodal points on horizontal (crack faces included) and vertical
    boundary lines, by ``meshgen.boundary_axes`` of their coordinates for
    both degrees.  P1 shares the mesh's points and triangles.  The singular
    node is the mesh's: P2 keeps the vertex numbering.
    """

    mesh: Mesh
    degree: int
    fields: tuple
    n_scalar: int
    element_nodes: np.ndarray
    coords: np.ndarray
    on_h: np.ndarray
    on_v: np.ndarray

    @property
    def ndof(self) -> int:
        return len(self.fields) * self.n_scalar

    def offset(self, field: str) -> int:
        return self.fields.index(field) * self.n_scalar

    def dof(self, field: str, node: int) -> int:
        return self.offset(field) + node

    def field_slice(self, field: str) -> slice:
        off = self.offset(field)
        return slice(off, off + self.n_scalar)


def build_dofmap(mesh: Mesh, degree: int, formulation: str) -> DofMap:
    """Nodal points, element connectivity and boundary masks of the
    formulation's fields; P2 puts census edge e's node V + e at its
    midpoint, as the Powell-Sabin split does."""
    if formulation not in FORMULATION_FIELDS:
        raise AssemblyError(f"unknown formulation tag {formulation!r}")
    if degree not in DEGREES:
        raise AssemblyError(f"unsupported polynomial degree {degree}")
    coords, element_nodes = mesh.points, mesh.triangles
    if degree == 2:
        lo, hi = mesh.edges[:, 0], mesh.edges[:, 1]
        coords = np.vstack([coords, 0.5 * (mesh.points[lo] + mesh.points[hi])])
        element_nodes = np.hstack([element_nodes,
                                   mesh.n_points + mesh.edge_ids])
    on_h, on_v = boundary_axes(coords, mesh.domain)
    return DofMap(mesh=mesh, degree=degree,
                  fields=FORMULATION_FIELDS[formulation],
                  n_scalar=len(coords), element_nodes=element_nodes,
                  coords=coords, on_h=on_h, on_v=on_v)


def _element_geometry(mesh: Mesh):
    """det J = 2 area, (nt,), and G = diag(1, J^-T), (nt, 3, 3)."""
    p = mesh.points[mesh.triangles]
    (j11, j21), (j12, j22) = (p[:, 1] - p[:, 0]).T, (p[:, 2] - p[:, 0]).T
    det = j11 * j22 - j12 * j21
    geo = np.zeros((len(det), 3, 3))
    geo[:, 0, 0] = 1.0
    geo[:, 1, 1], geo[:, 1, 2] = j22 / det, -j21 / det
    geo[:, 2, 1], geo[:, 2, 2] = -j12 / det, j11 / det
    return det, geo


# kernel name -> (row, column) of the basis rows (value, d/dx, d/dy)
KERNEL_ROWS = {"mass": (0, 0), "kxx": (1, 1), "kxy": (1, 2), "kyy": (2, 2),
               "gx": (0, 1), "gy": (0, 2)}


def scalar_kernels(dofmap: DofMap) -> dict:
    """The six nodal kernels on the dofmap's mesh and degree: mass, Kxx,
    Kxy, Kyy, Gx, Gy (all n_scalar x n_scalar CSR).

    Kab integrates d_a(phi_i) d_b(phi_j); Ga integrates phi_i d_a(phi_j).
    They depend on the nodal points only, not on the dofmap's fields.
    """
    rule = make_quadrature()
    psi = reference_basis(dofmap.degree, rule.points)   # (nq, 3, nloc)
    nloc = psi.shape[2]
    # R[c, d] = integral of psi_c psi_d' over the reference triangle
    ref = np.einsum("q,qca,qdb->cdab", rule.weights, psi, psi).reshape(9, -1)
    det, geo = _element_geometry(dofmap.mesh)

    # one CSR pattern for all six: slot[k] is where element entry k lands
    nodes = dofmap.element_nodes
    n = dofmap.n_scalar
    rows = np.repeat(nodes, nloc, axis=1).ravel()
    cols = np.tile(nodes, (1, nloc)).ravel()
    entries, slot = np.unique(rows * n + cols, return_inverse=True)
    indices = entries % n
    indptr = np.searchsorted(entries, np.arange(n + 1) * n)
    out = {}
    for name, (r, s) in KERNEL_ROWS.items():
        # element block det * sum_cd G[r, c] G[s, d] R[c, d]
        coef = det[:, None, None] * geo[:, r, :, None] * geo[:, s, None, :]
        data = np.bincount(slot, weights=(coef.reshape(-1, 9) @ ref).ravel())
        out[name] = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    return out
