"""Reference elements, quadrature, dof management and the scalar kernels.

Every pencil of the three formulations is built from six scalar kernels
over the nodal points of the chosen degree: the mass, the gradient
pairings Kxx, Kxy and Kyy (Kyx is Kxy') and the value-gradient pairings Gx
and Gy, each n_scalar x n_scalar in compressed sparse row format.  They
feed one pencil table, ``system.assemble_form``, whose fields are laid out
as the dofmap lays them: contiguous per field, in the formulation's order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshgen import EdgeTag, Mesh


class AssemblyError(Exception):
    """Raised on invalid element/field combinations or singular mass solves."""


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


def shape_functions(degree: int, pts: np.ndarray) -> np.ndarray:
    """Values of the P1/P2 Lagrange basis at reference points, (npts, nloc)."""
    x, y = pts[:, 0], pts[:, 1]
    l0, l1, l2 = 1.0 - x - y, x, y
    if degree == 1:
        return np.stack([l0, l1, l2], axis=1)
    if degree == 2:
        return np.stack([
            l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
            4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0,
        ], axis=1)
    raise AssemblyError(f"unsupported polynomial degree {degree}")


def shape_gradients(degree: int, pts: np.ndarray) -> np.ndarray:
    """Reference gradients of the P1/P2 basis, (npts, nloc, 2)."""
    x, y = pts[:, 0], pts[:, 1]
    one = np.ones_like(x)
    zero = np.zeros_like(x)
    if degree == 1:
        g = np.empty((len(x), 3, 2))
        g[:, 0, 0], g[:, 0, 1] = -one, -one
        g[:, 1, 0], g[:, 1, 1] = one, zero
        g[:, 2, 0], g[:, 2, 1] = zero, one
        return g
    if degree == 2:
        l0 = 1.0 - x - y
        g = np.empty((len(x), 6, 2))
        g[:, 0, 0] = g[:, 0, 1] = 1.0 - 4.0 * l0
        g[:, 1, 0], g[:, 1, 1] = 4.0 * x - 1.0, zero
        g[:, 2, 0], g[:, 2, 1] = zero, 4.0 * y - 1.0
        g[:, 3, 0], g[:, 3, 1] = 4.0 * (l0 - x), -4.0 * x
        g[:, 4, 0], g[:, 4, 1] = 4.0 * y, 4.0 * x
        g[:, 5, 0], g[:, 5, 1] = -4.0 * y, 4.0 * (l0 - y)
        return g
    raise AssemblyError(f"unsupported polynomial degree {degree}")


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
    boundary edges, as the mesh tagged them; P2 edge nodes follow their
    edge.  The singular node is the mesh's: P2 keeps the vertex numbering.
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
    formulation's fields; P2 edge nodes come from the mesh's edges."""
    if formulation not in FORMULATION_FIELDS:
        raise AssemblyError(f"unknown formulation tag {formulation!r}")
    if degree not in DEGREES:
        raise AssemblyError(f"unsupported polynomial degree {degree}")
    fields = FORMULATION_FIELDS[formulation]
    nv = mesh.n_points

    if degree == 1:
        return DofMap(mesh=mesh, degree=1, fields=fields, n_scalar=nv,
                      element_nodes=mesh.triangles.copy(),
                      coords=mesh.points.copy(), on_h=mesh.on_h,
                      on_v=mesh.on_v)

    keys = mesh.edges
    # edge nodes follow the sorted (lo, hi, side) keys
    order = np.lexsort(keys.T[::-1])
    node_of = np.empty_like(order)
    node_of[order] = nv + np.arange(order.size)
    ne = len(keys)
    n_scalar = nv + ne

    lo, hi = keys[order, 0], keys[order, 1]
    coords = np.vstack([mesh.points, 0.5 * (mesh.points[lo] + mesh.points[hi])])
    on_h = np.concatenate([mesh.on_h, np.zeros(ne, dtype=bool)])
    on_v = np.concatenate([mesh.on_v, np.zeros(ne, dtype=bool)])
    on_h[node_of[mesh.edge_tags == EdgeTag.HORIZONTAL]] = True
    on_v[node_of[mesh.edge_tags == EdgeTag.VERTICAL]] = True

    element_nodes = np.hstack([mesh.triangles, node_of[mesh.edge_ids]])
    return DofMap(mesh=mesh, degree=2, fields=fields, n_scalar=n_scalar,
                  element_nodes=element_nodes, coords=coords, on_h=on_h,
                  on_v=on_v)


def _element_geometry(mesh: Mesh):
    p = mesh.points
    t = mesh.triangles
    j11 = p[t[:, 1], 0] - p[t[:, 0], 0]
    j21 = p[t[:, 1], 1] - p[t[:, 0], 1]
    j12 = p[t[:, 2], 0] - p[t[:, 0], 0]
    j22 = p[t[:, 2], 1] - p[t[:, 0], 1]
    det = j11 * j22 - j12 * j21
    inv_t = np.empty((len(t), 2, 2))
    inv_t[:, 0, 0] = j22 / det
    inv_t[:, 0, 1] = -j21 / det
    inv_t[:, 1, 0] = -j12 / det
    inv_t[:, 1, 1] = j11 / det
    return det, inv_t  # det = 2*area, inv_t = J^{-T}


def scalar_kernels(dofmap: DofMap) -> dict:
    """The six nodal kernels on the dofmap's mesh and degree: mass, Kxx,
    Kxy, Kyy, Gx, Gy (all n_scalar x n_scalar CSR).

    Kab integrates d_a(phi_i) d_b(phi_j); Ga integrates phi_i d_a(phi_j).
    They depend on the nodal points only, not on the dofmap's fields.
    """
    rule = make_quadrature()
    shp = shape_functions(dofmap.degree, rule.points)          # (nq, nloc)
    ref_grads = shape_gradients(dofmap.degree, rule.points)    # (nq, nloc, 2)
    det, inv_t = _element_geometry(dofmap.mesh)
    # the mass only scales with the element: det times the reference mass
    mass_el = det[:, None, None] * np.einsum("q,qa,qb->ab", rule.weights,
                                             shp, shp)
    nt, nloc = len(det), shp.shape[1]
    kxx_el, kxy_el, kyy_el, gx_el, gy_el = np.zeros((5, nt, nloc, nloc))
    # one quadrature point at a time: physical gradients g[t, d, a]
    for q in range(len(rule.weights)):
        g = inv_t @ ref_grads[q].T
        wdet = rule.weights[q] * det[:, None]   # weights sum to 1/2
        wgx, wgy = wdet * g[:, 0], wdet * g[:, 1]
        kxx_el += wgx[:, :, None] * g[:, None, 0]
        kxy_el += wgx[:, :, None] * g[:, None, 1]
        kyy_el += wgy[:, :, None] * g[:, None, 1]
        wshp = wdet * shp[q]
        gx_el += wshp[:, :, None] * g[:, None, 0]
        gy_el += wshp[:, :, None] * g[:, None, 1]

    # one CSR pattern for all six: slot[k] is where element entry k lands
    nodes = dofmap.element_nodes
    n = dofmap.n_scalar
    rows = np.repeat(nodes, nloc, axis=1).ravel()
    cols = np.tile(nodes, (1, nloc)).ravel()
    entries, slot = np.unique(rows * n + cols, return_inverse=True)
    indices = entries % n
    indptr = np.searchsorted(entries, np.arange(n + 1) * n)
    out = {}
    for name, el in (("mass", mass_el), ("kxx", kxx_el), ("kxy", kxy_el),
                     ("kyy", kyy_el), ("gx", gx_el), ("gy", gy_el)):
        data = np.bincount(slot, weights=el.ravel())
        out[name] = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    return out
