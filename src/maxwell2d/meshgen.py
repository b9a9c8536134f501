"""Structured triangulations of the three benchmark cavities.

Generators for the square ]0,pi[^2, the flipped L-shape ]-1,1[^2 minus
[0,1]x[-1,0], and the cracked square ]-1,1[^2 minus the slit {0 <= x < 1,
y = 0}.  Supported families: uniform right-diagonal meshes, criss-cross
meshes (optionally graded toward the crack), and Powell-Sabin 6-splits of
any conforming base mesh.

The cracked domain is meshed by duplicating every grid node strictly
between the crack tip (0, 0) and the mouth (1, 0); the tip stays a single
node shared by both faces.  Edge bookkeeping is side-aware so that the two
geometrically coincident crack faces are kept distinct everywhere.

All edge topology comes from one array table, ``edge_table``: the
Powell-Sabin split numbers its midpoints from it, ``classify_boundary``
finds the boundary edges in it, and the P2 dofmap places its edge nodes
with it.  None of them loops over triangles, edges or nodes in Python.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum, IntEnum

import numpy as np

GEOM_TOL = 1e-10


class MeshError(Exception):
    """Raised when a generator produces or receives an invalid mesh."""


class DomainKind(Enum):
    SQUARE_PI = "square"
    L_SHAPE = "lshape"
    CRACKED_SQUARE = "crack"


@dataclass(frozen=True)
class DomainSpec:
    """One of the three benchmark domains; geometry is fixed per kind."""

    kind: DomainKind

    @property
    def area(self) -> float:
        return {
            DomainKind.SQUARE_PI: np.pi ** 2,
            DomainKind.L_SHAPE: 3.0,
            DomainKind.CRACKED_SQUARE: 4.0,
        }[self.kind]

    @property
    def has_crack(self) -> bool:
        return self.kind is DomainKind.CRACKED_SQUARE

    @property
    def has_reentrant_corner(self) -> bool:
        return self.kind is DomainKind.L_SHAPE


SQUARE_PI = DomainSpec(DomainKind.SQUARE_PI)
L_SHAPE = DomainSpec(DomainKind.L_SHAPE)
CRACKED_SQUARE = DomainSpec(DomainKind.CRACKED_SQUARE)


class EdgeTag(IntEnum):
    HORIZONTAL = 0
    VERTICAL = 1
    CRACK_TOP = 2
    CRACK_BOTTOM = 3


class NodeTag(IntEnum):
    INTERIOR = 0
    EDGE_HORIZONTAL = 1
    EDGE_VERTICAL = 2
    CONVEX_CORNER = 3
    REENTRANT_CORNER = 4
    CRACK_TIP = 5
    CRACK_FACE_TOP = 6
    CRACK_FACE_BOTTOM = 7


@dataclass(frozen=True)
class GradingSpec:
    """Power-law clustering of the 1D grid toward the crack and its tip."""

    exponent: float = 2.0

    def __post_init__(self):
        if self.exponent < 1.0:
            raise ValueError(f"grading exponent must be >= 1, got {self.exponent}")


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation with boundary classification.

    Attributes
    ----------
    points : (n, 2) float array
    triangles : (t, 3) int array, counter-clockwise vertex order
    domain : DomainSpec
    boundary_edges : list of ((i, j), EdgeTag)
        One entry per boundary edge instance; the two faces of a crack
        edge are separate entries even when the node pair coincides.
    node_tags : (n,) int array of NodeTag values
    h : float, largest element diameter
    grid_step : float
        Spacing of the generating grid (halved by a Powell-Sabin split);
        used as an alternative stabilization length scale.
    """

    points: np.ndarray
    triangles: np.ndarray
    domain: DomainSpec
    boundary_edges: list
    node_tags: np.ndarray
    h: float
    grid_step: float

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def signed_areas(self) -> np.ndarray:
        p = self.points
        t = self.triangles
        d1 = p[t[:, 1]] - p[t[:, 0]]
        d2 = p[t[:, 2]] - p[t[:, 0]]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def diameters(self) -> np.ndarray:
        p = self.points
        t = self.triangles
        e0 = np.linalg.norm(p[t[:, 1]] - p[t[:, 0]], axis=1)
        e1 = np.linalg.norm(p[t[:, 2]] - p[t[:, 1]], axis=1)
        e2 = np.linalg.norm(p[t[:, 0]] - p[t[:, 2]], axis=1)
        return np.maximum(e0, np.maximum(e1, e2))


def crack_closure_mask(points: np.ndarray, domain: DomainSpec) -> np.ndarray:
    """Nodes lying on the closed crack segment {y=0, 0 <= x <= 1}."""
    if not domain.has_crack:
        return np.zeros(points.shape[0], dtype=bool)
    x, y = points[:, 0], points[:, 1]
    return (np.abs(y) < GEOM_TOL) & (x > -GEOM_TOL) & (x < 1.0 + GEOM_TOL)


def edge_table(points, triangles, domain):
    """Census of element edges keyed by (lo, hi, side).

    side is 0 for ordinary edges; for edges on the crack segment it is +1
    when the owning triangle lies above the slit and -1 below, so the two
    crack faces never share a key even if they share a node pair.  Local
    edges are (0,1), (1,2), (2,0).

    Returns ``(keys, edge_ids, counts)``: the (E, 3) keys in first-seen
    order (triangle by triangle, local edge by local edge), the (T, 3)
    index into ``keys`` of each triangle's edges and the (E,) number of
    triangles owning each edge.  Raises MeshError when an edge has more
    than two owners.
    """
    start = np.asarray(triangles, dtype=np.int64)
    end = np.roll(start, -1, axis=1)
    opposite = np.roll(start, -2, axis=1)
    on_crack = crack_closure_mask(points, domain)
    side = np.where(on_crack[start] & on_crack[end],
                    np.where(points[opposite, 1] > 0.0, 1, -1), 0).ravel()
    lo, hi = np.minimum(start, end).ravel(), np.maximum(start, end).ravel()
    # one integer per key, ordered like the (lo, hi, side) tuples
    code = (lo * points.shape[0] + hi) * 3 + side + 1
    _, first, inverse, counts = np.unique(code, return_index=True,
                                          return_inverse=True,
                                          return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    keys = np.stack([lo, hi, side], axis=1)[first[order]]
    counts = counts[order]
    if np.any(counts > 2):
        k = int(np.argmax(counts > 2))
        raise MeshError(f"edge {tuple(keys[k].tolist())} shared by "
                        f"{counts[k]} triangles")
    return keys, rank[inverse].reshape(start.shape), counts


def _graded_axis(N: int, exponent: float) -> np.ndarray:
    u = np.linspace(-1.0, 1.0, N + 1)
    return np.sign(u) * np.abs(u) ** exponent


def _axis_coords(domain: DomainSpec, N: int, grading: GradingSpec | None):
    kind = domain.kind
    if kind is DomainKind.SQUARE_PI:
        return np.linspace(0.0, np.pi, N + 1)
    if kind is DomainKind.L_SHAPE:
        return np.linspace(-1.0, 1.0, 2 * N + 1)
    # cracked square: the crack line y=0 and the tip x=0 must be grid lines
    if N % 2 != 0:
        raise MeshError("cracked square requires an even division count")
    if grading is not None:
        return _graded_axis(N, grading.exponent)
    return np.linspace(-1.0, 1.0, N + 1)


def _cell_kept(domain: DomainSpec, xc: float, yc: float) -> bool:
    if domain.kind is DomainKind.L_SHAPE:
        return not (xc > 0.0 and yc < 0.0)
    return True


def _split_crack(points, triangles, domain):
    """Duplicate crack-interior nodes and remap the triangles below the slit."""
    if not domain.has_crack:
        return points, triangles
    x, y = points[:, 0], points[:, 1]
    interior = np.where((np.abs(y) < GEOM_TOL) &
                        (x > GEOM_TOL) & (x < 1.0 - GEOM_TOL))[0]
    if interior.size == 0:
        return points, triangles
    bottom = np.arange(points.shape[0])
    bottom[interior] = points.shape[0] + np.arange(interior.size)
    points = np.vstack([points, points[interior]])
    triangles = triangles.copy()
    below = points[triangles, 1].mean(axis=1) < 0.0
    triangles[below] = bottom[triangles[below]]
    return points, triangles


def _grid_triangulation(domain, N, grading, criss_cross):
    xs = _axis_coords(domain, N, grading)
    ys = _axis_coords(domain, N, grading)
    nx = len(xs) - 1
    index: dict = {}
    pts: list = []

    def node(i, j):
        key = (i, j)
        if key not in index:
            index[key] = len(pts)
            pts.append((xs[i], ys[j]))
        return index[key]

    tris = []
    for j in range(nx):
        for i in range(nx):
            xc = 0.5 * (xs[i] + xs[i + 1])
            yc = 0.5 * (ys[j] + ys[j + 1])
            if not _cell_kept(domain, xc, yc):
                continue
            ll, lr = node(i, j), node(i + 1, j)
            ur, ul = node(i + 1, j + 1), node(i, j + 1)
            if criss_cross:
                c = len(pts)
                pts.append((xc, yc))
                tris += [(ll, lr, c), (lr, ur, c), (ur, ul, c), (ul, ll, c)]
            else:
                tris += [(ll, lr, ur), (ll, ur, ul)]
    points = np.asarray(pts, dtype=float)
    triangles = np.asarray(tris, dtype=np.int64)
    points, triangles = _split_crack(points, triangles, domain)
    dx = np.diff(xs)
    dy = np.diff(ys)
    step = max(dx.max(), dy.max())
    return points, triangles, step


def build_uniform(domain: DomainSpec, N: int) -> Mesh:
    """Uniform right-diagonal mesh: every cell split along its ll-ur diagonal.

    N counts divisions per direction for the square domains and divisions
    of a short (unit) edge for the L-shape.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    points, triangles, step = _grid_triangulation(domain, N, None, False)
    return classify_boundary(_provisional(points, triangles, domain, step), domain)


def build_criss_cross(domain: DomainSpec, N: int,
                      grading: GradingSpec | None = None) -> Mesh:
    """Criss-cross mesh: every cell split into 4 by both diagonals.

    With a grading (cracked square only) the 1D grid is redistributed
    through a symmetric power law clustering nodes toward the crack line
    y = 0 and toward the tip abscissa x = 0 before the cells are built.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    if grading is not None and not domain.has_crack:
        raise ValueError("grading is only meaningful for the cracked square")
    points, triangles, step = _grid_triangulation(domain, N, grading, True)
    return classify_boundary(_provisional(points, triangles, domain, step), domain)


def powell_sabin_refine(base: Mesh) -> Mesh:
    """Powell-Sabin 6-split: barycenter plus edge midpoints per triangle.

    Node count grows to V + E + T and the triangle count to 6 T, with
    crack-face edge midpoints duplicated per face copy.  New nodes are
    numbered after the V base nodes: the E midpoints in the first-seen
    edge order of ``edge_table``, then one barycenter per base triangle.
    """
    p, t = base.points, base.triangles
    keys, edge_ids, _ = edge_table(p, t, base.domain)
    mids = 0.5 * (p[keys[:, 0]] + p[keys[:, 1]])
    centers = (p[t[:, 0]] + p[t[:, 1]] + p[t[:, 2]]) / 3.0
    points = np.vstack([p, mids, centers])
    a, b, c = t.T
    mab, mbc, mca = (base.n_points + edge_ids).T
    g = base.n_points + len(keys) + np.arange(len(t))
    triangles = np.stack([a, mab, g, mab, b, g, b, mbc, g,
                          mbc, c, g, c, mca, g, mca, a, g],
                         axis=1).reshape(-1, 3)
    prov = _provisional(points, triangles, base.domain, base.grid_step / 2.0)
    return classify_boundary(prov, base.domain)


def _provisional(points, triangles, domain, step) -> Mesh:
    return Mesh(points=points, triangles=triangles, domain=domain,
                boundary_edges=[], node_tags=np.zeros(len(points), dtype=np.int8),
                h=0.0, grid_step=step)


def _on_domain_boundary(points, domain):
    x, y = points[:, 0], points[:, 1]
    t = GEOM_TOL
    if domain.kind is DomainKind.SQUARE_PI:
        return (np.abs(x) < t) | (np.abs(x - np.pi) < t) | \
               (np.abs(y) < t) | (np.abs(y - np.pi) < t)
    outer = (np.abs(x + 1) < t) | (np.abs(x - 1) < t) | \
            (np.abs(y + 1) < t) | (np.abs(y - 1) < t)
    if domain.kind is DomainKind.L_SHAPE:
        notch = ((np.abs(x) < t) & (y < t)) | ((np.abs(y) < t) & (x > -t))
        return outer | notch
    return outer | crack_closure_mask(points, domain)


def classify_boundary(mesh: Mesh, domain: DomainSpec) -> Mesh:
    """Populate boundary edges, node tags and the mesh size h.

    Boundary edges are the edge instances owned by exactly one triangle;
    their orientation tag follows the axis they lie on, with crack edges
    tagged by face.  Raises MeshError when a node sits on the geometric
    boundary without acquiring a boundary tag (tolerance 1e-10).
    """
    points, triangles = mesh.points, mesh.triangles
    n = points.shape[0]
    if np.any(mesh.signed_areas() <= 0.0):
        raise MeshError("mesh contains a non-CCW or degenerate triangle")

    keys, _, counts = edge_table(points, triangles, domain)
    lo, hi, side = keys[counts == 1].T
    tag = np.select(
        [side > 0, side < 0,
         np.abs(points[lo, 0] - points[hi, 0]) < GEOM_TOL,
         np.abs(points[lo, 1] - points[hi, 1]) < GEOM_TOL],
        [EdgeTag.CRACK_TOP, EdgeTag.CRACK_BOTTOM, EdgeTag.VERTICAL,
         EdgeTag.HORIZONTAL], -1)
    if np.any(tag < 0):
        k = int(np.argmax(tag < 0))
        raise MeshError(f"boundary edge ({lo[k]}, {hi[k]}) is not axis-aligned")
    boundary_edges = list(zip(zip(lo.tolist(), hi.tolist()),
                              map(EdgeTag, tag.tolist())))

    def touched(mask):
        hit = np.zeros(n, dtype=bool)
        hit[lo[mask]] = hit[hi[mask]] = True
        return hit

    on_v = touched(tag == EdgeTag.VERTICAL)
    on_h = touched(tag != EdgeTag.VERTICAL)
    seen_top = touched(tag == EdgeTag.CRACK_TOP)
    seen_bot = touched(tag == EdgeTag.CRACK_BOTTOM)

    x, y = points[:, 0], points[:, 1]
    at_origin = (np.abs(x) < GEOM_TOL) & (np.abs(y) < GEOM_TOL)
    on_face = crack_closure_mask(points, domain) & (seen_top != seen_bot) & ~on_v
    tags = np.select(
        [at_origin & domain.has_reentrant_corner, at_origin & domain.has_crack,
         on_face & seen_top, on_face, on_h & on_v, on_h, on_v],
        [NodeTag.REENTRANT_CORNER, NodeTag.CRACK_TIP, NodeTag.CRACK_FACE_TOP,
         NodeTag.CRACK_FACE_BOTTOM, NodeTag.CONVEX_CORNER,
         NodeTag.EDGE_HORIZONTAL, NodeTag.EDGE_VERTICAL],
        NodeTag.INTERIOR).astype(np.int8)

    geom = _on_domain_boundary(points, domain)
    mismatch = np.where(geom != (tags != NodeTag.INTERIOR))[0]
    if mismatch.size:
        i = int(mismatch[0])
        raise MeshError(f"node {i} at ({points[i, 0]}, {points[i, 1]}) "
                        "fails boundary tagging")

    out = replace(mesh, boundary_edges=boundary_edges, node_tags=tags,
                  h=float(mesh.diameters().max()) if len(triangles) else 0.0)
    return out


def dump_mesh(mesh: Mesh, path) -> None:
    """Write a plain-text node/triangle listing (see README for the format)."""
    with open(path, "w") as f:
        f.write(f"# nodes {mesh.n_points}\n")
        for i, (xx, yy) in enumerate(mesh.points):
            f.write(f"{i} {xx!r} {yy!r} {NodeTag(mesh.node_tags[i]).name}\n")
        f.write(f"# triangles {mesh.n_triangles}\n")
        for k, (a, b, c) in enumerate(mesh.triangles):
            f.write(f"{k} {a} {b} {c}\n")
