"""Structured triangulations of the three benchmark cavities.

Generators for the square ]0,pi[^2, the flipped L-shape ]-1,1[^2 minus
[0,1]x[-1,0], and the cracked square ]-1,1[^2 minus the slit {0 <= x < 1,
y = 0}.  Supported families: uniform right-diagonal meshes, criss-cross
meshes (optionally graded toward the crack by the fixed power law of
``GRADING_EXPONENT``), and Powell-Sabin 6-splits of any conforming base
mesh.  A ``DomainKind`` member names each domain and knows its area and
whether it has a crack or a re-entrant corner.

Both grid families come from one body: it reads its axis from
``grid_axis``, the one owner of the grid rules for the builders and
``StudyConfig`` alike, lays the cells, splits the crack and classifies.
The crack is split by duplicating every node of ``crack_closure_mask``
strictly between the tip (0, 0) and the mouth (1, 0); the tip stays one
node shared by both faces.  Edge bookkeeping is side-aware, so the two
geometrically coincident crack faces are kept distinct everywhere.

``classify_boundary`` builds every ``Mesh``.  It takes one edge census per
mesh from ``edge_table``, sorted by key (the ``side`` column of a key tells
the crack faces apart), checks its one-owner edges against
``boundary_axes``, the one rule for the axis of a boundary node (crack
faces are horizontal), and stores the census, those node masks and the
singular node (re-entrant corner or crack tip) on the mesh.  Census edge e
is node V + e both in the Powell-Sabin split, at its midpoint, and in the
P2 dofmap, as its edge node; neither recounts the edges.  The dofmap marks
its nodal points, P1 and P2 alike, by the same ``boundary_axes``.
Each domain has at most one mirror, ``DomainKind.mirror``: y = x on the
square and y = -x on the L-shape, which every mesh family here keeps.
``node_mirror`` reads it on a dofmap's nodal points, P1 and P2 alike.
Nothing here loops over triangles, edges or nodes in Python.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .eig import is_integer

GEOM_TOL = 1e-10
# grid on which node_mirror matches reflected points to nodal points: far
# above round-off and far below any node spacing
MIRROR_SNAP = 1e-7
# exponent of the power law that clusters a cc-graded grid toward the
# crack line and the tip; the benchmark tables use 2
GRADING_EXPONENT = 2.0


class MeshError(Exception):
    """Raised when a generator produces or receives an invalid mesh."""


class DomainKind(Enum):
    """One of the three benchmark domains; geometry is fixed per kind."""

    SQUARE_PI = "square"
    L_SHAPE = "lshape"
    CRACKED_SQUARE = "crack"

    @property
    def area(self) -> float:
        return {DomainKind.SQUARE_PI: np.pi ** 2, DomainKind.L_SHAPE: 3.0,
                DomainKind.CRACKED_SQUARE: 4.0}[self]

    @property
    def has_crack(self) -> bool:
        return self is DomainKind.CRACKED_SQUARE

    @property
    def has_reentrant_corner(self) -> bool:
        return self is DomainKind.L_SHAPE

    @property
    def mirror(self) -> np.ndarray | None:
        """The domain's one reflection x -> R x, as the 2 x 2 matrix R: the
        square's y = x and the L-shape's y = -x.  None on the cracked
        square, whose face copies share coordinates."""
        if self is DomainKind.SQUARE_PI:
            return np.array([[0.0, 1.0], [1.0, 0.0]])
        if self is DomainKind.L_SHAPE:
            return np.array([[0.0, -1.0], [-1.0, 0.0]])
        return None


SQUARE_PI = DomainKind.SQUARE_PI
L_SHAPE = DomainKind.L_SHAPE
CRACKED_SQUARE = DomainKind.CRACKED_SQUARE


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation with its edge census and boundary node
    masks; ``classify_boundary`` builds it.

    Attributes
    ----------
    points : (n, 2) float array
    triangles : (t, 3) int array, counter-clockwise vertex order
    domain : DomainKind
    h : float, largest element diameter
    grid_step : float
        Spacing of the generating grid (halved by a Powell-Sabin split);
        the stabilization length of Powell-Sabin meshes off the crack.
    edges : (E, 3) int array
        ``edge_table`` keys (lo, hi, side), sorted; the two faces of a
        crack edge are separate edges even when the node pair coincides.
    edge_ids : (t, 3) int array
        Row of ``edges`` of each triangle's local edges (0,1), (1,2), (2,0).
    on_h, on_v : (n,) bool arrays
        ``boundary_axes`` of the points: nodes on a horizontal boundary
        line (crack faces included) and on a vertical one; their union is
        the set of nodes on a boundary edge.
    singular_node : int
        The node at the origin, where the field is singular: the
        re-entrant corner of the L-shape or the crack tip.  -1 on the
        square.
    """

    points: np.ndarray
    triangles: np.ndarray
    domain: DomainKind
    h: float
    grid_step: float
    edges: np.ndarray
    edge_ids: np.ndarray
    on_h: np.ndarray
    on_v: np.ndarray
    singular_node: int

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def signed_areas(self) -> np.ndarray:
        return _signed_areas(self.points, self.triangles)


def _signed_areas(p, t) -> np.ndarray:
    d1 = p[t[:, 1]] - p[t[:, 0]]
    d2 = p[t[:, 2]] - p[t[:, 0]]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def crack_closure_mask(points: np.ndarray, domain: DomainKind) -> np.ndarray:
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

    Returns ``(keys, edge_ids, counts)``: the (E, 3) keys sorted by (lo,
    hi, side), the (T, 3) index into ``keys`` of each triangle's edges and
    the (E,) number of triangles owning each edge.  Raises MeshError when
    an edge has more than two owners.
    """
    start = np.asarray(triangles, dtype=np.int64)
    end = np.roll(start, -1, axis=1)
    opposite = np.roll(start, -2, axis=1)
    on_crack = crack_closure_mask(points, domain)
    side = np.where(on_crack[start] & on_crack[end],
                    np.where(points[opposite, 1] > 0.0, 1, -1), 0).ravel()
    lo, hi = np.minimum(start, end).ravel(), np.maximum(start, end).ravel()
    # one integer per key, ordered like the (lo, hi, side) tuples
    _, first, edge_ids, counts = np.unique(
        (lo * points.shape[0] + hi) * 3 + side + 1, return_index=True,
        return_inverse=True, return_counts=True)
    keys = np.stack([lo, hi, side], axis=1)[first]
    if np.any(counts > 2):
        k = int(np.argmax(counts > 2))
        raise MeshError(f"edge {tuple(keys[k].tolist())} shared by "
                        f"{counts[k]} triangles")
    return keys, edge_ids.reshape(start.shape), counts


def _graded_axis(N: int, exponent: float) -> np.ndarray:
    u = np.linspace(-1.0, 1.0, N + 1)
    return np.sign(u) * np.abs(u) ** exponent


def grid_axis(domain: DomainKind, N, graded: bool = False) -> np.ndarray:
    """The 1D grid coordinates of either grid family, and the one owner of
    the grid rules: N is a positive integer (no bool), grading is for the
    cracked square only, and there N is even, so that the crack line y=0
    and the tip abscissa x=0 are grid lines."""
    if not is_integer(N) or N < 1:
        raise ValueError(f"N must be a positive integer, not N={N!r}")
    if graded and not domain.has_crack:
        raise ValueError("grading is only meaningful for the cracked square")
    if domain.has_crack and N % 2:
        raise ValueError(f"the cracked square needs an even division count, "
                         f"not N={N}: its crack line must be a grid line")
    if domain is DomainKind.SQUARE_PI:
        return np.linspace(0.0, np.pi, N + 1)
    if domain is DomainKind.L_SHAPE:
        return np.linspace(-1.0, 1.0, 2 * N + 1)
    if graded:
        return _graded_axis(N, GRADING_EXPONENT)
    return np.linspace(-1.0, 1.0, N + 1)


def _grid_mesh(domain, N, graded, criss_cross) -> Mesh:
    """Either grid family.  Cells run row by row, and so do the nodes: the
    grid nodes, then the centers of the criss-cross cells, then the copies
    of the crack nodes."""
    xs = grid_axis(domain, N, graded)
    n = len(xs)
    j, i = np.divmod(np.arange((n - 1) ** 2), n - 1)
    xc, yc = 0.5 * (xs[i] + xs[i + 1]), 0.5 * (xs[j] + xs[j + 1])
    keep = ~(domain.has_reentrant_corner & (xc > 0.0) & (yc < 0.0))
    ll = (j * n + i)[keep]
    # grid node j*n + i sits at (xs[i], xs[j]); cell center k at n*n + k
    slots = [ll, ll + 1, ll + n + 1, ll + n]
    if criss_cross:
        slots.append(n * n + np.flatnonzero(keep))
    codes = np.stack(slots, axis=1)
    used, node = np.unique(codes, return_inverse=True)
    coords = np.vstack([np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2),
                        np.stack([xc, yc], axis=1)])
    points = coords[used]
    local = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]] if criss_cross \
        else [[0, 1, 2], [0, 2, 3]]
    triangles = node.reshape(codes.shape)[:, local].reshape(-1, 3)
    # copy the crack nodes strictly between the tip and the mouth and move
    # the triangles below the slit onto the copies
    x = points[:, 0]
    copied = np.flatnonzero(crack_closure_mask(points, domain)
                            & (x > GEOM_TOL) & (x < 1.0 - GEOM_TOL))
    bottom = np.arange(len(points))
    bottom[copied] = len(points) + np.arange(copied.size)
    below = points[triangles, 1].mean(axis=1) < 0.0
    triangles = np.where(below[:, None], bottom[triangles], triangles)
    points = np.vstack([points, points[copied]])
    return classify_boundary(points, triangles, domain, np.diff(xs).max())


def build_uniform(domain: DomainKind, N: int) -> Mesh:
    """Uniform right-diagonal mesh: every cell split along its ll-ur diagonal.

    N counts divisions per direction for the square domains and divisions
    of a short (unit) edge for the L-shape.
    """
    return _grid_mesh(domain, N, False, False)


def build_criss_cross(domain: DomainKind, N: int,
                      graded: bool = False) -> Mesh:
    """Criss-cross mesh: every cell split into 4 by both diagonals.

    A graded mesh (cracked square only) redistributes the 1D grid through
    the symmetric power law u -> sign(u) |u|^GRADING_EXPONENT, clustering
    nodes toward the crack line y = 0 and the tip abscissa x = 0 before
    the cells are built.
    """
    return _grid_mesh(domain, N, graded, True)


def powell_sabin_refine(base: Mesh) -> Mesh:
    """Powell-Sabin 6-split: barycenter plus edge midpoints per triangle.

    Node count grows to V + E + T and the triangle count to 6 T, with
    crack-face edge midpoints duplicated per face copy.  New nodes are
    numbered after the V base nodes: census edge e's midpoint is node V + e,
    as a P2 dofmap's edge node is, then one barycenter per base triangle.
    """
    p, t = base.points, base.triangles
    keys = base.edges
    mids = 0.5 * (p[keys[:, 0]] + p[keys[:, 1]])
    centers = (p[t[:, 0]] + p[t[:, 1]] + p[t[:, 2]]) / 3.0
    points = np.vstack([p, mids, centers])
    a, b, c = t.T
    mab, mbc, mca = (base.n_points + base.edge_ids).T
    g = base.n_points + len(keys) + np.arange(len(t))
    triangles = np.stack([a, mab, g, mab, b, g, b, mbc, g,
                          mbc, c, g, c, mca, g, mca, a, g],
                         axis=1).reshape(-1, 3)
    return classify_boundary(points, triangles, base.domain,
                             base.grid_step / 2.0)


def boundary_axes(points, domain: DomainKind):
    """``(on_h, on_v)``: the points on a horizontal boundary line (crack
    included) and on a vertical one, where n x u = 0 fixes u1 and u2
    respectively (tolerance 1e-10)."""
    x, y = points[:, 0], points[:, 1]
    a, b = (0.0, np.pi) if domain is DomainKind.SQUARE_PI else (-1.0, 1.0)
    on_h = (np.abs(y - a) < GEOM_TOL) | (np.abs(y - b) < GEOM_TOL)
    on_v = (np.abs(x - a) < GEOM_TOL) | (np.abs(x - b) < GEOM_TOL)
    if domain is DomainKind.L_SHAPE:
        # the notch: y = 0 right of the corner and x = 0 below it
        on_h |= (np.abs(y) < GEOM_TOL) & (x > -GEOM_TOL)
        on_v |= (np.abs(x) < GEOM_TOL) & (y < GEOM_TOL)
    return on_h | crack_closure_mask(points, domain), on_v


def classify_boundary(points, triangles, domain: DomainKind,
                      grid_step: float) -> Mesh:
    """Build the Mesh: edge census, ``boundary_axes`` node masks, the
    singular node and the mesh size h.

    Boundary edges are the edges owned by exactly one triangle.  Raises
    MeshError on a non-CCW or degenerate triangle, an edge with more than
    two owners, a boundary edge off both axes, or a node on the geometric
    boundary but on no boundary edge, or the reverse (tolerance 1e-10).
    """
    if np.any(_signed_areas(points, triangles) <= 0.0):
        raise MeshError("mesh contains a non-CCW or degenerate triangle")

    edges, edge_ids, counts = edge_table(points, triangles, domain)
    lo, hi = edges[counts == 1, 0], edges[counts == 1, 1]
    dx, dy = np.abs(points[hi] - points[lo]).T
    slanted = (dx >= GEOM_TOL) & (dy >= GEOM_TOL)
    if np.any(slanted):
        k = int(np.argmax(slanted))
        raise MeshError(f"boundary edge ({lo[k]}, {hi[k]}) is not axis-aligned")
    on_edge = np.bincount(np.r_[lo, hi], minlength=len(points)) > 0
    on_h, on_v = boundary_axes(points, domain)
    geom = on_h | on_v
    mismatch = np.flatnonzero(geom != on_edge)
    if mismatch.size:
        i = int(mismatch[0])
        where = "on the geometric boundary but on no boundary edge" \
            if geom[i] else "on a boundary edge but inside the domain"
        raise MeshError(f"node {i} at ({points[i, 0]}, {points[i, 1]}) is "
                        + where)

    at_origin = np.flatnonzero(np.all(np.abs(points) < GEOM_TOL, axis=1))
    singular = domain.has_reentrant_corner or domain.has_crack
    singular_node = int(at_origin[0]) if singular and at_origin.size else -1
    # the largest element diameter is the longest edge
    lengths = np.linalg.norm(points[edges[:, 1]] - points[edges[:, 0]], axis=1)
    h = float(lengths.max()) if len(edges) else 0.0
    return Mesh(points=points, triangles=triangles, domain=domain, h=h,
                grid_step=grid_step, edges=edges, edge_ids=edge_ids,
                on_h=on_h, on_v=on_v, singular_node=singular_node)


def node_mirror(dofmap) -> np.ndarray | None:
    """The domain mirror on a dofmap's nodal points, P1 and P2 alike: node
    i reflects onto node image[i], and image is an involution.  None where
    the domain has no mirror, where a reflected point is no nodal point
    (tolerance 1e-10), or where ``element_nodes`` does not map onto itself
    as a set of triangles."""
    R = dofmap.mesh.domain.mirror
    if R is None:
        return None
    coords = dofmap.coords
    n = len(coords)
    # one integer per snapped point: its x and y grid indices, |.| < 2^31
    key = np.round(np.vstack([coords, coords @ R.T]) / MIRROR_SNAP) \
        .astype(np.int64) @ np.array([1 << 32, 1])
    order = np.argsort(key[:n])
    slot = np.minimum(np.searchsorted(key[:n], key[n:], sorter=order), n - 1)
    image = order[slot]
    if np.any(key[image] != key[n:]) or \
            np.any(image[image] != np.arange(n)) or \
            np.abs(coords[image] - coords @ R.T).max() > GEOM_TOL:
        return None
    if not np.array_equal(_row_set(dofmap.element_nodes),
                          _row_set(image[dofmap.element_nodes])):
        return None
    return image


def _row_set(rows: np.ndarray) -> np.ndarray:
    """The rows as a set: each row sorted, the rows in lexicographic order."""
    rows = np.sort(rows, axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def dump_mesh(mesh: Mesh, path) -> None:
    """Write a plain-text node/triangle listing (see README for the format)."""
    with open(path, "w") as f:
        f.write(f"# nodes {mesh.n_points}\n")
        rows = zip(mesh.points.tolist(), mesh.on_h.tolist(), mesh.on_v.tolist())
        for i, ((xx, yy), h, v) in enumerate(rows):
            f.write(f"{i} {xx!r} {yy!r} {h:d} {v:d}\n")
        f.write(f"# triangles {mesh.n_triangles}\n")
        for k, (a, b, c) in enumerate(mesh.triangles):
            f.write(f"{k} {a} {b} {c}\n")
