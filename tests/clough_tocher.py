"""Clough-Tocher split of a mesh, for the SG P2 positive control."""
import numpy as np

from maxwell2d import Mesh, classify_boundary


def clough_tocher_split(mesh: Mesh) -> Mesh:
    """Each triangle split into three at its barycenter, which is appended
    to the points; the split keeps every triangle counter-clockwise."""
    centers = mesh.points[mesh.triangles].mean(axis=1)
    c = len(mesh.points) + np.arange(len(mesh.triangles))
    a, b, d = mesh.triangles.T
    triangles = np.concatenate([np.column_stack(t) for t in
                                ((a, b, c), (b, d, c), (d, a, c))])
    return classify_boundary(np.vstack([mesh.points, centers]), triangles,
                             mesh.domain, mesh.grid_step)
