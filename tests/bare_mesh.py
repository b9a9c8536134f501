"""A Mesh built without boundary classification, for element-level tests."""
import numpy as np

from maxwell2d import SQUARE_PI
from maxwell2d.meshgen import Mesh, edge_table


def bare_mesh(points, triangles):
    """Mesh over the given triangles with its edge census and no boundary:
    every edge interior, no boundary node and no singular node, whatever the geometry."""
    points = np.asarray(points, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    edges, edge_ids, _ = edge_table(points, triangles, SQUARE_PI)
    none = np.zeros(len(points), dtype=bool)
    return Mesh(points=points, triangles=triangles, domain=SQUARE_PI,
                h=0.0, grid_step=1.0, edges=edges, edge_ids=edge_ids,
                on_h=none, on_v=none, singular_node=-1)
