"""Vertex-level reference methods that the tests compare the library with."""

import numpy as np


def bfs_distances(field, connection, root: int = 0) -> np.ndarray:
    """BFS distances from a root over arcs u -> u + r, r in connection; -1 if unreached."""
    q = field.q
    conn = np.asarray(connection, dtype=np.int64)
    dist = np.full(q, -1, dtype=np.int64)
    dist[root] = 0
    frontier = np.array([root], dtype=np.int64)
    d = 0
    while frontier.size:
        nbrs = np.unique(field.add_outer(frontier, conn).ravel())
        nbrs = nbrs[dist[nbrs] < 0]
        d += 1
        dist[nbrs] = d
        frontier = nbrs
    return dist
