"""Slow reference implementations that the library's kernels replaced.

Each is the direct, obviously-correct route; tests compare the fast
generators and decoders against them exhaustively at small n.
"""

from itertools import product

from parkfact.parking import is_parking
from parkfact.trees import LabelledTree, _reaches_root


def trees_by_parent_sweep(n):
    """Sweep all (n+1)^n parent vectors and keep the acyclic ones."""
    for tail in product(range(n + 1), repeat=n):
        parent = (0, *tail)
        if _reaches_root(parent):
            yield LabelledTree(parent)


def parking_by_sweep(n):
    """Sweep all n^n words over [0, n) and keep those is_parking accepts,
    which tests each by the sorted definition and the counting criterion."""
    for entries in product(range(n), repeat=n):
        if is_parking(entries):
            yield entries


def pruefer_to_parent_dfs(seq, m):
    """Decode a Pruefer sequence into an edge list, then orient the edges
    away from 0 by a depth-first search over adjacency lists."""
    degree = [1] * m
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(m) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] = 0
        degree[x] -= 1
    last = [v for v in range(m) if degree[v] == 1]
    edges.append((last[0], last[1]) if len(last) == 2 else (0, 0))

    adjacency = [[] for _ in range(m)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    parent = [0] * m
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                parent[v] = u
                stack.append(v)
    return tuple(parent)
