"""Slow reference implementations that the library's kernels replaced.

Each is the direct, obviously-correct route; tests compare the fast
generators and decoders against them exhaustively at small n.
"""

from itertools import product

from parkfact.arch import _is_noncrossing
from parkfact.parking import is_parking
from parkfact.permutations import Permutation, compose
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


def product_by_compose(f):
    """Multiply a factorization out as a chain of validated permutations,
    one per factor, composed left to right."""
    result = Permutation.identity(f.n)
    for t in f.factors:
        result = compose(result, t.to_permutation(f.n))
    return result


def window_cycles_by_cycles(pi, sigma):
    """Cycle count of pi when each of its cycles, listed by a cycle walk,
    covers a run of consecutive word positions traversed in word order;
    None otherwise."""
    word = sigma.word
    pos = sigma.positions()
    for cycle in pi.cycles():
        indices = sorted(pos[x] for x in cycle)
        lo, hi = indices[0], indices[-1]
        if hi - lo + 1 != len(indices):
            return None
        if any(pi(word[k]) != word[k + 1] for k in range(lo, hi)):
            return None
        if pi(word[hi]) != word[lo]:
            return None
    return pi.num_cycles()


def rotator_by_scan(diagram, vertex):
    """Rotator of one vertex from two scans over every arc: rightward arcs
    by far endpoint, then leftward arcs by far endpoint."""
    rightward = sorted((r, label) for l, r, label in diagram.arcs if l == vertex)
    leftward = sorted((l, label) for l, r, label in diagram.arcs if r == vertex)
    return tuple(label for _, label in rightward + leftward)


def valid_by_vertex_rotators(diagram):
    """Validity with the tree test done as edge count plus connectivity by
    depth-first search, and one rotator scan per vertex."""
    m = diagram.n_vertices
    if len(diagram.arcs) != m - 1:
        return False
    adjacency = [[] for _ in range(m)]
    for left, right, _ in diagram.arcs:
        adjacency[left].append(right)
        adjacency[right].append(left)
    seen = {0}
    stack = [0]
    while stack:
        for v in adjacency[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != m or not _is_noncrossing(diagram):
        return False
    for v in range(m):
        rot = rotator_by_scan(diagram, v)
        if any(rot[i] >= rot[i + 1] for i in range(len(rot) - 1)):
            return False
    return True


def caps_by_nested_scan(diagram):
    """Arcs that no other arc covers, found by testing every pair, sorted."""
    return tuple(sorted(
        arc for arc in diagram.arcs
        if not any(
            other[2] != arc[2] and other[0] <= arc[0] and arc[1] <= other[1]
            for other in diagram.arcs
        )
    ))
