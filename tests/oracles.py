"""Slow reference implementations that the library's kernels replaced.

Each is the direct, obviously-correct route; tests compare the fast
generators and decoders against them exhaustively at small n.
"""

import math
from collections import Counter
from itertools import product

from parkfact.arch import ArchDiagram
from parkfact.factorizations import iter_factor_pairs
from parkfact.inverse_maps import sigma_sides
from parkfact.parking import (
    ParkingEnumerators,
    _bounce_kernel,
    _park_kernel,
    _parking_tuples,
)
from parkfact.polynomials import BivariatePoly, qt_bracket
from parkfact.permutations import Permutation, compose
from parkfact.trees import LabelledTree, forest_roots


def reaches_root_by_walk(parent):
    """Whether every vertex's parent chain ends at 0: each walk marks its
    path and stops at a vertex already proven good or on the path."""
    m = len(parent)
    state = [0] * m  # 0 unknown, 1 on current path, 2 proven good
    state[0] = 2
    for start in range(1, m):
        path = []
        v = start
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = parent[v]
        if state[v] == 1:
            return False
        for u in path:
            state[u] = 2
    return True


def trees_by_parent_sweep(n):
    """Sweep all (n+1)^n parent vectors and keep the acyclic ones."""
    for tail in product(range(n + 1), repeat=n):
        parent = (0, *tail)
        if reaches_root_by_walk(parent):
            yield LabelledTree(parent)


def is_parking_by_sort(entries):
    """The definition: nonnegative entries whose i-th smallest is at most i - 1."""
    return all(0 <= a <= i for i, a in enumerate(sorted(entries)))


def is_major_by_sort(entries):
    """The definition: the i-th smallest entry lies in [i, n]."""
    n = len(entries)
    return all(i + 1 <= b <= n for i, b in enumerate(sorted(entries)))


def parking_by_sweep(n):
    """Sweep all n^n words over [0, n) and keep those the sorted definition
    accepts."""
    for entries in product(range(n), repeat=n):
        if is_parking_by_sort(entries):
            yield entries


def parking_enumerators_by_one_loop(n):
    """All four parking enumerators from one loop running both kernels on
    every parking tuple."""
    counts = Counter()
    top = math.comb(n, 2)
    for entries in _parking_tuples(n):
        *_, b, below = _bounce_kernel(entries)
        _, jump, cojump = _park_kernel(entries)
        counts[top - sum(entries), b, below, jump, cojump] += 1
    rows = counts.items()
    return ParkingEnumerators(
        BivariatePoly(((a, 0), c) for (a, *_), c in rows),
        BivariatePoly(((b, 0), c) for (_, b, *_), c in rows),
        BivariatePoly(((jump, cojump), c) for (*_, jump, cojump), c in rows),
        BivariatePoly(((below, b - below), c) for (_, b, below, *_), c in rows),
    )


def bounce_pass_by_tuples(n):
    """The area, bounce and (pinv, copinv) enumerators from one bounce
    kernel call per parking tuple."""
    counts = Counter()
    top = math.comb(n, 2)
    for entries in _parking_tuples(n):
        *_, b, below = _bounce_kernel(entries)
        counts[top - sum(entries), b, below] += 1
    rows = counts.items()
    return (
        BivariatePoly(((a, 0), c) for (a, _, _), c in rows),
        BivariatePoly(((b, 0), c) for (_, b, _), c in rows),
        BivariatePoly(((below, b - below), c) for (_, b, below), c in rows),
    )


def tree_recursion_by_dict(n_max):
    """I_0 .. I_n_max by the convolution recursion in BivariatePoly
    arithmetic: each pair's product binom(n,i) * I_i * I_(n-i) times
    t * (qt_bracket(i+1) + qt_bracket(n-i+1))."""
    t = BivariatePoly.var_t()
    series = [BivariatePoly.one()]
    for n in range(n_max):
        total = BivariatePoly.zero()
        for i in range(n // 2 + 1):
            pair = qt_bracket(i + 1) + (qt_bracket(n - i + 1) if 2 * i < n else 0)
            total = total + series[i] * series[n - i] * (math.comb(n, i) * t * pair)
        series.append(total)
    return series


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


def is_minimal_by_graph(f, pi):
    """Minimality by the graph criterion: f multiplies out to pi, and its
    factor graph is a forest whose components are exactly the cycle
    supports of pi."""
    if f.product() != pi:
        return False
    roots = forest_roots(((t.lo, t.hi) for t in f.factors), f.n + 1)
    if roots is None:
        return False
    cycles = pi.cycles(include_fixed=True)
    return len(set(roots)) == len(cycles) and all(
        len({roots[v] for v in c}) == 1 for c in cycles
    )


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


def is_noncrossing_by_pairs(diagram):
    """No two arcs interleave strictly (l1 < l2 < r1 < r2), tested pair by
    pair; arcs sharing an endpoint do not cross."""
    arcs = diagram.arcs
    for i in range(len(arcs)):
        l1, r1, _ = arcs[i]
        for j in range(i + 1, len(arcs)):
            l2, r2, _ = arcs[j]
            if l1 < l2 < r1 < r2 or l2 < l1 < r2 < r1:
                return False
    return True


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
    if len(seen) != m or not is_noncrossing_by_pairs(diagram):
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


def parts_by_member_scan(diagram):
    """The simple parts of a valid diagram: for each cap, scan every arc for
    those nested under it, shift them to start at 0 and rank their labels."""
    parts = []
    for left, right, _ in caps_by_nested_scan(diagram):
        members = [arc for arc in diagram.arcs if left <= arc[0] and arc[1] <= right]
        index_set = tuple(sorted(label for _, _, label in members))
        rank = {label: i + 1 for i, label in enumerate(index_set)}
        shifted = tuple((a - left, b - left, rank[label]) for a, b, label in members)
        parts.append((ArchDiagram(right - left + 1, shifted), index_set))
    return tuple(parts)


def omega_by_scan(sigma, p):
    """The omega order by one scan of p per entry value, from n - 1 down to
    0: each group read increasingly for sigma-left values, decreasingly for
    sigma-right ones."""
    left_values, _ = sigma_sides(sigma)
    order = []
    for value in range(p.n - 1, -1, -1):
        group = [j for j in range(1, p.n + 1) if p.entries[j - 1] == value]
        if value not in left_values:
            group.reverse()
        order.extend(group)
    return tuple(order)


def factor_pairs_by_recursion(sigma):
    """F_sigma as raw (lo, hi) tuples by a recursive depth-first walk that
    rebuilds and sorts the candidate pairs (two points on one nontrivial
    cycle of the remaining permutation rho) at every node."""
    m = sigma.n + 1
    rho = list(sigma.to_permutation().images)
    chosen = []

    def candidates():
        seen = [False] * m
        pairs = []
        for start in range(m):
            if seen[start] or rho[start] == start:
                seen[start] = True
                continue
            cycle = []
            x = start
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = rho[x]
            cycle.sort()
            for i in range(len(cycle)):
                for j in range(i + 1, len(cycle)):
                    pairs.append((cycle[i], cycle[j]))
        pairs.sort()
        return pairs

    def walk(remaining):
        if remaining == 0:
            yield tuple(chosen)
            return
        for a, b in candidates():
            chosen.append((a, b))
            rho[a], rho[b] = rho[b], rho[a]
            yield from walk(remaining - 1)
            rho[a], rho[b] = rho[b], rho[a]
            chosen.pop()

    yield from walk(sigma.n)


def factorization_enumerator_by_stream(sigma):
    """F_sigma(q,t) summed leaf by leaf over the factor stream."""
    n = sigma.n
    binom = math.comb(n, 2)
    counts = Counter()
    for pairs in iter_factor_pairs(sigma):
        lows, highs = zip(*pairs) if pairs else ((), ())
        counts[binom - sum(lows), sum(highs) - binom] += 1
    return BivariatePoly(counts)
