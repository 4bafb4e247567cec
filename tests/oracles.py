"""Slow reference implementations that the library's kernels replaced.

Each is the direct, obviously-correct route; tests compare the fast
generators and decoders against them exhaustively at small n.
"""

import functools
import math
from collections import Counter
from itertools import accumulate, chain, combinations, product

from parkfact.arch import ArchDiagram
from parkfact.factorizations import RestrictedEnumerators, _moves, iter_factor_pairs
from parkfact.inverse_maps import sigma_sides
from parkfact.parking import (
    ParkingEnumerators,
    _contacts,
    _label_groups,
    _parking_tuples,
    to_path,
)
from parkfact.polynomials import BivariatePoly, qt_bracket
from parkfact.permutations import FullCycle, Permutation, compose
from parkfact.trees import LabelledTree


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


def _masks(w, groups) -> tuple[list[int], int]:
    """masks[v] holds D[v] with bit x for label x, where groups[i] is the C
    set of the vertex w[i]; plus pinv, the D-elements below their vertex."""
    masks = [0] * len(w)
    below = 0
    for i in range(len(w) - 1, -1, -1):
        mask = 0
        for j in groups[i]:
            mask |= masks[j] | 1 << j
        v = w[i]
        masks[v] = mask
        below += (mask & ((1 << v) - 1)).bit_count()
    return masks, below


def _bounce_kernel(entries: tuple[int, ...]):
    """(contacts, w, groups, masks, bounce, pinv) of a parking tuple, by the
    paper's definition of the D sets: D[v] is C[v] together with the D sets
    of its members, one bitmask per vertex.  bounce is summed over the
    contacts; masks and pinv come from _masks."""
    groups = _label_groups(entries)
    w = [0, *chain.from_iterable(groups)]
    contacts, value = _contacts(list(accumulate(map(len, groups))))
    masks, below = _masks(w, groups)
    return contacts, w, groups, masks, value, below


def park_by_scans(entries):
    """(stalls, jump, cojump) of the parking process with a set of taken
    stalls: each car scans east from a_i for a gap, then west from its
    stall for the nearest gap, which may lie below stall 0."""
    occupied = set()
    stalls = []
    jump = cojump = 0
    for a in entries:
        c = a
        while c in occupied:
            c += 1
        occupied.add(c)
        stalls.append(c)
        jump += c - a
        d = c - 1
        while d in occupied:
            d -= 1
        cojump += a - d
    return tuple(stalls), jump, cojump


def parking_enumerators_by_one_loop(n):
    """All four parking enumerators from one loop running both kernels on
    every parking tuple."""
    counts = Counter()
    top = math.comb(n, 2)
    for entries in _parking_tuples(n):
        *_, b, below = _bounce_kernel(entries)
        _, jump, cojump = park_by_scans(entries)
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


def pinv_histogram_by_dfs(groups, n):
    """hist[k] counts the parking functions of one content with pinv k.

    groups lists (h, start, size) for every nonempty height h: its labels,
    in decreasing order, fill positions start.. of the label word and hang
    under position h.  A depth-first search over ordered set partitions of
    1..n gives group h each combination of the labels left; chain[pos] has
    a bit for every label on the path from position pos up to the root
    (label 0, which has none), so a label x placed under position h adds
    the labels above it that exceed x.  The last nonempty group takes the
    labels left.
    """
    hist = [0] * (math.comb(n, 2) + 1)
    chain = [0] * (n + 1)
    last = len(groups) - 1

    def place(g, labels, pinv):
        h, start, size = groups[g]
        above = chain[h]
        if g == last:
            hist[pinv + sum((above >> (x + 1)).bit_count() for x in labels)] += 1
            return
        for chosen in combinations(labels, size):
            share = pinv
            for pos, x in enumerate(chosen, start):
                chain[pos] = above | 1 << x
                share += (above >> (x + 1)).bit_count()
            place(g + 1, [x for x in labels if x not in chosen], share)

    if groups:
        place(0, list(range(n, 0, -1)), 0)
    else:
        hist[0] = 1  # n = 0: the empty parking function
    return hist


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
    supports of pi.  A graph is a forest exactly when it has as many
    edges as vertices minus components; the components are labelled by a
    depth-first search from each unlabelled vertex in turn."""
    if f.product() != pi:
        return False
    m = f.n + 1
    adjacency = [[] for _ in range(m)]
    for a, b in f.factors:
        adjacency[a].append(b)
        adjacency[b].append(a)
    roots = [None] * m
    for root in range(m):
        stack = [root]
        while stack:
            u = stack.pop()
            if roots[u] is None:
                roots[u] = root
                stack.extend(adjacency[u])
    if len(f.factors) != m - len(set(roots)):
        return False
    cycles = pi.cycles(include_fixed=True)
    return len(set(roots)) == len(cycles) and all(
        len({roots[v] for v in c}) == 1 for c in cycles
    )


def product_by_compose(f):
    """Multiply a factorization out as a chain of validated permutations,
    one per factor, composed left to right."""
    result = Permutation.identity(f.n)
    for pair in f.factors:
        result = compose(result, Permutation.from_cycles([pair], f.n))
    return result


def is_unimodal_by_rise_fall(sigma):
    """Whether the visit word rises strictly to its peak n and then falls
    strictly, read off both sides of the peak."""
    word = sigma.word
    peak = word.index(sigma.n)
    rises = all(word[i] < word[i + 1] for i in range(peak))
    falls = all(word[i] > word[i + 1] for i in range(peak, len(word) - 1))
    return rises and falls


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


def push_by_lattice_walk(p):
    """The pushed heights of p's labels, by sliding each label diagonally
    one lattice point at a time until it reaches a path point that starts
    no step or starts the step of a smaller label."""
    path = to_path(p)
    n = path.n
    on_path = set(path.lattice_points())
    start_label = {(j, h): label for j, (h, label) in enumerate(zip(path.heights, path.labels))}
    rest = [0] * n
    for j, (h, label) in enumerate(zip(path.heights, path.labels)):
        x, y = j, h
        while True:
            x += 1
            y += 1
            assert x <= n, f"label {label} escaped the grid"
            if (x, y) in on_path and start_label.get((x, y), 0) < label:
                break
        rest[label - 1] = y
    return tuple(rest)


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


def restricted_enumerators_by_stream(n):
    """The five restricted families of F_n, each summed leaf by leaf over
    the factor stream of the canonical cycle."""
    binom = math.comb(n, 2)
    simple, increasing, decreasing, perm = Counter(), Counter(), Counter(), Counter()
    by_diff = {}
    for pairs in iter_factor_pairs(FullCycle.canonical(n)):
        lows = [a for a, _ in pairs]
        key = binom - sum(lows), sum(b for _, b in pairs) - binom
        if (0, n) in pairs:
            simple[key] += 1
        if all(lows[i] <= lows[i + 1] for i in range(len(lows) - 1)):
            increasing[key] += 1
        if all(lows[i] >= lows[i + 1] for i in range(len(lows) - 1)):
            decreasing[key] += 1
        if sorted(lows) == list(range(n)):
            perm[key] += 1
        by_diff.setdefault(sum(key), Counter())[key] += 1
    return RestrictedEnumerators(
        BivariatePoly(simple),
        BivariatePoly(increasing),
        BivariatePoly(decreasing),
        BivariatePoly(by_diff[max(by_diff)]),
        BivariatePoly(perm),
    )


def _walk(sigma, step=lambda extra, a, b: extra, start=0):
    """q^(lower area) t^(upper area) summed over the members of F_sigma
    whose factors all pass `step`, by a memoized walk over the whole
    remaining permutation rho, starting at sigma.

    S(identity, extra) = {(0, 0): 1}, and S(rho, extra) sums, over the
    moves a < b of rho with extra' = step(extra, a, b) not None, the terms
    of S(rho with rho[a], rho[b] swapped, extra') moved to (A + a, B + b).
    Every rho met is a noncrossing partition relative to sigma, so the
    walk visits Catalan(n+1) states per extra.
    """
    n = sigma.n
    moves = _moves(n + 1)

    @functools.cache
    def sums(rho, extra):
        here = moves(rho)
        if not here:  # rho is the identity
            return {(0, 0): 1}
        out = {}
        for a, b in here:
            after = step(extra, a, b)
            if after is None:
                continue
            child = list(rho)
            child[a], child[b] = child[b], child[a]
            for (low, high), c in sums(tuple(child), after).items():
                key = low + a, high + b
                out[key] = out.get(key, 0) + c
        return out

    binom = math.comb(n, 2)
    root = sums(sigma.to_permutation().images, start)
    return BivariatePoly({(binom - low, high - binom): c for (low, high), c in root.items()})


def factorization_enumerator_by_walk(sigma):
    """F_sigma(q,t) from the memoized walk over the remaining permutation."""
    return _walk(sigma)


def restricted_enumerators_by_walk(n):
    """The five restricted families of F_n, each a filtered walk whose
    extra state is the last lower letter or the set of lower letters used."""
    sigma = FullCycle.canonical(n)
    f_n = _walk(sigma)
    top = f_n.degree
    return RestrictedEnumerators(
        simple=f_n - _walk(sigma, lambda _, a, b: None if (a, b) == (0, n) else 0),
        increasing=_walk(sigma, lambda last, a, b: a if a >= last else None),
        decreasing=_walk(sigma, lambda last, a, b: a if a <= last else None, n),
        max_diff=BivariatePoly({k: c for k, c in f_n.terms() if sum(k) == top}),
        perm_lower=_walk(sigma, lambda used, a, b: None if used >> a & 1 else used | 1 << a),
    )
