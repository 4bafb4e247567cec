"""Labelled rooted trees on [n] and their inversion statistics.

Trees are parent vectors rooted at 0 (parent[0] is the self-sentinel and
is omitted by serializers).  Enumeration is exhaustive: every index in
[0, (n+1)^(n-1)) is unranked to a Pruefer sequence and decoded in linear
time, so any index range can be listed on its own.  The full stream
decodes the n + 1 codes that differ only in their first digit together,
with two runs of the one decode loop.  The bulk consumers (the two
enumerators and the CLI listing) read the raw parent tuples;
enumerate_trees validates every tree it yields.  is_forest is the one
forest test: LabelledTree and the arch diagram validity test both use it.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import product as _cartesian
from typing import Iterator

from .permutations import _int_token
from .polynomials import BivariatePoly


@dataclass(frozen=True, slots=True)
class LabelledTree:
    """Rooted tree on vertices 0..n via its parent vector; parent[0] = 0."""

    parent: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parent", tuple(self.parent))
        problem = _tree_problem(self.parent)
        if problem:
            raise ValueError(problem)

    @property
    def n(self) -> int:
        return len(self.parent) - 1

    def children(self) -> tuple[tuple[int, ...], ...]:
        """Children lists indexed by vertex, each in increasing order."""
        out: list[list[int]] = [[] for _ in self.parent]
        for v in range(1, len(self.parent)):
            out[self.parent[v]].append(v)
        return tuple(tuple(c) for c in out)

    def descendants(self) -> tuple[frozenset[int], ...]:
        """Descendant sets indexed by vertex: each vertex joins the set of
        every vertex on its root chain, one step per ancestor, so time and
        memory are O(n + depth), about n^2/2 labels on the path."""
        out: list[list[int]] = [[] for _ in self.parent]
        for v in range(1, len(self.parent)):
            u = v
            while u:
                u = self.parent[u]
                out[u].append(v)
        return tuple(map(frozenset, out))

    def __str__(self) -> str:
        return format_tree(self)


def _tree_problem(parent: tuple[int, ...]) -> str | None:
    """Why the parent tuple is not a tree rooted at 0, or None if it is:
    the LabelledTree constructor's test, for raw tuples too."""
    m = len(parent)
    if m == 0 or parent[0] != 0:
        return "parent vector must start with the root sentinel 0"
    for v in range(1, m):
        if not 0 <= parent[v] < m:
            return f"parent[{v}] = {parent[v]} out of range"
    # m - 1 edges v -> parent[v] with no cycle span [0, m-1]: a tree on 0
    if not is_forest(((v, parent[v]) for v in range(1, m)), m):
        return f"parent map is not a tree rooted at 0: {parent}"
    return None


def is_forest(edges, size: int) -> bool:
    """Union-find over the vertices 0..size-1: whether no edge closes a cycle."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


# ------------------------------------------------------------ enumeration


def tree_count(n: int) -> int:
    """(n+1)^(n-1), the size of the family."""
    return 1 if n == 0 else (n + 1) ** (n - 1)


def _decode(seq, degree: list[int], parent: list[int], ptr: int, leaf: int) -> list[int]:
    """The linear Pruefer decode loop over [0, m-1] from the state (ptr,
    leaf), where degree[v] is 1 + the count of v in seq: each x in seq
    takes the current leaf as its child, and the last leaf hangs under the
    root m - 1."""
    for x in seq:
        parent[leaf] = x
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    parent[leaf] = len(parent) - 1
    return parent


def _reroot(parent: list[int]) -> list[int]:
    """Root the tree at 0 by reversing the path from 0 to the root m - 1."""
    root = len(parent) - 1
    v = prev = 0
    while v != root:
        parent[v], prev, v = prev, v, parent[v]
    parent[root] = prev
    return parent


def _pruefer_to_parent(seq: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Decode a Pruefer sequence over [0, m-1] into a parent vector on 0."""
    degree = [1] * m
    for x in seq:
        degree[x] += 1
    leaf = degree.index(1)
    return tuple(_reroot(_decode(seq, degree, [0] * m, leaf, leaf)))


def unrank_tree(n: int, index: int) -> LabelledTree:
    """The index-th tree on [n] under base-(n+1) Pruefer unranking."""
    total = tree_count(n)
    if not 0 <= index < total:
        raise ValueError(f"index {index} outside [0, {total})")
    digits = []
    x = index
    for _ in range(n - 1):
        x, d = divmod(x, n + 1)
        digits.append(d)
    return LabelledTree(_pruefer_to_parent(tuple(digits), n + 1))


def _parent_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """Decoded parent tuples of every tree on [n], in unrank_tree order:
    the Pruefer digits run as an odometer, least significant first.

    The n + 1 codes of a block share every digit but the first, s0.  With
    u1 < u2 the two smallest vertices missing from the rest, every s0 != u1
    leaves the same decode state after step 0 (ptr = leaf = u2), so one
    decode serves them all, differing only in parent[u1] = s0; s0 = u1
    decodes from parent[u2] = u1, leaf = u1.  If u1 != 0 the leaf u1 is off
    the path from 0 to the root, so one reroot serves the block too.
    """
    m = n + 1
    if n < 2:
        yield _pruefer_to_parent((), m)
        return
    for digits in _cartesian(range(m), repeat=n - 2):
        rest = digits[::-1]
        degree = [1] * m
        for x in rest:
            degree[x] += 1
        u1 = degree.index(1)
        u2 = degree.index(1, u1 + 1)
        hung = [0] * m
        hung[u2] = u1
        first = tuple(_reroot(_decode(rest, degree[:], hung, u2, u1)))
        shared = _decode(rest, degree, [0] * m, u2, u2)
        if u1:
            _reroot(shared)
        for s0 in range(m):
            if s0 == u1:
                yield first
            elif u1:
                shared[u1] = s0
                yield tuple(shared)
            else:
                shared[0] = s0
                yield tuple(_reroot(shared[:]))


def enumerate_trees(n: int) -> Iterator[LabelledTree]:
    """unrank_tree(n, 0), unrank_tree(n, 1), ...: every tree on [n] once.

    Ranges can be consumed in parallel via unrank_tree.
    """
    yield from map(LabelledTree, _parent_tuples(n))


# -------------------------------------------------------------- statistics


def tree_stats(tree: LabelledTree) -> tuple[int, int, int]:
    """(inv, coinv, depth) in one pass over ancestor chains.

    A pair (i, j) with j a descendant of i counts as an inversion when
    i > j and a coinversion when i < j; depth is the total number of such
    pairs, i.e. the sum of all root distances.  One step per ancestor:
    O(n + depth), quadratic only on deep trees such as the path.  This is
    the one kernel for these statistics: the parking functions' pinv,
    copinv and bounce are inv, coinv and depth of theta's tree.
    """
    return _tree_stats(tree.parent)


def _tree_stats(parent: tuple[int, ...]) -> tuple[int, int, int]:
    inv = depth = 0
    for v in range(1, len(parent)):
        u = parent[v]
        while u:
            if u > v:
                inv += 1
            depth += 1
            u = parent[u]
    depth += len(parent) - 1  # every vertex's step to the root
    return inv, depth - inv, depth


def inv(tree: LabelledTree) -> int:
    return tree_stats(tree)[0]


def coinv(tree: LabelledTree) -> int:
    return tree_stats(tree)[1]


def depth(tree: LabelledTree) -> int:
    return tree_stats(tree)[2]


@functools.cache
def inversion_enumerator(n: int) -> BivariatePoly:
    """I_n(q,t) = sum over trees of q^inv t^coinv, by brute force."""
    return BivariatePoly(Counter(_tree_stats(p)[:2] for p in _parent_tuples(n)))


@functools.cache
def depth_enumerator(n: int) -> BivariatePoly:
    """D_n(q) = sum over trees of q^depth = I_n(q, q), as depth = inv + coinv."""
    return inversion_enumerator(n).diagonal()


# -------------------------------------------------------------- text forms


def format_tree(tree: LabelledTree) -> str:
    """Parent-vector CSV like "0:-,1:0,2:1"."""
    return ",".join(["0:-", *(f"{v}:{p}" for v, p in enumerate(tree.parent[1:], start=1))])


def _tree_lines(n: int) -> Iterator[str]:
    """format_tree of every tree on [n] in stream order, each filled into
    one template "0:-,1:%d,...,n:%d"."""
    template = ",".join(["0:-", *(f"{v}:%d" for v in range(1, n + 1))])
    return (template % parent[1:] for parent in _parent_tuples(n))


def parse_tree(text: str) -> LabelledTree:
    entries: dict[int, int] = {}
    for cell in text.strip().split(","):
        cell = cell.strip()
        if not cell:
            continue
        vertex_text, _, parent_text = cell.partition(":")
        v = _int_token(vertex_text.strip())
        if v in entries:
            raise ValueError(f"vertex {v} is listed twice")
        if v == 0 and parent_text.strip() not in ("-", "0", ""):
            raise ValueError("vertex 0 is the root; its parent must be '-'")
        entries[v] = 0 if v == 0 else _int_token(parent_text.strip())
    entries.setdefault(0, 0)
    m = len(entries)
    if sorted(entries) != list(range(m)):
        raise ValueError(f"vertices must be exactly 1..{m - 1}: {sorted(entries.keys() - {0})}")
    return LabelledTree(tuple(entries[v] for v in range(m)))


def tree_to_json(tree: LabelledTree) -> dict:
    return _parent_json(tree.parent)


def _parent_json(parent: tuple[int, ...]) -> dict:
    return {"n": len(parent) - 1, "parent": list(parent[1:])}
