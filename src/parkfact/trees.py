"""Labelled rooted trees on [n] and their inversion statistics.

Trees are parent vectors rooted at 0 (parent[0] is the self-sentinel and
is omitted by serializers).  Enumeration is exhaustive: every index in
[0, (n+1)^(n-1)) is unranked to a Pruefer sequence and decoded in linear
time, so any index range can be listed on its own.  The bulk consumers
(the two enumerators and the CLI listing) read the raw parent tuples;
enumerate_trees validates every tree it yields.  forest_roots is the one
forest test: LabelledTree and the arch diagram validity test both use it.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import product as _cartesian
from typing import Iterator

from .polynomials import BivariatePoly


@dataclass(frozen=True, slots=True)
class LabelledTree:
    """Rooted tree on vertices 0..n via its parent vector; parent[0] = 0."""

    parent: tuple[int, ...]

    def __post_init__(self):
        m = len(self.parent)
        if m == 0 or self.parent[0] != 0:
            raise ValueError("parent vector must start with the root sentinel 0")
        for v in range(1, m):
            if not 0 <= self.parent[v] < m:
                raise ValueError(f"parent[{v}] = {self.parent[v]} out of range")
        # m - 1 edges v -> parent[v] with no cycle span [0, m-1]: a tree on 0
        if forest_roots(((v, self.parent[v]) for v in range(1, m)), m) is None:
            raise ValueError(f"parent map is not a tree rooted at 0: {self.parent}")

    @property
    def n(self) -> int:
        return len(self.parent) - 1

    def children(self) -> tuple[tuple[int, ...], ...]:
        """Children lists indexed by vertex, each in increasing order."""
        out: list[list[int]] = [[] for _ in self.parent]
        for v in range(1, len(self.parent)):
            out[self.parent[v]].append(v)
        return tuple(tuple(c) for c in out)

    def __str__(self) -> str:
        return format_tree(self)


def forest_roots(edges, size: int) -> list[int] | None:
    """Union-find over the vertices 0..size-1: the component root of each
    vertex when the edges form a forest, None once an edge closes a cycle."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return None
        parent[ra] = rb
    return [find(v) for v in range(size)]


# ------------------------------------------------------------ enumeration


def tree_count(n: int) -> int:
    """(n+1)^(n-1), the size of the family."""
    return 1 if n == 0 else (n + 1) ** (n - 1)


def _pruefer_to_parent(seq: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Decode a Pruefer sequence over [0, m-1] into a parent vector on 0:
    linear decode rooted at m-1, then reverse the path from 0 to m-1."""
    degree = [1] * m
    for x in seq:
        degree[x] += 1
    parent = [0] * m
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
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
    parent[leaf] = root = m - 1

    v = prev = 0
    while v != root:
        parent[v], prev, v = prev, v, parent[v]
    parent[root] = prev
    return tuple(parent)


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
    the Pruefer digits run as an odometer, least significant first."""
    for digits in _cartesian(range(n + 1), repeat=max(n - 1, 0)):
        yield _pruefer_to_parent(digits[::-1], n + 1)


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
    pairs, i.e. the sum of all root distances.  O(n^2) worst case, which
    is fine at desk scale.
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
    """D_n(q) = sum over trees of q^depth (univariate, stored in q)."""
    return BivariatePoly(Counter((_tree_stats(p)[2], 0) for p in _parent_tuples(n)))


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
        v = int(vertex_text)
        if v in entries:
            raise ValueError(f"vertex {v} is listed twice")
        if v == 0 and parent_text.strip() not in ("-", "0", ""):
            raise ValueError("vertex 0 is the root; its parent must be '-'")
        entries[v] = 0 if v == 0 else int(parent_text)
    entries.setdefault(0, 0)
    m = len(entries)
    if sorted(entries) != list(range(m)):
        raise ValueError(f"vertices must be exactly 1..{m - 1}: {sorted(entries.keys() - {0})}")
    return LabelledTree(tuple(entries[v] for v in range(m)))


def tree_to_json(tree: LabelledTree) -> dict:
    return _parent_json(tree.parent)


def _parent_json(parent: tuple[int, ...]) -> dict:
    return {"n": len(parent) - 1, "parent": list(parent[1:])}
