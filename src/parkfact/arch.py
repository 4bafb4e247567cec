"""Planar arch diagrams: the graphical model of minimal factorizations.

A diagram places positions 0..n on a horizontal axis and draws each
factor as a labelled semicircular arc; the vertex sitting at position i
is the i-th entry of sigma's visit word, and the diagram itself stores
positions only, so sigma is supplied whenever labels are needed.  A
length-n sequence lies in F_sigma exactly when its diagram is a
noncrossing tree whose rotators all read increasingly, which is the
validity test implemented here.

Validation runs on the raw arcs: the union-find of factorizations
tests the tree, one nesting sweep by left endpoint finds crossings and
lists the caps with the arcs under each, and two sorts of the arcs give
every rotator.  Readers that need a valid diagram (caps, is_simple_arch,
decompose_simple, arch_to_factorization) validate it once; builders
(ArchDiagram, sigma_diagram, recompose, arch_from_json) never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .factorizations import Factorization, forest_roots
from .permutations import FullCycle, Transposition
from .polynomials import json_fields, json_int, json_ints

Arc = tuple[int, int, int]  # (left position, right position, label)


@dataclass(frozen=True, slots=True)
class ArchDiagram:
    """Labelled arcs over positions 0..n_vertices-1, stored by label."""

    n_vertices: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "arcs", tuple(sorted(self.arcs, key=lambda arc: arc[2]))
        )
        labels = [label for _, _, label in self.arcs]
        if labels != list(range(1, len(self.arcs) + 1)):
            raise ValueError(f"arc labels must be exactly 1..{len(self.arcs)}")
        for left, right, label in self.arcs:
            if not 0 <= left < right < self.n_vertices:
                raise ValueError(f"arc {(left, right, label)} out of range")

    @property
    def n(self) -> int:
        return self.n_vertices - 1


def sigma_diagram(f: Factorization, sigma: FullCycle) -> ArchDiagram:
    """Draw f over sigma: factor i becomes the arc labelled i between the
    word positions of its endpoints.  Works for any factor sequence;
    validity is a separate question."""
    if f.n != sigma.n:
        raise ValueError(f"size mismatch: [{f.n}] vs [{sigma.n}]")
    pos = sigma.positions()
    arcs = []
    for i, t in enumerate(f.factors, start=1):
        a, b = pos[t.lo], pos[t.hi]
        arcs.append((min(a, b), max(a, b), i))
    return ArchDiagram(sigma.n + 1, tuple(arcs))


def _rotators(diagram: ArchDiagram) -> list[list[int]]:
    """The rotator of every vertex, in the order rotator documents."""
    # the arcs are stored by label and sorted() is stable, so arcs sharing
    # a far endpoint stay in label order
    rotators: list[list[int]] = [[] for _ in range(diagram.n_vertices)]
    for left, _, label in sorted(diagram.arcs, key=itemgetter(1)):
        rotators[left].append(label)
    for _, right, label in sorted(diagram.arcs, key=itemgetter(0)):
        rotators[right].append(label)
    return rotators


def rotator(diagram: ArchDiagram, vertex: int) -> tuple[int, ...]:
    """Arc labels seen counter-clockwise around the vertex, starting on
    the axis: arcs leaving rightward by increasing far endpoint, then
    arcs arriving from the left by increasing far endpoint.

    This ordering is the single most delicate convention in the library;
    it is pinned by unit tests against a worked diagram.
    """
    if not 0 <= vertex < diagram.n_vertices:
        raise ValueError(f"vertex {vertex} outside 0..{diagram.n}")
    return tuple(_rotators(diagram)[vertex])


def _is_tree(diagram: ArchDiagram) -> bool:
    return len(diagram.arcs) == diagram.n_vertices - 1 and forest_roots(
        ((left, right) for left, right, _ in diagram.arcs), diagram.n_vertices
    ) is not None


def _nesting(arcs: Iterable[Arc]) -> list[list[Arc]] | None:
    """Each cap followed by the arcs nested under it, left to right, or
    None if two arcs cross (interleave strictly, l1 < l2 < r1 < r2)."""
    # by left end, longer first; the open right ends on the stack never
    # increase, so an arc crosses an open arc iff it outreaches the top
    runs: list[list[Arc]] = []
    open_rights: list[int] = []
    for arc in sorted(arcs, key=lambda arc: (arc[0], -arc[1])):
        while open_rights and open_rights[-1] <= arc[0]:
            open_rights.pop()
        if not open_rights:
            runs.append([])
        elif arc[1] > open_rights[-1]:
            return None
        runs[-1].append(arc)
        open_rights.append(arc[1])
    return runs


def _valid_runs(diagram: ArchDiagram) -> list[list[Arc]] | None:
    """The nesting runs of a valid diagram (tree + noncrossing + every
    rotator increasing), or None if it is not valid: the one validity test,
    read by is_valid_arch and by the readers that need the runs."""
    if not _is_tree(diagram):
        return None
    runs = _nesting(diagram.arcs)
    # labels are distinct, so a rotator increases iff it is sorted
    if runs is None or any(rot != sorted(rot) for rot in _rotators(diagram)):
        return None
    return runs


def is_valid_arch(diagram: ArchDiagram) -> bool:
    """Tree + noncrossing + every rotator increasing."""
    return _valid_runs(diagram) is not None


def arch_to_factorization(diagram: ArchDiagram, sigma: FullCycle) -> Factorization:
    """Recover the factor sequence by reading sigma's labels off the arc
    endpoints; inverse to sigma_diagram on valid diagrams."""
    if diagram.n != sigma.n:
        raise ValueError(f"size mismatch: [{diagram.n}] vs [{sigma.n}]")
    if not is_valid_arch(diagram):
        raise ValueError("diagram is not a valid arch diagram")
    word = sigma.word
    factors = tuple(
        Transposition.of(word[left], word[right]) for left, right, _ in diagram.arcs
    )
    return Factorization(factors, sigma.n)


# ------------------------------------------------------------------- caps


def caps(diagram: ArchDiagram) -> tuple[Arc, ...]:
    """Arcs not nested under any other arc, left to right.

    For a valid diagram these form a path from the leftmost to the
    rightmost vertex, and the diagram is simple iff there is exactly one.
    """
    runs = _valid_runs(diagram)
    if runs is None:
        raise ValueError("diagram is not a valid arch diagram")
    return tuple(run[0] for run in runs)


def is_simple_arch(diagram: ArchDiagram) -> bool:
    return len(caps(diagram)) == 1


# ---------------------------------------------------------- decomposition


def decompose_simple(
    diagram: ArchDiagram,
) -> tuple[tuple[ArchDiagram, tuple[int, ...]], ...]:
    """Split under the caps into simple diagrams plus their label sets.

    Part j keeps the arcs nested under the j-th cap, shifted to start at
    position 0 and relabelled order-preservingly onto 1..|I_j|; the
    returned index set I_j records the original labels (ascending).  The
    parts are listed left to right and the index sets partition 1..n.
    """
    runs = _valid_runs(diagram)
    if runs is None:
        raise ValueError("diagram is not a valid arch diagram")
    parts = []
    for run in runs:
        left, right, _ = run[0]
        index_set = tuple(sorted(label for _, _, label in run))
        rank = {label: i + 1 for i, label in enumerate(index_set)}
        shifted = tuple((a - left, b - left, rank[label]) for a, b, label in run)
        parts.append((ArchDiagram(right - left + 1, shifted), index_set))
    return tuple(parts)


def recompose(parts: Iterable[tuple[ArchDiagram, Sequence[int]]]) -> ArchDiagram:
    """Inverse of decompose_simple.

    Each part is restored to its original labels via its index set, and
    the parts are concatenated in decreasing order of their cap labels,
    which is the order the increasing-rotator rule forces.  Each part must
    be noncrossing with exactly one cap; beyond that, recompose does not
    judge validity (is_valid_arch does).
    """
    restored = []
    for part, index_set in parts:
        ordered = sorted(index_set)
        if len(ordered) != len(part.arcs):
            raise ValueError("index set size does not match part size")
        relabelled = tuple(
            (left, right, ordered[label - 1]) for left, right, label in part.arcs
        )
        runs = _nesting(part.arcs)
        if runs is None or len(runs) != 1:
            raise ValueError("every part must be noncrossing with one cap")
        cap_label = ordered[runs[0][0][2] - 1]
        restored.append((cap_label, part.n_vertices, relabelled))
    restored.sort(key=lambda item: -item[0])

    arcs: list[Arc] = []
    offset = 0
    for _, n_vertices, relabelled in restored:
        arcs.extend(
            (left + offset, right + offset, label) for left, right, label in relabelled
        )
        offset += n_vertices - 1
    return ArchDiagram(offset + 1, tuple(arcs))


# -------------------------------------------------------------- text forms


def arch_to_json(diagram: ArchDiagram) -> dict:
    return {"n": diagram.n, "arcs": [list(arc) for arc in diagram.arcs]}


def arch_from_json(obj: dict) -> ArchDiagram:
    n, arcs = json_fields(obj, "n", "arcs")
    return ArchDiagram(json_int(n) + 1, json_ints(arcs, 3))
