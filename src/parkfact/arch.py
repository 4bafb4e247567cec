"""Planar arch diagrams: the graphical model of minimal factorizations.

A diagram places positions 0..n on a horizontal axis and draws each
factor as a labelled semicircular arc; the vertex sitting at position i
is the i-th entry of sigma's visit word, and the diagram itself stores
positions only, so sigma is supplied whenever labels are needed.  A
length-n sequence lies in F_sigma exactly when its diagram is a
noncrossing tree whose rotators all read increasingly, which is the
validity test implemented here.

Kernels work on raw arcs, (left, right, label) tuples in label order,
and a position count m: _sigma_arcs draws them, _valid_runs is the one
validity test (union-find for the tree, one nesting sweep for crossings
and caps, two sorts for the rotators), _parts cuts the runs into simple
parts and _recompose glues them back.  The public functions wrap the
kernels and validate at the boundary: readers that need a valid diagram
raise through _checked_runs; builders (ArchDiagram, sigma_diagram,
recompose, arch_from_json) never judge validity.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .factorizations import Factorization
from .permutations import FullCycle
from .trees import forest_roots

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


# ---------------------------------------------------------------- kernels


def _sigma_arcs(pairs, pos) -> list[Arc]:
    """Raw factor i as the arc labelled i between the positions of its ends."""
    ends = ((pos[a], pos[b], label) for label, (a, b) in enumerate(pairs, start=1))
    return [(a, b, label) if a < b else (b, a, label) for a, b, label in ends]


def _rotators(arcs: Sequence[Arc], m: int) -> list[list[int]]:
    """The rotator of every vertex, in the order rotator documents."""
    # the arcs come in label order and sorted() is stable, so arcs sharing
    # a far endpoint stay in label order
    rotators: list[list[int]] = [[] for _ in range(m)]
    for left, _, label in sorted(arcs, key=itemgetter(1)):
        rotators[left].append(label)
    for _, right, label in sorted(arcs, key=itemgetter(0)):
        rotators[right].append(label)
    return rotators


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


def _valid_runs(arcs: Sequence[Arc], m: int) -> list[list[Arc]] | None:
    """The nesting runs of the arcs if they form a valid diagram (tree +
    noncrossing + every rotator increasing), else None."""
    if len(arcs) != m - 1 or forest_roots(((l, r) for l, r, _ in arcs), m) is None:
        return None
    runs = _nesting(arcs)
    # labels are distinct, so a rotator increases iff it is sorted
    if runs is None or any(rot != sorted(rot) for rot in _rotators(arcs, m)):
        return None
    return runs


def _parts(runs: list[list[Arc]]) -> list[tuple[list[Arc], int, tuple[int, ...]]]:
    """Each run as a simple part (arcs, m, I): its arcs shifted to start at
    0 and relabelled onto 1..|I| in label order, and I, its labels ascending."""
    parts = []
    for run in runs:
        left, right, _ = run[0]
        ordered = sorted(run, key=itemgetter(2))
        arcs = [(a - left, b - left, i) for i, (a, b, _) in enumerate(ordered, start=1)]
        parts.append((arcs, right - left + 1, tuple(label for _, _, label in ordered)))
    return parts


def _recompose(parts) -> tuple[list[Arc], int]:
    """Glue (arcs, m, I) parts, each noncrossing with one cap and I ascending,
    into arcs and m: label i becomes I's i-th, and the parts go in decreasing
    order of their cap labels, the order the increasing-rotator rule forces."""
    def cap_label(part) -> int:
        arcs, _, index_set = part
        return index_set[min(arcs, key=lambda arc: (arc[0], -arc[1]))[2] - 1]

    glued: list[Arc] = []
    offset = 0
    for arcs, m, index_set in sorted(parts, key=cap_label, reverse=True):
        glued.extend((l + offset, r + offset, index_set[lab - 1]) for l, r, lab in arcs)
        offset += m - 1
    glued.sort(key=itemgetter(2))
    return glued, offset + 1


# --------------------------------------------------------------- wrappers


def sigma_diagram(f: Factorization, sigma: FullCycle) -> ArchDiagram:
    """Draw f over sigma: factor i becomes the arc labelled i between the
    word positions of its endpoints.  Works for any factor sequence;
    validity is a separate question."""
    if f.n != sigma.n:
        raise ValueError(f"size mismatch: [{f.n}] vs [{sigma.n}]")
    return ArchDiagram(sigma.n + 1, tuple(_sigma_arcs(f.pairs(), sigma.positions())))


def rotator(diagram: ArchDiagram, vertex: int) -> tuple[int, ...]:
    """Arc labels seen counter-clockwise around the vertex, starting on
    the axis: arcs leaving rightward by increasing far endpoint, then
    arcs arriving from the left by increasing far endpoint.

    This ordering is the single most delicate convention in the library;
    it is pinned by unit tests against a worked diagram.
    """
    if not 0 <= vertex < diagram.n_vertices:
        raise ValueError(f"vertex {vertex} outside 0..{diagram.n}")
    return tuple(_rotators(diagram.arcs, diagram.n_vertices)[vertex])


def is_valid_arch(diagram: ArchDiagram) -> bool:
    """Tree + noncrossing + every rotator increasing."""
    return _valid_runs(diagram.arcs, diagram.n_vertices) is not None


def _checked_runs(diagram: ArchDiagram) -> list[list[Arc]]:
    runs = _valid_runs(diagram.arcs, diagram.n_vertices)
    if runs is None:
        raise ValueError("diagram is not a valid arch diagram")
    return runs


def arch_to_factorization(diagram: ArchDiagram, sigma: FullCycle) -> Factorization:
    """Recover the factor sequence by reading sigma's labels off the arc
    endpoints; inverse to sigma_diagram on valid diagrams."""
    if diagram.n != sigma.n:
        raise ValueError(f"size mismatch: [{diagram.n}] vs [{sigma.n}]")
    _checked_runs(diagram)
    pairs = (sorted((sigma.word[l], sigma.word[r])) for l, r, _ in diagram.arcs)
    return Factorization.from_pairs(pairs, sigma.n)


def caps(diagram: ArchDiagram) -> tuple[Arc, ...]:
    """Arcs not nested under any other arc, left to right.

    For a valid diagram these form a path from the leftmost to the
    rightmost vertex, and the diagram is simple iff there is exactly one.
    """
    return tuple(run[0] for run in _checked_runs(diagram))


def is_simple_arch(diagram: ArchDiagram) -> bool:
    return len(caps(diagram)) == 1


def decompose_simple(diagram: ArchDiagram) -> tuple[tuple[ArchDiagram, tuple[int, ...]], ...]:
    """Split under the caps into simple diagrams plus their label sets.

    Part j keeps the arcs nested under the j-th cap, shifted to start at
    position 0 and relabelled order-preservingly onto 1..|I_j|; the
    returned index set I_j records the original labels (ascending).  The
    parts are listed left to right and the index sets partition 1..n.
    """
    return tuple(
        (ArchDiagram(m, tuple(arcs)), index_set)
        for arcs, m, index_set in _parts(_checked_runs(diagram))
    )


def recompose(parts: Iterable[tuple[ArchDiagram, Sequence[int]]]) -> ArchDiagram:
    """Inverse of decompose_simple.  Each part must be noncrossing with
    exactly one cap; beyond that, recompose does not judge validity
    (is_valid_arch does)."""
    raw = []
    for part, index_set in parts:
        if len(index_set) != len(part.arcs):
            raise ValueError("index set size does not match part size")
        runs = _nesting(part.arcs)
        if runs is None or len(runs) != 1:
            raise ValueError("every part must be noncrossing with one cap")
        raw.append((part.arcs, part.n_vertices, tuple(sorted(index_set))))
    arcs, m = _recompose(raw)
    return ArchDiagram(m, tuple(arcs))


# -------------------------------------------------------------- text forms


def arch_to_json(diagram: ArchDiagram) -> dict:
    return {"n": diagram.n, "arcs": [list(arc) for arc in diagram.arcs]}


def _json_int(value) -> int:
    """An integral JSON number as an int; any other JSON value (a string,
    null, a boolean, a fraction, an infinity) is bad input (ValueError)."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)  # type(): a JSON true is a bool, not an integer
    raise ValueError(f"expected an integer, got {value!r:.40}")


def _json_list(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a JSON array, got {value!r:.40}")
    return value


def arch_from_json(obj: dict) -> ArchDiagram:
    """The diagram of a decoded {"n", "arcs": [[left, right, label], ...]}
    object; anything else is bad input (ValueError)."""
    if not isinstance(obj, dict) or not obj.keys() >= {"n", "arcs"}:
        raise ValueError("expected a JSON object with keys n, arcs")
    n = _json_int(obj["n"])
    arcs = tuple(tuple(map(_json_int, _json_list(arc))) for arc in _json_list(obj["arcs"]))
    if any(len(arc) != 3 for arc in arcs):
        raise ValueError("expected arrays of 3 integers")
    return ArchDiagram(n + 1, arcs)
