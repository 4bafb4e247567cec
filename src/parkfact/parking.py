"""Parking functions, major sequences, labelled Dyck paths, and bounce.

A length-n parking function sorts to a'_i <= i-1; its coordinate-wise
complement (n - a_i) is a major sequence.  Both embed as labelled lattice
paths (weakly below, resp. above, the diagonal) with equal-height labels
written in decreasing order left to right.  The bounce machinery computes
the diagonal contact points together with the label sets C_v / D_v that
turn a parking function into a rooted tree.

Kernels (the generator, bounce, the parking process) run on raw entry
tuples; validated values are built only by the public functions.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterator, NamedTuple, Union

from .polynomials import BivariatePoly, json_fields, json_int, json_ints
from .trees import LabelledTree


def _counting_test(entries, n: int) -> bool:
    # at least i entries below i, for every i in [1, n]
    below = [0] * (n + 1)
    for a in entries:
        if a < n:
            below[a + 1] += 1
    running = 0
    for i in range(1, n + 1):
        running += below[i]
        if running < i:
            return False
    return True


def is_parking(entries) -> bool:
    """True iff the entries are nonnegative and, for every i in [1, n], at
    least i of them lie below i (the counting criterion)."""
    entries = tuple(entries)
    return all(a >= 0 for a in entries) and _counting_test(entries, len(entries))


def is_major(entries) -> bool:
    """True iff the complement (n - b_i) is a parking function."""
    entries = tuple(entries)
    n = len(entries)
    return is_parking([n - b for b in entries])


@dataclass(frozen=True, slots=True)
class ParkingFunction:
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not is_parking(self.entries):
            raise ValueError(f"not a parking function: {self.entries}")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.entries)


@dataclass(frozen=True, slots=True)
class MajorSequence:
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not is_major(self.entries):
            raise ValueError(f"not a major sequence: {self.entries}")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return ",".join(str(b) for b in self.entries)


Sequencelike = Union[ParkingFunction, MajorSequence]


def complement(value: Sequencelike) -> Sequencelike:
    """Coordinate-wise n - entry, exchanging the two families."""
    n = value.n
    flipped = tuple(n - x for x in value.entries)
    if isinstance(value, ParkingFunction):
        return MajorSequence(flipped)
    return ParkingFunction(flipped)


def area(value: Sequencelike) -> int:
    """binom(n,2) - sum for parking functions, sum - binom(n,2) for majors."""
    n = value.n
    if isinstance(value, ParkingFunction):
        return math.comb(n, 2) - sum(value.entries)
    if isinstance(value, MajorSequence):
        return sum(value.entries) - math.comb(n, 2)
    raise TypeError(f"no area for {type(value).__name__}")


# ------------------------------------------------------------------ paths


@dataclass(frozen=True, slots=True)
class LabelledDyckPath:
    """Staircase path with labelled horizontal steps.

    heights[j] is the height of the (j+1)-th horizontal step; labels is
    the left-to-right label word.  side is "below" for parking functions
    and "above" for major sequences.
    """

    heights: tuple[int, ...]
    labels: tuple[int, ...]
    side: str

    def __post_init__(self):
        n = len(self.heights)
        if self.side not in ("below", "above"):
            raise ValueError(f"side must be 'below' or 'above': {self.side}")
        if sorted(self.labels) != list(range(1, n + 1)):
            raise ValueError(f"labels must be a permutation of 1..{n}")
        for j in range(1, n):
            if self.heights[j] < self.heights[j - 1]:
                raise ValueError("heights must be non-decreasing")
            if self.heights[j] == self.heights[j - 1] and not (
                self.labels[j] < self.labels[j - 1]
            ):
                raise ValueError("equal-height labels must decrease left-to-right")
        for j, h in enumerate(self.heights, start=1):
            if self.side == "below" and not 0 <= h <= j - 1:
                raise ValueError(f"step {j} at height {h} leaves the below region")
            if self.side == "above" and not j <= h <= n:
                raise ValueError(f"step {j} at height {h} leaves the above region")

    @property
    def n(self) -> int:
        return len(self.heights)

    def lattice_points(self) -> list[tuple[int, int]]:
        """Every lattice point on the path from (0,0) to (n,n), in order."""
        n = self.n
        points = [(0, 0)]
        y = 0
        for j, h in enumerate(self.heights, start=1):
            while y < h:
                y += 1
                points.append((j - 1, y))
            points.append((j, y))
        while y < n:
            y += 1
            points.append((n, y))
        return points


def to_path(value: Sequencelike) -> LabelledDyckPath:
    """Labelled-path view: the j-th horizontal step sits at the j-th
    smallest entry, and steps of equal height carry their index labels in
    decreasing order."""
    groups = _label_groups(value.entries)
    heights = tuple(h for h, group in enumerate(groups) for _ in group)
    side = "below" if isinstance(value, ParkingFunction) else "above"
    return LabelledDyckPath(heights, tuple(chain.from_iterable(groups)), side)


def _label_groups(entries: tuple[int, ...]) -> list[list[int]]:
    """groups[h] lists the labels i with a_i = h in decreasing order, h <= n."""
    groups: list[list[int]] = [[] for _ in range(len(entries) + 1)]
    for label in range(len(entries), 0, -1):
        groups[entries[label - 1]].append(label)
    return groups


def from_path(path: LabelledDyckPath) -> Sequencelike:
    entries = [0] * path.n
    for h, label in zip(path.heights, path.labels):
        entries[label - 1] = h
    if path.side == "below":
        return ParkingFunction(tuple(entries))
    return MajorSequence(tuple(entries))


# ----------------------------------------------------------------- bounce


@dataclass(frozen=True, slots=True)
class BounceData:
    """Bounce-path contacts plus the label sets hanging off each vertex.

    w is the left-to-right label word prefixed with w_0 = 0.  C[v] holds,
    in decreasing order, the labels at the height where v sits in w;
    D[v] adds, recursively, everything below those labels.  Vertex 0
    receives the height-0 labels, matching the tree picture where they
    are the root's children.
    """

    contacts: tuple[int, ...]
    w: tuple[int, ...]
    C: tuple[tuple[int, ...], ...]
    D: tuple[frozenset[int], ...]


def _bounce_kernel(entries: tuple[int, ...]):
    """(contacts, w, groups, masks, bounce, pinv) of a parking tuple.

    groups[i] is the C set of the vertex w[i]; masks[v] holds D[v] with
    bit x for label x.  bounce is summed over the contacts; pinv counts the
    D-elements below their vertex.
    """
    n = len(entries)
    groups = _label_groups(entries)
    w = [0, *chain.from_iterable(groups)]
    reach = list(accumulate(map(len, groups)))  # reach[h] = #{entries <= h}
    contacts = [0]
    value = n
    while contacts[-1] < n:
        nxt = reach[contacts[-1]]
        if nxt <= contacts[-1]:
            raise AssertionError(f"bounce stalled on {entries}")
        contacts.append(nxt)
        value += n - nxt

    masks = [0] * (n + 1)
    below = 0
    for i in range(n, -1, -1):
        mask = 0
        for j in groups[i]:
            mask |= masks[j] | 1 << j
        v = w[i]
        masks[v] = mask
        below += (mask & ((1 << v) - 1)).bit_count()
    return contacts, w, groups, masks, value, below


def cd_sets(p: ParkingFunction) -> BounceData:
    return bounce(p)[0]


def bounce(p: ParkingFunction) -> tuple[BounceData, int]:
    """Bounce data plus the statistic sum(n - i_j) over the contacts.

    The statistic also equals the total size of the D sets, pinv + copinv;
    the bounce verify suite checks that identity.
    """
    contacts, w, groups, masks, value, _ = _bounce_kernel(p.entries)
    C: list[tuple[int, ...]] = [()] * (p.n + 1)
    for vertex, group in zip(w, groups):
        C[vertex] = tuple(group)
    D = tuple(frozenset(x for x in range(p.n + 1) if mask >> x & 1) for mask in masks)
    return BounceData(tuple(contacts), tuple(w), tuple(C), D), value


def theta(p: ParkingFunction) -> LabelledTree:
    """The tree whose vertex v has children C[v]; a bijection onto trees."""
    _, w, groups, _, _, _ = _bounce_kernel(p.entries)
    parent = [0] * (p.n + 1)
    for vertex, group in zip(w, groups):
        for child in group:
            parent[child] = vertex
    return LabelledTree(tuple(parent))


def theta_inverse(tree: LabelledTree) -> ParkingFunction:
    """Rebuild the parking function whose C sets are the children lists.

    The label word w is grown left to right: position i contributes the
    children of w_i, written in decreasing order, as the labels at height
    i.  Connectivity of the tree guarantees the word never stalls.
    """
    n = tree.n
    children = tree.children()
    w = [0]
    entries = [0] * n
    for i in range(n + 1):
        if i >= len(w):
            raise AssertionError(f"label word stalled at position {i} for {tree}")
        batch = sorted(children[w[i]], reverse=True)
        for label in batch:
            entries[label - 1] = i
        w.extend(batch)
    return ParkingFunction(tuple(entries))


def pinv(p: ParkingFunction) -> int:
    """Sum over vertices of the D-elements smaller than the vertex."""
    return _bounce_kernel(p.entries)[5]


def copinv(p: ParkingFunction) -> int:
    """Sum over vertices of the D-elements larger than the vertex."""
    _, _, _, _, value, below = _bounce_kernel(p.entries)
    return value - below


# ------------------------------------------------------- parking process


class ParkProcess(NamedTuple):
    stalls: tuple[int, ...]
    jump: int
    cojump: int


def park_process(p: ParkingFunction) -> ParkProcess:
    """Run the lot: car i enters at a_i and rolls east to the first gap.

    jump totals the eastward displacement (and equals the area); cojump
    totals a_i - d_i where d_i is the nearest empty stall west of where
    car i ends up, measured right after it parks.  The lot is unbounded
    to the west, so d_i may be negative.
    """
    return ParkProcess(*_park_kernel(p.entries))


def _park_kernel(entries: tuple[int, ...]) -> tuple[tuple[int, ...], int, int]:
    occupied: set[int] = set()
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


# ------------------------------------------------------------ enumeration


def _parking_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """Parking tuples of length n in lexicographic order, none discarded.

    With r slots free, a prefix completes (with zeros) iff every
    slack[i] = #{entries < i} + r - i is >= 0.  Placing a lowers slack[1..a],
    so a position may rise to a only while slack[a] > 0 (slack[n] stays 0).
    """
    entries = [0] * n
    slack = [n - i for i in range(n + 1)]
    while True:
        yield tuple(entries)
        j = n - 1
        while j >= 0 and not slack[entries[j] + 1]:
            for i in range(1, entries[j] + 1):
                slack[i] += 1
            entries[j] = 0
            j -= 1
        if j < 0:
            return
        entries[j] += 1
        slack[entries[j]] -= 1


def enumerate_parking(n: int) -> Iterator[ParkingFunction]:
    """All parking functions of length n, in lexicographic order, each
    validated by the ParkingFunction constructor."""
    for entries in _parking_tuples(n):
        yield ParkingFunction(entries)


def enumerate_majors(n: int) -> Iterator[MajorSequence]:
    for p in enumerate_parking(n):
        yield complement(p)


class ParkingEnumerators(NamedTuple):
    area: BivariatePoly
    bounce: BivariatePoly
    jump_cojump: BivariatePoly
    pinv_copinv: BivariatePoly


@functools.cache
def parking_enumerators(n: int) -> ParkingEnumerators:
    """Area, bounce, (jump, cojump) and (pinv, copinv) enumerators of P_n.

    All four are exact sums over the full family; area and bounce are
    univariate and stored in q.  They come from two cached passes, one per
    kernel, so a caller needing one kernel's enumerators runs that pass alone.
    """
    area_poly, bounce_poly, pinv_copinv = _bounce_pass(n)
    return ParkingEnumerators(area_poly, bounce_poly, _jump_pass(n), pinv_copinv)


@functools.cache
def _bounce_pass(n: int) -> tuple[BivariatePoly, BivariatePoly, BivariatePoly]:
    """The area, bounce and (pinv, copinv) enumerators of P_n."""
    counts: Counter[tuple[int, int, int]] = Counter()
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


@functools.cache
def _jump_pass(n: int) -> BivariatePoly:
    """The (jump, cojump) enumerator of P_n."""
    counts: Counter[tuple[int, int]] = Counter()
    for entries in _parking_tuples(n):
        _, jump, cojump = _park_kernel(entries)
        counts[jump, cojump] += 1
    return BivariatePoly(counts)


# -------------------------------------------------------------- text forms


def parse_entries(text: str) -> tuple[int, ...]:
    stripped = text.strip().strip("()")
    if not stripped:
        return ()
    return tuple(int(x) for x in re.split(r"[,\s]+", stripped) if x)


def parse_parking(text: str) -> ParkingFunction:
    return ParkingFunction(parse_entries(text))


def parse_major(text: str) -> MajorSequence:
    return MajorSequence(parse_entries(text))


def sequence_to_json(value: Sequencelike) -> dict:
    kind = "parking" if isinstance(value, ParkingFunction) else "major"
    return {"n": value.n, "entries": list(value.entries), "kind": kind}


def sequence_from_json(obj: dict) -> Sequencelike:
    n, raw, kind = json_fields(obj, "n", "entries", "kind")
    entries = json_ints(raw)
    if len(entries) != json_int(n):
        raise ValueError("n does not match entries length")
    if kind == "parking":
        return ParkingFunction(entries)
    if kind == "major":
        return MajorSequence(entries)
    raise ValueError(f"unknown kind {kind!r}")
