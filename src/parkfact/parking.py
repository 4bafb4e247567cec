"""Parking functions, major sequences, labelled Dyck paths, and bounce.

A length-n parking function sorts to a'_i <= i-1; its coordinate-wise
complement (n - a_i) is a major sequence.  Both embed as labelled lattice
paths (weakly below, resp. above, the diagonal) with equal-height labels
written in decreasing order left to right.  bounce reads the diagonal
contact points off the entry counts.  The label sets C_v and D_v are the
children and the descendants of v in the rooted tree theta(p), so they
are read from that tree (LabelledTree.children and descendants), and
pinv and copinv are its inv and coinv, read by the one tree-statistics
kernel in O(n + depth) steps.  The parking process is one step per car on
a bitmask of taken stalls.  The one cached enumerator pass sums area,
bounce and pinv over contents, and jump/cojump over the lot's fillings,
one level of bitmasks per car.

Kernels (the generator, bounce, the parking step) run on raw entry tuples
and ints; validated values are built only by the public functions.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, combinations_with_replacement
from typing import Iterator, NamedTuple, Union

from .permutations import _parse_groups
from .polynomials import BivariatePoly
from .trees import LabelledTree, _tree_stats


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
        object.__setattr__(self, "heights", tuple(self.heights))
        object.__setattr__(self, "labels", tuple(self.labels))
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


def _contacts(reach: list[int]) -> tuple[tuple[int, ...], int]:
    """Bounce contacts and the statistic sum(n - i_j) over them, read off
    reach[h] = #{entries <= h} for h in 0..n.

    The one bounce implementation: bounce and the content-major pass both
    call it.  A reach that does not grow is not
    a parking content, and the ball would stall (AssertionError).
    """
    n = len(reach) - 1
    contacts = [0]
    value = n
    while contacts[-1] < n:
        nxt = reach[contacts[-1]]
        if nxt <= contacts[-1]:
            raise AssertionError(f"bounce stalled at {contacts[-1]} on reach {reach}")
        contacts.append(nxt)
        value += n - nxt
    return tuple(contacts), value


def bounce(p: ParkingFunction) -> tuple[tuple[int, ...], int]:
    """The bounce contacts plus the statistic sum(n - i_j) over them.

    The statistic also equals the depth of theta(p), pinv + copinv; the
    bounce verify suite checks that identity.
    """
    return _contacts(list(accumulate(map(len, _label_groups(p.entries)))))


def theta(p: ParkingFunction) -> LabelledTree:
    """The tree in which each label at height h hangs under w_h, where
    w = (0, *to_path(p).labels) is the label word; a bijection onto trees."""
    return LabelledTree(_theta_parent(p.entries))


def _theta_parent(entries: tuple[int, ...]) -> tuple[int, ...]:
    """theta's parent vector: each label at height h hangs under w_h."""
    groups = _label_groups(entries)
    parent = [0] * (len(entries) + 1)
    for vertex, group in zip((0, *chain.from_iterable(groups)), groups):
        for child in group:
            parent[child] = vertex
    return tuple(parent)


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
    """Sum over vertices of the D-elements smaller than the vertex: inv(theta(p))."""
    return _tree_stats(_theta_parent(p.entries))[0]


def copinv(p: ParkingFunction) -> int:
    """Sum over vertices of the D-elements larger than the vertex: coinv(theta(p))."""
    return _tree_stats(_theta_parent(p.entries))[1]


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
    to the west, so d_i may be negative.  Each car is one parking step on
    the bitmask of taken stalls.
    """
    occupied = jump = cojump = 0
    stalls = []
    for a in p.entries:
        c, d = _park(occupied, a)
        occupied |= 1 << c
        stalls.append(c)
        jump += c - a
        cojump += a - d
    return ParkProcess(tuple(stalls), jump, cojump)


def _park(occupied: int, a: int) -> tuple[int, int]:
    """One car entering at a: its stall c, the first one at or east of a not
    in the bitmask occupied, and d, the nearest free stall west of c (-1 when
    stalls 0..c-1 are all taken, as the lot is unbounded to the west)."""
    free = ~occupied >> a
    c = a + (free & -free).bit_length() - 1
    return c, (~occupied & ((1 << c) - 1)).bit_length() - 1


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
    univariate and stored in q.  Area, bounce and the contacts depend only
    on the content, the sorted entries; they are computed once per content
    (429 at n = 7), through the one contacts helper.  Only pinv depends on
    where the labels go: theta's tree has the same shape for every parking
    function of a content, the positions of height h hanging under position
    h of the label word, so one walk over the label placements per content
    (_pinv_histogram) gives its pinv histogram.  _jump_walk gives jump and
    cojump.
    """
    counts: Counter[tuple[int, int, int]] = Counter()
    top = math.comb(n, 2)
    for content in combinations_with_replacement(range(n), n):
        if not _counting_test(content, n):
            continue
        sizes = [content.count(h) for h in range(n + 1)]
        _, b = _contacts(list(accumulate(sizes)))
        a = top - sum(content)
        for below, c in _pinv_histogram(sizes).items():
            counts[a, b, below] += c
    rows = counts.items()
    return ParkingEnumerators(
        BivariatePoly(((a, 0), c) for (a, _, _), c in rows),
        BivariatePoly(((b, 0), c) for (_, b, _), c in rows),
        _jump_walk(n),
        BivariatePoly(((below, b - below), c) for (_, b, below), c in rows),
    )


def _pinv_histogram(sizes: list[int]) -> dict[int, int]:
    """{k: the parking functions of one content with pinv k}, where sizes[h]
    counts the entries equal to h.

    Height h's labels fill positions start[h] .. start[h] + sizes[h] - 1 of
    the label word, in decreasing order, and hang under position h.  The
    walk places the labels from n down to 1, so each height fills its
    positions left to right and every label placed so far is larger than
    the one being placed; pinv counts, for each label, the larger labels
    above it, so placing the next label at height h adds the filled
    positions on the root chain of its parent, position h.  A state is the
    tuple filled, filled[h] counting the labels height h holds; the memo
    lives for one call (21,318 states over the 429 contents at n = 7).
    """
    start = list(accumulate(sizes, initial=1))
    height = [0] + [h for h, size in enumerate(sizes) for _ in range(size)]

    @functools.cache
    def walk(filled: tuple[int, ...]) -> dict[int, int]:
        out: dict[int, int] = {}
        for h, size in enumerate(sizes):
            if filled[h] == size:
                continue
            share, u = 0, h
            while u:
                g = height[u]
                share += u - start[g] < filled[g]
                u = g
            for k, c in walk(filled[:h] + (filled[h] + 1,) + filled[h + 1:]).items():
                out[k + share] = out.get(k + share, 0) + c
        return out or {0: 1}

    return walk((0,) * len(sizes))


def _jump_walk(n: int) -> BivariatePoly:
    """The (jump, cojump) enumerator of P_n, one parking step per edge.

    Level k maps each bitmask of stalls taken by k cars to the (jump,
    cojump) histogram of the entry prefixes that fill it; a car whose stall
    would be n or beyond leaves P_n and is dropped, and so is every car
    entering further east.  The full mask at level n holds the enumerator.
    """
    level = {0: {(0, 0): 1}}
    for _ in range(n):
        nxt: dict[int, dict[tuple[int, int], int]] = {}
        for occupied, hist in level.items():
            for a in range(n):
                c, d = _park(occupied, a)
                if c >= n:
                    break
                out = nxt.setdefault(occupied | 1 << c, {})
                for (jump, cojump), count in hist.items():
                    key = jump + c - a, cojump + a - d
                    out[key] = out.get(key, 0) + count
        level = nxt
    return BivariatePoly(level[(1 << n) - 1])


# -------------------------------------------------------------- text forms


def parse_entries(text: str) -> tuple[int, ...]:
    groups = _parse_groups(text)
    if len(groups) > 1:
        raise ValueError(f"expected one list of entries, got {text!r}")
    return tuple(groups[0]) if groups else ()


def parse_parking(text: str) -> ParkingFunction:
    return ParkingFunction(parse_entries(text))


def parse_major(text: str) -> MajorSequence:
    return MajorSequence(parse_entries(text))


def parse_sequence(text: str) -> Sequencelike:
    """The parking function, or failing that the major sequence, with these entries."""
    entries = parse_entries(text)
    if is_parking(entries):
        return ParkingFunction(entries)
    if is_major(entries):
        return MajorSequence(entries)
    raise ValueError(f"neither a parking function nor a major sequence: {entries}")


def sequence_to_json(value: Sequencelike) -> dict:
    kind = "parking" if isinstance(value, ParkingFunction) else "major"
    return {"n": value.n, "entries": list(value.entries), "kind": kind}
