"""Permutations of [n] = {0, ..., n} with left-to-right multiplication.

The composition convention throughout the library is left to right:
``compose(a, b)`` maps i to b(a(i)), and ``a * b`` means the same thing.
A transposition is a raw (lo, hi) int pair with lo < hi, read by
swap_product; full cycles are kept in word-of-visit form (0, s_1, ...,
s_n) because unimodality and contiguity are properties of the word, not
of the underlying function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations as _itertools_permutations
from typing import Iterator


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection on [n], stored in one-line image form."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection on [n]: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images) - 1

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n + 1)))

    @classmethod
    def from_cycles(cls, cycles, n: int) -> "Permutation":
        images = list(range(n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for x in cycle:
                if not 0 <= x <= n:
                    raise ValueError(f"cycle entry {x} outside [0, {n}]")
                if x in seen:
                    raise ValueError(f"entry {x} repeated across cycles")
                seen.add(x)
            for i, x in enumerate(cycle):
                images[x] = cycle[(i + 1) % len(cycle)]
        return cls(tuple(images))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def cycles(self, include_fixed: bool = False) -> tuple[tuple[int, ...], ...]:
        """Cycle view: each cycle rotated to start at its minimum, cycles
        sorted by minimum.  Fixed points suppressed unless requested."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cycle = []
            x = start
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = self.images[x]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return tuple(out)

    def num_cycles(self) -> int:
        """Cycle count including fixed points."""
        return len(self.cycles(include_fixed=True))

    def __str__(self) -> str:
        return format_permutation(self)


@dataclass(frozen=True, slots=True)
class FullCycle:
    """A single (n+1)-cycle kept as its visit word (0, s_1, ..., s_n)."""

    word: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        if not self.word or self.word[0] != 0:
            raise ValueError(f"full-cycle word must begin with 0: {self.word}")
        if sorted(self.word) != list(range(len(self.word))):
            raise ValueError(f"not a permutation of [n]: {self.word}")

    @property
    def n(self) -> int:
        return len(self.word) - 1

    @classmethod
    def canonical(cls, n: int) -> "FullCycle":
        """The cycle (0 1 ... n)."""
        return cls(tuple(range(n + 1)))

    @classmethod
    def from_permutation(cls, perm: Permutation) -> "FullCycle":
        cycles = perm.cycles(include_fixed=True)
        if len(cycles) != 1:
            raise ValueError("permutation is not a single full cycle")
        return cls(cycles[0])

    def to_permutation(self) -> Permutation:
        images = [0] * len(self.word)
        for i, s in enumerate(self.word):
            images[s] = self.word[(i + 1) % len(self.word)]
        return Permutation(tuple(images))

    def positions(self) -> dict[int, int]:
        """Map from vertex to its index in the word."""
        return {v: i for i, v in enumerate(self.word)}

    def __str__(self) -> str:
        return "(" + " ".join(str(v) for v in self.word) + ")"


# ------------------------------------------------------------- operations


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Left-to-right product: the result maps i to b(a(i))."""
    if len(a.images) != len(b.images):
        raise ValueError(f"size mismatch: [{a.n}] vs [{b.n}]")
    return Permutation(tuple(b.images[x] for x in a.images))


def _valley(word) -> int | None:
    """The least i with word[i-1] > word[i] < word[i+1], or None."""
    for i in range(1, len(word) - 1):
        if word[i - 1] > word[i] < word[i + 1]:
            return i
    return None


def is_unimodal(sigma: FullCycle) -> bool:
    """True iff the visit word rises strictly to n and then falls strictly:
    as it starts at its least entry 0, iff it has no valley."""
    return _valley(sigma.word) is None


def unimodal_cycles(n: int) -> Iterator[FullCycle]:
    """All 2^(n-1) unimodal full cycles, by choice of the ascent set.

    The subset S of [1, n-1] placed on the rising side determines the
    cycle (0, sorted(S), n, rest descending); masks are scanned in
    ascending order, so the stream is deterministic.
    """
    if n < 1:
        raise ValueError("unimodal_cycles requires n >= 1")
    interior = list(range(1, n))
    for mask in range(1 << (n - 1)):
        ascent = [v for i, v in enumerate(interior) if mask >> i & 1]
        descent = [v for i, v in enumerate(interior) if not mask >> i & 1]
        yield FullCycle((0, *ascent, n, *reversed(descent)))


def full_cycles(n: int) -> Iterator[FullCycle]:
    """All n! full cycles on [n], in lexicographic word order."""
    for rest in _itertools_permutations(range(1, n + 1)):
        yield FullCycle((0, *rest))


def full_cycle_classes(n: int) -> Iterator[tuple[FullCycle, int]]:
    """One full cycle per class of the group generated by sigma -> sigma^-1
    and sigma -> gamma sigma gamma (gamma: i -> n - i), with the class
    size, in full_cycles order: each class is given by its first member
    met, its least word.  On words, the inverse reads the word after 0
    backwards, and the reflection is _reflected_word."""
    for rest in _itertools_permutations(range(1, n + 1)):
        reflected = _reflected_word((0, *rest))
        members = {rest, rest[::-1], reflected[1:], reflected[:0:-1]}
        if rest == min(members):
            yield FullCycle((0, *rest)), len(members)


def _reflected_word(word: tuple[int, ...]) -> tuple[int, ...]:
    """The visit word of gamma sigma gamma (gamma: i -> n - i) from sigma's:
    each v becomes n - v, and 0 is rotated to the front."""
    n = len(word) - 1
    flipped = tuple(n - v for v in word)
    cut = flipped.index(0)
    return flipped[cut:] + flipped[:cut]


def swap_product(pairs, n: int) -> list[int]:
    """Images of the left-to-right product of the transpositions (a, b)
    in pairs, on [n].

    Swapping the entries at a and b multiplies on the left by (a b), so
    the factors are applied from the last to the first.
    """
    images = list(range(n + 1))
    for a, b in reversed(pairs):
        images[a], images[b] = images[b], images[a]
    return images


def window_cycles(images, word) -> int | None:
    """Cycle count of the permutation with these images, fixed points
    included, when every cycle is a window of the visit word traversed in
    word order; None otherwise.

    One pass: a window continues while each entry maps to the next one in
    the word, and where it stops, the last entry must map back to the
    window's first.
    """
    count = 0
    start = 0
    last = len(word) - 1
    for k, x in enumerate(word):
        y = images[x]
        if k < last and y == word[k + 1]:
            continue
        if y != word[start]:
            return None
        count += 1
        start = k + 1
    return count


# ------------------------------------------------------------ text forms

_CYCLE_GROUP = re.compile(r"\(([^()]*)\)")
_INT_TOKEN = re.compile(r"-?[0-9]+")


def _int_token(text: str) -> int:
    """The integer an ASCII decimal token spells, optionally negative; int()
    alone would also read '+1', '1_0' and non-ASCII digits."""
    if not _INT_TOKEN.fullmatch(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _entries(body: str) -> list[int]:
    return [_int_token(x) for x in re.split(r"[,\s]+", body.strip()) if x]


def _cycle_groups(text: str) -> list[list[int]]:
    """Entries of each parenthesized group; text outside groups is an error."""
    if _CYCLE_GROUP.sub("", text).strip():
        raise ValueError(f"stray text outside cycle groups: {text!r}")
    return [_entries(body) for body in _CYCLE_GROUP.findall(text)]


def _parse_groups(text: str) -> list[list[int]]:
    stripped = text.strip()
    if not stripped:
        return []
    if "(" not in stripped:
        return [_entries(stripped)]
    return _cycle_groups(stripped)


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse cycle notation like "(0 2 3)(5 6)"; whitespace tolerant."""
    cycles = [g for g in _parse_groups(text) if g]
    return Permutation.from_cycles(cycles, n)


def format_permutation(perm: Permutation) -> str:
    cycles = perm.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)


def parse_full_cycle(text: str) -> FullCycle:
    """Parse a visit word like "0 2 3 5 6 4 1" (parens and commas allowed).

    The leading 0 is required; rotated spellings are rejected so that the
    wire format stays unambiguous.
    """
    groups = _parse_groups(text)
    if len(groups) != 1:
        raise ValueError(f"expected a single cycle word, got {text!r}")
    return FullCycle(tuple(groups[0]))

