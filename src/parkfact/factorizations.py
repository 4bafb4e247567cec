"""Minimal transposition factorizations of full cycles.

F_sigma is the set of length-n transposition sequences multiplying out
(left to right) to the full cycle sigma.  Both routes through it follow
the "remaining" permutation rho_i = pi_i^{-1} sigma: a prefix extends to
a member of F_sigma exactly when each chosen factor has both endpoints
in one cycle of rho, so the search has no dead ends.  That rule is
written once, as the per-call memo of _moves, and both routes read it:
the factor stream lists the members one by one, for per-object checks;
F_sigma(q,t) and the five restricted families of F_n come from one
memoized walk over rho, which sums by state instead of by member.
Lower/upper sequences, their area statistics, and the rotation maps
phi_k also live here.  A Factorization holds its factors as the raw
(lo, hi) pairs that every kernel reads; its constructor is the one place
a factor is checked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .permutations import FullCycle, Permutation, _cycle_groups, swap_product
from .polynomials import BivariatePoly


@dataclass(frozen=True, slots=True)
class Factorization:
    """An ordered sequence of transpositions on the ground set [n], each
    a raw (lo, hi) tuple of ints with 0 <= lo < hi <= n."""

    factors: tuple[tuple[int, int], ...]
    n: int

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        # checked in this order: every factor's shape and order, n, every range
        for pair in factors:
            if not (type(pair) is tuple and len(pair) == 2
                    and type(pair[0]) is type(pair[1]) is int):
                raise ValueError(f"factor {pair!r} is not a pair of ints")
            if not 0 <= pair[0] < pair[1]:
                raise ValueError(f"transposition needs 0 <= lo < hi, got {pair}")
        if self.n < 0:
            raise ValueError(f"ground set size must be nonnegative, got n = {self.n}")
        for a, b in factors:
            if b > self.n:
                raise ValueError(f"factor ({a} {b}) exceeds ground set [0, {self.n}]")

    def product(self) -> Permutation:
        return Permutation(tuple(swap_product(self.factors, self.n)))

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return "".join(f"({a} {b})" for a, b in self.factors)


def is_minimal_for(f: Factorization, pi: Permutation) -> bool:
    """True iff f is a shortest factorization of pi: its product is pi
    and it has the minimal length n + 1 - c(pi)."""
    if f.n != pi.n:
        raise ValueError(f"size mismatch: [{f.n}] vs [{pi.n}]")
    return f.product() == pi and len(f.factors) == f.n + 1 - pi.num_cycles()


# ------------------------------------------------------------ enumeration


def _moves(m: int):
    """A per-call memo moves(rho) of the pairs a < b on one cycle of rho,
    in sorted order: the factors that may come next.  The pairs are
    objects of one shared table, so a memo entry holds no fresh tuples."""
    table = [[(a, b) for b in range(m)] for a in range(m)]

    @functools.cache
    def moves(rho: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        least = [-1] * m  # the least point of each point's cycle
        for first in range(m):
            x = first
            while least[x] < 0:
                least[x] = first
                x = rho[x]
        return tuple([table[a][b] for a in range(m) for b in range(a + 1, m)
                      if least[a] == least[b]])

    return moves


def iter_factor_pairs(sigma: FullCycle) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield the factor sequences of F_sigma as raw (lo, hi) tuples.

    Depth-first over the moves of each state, tried in sorted order, which
    makes the stream deterministic; rho is one list that each factor is
    swapped into and out of.  After n - 1 factors rho is one
    transposition, whose single move is the last factor.
    """
    n = sigma.n
    if n == 0:
        yield ()
        return
    moves = _moves(n + 1)
    rho = list(sigma.to_permutation().images)
    prefix: list[tuple[int, int]] = []
    stack = [iter(moves(tuple(rho)))]  # stack[d]: the untried moves at depth d
    while stack:
        for pair in stack[-1]:
            a, b = pair
            rho[a], rho[b] = rho[b], rho[a]
            here = moves(tuple(rho))
            if len(stack) < n - 1:
                prefix.append(pair)
                stack.append(iter(here))
                break
            yield (*prefix, pair, *here)  # here: the one move left, none if n = 1
            rho[a], rho[b] = rho[b], rho[a]
        else:
            stack.pop()
            if prefix:
                a, b = prefix.pop()
                rho[a], rho[b] = rho[b], rho[a]


def enumerate_factorizations(sigma: FullCycle) -> Iterator[Factorization]:
    """Each member of F_sigma exactly once; |F_sigma| = (n+1)^(n-1)."""
    n = sigma.n
    for pairs in iter_factor_pairs(sigma):
        yield Factorization(pairs, n)


# ------------------------------------------------------------- statistics


def lower(f: Factorization) -> tuple[int, ...]:
    """First coordinates of the normalized factors."""
    return tuple(a for a, _ in f.factors)


def upper(f: Factorization) -> tuple[int, ...]:
    """Second coordinates of the normalized factors."""
    return tuple(b for _, b in f.factors)


def _is_full_cycle_product(length: int, images) -> bool:
    """True iff `length` factors with this product form a minimal
    factorization of a full cycle: n factors, one cycle through [n]."""
    x, size = images[0], 1
    while x != 0:
        x, size = images[x], size + 1
    return length == size - 1 == len(images) - 1


def _areas(pairs, n: int) -> tuple[int, int]:
    """Lower and upper area of raw pairs on [n]; callers test membership."""
    binom = math.comb(n, 2)
    return binom - sum(a for a, _ in pairs), sum(b for _, b in pairs) - binom


def _member_areas(f: Factorization) -> tuple[int, int]:
    if not _is_full_cycle_product(len(f), swap_product(f.factors, f.n)):
        raise ValueError(f"{f} is not a minimal factorization of a full cycle")
    return _areas(f.factors, f.n)


def area_lower(f: Factorization) -> int:
    """binom(n,2) minus the lower-sequence sum."""
    return _member_areas(f)[0]


def area_upper(f: Factorization) -> int:
    """Upper-sequence sum minus binom(n,2)."""
    return _member_areas(f)[1]


def total_difference(f: Factorization) -> int:
    """Sum of hi - lo over the factors: the lower plus the upper area."""
    return sum(_member_areas(f))


def _walk(sigma: FullCycle, step=lambda extra, a, b: extra, start=0) -> BivariatePoly:
    """q^(lower area) t^(upper area) summed over the members of F_sigma
    whose factors all pass `step`.

    A memoized walk over the remaining permutation rho, starting at sigma.
    Let S(rho, extra) count the factor sequences that take rho to the
    identity by their lower and upper sums (A, B).  S(identity, extra) =
    {(0, 0): 1}, and S(rho, extra) sums, over the pairs a < b on one cycle
    of rho with extra' = step(extra, a, b) not None, the terms of S(rho
    with rho[a], rho[b] swapped, extra') moved to (A + a, B + b).  A state
    other than the identity whose every factor is refused counts nothing.
    At the root (A, B) becomes (binom(n,2) - A, B - binom(n,2)).  Every rho
    met lies on a geodesic from sigma to the identity, i.e. is a
    noncrossing partition relative to sigma, so the walk visits
    Catalan(n+1) states per extra (1,430 at n = 7) instead of the
    (n+1)^(n-1) leaves.  It reads the same moves as iter_factor_pairs; the
    tests compare the two sums, and the stream with a recursive oracle.
    """
    n = sigma.n
    moves = _moves(n + 1)

    @functools.cache  # one memo per call, dropped with the closure
    def sums(rho: tuple[int, ...], extra) -> dict[tuple[int, int], int]:
        here = moves(rho)
        if not here:  # rho is the identity
            return {(0, 0): 1}
        out: dict[tuple[int, int], int] = {}
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


@functools.cache
def factorization_enumerator(sigma: FullCycle) -> BivariatePoly:
    """F_sigma(q,t): q^(lower area) t^(upper area) summed over F_sigma."""
    return _walk(sigma)


# ------------------------------------------------------ restricted families


def is_simple(f: Factorization) -> bool:
    """Simple means the factor (0, n) occurs."""
    return (0, f.n) in f.factors


def simple_index(f: Factorization) -> int:
    """1-based position of the factor (0, n); for a member of F_n the
    position is unique, and the scan insists on that."""
    hits = [i for i, pair in enumerate(f.factors, start=1) if pair == (0, f.n)]
    if len(hits) != 1:
        raise ValueError(f"{f} has {len(hits)} copies of (0 {f.n}), expected one")
    return hits[0]


class RestrictedEnumerators(NamedTuple):
    simple: BivariatePoly
    increasing: BivariatePoly
    decreasing: BivariatePoly
    max_diff: BivariatePoly
    perm_lower: BivariatePoly


@functools.cache
def restricted_enumerators(n: int) -> RestrictedEnumerators:
    """Area enumerators of the restricted families inside F_n.

    simple: contains the factor (0, n); increasing / decreasing: lower
    sequence weakly monotone; max_diff: maximum total difference;
    perm_lower: the lower sequence is a permutation of 0..n-1.  Each
    family is one filtered memoized walk, whose extra state is the last
    lower letter or the set of lower letters used; simple is F_n minus the
    members without (0, n).  The total degree of a term is the total
    difference, so max_diff is the top-degree part of F_n.
    """
    sigma = FullCycle.canonical(n)
    f_n = factorization_enumerator(sigma)
    top = f_n.degree
    return RestrictedEnumerators(
        simple=f_n - _walk(sigma, lambda _, a, b: None if (a, b) == (0, n) else 0),
        increasing=_walk(sigma, lambda last, a, b: a if a >= last else None),
        decreasing=_walk(sigma, lambda last, a, b: a if a <= last else None, n),
        max_diff=BivariatePoly({k: c for k, c in f_n.terms() if sum(k) == top}),
        perm_lower=_walk(sigma, lambda used, a, b: None if used >> a & 1 else used | 1 << a),
    )


# ---------------------------------------------------------- rotation maps


def _rotate_down(pairs, k: int) -> tuple[tuple[int, int], ...]:
    # phi_k on raw pairs; conjugating down a factor that misses 0 drops both ends
    return tuple((a - 1, b - 1) for a, b in pairs[k:]) + tuple(pairs[: k - 1])


def _rotate_up(pairs, k: int, n: int) -> tuple[tuple[int, int], ...]:
    # phi_k_inverse on raw pairs
    up = tuple((a + 1, b + 1) for a, b in pairs[: n - k])
    return tuple(pairs[n - k :]) + ((0, n),) + up


def phi_k(f: Factorization, k: int) -> Factorization:
    """Rotate a simple factorization down to F_(n-1).

    Requires the k-th factor of f to be (0, n) with f in F_n.  Factors
    right of position k are conjugated down one step and moved to the
    front; the (0, n) factor disappears.  Lower and upper areas drop by
    exactly k - 1 and n - k + 1.
    """
    n = f.n
    if not 1 <= k <= len(f.factors):
        raise ValueError(f"k = {k} outside 1..{len(f.factors)}")
    if f.factors[k - 1] != (0, n):
        raise ValueError(f"factor {k} of {f} is not (0 {n})")
    if not is_minimal_for(f, FullCycle.canonical(n).to_permutation()):
        raise ValueError(f"{f} is not a minimal factorization of the canonical cycle")
    return Factorization(_rotate_down(f.factors, k), n - 1)


def phi_k_inverse(g: Factorization, k: int, n: int) -> Factorization:
    """Reinsert (0, n): the inverse rotation from F_(n-1) into F_(n,k)."""
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} outside 1..{n}")
    if not is_minimal_for(g, FullCycle.canonical(n - 1).to_permutation()):
        raise ValueError(f"{g} is not a minimal factorization of the canonical cycle")
    return Factorization(_rotate_up(g.factors, k, n), n)


# -------------------------------------------------------------- text forms

def parse_factorization(text: str, n: int | None = None) -> Factorization:
    """Parse "(1 2)(3 5)(1 3)" into a factorization; commas tolerated."""
    factors = []
    for entries in _cycle_groups(text):
        if len(entries) != 2:
            raise ValueError(f"factor {entries} is not a pair")
        a, b = entries
        factors.append((a, b) if a < b else (b, a))
    if n is None:
        n = max((b for _, b in factors), default=0)
    return Factorization(tuple(factors), n)


def factorization_to_json(f: Factorization) -> dict:
    return {"n": f.n, "factors": [list(pair) for pair in f.factors]}
