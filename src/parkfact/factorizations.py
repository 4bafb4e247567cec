"""Minimal transposition factorizations of full cycles.

F_sigma is the set of length-n transposition sequences multiplying out
(left to right) to the full cycle sigma.  Both routes through it follow
the "remaining" permutation rho_i = pi_i^{-1} sigma: a prefix extends to
a member of F_sigma exactly when each chosen factor has both endpoints
in one cycle of rho, so the search has no dead ends.  The factor stream
reads that rule from the per-call memo of _moves and lists the members
one by one, for per-object checks.  F_sigma(q,t) and the five restricted
families of F_n sum by cycle instead: factors on disjoint cycles commute,
so one memoized recursion over single cycles multiplies children's sums.
Lower/upper sequences, their area statistics, the rotation maps phi_k
and the reflections also live here.  A Factorization holds its factors
as the raw (lo, hi) pairs that every kernel reads; its constructor is
the one place a factor is checked.
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
        object.__setattr__(self, "factors", tuple(self.factors))
        problem = _factors_problem(self.factors, self.n)
        if problem:
            raise ValueError(problem)

    def product(self) -> Permutation:
        return Permutation(tuple(swap_product(self.factors, self.n)))

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return "".join(f"({a} {b})" for a, b in self.factors)


def _factors_problem(factors: tuple, n: int) -> str | None:
    """Why the factors are not transpositions on [n], or None: the
    Factorization constructor's test, for raw pairs too."""
    # checked in this order: every factor's shape and order, n, every range
    for pair in factors:
        if not (type(pair) is tuple and len(pair) == 2
                and type(pair[0]) is type(pair[1]) is int):
            return f"factor {pair!r} is not a pair of ints"
        if not 0 <= pair[0] < pair[1]:
            return f"transposition needs 0 <= lo < hi, got {pair}"
    if n < 0:
        return f"ground set size must be nonnegative, got n = {n}"
    for a, b in factors:
        if b > n:
            return f"factor ({a} {b}) exceeds ground set [0, {n}]"
    return None


def is_minimal_for(f: Factorization, pi: Permutation) -> bool:
    """True iff f is a shortest factorization of pi: its product is pi
    and it has the minimal length n + 1 - c(pi)."""
    if f.n != pi.n:
        raise ValueError(f"size mismatch: [{f.n}] vs [{pi.n}]")
    return f.product() == pi and len(f.factors) == f.n + 1 - pi.num_cycles()


def reflect_conjugate(value):
    """Conjugation by the order-reversing involution gamma: i -> n - i.

    Full cycles map to the conjugated cycle re-rooted at 0; factorizations
    map factor-wise, (a, b) to (n - b, n - a), carrying F_sigma onto
    F_(gamma sigma gamma).
    """
    if isinstance(value, FullCycle):
        m = value.n
        flipped = tuple(m - v for v in value.word)
        zero_at = flipped.index(0)
        return FullCycle(flipped[zero_at:] + flipped[:zero_at])
    if isinstance(value, Factorization):
        m = value.n
        return Factorization(tuple((m - b, m - a) for a, b in value.factors), m)
    raise TypeError(f"cannot reflect a {type(value).__name__}")


def reflect_reverse(factorization):
    """Conjugate every factor by i -> n - i, then reverse factor order.

    This is the involution on F_n that exchanges the lower and upper
    sequences up to complement-reverse.
    """
    if not isinstance(factorization, Factorization):
        raise TypeError("reflect_reverse expects a factorization")
    m = factorization.n
    return Factorization(tuple((m - b, m - a) for a, b in reversed(factorization.factors)), m)


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


def _is_full_cycle_product(length: int, pi: Permutation) -> bool:
    """True iff `length` factors with product pi form a minimal
    factorization of a full cycle: n factors, one cycle through [n]."""
    return length == pi.n and pi.num_cycles() == 1


def _areas(pairs, n: int) -> tuple[int, int]:
    """Lower and upper area of raw pairs on [n]; callers test membership."""
    binom = math.comb(n, 2)
    return binom - sum(a for a, _ in pairs), sum(b for _, b in pairs) - binom


def _member_areas(f: Factorization) -> tuple[int, int]:
    if not _is_full_cycle_product(len(f), f.product()):
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


def _block_sums(sigma: FullCycle, family: str = "") -> BivariatePoly:
    """q^(lower area) t^(upper area) summed over the members of F_sigma in
    `family`: all for "", else "without_top" (no factor (0, n)) or a family
    of restricted_enumerators.

    Factors on disjoint cycles commute, so the sum S(C) over a cycle
    (x_0 ... x_(k-1)) of rho sums q^a t^b C(k-2, |C1|-1) S(C1) S(C2) over
    its first factors (x_i x_j), i < j, ends a < b, with C1 = (x_(i+1) ...
    x_j), C2 = (x_(j+1) ... x_i) and S of a point 1.  A family is a rule on
    the first factor: a within the parent's bound, the children's bound a,
    one shuffle (lower letters of disjoint cycles differ); or a the largest
    point of its child.  The memo key is the cycle from its least point.
    """
    n = sigma.n
    monotone = family in ("increasing", "decreasing")

    @functools.cache  # one memo per call, dropped with the closure
    def sums(cycle: tuple[int, ...], bound: int) -> dict[tuple[int, int], int]:
        k = len(cycle)
        out = {} if k > 1 else {(0, 0): 1}
        for i in range(k - 1):
            for j in range(i + 1, k):
                a, b = sorted((cycle[i], cycle[j]))
                if (family == "without_top" and (a, b) == (0, n)
                        or family == "increasing" and a < bound
                        or family == "decreasing" and a > bound):
                    continue
                left, right = cycle[i + 1 : j + 1], cycle[: i + 1] + cycle[j + 1 :]
                if family == "perm_lower" and a != max(left if a == cycle[j] else right):
                    continue
                weight, child_bound = (1, a) if monotone else (math.comb(k - 2, j - i - 1), bound)
                m = left.index(min(left))  # right already begins at x_0, its least point
                inner = sums(right, child_bound).items()
                for (low, high), c in sums(left[m:] + left[:m], child_bound).items():
                    low, high, c = low + a, high + b, c * weight
                    for (low2, high2), d in inner:
                        key = low + low2, high + high2
                        out[key] = out.get(key, 0) + c * d
        return out

    binom = math.comb(n, 2)
    root = sums(sigma.word, n if family == "decreasing" else 0)
    return BivariatePoly({(binom - low, high - binom): c for (low, high), c in root.items()})


@functools.cache
def factorization_enumerator(sigma: FullCycle) -> BivariatePoly:
    """F_sigma(q,t): q^(lower area) t^(upper area) summed over F_sigma."""
    return _block_sums(sigma)


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


def restricted_enumerator(n: int, family: str) -> BivariatePoly:
    """The area enumerator of one restricted family inside F_n, a field
    name of RestrictedEnumerators, computed alone.

    simple: contains the factor (0, n); increasing / decreasing: lower
    sequence weakly monotone; max_diff: maximum total difference;
    perm_lower: the lower sequence is a permutation of 0..n-1.  simple is
    F_n minus the members without (0, n); the total degree of a term is
    the total difference, so max_diff is the top-degree part of F_n.
    """
    sigma = FullCycle.canonical(n)
    if family == "simple":
        return factorization_enumerator(sigma) - _block_sums(sigma, "without_top")
    if family == "max_diff":
        f_n = factorization_enumerator(sigma)
        return BivariatePoly({k: c for k, c in f_n.terms() if sum(k) == f_n.degree})
    if family not in RestrictedEnumerators._fields:
        raise ValueError(f"unknown restricted family {family!r}")
    return _block_sums(sigma, family)


@functools.cache
def restricted_enumerators(n: int) -> RestrictedEnumerators:
    """Area enumerators of all five restricted families inside F_n."""
    return RestrictedEnumerators(
        *(restricted_enumerator(n, family) for family in RestrictedEnumerators._fields))


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
