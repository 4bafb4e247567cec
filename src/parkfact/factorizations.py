"""Minimal transposition factorizations of full cycles.

F_sigma is the set of length-n transposition sequences multiplying out
(left to right) to the full cycle sigma.  The enumerator walks the
"remaining" permutation rho_i = pi_i^{-1} sigma: a prefix extends to a
member of F_sigma exactly when each chosen factor has both endpoints in
one cycle of rho, so the search has no dead ends.  Lower/upper sequences,
their area statistics, the restricted families, and the rotation maps
phi_k all live here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, NamedTuple

from .permutations import FullCycle, Permutation, Transposition, _cycle_groups, swap_product
from .polynomials import BivariatePoly


@dataclass(frozen=True, slots=True)
class Factorization:
    """An ordered sequence of transpositions on the ground set [n]."""

    factors: tuple[Transposition, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if self.n < 0:
            raise ValueError(f"ground set size must be nonnegative, got n = {self.n}")
        for t in self.factors:
            if t.hi > self.n:
                raise ValueError(f"factor {t} exceeds ground set [0, {self.n}]")

    @classmethod
    def from_pairs(cls, pairs, n: int) -> "Factorization":
        """The factorization on [n] whose factors are the raw (lo, hi) pairs."""
        return cls(tuple(Transposition(a, b) for a, b in pairs), n)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The factors as raw (lo, hi) tuples, the form the kernels read."""
        return tuple((t.lo, t.hi) for t in self.factors)

    def product(self) -> Permutation:
        return Permutation(tuple(swap_product(self.pairs(), self.n)))

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return "".join(str(t) for t in self.factors)


def is_minimal_for(f: Factorization, pi: Permutation) -> bool:
    """True iff f is a shortest factorization of pi: its product is pi
    and it has the minimal length n + 1 - c(pi)."""
    if f.n != pi.n:
        raise ValueError(f"size mismatch: [{f.n}] vs [{pi.n}]")
    return f.product() == pi and len(f.factors) == f.n + 1 - pi.num_cycles()


# ------------------------------------------------------------ enumeration


def iter_factor_pairs(sigma: FullCycle) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield the factor sequences of F_sigma as raw (lo, hi) tuples.

    Depth-first, with an explicit stack: at step i the remaining
    permutation rho must lose a cycle, so the candidate factors are exactly
    the vertex pairs lying on a common nontrivial cycle of rho, tried in
    sorted order, which makes the stream deterministic.  A child's
    candidates are its parent's minus the pairs that the chosen factor
    (a b) splits apart: those with one end on the new cycle through a.
    After n - 1 factors rho is one transposition, the last factor: the
    candidate (x, y) with rho[x] == y.
    """
    n = sigma.n
    m = n + 1
    rho = list(sigma.to_permutation().images)
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    if n < 2:  # () for n = 0, ((0, 1),) for n = 1
        yield tuple(pairs)
        return
    last = n - 2
    lists = [pairs] + [None] * last  # lists[d]: the candidates at depth d
    pos = [0] * last
    chosen = [None] * last
    d = 0
    while d >= 0:
        cands = lists[d]
        if d == last:
            head = tuple(chosen)
            for pair in cands:
                a, b = pair
                rho[a], rho[b] = rho[b], rho[a]
                for p in cands:  # the one transposition left in rho
                    if rho[p[0]] == p[1]:
                        yield (*head, pair, p)
                        break
                rho[a], rho[b] = rho[b], rho[a]
            d -= 1
            continue
        if chosen[d] is not None:
            a, b = chosen[d]
            rho[a], rho[b] = rho[b], rho[a]
        i = pos[d]
        if i == len(cands):
            chosen[d] = None
            d -= 1
            continue
        pos[d] = i + 1
        chosen[d] = (a, b) = cands[i]
        rho[a], rho[b] = rho[b], rho[a]
        cycle = {a}
        x = rho[a]
        while x != a:
            cycle.add(x)
            x = rho[x]
        d += 1
        lists[d] = [p for p in cands if (p[0] in cycle) is (p[1] in cycle)]
        if d < last:
            pos[d] = 0


def enumerate_factorizations(sigma: FullCycle) -> Iterator[Factorization]:
    """Each member of F_sigma exactly once; |F_sigma| = (n+1)^(n-1)."""
    n = sigma.n
    for pairs in iter_factor_pairs(sigma):
        yield Factorization.from_pairs(pairs, n)


# ------------------------------------------------------------- statistics


def lower(f: Factorization) -> tuple[int, ...]:
    """First coordinates of the normalized factors."""
    return tuple(t.lo for t in f.factors)


def upper(f: Factorization) -> tuple[int, ...]:
    """Second coordinates of the normalized factors."""
    return tuple(t.hi for t in f.factors)


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
    pairs = f.pairs()
    if not _is_full_cycle_product(len(pairs), swap_product(pairs, f.n)):
        raise ValueError(f"{f} is not a minimal factorization of a full cycle")
    return _areas(pairs, f.n)


def area_lower(f: Factorization) -> int:
    """binom(n,2) minus the lower-sequence sum."""
    return _member_areas(f)[0]


def area_upper(f: Factorization) -> int:
    """Upper-sequence sum minus binom(n,2)."""
    return _member_areas(f)[1]


def total_difference(f: Factorization) -> int:
    """Sum of hi - lo over the factors: the lower plus the upper area."""
    return sum(_member_areas(f))


@functools.cache
def factorization_enumerator(sigma: FullCycle) -> BivariatePoly:
    """F_sigma(q,t): q^(lower area) t^(upper area) summed over F_sigma.

    A memoized walk over the remaining permutation rho, starting at sigma.
    Let S(rho) count the factor sequences that take rho to the identity
    by their lower and upper sums (A, B).  S(identity) = {(0, 0): 1}, and
    S(rho) sums, over the pairs a < b on one cycle of rho, the terms of
    S(rho with rho[a], rho[b] swapped) moved to (A + a, B + b).  At the
    root (A, B) becomes (binom(n,2) - A, B - binom(n,2)).  Every rho met
    lies on a geodesic from sigma to the identity, i.e. is a noncrossing
    partition relative to sigma, so the walk visits Catalan(n+1) states
    (1,430 at n = 7) instead of the (n+1)^(n-1) leaves.  It shares no
    code with iter_factor_pairs; the tests compare the two.
    """
    n = sigma.n
    m = n + 1

    @functools.cache  # one memo per call, dropped with the closure
    def sums(rho: tuple[int, ...]) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        seen = [False] * m
        for start in range(m):
            cycle = []
            x = start
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = rho[x]
            for a, b in combinations(sorted(cycle), 2):
                child = list(rho)
                child[a], child[b] = child[b], child[a]
                for (low, high), c in sums(tuple(child)).items():
                    key = low + a, high + b
                    out[key] = out.get(key, 0) + c
        return out or {(0, 0): 1}

    binom = math.comb(n, 2)
    root = sums(sigma.to_permutation().images)
    return BivariatePoly({(binom - low, high - binom): c for (low, high), c in root.items()})


# ------------------------------------------------------ restricted families


def is_simple(f: Factorization) -> bool:
    """Simple means the factor (0, n) occurs."""
    return any(t.lo == 0 and t.hi == f.n for t in f.factors)


def simple_index(f: Factorization) -> int:
    """1-based position of the factor (0, n); for a member of F_n the
    position is unique, and the scan insists on that."""
    hits = [i for i, t in enumerate(f.factors, start=1) if t.lo == 0 and t.hi == f.n]
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
    perm_lower: the lower sequence is a permutation of 0..n-1.  All five
    come from one pass over F_n.
    """
    sigma = FullCycle.canonical(n)
    simple: dict[tuple[int, int], int] = {}
    increasing: dict[tuple[int, int], int] = {}
    decreasing: dict[tuple[int, int], int] = {}
    perm: dict[tuple[int, int], int] = {}
    by_diff: dict[int, dict[tuple[int, int], int]] = {}
    for pairs in iter_factor_pairs(sigma):
        lows = [a for a, _ in pairs]
        key = _areas(pairs, n)
        if any(a == 0 and b == n for a, b in pairs):
            simple[key] = simple.get(key, 0) + 1
        if all(lows[i] <= lows[i + 1] for i in range(len(lows) - 1)):
            increasing[key] = increasing.get(key, 0) + 1
        if all(lows[i] >= lows[i + 1] for i in range(len(lows) - 1)):
            decreasing[key] = decreasing.get(key, 0) + 1
        if sorted(lows) == list(range(n)):
            perm[key] = perm.get(key, 0) + 1
        bucket = by_diff.setdefault(sum(key), {})
        bucket[key] = bucket.get(key, 0) + 1

    max_diff = BivariatePoly(by_diff[max(by_diff)]) if by_diff else BivariatePoly.one()
    return RestrictedEnumerators(
        BivariatePoly(simple),
        BivariatePoly(increasing),
        BivariatePoly(decreasing),
        max_diff,
        BivariatePoly(perm),
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
    if f.factors[k - 1] != Transposition(0, n):
        raise ValueError(f"factor {k} of {f} is not (0 {n})")
    if not is_minimal_for(f, FullCycle.canonical(n).to_permutation()):
        raise ValueError(f"{f} is not a minimal factorization of the canonical cycle")
    return Factorization.from_pairs(_rotate_down(f.pairs(), k), n - 1)


def phi_k_inverse(g: Factorization, k: int, n: int) -> Factorization:
    """Reinsert (0, n): the inverse rotation from F_(n-1) into F_(n,k)."""
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} outside 1..{n}")
    if not is_minimal_for(g, FullCycle.canonical(n - 1).to_permutation()):
        raise ValueError(f"{g} is not a minimal factorization of the canonical cycle")
    return Factorization.from_pairs(_rotate_up(g.pairs(), k, n), n)


# -------------------------------------------------------------- text forms

def parse_factorization(text: str, n: int | None = None) -> Factorization:
    """Parse "(1 2)(3 5)(1 3)" into a factorization; commas tolerated."""
    factors = []
    for entries in _cycle_groups(text):
        if len(entries) != 2:
            raise ValueError(f"factor {entries} is not a pair")
        factors.append(Transposition.of(*entries))
    if n is None:
        n = max((t.hi for t in factors), default=0)
    return Factorization(tuple(factors), n)


def factorization_to_json(f: Factorization) -> dict:
    return {"n": f.n, "factors": [[t.lo, t.hi] for t in f.factors]}
