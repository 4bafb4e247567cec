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
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .permutations import FullCycle, Permutation, Transposition, _cycle_groups, swap_product
from .polynomials import BivariatePoly, json_fields, json_int, json_ints


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

    def product(self) -> Permutation:
        pairs = [(t.lo, t.hi) for t in self.factors]
        return Permutation(tuple(swap_product(pairs, self.n)))

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
        yield Factorization(tuple(Transposition(a, b) for a, b in pairs), n)


# ------------------------------------------------------------- statistics


def lower(f: Factorization) -> tuple[int, ...]:
    """First coordinates of the normalized factors."""
    return tuple(t.lo for t in f.factors)


def upper(f: Factorization) -> tuple[int, ...]:
    """Second coordinates of the normalized factors."""
    return tuple(t.hi for t in f.factors)


def _require_full_cycle_member(f: Factorization) -> None:
    if len(f.factors) != f.n:
        raise ValueError(f"{f} has {len(f.factors)} factors, expected {f.n}")
    pi = f.product()
    if pi.num_cycles() != 1:
        raise ValueError(f"{f} is not a minimal factorization of a full cycle")


def area_lower(f: Factorization) -> int:
    """binom(n,2) minus the lower-sequence sum."""
    _require_full_cycle_member(f)
    return math.comb(f.n, 2) - sum(lower(f))


def area_upper(f: Factorization) -> int:
    """Upper-sequence sum minus binom(n,2)."""
    _require_full_cycle_member(f)
    return sum(upper(f)) - math.comb(f.n, 2)


def total_difference(f: Factorization) -> int:
    """Sum of hi - lo over the factors; the area between the two paths."""
    _require_full_cycle_member(f)
    return sum(t.hi - t.lo for t in f.factors)


@functools.cache
def factorization_enumerator(sigma: FullCycle) -> BivariatePoly:
    """F_sigma(q,t): q^(lower area) t^(upper area) summed over F_sigma."""
    n = sigma.n
    binom = math.comb(n, 2)
    counts: Counter[tuple[int, int]] = Counter()
    for pairs in iter_factor_pairs(sigma):
        lows, highs = zip(*pairs) if pairs else ((), ())
        counts[binom - sum(lows), sum(highs) - binom] += 1
    return BivariatePoly(counts)


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
    binom = math.comb(n, 2)
    simple: dict[tuple[int, int], int] = {}
    increasing: dict[tuple[int, int], int] = {}
    decreasing: dict[tuple[int, int], int] = {}
    perm: dict[tuple[int, int], int] = {}
    by_diff: dict[int, dict[tuple[int, int], int]] = {}
    for pairs in iter_factor_pairs(sigma):
        lows = [a for a, _ in pairs]
        a_l = binom - sum(lows)
        a_u = sum(b for _, b in pairs) - binom
        key = (a_l, a_u)
        if any(a == 0 and b == n for a, b in pairs):
            simple[key] = simple.get(key, 0) + 1
        if all(lows[i] <= lows[i + 1] for i in range(len(lows) - 1)):
            increasing[key] = increasing.get(key, 0) + 1
        if all(lows[i] >= lows[i + 1] for i in range(len(lows) - 1)):
            decreasing[key] = decreasing.get(key, 0) + 1
        if sorted(lows) == list(range(n)):
            perm[key] = perm.get(key, 0) + 1
        bucket = by_diff.setdefault(a_l + a_u, {})
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


def _conjugate_down(t: Transposition) -> Transposition:
    # sigma_n t sigma_n^{-1} for a factor not moving 0: both endpoints drop
    return Transposition(t.lo - 1, t.hi - 1)


def _conjugate_up(t: Transposition) -> Transposition:
    return Transposition(t.lo + 1, t.hi + 1)


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
    full_cycle = FullCycle.canonical(n).to_permutation()
    if f.product() != full_cycle:
        raise ValueError(f"{f} is not a factorization of the canonical cycle")
    rotated = tuple(_conjugate_down(t) for t in f.factors[k:]) + f.factors[: k - 1]
    return Factorization(rotated, n - 1)


def phi_k_inverse(g: Factorization, k: int, n: int) -> Factorization:
    """Reinsert (0, n): the inverse rotation from F_(n-1) into F_(n,k)."""
    if len(g.factors) != n - 1:
        raise ValueError(f"{g} should have {n - 1} factors")
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} outside 1..{n}")
    if g.product() != FullCycle.canonical(n - 1).to_permutation():
        raise ValueError(f"{g} is not a factorization of the canonical cycle")
    head = g.factors[n - k :]
    tail = tuple(_conjugate_up(t) for t in g.factors[: n - k])
    return Factorization(head + (Transposition(0, n),) + tail, n)


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


def factorization_from_json(obj: dict) -> Factorization:
    n, factors = json_fields(obj, "n", "factors")
    return Factorization(
        tuple(Transposition(a, b) for a, b in json_ints(factors, 2)), json_int(n)
    )
