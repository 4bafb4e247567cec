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
from typing import Iterator, NamedTuple

from .permutations import FullCycle, Permutation, Transposition, _cycle_groups, swap_product
from .polynomials import BivariatePoly, json_fields


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
    """True iff f is a shortest factorization of pi.

    Checks the product and the graph criterion (the factor graph is a
    forest whose components are exactly the cycle supports of pi), and
    cross-checks the closed length formula n + 1 - c(pi); the last two
    must agree whenever the product matches.
    """
    if f.n != pi.n:
        raise ValueError(f"size mismatch: [{f.n}] vs [{pi.n}]")
    if f.product() != pi:
        return False

    roots = forest_roots(((t.lo, t.hi) for t in f.factors), f.n + 1)
    graph_ok = roots is not None
    if graph_ok:
        # each cycle lies in one component, and there are as many of each
        cycles = pi.cycles(include_fixed=True)
        graph_ok = len(set(roots)) == len(cycles) and all(
            len({roots[v] for v in c}) == 1 for c in cycles
        )

    length_ok = len(f.factors) == f.n + 1 - pi.num_cycles()
    if graph_ok != length_ok:
        raise AssertionError(f"graph and length criteria disagree on {f}")
    return graph_ok


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

    Depth-first: at step i the remaining permutation rho must lose a
    cycle, so the candidate factors are exactly the vertex pairs lying on
    a common nontrivial cycle of rho.  Candidates are tried in sorted
    order, making the stream deterministic.
    """
    m = sigma.n + 1
    rho = list(sigma.to_permutation().images)
    chosen: list[tuple[int, int]] = []

    def candidates() -> list[tuple[int, int]]:
        seen = [False] * m
        pairs = []
        for start in range(m):
            if seen[start] or rho[start] == start:
                seen[start] = True
                continue
            cycle = []
            x = start
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = rho[x]
            cycle.sort()
            for i in range(len(cycle)):
                for j in range(i + 1, len(cycle)):
                    pairs.append((cycle[i], cycle[j]))
        pairs.sort()
        return pairs

    def walk(remaining: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if remaining == 0:
            yield tuple(chosen)
            return
        for a, b in candidates():
            chosen.append((a, b))
            rho[a], rho[b] = rho[b], rho[a]
            yield from walk(remaining - 1)
            rho[a], rho[b] = rho[b], rho[a]
            chosen.pop()

    yield from walk(sigma.n)


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
    acc: dict[tuple[int, int], int] = {}
    for pairs in iter_factor_pairs(sigma):
        a_l = binom - sum(a for a, _ in pairs)
        a_u = sum(b for _, b in pairs) - binom
        acc[(a_l, a_u)] = acc.get((a_l, a_u), 0) + 1
    return BivariatePoly(acc)


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
    perm_lower: the lower sequence is a permutation of 0..n-1.  The last
    one is computed both by filtering and as the q = 0 slice of the full
    enumerator, and the two must match.
    """
    sigma = FullCycle.canonical(n)
    binom = math.comb(n, 2)
    full: dict[tuple[int, int], int] = {}
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
        full[key] = full.get(key, 0) + 1
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

    perm_poly = BivariatePoly(perm)
    if perm_poly != BivariatePoly(full).at_q(0):
        raise AssertionError("permutation-lower routes disagree")
    max_diff = BivariatePoly(by_diff[max(by_diff)]) if by_diff else BivariatePoly.one()
    return RestrictedEnumerators(
        BivariatePoly(simple),
        BivariatePoly(increasing),
        BivariatePoly(decreasing),
        max_diff,
        perm_poly,
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
        tuple(Transposition(int(a), int(b)) for a, b in factors), int(n)
    )
