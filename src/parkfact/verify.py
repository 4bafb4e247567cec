"""Named verification suites: every theorem-level claim as a desk-scale
exhaustive check.

Each suite is a check_<suite> function registered by @_suite(name, sizes,
claim), once, above its definition.  `sizes` is the range of n the suite
checks by default, or None for a suite without a size.  A sized check
tests one n and returns None on a pass or the detail of its failure, a
short serialized counterexample; a sizeless check takes no argument.  The
registered wrapper runs the check over the range, stops at the first
failure and builds the one CheckResult, whose pass line names the n range
that ran.  SUITES lists the suites in registration order, which gives
their 1-based numbers; the CLI 'verify' subcommand and the acceptance
tests run them by name or number.

The object streams run on raw tuples and pairs, each raw object passing
the membership test its value's constructor applies, and a value is
built only for a counterexample's wire text.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, combinations
from itertools import product as _cartesian
from typing import Callable

from . import arch as _arch
from . import factorizations as _fact
from . import inverse_maps as _inv
from . import parking as _park
from . import polynomials as _poly
from . import trees as _trees
from .parking import ParkingFunction
from .permutations import (
    FullCycle, full_cycles, is_unimodal, swap_product, unimodal_cycles,
)
from .polynomials import BivariatePoly


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


SUITES: dict[str, Callable[[int | None], CheckResult]] = {}
SIZELESS: set[str] = set()


def _suite(name: str, sizes: range | None, claim: str):
    """Register a check as suite `name`.  The wrapper runs the check for n
    from sizes.start to n_max (by default the last n in `sizes`), stops at
    the first failure, and on a pass reports `claim` and the n range that
    ran; an n_max below sizes.start is a ValueError, never a pass that
    checked nothing.  A suite whose sizes are None takes no n, ignores
    n_max and is listed in SIZELESS, so the CLI refuses --n for it.  The
    wrapper is both the module's check_<suite> and the SUITES value, so
    perfbench's tracer, which rebinds one object in both places, times
    every suite run in the traced process; it does not see the suites that
    `verify` sends to worker processes."""

    def register(check: Callable[..., str | None]):
        @functools.wraps(check)
        def run(n_max: int | None = None) -> CheckResult:
            if sizes is None:
                failure, passed = check(), claim
            else:
                last = sizes[-1] if n_max is None else n_max
                if last < sizes.start:
                    raise ValueError(f"suite {name} starts at n = {sizes.start}, "
                                     f"above n_max = {last}")
                # map is lazy: the first failing n ends the run
                failure = next(filter(None, map(check, range(sizes.start, last + 1))), None)
                passed = f"{claim} for n = {sizes.start}..{last}"
            return CheckResult(name, failure is None, passed if failure is None else failure)

        SUITES[name] = run
        if sizes is None:
            SIZELESS.add(name)
        return run

    return register


# --------------------------------------------------- 1: cardinalities


@_suite("cardinalities", range(7), "four families all have (n+1)^(n-1) members")
def check_cardinalities(n: int) -> str | None:
    # each raw object passes its value constructor's own membership test
    expected = _trees.tree_count(n)
    got_trees = 0
    for parent in _trees._parent_tuples(n):
        problem = _trees._tree_problem(parent)
        if problem:
            return f"T_{n}: {problem}"
        got_trees += 1
    if got_trees != expected:
        return f"|T_{n}| = {got_trees}, expected {expected}"
    got_parking = 0
    for entries in _park._parking_tuples(n):
        if not _park.is_parking(entries):
            return f"P_{n}: not a parking function: {entries}"
        got_parking += 1
    if got_parking != expected:
        return f"|P_{n}| = {got_parking}, expected {expected}"
    sigma = FullCycle.canonical(n)
    pos = sigma.positions()
    diagrams = set()
    got_fact = 0
    for pairs in _fact.iter_factor_pairs(sigma):
        problem = _fact._factors_problem(pairs, n)
        if problem:
            return f"F_{n}: {problem}"
        arcs = tuple(_arch._sigma_arcs(pairs, pos))
        problem = _arch._arcs_problem(arcs, n + 1)
        if problem:
            return f"A_{n}: {problem}"
        got_fact += 1
        diagrams.add(arcs)
    if got_fact != expected:
        return f"|F_{n}| = {got_fact}, expected {expected}"
    if len(diagrams) != expected:
        return f"|A_{n}| = {len(diagrams)}, expected {expected}"


# ------------------------------------------------ 2: polynomial pins


_I_PINS = {
    0: {(0, 0): 1},
    1: {(0, 1): 1},
    2: {(0, 2): 1, (0, 3): 1, (1, 2): 1},
    3: {
        (0, 6): 1, (1, 5): 2, (2, 4): 2, (3, 3): 1,
        (0, 5): 1, (1, 4): 1, (2, 3): 1,
        (0, 4): 3, (1, 3): 3, (0, 3): 1,
    },
}

_D_PINS = {
    0: {(0, 0): 1},
    1: {(1, 0): 1},
    2: {(2, 0): 1, (3, 0): 2},
    3: {(3, 0): 1, (4, 0): 6, (5, 0): 3, (6, 0): 6},
    4: {
        (4, 0): 1, (5, 0): 12, (6, 0): 24, (7, 0): 28,
        (8, 0): 24, (9, 0): 12, (10, 0): 24,
    },
}


@_suite("polynomial-pins", None,
        "I_0..I_3 and D_0..D_4 match their published values exactly")
def check_polynomial_pins() -> str | None:
    for n, terms in _I_PINS.items():
        got = _trees.inversion_enumerator(n)
        if got != BivariatePoly(terms):
            return f"I_{n} = {got}, expected {BivariatePoly(terms)}"
    for n, terms in _D_PINS.items():
        got = _trees.depth_enumerator(n)
        if got != BivariatePoly(terms):
            return f"D_{n} = {got}, expected {BivariatePoly(terms)}"


# --------------------------------------- 3: trees match factorizations


@_suite("tree-factorization", range(7),
        "I_n(q,t) by tree sum and by recursion = F_n(q,t) exactly")
def check_tree_factorization(n: int) -> str | None:
    # the recursion is what poly --name I|D and explore print
    recursion = _poly._tree_recursion_last(n)
    lhs = _trees.inversion_enumerator(n)
    if recursion != lhs:
        return f"n={n}: I_n by recursion = {recursion} but by tree sum = {lhs}"
    rhs = _fact.factorization_enumerator(FullCycle.canonical(n))
    if lhs != rhs:
        return f"n={n}: I_n = {lhs} but F_n = {rhs}"


# --------------------------------------------------------- 4: bounce


@_suite("bounce", range(7), "B_n = I_n = F_n and pinv+copinv = bounce")
def check_bounce(n: int) -> str | None:
    b_poly = _park.parking_enumerators(n).pinv_copinv
    i_poly = _trees.inversion_enumerator(n)
    f_poly = _fact.factorization_enumerator(FullCycle.canonical(n))
    if not (b_poly == i_poly == f_poly):
        return f"n={n}: B_n = {b_poly}, I_n = {i_poly}, F_n = {f_poly}"
    for entries in _park._parking_tuples(n):
        # two routes to one number: the contact sum, and the depth of
        # theta's tree (pinv + copinv) from the tree kernel
        _, value = _park._contacts(list(accumulate(map(len, _park._label_groups(entries)))))
        if _trees._tree_stats(_park._theta_parent(entries))[2] != value:
            return f"pinv+copinv != bounce for p={ParkingFunction(entries)}"


# ----------------------------------------------- 5: area and the lot


@_suite("area-jump", range(7), "area and jump/cojump enumerators match I_n")
def check_area_jump(n: int) -> str | None:
    enums = _park.parking_enumerators(n)
    i_poly = _trees.inversion_enumerator(n)
    if i_poly.at_t(1) != enums.area:
        return f"n={n}: I_n(q,1) != area enumerator {enums.area}"
    if enums.jump_cojump != i_poly:
        return f"n={n}: jump/cojump enumerator != I_n(q,t)"


# ------------------------------------- 6: unimodal characterization


@_suite("unimodal", range(1, 6), "L and U are bijections exactly on unimodal cycles")
def check_unimodal(n: int) -> str | None:
    expected = _trees.tree_count(n)
    unimodal_seen = 0
    for sigma in full_cycles(n):
        size = 0
        lowers = set()
        uppers = set()
        for pairs in _fact.iter_factor_pairs(sigma):
            size += 1
            lower, upper = zip(*pairs)
            lowers.add(lower)
            uppers.add(upper)
        if size != expected:
            return f"|F_sigma| = {size} for sigma={sigma}"
        # membership reads only the multiset of entries: once per content
        if not all(_park.is_parking(seq) for seq in {tuple(sorted(w)) for w in lowers}):
            return f"a lower sequence escapes P_n for sigma={sigma}"
        if not all(_park.is_major(seq) for seq in {tuple(sorted(w)) for w in uppers}):
            return f"an upper sequence escapes M_n for sigma={sigma}"
        uni = is_unimodal(sigma)
        unimodal_seen += uni
        if (len(lowers) == expected) != uni:
            return f"L bijective != unimodal for sigma={sigma} (n={n})"
        if (len(uppers) == expected) != uni:
            return f"U bijective != unimodal for sigma={sigma} (n={n})"
        if not uni:
            p, f1, f2 = _inv.non_unimodal_witness(sigma)
            if f1 == f2 or not (
                _fact.lower(f1) == _fact.lower(f2) == p.entries
                and f1.product() == f2.product() == sigma.to_permutation()
            ):
                return f"witness for sigma={sigma} is not a collision"
    if unimodal_seen != 2 ** (n - 1):
        return f"{unimodal_seen} unimodal cycles at n={n}"


# -------------------------------------------- 7: the inverse algorithm


@_suite("l-inverse", range(6), "reconstruction inverts L on every unimodal cycle")
def check_l_inverse(n: int) -> str | None:
    target_count = _trees.tree_count(n)
    for sigma in unimodal_cycles(n) if n else [FullCycle.canonical(0)]:
        left, pos = _inv._left_values(sigma), sigma.positions()
        target = list(sigma.to_permutation().images)  # turns the step checks on
        seen = set()
        for entries in _park._parking_tuples(n):
            if not _park.is_parking(entries):
                return f"P_{n}: not a parking function: {entries}"
            pairs = _inv._l_inverse(entries, _inv._order(entries, left), sigma, pos, target)
            if tuple(a for a, _ in pairs) != entries:
                p = ParkingFunction(entries)
                return f"lower(l_inverse({p}, {sigma})) != {p}"
            seen.add(pairs)
        if len(seen) != target_count:
            return f"l_inverse not injective over P_{n} for {sigma}"


# ------------------------------------------------- 8: arch criterion


def _word(pairs, n: int) -> str:
    """The wire text of a raw factor sequence, for a counterexample."""
    return str(_fact.Factorization(pairs, n))


@_suite("arch-criterion", range(1, 5),
        "membership in F_sigma matches diagram validity on the canonical "
        "cycle plus two unimodal cycles")
def check_arch_criterion(n: int) -> str | None:
    canonical = FullCycle.canonical(n)
    sigmas = [canonical] + [s for s in unimodal_cycles(n) if s != canonical][:2]
    all_pairs = list(combinations(range(n + 1), 2))
    for sigma in sigmas:
        target = list(sigma.to_permutation().images)
        pos = sigma.positions()
        for pairs in _cartesian(all_pairs, repeat=n):
            member = swap_product(pairs, n) == target
            valid = _arch._valid_runs(_arch._sigma_arcs(pairs, pos), n + 1) is not None
            if member != valid:
                detail = f"member={member}, diagram valid={valid}"
                return f"f={_word(pairs, n)}, sigma={sigma}: {detail}"


# ----------------------------------- 9: simple diagrams and rotation


@_suite("simple-decomposition", range(1, 7),
        "simple-family identity, decomposition round trip, area additivity "
        "and rotation shifts hold")
def check_simple_decomposition(n: int) -> str | None:
    lhs = _fact.restricted_enumerator(n, "simple")
    previous = _fact.factorization_enumerator(FullCycle.canonical(n - 1))
    rhs = BivariatePoly.var_t() * _poly.qt_bracket(n) * previous
    if lhs != rhs:
        return f"n={n}: simple enumerator {lhs} != t(qt n)F_(n-1) {rhs}"

    # under the canonical cycle a position is its vertex: part arcs are factors
    sigma = FullCycle.canonical(n)
    pos = sigma.positions()
    target = list(sigma.to_permutation().images)
    below = list(FullCycle.canonical(n - 1).to_permutation().images)
    part_areas_of = {}  # (part arcs, m) of each part that passed -> its areas
    for pairs in _fact.iter_factor_pairs(sigma):
        if not all(0 <= a < b <= n for a, b in pairs):
            raise AssertionError(f"factor stream yielded {pairs}, not pairs on [0, {n}]")
        arcs = _arch._sigma_arcs(pairs, pos)
        runs = _arch._valid_runs(arcs, n + 1)
        if runs is None:
            return f"diagram is not valid for f={_word(pairs, n)}"
        parts = _arch._parts(runs)
        a_l, a_u = _fact._areas(pairs, n)
        product = None
        part_areas = []
        for part_arcs, m, _ in parts:
            if (part_arcs, m) == (arcs, n + 1):
                # f is its own one part: the part's runs are f's runs, and
                # the part's product is f's
                if len(runs) != 1:
                    return f"a part of f={_word(pairs, n)} is not simple"
                product = swap_product(pairs, n)
                if product != target:
                    return f"a part of f={_word(pairs, n)} is not in F_{n}"
                part_areas.append((a_l, a_u))
                continue
            key = (tuple(part_arcs), m)
            if key not in part_areas_of:
                part_runs = _arch._valid_runs(part_arcs, m)
                if part_runs is None or len(part_runs) != 1:
                    return f"a part of f={_word(pairs, n)} is not simple"
                g = [(a, b) for a, b, _ in part_arcs]
                if swap_product(g, m - 1) != [*range(1, m), 0]:
                    return f"a part of f={_word(pairs, n)} is not in F_{m - 1}"
                part_areas_of[key] = _fact._areas(g, m - 1)
            part_areas.append(part_areas_of[key])
        labels = sorted(i for *_, index_set in parts for i in index_set)
        if labels != list(range(1, n + 1)):
            return f"index sets do not partition [1,{n}] for f={_word(pairs, n)}"
        if _arch._recompose(parts) != (arcs, n + 1):
            return f"recompose(decompose) != id for f={_word(pairs, n)}"
        if tuple(map(sum, zip(*part_areas))) != (a_l, a_u):
            return f"area additivity fails for f={_word(pairs, n)}"

        hits = [i for i, pair in enumerate(pairs, start=1) if pair == (0, n)]
        if not hits:
            continue
        if len(hits) != 1:
            return f"f={_word(pairs, n)} has {len(hits)} copies of (0 {n})"
        k = hits[0]
        if (swap_product(pairs, n) if product is None else product) != target:
            return f"f={_word(pairs, n)} is not in F_{n}"
        g = _fact._rotate_down(pairs, k)
        if swap_product(g, n - 1) != below:
            return f"phi_k leaves F_{n - 1} for f={_word(pairs, n)}, k={k}"
        g_l, g_u = _fact._areas(g, n - 1)
        if a_l != g_l + k - 1:
            return f"lower-area shift fails for f={_word(pairs, n)}, k={k}"
        if a_u != g_u + n - k + 1:
            return f"upper-area shift fails for f={_word(pairs, n)}, k={k}"
        if _fact._rotate_up(g, k, n) != pairs:
            return f"phi_k round trip fails for f={_word(pairs, n)}, k={k}"


# ------------------------------------------- 10: restricted families


@_suite("special-families", range(1, 7),
        "max-diff, increasing, decreasing and permutation-lower identities hold")
def check_special_families(n: int) -> str | None:
    r = _fact.restricted_enumerators(n)
    if r.max_diff != _poly.qt_factorial_product(n):
        return f"n={n}: max-diff enumerator is {r.max_diff}"
    top = math.comb(n + 1, 2)
    if any(eq + et != top for (eq, et), _ in r.max_diff.terms()):
        return f"n={n}: max total difference is not binom(n+1,2)"
    if r.increasing != BivariatePoly.monomial(1, 0, n) * _poly.catalan_qt(n):
        return f"n={n}: increasing enumerator is {r.increasing}"
    if r.decreasing != _poly.catalan_qt(n).at_t(1).shift_t(n):
        return f"n={n}: decreasing enumerator is {r.decreasing}"
    if any(et != n for (_, et), _ in r.decreasing.terms()):
        return f"n={n}: a decreasing factorization has upper area != n"
    f_poly = _fact.factorization_enumerator(FullCycle.canonical(n))
    i_poly = _trees.inversion_enumerator(n)
    if not (r.perm_lower == f_poly.at_q(0) == i_poly.at_q(0)):
        return f"n={n}: permutation-lower enumerator mismatch"


# ------------------------------------------------ 11: worked examples


_F9_TEXT = "(1 2)(3 5)(1 3)(7 8)(0 6)(7 9)(0 7)(1 6)(4 5)"
_F9_LOWER = (1, 3, 1, 7, 0, 7, 0, 1, 4)
_F9_UPPER = (2, 5, 3, 8, 6, 9, 7, 6, 5)

_TABLE3_C = {
    0: {5, 7}, 7: {1, 3, 8}, 8: {2}, 3: {9}, 9: {4, 6},
    1: set(), 2: set(), 4: set(), 5: set(), 6: set(),
}
_TABLE3_D = {
    0: set(range(1, 10)),
    7: set(range(1, 10)) - {5, 7},
    8: {2}, 3: {4, 6, 9}, 9: {4, 6},
    1: set(), 2: set(), 4: set(), 5: set(), 6: set(),
}

_TABLE_SIGMA = FullCycle((0, 2, 3, 5, 6, 4, 1))
_TABLE_P = ParkingFunction((2, 4, 0, 1, 4, 0))
_TABLE_CANONICAL_RESULT = "(2 3)(4 5)(0 2)(1 2)(4 6)(0 4)"
_TABLE_UNIMODAL_RESULT = "(2 3)(4 5)(0 2)(1 5)(4 6)(0 5)"


@_suite("worked-examples", None,
        "every worked-example pin (length-9 run and its pushing, bounce table, "
        "l_inverse tables, (0 1 3 2) terms) is exact")
def check_worked_examples() -> str | None:
    f9 = _fact.parse_factorization(_F9_TEXT, 9)
    if _fact.lower(f9) != _F9_LOWER:
        return f"lower(f9) = {_fact.lower(f9)}"
    if _fact.upper(f9) != _F9_UPPER:
        return f"upper(f9) = {_fact.upper(f9)}"
    if _fact.area_lower(f9) != 12 or _fact.area_upper(f9) != 15:
        return "areas of the length-9 example are off"

    p = ParkingFunction(_F9_LOWER)
    if _inv.push(p).entries != _F9_UPPER:
        return "length-9 pushing example does not reproduce the upper path"
    contacts, value = _park.bounce(p)
    if contacts != (0, 2, 5, 7, 9) or value != 22:
        return f"bounce gave contacts {contacts}, value {value}"
    w = (0, *_park.to_path(p).labels)
    if w != (0, 7, 5, 8, 3, 1, 2, 9, 6, 4):
        return f"label word w = {w}"
    tree = _park.theta(p)
    for name, sets, table in (("C", tree.children(), _TABLE3_C),
                              ("D", tree.descendants(), _TABLE3_D)):
        for v, expected in table.items():
            if set(sets[v]) != expected:
                return f"{name}[{v}] = {set(sets[v])}, expected {expected}"
    if _park.pinv(p) != 8 or _park.copinv(p) != 14:
        return f"pinv/copinv = {_park.pinv(p)}/{_park.copinv(p)}"

    got = str(_inv.l_inverse(_TABLE_P, FullCycle.canonical(6), check=True))
    if got != _TABLE_CANONICAL_RESULT:
        return f"canonical l_inverse table gave {got}"
    got = str(_inv.l_inverse(_TABLE_P, _TABLE_SIGMA, check=True))
    if got != _TABLE_UNIMODAL_RESULT:
        return f"unimodal l_inverse table gave {got}"

    poly = _fact.factorization_enumerator(FullCycle((0, 1, 3, 2)))
    if poly.coefficient(2, 5) < 1 or poly.coefficient(0, 3) < 1:
        return "enumerator of (0 1 3 2) is missing q^2 t^5 or t^3"


# --------------------------------------------- 12: pushing to the top


@_suite("pushing", range(6), "pushed labels reproduce the upper path of every p")
def check_pushing(n: int) -> str | None:
    sigma = FullCycle.canonical(n)
    left, pos = _inv._left_values(sigma), sigma.positions()
    for entries in _park._parking_tuples(n):
        if not _park.is_parking(entries):
            return f"P_{n}: not a parking function: {entries}"
        pairs = _inv._l_inverse(entries, _inv._order(entries, left), sigma, pos)
        problem = _fact._factors_problem(pairs, n)
        if problem:
            return f"l_inverse of p={ParkingFunction(entries)}: {problem}"
        rest = _inv._push(entries)
        if rest != tuple(b for _, b in pairs):
            return f"pushing misses the upper path for p={ParkingFunction(entries)}"
        if not _park.is_major(rest):
            return f"pushing p={ParkingFunction(entries)} gives {rest}, not a major sequence"


# ------------------------------------------------------- 13: symmetry


@_suite("symmetry", range(8), "t^(-n) I_n(q,t) is symmetric under q <-> t")
def check_symmetry(n: int) -> str | None:
    reduced = _trees.inversion_enumerator(n).divide_t(n)
    if reduced != reduced.swap_qt():
        return f"t^(-{n}) I_{n} is not q,t-symmetric"


# ------------------------------------------------------------ selection


_BY_NUMBER = {str(i): name for i, name in enumerate(SUITES, start=1)}


def resolve_suites(selector: str) -> list[str]:
    """Map a suite selector (name, 1-based number, or 'all') to names."""
    if selector == "all":
        return list(SUITES)
    if selector in SUITES:
        return [selector]
    if selector in _BY_NUMBER:
        return [_BY_NUMBER[selector]]
    raise ValueError(
        f"unknown suite {selector!r}; choose from "
        + ", ".join(list(SUITES) + ["all"])
    )


def run_suite(name: str, n_max: int | None = None) -> CheckResult:
    return SUITES[name](n_max)
