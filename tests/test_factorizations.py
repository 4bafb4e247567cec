import math
from itertools import combinations, permutations, product

import pytest
from oracles import factor_pairs_by_recursion, is_minimal_by_graph, product_by_compose

from parkfact.factorizations import (
    Factorization,
    area_lower,
    area_upper,
    enumerate_factorizations,
    factorization_enumerator,
    factorization_from_json,
    factorization_to_json,
    is_minimal_for,
    is_simple,
    iter_factor_pairs,
    lower,
    parse_factorization,
    phi_k,
    phi_k_inverse,
    restricted_enumerators,
    simple_index,
    total_difference,
    upper,
)
from parkfact.parking import is_major, is_parking
from parkfact.permutations import (
    FullCycle,
    Permutation,
    Transposition,
    full_cycles,
    parse_permutation,
    reflect_reverse,
)
from parkfact.polynomials import (
    BivariatePoly,
    catalan_qt,
    qt_bracket,
    qt_factorial_product,
    tree_recursion_I,
)
from parkfact.trees import inversion_enumerator, tree_count

F9 = parse_factorization("(1 2)(3 5)(1 3)(7 8)(0 6)(7 9)(0 7)(1 6)(4 5)", 9)


def fact(text, n=None):
    return parse_factorization(text, n)


class TestProduct:
    def test_listing_members(self):
        sigma2 = FullCycle.canonical(2).to_permutation()
        assert fact("(0 1)(0 2)").product() == sigma2
        assert fact("(0 2)(1 2)").product() == sigma2
        assert fact("(1 2)(0 1)").product() == sigma2

    def test_empty(self):
        assert Factorization((), 0).product() == Permutation.identity(0)

    def test_worked_example(self):
        f = fact("(2 3)(4 5)(0 2)(1 2)(4 6)(0 4)", 6)
        assert f.product() == FullCycle.canonical(6).to_permutation()

    def test_matches_compose_chain(self):
        # every transposition word of length at most n, n <= 4
        for n in range(5):
            pairs = list(combinations(range(n + 1), 2))
            for length in range(n + 1):
                for word in product(pairs, repeat=length):
                    f = Factorization(tuple(Transposition(a, b) for a, b in word), n)
                    assert f.product() == product_by_compose(f)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Factorization((), -3)


class TestMinimality:
    def test_member(self):
        sigma2 = FullCycle.canonical(2).to_permutation()
        assert is_minimal_for(fact("(0 1)(0 2)"), sigma2)

    def test_repeated_factor(self):
        assert not is_minimal_for(fact("(0 1)(0 1)", 1), Permutation.identity(1))

    def test_worked_five_factor_example(self):
        f = fact("(1 4)(1 5)(3 4)(0 2)(0 4)", 5)
        sigma = parse_permutation("(0 2 4 5 1 3)", 5)
        assert is_minimal_for(f, sigma)

    def test_forest_but_wrong_components(self):
        # two joins that realize a 3-cycle cannot be minimal for a transposition
        f = fact("(0 1)(1 2)", 2)
        assert not is_minimal_for(f, parse_permutation("(0 1)", 2))

    def test_too_long(self):
        f = fact("(0 1)(1 2)(0 2)", 2)
        assert not is_minimal_for(f, parse_permutation("(1 2)", 2))

    def test_length_formula_matches_the_graph_criterion(self):
        # every transposition word of length at most n + 1 against every
        # permutation of [0, n], n <= 3
        for n in range(4):
            perms = [Permutation(images) for images in permutations(range(n + 1))]
            pairs = list(combinations(range(n + 1), 2))
            for length in range(n + 2):
                for word in product(pairs, repeat=length):
                    f = Factorization(tuple(Transposition(a, b) for a, b in word), n)
                    for pi in perms:
                        assert is_minimal_for(f, pi) == is_minimal_by_graph(f, pi)


class TestEnumeration:
    def test_f1(self):
        assert [str(f) for f in enumerate_factorizations(FullCycle.canonical(1))] == [
            "(0 1)"
        ]

    def test_f2_listing(self):
        seen = {str(f) for f in enumerate_factorizations(FullCycle.canonical(2))}
        assert seen == {"(0 1)(0 2)", "(0 2)(1 2)", "(1 2)(0 1)"}

    def test_f0(self):
        assert [f.factors for f in enumerate_factorizations(FullCycle.canonical(0))] == [()]

    def test_deterministic(self):
        sigma = FullCycle((0, 2, 1, 3))
        first = [f.factors for f in enumerate_factorizations(sigma)]
        second = [f.factors for f in enumerate_factorizations(sigma)]
        assert first == second

    def test_counts_for_every_full_cycle(self):
        for n in range(1, 5):
            for sigma in full_cycles(n):
                members = list(enumerate_factorizations(sigma))
                assert len(members) == tree_count(n)
                assert len({f.factors for f in members}) == len(members)
                target = sigma.to_permutation()
                assert all(f.product() == target for f in members)

    def test_stream_matches_the_recursive_walk(self):
        cycles = [sigma for n in range(6) for sigma in full_cycles(n)]
        for sigma in cycles + [FullCycle.canonical(6)]:
            assert list(iter_factor_pairs(sigma)) == list(factor_pairs_by_recursion(sigma))

    def test_count_at_seven(self):
        sigma = FullCycle.canonical(7)
        assert sum(1 for _ in iter_factor_pairs(sigma)) == tree_count(7)

    def test_non_canonical_example(self):
        sigma = FullCycle((0, 1, 3, 2))
        members = {str(f) for f in enumerate_factorizations(sigma)}
        assert len(members) == 16
        assert "(0 3)(1 3)(0 2)" in members
        assert "(1 2)(0 1)(2 3)" in members

    def test_every_member_is_minimal(self):
        for sigma in full_cycles(4):
            target = sigma.to_permutation()
            for f in enumerate_factorizations(sigma):
                assert is_minimal_for(f, target)

    @pytest.mark.slow
    def test_trees_match_factorizations_at_eight(self):
        # opt-in (pytest -m slow): 4.78M trees and 4.78M factorizations
        series = tree_recursion_I(8)
        assert inversion_enumerator(8) == factorization_enumerator(FullCycle.canonical(8))
        assert inversion_enumerator(8) == series[8]


class TestSequences:
    def test_worked_example(self):
        assert lower(F9) == (1, 3, 1, 7, 0, 7, 0, 1, 4)
        assert upper(F9) == (2, 5, 3, 8, 6, 9, 7, 6, 5)

    def test_single(self):
        f = fact("(0 1)")
        assert lower(f) == (0,) and upper(f) == (1,)

    def test_lower_parks_and_upper_majors_for_every_cycle(self):
        for n in range(1, 5):
            for sigma in full_cycles(n):
                for f in enumerate_factorizations(sigma):
                    assert is_parking(lower(f))
                    assert is_major(upper(f))


class TestAreas:
    def test_worked_example(self):
        assert area_lower(F9) == 12
        assert area_upper(F9) == 15
        assert total_difference(F9) == 27

    def test_single(self):
        f = fact("(0 1)")
        assert (area_lower(f), area_upper(f), total_difference(f)) == (0, 1, 1)

    def test_open_question_example(self):
        f = fact("(0 3)(1 3)(0 2)", 3)
        assert (area_lower(f), area_upper(f)) == (2, 5)

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            area_lower(fact("(0 1)(0 1)", 1))
        with pytest.raises(ValueError):
            area_lower(fact("(0 1)", 2))


class TestEnumerator:
    def test_sigma2(self):
        assert factorization_enumerator(FullCycle.canonical(2)) == BivariatePoly(
            {(1, 2): 1, (0, 3): 1, (0, 2): 1}
        )

    def test_sigma0(self):
        assert factorization_enumerator(FullCycle.canonical(0)) == BivariatePoly.one()

    def test_unimodal_counterexample_terms(self):
        poly = factorization_enumerator(FullCycle((0, 1, 3, 2)))
        assert poly.coefficient(2, 5) >= 1
        assert poly.coefficient(0, 3) >= 1
        assert poly != inversion_enumerator(3)

    def test_matches_trees(self):
        for n in range(5):
            assert factorization_enumerator(FullCycle.canonical(n)) == (
                inversion_enumerator(n)
            )


class TestRestricted:
    def test_simple_pin(self):
        assert restricted_enumerators(2).simple == BivariatePoly(
            {(1, 2): 1, (0, 3): 1}
        )

    def test_increasing_pin(self):
        r = restricted_enumerators(2)
        assert r.increasing == BivariatePoly({(1, 2): 1, (0, 3): 1})
        assert r.increasing == BivariatePoly.monomial(1, 0, 2) * catalan_qt(2)

    def test_max_diff_pin(self):
        r = restricted_enumerators(2)
        assert r.max_diff == BivariatePoly({(0, 3): 1, (1, 2): 1})
        assert r.max_diff == qt_factorial_product(2)

    def test_simple_identity(self):
        t = BivariatePoly.var_t()
        for n in range(1, 5):
            assert restricted_enumerators(n).simple == t * qt_bracket(n) * (
                factorization_enumerator(FullCycle.canonical(n - 1))
            )

    def test_increasing_decreasing_identities(self):
        for n in range(1, 5):
            r = restricted_enumerators(n)
            assert r.increasing == BivariatePoly.monomial(1, 0, n) * catalan_qt(n)
            assert r.decreasing == catalan_qt(n).at_t(1).shift_t(n)

    def test_decreasing_upper_area_is_n(self):
        for n in range(1, 5):
            for f in enumerate_factorizations(FullCycle.canonical(n)):
                lows = lower(f)
                if all(lows[i] >= lows[i + 1] for i in range(n - 1)):
                    assert area_upper(f) == n

    def test_perm_lower_identity(self):
        for n in range(1, 5):
            r = restricted_enumerators(n)
            assert r.perm_lower == inversion_enumerator(n).at_q(0)

    def test_max_diff_is_triangle_number(self):
        for n in range(1, 5):
            diffs = {
                total_difference(f)
                for f in enumerate_factorizations(FullCycle.canonical(n))
            }
            assert max(diffs) == math.comb(n + 1, 2)


class TestSimpleAndPhi:
    def test_simple_detection(self):
        assert is_simple(fact("(0 1)(0 2)"))
        assert not is_simple(fact("(1 2)(0 1)"))
        assert simple_index(fact("(0 1)(0 2)")) == 2
        with pytest.raises(ValueError):
            simple_index(fact("(1 2)(0 1)"))

    def test_unique_simple_factor_in_members(self):
        for n in range(1, 6):
            for f in enumerate_factorizations(FullCycle.canonical(n)):
                hits = [t for t in f.factors if t == Transposition(0, n)]
                assert len(hits) <= 1
                if hits:
                    assert simple_index(f) == f.factors.index(hits[0]) + 1

    def test_phi_worked_examples(self):
        f = fact("(0 1)(0 2)")
        g = phi_k(f, 2)
        assert str(g) == "(0 1)" and g.n == 1
        assert (area_lower(f), area_upper(f)) == (1, 2)
        assert (area_lower(g), area_upper(g)) == (0, 1)

        f = fact("(0 2)(1 2)")
        g = phi_k(f, 1)
        assert str(g) == "(0 1)"
        assert (area_lower(f) - area_lower(g), area_upper(f) - area_upper(g)) == (0, 2)

    def test_phi_requires_the_simple_factor(self):
        with pytest.raises(ValueError):
            phi_k(fact("(0 1)(0 2)"), 1)

    def test_phi_round_trip_and_shifts(self):
        for n in range(1, 6):
            for f in enumerate_factorizations(FullCycle.canonical(n)):
                if not is_simple(f):
                    continue
                k = simple_index(f)
                g = phi_k(f, k)
                assert g.product() == FullCycle.canonical(n - 1).to_permutation()
                assert area_lower(f) == area_lower(g) + k - 1
                assert area_upper(f) == area_upper(g) + n - k + 1
                assert phi_k_inverse(g, k, n) == f


class TestDuality:
    def test_upper_is_complement_reverse_of_reflected_lower(self):
        for n in range(1, 6):
            for f in enumerate_factorizations(FullCycle.canonical(n)):
                reflected = reflect_reverse(f)
                expected = tuple(n - a for a in reversed(lower(reflected)))
                assert upper(f) == expected

    def test_reflect_reverse_permutes_the_family(self):
        for n in range(1, 5):
            family = {f.factors for f in enumerate_factorizations(FullCycle.canonical(n))}
            assert {reflect_reverse(Factorization(fs, n)).factors for fs in family} == family


class TestTextForms:
    def test_parse_infers_n(self):
        assert fact("(0 1)(0 2)").n == 2

    def test_parse_whitespace_and_commas(self):
        assert fact(" (1, 2) ( 0 1 ) ").factors == (
            Transposition(1, 2),
            Transposition(0, 1),
        )

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            fact("(1 2) junk")
        with pytest.raises(ValueError):
            fact("(1 2 3)")

    def test_json_round_trip(self):
        obj = factorization_to_json(F9)
        assert obj["n"] == 9
        assert factorization_from_json(obj) == F9

    def test_json_missing_key(self):
        with pytest.raises(ValueError, match="keys n, factors"):
            factorization_from_json({"n": 9})
