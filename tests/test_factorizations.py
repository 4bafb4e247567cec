import math
import tracemalloc
from itertools import combinations, permutations, product, zip_longest

import pytest
from oracles import (
    cycle_class_by_group_maps,
    factor_pairs_by_recursion,
    factorization_enumerator_by_stream,
    factorization_enumerator_by_walk,
    is_minimal_by_graph,
    product_by_compose,
    restricted_enumerators_by_stream,
    restricted_enumerators_by_walk,
)

from parkfact import factorizations
from parkfact.factorizations import (
    Factorization,
    RestrictedEnumerators,
    _rotate_down,
    _rotate_up,
    area_lower,
    area_upper,
    enumerate_factorizations,
    factorization_enumerator,
    factorization_to_json,
    is_minimal_for,
    is_simple,
    iter_factor_pairs,
    lower,
    parse_factorization,
    phi_k,
    phi_k_inverse,
    reflect_conjugate,
    reflect_reverse,
    restricted_enumerator,
    restricted_enumerators,
    simple_index,
    total_difference,
    upper,
)
from parkfact.parking import is_major, is_parking, parking_enumerators
from parkfact.permutations import (
    FullCycle,
    Permutation,
    full_cycles,
    parse_permutation,
    unimodal_cycles,
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
                    f = Factorization(word, n)
                    assert f.product() == product_by_compose(f)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Factorization((), -3)

    def test_factors_are_raw_pairs(self):
        f = Factorization(((0, 1),), 1)
        assert f.factors == ((0, 1),) and str(f) == "(0 1)"
        assert f.product() == FullCycle.canonical(1).to_permutation()

    @pytest.mark.parametrize("factor, message", [
        ((1, 0), r"0 <= lo < hi, got \(1, 0\)"),
        ((0, 2), r"factor \(0 2\) exceeds ground set \[0, 1\]"),
        ((0, 1, 1), r"factor \(0, 1, 1\) is not a pair of ints"),
        ((0, "1"), r"factor \(0, '1'\) is not a pair of ints"),
    ])
    def test_rejects_malformed_factor(self, factor, message):
        with pytest.raises(ValueError, match=message):
            Factorization((factor,), 1)


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
                    f = Factorization(word, n)
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

    @pytest.mark.slow
    def test_stream_matches_the_recursive_walk_at_seven(self):
        # opt-in (pytest -m slow): 262,144 sequences, compared one by one
        sigma = FullCycle.canonical(7)
        pairs = zip_longest(iter_factor_pairs(sigma), factor_pairs_by_recursion(sigma))
        assert all(ours == theirs for ours, theirs in pairs)

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
        # opt-in (pytest -m slow): 4.78M trees, factor sequences and parking
        # functions; F_8 from the block recursion and, leaf by leaf, from the
        # stream; B_8 comes from the parking enumerators, as poly --name B
        i8 = inversion_enumerator(8)
        assert i8 == factorization_enumerator(FullCycle.canonical(8))
        assert i8 == factorization_enumerator_by_stream(FullCycle.canonical(8))
        assert i8 == parking_enumerators(8).pinv_copinv
        assert i8 == tree_recursion_I(8)[8]
        reduced = i8.divide_t(8)
        assert reduced == reduced.swap_qt()


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
        # multiplies out to the full cycle (0 1), but with three factors
        with pytest.raises(ValueError):
            total_difference(fact("(0 1)(0 1)(0 1)", 1))


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

    def test_block_recursion_matches_the_stream(self):
        sigmas = [sigma for n in range(6) for sigma in full_cycles(n)]
        assert len(sigmas) == 154
        for sigma in [*sigmas, FullCycle.canonical(6)]:
            assert factorization_enumerator(sigma) == (
                factorization_enumerator_by_stream(sigma)
            ), sigma

    def test_block_recursion_matches_the_walk_on_unimodal_cycles(self):
        # past the stream's reach: the walk over whole permutations pins
        # each first factor's split into its two child cycles
        sigmas = list(unimodal_cycles(6))
        assert len(sigmas) == 32
        for sigma in sigmas:
            assert factorization_enumerator(sigma) == (
                factorization_enumerator_by_walk(sigma)
            ), sigma

    @pytest.mark.slow
    def test_block_recursion_matches_the_walk_at_six(self):
        # opt-in (pytest -m slow): all 720 full cycles at n = 6
        for sigma in full_cycles(6):
            assert factorization_enumerator(sigma) == (
                factorization_enumerator_by_walk(sigma)
            ), sigma

    def test_memory_at_eight(self):
        # the walk over whole permutations peaked at 10.0 MiB here, the
        # block recursion at 2.7 MiB
        factorization_enumerator.cache_clear()
        tracemalloc.start()
        try:
            f_8 = factorization_enumerator(FullCycle.canonical(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            factorization_enumerator.cache_clear()
        assert f_8.eval(1, 1) == 9**7
        assert peak < 5 * 2**20, peak


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

    def test_each_family_alone_matches_the_stream(self):
        for n in range(6):
            stream = restricted_enumerators_by_stream(n)
            for family in RestrictedEnumerators._fields:
                assert restricted_enumerator(n, family) == getattr(stream, family), (n, family)
        with pytest.raises(ValueError, match="unknown restricted family 'all'"):
            restricted_enumerator(3, "all")

    def test_perm_lower_identity(self):
        for n in range(1, 5):
            r = restricted_enumerators(n)
            assert r.perm_lower == inversion_enumerator(n).at_q(0)

    def test_block_recursion_matches_the_stream(self):
        for n in range(7):
            blocks, stream = restricted_enumerators(n), restricted_enumerators_by_stream(n)
            for field in RestrictedEnumerators._fields:
                assert getattr(blocks, field) == getattr(stream, field), (n, field)

    def test_block_recursion_matches_the_walk(self):
        # increasing and decreasing see the order of the lower letters, so
        # they fail if a first factor's ends go to the wrong child cycles
        for n in range(9):
            blocks, walk = restricted_enumerators(n), restricted_enumerators_by_walk(n)
            for field in RestrictedEnumerators._fields:
                assert getattr(blocks, field) == getattr(walk, field), (n, field)

    def test_closed_forms_past_brute_force(self):
        t = BivariatePoly.var_t()
        for n in (7, 8):
            r = restricted_enumerators(n)
            assert r.increasing == BivariatePoly.monomial(1, 0, n) * catalan_qt(n)
            assert r.decreasing == catalan_qt(n).at_t(1).shift_t(n)
            assert r.max_diff == qt_factorial_product(n)
            assert r.simple == t * qt_bracket(n) * (
                factorization_enumerator(FullCycle.canonical(n - 1))
            )

    def test_the_enumerators_read_no_stream(self, monkeypatch):
        def refuse(sigma):
            raise AssertionError("the factor stream was read")

        caches = (factorization_enumerator, restricted_enumerators)
        for cached in caches:
            cached.cache_clear()
        monkeypatch.setattr(factorizations, "iter_factor_pairs", refuse)
        try:
            assert factorization_enumerator(FullCycle.canonical(5)) == inversion_enumerator(5)
            r = restricted_enumerators(5)
            assert r.perm_lower == inversion_enumerator(5).at_q(0)
            assert r.max_diff == qt_factorial_product(5)
        finally:
            for cached in caches:
                cached.cache_clear()

    @pytest.mark.slow
    def test_block_recursion_matches_the_stream_at_seven(self):
        # opt-in (pytest -m slow): all five families, 262,144 leaves
        assert restricted_enumerators(7) == restricted_enumerators_by_stream(7)

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
                hits = [t for t in f.factors if t == (0, n)]
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
        # multiplies out to the canonical cycle, but is not minimal
        with pytest.raises(ValueError):
            phi_k(fact("(0 1)(0 1)(0 1)(0 2)"), 4)

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

    def test_rotations_equal_their_kernels(self):
        for n in range(1, 6):
            for f in enumerate_factorizations(FullCycle.canonical(n)):
                if not is_simple(f):
                    continue
                k = simple_index(f)
                g = phi_k(f, k)
                assert g.factors == _rotate_down(f.factors, k)
                assert phi_k_inverse(g, k, n).factors == _rotate_up(g.factors, k, n)


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


def class_members(n):
    """Each class of full cycles on [n] under inversion and reflection once,
    as the visit words of its members, found without full_cycle_classes."""
    for sigma in full_cycles(n):
        members = cycle_class_by_group_maps(sigma)
        if sigma.word == min(members):
            yield members


def inverse_of(sigma):
    return FullCycle.from_permutation(sigma.to_permutation().inverse())


def assert_the_polynomial_laws(n):
    for sigma in full_cycles(n):
        poly = factorization_enumerator(sigma)
        assert factorization_enumerator(inverse_of(sigma)) == poly, sigma
        mirrored = poly.divide_t(n).swap_qt().shift_t(n)
        assert factorization_enumerator(reflect_conjugate(sigma)) == mirrored, sigma


class TestCycleClasses:
    # the unimodal suite streams one cycle per class and carries each
    # verdict to the rest of the class by these two maps
    def test_both_maps_carry_each_family_onto_its_image(self):
        for n in range(1, 6):
            for members in class_members(n):
                families = {w: set(iter_factor_pairs(FullCycle(w))) for w in members}
                for word, family in families.items():
                    sigma = FullCycle(word)
                    assert len(family) == tree_count(n), sigma
                    reversed_family = {pairs[::-1] for pairs in family}
                    assert reversed_family == families[inverse_of(sigma).word], sigma
                    # reflect_conjugate on raw pairs (its values: the next test)
                    mirrored = {tuple((n - b, n - a) for a, b in pairs) for pairs in family}
                    assert mirrored == families[reflect_conjugate(sigma).word], sigma

    def test_reflection_turns_lower_letters_into_n_minus_upper_letters(self):
        for n in range(1, 5):
            for sigma in full_cycles(n):
                for f in enumerate_factorizations(sigma):
                    g = reflect_conjugate(f)
                    assert lower(g) == tuple(n - b for b in upper(f))
                    assert upper(g) == tuple(n - a for a in lower(f))

    def test_the_polynomial_laws(self):
        # F_(sigma^-1) = F_sigma and F_(gamma sigma gamma) is F_sigma with
        # the areas exchanged: q^(u - n) t^(l + n) for each q^l t^u
        for n in range(1, 6):
            assert_the_polynomial_laws(n)

    @pytest.mark.slow
    def test_the_polynomial_laws_at_six(self):
        # opt-in (pytest -m slow): all 720 full cycles at n = 6
        assert_the_polynomial_laws(6)


class TestTextForms:
    def test_parse_infers_n(self):
        assert fact("(0 1)(0 2)").n == 2

    def test_parse_whitespace_and_commas(self):
        assert fact(" (1, 2) ( 0 1 ) ").factors == ((1, 2), (0, 1))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            fact("(1 2) junk")
        with pytest.raises(ValueError):
            fact("(1 2 3)")

    def test_json_round_trip(self):
        obj = factorization_to_json(F9)
        assert obj["n"] == 9
        assert Factorization(tuple(map(tuple, obj["factors"])), obj["n"]) == F9
