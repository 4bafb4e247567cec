import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import is_unimodal_by_rise_fall, window_cycles_by_cycles

from parkfact.arch import ArchDiagram
from parkfact.factorizations import (
    Factorization,
    parse_factorization,
    reflect_conjugate,
    reflect_reverse,
)
from parkfact.parking import LabelledDyckPath
from parkfact.permutations import (
    FullCycle,
    Permutation,
    compose,
    format_permutation,
    full_cycles,
    is_unimodal,
    parse_full_cycle,
    parse_permutation,
    swap_product,
    unimodal_cycles,
    window_cycles,
)
from parkfact.trees import LabelledTree


def perm(text, n):
    return parse_permutation(text, n)


perms_of_4 = st.permutations(list(range(5))).map(lambda xs: Permutation(tuple(xs)))


class TestCompose:
    def test_left_to_right_examples(self):
        sigma2 = FullCycle.canonical(2).to_permutation()
        assert compose(perm("(0 1)", 2), perm("(0 2)", 2)) == sigma2
        assert compose(perm("(1 2)", 2), perm("(0 1)", 2)) == sigma2

    def test_identity(self):
        pi = perm("(0 3 1)", 4)
        assert compose(Permutation.identity(4), pi) == pi
        assert compose(pi, Permutation.identity(4)) == pi

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation.identity(2), Permutation.identity(3))

    @given(perms_of_4, perms_of_4, perms_of_4)
    def test_associativity(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(perms_of_4)
    def test_inverse(self, a):
        assert compose(a, a.inverse()) == Permutation.identity(4)

    def test_operator_is_left_to_right(self):
        a, b = perm("(0 1)", 2), perm("(0 2)", 2)
        assert (a * b)(1) == b(a(1))

    def test_operator_follows_the_number_protocol(self):
        # a non-permutation operand gets NotImplemented, so Python raises
        # TypeError instead of reaching into an int's images
        p, q = perm("(0 1)", 1), perm("(0 1)", 1)
        with pytest.raises(TypeError):
            p * 3
        with pytest.raises(TypeError):
            3 * p
        assert p * q == compose(p, q) == Permutation.identity(1)


class TestCycleForm:
    def test_normal_form(self):
        pi = Permutation((1, 0, 3, 4, 2))
        assert format_permutation(pi) == "(0 1)(2 3 4)"
        assert format_permutation(Permutation.identity(3)) == "()"

    def test_parse_round_trip(self):
        pi = perm("( 2 4 )( 0 1 3 )", 5)
        assert parse_permutation(format_permutation(pi), 5) == pi

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            perm("(0 1)(1 2)", 3)

    def test_num_cycles_counts_fixed_points(self):
        assert perm("(0 1)", 4).num_cycles() == 4


class TestTransposition:
    # a transposition is a raw (lo, hi) factor of a factorization
    def test_normalization_required(self):
        with pytest.raises(ValueError, match=r"0 <= lo < hi, got \(2, 1\)"):
            Factorization(((2, 1),), 2)
        assert parse_factorization("(2 1)").factors == ((1, 2),)


class TestFullCycle:
    def test_word_must_start_at_zero(self):
        with pytest.raises(ValueError):
            FullCycle((1, 0, 2))

    def test_round_trip_with_permutation(self):
        sigma = FullCycle((0, 2, 3, 5, 6, 4, 1))
        assert FullCycle.from_permutation(sigma.to_permutation()) == sigma

    def test_rejects_non_full_cycle(self):
        with pytest.raises(ValueError):
            FullCycle.from_permutation(perm("(0 1)(2 3)", 3))

    def test_parse(self):
        assert parse_full_cycle("0 2 3 5 6 4 1").word == (0, 2, 3, 5, 6, 4, 1)
        assert parse_full_cycle("(0 2 1)").word == (0, 2, 1)
        with pytest.raises(ValueError):
            parse_full_cycle("2 0 1")


class TestUnimodal:
    def test_examples(self):
        assert is_unimodal(parse_full_cycle("0 2 3 5 4 1"))
        assert not is_unimodal(parse_full_cycle("0 1 4 3 5 2"))
        assert is_unimodal(parse_full_cycle("0 1"))

    def test_stream_n1(self):
        assert [s.word for s in unimodal_cycles(1)] == [(0, 1)]

    def test_stream_counts(self):
        for n in range(1, 11):
            seen = list(unimodal_cycles(n))
            assert len(seen) == 2 ** (n - 1)
            assert len({s.word for s in seen}) == len(seen)
            assert all(is_unimodal(s) for s in seen)

    def test_stream_contains_example(self):
        assert (0, 2, 3, 5, 4, 1) in {s.word for s in unimodal_cycles(5)}

    def test_matches_the_rise_fall_oracle(self):
        for n in range(8):
            for sigma in full_cycles(n):
                assert is_unimodal(sigma) == is_unimodal_by_rise_fall(sigma), sigma

    def test_matches_filtering_all_cycles(self):
        for n in range(1, 6):
            expected = {s.word for s in full_cycles(n) if is_unimodal(s)}
            assert {s.word for s in unimodal_cycles(n)} == expected


# each value type built from one spelling of its sequences, lists or tuples
VALUES_FROM_SEQUENCES = {
    "Permutation": lambda seq: Permutation(seq([1, 2, 0])),
    "FullCycle": lambda seq: FullCycle(seq([0, 2, 1])),
    "LabelledTree": lambda seq: LabelledTree(seq([0, 0, 1])),
    "LabelledDyckPath": lambda seq: LabelledDyckPath(seq([0, 0]), seq([2, 1]), "below"),
    "ArchDiagram": lambda seq: ArchDiagram(3, seq([seq([0, 2, 2]), seq([0, 1, 1])])),
}


@pytest.mark.parametrize("name", list(VALUES_FROM_SEQUENCES))
def test_a_value_built_from_lists_holds_tuples(name):
    from_lists = VALUES_FROM_SEQUENCES[name](list)
    from_tuples = VALUES_FROM_SEQUENCES[name](tuple)
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    for field in dataclasses.fields(from_lists):
        value = getattr(from_lists, field.name)
        if not isinstance(value, (int, str)):
            assert type(value) is tuple, field.name
            assert not any(isinstance(x, list) for x in value), field.name


class TestSigmaContiguous:
    SIGMA = parse_full_cycle("0 2 3 5 6 4 1")

    def contiguous(self, pi):
        return window_cycles(pi.images, self.SIGMA.word) is not None

    def test_identity_always(self):
        assert self.contiguous(Permutation.identity(6))

    def test_worked_examples(self):
        assert self.contiguous(perm("(0 2)(5 6 4)", 6))
        assert self.contiguous(perm("(6 4)", 6))
        assert not self.contiguous(perm("(2 3 4)(5 6)", 6))

    def test_window_traversal_order_matters(self):
        # support {0, 2} is a window, but only one traversal fits the word
        assert self.contiguous(perm("(0 2)", 6))
        assert not self.contiguous(perm("(0 2 3 5)", 6).inverse())

    def test_window_scan_matches_cycle_walk(self):
        # every permutation under every full cycle, n <= 5
        for n in range(6):
            words = [sigma.word for sigma in full_cycles(n)]
            for images in itertools.permutations(range(n + 1)):
                pi = Permutation(images)
                for word in words:
                    expected = window_cycles_by_cycles(pi, FullCycle(word))
                    assert window_cycles(images, word) == expected


class TestSwapProduct:
    def test_worked_example(self):
        # (0 1)(0 2) multiplies out to the canonical 3-cycle on [2]
        assert swap_product([(0, 1), (0, 2)], 2) == [1, 2, 0]
        assert swap_product([], 3) == [0, 1, 2, 3]


class TestReflect:
    def test_conjugate_transposition(self):
        assert reflect_conjugate(Factorization(((0, 2),), 3)).factors == ((1, 3),)

    def test_conjugate_canonical_cycle(self):
        assert reflect_conjugate(FullCycle.canonical(4)).word == (0, 4, 3, 2, 1)

    def test_conjugate_is_involution(self):
        for n in range(1, 7):
            for pair in itertools.combinations(range(n + 1), 2):
                f = Factorization((pair,), n)
                assert reflect_conjugate(reflect_conjugate(f)) == f
            for sigma in full_cycles(min(n, 4)):
                assert reflect_conjugate(reflect_conjugate(sigma)) == sigma

    def test_conjugate_preserves_unimodality(self):
        for n in range(1, 9):
            for sigma in unimodal_cycles(n):
                assert is_unimodal(reflect_conjugate(sigma))

    def test_conjugate_matches_group_conjugation(self):
        for n in range(1, 6):
            gamma = Permutation(tuple(n - i for i in range(n + 1)))
            for sigma in full_cycles(n):
                direct = reflect_conjugate(sigma).to_permutation()
                assert direct == compose(compose(gamma, sigma.to_permutation()), gamma)

    def test_reverse_worked_example(self):
        f = parse_factorization("(0 1)(0 2)", 2)
        assert str(reflect_reverse(f)) == "(0 2)(1 2)"

    def test_reverse_is_involution_fixing_the_product(self):
        sigma2 = FullCycle.canonical(2).to_permutation()
        f = parse_factorization("(1 2)(0 1)", 2)
        g = reflect_reverse(f)
        assert g.product() == sigma2
        assert reflect_reverse(g) == f

    def test_conjugate_factorization(self):
        f = parse_factorization("(0 1)(0 2)", 2)
        g = reflect_conjugate(f)
        assert isinstance(g, Factorization)
        assert str(g) == "(1 2)(0 2)"
