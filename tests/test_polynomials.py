import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import tree_recursion_by_dict

from parkfact.polynomials import (
    BivariatePoly,
    catalan_number,
    catalan_qt,
    qt_bracket,
    qt_factorial_product,
    tree_recursion_I,
)


def poly(terms):
    return BivariatePoly(terms)


Q = BivariatePoly.var_q()
T = BivariatePoly.var_t()

polys = st.builds(
    BivariatePoly,
    st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.integers(-50, 50),
        max_size=6,
    ),
)


class TestArithmetic:
    def test_add_identity(self):
        assert (Q + T) + BivariatePoly.zero() == Q + T

    def test_add_cancellation_prunes(self):
        assert Q + (-1) * Q == BivariatePoly.zero()
        assert (Q + (-1) * Q).terms() == []

    def test_add_coefficient_sum(self):
        a = poly({(0, 2): 1, (0, 3): 1, (1, 2): 1})
        b = poly({(0, 3): 1})
        assert a + b == poly({(0, 2): 1, (0, 3): 2, (1, 2): 1})

    def test_mul_identity(self):
        assert (Q + T) * BivariatePoly.one() == Q + T

    def test_mul_simple_factorization_product(self):
        # t * (t + q) * t is the simple-family enumerator at n = 2
        assert T * (T + Q) * T == poly({(1, 2): 1, (0, 3): 1})

    def test_mul_difference_of_squares(self):
        assert (Q + T) * (Q - T) == Q * Q - T * T

    def test_int_coercion(self):
        assert 2 * Q + 1 == poly({(1, 0): 2, (0, 0): 1})
        assert (Q + 1) - 1 == Q

    def test_hash_agrees_with_int_equality(self):
        for c in (0, 1, 5, -7, 10**30):
            p = BivariatePoly.monomial(c)
            assert p == c and hash(p) == hash(c)
            assert c in {p} and p in {c}
        assert hash(BivariatePoly.zero()) == hash(0)

    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + BivariatePoly.zero() == a
        assert a * BivariatePoly.one() == a

    @given(polys, st.integers(-3, 3), st.integers(-3, 3))
    def test_eval_is_a_ring_morphism(self, a, qv, tv):
        assert (a * a + a).eval(qv, tv) == a.eval(qv, tv) ** 2 + a.eval(qv, tv)


class TestStructure:
    def test_zero_is_empty_mapping(self):
        assert BivariatePoly.zero().terms() == []
        assert not BivariatePoly.zero()

    def test_degree_of_zero_is_an_error(self):
        with pytest.raises(ValueError):
            BivariatePoly.zero().degree

    def test_degree(self):
        assert (Q * Q + T).degree == 2

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            poly({(-1, 0): 1})

    def test_canonical_term_order(self):
        p = poly({(1, 0): 1, (0, 2): 1, (0, 1): 1, (2, 2): 1})
        assert [k for k, _ in p.terms()] == [(0, 1), (0, 2), (1, 0), (2, 2)]

    def test_text_form(self):
        assert str(poly({(0, 2): 1, (0, 3): 1, (1, 2): 1})) == "t^2 + t^3 + q*t^2"
        assert str(BivariatePoly.zero()) == "0"
        assert str(poly({(0, 0): 3})) == "3"
        assert str(Q * Q - T) == "-t + q^2"

    def test_json_round_trip(self):
        p = poly({(0, 2): 1, (3, 1): -7, (0, 0): 10**30})
        records = p.to_json_terms()
        assert records[0] == {"q": 0, "t": 0, "c": str(10**30)}
        # no command reads polynomial JSON back; the records carry every term
        assert BivariatePoly({(r["q"], r["t"]): int(r["c"]) for r in records}) == p

    def test_substitutions(self):
        p = Q * Q * T + T
        assert p.at_t(1) == Q * Q + 1
        assert p.at_q(0) == T
        assert p.diagonal() == poly({(3, 0): 1, (1, 0): 1})
        assert p.swap_qt() == T * T * Q + Q
        assert p.divide_t(1) == Q * Q + 1
        with pytest.raises(ValueError):
            p.divide_t(2)


class TestBracket:
    def test_one(self):
        assert qt_bracket(1) == BivariatePoly.one()

    def test_two(self):
        assert qt_bracket(2) == T + Q

    def test_four(self):
        assert qt_bracket(4) == poly({(0, 3): 1, (1, 2): 1, (2, 1): 1, (3, 0): 1})

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            qt_bracket(0)

    def test_term_count_and_unit_coefficients(self):
        for n in range(1, 9):
            terms = qt_bracket(n).terms()
            assert len(terms) == n
            assert all(c == 1 for _, c in terms)


class TestFactorialProduct:
    def test_empty_product(self):
        assert qt_factorial_product(0) == BivariatePoly.one()

    def test_one(self):
        assert qt_factorial_product(1) == T

    def test_two(self):
        assert qt_factorial_product(2) == poly({(0, 3): 1, (1, 2): 1})

    def test_counts_permutations_at_one(self):
        for n in range(7):
            assert qt_factorial_product(n).eval(1, 1) == math.factorial(n)


class TestCatalan:
    def test_base(self):
        assert catalan_qt(0) == BivariatePoly.one()

    def test_two(self):
        assert catalan_qt(2) == Q + T

    def test_three_at_ones(self):
        assert catalan_qt(3).eval(1, 1) == 5

    def test_counts_catalan(self):
        for n in range(13):
            assert catalan_qt(n).eval(1, 1) == catalan_number(n)

    def test_nonnegative_coefficients(self):
        for n in range(9):
            assert all(c > 0 for _, c in catalan_qt(n).terms())


class TestTreeRecursion:
    def test_pins(self):
        series = tree_recursion_I(3)
        assert series[0] == BivariatePoly.one()
        assert series[1] == T
        assert series[2] == poly({(0, 2): 1, (0, 3): 1, (1, 2): 1})
        assert series[3] == poly(
            {
                (0, 6): 1, (1, 5): 2, (2, 4): 2, (3, 3): 1,
                (0, 5): 1, (1, 4): 1, (2, 3): 1,
                (0, 4): 3, (1, 3): 3, (0, 3): 1,
            }
        )

    def test_counts_at_ones(self):
        series = tree_recursion_I(8)
        for n, p in enumerate(series):
            expected = 1 if n == 0 else (n + 1) ** (n - 1)
            assert p.eval(1, 1) == expected

    def test_specializes_to_univariate_recursion(self):
        # at t = 1 the convolution collapses to the classical one
        series = [p.at_t(1) for p in tree_recursion_I(8)]
        for n in range(8):
            rhs = BivariatePoly.zero()
            for i in range(n + 1):
                rhs = rhs + (
                    math.comb(n, i)
                    * qt_bracket(i + 1).at_t(1)
                    * series[i]
                    * series[n - i]
                )
            assert series[n + 1] == rhs

    def test_paired_terms_match_the_plain_convolution(self):
        series = [BivariatePoly.one()]
        for n in range(10):
            series.append(sum(
                (math.comb(n, i) * T * qt_bracket(i + 1) * series[i] * series[n - i]
                 for i in range(n + 1)),
                BivariatePoly.zero(),
            ))
        assert tree_recursion_I(10) == series

    def test_packed_rows_match_the_dict_recursion(self):
        # the slot width depends on n_max, so every n_max is its own case
        for n_max in range(13):
            assert tree_recursion_I(n_max) == tree_recursion_by_dict(n_max)

    def test_nonnegative_coefficients(self):
        for p in tree_recursion_I(8):
            assert all(c > 0 for _, c in p.terms())

    def test_reduced_symmetry(self):
        for n, p in enumerate(tree_recursion_I(8)):
            reduced = p.divide_t(n)
            assert reduced == reduced.swap_qt()
