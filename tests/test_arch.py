from itertools import combinations, product

import pytest
from oracles import caps_by_nested_scan, rotator_by_scan, valid_by_vertex_rotators

from parkfact.arch import (
    ArchDiagram,
    arch_from_json,
    arch_to_factorization,
    arch_to_json,
    caps,
    decompose_simple,
    is_simple_arch,
    is_valid_arch,
    recompose,
    rotator,
    sigma_diagram,
)
from parkfact.factorizations import (
    Factorization,
    area_lower,
    area_upper,
    enumerate_factorizations,
    is_simple,
    parse_factorization,
)
from parkfact.permutations import FullCycle, Transposition, full_cycles, parse_full_cycle

WORKED_F = parse_factorization("(1 4)(1 5)(3 4)(0 2)(0 4)", 5)
WORKED_SIGMA = parse_full_cycle("0 2 4 5 1 3")
F9 = parse_factorization("(1 2)(3 5)(1 3)(7 8)(0 6)(7 9)(0 7)(1 6)(4 5)", 9)


def diagram(n_vertices, *arcs):
    return ArchDiagram(n_vertices, tuple(arcs))


class TestSigmaDiagram:
    def test_worked_example(self):
        d = sigma_diagram(WORKED_F, WORKED_SIGMA)
        assert set(d.arcs) == {(2, 4, 1), (3, 4, 2), (2, 5, 3), (0, 1, 4), (0, 2, 5)}

    def test_single_arc(self):
        d = sigma_diagram(parse_factorization("(0 1)", 1), FullCycle.canonical(1))
        assert d.arcs == ((0, 1, 1),)

    def test_canonical_positions_are_vertices(self):
        d = sigma_diagram(parse_factorization("(0 1)(0 2)", 2), FullCycle.canonical(2))
        assert d.arcs == ((0, 1, 1), (0, 2, 2))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            sigma_diagram(parse_factorization("(0 1)", 1), FullCycle.canonical(2))


class TestRotator:
    def test_worked_example(self):
        d = sigma_diagram(WORKED_F, WORKED_SIGMA)
        # vertex 4 sits at position 2 of the word (0 2 4 5 1 3)
        assert rotator(d, 2) == (1, 3, 5)

    def test_right_arcs_by_nearness_then_left_arcs(self):
        d = diagram(4, (1, 2, 1), (1, 3, 2), (0, 1, 3))
        assert rotator(d, 1) == (1, 2, 3)

    def test_empty(self):
        d = diagram(3, (0, 1, 1), (1, 2, 2))
        assert rotator(d, 2) == (2,)

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            rotator(diagram(2, (0, 1, 1)), 2)


class TestValidity:
    def test_worked_example_valid(self):
        assert is_valid_arch(sigma_diagram(WORKED_F, WORKED_SIGMA))

    def test_crossing_invalid(self):
        assert not is_valid_arch(diagram(4, (0, 2, 1), (1, 3, 2)))

    def test_decreasing_rotator_invalid(self):
        # two arcs leaving 0: the nearer one must carry the smaller label
        assert not is_valid_arch(diagram(3, (0, 2, 1), (0, 1, 2)))

    def test_shared_vertex_reads_right_arcs_first(self):
        # the diagram of (1 2)(0 1), a member of F_2, so it must be valid:
        # at the shared vertex the rightward arc is seen before the leftward
        d = sigma_diagram(parse_factorization("(1 2)(0 1)", 2), FullCycle.canonical(2))
        assert d.arcs == ((1, 2, 1), (0, 1, 2))
        assert rotator(d, 1) == (1, 2)
        assert is_valid_arch(d)

    def test_cycle_invalid(self):
        assert not is_valid_arch(diagram(3, (0, 1, 1), (0, 1, 2)))

    def test_disconnected_invalid(self):
        assert not is_valid_arch(diagram(4, (0, 1, 1), (0, 1, 2), (2, 3, 3)))

    def test_shared_endpoints_do_not_cross(self):
        assert is_valid_arch(diagram(3, (0, 1, 1), (0, 2, 2)))

    def test_criterion_against_membership(self):
        # every length-n transposition word, every full cycle, n <= 3
        for n in range(1, 4):
            pairs = list(combinations(range(n + 1), 2))
            for sigma in full_cycles(n):
                target = sigma.to_permutation()
                for word in product(pairs, repeat=n):
                    f = Factorization(tuple(Transposition(a, b) for a, b in word), n)
                    member = f.product() == target
                    d = sigma_diagram(f, sigma)
                    assert member == is_valid_arch(d)
                    assert_matches_oracles(d)

    def test_every_diagram_of_the_family_matches_oracles(self):
        for n in range(6):
            sigma = FullCycle.canonical(n)
            for f in enumerate_factorizations(sigma):
                assert_matches_oracles(sigma_diagram(f, sigma))


def assert_matches_oracles(d):
    """Validity, every rotator and the caps agree with the per-vertex scans
    and the pairwise nesting test."""
    valid = valid_by_vertex_rotators(d)
    assert is_valid_arch(d) == valid
    for v in range(d.n_vertices):
        assert rotator(d, v) == rotator_by_scan(d, v)
    if valid:
        assert caps(d) == caps_by_nested_scan(d)
    else:
        with pytest.raises(ValueError):
            caps(d)


class TestFactorizationBijection:
    def test_worked_example_round_trip(self):
        d = sigma_diagram(WORKED_F, WORKED_SIGMA)
        assert arch_to_factorization(d, WORKED_SIGMA) == WORKED_F

    def test_single_arc(self):
        d = diagram(2, (0, 1, 1))
        assert str(arch_to_factorization(d, FullCycle.canonical(1))) == "(0 1)"

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            arch_to_factorization(diagram(4, (0, 2, 1), (1, 3, 2), (0, 3, 3)),
                                  FullCycle.canonical(3))

    def test_round_trip_every_cycle(self):
        for n in range(1, 5):
            for sigma in full_cycles(n):
                for f in enumerate_factorizations(sigma):
                    d = sigma_diagram(f, sigma)
                    assert arch_to_factorization(d, sigma) == f

    def test_diagrams_are_distinct_across_the_family(self):
        for n in range(1, 5):
            sigma = FullCycle.canonical(n)
            seen = {sigma_diagram(f, sigma) for f in enumerate_factorizations(sigma)}
            assert len(seen) == (n + 1) ** (n - 1)


class TestCaps:
    def test_worked_example(self):
        d = sigma_diagram(WORKED_F, WORKED_SIGMA)
        assert caps(d) == ((0, 2, 5), (2, 5, 3))

    def test_single_arc(self):
        assert caps(diagram(2, (0, 1, 1))) == ((0, 1, 1),)

    def test_nested_simple(self):
        d = sigma_diagram(
            parse_factorization("(0 1)(0 2)", 2), FullCycle.canonical(2)
        )
        assert caps(d) == ((0, 2, 2),)
        assert is_simple_arch(d)

    def test_simple_iff_contains_the_long_factor(self):
        for n in range(1, 5):
            sigma = FullCycle.canonical(n)
            for f in enumerate_factorizations(sigma):
                assert is_simple_arch(sigma_diagram(f, sigma)) == is_simple(f)

    def test_caps_chain_from_left_to_right(self):
        # every full cycle for n <= 4, and the canonical cycle for n = 5
        cycles = [sigma for n in range(1, 5) for sigma in full_cycles(n)]
        for sigma in cycles + [FullCycle.canonical(5)]:
            for f in enumerate_factorizations(sigma):
                arcs = caps(sigma_diagram(f, sigma))
                assert arcs[0][0] == 0 and arcs[-1][1] == sigma.n
                assert all(arcs[i][1] == arcs[i + 1][0] for i in range(len(arcs) - 1))


class TestDecomposition:
    def test_length_nine_example(self):
        d = sigma_diagram(F9, FullCycle.canonical(9))
        parts = decompose_simple(d)
        assert [set(index) for _, index in parts] == [
            {1, 2, 3, 5, 7, 8, 9},
            {4, 6},
        ]
        assert all(is_simple_arch(part) for part, _ in parts)
        assert recompose(parts) == d
        # area additivity across the parts
        area_l = area_u = 0
        for part, _ in parts:
            g = arch_to_factorization(part, FullCycle.canonical(part.n))
            area_l += area_lower(g)
            area_u += area_upper(g)
        assert (area_l, area_u) == (12, 15)

    def test_simple_decomposes_to_itself(self):
        d = sigma_diagram(parse_factorization("(0 1)(0 2)", 2), FullCycle.canonical(2))
        parts = decompose_simple(d)
        assert parts == ((d, (1, 2)),)

    def test_round_trip_exhaustive(self):
        for n in range(1, 6):
            sigma = FullCycle.canonical(n)
            for f in enumerate_factorizations(sigma):
                d = sigma_diagram(f, sigma)
                parts = decompose_simple(d)
                merged = sorted(x for _, index in parts for x in index)
                assert merged == list(range(1, n + 1))
                assert recompose(parts) == d

    def test_recompose_ignores_input_order(self):
        d = sigma_diagram(F9, FullCycle.canonical(9))
        parts = list(decompose_simple(d))
        assert recompose(reversed(parts)) == d

    def test_parts_relabelled_order_preserving(self):
        d = sigma_diagram(F9, FullCycle.canonical(9))
        for part, index in decompose_simple(d):
            assert is_valid_arch(part)
            assert [label for _, _, label in part.arcs] == list(
                range(1, len(index) + 1)
            )


class TestJson:
    def test_round_trip(self):
        d = sigma_diagram(WORKED_F, WORKED_SIGMA)
        obj = arch_to_json(d)
        assert obj["n"] == 5
        assert arch_from_json(obj) == d

    def test_missing_key_or_non_object(self):
        for obj in ({"n": 1}, [1]):
            with pytest.raises(ValueError, match="JSON object with keys n, arcs"):
                arch_from_json(obj)

    def test_wrong_json_types_and_fractions(self):
        for obj in (
            {"n": 1, "arcs": [5]},
            {"n": 1, "arcs": 5},
            {"n": 1, "arcs": [[0, 1, None]]},
            {"n": None, "arcs": []},
            {"n": 1, "arcs": [[0, 1, 1.7]]},
            {"n": 1, "arcs": [[0, 1, True]]},
            {"n": 1, "arcs": ["012"]},
        ):
            with pytest.raises(ValueError):
                arch_from_json(obj)
        assert arch_from_json({"n": 1.0, "arcs": [[0, 1, 1]]}) == diagram(2, (0, 1, 1))

    def test_label_validation(self):
        with pytest.raises(ValueError):
            diagram(3, (0, 1, 1), (1, 2, 3))
        with pytest.raises(ValueError):
            diagram(2, (1, 0, 1))
