import json
from collections import Counter
from itertools import product

import pytest
from oracles import (
    inversion_enumerator_by_trees,
    pruefer_to_parent_dfs,
    reaches_root_by_walk,
    trees_by_parent_sweep,
)

from parkfact.cli import main
from parkfact.polynomials import BivariatePoly, tree_recursion_I
from parkfact.trees import (
    LabelledTree,
    _blocks,
    _pruefer_to_parent,
    _tree_lines,
    depth_enumerator,
    enumerate_trees,
    format_tree,
    inversion_enumerator,
    parse_tree,
    tree_count,
    tree_stats,
    tree_to_json,
    unrank_tree,
)


def tree(*parents):
    return LabelledTree((0, *parents))


class TestLabelledTree:
    def test_rejects_cycles(self):
        with pytest.raises(ValueError):
            tree(2, 1)  # 1 <-> 2 never reaches the root

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tree(5)

    def test_accepts_exactly_the_maps_whose_walks_reach_the_root(self):
        # all 8,477 in-range parent maps on m <= 6 vertices
        for m in range(1, 7):
            for tail in product(range(m), repeat=m - 1):
                parent = (0, *tail)
                try:
                    LabelledTree(parent)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == reaches_root_by_walk(parent), parent

    def test_children(self):
        t = tree(0, 1, 1)  # 0 - 1 - {2, 3}
        assert t.children() == ((1,), (2, 3), (), ())

    def test_descendants(self):
        assert tree(0, 1, 1).descendants() == ({1, 2, 3}, {2, 3}, set(), set())
        assert tree(2, 0).descendants() == ({1, 2}, set(), {1})

    def test_descendants_count_depth_and_inv(self):
        # depth counts the (ancestor, descendant) pairs and inv those with
        # the descendant smaller, so the D sets recount both statistics
        for n in range(6):
            for t in enumerate_trees(n):
                D = t.descendants()
                inv, _, depth = tree_stats(t)
                assert sum(map(len, D)) == depth
                assert sum(v < u for u in range(n + 1) for v in D[u]) == inv


class TestEnumeration:
    def test_counts(self):
        assert tree_count(0) == 1
        assert tree_count(2) == 3
        assert tree_count(3) == 16
        for n in range(7):
            assert sum(1 for _ in enumerate_trees(n)) == tree_count(n)

    def test_count_at_seven(self):
        # every tree of the n = 7 stream is valid, the block decode equals
        # the decode of each code of the odometer on its own, and the block
        # formatting of the listing writes each tree's own line
        codes = product(range(8), repeat=6)
        count = 0
        for t, digits, line in zip(enumerate_trees(7), codes, _tree_lines(7), strict=True):
            assert t.parent == _pruefer_to_parent(digits[::-1], 8)
            assert line == format_tree(t)
            count += 1
        assert count == tree_count(7)

    def test_generators_agree(self):
        # the parent-vector sweep and the Pruefer stream give the same family
        for n in range(5):
            naive = {t.parent for t in trees_by_parent_sweep(n)}
            pruefer = {t.parent for t in enumerate_trees(n)}
            assert naive == pruefer

    def test_stream_is_unranking_order(self):
        for n in range(7):
            assert list(enumerate_trees(n)) == [
                unrank_tree(n, i) for i in range(tree_count(n))
            ]

    def test_decoder_matches_dfs_oracle(self):
        for n in range(7):
            for seq in product(range(n + 1), repeat=max(n - 1, 0)):
                assert _pruefer_to_parent(seq, n + 1) == pruefer_to_parent_dfs(seq, n + 1)

    def test_no_duplicates(self):
        for n in range(6):
            seen = [t.parent for t in enumerate_trees(n)]
            assert len(set(seen)) == len(seen)

    def test_unrank_bounds(self):
        with pytest.raises(ValueError):
            unrank_tree(3, 16)
        assert unrank_tree(3, 0).n == 3

    def test_block_first_is_the_decode_of_its_own_code(self):
        # `first` is read off the one decode of `shared`; the independent
        # decode of the code (u1, *rest) is the oracle
        for n in range(2, 7):
            codes = product(range(n + 1), repeat=n - 2)
            for (first, _, u1), digits in zip(_blocks(n), codes, strict=True):
                assert first == _pruefer_to_parent((u1, *digits[::-1]), n + 1)

    def test_count_refuses_negative_n(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            tree_count(-1)

    def test_unrank_refuses_negative_n(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            unrank_tree(-1, 0)

    def test_stream_refuses_negative_n(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            list(enumerate_trees(-1))


class TestStatistics:
    def test_increasing_path(self):
        # 0 - 1 - 2: three coinversions, nothing inverted
        assert tree_stats(tree(0, 1)) == (0, 3, 3)

    def test_star(self):
        for n in range(1, 6):
            star = LabelledTree((0,) * (n + 1))
            assert tree_stats(star) == (0, n, n)

    def test_inverted_path(self):
        # 0 - 2 - 1: the pair (2, 1) is the unique inversion
        assert tree_stats(tree(2, 0)) == (1, 2, 3)

    def test_root_contributes_n_coinversions(self):
        for n in range(6):
            for t in enumerate_trees(n):
                i, c, d = tree_stats(t)
                assert i + c == d
                assert c >= n

    def test_max_depth_exactly_on_paths_from_the_root(self):
        for n in range(7):
            top = n * (n + 1) // 2
            for t in enumerate_trees(n):
                is_path = all(len(kids) <= 1 for kids in t.children())
                assert (tree_stats(t)[2] == top) == is_path


class TestEnumerators:
    def test_inversion_pins(self):
        assert inversion_enumerator(0) == BivariatePoly.one()
        assert inversion_enumerator(2) == BivariatePoly(
            {(0, 2): 1, (0, 3): 1, (1, 2): 1}
        )
        assert inversion_enumerator(3) == tree_recursion_I(3)[3]

    def test_brute_force_meets_recursion(self):
        series = tree_recursion_I(6)
        for n in range(7):
            assert inversion_enumerator(n) == series[n]

    def test_block_sum_matches_the_per_tree_sum(self):
        # both halves of the block sum: the leaf u1 hung at each s0, and
        # the shared tree rerooted at each s0 when u1 = 0
        for n in range(7):
            assert inversion_enumerator(n) == inversion_enumerator_by_trees(n), n

    def test_block_sum_at_seven_meets_the_recursion(self):
        assert inversion_enumerator(7) == tree_recursion_I(7)[7]

    def test_inversion_enumerator_refuses_negative_n(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            inversion_enumerator(-1)

    def test_depth_enumerator_refuses_negative_n(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            depth_enumerator(-2)

    def test_depth_pins(self):
        q = BivariatePoly.var_q()
        assert depth_enumerator(2) == q**2 + 2 * q**3
        assert depth_enumerator(3) == q**3 + 6 * q**4 + 3 * q**5 + 6 * q**6
        assert depth_enumerator(4) == BivariatePoly(
            {(4, 0): 1, (5, 0): 12, (6, 0): 24, (7, 0): 28,
             (8, 0): 24, (9, 0): 12, (10, 0): 24}
        )

    def test_raw_enumerators_are_sums_over_validated_trees(self):
        for n in range(7):
            stats = [tree_stats(t) for t in enumerate_trees(n)]
            assert inversion_enumerator(n) == BivariatePoly(Counter(s[:2] for s in stats))
            assert depth_enumerator(n) == BivariatePoly(Counter((s[2], 0) for s in stats))


class TestTextForms:
    def test_format(self):
        assert format_tree(tree(0, 1)) == "0:-,1:0,2:1"

    def test_listing_is_format_tree_of_the_validated_stream(self, capsys):
        def listing(n, fmt):
            assert main(["enumerate", "--kind", "trees", "--n", str(n), "--format", fmt]) == 0
            return capsys.readouterr().out.splitlines()

        for n in range(7):
            assert listing(n, "text") == [format_tree(t) for t in enumerate_trees(n)]
        for n in range(5):
            assert listing(n, "json") == [json.dumps(tree_to_json(t)) for t in enumerate_trees(n)]

    def test_parse_round_trip(self):
        for t in enumerate_trees(3):
            assert parse_tree(format_tree(t)) == t

    def test_json_round_trip(self):
        t = tree(0, 1, 0)
        obj = tree_to_json(t)
        assert obj == {"n": 3, "parent": [0, 1, 0]}
        assert LabelledTree((0, *obj["parent"])) == t

    def test_parse_rejects_duplicate_vertex(self):
        for text in ("0:-,1:0,1:0,2:1", "0:-,0:-,1:0"):
            with pytest.raises(ValueError, match="twice"):
                parse_tree(text)
