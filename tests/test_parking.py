import random
import tracemalloc
from itertools import accumulate, combinations_with_replacement, product

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    _bounce_kernel,
    bounce_pass_by_tuples,
    is_major_by_sort,
    is_parking_by_sort,
    parking_by_sweep,
    park_by_scans,
    parking_enumerators_by_one_loop,
    pinv_histogram_by_dfs,
)

from parkfact.parking import (
    LabelledDyckPath,
    MajorSequence,
    ParkingEnumerators,
    ParkingFunction,
    _contacts,
    _counting_test,
    _jump_walk,
    _parking_tuples,
    _pinv_histogram,
    area,
    bounce,
    complement,
    copinv,
    enumerate_majors,
    enumerate_parking,
    from_path,
    is_major,
    is_parking,
    park_process,
    parking_enumerators,
    parse_entries,
    parse_parking,
    parse_sequence,
    pinv,
    sequence_to_json,
    theta,
    theta_inverse,
    to_path,
)
from parkfact.polynomials import BivariatePoly, tree_recursion_I
from parkfact.trees import enumerate_trees, tree_count

P9 = ParkingFunction((1, 3, 1, 7, 0, 7, 0, 1, 4))
M9 = MajorSequence((2, 5, 3, 8, 6, 9, 7, 6, 5))


def random_parking(n):
    return st.lists(
        st.integers(0, max(n - 1, 0)), min_size=n, max_size=n
    ).filter(is_parking).map(lambda xs: ParkingFunction(tuple(xs)))


class TestMembership:
    def test_worked_examples(self):
        assert is_parking((1, 3, 1, 7, 0, 7, 0, 1, 4))
        assert is_major((2, 5, 3, 8, 6, 9, 7, 6, 5))

    def test_zeros_park(self):
        assert is_parking((0,) * 5)

    def test_rejections(self):
        assert not is_parking((1, 1))
        assert not is_parking((-1, 0))
        assert not is_major((0, 1))
        with pytest.raises(ValueError):
            ParkingFunction((1, 1))
        with pytest.raises(ValueError):
            MajorSequence((1, 1))

    def test_counts(self):
        for n in range(6):
            assert sum(1 for _ in enumerate_parking(n)) == tree_count(n)

    def test_raw_stream_is_the_filtered_sweep(self):
        # the generator and is_parking against the sorted definition on
        # every word of [0, n)^n
        for n in range(1, 7):
            swept = list(parking_by_sweep(n))
            assert list(_parking_tuples(n)) == swept
            assert list(filter(is_parking, product(range(n), repeat=n))) == swept
        assert list(_parking_tuples(0)) == [()]

    def test_predicates_match_the_sorted_definitions(self):
        for n in range(6):
            for word in product(range(-1, n + 2), repeat=n):
                assert is_parking(word) == is_parking_by_sort(word)
                assert is_major(word) == is_major_by_sort(word)

    def test_complement_is_a_bijection(self):
        for n in range(6):
            majors = {complement(p).entries for p in enumerate_parking(n)}
            assert len(majors) == tree_count(n)
            assert all(is_major(m) for m in majors)
            assert {m.entries for m in enumerate_majors(n)} == majors


class TestArea:
    def test_worked_examples(self):
        assert area(P9) == 12
        assert area(M9) == 15

    def test_complement_shifts_area_by_n(self):
        for n in range(6):
            for p in enumerate_parking(n):
                assert area(complement(p)) == area(p) + n

    def test_zero_area_staircase(self):
        n = 5
        p = ParkingFunction(tuple(range(n)))
        assert area(p) == 0
        assert area(complement(p)) == n


class TestPaths:
    def test_worked_example(self):
        path = to_path(P9)
        assert path.heights == (0, 0, 1, 1, 1, 3, 4, 7, 7)
        assert path.labels == (7, 5, 8, 3, 1, 2, 9, 6, 4)
        assert path.side == "below"

    def test_single_and_empty(self):
        assert to_path(ParkingFunction((0,))).heights == (0,)
        assert to_path(ParkingFunction(())).heights == ()

    def test_round_trip_exhaustive(self):
        for n in range(5):
            for p in enumerate_parking(n):
                assert from_path(to_path(p)) == p
                m = complement(p)
                assert from_path(to_path(m)) == m

    @given(st.integers(1, 6).flatmap(random_parking))
    def test_round_trip_random(self, p):
        assert from_path(to_path(p)) == p

    def test_label_order_enforced(self):
        with pytest.raises(ValueError):
            LabelledDyckPath((0, 0), (1, 2), "below")

    def test_side_bounds_enforced(self):
        with pytest.raises(ValueError):
            LabelledDyckPath((1,), (1,), "below")
        with pytest.raises(ValueError):
            LabelledDyckPath((0,), (1,), "above")

    def test_lattice_points(self):
        path = to_path(ParkingFunction((0, 0)))
        assert path.lattice_points() == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]


class TestBounce:
    def test_worked_example(self):
        contacts, value = bounce(P9)
        assert contacts == (0, 2, 5, 7, 9)
        assert value == 22
        assert (0, *to_path(P9).labels) == (0, 7, 5, 8, 3, 1, 2, 9, 6, 4)

    def test_all_zeros(self):
        contacts, value = bounce(ParkingFunction((0,) * 6))
        assert contacts == (0, 6)
        assert value == 6

    def test_staircase(self):
        n = 6
        contacts, value = bounce(ParkingFunction(tuple(range(n))))
        assert contacts == tuple(range(n + 1))
        assert value == n * (n + 1) // 2

    def test_empty(self):
        contacts, value = bounce(ParkingFunction(()))
        assert contacts == (0,)
        assert value == 0

    def test_vertical_run_unions(self):
        # the D sets hanging off one vertical run of the bounce path are
        # disjoint and cover exactly the labels strictly to its right
        for n in range(1, 6):
            for p in enumerate_parking(n):
                contacts, _ = bounce(p)
                w, D = (0, *to_path(p).labels), theta(p).descendants()
                for idx in range(len(contacts) - 1):
                    lo, hi = contacts[idx], contacts[idx + 1]
                    run = [w[m] for m in range(lo + 1, hi + 1)]
                    union: set[int] = set()
                    total = 0
                    for v in run:
                        union |= D[v]
                        total += len(D[v])
                    assert total == len(union)  # pairwise disjoint
                    assert union == {w[m] for m in range(hi + 1, n + 1)}
                    assert len(union) == n - hi

    def test_stall_is_an_internal_error(self):
        # (1, 1) is not parking: the ball finds no entry at height 0
        with pytest.raises(AssertionError, match="stalled"):
            _contacts([0, 2, 2])

    def test_self_exclusion(self):
        for p in enumerate_parking(4):
            D = theta(p).descendants()
            assert all(v not in D[v] for v in range(5))


class TestCDSets:
    def test_table_pins(self):
        tree = theta(P9)
        C, D = tree.children(), tree.descendants()
        N = set(range(1, 10))
        assert set(C[9]) == {4, 6}
        assert set(D[3]) == {4, 6, 9}
        assert set(D[7]) == N - {5, 7}
        assert set(D[0]) == N
        # C[w_h] holds the path labels at height h, which run decreasing
        path = to_path(P9)
        at = [tuple(x for x, y in zip(path.labels, path.heights) if y == h) for h in (0, 1)]
        assert at == [(7, 5), (8, 3, 1)]
        assert (C[0], C[7]) == (at[0][::-1], at[1][::-1])

    def test_two_zeros(self):
        p = ParkingFunction((0, 0))
        tree = theta(p)
        C, D = tree.children(), tree.descendants()
        assert (0, *to_path(p).labels) == (0, 2, 1)
        assert C[0] == (1, 2)
        assert C[1] == () and C[2] == ()
        assert D[0] == {1, 2}
        assert D[1] == frozenset() and D[2] == frozenset()

    @staticmethod
    def assert_matches_the_mask_oracle(p):
        # pinv, copinv and descendants() read theta's tree; the oracle builds
        # one bitmask per vertex from the paper's recursive D-set definition
        *_, masks, value, below = _bounce_kernel(p.entries)
        total = sum(mask.bit_count() for mask in masks)
        assert (pinv(p), copinv(p), bounce(p)[1]) == (below, total - below, value)
        assert theta(p).descendants() == tuple(
            frozenset(x for x in range(p.n + 1) if mask >> x & 1) for mask in masks)

    def test_matches_the_mask_oracle_exhaustively(self):
        for n in range(7):
            for p in enumerate_parking(n):
                self.assert_matches_the_mask_oracle(p)

    def test_matches_the_mask_oracle_on_seeded_inputs(self):
        # seeded uniform parking functions (cycle lemma: one diagonal shift
        # of a random word parks), each round-tripped through theta
        rng = random.Random(22)
        for _ in range(200):
            n = rng.randint(7, 200)
            word = [rng.randrange(n + 1) for _ in range(n)]
            shifts = (tuple((a + s) % (n + 1) for a in word) for s in range(n + 1))
            p = ParkingFunction(next(e for e in shifts if is_parking(e)))
            assert theta_inverse(theta(p)) == p
            self.assert_matches_the_mask_oracle(p)


class TestTheta:
    def test_worked_example(self):
        t = theta(P9)
        kids = t.children()
        assert set(kids[0]) == {5, 7}
        assert set(kids[7]) == {1, 3, 8}
        assert set(kids[3]) == {9}
        assert set(kids[9]) == {4, 6}

    def test_zeros_to_star(self):
        t = theta(ParkingFunction((0, 0, 0)))
        assert t.parent == (0, 0, 0, 0)

    def test_staircase_to_path(self):
        n = 5
        t = theta(ParkingFunction(tuple(range(n))))
        assert t.parent == (0, 0, 1, 2, 3, 4)

    def test_staircase_memory_stays_linear(self):
        # the staircase maps to a path, where each vertex's D set holds all
        # the labels above it: about n^2/2 labels in all (as bitmasks, 55 MiB
        # at n = 20,000); theta needs only the label groups
        n = 20_000
        p = ParkingFunction(tuple(range(n)))
        tracemalloc.start()
        try:
            t = theta(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.parent == (0, *range(n))
        assert peak < 10 * 2**20, peak

    def test_bijection(self):
        for n in range(5):
            images = {theta(p).parent for p in enumerate_parking(n)}
            assert len(images) == tree_count(n)
            for p in enumerate_parking(n):
                assert theta_inverse(theta(p)) == p
            for t in enumerate_trees(n):
                assert theta(theta_inverse(t)) == t

    def test_pinv_pins(self):
        assert pinv(P9) == 8
        assert copinv(P9) == 14


class TestParkProcess:
    def test_two_zeros(self):
        proc = park_process(ParkingFunction((0, 0)))
        assert proc.stalls == (0, 1)
        assert proc.jump == 1
        assert proc.cojump == 2

    def test_staircase_never_jumps(self):
        n = 6
        proc = park_process(ParkingFunction(tuple(range(n))))
        assert proc.stalls == tuple(range(n))
        assert proc.jump == 0

    def test_worked_example_jump(self):
        assert park_process(P9).jump == 12

    def test_jump_equals_area(self):
        for n in range(6):
            for p in enumerate_parking(n):
                assert park_process(p).jump == area(p)

    def test_parking_tuples_fill_every_stall(self):
        for n in range(7):
            for entries in _parking_tuples(n):
                stalls = park_process(ParkingFunction(entries)).stalls
                assert sorted(stalls) == list(range(n))

    def test_bitmask_step_matches_the_set_scans(self):
        def check(entries):
            assert tuple(park_process(ParkingFunction(entries))) == park_by_scans(entries)

        for n in range(7):
            for entries in _parking_tuples(n):
                check(entries)
        # 200 seeded parking functions (the one rotation of a random word
        # that parks), then the two extremes of the lot
        rng = random.Random(26)
        for _ in range(200):
            n = rng.randint(0, 200)
            word = [rng.randrange(n + 1) for _ in range(n)]
            shifts = (tuple((a + s) % (n + 1) for a in word) for s in range(n + 1))
            check(next(e for e in shifts if is_parking(e)))
        check((0,) * 2_000)
        check(tuple(range(2_000)))

    def test_closed_forms_on_a_long_lot(self):
        # all zeros: car i rolls i stalls east and every stall west of it
        # is taken; the staircase never rolls
        n = 20_000
        zeros = park_process(ParkingFunction((0,) * n))
        assert zeros == (tuple(range(n)), n * (n - 1) // 2, n)
        staircase = park_process(ParkingFunction(tuple(range(n))))
        assert staircase == (tuple(range(n)), 0, n * (n + 1) // 2)

    def test_jump_walk_matches_the_recursion(self):
        # at most 2^n masks per level: about 0.3 s for n = 7..11
        series = tree_recursion_I(11)
        for n in range(7, 12):
            assert _jump_walk(n) == series[n], n

    def test_enumerators_are_sums_of_per_object_statistics(self):
        for n in range(7):
            acc = {name: {} for name in ParkingEnumerators._fields}
            for p in enumerate_parking(n):
                proc = park_process(p)
                for name, key in (
                    ("area", (area(p), 0)),
                    ("bounce", (bounce(p)[1], 0)),
                    ("jump_cojump", (proc.jump, proc.cojump)),
                    ("pinv_copinv", (pinv(p), copinv(p))),
                ):
                    acc[name][key] = acc[name].get(key, 0) + 1
            expected = ParkingEnumerators(*(BivariatePoly(acc[f]) for f in acc))
            assert parking_enumerators(n) == expected

    def test_two_passes_match_the_one_loop_route(self):
        for n in range(7):
            assert parking_enumerators(n) == parking_enumerators_by_one_loop(n)

    def test_content_major_pass_matches_the_per_tuple_route(self):
        for n in range(7):
            enums = parking_enumerators(n)
            expected = bounce_pass_by_tuples(n)
            assert (enums.area, enums.bounce, enums.pinv_copinv) == expected

    def test_pinv_histogram_matches_the_dfs_content_by_content(self):
        for n in range(7):
            for content in combinations_with_replacement(range(n), n):
                if not _counting_test(content, n):
                    continue
                sizes = [content.count(h) for h in range(n + 1)]
                reach = list(accumulate(sizes))
                groups = [(h, reach[h] - size + 1, size) for h, size in enumerate(sizes) if size]
                expected = {k: c for k, c in enumerate(pinv_histogram_by_dfs(groups, n)) if c}
                assert _pinv_histogram(sizes) == expected, content

    def test_pinv_pass_matches_the_recursion_at_eight(self):
        # 4.78M parking functions through one walk per content, about 0.6 s
        assert parking_enumerators(8).pinv_copinv == tree_recursion_I(8)[8]

    @pytest.mark.slow
    def test_pinv_pass_matches_the_recursion_at_nine(self):
        # 100M parking functions over 4,862 contents, about 4 s
        assert parking_enumerators(9).pinv_copinv == tree_recursion_I(9)[9]

    def test_pinv_pass_memory_stays_small(self):
        # one memo per content, dropped when the content is done: about
        # 0.7 MiB at n = 7
        tracemalloc.start()
        try:
            parking_enumerators.__wrapped__(7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    def test_enumerators(self):
        enums = parking_enumerators(2)
        i2 = BivariatePoly({(0, 2): 1, (0, 3): 1, (1, 2): 1})
        assert enums.pinv_copinv == i2
        assert enums.jump_cojump == i2
        assert parking_enumerators(3).bounce == BivariatePoly(
            {(3, 0): 1, (4, 0): 6, (5, 0): 3, (6, 0): 6}
        )
        zero = parking_enumerators(0)
        assert zero.area == zero.bounce == zero.jump_cojump == zero.pinv_copinv == 1


class TestTextForms:
    def test_parse(self):
        assert parse_parking("1,3,1,7,0,7,0,1,4") == P9
        assert parse_parking(" 0 , 0 ") == ParkingFunction((0, 0))
        for text, entries in (("1,3,1", (1, 3, 1)), ("(0,1,0)", (0, 1, 0)),
                              ("0 1", (0, 1)), ("0,,1", (0, 1)), ("", ()), ("()", ())):
            assert parse_entries(text) == entries
        for text in ("(0,1", "0,1)", "((0,1))", "(0)(1)"):
            with pytest.raises(ValueError):
                parse_entries(text)

    def test_parse_sequence_reads_the_family_off_the_entries(self):
        assert parse_sequence(str(P9)) == P9
        assert parse_sequence(str(M9)) == M9
        with pytest.raises(ValueError, match="neither a parking function nor a major"):
            parse_sequence("2,0")

    def test_json_round_trip(self):
        obj = sequence_to_json(P9)
        assert obj == {"n": 9, "entries": list(P9.entries), "kind": "parking"}
        assert ParkingFunction(tuple(obj["entries"])) == P9
        obj = sequence_to_json(M9)
        assert obj == {"n": 9, "entries": list(M9.entries), "kind": "major"}
        assert MajorSequence(tuple(obj["entries"])) == M9
