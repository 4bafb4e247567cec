from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    is_major_by_sort,
    is_parking_by_sort,
    parking_by_sweep,
    parking_enumerators_by_one_loop,
)

from parkfact.parking import (
    LabelledDyckPath,
    MajorSequence,
    ParkingEnumerators,
    ParkingFunction,
    _bounce_kernel,
    _park_kernel,
    _parking_tuples,
    area,
    bounce,
    cd_sets,
    complement,
    copinv,
    enumerate_majors,
    enumerate_parking,
    from_path,
    is_major,
    is_parking,
    park_process,
    parking_enumerators,
    parse_parking,
    pinv,
    sequence_from_json,
    sequence_to_json,
    theta,
    theta_inverse,
    to_path,
)
from parkfact.polynomials import BivariatePoly
from parkfact.trees import enumerate_trees, tree_count, tree_stats

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
        data, value = bounce(P9)
        assert data.contacts == (0, 2, 5, 7, 9)
        assert value == 22
        assert data.w == (0, 7, 5, 8, 3, 1, 2, 9, 6, 4)

    def test_all_zeros(self):
        data, value = bounce(ParkingFunction((0,) * 6))
        assert data.contacts == (0, 6)
        assert value == 6

    def test_staircase(self):
        n = 6
        data, value = bounce(ParkingFunction(tuple(range(n))))
        assert data.contacts == tuple(range(n + 1))
        assert value == n * (n + 1) // 2

    def test_empty(self):
        data, value = bounce(ParkingFunction(()))
        assert data.contacts == (0,)
        assert value == 0

    def test_vertical_run_unions(self):
        # the D sets hanging off one vertical run of the bounce path are
        # disjoint and cover exactly the labels strictly to its right
        for n in range(1, 6):
            for p in enumerate_parking(n):
                data, _ = bounce(p)
                contacts = data.contacts
                for idx in range(len(contacts) - 1):
                    lo, hi = contacts[idx], contacts[idx + 1]
                    run = [data.w[m] for m in range(lo + 1, hi + 1)]
                    union: set[int] = set()
                    total = 0
                    for v in run:
                        union |= data.D[v]
                        total += len(data.D[v])
                    assert total == len(union)  # pairwise disjoint
                    assert union == {data.w[m] for m in range(hi + 1, n + 1)}
                    assert len(union) == n - hi

    def test_stall_is_an_internal_error(self):
        # (1, 1) is not parking: the ball finds no entry at height 0
        with pytest.raises(AssertionError, match="stalled"):
            _bounce_kernel((1, 1))

    def test_self_exclusion(self):
        for p in enumerate_parking(4):
            data, _ = bounce(p)
            assert all(v not in data.D[v] for v in range(5))


class TestCDSets:
    def test_table_pins(self):
        data = cd_sets(P9)
        N = set(range(1, 10))
        assert set(data.C[9]) == {4, 6}
        assert set(data.D[3]) == {4, 6, 9}
        assert set(data.D[7]) == N - {5, 7}
        assert set(data.D[0]) == N
        assert data.C[7] == (8, 3, 1)  # decreasing, matching the path labels
        assert data.C[0] == (7, 5)

    def test_two_zeros(self):
        data = cd_sets(ParkingFunction((0, 0)))
        assert data.w == (0, 2, 1)
        assert data.C[0] == (2, 1)
        assert data.C[1] == () and data.C[2] == ()
        assert data.D[0] == {1, 2}
        assert data.D[1] == frozenset() and data.D[2] == frozenset()


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

    def test_bijection(self):
        for n in range(5):
            images = {theta(p).parent for p in enumerate_parking(n)}
            assert len(images) == tree_count(n)
            for p in enumerate_parking(n):
                assert theta_inverse(theta(p)) == p
            for t in enumerate_trees(n):
                assert theta(theta_inverse(t)) == t

    def test_statistics_transport(self):
        for n in range(5):
            for p in enumerate_parking(n):
                i, c, _ = tree_stats(theta(p))
                assert pinv(p) == i
                assert copinv(p) == c

    def test_pinv_pins(self):
        assert pinv(P9) == 8
        assert copinv(P9) == 14

    def test_pinv_plus_copinv_is_bounce(self):
        # the bitmask counts against the D sets, element by element
        for n in range(7):
            for p in enumerate_parking(n):
                data, value = bounce(p)
                below = sum(1 for v in range(n + 1) for x in data.D[v] if x < v)
                above = sum(1 for v in range(n + 1) for x in data.D[v] if x > v)
                assert (pinv(p), copinv(p)) == (below, above)
                assert below + above == value


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
                stalls, _, _ = _park_kernel(entries)
                assert sorted(stalls) == list(range(n))

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

    def test_json_round_trip(self):
        obj = sequence_to_json(P9)
        assert obj["kind"] == "parking"
        assert sequence_from_json(obj) == P9
        obj = sequence_to_json(M9)
        assert obj["kind"] == "major"
        assert sequence_from_json(obj) == M9

    def test_json_missing_key(self):
        with pytest.raises(ValueError, match="keys n, entries, kind"):
            sequence_from_json({"n": 2, "entries": [0, 0]})
